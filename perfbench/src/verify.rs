//! Output checks. Every comparison is bit for bit: the program promises the
//! same bits at every thread count, shard count and serving path.

use std::io::Write;

/// A values CSV exactly as `knnshap value --out` writes it.
pub fn values_csv(labels: &[u32], values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 32);
    writeln!(out, "index,label,shapley_value").expect("writing to a Vec cannot fail");
    for (i, (label, v)) in labels.iter().zip(values).enumerate() {
        writeln!(out, "{i},{label},{v}").expect("writing to a Vec cannot fail");
    }
    out
}

/// `Err` naming the first differing line when two outputs differ.
pub fn same_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got
        .iter()
        .zip(want)
        .take_while(|(a, b)| a == b)
        .filter(|(a, _)| **a == b'\n')
        .count()
        + 1;
    Err(format!(
        "{what}: output differs from the reference at line {line} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// `Err` naming the first index whose bits differ.
pub fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {} but the reference is {}",
            got[i], want[i]
        )),
    }
}

/// Efficiency axiom: the values add up to the utility of the full set.
pub fn efficiency(total: f64, grand: f64) -> Result<(), String> {
    if (total - grand).abs() <= 1e-9 * grand.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "values total {total} but the full-set utility is {grand}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<u32>, Vec<f64>) {
        (vec![0, 2, 1], vec![0.125, -3.5e-6, 1.0 / 3.0])
    }

    #[test]
    fn csv_matches_the_value_command_format() {
        let (l, v) = sample();
        assert_eq!(
            String::from_utf8(values_csv(&l, &v)).unwrap(),
            "index,label,shapley_value\n0,0,0.125\n1,2,-0.0000035\n2,1,0.3333333333333333\n"
        );
    }

    #[test]
    fn one_flipped_bit_fails_verification() {
        let (l, v) = sample();
        let want = values_csv(&l, &v);
        assert!(same_bytes("x", &want, &want).is_ok());
        assert!(same_bits("x", &v, &v).is_ok());
        for i in 0..v.len() {
            let mut bad = v.clone();
            bad[i] = f64::from_bits(bad[i].to_bits() ^ 1);
            assert!(same_bits("x", &bad, &v).is_err());
            let err = same_bytes("x", &values_csv(&l, &bad), &want).unwrap_err();
            assert!(err.contains(&format!("line {}", i + 2)), "{err}");
        }
        for byte in 0..want.len() {
            for bit in 0..8 {
                let mut bad = want.clone();
                bad[byte] ^= 1 << bit;
                assert!(same_bytes("x", &bad, &want).is_err());
            }
        }
    }

    #[test]
    fn efficiency_tolerates_rounding_only() {
        assert!(efficiency(0.5 + 1e-15, 0.5).is_ok());
        assert!(efficiency(0.5 + 1e-6, 0.5).is_err());
    }
}
