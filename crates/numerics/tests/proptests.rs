//! Property-based tests for the numerical substrate.

use knnshap_numerics::binom::{binomial_u128, Combinations, LogFactorialTable};
use knnshap_numerics::exact::{ExactSum, ExactVec};
use knnshap_numerics::integrate::{adaptive_simpson, simpson};
use knnshap_numerics::roots::{bisect, brent};
use knnshap_numerics::special::{bennett_h, normal_cdf};
use knnshap_numerics::stats::{mean, percentile, ranks, spearman, variance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_binomial_symmetry(n in 1usize..300, kfrac in 0.0f64..1.0) {
        let k = ((n as f64) * kfrac) as usize;
        let t = LogFactorialTable::new(n);
        let a = t.ln_binomial(n, k);
        let b = t.ln_binomial(n, n - k);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn binomial_row_sums_to_2n(n in 0u64..30) {
        let total: u128 = (0..=n).map(|k| binomial_u128(n, k)).sum();
        prop_assert_eq!(total, 1u128 << n);
    }

    #[test]
    fn combinations_are_sorted_unique_and_complete(n in 0usize..9, k in 0usize..9) {
        let all = Combinations::new(n, k).collect_all();
        prop_assert_eq!(all.len() as u128, binomial_u128(n as u64, k as u64));
        for c in &all {
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(c.iter().all(|&x| x < n));
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn simpson_agrees_with_adaptive_on_smooth(a in -2.0f64..0.0, w in 0.1f64..3.0) {
        let b = a + w;
        let f = |x: f64| (x * 1.3).sin() + 0.5 * x * x;
        let fixed = simpson(f, a, b, 4000);
        let adaptive = adaptive_simpson(f, a, b, 1e-12);
        prop_assert!((fixed - adaptive).abs() < 1e-8);
    }

    #[test]
    fn bisect_and_brent_agree(c in -5.0f64..5.0) {
        // root of x^3 + x - c (strictly increasing => unique root)
        let f = |x: f64| x * x * x + x - c;
        let r1 = bisect(f, -10.0, 10.0, 1e-12, 300);
        let r2 = brent(f, -10.0, 10.0, 1e-12, 300);
        prop_assert!((r1 - r2).abs() < 1e-8);
        prop_assert!(f(r1).abs() < 1e-8);
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric(x in -4.0f64..4.0, dx in 0.001f64..1.0) {
        prop_assert!(normal_cdf(x + dx) >= normal_cdf(x));
        prop_assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bennett_h_bounds(u in 0.0f64..50.0) {
        // u²/(2+u) ≤ h(u) ≤ u²/2 for u ≥ 0
        prop_assert!(bennett_h(u) + 1e-12 >= u * u / (2.0 + u));
        prop_assert!(bennett_h(u) <= u * u / 2.0 + 1e-12);
    }

    #[test]
    fn variance_is_translation_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 2..50),
        shift in -1000.0f64..1000.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&xs) - variance(&shifted)).abs() < 1e-6 * (1.0 + variance(&xs)));
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-8);
    }

    #[test]
    fn ranks_are_a_permutation_sum(xs in prop::collection::vec(-10.0f64..10.0, 1..40)) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        // tie-averaged ranks always sum to n(n+1)/2
        prop_assert!((r.iter().sum::<f64>() - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(
        xs in prop::collection::vec(0.01f64..10.0, 3..30),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x.ln()).collect(); // strictly monotone
        prop_assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_within_range(
        xs in prop::collection::vec(-50.0f64..50.0, 1..40),
        p in 0.0f64..100.0,
    ) {
        let v = percentile(&xs, p);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// ExactVec's fixed-point lane against a per-slot ExactSum reference.
//
// `ExactVec` keeps most summands in a dense `i128` lane (multiples of 2⁻¹¹⁴
// below 1 in magnitude) and the rest in per-slot registers. Whatever the
// split, `value` bits and `encode_into` bytes must equal those of one plain
// `ExactSum` per slot fed the same summands. The battery below follows the
// environment's `PROPTEST_CASES` (CI replays it at 1024).
// ---------------------------------------------------------------------------

/// One summand from the classes the lane's eligibility rule separates.
fn summand(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let ulp114 = 2.0f64.powi(-114);
    match rng.gen_range(0..16u32) {
        0 => 0.0,
        1 => -0.0,
        // Subnormal.
        2 => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
        // Lowest set bit exactly 2⁻¹¹⁴ (in the lane) or 2⁻¹¹⁵ (not).
        3 => sign * (rng.gen_range(0..1u64 << 52) * 2 + 1) as f64 * ulp114,
        4 => sign * (rng.gen_range(0..1u64 << 52) * 2 + 1) as f64 * ulp114 / 2.0,
        // Just below 1 (the largest lane summands) and exactly 1 (not).
        5 => sign * (1.0 - rng.gen_range(1..64u32) as f64 * 2.0f64.powi(-53)),
        6 => sign,
        7 => sign * f64::INFINITY,
        8 => f64::NAN,
        // Any finite bit pattern: exponents across [−1074, 1023].
        9 => f64::from_bits(
            (rng.gen_range(0..2u64) << 63)
                | (rng.gen_range(0..2047u64) << 52)
                | rng.gen_range(0..1u64 << 52),
        ),
        // Ordinary values, most of them lane-eligible.
        _ => rng.gen_range(-1.0..1.0) * 2.0f64.powi(-rng.gen_range(0..40i32)),
    }
}

/// A random record for `decode_from`: sign, optional special, a window
/// around the lane's limbs 30..34 (so some fit it, some straddle it and
/// some reach the 2¹²⁵ bound).
fn record(rng: &mut StdRng, out: &mut Vec<u8>) {
    let special = rng.gen_range(0..10u32) == 0;
    let len = rng.gen_range(0..5u16);
    let sign: u8 = match (len, special, rng.gen_bool(0.5)) {
        (0, false, _) => 0,
        (_, false, true) => 0x01,
        (_, false, false) => 0xFF,
        (_, true, true) => 0x02,
        (_, true, false) => 0xFE,
    };
    out.push(sign);
    if special {
        let s = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
        out.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    let start = if len == 0 {
        0
    } else {
        rng.gen_range(27..36u16)
    };
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    for k in 0..len {
        let limb: u32 = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => u32::MAX,
            // Around bit 125 when this limb is limb 33.
            2 if start + k == 33 => rng.gen_range(0x1FFF_FFF0..0x2000_0010),
            _ => rng.gen(),
        };
        out.extend_from_slice(&limb.to_le_bytes());
    }
}

fn same_value(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn encode_ref(reference: &[ExactSum]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in reference {
        s.encode_into(&mut out);
    }
    out
}

fn encode_vec(v: &ExactVec) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode_into(&mut out);
    out
}

/// A random partial `(ExactVec, per-slot reference)` built from adds only.
fn random_partial(rng: &mut StdRng, n: usize) -> (ExactVec, Vec<ExactSum>) {
    let mut v = ExactVec::zeros(n);
    let mut reference = vec![ExactSum::new(); n];
    for _ in 0..rng.gen_range(0..20) {
        let (i, x) = (rng.gen_range(0..n), summand(rng));
        v.add(i, x);
        reference[i].add(x);
    }
    (v, reference)
}

/// Run one random op sequence and check the vector against the reference
/// after every op.
fn lane_differential(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..7usize);
    let mut v = ExactVec::zeros(n);
    let mut reference = vec![ExactSum::new(); n];
    for step in 0..rng.gen_range(1..60) {
        match rng.gen_range(0..7u32) {
            0 | 1 => {
                let (i, x) = (rng.gen_range(0..n), summand(&mut rng));
                v.add(i, x);
                reference[i].add(x);
            }
            2 => {
                // The same vector up to three times; crossing the lane bound
                // by dense adds has its own deterministic test below.
                let xs: Vec<f64> = (0..n).map(|_| summand(&mut rng)).collect();
                for _ in 0..rng.gen_range(1..4) {
                    v.add_dense(&xs);
                    for (r, &x) in reference.iter_mut().zip(&xs) {
                        r.add(x);
                    }
                }
            }
            3 => {
                let (other, other_ref) = random_partial(&mut rng, n);
                v.merge(&other);
                for (r, o) in reference.iter_mut().zip(&other_ref) {
                    r.merge(o);
                }
            }
            4 => {
                let i = rng.gen_range(0..n);
                let (_, s) = random_partial(&mut rng, 1);
                v.merge_scalar(i, &s[0]);
                reference[i].merge(&s[0]);
            }
            5 => {
                // Merge decoded records: lane-eligible ones land in the
                // lane, so repeated merges cross the bound.
                let mut buf = Vec::new();
                for _ in 0..n {
                    record(&mut rng, &mut buf);
                }
                let mut pos = 0;
                let other = ExactVec::decode_from(&buf, &mut pos, n).expect("valid records");
                prop_assert_eq!(pos, buf.len());
                let mut pos = 0;
                let other_ref: Vec<ExactSum> = (0..n)
                    .map(|_| ExactSum::decode_from(&buf, &mut pos).expect("valid record"))
                    .collect();
                for _ in 0..rng.gen_range(1..4) {
                    v.merge(&other);
                    for (r, o) in reference.iter_mut().zip(&other_ref) {
                        r.merge(o);
                    }
                }
            }
            _ => {
                let bytes = encode_vec(&v);
                let mut pos = 0;
                v = ExactVec::decode_from(&bytes, &mut pos, n).expect("own encoding");
                prop_assert_eq!(pos, bytes.len());
            }
        }
        for (i, r) in reference.iter().enumerate() {
            prop_assert!(
                same_value(v.value(i), r.value()),
                "step {}: slot {}: {:?} vs reference {:?}",
                step,
                i,
                v.value(i),
                r.value()
            );
        }
        prop_assert_eq!(encode_vec(&v), encode_ref(&reference), "step {}", step);
    }
    Ok(())
}

proptest! {
    #[test]
    fn exact_vec_lane_matches_per_slot_reference(seed in any::<u64>()) {
        lane_differential(seed)?;
    }
}

/// Check `v` against `reference` slot by slot and byte for byte.
fn assert_matches_reference(v: &ExactVec, reference: &[ExactSum]) {
    for (i, r) in reference.iter().enumerate() {
        assert!(same_value(v.value(i), r.value()), "slot {i}");
    }
    assert_eq!(encode_vec(v), encode_ref(reference));
}

#[test]
fn lane_entry_crossing_the_bound_via_add_dense_spills_exactly() {
    // 1 − 2⁻⁵³ is the largest lane summand, (2⁵³ − 1)·2⁶¹ in lane units:
    // 2¹²⁵ / 2¹¹⁴ = 2048 deposits bring a slot to the bound.
    let x = 1.0 - 2.0f64.powi(-53);
    let xs = [x, -x, 0.5];
    let mut v = ExactVec::zeros(3);
    let mut reference = vec![ExactSum::new(); 3];
    for step in 0..2100 {
        if step == 2040 {
            assert_eq!(v.window_limbs(), 0, "still entirely in the lane");
        }
        v.add_dense(&xs);
        for (r, &x) in reference.iter_mut().zip(&xs) {
            r.add(x);
        }
    }
    assert!(v.window_limbs() > 0, "the full slots moved into registers");
    assert_matches_reference(&v, &reference);
    assert_eq!(v.value(0), 2100.0 * x);
}

#[test]
fn lane_entry_crossing_the_bound_via_merged_records_spills_exactly() {
    // 2¹²⁵ − 1 in lane units: limbs 30..34 = [2³² − 1, 2³² − 1, 2³² − 1,
    // 2²⁹ − 1], the largest magnitude the lane accepts from a record.
    let mut buf = vec![0x01, 30, 0, 4, 0];
    for limb in [u32::MAX, u32::MAX, u32::MAX, (1 << 29) - 1] {
        buf.extend_from_slice(&limb.to_le_bytes());
    }
    let decoded = ExactVec::decode_from(&buf, &mut 0, 1).unwrap();
    assert_eq!(
        decoded.window_limbs(),
        0,
        "a lane-eligible record decodes into the lane"
    );
    let one = ExactSum::decode_from(&buf, &mut 0).unwrap();

    let mut v = decoded.clone();
    v.merge(&decoded);
    assert!(
        v.window_limbs() > 0,
        "the merged entry moved into its register"
    );
    let mut reference = one.clone();
    reference.merge(&one);
    assert_matches_reference(&v, &[reference.clone()]);

    // The spilled slot keeps accumulating in both halves.
    v.merge(&decoded);
    v.add(0, -0.25);
    reference.merge(&one);
    reference.add(-0.25);
    assert_matches_reference(&v, &[reference]);
}

#[test]
fn records_outside_the_lane_survive_a_round_trip() {
    let mut records: Vec<Vec<u8>> = vec![
        // Window starts below the lane (limb 29).
        vec![0x01, 29, 0, 2, 0, 1, 0, 0, 0, 7, 0, 0, 0],
        // Exactly 2¹²⁵: the bound itself.
        vec![0xFF, 33, 0, 1, 0, 0, 0, 0, 0x20],
        // Window reaching past limb 33.
        vec![0x01, 32, 0, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        // A lane-sized finite part under a special.
        vec![0xFE],
        // A special over a zero finite part.
        vec![0x02],
    ];
    records[3].extend_from_slice(&f64::NEG_INFINITY.to_bits().to_le_bytes());
    records[3].extend_from_slice(&[31, 0, 1, 0, 9, 0, 0, 0]);
    records[4].extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
    records[4].extend_from_slice(&[0, 0, 0, 0]);
    for rec in &records {
        let v = ExactVec::decode_from(rec, &mut 0, 1).unwrap();
        let special = matches!(rec[0], 0x02 | 0xFE);
        assert!(
            special || v.window_limbs() > 0,
            "{rec:?} is not a lane record"
        );
        assert_eq!(&encode_vec(&v), rec, "round trip of {rec:?}");
        let s = ExactSum::decode_from(rec, &mut 0).unwrap();
        assert!(same_value(v.value(0), s.value()), "{rec:?}");
    }
    // All of them back to back, as one vector.
    let all = records.concat();
    let v = ExactVec::decode_from(&all, &mut 0, records.len()).unwrap();
    assert_eq!(encode_vec(&v), all);
}
