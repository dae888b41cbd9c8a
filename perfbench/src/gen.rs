//! Seeded input generation.
//!
//! Inputs depend only on the `--seed` argument and the sizes fixed in each
//! workload, never on code under test, so a parent commit and its child
//! value byte-identical files. The CSV rendering is the one
//! `knnshap_datasets::io::save_class_csv` and the daemon's `train-csv` use
//! (shortest round-trip `f32`, label last), so the program parses back
//! exactly the bits generated here.

use knnshap_datasets::{ClassDataset, Features};
use std::io::Write;

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Overlapping Gaussian classes. Centers sit close relative to the unit
/// noise, so neighbors mix labels and values spread over both signs (well
/// separated blobs make every value the same and hide ranking mistakes).
#[derive(Debug, Clone)]
pub struct Blobs {
    dim: usize,
    centers: Vec<Vec<f32>>,
}

const CENTER_STD: f64 = 0.3;

impl Blobs {
    pub fn new(rng: &mut Rng, dim: usize, classes: usize) -> Self {
        let centers = (0..classes)
            .map(|_| {
                (0..dim)
                    .map(|_| (rng.normal() * CENTER_STD) as f32)
                    .collect()
            })
            .collect();
        Blobs { dim, centers }
    }

    pub fn point(&self, rng: &mut Rng) -> (Vec<f32>, u32) {
        let label = rng.below(self.centers.len() as u64) as u32;
        let c = &self.centers[label as usize];
        let row = (0..self.dim).map(|i| c[i] + rng.normal() as f32).collect();
        (row, label)
    }

    pub fn dataset(&self, rng: &mut Rng, n: usize) -> ClassDataset {
        let mut feats = Vec::with_capacity(n * self.dim);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let (row, label) = self.point(rng);
            feats.extend_from_slice(&row);
            labels.push(label);
        }
        ClassDataset::new(
            Features::new(feats, self.dim),
            labels,
            self.centers.len() as u32,
        )
    }
}

/// A train/test pair drawn from one seeded mixture.
pub fn pair(
    seed: u64,
    n_train: usize,
    n_test: usize,
    dim: usize,
    classes: usize,
) -> (ClassDataset, ClassDataset, Blobs) {
    let mut rng = Rng::derive(seed, 1);
    let blobs = Blobs::new(&mut rng, dim, classes);
    let train = blobs.dataset(&mut rng, n_train);
    let test = blobs.dataset(&mut rng, n_test);
    (train, test, blobs)
}

/// One CSV row in `save_class_csv` format.
pub fn write_row(out: &mut Vec<u8>, row: &[f32], label: u32) {
    for v in row {
        write!(out, "{v},").expect("writing to a Vec cannot fail");
    }
    writeln!(out, "{label}").expect("writing to a Vec cannot fail");
}

/// A whole dataset in `save_class_csv` format.
pub fn csv(d: &ClassDataset) -> Vec<u8> {
    let mut out = Vec::with_capacity(d.len() * (d.dim() * 12 + 4));
    for i in 0..d.len() {
        write_row(&mut out, d.x.row(i), d.y[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = csv(&pair(7, 50, 5, 4, 3).0);
        let b = csv(&pair(7, 50, 5, 4, 3).0);
        let c = csv(&pair(8, 50, 5, 4, 3).0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn csv_round_trips_through_the_program_parser() {
        let (train, _, _) = pair(3, 40, 2, 5, 3);
        let dir = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, csv(&train)).unwrap();
        let back = knnshap_datasets::io::load_class_csv(&path).unwrap();
        assert_eq!(back.x.as_slice(), train.x.as_slice());
        assert_eq!(back.y, train.y);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::derive(1, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
