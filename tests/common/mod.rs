//! Scaffolding shared by the determinism batteries
//! (`parallel_determinism.rs`, `mc_determinism.rs`, the shard and graph
//! batteries): bitwise comparison helpers, seeded random instance
//! generators, and the shard/merge round trip of an estimator.
//!
//! Not every suite uses every helper, and each test target compiles this
//! module independently, so dead-code warnings are silenced wholesale.
#![allow(dead_code)]

use knnshap::datasets::{ClassDataset, Features, RegDataset};
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Estimator, Family, Source, Task};
use knnshap::valuation::sharding::{merge_partials, ShardPartial, ShardSpec};
use knnshap::valuation::types::ShapleyValues;
use rand::rngs::StdRng;
use rand::Rng;

/// Thread counts the batteries compare against the serial (1-thread) path.
pub const THREAD_COUNTS: [usize; 2] = [2, 8];

pub fn assert_bitwise(serial: &ShapleyValues, par: &ShapleyValues, what: &str) {
    assert_eq!(serial.len(), par.len(), "{what}: length mismatch");
    for (i, (a, b)) in serial.as_slice().iter().zip(par.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: value {i} differs: {a:?} vs {b:?}"
        );
    }
}

pub fn bitwise_ok(serial: &ShapleyValues, par: &ShapleyValues) -> bool {
    serial.len() == par.len()
        && serial
            .as_slice()
            .iter()
            .zip(par.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

pub fn random_class(
    rng: &mut StdRng,
    n: usize,
    n_test: usize,
    classes: u32,
) -> (ClassDataset, ClassDataset) {
    let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    let train = ClassDataset::new(Features::new(feats, 2), labels, classes);
    let tfeats: Vec<f32> = (0..n_test * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let tlabels: Vec<u32> = (0..n_test).map(|_| rng.gen_range(0..classes)).collect();
    let test = ClassDataset::new(Features::new(tfeats, 2), tlabels, classes);
    (train, test)
}

pub fn random_reg(rng: &mut StdRng, n: usize, n_test: usize) -> (RegDataset, RegDataset) {
    let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let train = RegDataset::new(Features::new(feats, 2), targets);
    let tfeats: Vec<f32> = (0..n_test * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ttargets: Vec<f64> = (0..n_test).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let test = RegDataset::new(Features::new(tfeats, 2), ttargets);
    (train, test)
}

/// Shard counts the sharding batteries check every family at (1 = trivial
/// split, 2 = even, 7 = deliberately awkward against the item counts).
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// Per-shard thread counts of the sharding batteries.
pub const SHARD_THREADS: [usize; 2] = [1, 8];

/// Prepare `est` over `data` with rankings from `source`, then for every
/// (shard count, thread count) combination compute the partials,
/// round-trip each through the versioned wire format (what lands on disk
/// is what merges), merge, and compare bitwise against `reference`.
pub fn check_sharded(
    reference: &ShapleyValues,
    what: &str,
    est: &Estimator,
    data: Data<'_>,
    source: Source<'_>,
) {
    let job = est.prepare(data, source).expect("prepare");
    for shards in SHARD_COUNTS {
        for threads in SHARD_THREADS {
            let parts: Vec<ShardPartial> = (0..shards)
                .map(|i| {
                    let p = job.partial(ShardSpec::new(i, shards), threads);
                    ShardPartial::from_bytes(&p.to_bytes()).expect("round trip")
                })
                .collect();
            let merged = merge_partials(&parts).expect("merge");
            assert_bitwise(
                reference,
                &merged.values,
                &format!("{what}: {shards} shards x {threads} threads"),
            );
        }
    }
}

/// A classification estimator with the given family, K, weights and seed.
pub fn class_estimator(family: Family, k: usize, weight: WeightFn, seed: u64) -> Estimator {
    Estimator {
        task: Task::Class,
        k,
        weight,
        family,
        seed,
    }
}
