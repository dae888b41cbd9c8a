//! Determinism battery for the sharded valuation runtime (ISSUE 4),
//! completing the trilogy of `parallel_determinism.rs` (thread counts) and
//! `mc_determinism.rs` (stochastic estimators): for every estimator with a
//! shard-range entry point — exact classification/regression/weighted,
//! truncated, baseline/improved MC, group testing — splitting the job into
//! {1, 2, 7} shards, running each shard at {1, 8} threads, round-tripping
//! every partial through the versioned wire format, and merging must
//! reproduce the unsharded estimator **bit for bit**.
//!
//! A second layer pins the merge protocol itself: input-order invariance,
//! and loud rejection of version mismatches, mixed jobs (different seeds ⇒
//! different fingerprints), coverage gaps and overlaps.

use knnshap::knn::WeightFn;
use knnshap::valuation::exact_regression::{knn_reg_shapley_shard, knn_reg_shapley_with_threads};
use knnshap::valuation::exact_unweighted::{
    knn_class_shapley_shard, knn_class_shapley_with_threads,
};
use knnshap::valuation::exact_weighted::{
    weighted_knn_class_shapley, weighted_knn_class_shapley_shard,
};
use knnshap::valuation::group_testing::{
    group_testing_shapley_shard, group_testing_shapley_with_threads,
};
use knnshap::valuation::mc::{
    mc_shapley_baseline_shard, mc_shapley_baseline_with_threads, mc_shapley_improved_shard,
    mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::sharding::{
    merge_partials, ShardError, ShardPartial, ShardSpec, SHARD_FORMAT_VERSION,
};
use knnshap::valuation::truncated::{
    truncated_class_shapley_shard, truncated_class_shapley_with_threads,
};
use knnshap::valuation::types::ShapleyValues;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, random_class, random_reg};

/// Shard counts every family is checked at (1 = trivial split, 2 = even,
/// 7 = deliberately awkward against 31 test points / 100 permutations).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// Per-shard thread counts.
const THREADS: [usize; 2] = [1, 8];

/// Run `make_shard` for every (shard, thread) combination, round-trip each
/// partial through bytes, merge, and compare bitwise against `reference`.
fn check_family<F>(reference: &ShapleyValues, what: &str, make_shard: F)
where
    F: Fn(ShardSpec, usize) -> ShardPartial,
{
    for shards in SHARD_COUNTS {
        for threads in THREADS {
            let parts: Vec<ShardPartial> = (0..shards)
                .map(|i| {
                    let p = make_shard(ShardSpec::new(i, shards), threads);
                    // Wire-format round trip: what lands on disk is what merges.
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

#[test]
fn exact_classification_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xA1), 80, 31, 3);
    for k in [1usize, 3] {
        // The unsharded reference must itself be thread-count-free…
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        assert_bitwise(
            &reference,
            &knn_class_shapley_with_threads(&train, &test, k, 8),
            "exact class unsharded across threads",
        );
        // …and every shard/thread combination must land on the same bits.
        check_family(
            &reference,
            &format!("exact class k={k}"),
            |spec, threads| knn_class_shapley_shard(&train, &test, k, spec, threads),
        );
    }
}

#[test]
fn exact_regression_shards_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0xB2), 70, 23);
    let reference = knn_reg_shapley_with_threads(&train, &test, 3, 1);
    check_family(&reference, "exact reg", |spec, threads| {
        knn_reg_shapley_shard(&train, &test, 3, spec, threads)
    });
}

#[test]
fn weighted_classification_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xC3), 30, 9, 2);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let reference = weighted_knn_class_shapley(&train, &test, 2, weight, 1);
    check_family(&reference, "weighted class", |spec, threads| {
        weighted_knn_class_shapley_shard(&train, &test, 2, weight, spec, threads)
    });
}

#[test]
fn truncated_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xD4), 90, 17, 3);
    let reference = truncated_class_shapley_with_threads(&train, &test, 2, 0.15, 1);
    check_family(&reference, "truncated", |spec, threads| {
        truncated_class_shapley_shard(&train, &test, 2, 0.15, spec, threads)
    });
}

#[test]
fn mc_baseline_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xE5), 25, 4, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference =
        mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(100), 7, None, 1).values;
    check_family(&reference, "mc baseline", |spec, threads| {
        mc_shapley_baseline_shard(&u, 100, 7, spec, threads)
    });
}

#[test]
fn mc_improved_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xF6), 40, 5, 2);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let reference =
        mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(100), 11, None, 1).values;
    check_family(&reference, "mc improved", |spec, threads| {
        mc_shapley_improved_shard(&inc, 100, 11, spec, threads)
    });
}

#[test]
fn group_testing_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x17), 15, 3, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference = group_testing_shapley_with_threads(&u, 500, 13, 1).values;
    check_family(&reference, "group testing", |spec, threads| {
        group_testing_shapley_shard(&u, 500, 13, spec, threads)
    });
}

// ---------------------------------------------------------------------------
// Golden KNNSHARD files: the wire format pinned independently of the encoder.
// ---------------------------------------------------------------------------

/// Recompute shard 1 of 2 of three small jobs and compare each with the
/// committed file under `tests/fixtures/`, written by an earlier encoder
/// (one `ExactSum` register per training point). The accumulator's storage
/// may change; these bytes may not. The regression job's contributions
/// reach past 1 in magnitude, so its slots mix lane and register state.
#[test]
fn shard_files_match_golden_fixtures() {
    let spec = ShardSpec::new(1, 2);
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x60), 60, 12, 3);
    let (rtrain, rtest) = random_reg(&mut StdRng::seed_from_u64(0x61), 60, 12);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let cases = [
        (
            "exact_class_1of2.knnshard",
            knn_class_shapley_shard(&train, &test, 3, spec, 1),
        ),
        (
            "exact_reg_1of2.knnshard",
            knn_reg_shapley_shard(&rtrain, &rtest, 3, spec, 1),
        ),
        (
            "mc_improved_1of2.knnshard",
            mc_shapley_improved_shard(&inc, 64, 11, spec, 1),
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (name, partial) in cases {
        let golden = std::fs::read(dir.join(name)).expect("fixture present");
        assert!(
            partial.to_bytes() == golden,
            "{name}: bytes differ from the fixture"
        );
        let decoded = ShardPartial::from_bytes(&golden).expect("fixture decodes");
        assert!(
            decoded.to_bytes() == golden,
            "{name}: decode → encode is not the identity"
        );
    }
}

// ---------------------------------------------------------------------------
// Merge protocol: ordering, versioning, and failure modes.
// ---------------------------------------------------------------------------

fn three_shards() -> (ShapleyValues, Vec<ShardPartial>) {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x28), 40, 10, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 2, 1);
    let parts = (0..3)
        .map(|i| knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 3), 1))
        .collect();
    (reference, parts)
}

#[test]
fn merge_is_input_order_invariant() {
    let (reference, mut parts) = three_shards();
    parts.rotate_left(1);
    parts.swap(0, 1);
    let merged = merge_partials(&parts).expect("merge in scrambled order");
    assert_bitwise(&reference, &merged.values, "scrambled merge order");
}

#[test]
fn merge_rejects_version_mismatch() {
    let (_, parts) = three_shards();
    let mut bytes = parts[1].to_bytes();
    bytes[8] = (SHARD_FORMAT_VERSION + 1) as u8; // bump the version field
    let err = ShardPartial::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        ShardError::UnsupportedVersion {
            found: SHARD_FORMAT_VERSION + 1
        }
    );
}

#[test]
fn merge_rejects_mixed_seeds_sizes_and_coverage_faults() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x39), 20, 4, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let parts: Vec<ShardPartial> = (0..2)
        .map(|i| mc_shapley_baseline_shard(&u, 40, 1, ShardSpec::new(i, 2), 1))
        .collect();

    // Same job, different seed ⇒ fingerprint mismatch.
    let alien = mc_shapley_baseline_shard(&u, 40, 2, ShardSpec::new(1, 2), 1);
    let err = merge_partials(&[parts[0].clone(), alien]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");

    // Different budget ⇒ different total_items.
    let short = mc_shapley_baseline_shard(&u, 30, 1, ShardSpec::new(1, 2), 1);
    let err = merge_partials(&[parts[0].clone(), short]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");

    // Gap and overlap.
    let err = merge_partials(&[parts[1].clone()]).unwrap_err();
    assert!(matches!(err, ShardError::Coverage(_)), "{err}");
    let err = merge_partials(&[parts[0].clone(), parts[0].clone(), parts[1].clone()]).unwrap_err();
    assert!(matches!(err, ShardError::Coverage(_)), "{err}");
    assert_eq!(merge_partials(&[]).unwrap_err(), ShardError::Empty);
}

#[test]
fn oversharded_jobs_merge_through_empty_shards() {
    // 7 shards of a 4-item test set: some shards cover nothing; the merge
    // must still reproduce the unsharded bits.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x4A), 30, 4, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 1, 1);
    let parts: Vec<ShardPartial> = (0..7)
        .map(|i| knn_class_shapley_shard(&train, &test, 1, ShardSpec::new(i, 7), 1))
        .collect();
    assert!(parts.iter().any(|p| p.meta.item_lo == p.meta.item_hi));
    let merged = merge_partials(&parts).expect("merge with empty shards");
    assert_bitwise(&reference, &merged.values, "oversharded");
}

#[test]
fn shard_files_are_canonical_across_thread_counts() {
    // Same shard computed at 1 and 8 threads serializes to identical BYTES —
    // the property that lets operators checksum shard files.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x5B), 60, 12, 3);
    for i in 0..2 {
        let a = knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 2), 1);
        let b = knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 2), 8);
        assert_eq!(a.to_bytes(), b.to_bytes(), "shard {i} bytes");
    }
}
