//! Determinism battery for the sharded valuation runtime, completing the
//! trilogy of `parallel_determinism.rs` (thread counts) and
//! `mc_determinism.rs` (stochastic estimators): for every shardable
//! `Estimator` — exact classification/regression/weighted, truncated,
//! baseline/improved MC, group testing — splitting the job into {1, 2, 7}
//! shards, running each shard at {1, 8} threads, round-tripping every
//! partial through the versioned wire format, and merging must reproduce
//! the unsharded estimator **bit for bit**. (`graph_determinism.rs` runs
//! the same battery with `Source::Graph`.)
//!
//! A second layer pins the merge protocol itself: input-order invariance,
//! and loud rejection of version mismatches, mixed jobs (different seeds ⇒
//! different fingerprints), coverage gaps and overlaps.

use knnshap::datasets::ClassDataset;
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Estimator, Family, Source, Task};
use knnshap::valuation::exact_regression::knn_reg_shapley_with_threads;
use knnshap::valuation::exact_unweighted::knn_class_shapley_with_threads;
use knnshap::valuation::exact_weighted::weighted_knn_class_shapley;
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::sharding::{
    merge_partials, ShardError, ShardPartial, ShardSpec, SHARD_FORMAT_VERSION,
};
use knnshap::valuation::truncated::truncated_class_shapley_with_threads;
use knnshap::valuation::types::ShapleyValues;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, check_sharded, class_estimator, random_class, random_reg};

fn class<'a>(train: &'a ClassDataset, test: &'a ClassDataset) -> Data<'a> {
    Data::Class { train, test }
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
        let est = class_estimator(Family::Exact, k, WeightFn::Uniform, 0);
        check_sharded(
            &reference,
            &format!("exact class k={k}"),
            &est,
            class(&train, &test),
            Source::Brute,
        );
    }
}

#[test]
fn exact_regression_shards_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0xB2), 70, 23);
    let reference = knn_reg_shapley_with_threads(&train, &test, 3, 1);
    let est = Estimator {
        task: Task::Reg,
        ..class_estimator(Family::Exact, 3, WeightFn::Uniform, 0)
    };
    let data = Data::Reg {
        train: &train,
        test: &test,
    };
    check_sharded(&reference, "exact reg", &est, data, Source::Brute);
}

#[test]
fn weighted_classification_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xC3), 30, 9, 2);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let reference = weighted_knn_class_shapley(&train, &test, 2, weight, 1);
    let est = class_estimator(Family::Exact, 2, weight, 0);
    check_sharded(
        &reference,
        "weighted class",
        &est,
        class(&train, &test),
        Source::Brute,
    );
}

#[test]
fn truncated_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xD4), 90, 17, 3);
    let reference = truncated_class_shapley_with_threads(&train, &test, 2, 0.15, 1);
    let est = class_estimator(Family::Truncated { eps: 0.15 }, 2, WeightFn::Uniform, 0);
    check_sharded(
        &reference,
        "truncated",
        &est,
        class(&train, &test),
        Source::Brute,
    );
}

#[test]
fn mc_baseline_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xE5), 25, 4, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference =
        mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(100), 7, None, 1).values;
    let est = class_estimator(
        Family::McBaseline {
            rule: StoppingRule::Fixed(100),
        },
        2,
        WeightFn::Uniform,
        7,
    );
    check_sharded(
        &reference,
        "mc baseline",
        &est,
        class(&train, &test),
        Source::Brute,
    );
}

#[test]
fn mc_improved_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xF6), 40, 5, 2);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let reference =
        mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(100), 11, None, 1).values;
    let est = class_estimator(
        Family::McImproved {
            rule: StoppingRule::Fixed(100),
        },
        3,
        WeightFn::Uniform,
        11,
    );
    check_sharded(
        &reference,
        "mc improved",
        &est,
        class(&train, &test),
        Source::Brute,
    );
}

#[test]
fn group_testing_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x17), 15, 3, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference = group_testing_shapley_with_threads(&u, 500, 13, 1).values;
    let est = class_estimator(
        Family::GroupTesting { tests: 500 },
        2,
        WeightFn::Uniform,
        13,
    );
    check_sharded(
        &reference,
        "group testing",
        &est,
        class(&train, &test),
        Source::Brute,
    );
}

/// Shard `i` of `count` of `est` over classification data.
fn shard(
    est: &Estimator,
    train: &ClassDataset,
    test: &ClassDataset,
    i: usize,
    count: usize,
    threads: usize,
) -> ShardPartial {
    est.prepare(class(train, test), Source::Brute)
        .expect("prepare")
        .partial(ShardSpec::new(i, count), threads)
}

// ---------------------------------------------------------------------------
// Golden KNNSHARD files: the wire format pinned independently of the encoder.
// ---------------------------------------------------------------------------

/// Recompute shard 1 of 2 of one small job per shard kind — plus the
/// weighted exact-classification job, which shares a kind with the
/// unweighted one — and compare each with the committed file under
/// `tests/fixtures/`, written by earlier encoders. The accumulator's storage
/// may change and the entry points may be redesigned; these bytes may not.
/// The regression job's contributions reach past 1 in magnitude, so its
/// slots mix lane and register state.
#[test]
fn shard_files_match_golden_fixtures() {
    let spec = ShardSpec::new(1, 2);
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x60), 60, 12, 3);
    let (rtrain, rtest) = random_reg(&mut StdRng::seed_from_u64(0x61), 60, 12);
    let uniform = WeightFn::Uniform;
    let of = |est: Estimator| shard(&est, &train, &test, 1, 2, 1);
    let reg = Estimator {
        task: Task::Reg,
        ..class_estimator(Family::Exact, 3, uniform, 0)
    };
    let reg_data = Data::Reg {
        train: &rtrain,
        test: &rtest,
    };
    let cases = [
        (
            "exact_class_1of2.knnshard",
            of(class_estimator(Family::Exact, 3, uniform, 0)),
        ),
        (
            "exact_reg_1of2.knnshard",
            reg.prepare(reg_data, Source::Brute)
                .unwrap()
                .partial(spec, 1),
        ),
        (
            "mc_improved_1of2.knnshard",
            of(class_estimator(
                Family::McImproved {
                    rule: StoppingRule::Fixed(64),
                },
                3,
                uniform,
                11,
            )),
        ),
        (
            "weighted_class_1of2.knnshard",
            of(class_estimator(
                Family::Exact,
                2,
                WeightFn::InverseDistance { eps: 1e-3 },
                0,
            )),
        ),
        (
            "truncated_1of2.knnshard",
            of(class_estimator(
                Family::Truncated { eps: 0.2 },
                3,
                uniform,
                0,
            )),
        ),
        (
            "mc_baseline_1of2.knnshard",
            of(class_estimator(
                Family::McBaseline {
                    rule: StoppingRule::Fixed(16),
                },
                3,
                uniform,
                11,
            )),
        ),
        (
            "group_testing_1of2.knnshard",
            of(class_estimator(
                Family::GroupTesting { tests: 64 },
                3,
                uniform,
                11,
            )),
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

/// One committed `KNNJOBPLAN` file per method (written by an earlier
/// `shard-plan`, dataset paths replaced by `/data/…`): each must parse, and
/// re-serializing must reproduce it byte for byte — the plan text is a
/// format, not an implementation detail of the spec types.
#[test]
fn plan_files_match_golden_fixtures() {
    use knnshap::runtime::spec::JobPlan;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plans");
    let expected = [
        ("exact_class", "exact-class"),
        ("exact_reg", "exact-reg"),
        ("truncated", "truncated"),
        ("mc_baseline", "mc-baseline"),
        ("mc_improved", "mc-improved"),
        ("group_testing", "group-testing"),
    ];
    for (name, kind) in expected {
        let text = std::fs::read_to_string(dir.join(format!("{name}.knnjobplan")))
            .expect("fixture present");
        let plan = JobPlan::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plan.kind.name(), kind, "{name}");
        assert_eq!(
            plan.to_file_string(),
            text,
            "{name}: parse → serialize drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// Merge protocol: ordering, versioning, and failure modes.
// ---------------------------------------------------------------------------

fn three_shards() -> (ShapleyValues, Vec<ShardPartial>) {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x28), 40, 10, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 2, 1);
    let est = class_estimator(Family::Exact, 2, WeightFn::Uniform, 0);
    let parts = (0..3)
        .map(|i| shard(&est, &train, &test, i, 3, 1))
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
    let mc = |perms, seed| {
        class_estimator(
            Family::McBaseline {
                rule: StoppingRule::Fixed(perms),
            },
            2,
            WeightFn::Uniform,
            seed,
        )
    };
    let parts: Vec<ShardPartial> = (0..2)
        .map(|i| shard(&mc(40, 1), &train, &test, i, 2, 1))
        .collect();

    // Same job, different seed ⇒ fingerprint mismatch.
    let alien = shard(&mc(40, 2), &train, &test, 1, 2, 1);
    let err = merge_partials(&[parts[0].clone(), alien]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");

    // Different budget ⇒ different total_items.
    let short = shard(&mc(30, 1), &train, &test, 1, 2, 1);
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
    let est = class_estimator(Family::Exact, 1, WeightFn::Uniform, 0);
    let parts: Vec<ShardPartial> = (0..7)
        .map(|i| shard(&est, &train, &test, i, 7, 1))
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
    let est = class_estimator(Family::Exact, 2, WeightFn::Uniform, 0);
    for i in 0..2 {
        let a = shard(&est, &train, &test, i, 2, 1);
        let b = shard(&est, &train, &test, i, 2, 8);
        assert_eq!(a.to_bytes(), b.to_bytes(), "shard {i} bytes");
    }
}
