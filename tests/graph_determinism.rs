//! Differential battery for graph-backed valuation: every estimator family
//! that accepts a precomputed `KNNGRAPH` artifact (`Source::Graph`) must
//! reproduce its brute-force sibling **bit for bit** — unsharded (through
//! `Estimator::run`, on both schedules), across {1, 2, 7} shards, at {1, 8} threads per shard, and
//! with the graph round-tripped through the wire format before use (what
//! ships on disk is what computes). Graph-backed and brute-force shards of
//! every kind inter-merge.
//!
//! Two adversarial datasets ride along: a k-boundary instance (k = N, so
//! every training point is always in the neighborhood) and an
//! all-duplicate-distance instance (every train point at the same location,
//! so the entire ranking is decided by the index tie-break the graph must
//! have frozen in argsort order). A final layer pins the daemon seed path:
//! `ResidentValuator::with_graph` serves the same bits as a cold `new`.

use knnshap::datasets::{ClassDataset, Features};
use knnshap::knn::graph::KnnGraph;
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Estimator, Family, Source, Task};
use knnshap::valuation::exact_regression::knn_reg_shapley_with_threads;
use knnshap::valuation::exact_unweighted::knn_class_shapley_with_threads;
use knnshap::valuation::exact_weighted::{weighted_knn_class_shapley, weighted_knn_reg_shapley};
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::resident::ResidentValuator;
use knnshap::valuation::schedule::Schedule;
use knnshap::valuation::sharding::{merge_partials, ShardSpec};
use knnshap::valuation::truncated::truncated_class_shapley_with_threads;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{
    assert_bitwise, check_sharded, class_estimator, random_class, random_reg, SHARD_THREADS,
};

/// Build the graph for `(train, test)` features and round-trip it through
/// the wire format, so every assertion downstream exercises the decoder's
/// output rather than the in-memory builder's.
fn wire_graph(train: &Features, test: &Features) -> KnnGraph {
    let built = KnnGraph::build(train, test, 4);
    let decoded = KnnGraph::from_bytes(&built.to_bytes()).expect("graph wire round trip");
    assert_eq!(built, decoded, "decode must reproduce the built graph");
    decoded
}

fn class<'a>(train: &'a ClassDataset, test: &'a ClassDataset) -> Data<'a> {
    Data::Class { train, test }
}

/// The graph-backed unsharded run of `est` over `data`, at every per-shard
/// thread count and on both schedules, against `reference`.
fn check_run(
    reference: &knnshap::valuation::ShapleyValues,
    what: &str,
    est: &Estimator,
    data: Data<'_>,
    graph: &KnnGraph,
) {
    for threads in SHARD_THREADS {
        for schedule in [Schedule::Static, Schedule::Measured] {
            let via_graph = est
                .run(data, Source::Graph(graph), threads, schedule)
                .expect("graph-backed run");
            assert_bitwise(
                reference,
                &via_graph.values,
                &format!("{what} via graph, threads={threads} {schedule:?}"),
            );
        }
    }
}

#[test]
fn exact_classification_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x71), 80, 31, 3);
    let graph = wire_graph(&train.x, &test.x);
    for k in [1usize, 3] {
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        let est = class_estimator(Family::Exact, k, WeightFn::Uniform, 0);
        let what = format!("exact class k={k}");
        check_run(&reference, &what, &est, class(&train, &test), &graph);
        check_sharded(
            &reference,
            &format!("exact class k={k}"),
            &est,
            class(&train, &test),
            Source::Graph(&graph),
        );
    }
}

#[test]
fn exact_regression_graph_shards_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x72), 70, 23);
    let graph = wire_graph(&train.x, &test.x);
    let reference = knn_reg_shapley_with_threads(&train, &test, 3, 1);
    let est = Estimator {
        task: Task::Reg,
        ..class_estimator(Family::Exact, 3, WeightFn::Uniform, 0)
    };
    let data = Data::Reg {
        train: &train,
        test: &test,
    };
    check_run(&reference, "exact reg", &est, data, &graph);
    check_sharded(&reference, "exact reg", &est, data, Source::Graph(&graph));
}

#[test]
fn weighted_classification_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x73), 30, 9, 2);
    let graph = wire_graph(&train.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let reference = weighted_knn_class_shapley(&train, &test, 2, weight, 1);
    let est = class_estimator(Family::Exact, 2, weight, 0);
    check_run(
        &reference,
        "weighted class",
        &est,
        class(&train, &test),
        &graph,
    );
    check_sharded(
        &reference,
        "weighted class",
        &est,
        class(&train, &test),
        Source::Graph(&graph),
    );
}

#[test]
fn weighted_regression_graph_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x74), 40, 11);
    let graph = wire_graph(&train.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-2 };
    let reference = weighted_knn_reg_shapley(&train, &test, 2, weight, Source::Brute, 1);
    for threads in SHARD_THREADS {
        assert_bitwise(
            &reference,
            &weighted_knn_reg_shapley(&train, &test, 2, weight, Source::Graph(&graph), threads),
            &format!("weighted reg via graph threads={threads}"),
        );
    }
    let est = Estimator {
        task: Task::Reg,
        ..class_estimator(Family::Exact, 2, weight, 0)
    };
    let data = Data::Reg {
        train: &train,
        test: &test,
    };
    check_run(&reference, "weighted reg", &est, data, &graph);
}

/// A graph of the right shape built from other features must be refused by
/// the public weighted-regression entry, not silently used.
#[test]
#[should_panic(expected = "graph/dataset mismatch")]
fn weighted_regression_refuses_graph_of_other_features() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x74), 40, 11);
    let (other, _) = random_reg(&mut StdRng::seed_from_u64(0x7a), 40, 11);
    let graph = wire_graph(&other.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-2 };
    weighted_knn_reg_shapley(&train, &test, 2, weight, Source::Graph(&graph), 1);
}

/// A graph of the wrong shape fails with the mismatch message, not an
/// index panic.
#[test]
#[should_panic(expected = "graph/dataset mismatch")]
fn weighted_regression_refuses_graph_of_other_shape() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x74), 40, 11);
    let (small, _) = random_reg(&mut StdRng::seed_from_u64(0x7b), 30, 11);
    let graph = wire_graph(&small.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-2 };
    weighted_knn_reg_shapley(&train, &test, 2, weight, Source::Graph(&graph), 1);
}

#[test]
fn truncated_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x75), 90, 17, 3);
    let graph = wire_graph(&train.x, &test.x);
    let reference = truncated_class_shapley_with_threads(&train, &test, 2, 0.15, 1);
    let est = class_estimator(Family::Truncated { eps: 0.15 }, 2, WeightFn::Uniform, 0);
    check_run(&reference, "truncated", &est, class(&train, &test), &graph);
    check_sharded(
        &reference,
        "truncated",
        &est,
        class(&train, &test),
        Source::Graph(&graph),
    );
}

#[test]
fn mc_baseline_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x76), 25, 4, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = KnnClassUtility::unweighted(&train, &test, 2);
    let reference = mc_shapley_baseline_with_threads(&brute, StoppingRule::Fixed(100), 7, None, 1);
    let est = class_estimator(
        Family::McBaseline {
            rule: StoppingRule::Fixed(100),
        },
        2,
        WeightFn::Uniform,
        7,
    );
    // Same identity either way: MC shards built on either source inter-merge.
    let data = class(&train, &test);
    assert_eq!(
        est.prepare(data, Source::Brute).unwrap().identity(),
        est.prepare(data, Source::Graph(&graph)).unwrap().identity()
    );
    check_sharded(
        &reference.values,
        "mc baseline",
        &est,
        data,
        Source::Graph(&graph),
    );
}

#[test]
fn mc_improved_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x77), 40, 5, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let reference = mc_shapley_improved_with_threads(&brute, StoppingRule::Fixed(100), 11, None, 1);
    let est = class_estimator(
        Family::McImproved {
            rule: StoppingRule::Fixed(100),
        },
        3,
        WeightFn::Uniform,
        11,
    );
    check_sharded(
        &reference.values,
        "mc improved",
        &est,
        class(&train, &test),
        Source::Graph(&graph),
    );
}

#[test]
fn mc_improved_regression_graph_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x78), 30, 6);
    let graph = wire_graph(&train.x, &test.x);
    let brute = IncKnnUtility::regression(&train, &test, 2, WeightFn::Uniform);
    let a = mc_shapley_improved_with_threads(&brute, StoppingRule::Fixed(60), 5, None, 1);
    let est = Estimator {
        task: Task::Reg,
        ..class_estimator(
            Family::McImproved {
                rule: StoppingRule::Fixed(60),
            },
            2,
            WeightFn::Uniform,
            5,
        )
    };
    let data = Data::Reg {
        train: &train,
        test: &test,
    };
    check_run(&a.values, "mc improved regression", &est, data, &graph);
}

#[test]
fn group_testing_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x79), 15, 3, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = KnnClassUtility::unweighted(&train, &test, 2);
    let reference = group_testing_shapley_with_threads(&brute, 500, 13, 1);
    let est = class_estimator(
        Family::GroupTesting { tests: 500 },
        2,
        WeightFn::Uniform,
        13,
    );
    check_sharded(
        &reference.values,
        "group testing",
        &est,
        class(&train, &test),
        Source::Graph(&graph),
    );
}

#[test]
fn graph_and_brute_force_shards_inter_merge() {
    // The headline operational property: a job may mix workers that have
    // the artifact with workers that do not — the shards carry the same
    // kind and fingerprint, so the merge neither knows nor cares. Checked
    // for every shard kind: brute-force shards 0 and 2, a graph-backed
    // shard 1, compared with the all-brute-force merge.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7A), 50, 13, 3);
    let (rtrain, rtest) = random_reg(&mut StdRng::seed_from_u64(0x7B), 40, 9);
    let graph = wire_graph(&train.x, &test.x);
    let rgraph = wire_graph(&rtrain.x, &rtest.x);
    let uniform = WeightFn::Uniform;
    let reg = Estimator {
        task: Task::Reg,
        ..class_estimator(Family::Exact, 2, uniform, 0)
    };
    let rdata = Data::Reg {
        train: &rtrain,
        test: &rtest,
    };
    let class_jobs = [
        class_estimator(Family::Exact, 2, uniform, 0),
        class_estimator(Family::Exact, 2, WeightFn::InverseDistance { eps: 1e-3 }, 0),
        class_estimator(Family::Truncated { eps: 0.2 }, 2, uniform, 0),
        class_estimator(
            Family::McBaseline {
                rule: StoppingRule::Fixed(9),
            },
            2,
            uniform,
            3,
        ),
        class_estimator(
            Family::McImproved {
                rule: StoppingRule::Fixed(30),
            },
            2,
            uniform,
            3,
        ),
        class_estimator(Family::GroupTesting { tests: 90 }, 2, uniform, 3),
    ];
    let jobs = class_jobs
        .iter()
        .map(|e| (e, class(&train, &test), &graph))
        .chain([(&reg, rdata, &rgraph)]);
    for (est, data, graph) in jobs {
        let brute = est.prepare(data, Source::Brute).unwrap();
        let backed = est.prepare(data, Source::Graph(graph)).unwrap();
        let parts = [
            brute.partial(ShardSpec::new(0, 3), 1),
            backed.partial(ShardSpec::new(1, 3), 8),
            brute.partial(ShardSpec::new(2, 3), 8),
        ];
        let mixed = merge_partials(&parts).expect("mixed merge");
        let whole = merge_partials(&[brute.partial(ShardSpec::full(), 1)]).unwrap();
        assert_bitwise(
            &whole.values,
            &mixed.values,
            &format!("brute-force + graph shards, {:?}", est.family),
        );
    }
}

// ---------------------------------------------------------------------------
// Adversarial datasets: k-boundary and all-duplicate distances.
// ---------------------------------------------------------------------------

#[test]
fn k_boundary_graph_bitwise() {
    // k = N and k > N: every training point sits inside the neighborhood,
    // so the recursion's boundary terms dominate.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7B), 12, 5, 2);
    let graph = wire_graph(&train.x, &test.x);
    for k in [train.len(), train.len() + 3] {
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        let est = class_estimator(Family::Exact, k, WeightFn::Uniform, 0);
        check_sharded(
            &reference,
            &format!("k-boundary k={k}"),
            &est,
            class(&train, &test),
            Source::Graph(&graph),
        );
    }
}

/// Every training point at the exact same location: all N distances to any
/// test point are bitwise-equal, so the graph's entire order is the index
/// tie-break.
fn all_duplicate_instance() -> (ClassDataset, ClassDataset) {
    let n = 20;
    let row = [0.25f32, -0.75, 0.5];
    let feats: Vec<f32> = (0..n).flat_map(|_| row).collect();
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
    let train = ClassDataset::new(Features::new(feats, 3), labels, 3);
    let test = ClassDataset::new(
        Features::new(vec![0.0, 0.0, 0.0, 1.0, -1.0, 1.0], 3),
        vec![0, 2],
        3,
    );
    (train, test)
}

#[test]
fn all_duplicate_distances_graph_bitwise() {
    let (train, test) = all_duplicate_instance();
    let graph = wire_graph(&train.x, &test.x);
    // The graph must have resolved every tie to ascending index.
    for j in 0..test.len() {
        let order: Vec<u32> = graph.list(j).iter().map(|n| n.index).collect();
        let expected: Vec<u32> = (0..train.len() as u32).collect();
        assert_eq!(order, expected, "tie-break order for test point {j}");
    }
    let reference = knn_class_shapley_with_threads(&train, &test, 3, 1);
    let est = class_estimator(Family::Exact, 3, WeightFn::Uniform, 0);
    check_sharded(
        &reference,
        "all-duplicate exact",
        &est,
        class(&train, &test),
        Source::Graph(&graph),
    );
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let wref = weighted_knn_class_shapley(&train, &test, 3, weight, 1);
    let west = class_estimator(Family::Exact, 3, weight, 0);
    let data = class(&train, &test);
    check_run(&wref, "all-duplicate weighted", &west, data, &graph);
}

// ---------------------------------------------------------------------------
// Daemon seed path.
// ---------------------------------------------------------------------------

#[test]
fn resident_valuator_with_graph_matches_cold_start() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7C), 35, 8, 3);
    let graph = wire_graph(&train.x, &test.x);
    for threads in SHARD_THREADS {
        let cold = ResidentValuator::new(train.clone(), test.clone(), 2, threads).expect("cold");
        let seeded = ResidentValuator::with_graph(train.clone(), test.clone(), 2, threads, &graph)
            .expect("seeded");
        assert_bitwise(&cold.values(), &seeded.values(), "resident graph seed");

        // The seeded daemon must keep the contract through mutations too:
        // insert then delete a point on both and compare again.
        let mut cold = cold;
        let mut seeded = seeded;
        for v in [&mut cold, &mut seeded] {
            let idx = v.insert(&[0.1, 0.9], 1).expect("insert");
            v.delete(idx.saturating_sub(1)).expect("delete");
        }
        assert_bitwise(
            &cold.values(),
            &seeded.values(),
            "resident graph seed after churn",
        );
    }
}
