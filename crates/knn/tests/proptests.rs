//! Property-based tests for the KNN substrate.

use knnshap_datasets::Features;
use knnshap_knn::block::{blocked_squared_l2_with_tiles, naive_squared_l2};
use knnshap_knn::distance::Metric;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::heap::KnnHeap;
use knnshap_knn::kdtree::KdTree;
use knnshap_knn::neighbors::{argsort_by_distance, partial_k_nearest, top_k};
use proptest::prelude::*;

fn features(n: usize, dim: usize, vals: &[f32]) -> Features {
    Features::new(vals[..n * dim].to_vec(), dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retrieval_backends_agree(
        vals in prop::collection::vec(-10.0f32..10.0, 60),
        q in prop::collection::vec(-10.0f32..10.0, 2),
        k in 1usize..12,
    ) {
        let data = features(30, 2, &vals);
        let full = argsort_by_distance(&data, &q, Metric::SquaredL2);
        let partial = partial_k_nearest(&data, &q, k, Metric::SquaredL2);
        let heap = top_k(&data, &q, k, Metric::SquaredL2);
        let tree = KdTree::build(&data);
        let via_tree = tree.k_nearest(&q, k);
        let kk = k.min(30);
        for backend in [&partial, &heap, &via_tree] {
            prop_assert_eq!(backend.len(), kk);
            for (a, b) in backend.iter().zip(&full[..kk]) {
                prop_assert_eq!(a.index, b.index);
            }
        }
    }

    #[test]
    fn argsort_is_a_sorted_permutation(
        vals in prop::collection::vec(-5.0f32..5.0, 40),
        q in prop::collection::vec(-5.0f32..5.0, 4),
    ) {
        let data = features(10, 4, &vals);
        let ranked = argsort_by_distance(&data, &q, Metric::SquaredL2);
        prop_assert!(ranked.windows(2).all(|w| w[0].dist <= w[1].dist));
        let mut idx: Vec<u32> = ranked.iter().map(|n| n.index).collect();
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn heap_tracks_k_smallest(
        dists in prop::collection::vec(0.0f32..100.0, 1..60),
        k in 1usize..10,
    ) {
        let mut h = KnnHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            h.insert(d, i as u32);
        }
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f32> = h.sorted().iter().map(|&(d, _)| d).collect();
        prop_assert_eq!(got, sorted[..k.min(dists.len())].to_vec());
    }

    #[test]
    fn heap_change_detection_is_consistent(
        dists in prop::collection::vec(0.0f32..100.0, 1..40),
        k in 1usize..6,
    ) {
        // `changed` must be true exactly when the sorted contents change.
        let mut h = KnnHeap::new(k);
        let mut prev = h.sorted();
        for (i, &d) in dists.iter().enumerate() {
            let changed = h.insert(d, i as u32).changed();
            let now = h.sorted();
            prop_assert_eq!(changed, prev != now);
            prev = now;
        }
    }

    #[test]
    fn blocked_kernel_bitwise_equals_naive_for_any_tiling(
        vals in prop::collection::vec(-10.0f32..10.0, 120),
        qvals in prop::collection::vec(-10.0f32..10.0, 21),
        n in 1usize..40,
        // Random tile shapes spanning every edge case: tile 1, tiles that do
        // not divide n, and tiles larger than the whole data (n < tile).
        q_tile in 1usize..12,
        t_tile in 1usize..64,
        threads in 1usize..5,
    ) {
        let dim = 3;
        let train = features(n, dim, &vals);
        let queries = features(7, dim, &qvals);
        let naive = naive_squared_l2(&train, &queries);
        let blocked = blocked_squared_l2_with_tiles(&train, &queries, q_tile, t_tile, threads);
        prop_assert_eq!(blocked.len(), naive.len());
        for (br, nr) in blocked.iter().zip(&naive) {
            prop_assert_eq!(br.len(), nr.len());
            for (x, y) in br.iter().zip(nr) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn graph_build_matches_argsort_and_survives_round_trip(
        vals in prop::collection::vec(-5.0f32..5.0, 48),
        qvals in prop::collection::vec(-5.0f32..5.0, 8),
        n in 1usize..24,
        threads in 1usize..4,
    ) {
        let train = features(n, 2, &vals);
        let queries = features(4, 2, &qvals);
        let g = KnnGraph::build(&train, &queries, threads);
        let g2 = KnnGraph::from_bytes(&g.to_bytes()).unwrap();
        prop_assert!(g2.validate_against(&train, &queries).is_ok());
        for j in 0..queries.len() {
            let want = argsort_by_distance(&train, queries.row(j), Metric::SquaredL2);
            let got = g2.list(j);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            }
        }
    }

    #[test]
    fn metrics_nonnegative_and_symmetric(
        a in prop::collection::vec(-3.0f32..3.0, 6),
        b in prop::collection::vec(-3.0f32..3.0, 6),
    ) {
        for m in [Metric::SquaredL2, Metric::L2, Metric::Cosine] {
            let ab = m.eval(&a, &b);
            let ba = m.eval(&b, &a);
            prop_assert!(ab >= 0.0);
            prop_assert!((ab - ba).abs() < 1e-5);
        }
    }
}
