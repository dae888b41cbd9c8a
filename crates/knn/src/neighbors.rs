//! Brute-force nearest-neighbor retrieval.
//!
//! Three access patterns, matching the three algorithm families in the paper:
//!
//! * [`argsort_by_distance`] — the complete distance ranking, O(N·d + N log N)
//!   per query; consumed by the exact Shapley recursions (Theorems 1 & 6,
//!   Algorithm 1 line 2).
//! * [`partial_k_nearest`] — the `K*` nearest in sorted order via
//!   `select_nth_unstable`, O(N·d + N + K* log K*); consumed by the truncated
//!   (ε, 0)-approximation (Theorem 2), which never needs the full ranking.
//! * [`top_k`] — heap-based top-K used for plain prediction and candidate
//!   re-ranking inside the LSH index.
//!
//! Batched variants fan queries out on the `knnshap_parallel` work-stealing
//! pool; per-test-point valuation is embarrassingly parallel.
//!
//! ### Ordering contract
//!
//! Every ranking in the workspace is ascending `(distance, index)`: ties in
//! distance go to the lower training index, and `-0.0 == +0.0`. The sorting
//! paths ([`argsort_by_distance`], [`partial_k_nearest`] and
//! [`KnnGraph::build`](crate::graph::KnnGraph::build)) realise that order
//! with one packed `u64` key per row, `ordered(dist) << 32 | index`, and a
//! plain integer sort. `ordered` is the sign-aware float→`u32` map (flip
//! every bit of a negative float, set the sign bit of a non-negative one),
//! which is monotone over all non-NaN floats — Cosine's slightly negative
//! distances, subnormals and `±inf` included. `-0.0` is canonicalised to
//! `+0.0` before mapping so the index breaks that tie, and a NaN distance
//! panics with `"NaN distance"`. Because the key order equals the
//! comparator order and the keys are unique, the ranking is the one
//! `sort_unstable_by(cmp_dist_idx)` produces, bit for bit. Unpacking
//! inverts the map, so every returned distance has its original bits —
//! except `-0.0`, which comes back as `+0.0`. No metric produces `-0.0`:
//! squared L2 and L2 sum squares from a `+0.0` start, and Cosine's
//! `1 − c` is `+0.0` when it is zero (an IEEE difference of equal finite
//! values is `+0.0` under round-to-nearest).
//!
//! The comparator `cmp_dist_idx` remains only where a heap needs
//! pairwise comparisons ([`top_k`]).

use crate::distance::Metric;
use knnshap_datasets::Features;

/// One retrieved neighbor: training-set index plus distance under the metric
/// used for the query.
///
/// Laid out like the packed `u64` sort key (8 bytes, 8-aligned), so the
/// sorted key buffer is reused in place as the neighbor list.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(8))]
pub struct Neighbor {
    pub index: u32,
    pub dist: f32,
}

// The in-place unpack relies on this: `Vec<u64>` → `Vec<Neighbor>` reuses
// the allocation only when size and alignment match.
const _: () = assert!(
    std::mem::size_of::<Neighbor>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<Neighbor>() == std::mem::align_of::<u64>()
);

/// Total order on distances with index tiebreak, so every retrieval function
/// produces one deterministic ranking even in the presence of exact ties
/// (duplicated points are common after bootstrap resampling).
#[inline]
pub(crate) fn cmp_dist_idx(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist
        .partial_cmp(&b.dist)
        .expect("NaN distance")
        .then(a.index.cmp(&b.index))
}

/// The packed sort key of one `(distance, index)` pair: integer order on
/// keys is `(distance, index)` order (see the module docs).
#[inline]
pub(crate) fn pack(dist: f32, index: u32) -> u64 {
    assert!(!dist.is_nan(), "NaN distance");
    // `+ 0.0` maps -0.0 to +0.0 and leaves every other value unchanged.
    let bits = (dist + 0.0).to_bits();
    let flip = ((bits as i32 >> 31) as u32) | 0x8000_0000;
    (u64::from(bits ^ flip) << 32) | u64::from(index)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u64) -> Neighbor {
    let ordered = (key >> 32) as u32;
    let flip = !((ordered as i32 >> 31) as u32) | 0x8000_0000;
    Neighbor {
        index: key as u32,
        dist: f32::from_bits(ordered ^ flip),
    }
}

/// The `k` nearest of `dists` (the distance of training row `i` at position
/// `i`) in ascending `(distance, index)` order; all of them when
/// `k >= dists.len()`. Selects with `select_nth_unstable` (expected O(N))
/// before sorting only the kept prefix.
pub(crate) fn rank_nearest(dists: impl Iterator<Item = f32>, k: usize) -> Vec<Neighbor> {
    let mut keys: Vec<u64> = dists.enumerate().map(|(i, d)| pack(d, i as u32)).collect();
    if k < keys.len() {
        keys.select_nth_unstable(k);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys.into_iter().map(unpack).collect()
}

/// Rank all training rows by ascending distance to `query`.
pub fn argsort_by_distance(train: &Features, query: &[f32], metric: Metric) -> Vec<Neighbor> {
    rank_nearest(train.rows().map(|row| metric.eval(query, row)), usize::MAX)
}

/// The `k` nearest rows in ascending order, without sorting the rest.
///
/// Uses `select_nth_unstable` (expected O(N)) and then sorts only the `k`
/// selected entries. When `k >= N` this degenerates to a full sort.
pub fn partial_k_nearest(
    train: &Features,
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    rank_nearest(train.rows().map(|row| metric.eval(query, row)), k)
}

/// Heap-based top-`k`: maintains a bounded max-heap while streaming the rows.
/// Preferable to [`partial_k_nearest`] when the candidate set is much smaller
/// than the full training set (LSH re-ranking).
pub fn top_k(train: &Features, query: &[f32], k: usize, metric: Metric) -> Vec<Neighbor> {
    top_k_of_candidates(
        train,
        (0..train.len() as u32).collect::<Vec<_>>().as_slice(),
        query,
        k,
        metric,
    )
}

/// Top-`k` restricted to the given candidate indices.
pub fn top_k_of_candidates(
    train: &Features,
    candidates: &[u32],
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    // Bounded max-heap on (dist, index); the root is the current worst.
    let mut heap: Vec<Neighbor> = Vec::with_capacity(k + 1);
    for &c in candidates {
        let n = Neighbor {
            index: c,
            dist: metric.eval(query, train.row(c as usize)),
        };
        if heap.len() < k {
            heap.push(n);
            sift_up(&mut heap);
        } else if cmp_dist_idx(&n, &heap[0]).is_lt() {
            heap[0] = n;
            sift_down(&mut heap);
        }
    }
    heap.sort_unstable_by(cmp_dist_idx);
    heap
}

fn sift_up(heap: &mut [Neighbor]) {
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp_dist_idx(&heap[i], &heap[parent]).is_gt() {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [Neighbor]) {
    let n = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < n && cmp_dist_idx(&heap[l], &heap[largest]).is_gt() {
            largest = l;
        }
        if r < n && cmp_dist_idx(&heap[r], &heap[largest]).is_gt() {
            largest = r;
        }
        if largest == i {
            return;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

/// Apply `f` to every query row in parallel (work-stealing, order
/// preserving), collecting results in query order. `f` must be cheap to
/// share (it is called from multiple threads).
pub fn par_map_queries<T, F>(queries: &Features, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f32]) -> T + Sync,
{
    knnshap_parallel::par_map(queries.len(), threads, |i| f(i, queries.row(i)))
}

/// Default worker count: `KNNSHAP_THREADS`, else one per available core
/// (routed through [`knnshap_parallel::current_threads`]).
pub fn default_threads() -> usize {
    knnshap_parallel::current_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparator sort the packed keys replaced, kept as the oracle.
    fn comparator_rank(dists: &[f32], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = dists
            .iter()
            .enumerate()
            .map(|(i, &dist)| Neighbor {
                index: i as u32,
                dist,
            })
            .collect();
        all.sort_unstable_by(cmp_dist_idx);
        all.truncate(k);
        all
    }

    /// Equal rankings: same indices, same distance bits up to `-0.0 == +0.0`.
    fn same_ranking(got: &[Neighbor], want: &[Neighbor]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.index == w.index
                    && (g.dist.to_bits() == w.dist.to_bits() || (g.dist == 0.0 && w.dist == 0.0))
            })
    }

    /// Ties, signed zeros, subnormals, infinities and the slightly negative
    /// distances Cosine can return.
    const SPECIAL: [f32; 14] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-45, // smallest subnormal
        -1.0e-45,
        1.1754942e-38, // largest subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -1.0e-7,
        1.0,
        1.0,
        2.5,
    ];

    fn special_or(pick: usize, bits: u32) -> f32 {
        match SPECIAL.get(pick) {
            Some(&d) => d,
            None if f32::from_bits(bits).is_nan() => 0.5,
            None => f32::from_bits(bits),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn packed_order_equals_comparator_order(
            picks in prop::collection::vec((0usize..28, any::<u32>()), 0..400),
            k in 0usize..420,
        ) {
            let dists: Vec<f32> = picks.iter().map(|&(p, b)| special_or(p, b)).collect();
            let full = rank_nearest(dists.iter().copied(), usize::MAX);
            prop_assert!(same_ranking(&full, &comparator_rank(&dists, usize::MAX)));
            let part = rank_nearest(dists.iter().copied(), k);
            prop_assert!(same_ranking(&part, &comparator_rank(&dists, k)));
        }
    }

    #[test]
    fn packed_order_on_every_small_input() {
        assert!(rank_nearest(std::iter::empty(), usize::MAX).is_empty());
        for &a in &SPECIAL {
            assert!(same_ranking(
                &rank_nearest([a].into_iter(), usize::MAX),
                &comparator_rank(&[a], usize::MAX)
            ));
            for &b in &SPECIAL {
                for k in 0..3 {
                    assert!(
                        same_ranking(
                            &rank_nearest([a, b].into_iter(), k),
                            &comparator_rank(&[a, b], k)
                        ),
                        "{a:e} {b:e} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn unpack_restores_distance_bits() {
        for &d in SPECIAL
            .iter()
            .filter(|d| d.to_bits() != (-0.0f32).to_bits())
        {
            let n = unpack(pack(d, 7));
            assert_eq!((n.index, n.dist.to_bits()), (7, d.to_bits()));
        }
        assert_eq!(unpack(pack(-0.0, 3)).dist.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "NaN distance")]
    fn nan_distance_panics() {
        rank_nearest([1.0, f32::NAN, 0.5].into_iter(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN distance")]
    fn nan_distance_panics_for_a_single_row() {
        rank_nearest([f32::NAN].into_iter(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN distance")]
    fn nan_distance_panics_in_partial_selection() {
        rank_nearest([0.0, 1.0, -f32::NAN, 2.0].into_iter(), 1);
    }

    #[test]
    fn cosine_ranks_slightly_negative_distances_first() {
        // Parallel rows: 1 − cos rounds to a hair below zero for some pairs.
        let f = Features::new(vec![0.1, 0.7, 3.0, 21.0, -1.0, 0.0], 2);
        let ranked = argsort_by_distance(&f, &[0.3, 2.1], Metric::Cosine);
        let dists: Vec<f32> = f
            .rows()
            .map(|r| Metric::Cosine.eval(&[0.3, 2.1], r))
            .collect();
        assert!(same_ranking(&ranked, &comparator_rank(&dists, usize::MAX)));
        assert!(ranked[0].dist < 0.0, "{ranked:?}");
        let order: Vec<u32> = ranked.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    fn matrix() -> Features {
        // 1-D points 0, 1, 2, ..., 9
        Features::new((0..10).map(|i| i as f32).collect(), 1)
    }

    #[test]
    fn argsort_ranks_correctly() {
        let f = matrix();
        let ranked = argsort_by_distance(&f, &[3.2], Metric::SquaredL2);
        let order: Vec<u32> = ranked.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1, 6, 0, 7, 8, 9]);
        assert!(ranked.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn ties_break_by_index() {
        let f = Features::new(vec![1.0, 1.0, 1.0, 5.0], 1);
        let ranked = argsort_by_distance(&f, &[1.0], Metric::SquaredL2);
        assert_eq!(
            ranked.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn partial_matches_full_prefix() {
        let f = matrix();
        let full = argsort_by_distance(&f, &[6.7], Metric::SquaredL2);
        for k in [1usize, 3, 5, 10, 15] {
            let part = partial_k_nearest(&f, &[6.7], k, Metric::SquaredL2);
            assert_eq!(part.len(), k.min(10));
            assert_eq!(&full[..part.len()], part.as_slice(), "k={k}");
        }
    }

    #[test]
    fn top_k_matches_argsort_prefix() {
        let f = matrix();
        for k in [0usize, 1, 4, 10, 12] {
            let a = argsort_by_distance(&f, &[2.9], Metric::SquaredL2);
            let t = top_k(&f, &[2.9], k, Metric::SquaredL2);
            assert_eq!(t.len(), k.min(10));
            assert_eq!(&a[..t.len()], t.as_slice(), "k={k}");
        }
    }

    #[test]
    fn top_k_of_candidates_respects_subset() {
        let f = matrix();
        let t = top_k_of_candidates(&f, &[9, 0, 5], &[4.0], 2, Metric::SquaredL2);
        assert_eq!(t.iter().map(|n| n.index).collect::<Vec<_>>(), vec![5, 0]);
    }

    #[test]
    fn par_map_matches_serial() {
        let f = matrix();
        let queries = Features::new(vec![0.1, 3.3, 8.8, 5.0, 2.0], 1);
        let serial: Vec<u32> = (0..queries.len())
            .map(|i| argsort_by_distance(&f, queries.row(i), Metric::SquaredL2)[0].index)
            .collect();
        let par = par_map_queries(&queries, 4, |_, q| {
            argsort_by_distance(&f, q, Metric::SquaredL2)[0].index
        });
        assert_eq!(serial, par);
    }

    #[test]
    fn par_map_single_thread_path() {
        let queries = Features::new(vec![1.0], 1);
        let out = par_map_queries(&queries, 8, |i, _| i);
        assert_eq!(out, vec![0]);
    }
}
