//! Blocked, cache-tiled batch distance kernel.
//!
//! The brute-force distance pass behind every estimator streams the whole
//! training matrix once per query: at paper scale (N = 10⁶, d = 16 ⇒ 64 MB of
//! features) each query evicts the previous one's working set, and
//! `BENCH_mc.json`'s flat thread scaling shows the pass is memory-bound, not
//! compute-bound. This module restructures the loop the way a GPU kernel
//! tiles shared memory: queries are processed in blocks of [`QUERY_TILE`]
//! rows and the training matrix in blocks of [`TRAIN_TILE`] rows, so one
//! train tile is loaded from memory once and reused against every query in
//! the query tile while it is still cache-hot.
//!
//! ### Bitwise neutrality
//!
//! Tiling only reorders *which pair is computed when*. Every output slot
//! `(q, t)` is an independent pure function of the two rows — exactly
//! [`squared_l2`], the same arithmetic the
//! per-query [`argsort_by_distance`](crate::neighbors::argsort_by_distance)
//! path uses — and the parallel fan-out is an order-preserving
//! [`knnshap_parallel::par_map`] over disjoint query tiles. Tile shape and
//! thread count therefore cannot change a single bit of the output, which is
//! what lets `KNNGRAPH` artifacts built by this kernel feed estimators that
//! promise bitwise equality with the brute-force path
//! (`tests/graph_determinism.rs` holds it to that).
//!
//! There is deliberately no faster-but-different accumulation order: a
//! kernel whose sums round differently would break that contract, and the
//! graph loaders refuse artifacts whose distances no longer match the
//! brute-force recompute.

use crate::distance::squared_l2;
use knnshap_datasets::Features;

/// Number of query rows per tile. Small: the tile of partial result rows
/// (QUERY_TILE × TRAIN_TILE distances) must stay resident in L1/L2 alongside
/// the feature rows.
pub const QUERY_TILE: usize = 8;

/// Number of training rows per tile. 256 rows × 16-dim f32 = 16 KB — half an
/// L1d on typical x86 parts, leaving room for the query rows and outputs.
pub const TRAIN_TILE: usize = 256;

/// All pairwise squared-L2 distances, one `Vec` per query row (each of
/// length `train.len()`), computed with the fixed [`QUERY_TILE`] ×
/// [`TRAIN_TILE`] partition and fanned out over `threads` workers.
///
/// Bitwise-identical to [`naive_squared_l2`] at every thread count.
pub fn blocked_squared_l2(train: &Features, queries: &Features, threads: usize) -> Vec<Vec<f32>> {
    blocked_squared_l2_with_tiles(train, queries, QUERY_TILE, TRAIN_TILE, threads)
}

/// Tile-parameterized variant of [`blocked_squared_l2`], exposed so the
/// property suite can prove the output is invariant to the tile partition
/// (any `q_tile`, `t_tile` ≥ 1, including tiles larger than the data).
pub fn blocked_squared_l2_with_tiles(
    train: &Features,
    queries: &Features,
    q_tile: usize,
    t_tile: usize,
    threads: usize,
) -> Vec<Vec<f32>> {
    assert!(q_tile >= 1 && t_tile >= 1, "tile sizes must be >= 1");
    assert_eq!(
        train.dim(),
        queries.dim(),
        "train/query dimension mismatch: {} vs {}",
        train.dim(),
        queries.dim()
    );
    let n_train = train.len();
    let n_queries = queries.len();
    let n_qtiles = n_queries.div_ceil(q_tile).max(1);
    if n_queries == 0 {
        return Vec::new();
    }
    // Order-preserving fan-out over disjoint query tiles: worker assignment
    // cannot reorder or interleave writes to any output row.
    let tiles: Vec<Vec<Vec<f32>>> = knnshap_parallel::par_map(n_qtiles, threads, |qt| {
        let q_lo = qt * q_tile;
        let q_hi = (q_lo + q_tile).min(n_queries);
        let mut rows: Vec<Vec<f32>> = (q_lo..q_hi).map(|_| vec![0.0f32; n_train]).collect();
        // Walk the training matrix in tiles; each tile's rows stay cache-hot
        // across all queries of this query tile.
        let mut t_lo = 0;
        while t_lo < n_train {
            let t_hi = (t_lo + t_tile).min(n_train);
            for (row, q) in rows.iter_mut().zip(q_lo..q_hi) {
                let qrow = queries.row(q);
                for (d, t) in row[t_lo..t_hi].iter_mut().zip(t_lo..) {
                    *d = squared_l2(qrow, train.row(t));
                }
            }
            t_lo = t_hi;
        }
        rows
    });
    tiles.into_iter().flatten().collect()
}

/// Reference kernel: the untiled row-major double loop, one
/// [`squared_l2`] call per pair. The property
/// suite pins [`blocked_squared_l2_with_tiles`] bitwise to this for random
/// tile shapes.
pub fn naive_squared_l2(train: &Features, queries: &Features) -> Vec<Vec<f32>> {
    assert_eq!(train.dim(), queries.dim(), "train/query dimension mismatch");
    (0..queries.len())
        .map(|q| {
            let qrow = queries.row(q);
            (0..train.len())
                .map(|t| squared_l2(qrow, train.row(t)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, dim: usize, seed: u32) -> Features {
        // Cheap deterministic pseudo-data; values vary per (row, col, seed).
        let mut f = Features::with_capacity(n, dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|j| {
                    let x = (i * dim + j) as f32 + seed as f32 * 0.37;
                    (x * 0.618_034).sin() * 3.0
                })
                .collect();
            f.push_row(&row);
        }
        f
    }

    fn assert_bitwise(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: row count");
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ra.len(), rb.len(), "{what}: row {i} length");
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot ({i}, {j})");
            }
        }
    }

    #[test]
    fn fixed_partition_matches_naive_bitwise() {
        let train = features(523, 7, 1); // not divisible by TRAIN_TILE
        let queries = features(19, 7, 2); // not divisible by QUERY_TILE
        let naive = naive_squared_l2(&train, &queries);
        for threads in [1, 4] {
            let blocked = blocked_squared_l2(&train, &queries, threads);
            assert_bitwise(&blocked, &naive, &format!("threads={threads}"));
        }
    }

    #[test]
    fn degenerate_tiles_match_naive_bitwise() {
        let train = features(37, 3, 3);
        let queries = features(5, 3, 4);
        let naive = naive_squared_l2(&train, &queries);
        for (qt, tt) in [(1, 1), (1, 1000), (1000, 1), (5, 37), (6, 38), (2, 10)] {
            let blocked = blocked_squared_l2_with_tiles(&train, &queries, qt, tt, 2);
            assert_bitwise(&blocked, &naive, &format!("tiles=({qt}, {tt})"));
        }
    }

    #[test]
    fn empty_query_set() {
        let train = features(10, 2, 5);
        let queries = Features::new(Vec::new(), 2);
        assert!(blocked_squared_l2(&train, &queries, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let train = features(4, 2, 6);
        let queries = features(4, 3, 7);
        blocked_squared_l2(&train, &queries, 1);
    }
}
