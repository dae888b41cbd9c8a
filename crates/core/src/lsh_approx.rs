//! Theorem 4: the LSH-backed (ε, δ)-approximation.
//!
//! Combines Theorem 2 (only `K* = max(K, ⌈1/ε⌉)` neighbors are needed for an
//! ε-accurate value vector) with Theorem 3 (LSH retrieves the exact `K*`
//! nearest with probability `1 − δ` using `O(N^{g(C_{K*})})`-cost queries):
//! retrieve `K*` approximate neighbors from the index, run the truncated
//! recursion (eqs. 23–24) over the *retrieved* ordering, and leave every
//! unretrieved point at value 0.
//!
//! When the index returns fewer than `K*` candidates the recursion simply
//! runs over the shorter prefix — those are precisely the regimes where the
//! missing points are far and their true values are below ε anyway.
//! [`plan_index_params`] wires the §6.1 parameter-selection recipe
//! (`m = α ln N / ln f_h(D_mean)⁻¹`, `l = p_nn^{−m} ln(K*/δ)`) to measured
//! dataset statistics, and [`lsh_class_shapley_planned`] runs the whole
//! recipe — contrast, parameters, index, valuation — as one entry.
//!
//! LSH is the one family that does not shard ([`LSH_UNSHARDABLE`]), so it
//! stays outside [`crate::estimator::Family`].

use crate::estimator::{check_delta, check_eps, check_inputs, EstimatorError, Source};
use crate::truncated::{k_star, truncated_recursion};
use crate::types::ShapleyValues;
use knnshap_datasets::{contrast, ClassDataset, ContrastEstimate};
use knnshap_lsh::index::{LshIndex, LshParams};
use knnshap_lsh::theory;

/// Why LSH valuation is refused by every sharded command — the full
/// explanation, not a generic "unsupported" line, because the obvious
/// workaround (build a per-shard index) silently breaks the determinism
/// contract. The planned sharding design for LSH is documented in
/// `docs/sharding.md` ("Why LSH does not shard yet").
pub const LSH_UNSHARDABLE: &str =
    "the LSH method cannot shard by test range: its index needs whole-test-set \
     statistics (the relative-contrast estimate that picks hash width, table \
     count and probe schedule), so independently built per-shard indexes would \
     answer queries differently and the merged values would not match the \
     unsharded run. Planned design: build the index once, then stream query \
     ranges through OnlineValuator workers — see docs/sharding.md";

/// Theorem 4 end to end, planned from the data: estimate the relative
/// contrast at `K*` over (up to) 16 test queries, derive the index
/// parameters by the §6.1 recipe ([`plan_index_params`], table count capped
/// at `max_tables`), build the index and value the test set
/// ([`lsh_class_shapley`]). Every seed is fixed, so the values are a pure
/// function of the arguments.
///
/// Refuses — instead of panicking — the inputs the recipe cannot plan for:
/// K = 0, ε ≤ 0, δ ∉ (0, 1), fewer than two training points, and the
/// shared input checks (empty sets, dimensions, non-finite features).
pub fn lsh_class_shapley_planned(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    eps: f64,
    delta: f64,
    max_tables: usize,
) -> Result<ShapleyValues, EstimatorError> {
    let refuse = |m: &str| Err(EstimatorError::Unsupported(m.into()));
    if k == 0 {
        return refuse("k must be at least 1");
    }
    check_eps(eps)?;
    check_delta(delta)?;
    check_inputs(&train.x, &test.x, Source::Brute)?;
    if train.len() < 2 {
        return refuse("LSH valuation needs at least two training points");
    }
    let ks = k_star(k, eps).min(train.len());
    let measured = contrast::estimate(&train.x, &test.x, ks, 16.min(test.len()), 64, 0xC0_FFEE);
    let params = plan_index_params(
        train.len(),
        &measured,
        k,
        eps,
        delta,
        1.0,
        max_tables,
        0x5EED,
    );
    let index = LshIndex::build(&train.x, params);
    Ok(lsh_class_shapley(&index, train, test, k, eps))
}

/// Derive index parameters from dataset statistics per the paper's §6.1
/// recipe. `contrast` must be measured at `K*` (not `K`) and on features
/// normalized so `D_mean ≈ 1` (see `knnshap_datasets::normalize`).
///
/// `alpha` scales the projection count (the paper tried a few values and kept
/// the fastest; `1.0` is the Gionis et al. default). `max_tables` caps the
/// table count so adversarially low contrast degrades to a dense-but-correct
/// index instead of an unbounded build.
// every argument is one knob of the paper's §6.1 recipe; bundling them into a
// struct would just rename the problem
#[allow(clippy::too_many_arguments)]
pub fn plan_index_params(
    n: usize,
    contrast: &ContrastEstimate,
    k: usize,
    eps: f64,
    delta: f64,
    alpha: f64,
    max_tables: usize,
    seed: u64,
) -> LshParams {
    assert!(n >= 2, "need at least two points");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let ks = k_star(k, eps);
    // Choose the width minimizing the difficulty exponent at this contrast.
    let (width, _g) = theory::optimal_width(contrast.c_k.max(1.0 + 1e-6), 0.5, 32.0, 24);
    let p_rand = theory::collision_prob(contrast.d_mean, width);
    let m = theory::projections_for(n, p_rand.clamp(1e-9, 1.0 - 1e-9), alpha);
    let p_nn = theory::collision_prob(contrast.d_k, width);
    let l = theory::tables_for(p_nn.clamp(1e-9, 1.0), m, ks, delta).min(max_tables.max(1));
    LshParams::new(m, l, width as f32, seed)
}

/// LSH-approximate SVs for a single test point (eqs. 23–24).
pub fn lsh_class_shapley_single(
    index: &LshIndex<'_>,
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    eps: f64,
) -> ShapleyValues {
    let ks = k_star(k, eps);
    let result = index.query(query, ks);
    truncated_recursion(&result.neighbors, &train.y, test_label, k, ks, train.len())
}

/// LSH-approximate SVs for a test set (average of per-test games).
pub fn lsh_class_shapley(
    index: &LshIndex<'_>,
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    eps: f64,
) -> ShapleyValues {
    assert!(!test.is_empty(), "need at least one test point");
    let mut acc = ShapleyValues::zeros(train.len());
    for j in 0..test.len() {
        acc.add_assign(&lsh_class_shapley_single(
            index,
            train,
            test.x.row(j),
            test.y[j],
            k,
            eps,
        ));
    }
    acc.scale(1.0 / test.len() as f64);
    acc
}

/// [`lsh_class_shapley_single`] with multi-probe retrieval (an extension
/// beyond the paper; see `knnshap_lsh::multiprobe`): visits `probes` buckets
/// per table, so an index with far fewer tables — far less memory — reaches
/// the recall the Theorem 3 recipe would otherwise buy with table count.
/// `probes == 1` is identical to the plain query.
pub fn lsh_class_shapley_single_multiprobe(
    index: &LshIndex<'_>,
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    eps: f64,
    probes: usize,
) -> ShapleyValues {
    let ks = k_star(k, eps);
    let result = index.query_multiprobe(query, ks, probes);
    truncated_recursion(&result.neighbors, &train.y, test_label, k, ks, train.len())
}

/// Multi-probe variant of [`lsh_class_shapley`] (average of per-test games).
pub fn lsh_class_shapley_multiprobe(
    index: &LshIndex<'_>,
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    eps: f64,
    probes: usize,
) -> ShapleyValues {
    assert!(!test.is_empty(), "need at least one test point");
    let mut acc = ShapleyValues::zeros(train.len());
    for j in 0..test.len() {
        acc.add_assign(&lsh_class_shapley_single_multiprobe(
            index,
            train,
            test.x.row(j),
            test.y[j],
            k,
            eps,
            probes,
        ));
    }
    acc.scale(1.0 / test.len() as f64);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_unweighted::knn_class_shapley_with_threads;
    use knnshap_datasets::contrast;
    use knnshap_datasets::normalize;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};

    /// A normalized clustered instance with healthy relative contrast.
    fn instance(n: usize) -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n,
            dim: 16,
            n_classes: 4,
            cluster_std: 0.45,
            center_scale: 3.0,
            seed: 33,
        };
        let mut train = blobs::generate(&cfg);
        let mut test = blobs::queries(&cfg, 8, 5);
        let factor = normalize::scale_to_unit_dmean(&mut train.x, 2000, 1);
        normalize::apply_scale(&mut test.x, factor);
        (train, test)
    }

    #[test]
    fn approximation_error_within_eps_with_good_index() {
        let (train, test) = instance(600);
        let eps = 0.1;
        let k = 2;
        let est = contrast::estimate(
            &train.x,
            &test.x,
            crate::truncated::k_star(k, eps),
            8,
            50,
            3,
        );
        let params = plan_index_params(train.len(), &est, k, eps, 0.1, 1.0, 64, 7);
        let index = LshIndex::build(&train.x, params);
        let exact = knn_class_shapley_with_threads(&train, &test, k, 1);
        let approx = lsh_class_shapley(&index, &train, &test, k, eps);
        let err = exact.max_abs_diff(&approx);
        // (ε, δ): allow a small slack over ε for the δ failure mass.
        assert!(err <= eps * 1.5, "err={err} (params {params:?})");
    }

    #[test]
    fn unretrieved_points_have_zero_value() {
        let (train, test) = instance(400);
        let est = contrast::estimate(&train.x, &test.x, 10, 8, 50, 3);
        let params = plan_index_params(train.len(), &est, 1, 0.2, 0.1, 1.0, 32, 9);
        let index = LshIndex::build(&train.x, params);
        let sv = lsh_class_shapley_single(&index, &train, test.x.row(0), test.y[0], 1, 0.2);
        let nonzero = sv.as_slice().iter().filter(|v| **v != 0.0).count();
        assert!(nonzero <= crate::truncated::k_star(1, 0.2));
    }

    #[test]
    fn planned_params_are_sane() {
        let (train, test) = instance(500);
        let est = contrast::estimate(&train.x, &test.x, 10, 8, 50, 3);
        let p = plan_index_params(train.len(), &est, 1, 0.1, 0.1, 1.0, 128, 1);
        assert!(p.projections >= 1 && p.projections < 64);
        assert!(p.tables >= 1 && p.tables <= 128);
        assert!(p.width > 0.0);
    }

    #[test]
    fn max_tables_cap_respected() {
        let (train, test) = instance(300);
        let est = contrast::estimate(&train.x, &test.x, 10, 8, 50, 3);
        let p = plan_index_params(train.len(), &est, 1, 0.01, 0.01, 1.0, 4, 1);
        assert!(p.tables <= 4);
    }

    #[test]
    fn multiprobe_single_probe_matches_plain() {
        let (train, test) = instance(400);
        let eps = 0.1;
        let k = 2;
        let est = contrast::estimate(
            &train.x,
            &test.x,
            crate::truncated::k_star(k, eps),
            8,
            50,
            3,
        );
        let params = plan_index_params(train.len(), &est, k, eps, 0.1, 1.0, 32, 7);
        let index = LshIndex::build(&train.x, params);
        let plain = lsh_class_shapley(&index, &train, &test, k, eps);
        let probed = lsh_class_shapley_multiprobe(&index, &train, &test, k, eps, 1);
        assert!(plain.max_abs_diff(&probed) < 1e-15);
    }

    #[test]
    fn multiprobe_recovers_accuracy_of_a_starved_index() {
        // Build a deliberately under-tabled index (2 tables where the plan
        // wants many): plain queries miss neighbors, 16 probes per table win
        // most of them back — the memory-for-probes trade at the valuation
        // level.
        let (train, test) = instance(600);
        let eps = 0.1;
        let k = 2;
        let est = contrast::estimate(
            &train.x,
            &test.x,
            crate::truncated::k_star(k, eps),
            8,
            50,
            3,
        );
        let mut params = plan_index_params(train.len(), &est, k, eps, 0.1, 1.0, 64, 7);
        params.tables = 2;
        let index = LshIndex::build(&train.x, params);
        let exact = knn_class_shapley_with_threads(&train, &test, k, 1);
        let plain_err = exact.max_abs_diff(&lsh_class_shapley(&index, &train, &test, k, eps));
        let probed_err = exact.max_abs_diff(&lsh_class_shapley_multiprobe(
            &index, &train, &test, k, eps, 16,
        ));
        assert!(
            probed_err <= plain_err + 1e-12,
            "probing made it worse: {probed_err} > {plain_err}"
        );
        assert!(
            probed_err <= eps * 1.5,
            "multi-probe error {probed_err} should be within the ε envelope"
        );
    }
}
