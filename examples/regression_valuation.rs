//! Valuing data for KNN *regression* (paper §4 / Appendix E.1) — and what
//! changes when neighbors are distance-weighted (Appendix E.2).
//!
//! A sensor-calibration story: noisy readings y = f(x) + ε from many field
//! sensors, a KNN regressor serving interpolation queries, and Theorem 6's
//! exact O(N log N) Shapley values identifying which readings help and which
//! (outlier) readings actively hurt. The weighted variant (Theorem 7,
//! O(N^K)) is compared on a subsample.
//!
//! Run with: `cargo run --release --example regression_valuation`

use knnshap::datasets::synth::regression::{self, RegressionConfig, Surface};
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::Source;
use knnshap::valuation::exact_regression::knn_reg_shapley;
use knnshap::valuation::exact_weighted::weighted_knn_reg_shapley;
use knnshap::valuation::utility::{KnnRegUtility, Utility};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 5000 clean readings over a smooth response surface…
    let cfg = RegressionConfig {
        n: 5000,
        dim: 3,
        surface: Surface::Sinusoid,
        noise_std: 0.05,
        seed: 12,
    };
    let mut readings = regression::generate(&cfg);
    let queries = regression::queries(&cfg, 80);

    // …except 100 sensors are miscalibrated: their targets are shifted hard.
    let mut rng = StdRng::seed_from_u64(99);
    let mut broken: Vec<usize> = Vec::new();
    while broken.len() < 100 {
        let i = rng.gen_range(0..readings.len());
        if !broken.contains(&i) {
            broken.push(i);
            readings.y[i] += 3.0 + rng.gen::<f64>();
        }
    }
    broken.sort_unstable();

    let k = 7;
    let sv = knn_reg_shapley(&readings, &queries, k);

    // Group rationality: values sum to the (negative MSE) utility.
    let u = KnnRegUtility::unweighted(&readings, &queries, k);
    println!(
        "Σ sᵢ = {:+.6} = ν(I) = {:+.6} (negative MSE of the full fleet)",
        sv.total(),
        u.grand()
    );

    // Broken sensors should dominate the bottom of the ranking.
    let suspects = sv.bottom_k(broken.len());
    let caught = suspects.iter().filter(|i| broken.contains(i)).count();
    println!(
        "bottom-{} valued readings contain {caught} of the {} miscalibrated sensors \
         (random baseline would catch {:.0})",
        broken.len(),
        broken.len(),
        broken.len() as f64 * broken.len() as f64 / readings.len() as f64,
    );

    // Weighted KNN on a subsample: inverse-distance weighting shifts value
    // toward the closest readings but preserves the overall ranking.
    let sub: Vec<usize> = (0..300).collect();
    let sub_readings = readings.gather(&sub);
    let sub_queries = queries.gather(&(0..10).collect::<Vec<_>>());
    let threads = knnshap::parallel::current_threads();
    let unweighted = knn_reg_shapley(&sub_readings, &sub_queries, 3);
    let weighted = weighted_knn_reg_shapley(
        &sub_readings,
        &sub_queries,
        3,
        WeightFn::InverseDistance { eps: 1e-6 },
        Source::Brute,
        threads,
    );
    println!(
        "\nweighted vs unweighted on a 300-reading subsample: pearson = {:.3}, \
         ‖Δ‖_∞ = {:.5}",
        knnshap::numerics::stats::pearson(unweighted.as_slice(), weighted.as_slice()),
        unweighted.max_abs_diff(&weighted)
    );

    assert!(
        caught * 2 > broken.len(),
        "the valuation should flag most miscalibrated sensors"
    );
}
