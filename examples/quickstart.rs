//! Quickstart: value a training set for a KNN classifier in a few lines.
//!
//! Generates a synthetic 3-class embedding, computes exact Shapley values
//! (Theorem 1 of Jia et al. 2019) for every training point with respect to a
//! held-out test set, and shows the values are a true Shapley allocation
//! (group rationality) before listing the most and least valuable points.
//!
//! Run with: `cargo run --release --example quickstart`

use knnshap::datasets::synth::blobs::{self, BlobConfig};
use knnshap::valuation::axioms::check_efficiency;
use knnshap::valuation::utility::{KnnClassUtility, Utility};
use knnshap::valuation::{Data, Estimator, Family, Schedule, Source, Task};

fn main() {
    // 1. A dataset: 2000 points in 16-d, 4 classes, plus 50 test queries.
    let cfg = BlobConfig {
        n: 2000,
        dim: 16,
        n_classes: 4,
        cluster_std: 1.2,
        center_scale: 2.0,
        seed: 7,
    };
    let train = blobs::generate(&cfg);
    let test = blobs::queries(&cfg, 50, 99);

    // 2. Exact Shapley values, K = 5, all cores: one estimator (task,
    //    family and parameters), run over the datasets with a fresh distance
    //    pass.
    let k = 5;
    let threads = knnshap::parallel::current_threads();
    let data = Data::Class {
        train: &train,
        test: &test,
    };
    let exact = Estimator {
        task: Task::Class,
        k,
        weight: knnshap::knn::WeightFn::Uniform,
        family: Family::Exact,
        seed: 0,
    };
    let sv = exact
        .run(data, Source::Brute, threads, Schedule::Static)
        .expect("valid configuration")
        .values;

    // 3. The values are a genuine Shapley allocation: they sum to the KNN
    //    utility of the full training set (group rationality).
    let utility = KnnClassUtility::unweighted(&train, &test, k);
    let eff = check_efficiency(&sv, &utility, 1e-9);
    println!(
        "group rationality: Σ sᵢ = {:.6} = ν(I) = {:.6} — {}",
        sv.total(),
        utility.grand(),
        if eff.holds { "holds" } else { "VIOLATED" }
    );

    // 4. Inspect the extremes.
    println!("\nmost valuable training points:");
    for &i in &sv.top_k(5) {
        println!("  #{i:<5} class {} value {:+.6}", train.y[i], sv[i]);
    }
    println!("\nleast valuable training points (candidates for review):");
    for &i in &sv.bottom_k(5) {
        println!("  #{i:<5} class {} value {:+.6}", train.y[i], sv[i]);
    }

    // 5. Same valuation, sublinear: the Theorem 2 truncated approximation
    //    touches only the K* = max(K, 1/ε) nearest neighbors per query.
    let truncated = Estimator {
        family: Family::Truncated { eps: 0.05 },
        ..exact
    };
    let approx = truncated
        .run(data, Source::Brute, threads, Schedule::Static)
        .expect("valid configuration")
        .values;
    println!(
        "\ntruncated (ε = 0.05) max deviation from exact: {:.6} (guaranteed ≤ 0.05)",
        sv.max_abs_diff(&approx)
    );
}
