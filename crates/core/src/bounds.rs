//! Permutation-sample-complexity bounds for Monte Carlo Shapley estimation.
//!
//! * **Hoeffding** (baseline, §2.2, after Maleki et al.): to get an
//!   (ε, δ)-approximation, `T ≥ ((b−a)²/(2ε²)) ln(2N/δ)` permutations
//!   suffice, where `b−a` is the width of the interval containing the
//!   utility differences `φ_i`.
//! * **Bennett** (Theorem 5): exploiting that `φ_i = 0` whenever adding point
//!   `i` does not change the K-nearest set — which for the rank-`i` point
//!   happens with probability `q_i = (i−K)/i` (eq. 33) — the variance of
//!   `φ_i` is at most `(1−q_i²) r²` and the required `T*` solves
//!   `Σ_i exp(−T(1−q_i²) h(ε/((1−q_i²) r))) = δ/2` (eq. 32).
//! * **Approximate Bennett** (Appendix H): `T̃ = (1/h(ε/r)) ln(2K/δ)`
//!   (eq. 134), lower-bounded by `(r²/ε²) ln(2K/δ)` (eq. 35) and notably
//!   *independent of N* — the key qualitative claim of Fig. 11.
//!
//! ### Range convention
//!
//! The paper uses `r` for both "the range of the utility differences" (§2.2)
//! and "the range `[−r, r]`" (Theorem 5); for the unweighted KNN classifier
//! it states `r = 1/K`, which is the *almost-sure bound* `|φ_i| ≤ 1/K`
//! (adding a point swaps at most one vote of weight 1/K). To keep the two
//! bounds comparable, every function here takes `phi_bound` = the a.s. bound
//! on `|φ_i|` (1/K for unweighted KNN classification); Hoeffding then uses
//! interval width `2·phi_bound` and Bennett uses `r = phi_bound`, matching
//! Theorem 5 exactly.

use knnshap_numerics::roots::bisect_with_growing_bracket;
use knnshap_numerics::special::bennett_h;

/// A.s. bound on the utility difference `|φ_i|` for the unweighted KNN
/// classifier utility (paper: `r = 1/K`).
pub fn knn_class_phi_bound(k: usize) -> f64 {
    assert!(k >= 1);
    1.0 / k as f64
}

/// The §6.2.2 heuristic stopping threshold: `ε/50`.
///
/// The paper terminates the Monte Carlo estimators "when the change of the
/// SV estimates in two consecutive iterations is below ε/50"; this is the one
/// place that constant lives, so the [`crate::mc::StoppingRule::Heuristic`]
/// docs and every caller constructing one stay in agreement. ε must be
/// positive; a rule built from any other ε has no positive threshold, and
/// [`crate::estimator::Estimator::check`] refuses it.
///
/// ```
/// use knnshap_core::bounds::heuristic_threshold;
/// assert_eq!(heuristic_threshold(0.1), 0.002);
/// ```
pub fn heuristic_threshold(eps: f64) -> f64 {
    eps / 50.0
}

/// Ceiling on permutations ingested per round by the snapshot/heuristic paths
/// of the parallel Monte Carlo runtime (`crate::mc`).
const MAX_MC_ROUND: usize = 64;

/// Budget→round mapping for the parallel Monte Carlo runtime: how many
/// permutation streams the snapshot/heuristic paths of `crate::mc` launch per
/// round before folding them — in permutation order — into the running
/// estimate.
///
/// A function of the budget alone (never of the thread count, which would
/// break the bitwise-determinism contract): small budgets get small rounds so
/// the heuristic rule keeps its per-permutation granularity cheaply, large
/// budgets saturate at 64 in-flight contribution vectors to bound memory at
/// `64·N` floats while leaving the pool plenty to steal.
pub fn mc_round_size(budget: usize) -> usize {
    budget
        .div_ceil(64)
        .clamp(8, MAX_MC_ROUND)
        .min(budget.max(1))
}

/// Hoeffding permutation budget `T = ⌈((2·phi_bound)²/(2ε²)) ln(2N/δ)⌉`.
///
/// ```
/// use knnshap_core::bounds::{bennett_permutations, hoeffding_permutations};
///
/// // Fig. 11's headline: the Hoeffding budget keeps growing with N while the
/// // Bennett budget (which sees the collapsing per-point variance, eq. 33)
/// // stays flat — and sits far below it.
/// let r = 1.0; // K = 1 ⇒ φ ∈ [−1, 1]
/// let (h1, h2) = (
///     hoeffding_permutations(1_000, 0.1, 0.1, r),
///     hoeffding_permutations(100_000, 0.1, 0.1, r),
/// );
/// let (b1, b2) = (
///     bennett_permutations(1_000, 1, 0.1, 0.1, r),
///     bennett_permutations(100_000, 1, 0.1, 0.1, r),
/// );
/// assert!(h2 > h1);
/// assert_eq!(b1, b2);
/// assert!(b1 < h1 / 2);
/// ```
pub fn hoeffding_permutations(n: usize, eps: f64, delta: f64, phi_bound: f64) -> usize {
    assert!(n >= 1 && eps > 0.0 && phi_bound > 0.0);
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let width = 2.0 * phi_bound;
    let t = width * width / (2.0 * eps * eps) * (2.0 * n as f64 / delta).ln();
    t.ceil().max(1.0) as usize
}

/// `q_i`: probability that the rank-`i` (1-based) point leaves the utility
/// unchanged when inserted at a uniformly random position (eq. 33).
pub fn q_i(i: usize, k: usize) -> f64 {
    assert!(i >= 1);
    if i <= k {
        0.0
    } else {
        (i - k) as f64 / i as f64
    }
}

/// Exact Bennett budget `T*`: the root of eq. (32), found by bisection with a
/// geometrically growing bracket (the LHS is strictly decreasing in `T`).
///
/// Cost is O(N) per function evaluation; the per-rank exponents are
/// precomputed so the bisection loop is a pure `exp`-sum.
pub fn bennett_permutations(n: usize, k: usize, eps: f64, delta: f64, phi_bound: f64) -> usize {
    assert!(n >= 1 && k >= 1 && eps > 0.0 && phi_bound > 0.0);
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let r = phi_bound;
    // a_i = (1 − q_i²)·h(ε / ((1 − q_i²)·r)); Σ_i exp(−T·a_i) = δ/2.
    // Ranks 1..=K share q = 0 and are folded into one weighted term.
    let a_of = |q: f64| {
        let v = 1.0 - q * q;
        v * bennett_h(eps / (v * r))
    };
    let mut exponents: Vec<(f64, f64)> = Vec::with_capacity(n.saturating_sub(k) + 1);
    exponents.push((k.min(n) as f64, a_of(0.0)));
    for i in (k + 1)..=n {
        exponents.push((1.0, a_of(q_i(i, k))));
    }
    let target = delta / 2.0;
    let f = |t: f64| {
        exponents
            .iter()
            .map(|&(mult, a)| mult * (-t * a).exp())
            .sum::<f64>()
            - target
    };
    // f(0) = N − δ/2 > 0; f decreases to −δ/2.
    let t_star = bisect_with_growing_bracket(f, 0.0, 16.0, 1e-6);
    t_star.ceil().max(1.0) as usize
}

/// Approximate Bennett budget `T̃ = ⌈(1/h(ε/r)) ln(2K/δ)⌉` (eq. 134) — the
/// closed-form, N-free approximation of `T*` from Appendix H.
pub fn bennett_permutations_approx(k: usize, eps: f64, delta: f64, phi_bound: f64) -> usize {
    assert!(k >= 1 && eps > 0.0 && phi_bound > 0.0);
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let t = (2.0 * k as f64 / delta).ln() / bennett_h(eps / phi_bound);
    t.ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_i_shape() {
        assert_eq!(q_i(1, 3), 0.0);
        assert_eq!(q_i(3, 3), 0.0);
        assert!((q_i(4, 3) - 0.25).abs() < 1e-12);
        assert!((q_i(100, 3) - 0.97).abs() < 1e-12);
        // monotone increasing beyond K
        let mut prev = 0.0;
        for i in 4..200 {
            let q = q_i(i, 3);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn hoeffding_grows_logarithmically_with_n() {
        let t1 = hoeffding_permutations(1_000, 0.1, 0.1, 1.0);
        let t2 = hoeffding_permutations(1_000_000, 0.1, 0.1, 1.0);
        assert!(t2 > t1);
        // ratio should be ln(2e6/0.1)/ln(2e4/0.1) ≈ 1.55, far below 1000x
        assert!((t2 as f64 / t1 as f64) < 2.0);
    }

    #[test]
    fn bennett_below_hoeffding() {
        // The whole point of Theorem 5: for the same guarantee, Bennett needs
        // fewer permutations than Hoeffding, with the gap widening in N.
        let k = 5;
        let r = knn_class_phi_bound(k);
        let mut prev_gap = 0.0;
        for n in [1_000usize, 10_000, 100_000] {
            let hoeff = hoeffding_permutations(n, 0.1 * r, 0.1, r);
            let benn = bennett_permutations(n, k, 0.1 * r, 0.1, r);
            assert!(benn < hoeff, "n={n}: bennett={benn} hoeffding={hoeff}");
            let gap = hoeff as f64 / benn as f64;
            assert!(gap >= prev_gap, "gap should widen with n");
            prev_gap = gap;
        }
    }

    #[test]
    fn bennett_saturates_in_n() {
        // Fig. 11: the Bennett budget becomes N-independent for large N.
        let k = 3;
        let r = knn_class_phi_bound(k);
        let t1 = bennett_permutations(10_000, k, 0.05 * r, 0.1, r);
        let t2 = bennett_permutations(100_000, k, 0.05 * r, 0.1, r);
        let ratio = t2 as f64 / t1 as f64;
        assert!(ratio < 1.3, "t1={t1} t2={t2}");
    }

    #[test]
    fn bennett_solves_eq32() {
        // Substitute T* back into the LHS of eq. (32): must be ≤ δ/2 and the
        // value at T*−2 must exceed it (root bracketing sanity).
        let (n, k, eps, delta, r) = (500usize, 2usize, 0.05, 0.1, 0.5);
        let t_star = bennett_permutations(n, k, eps, delta, r);
        let lhs = |t: f64| -> f64 {
            (1..=n)
                .map(|i| {
                    let q = q_i(i, k);
                    let v = 1.0 - q * q;
                    (-t * v * bennett_h(eps / (v * r))).exp()
                })
                .sum()
        };
        assert!(lhs(t_star as f64) <= delta / 2.0 + 1e-6);
        assert!(lhs((t_star as f64 - 2.0).max(0.0)) >= delta / 2.0 - 1e-6);
    }

    #[test]
    fn approx_bennett_close_to_exact_for_large_n() {
        let k = 4;
        let r = knn_class_phi_bound(k);
        let approx = bennett_permutations_approx(k, 0.05 * r, 0.1, r);
        let exact = bennett_permutations(50_000, k, 0.05 * r, 0.1, r);
        let ratio = exact as f64 / approx as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "approx={approx} exact={exact}");
    }

    #[test]
    fn budgets_scale_inverse_quadratically_in_eps() {
        let t1 = hoeffding_permutations(1000, 0.1, 0.1, 1.0);
        let t2 = hoeffding_permutations(1000, 0.05, 0.1, 1.0);
        let ratio = t2 as f64 / t1 as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn knn_phi_bound_is_one_over_k() {
        assert_eq!(knn_class_phi_bound(1), 1.0);
        assert_eq!(knn_class_phi_bound(4), 0.25);
    }

    #[test]
    fn hoeffding_single_point_matches_closed_form() {
        // n = 1 is the smallest legal game; the budget must equal the formula
        // ⌈(2r)²/(2ε²)·ln(2/δ)⌉ evaluated directly.
        let (eps, delta, r) = (0.1f64, 0.05f64, 1.0f64);
        let expect = ((2.0 * r) * (2.0 * r) / (2.0 * eps * eps) * (2.0 / delta).ln()).ceil();
        assert_eq!(hoeffding_permutations(1, eps, delta, r), expect as usize);
    }

    #[test]
    fn hoeffding_floors_at_one_permutation() {
        // A huge ε drives the formula below 1; the budget must clamp, not
        // return 0 (an estimator given budget 0 would divide by zero).
        assert_eq!(hoeffding_permutations(10, 100.0, 0.5, 1.0), 1);
    }

    #[test]
    fn hoeffding_extreme_eps_delta_stay_finite_and_monotone() {
        // Tiny ε and tiny δ blow the budget up but must stay finite, and the
        // budget must be monotone in both.
        let tight = hoeffding_permutations(1000, 1e-4, 1e-9, 1.0);
        assert!(tight > 1_000_000);
        assert!(tight < usize::MAX / 2);
        assert!(hoeffding_permutations(1000, 1e-3, 1e-9, 1.0) < tight);
        assert!(hoeffding_permutations(1000, 1e-4, 1e-3, 1.0) < tight);
        // δ → 1⁻ is legal and cheap.
        let loose = hoeffding_permutations(1000, 0.5, 0.999, 1.0);
        assert!(loose >= 1);
    }

    #[test]
    fn bennett_single_point_matches_closed_form() {
        // n = k = 1: eq. (32) collapses to one term, exp(−T·h(ε/r)) = δ/2,
        // i.e. T = ln(2/δ)/h(ε/r).
        let (eps, delta, r) = (0.1f64, 0.1f64, 1.0f64);
        let expect = ((2.0 / delta).ln() / bennett_h(eps / r)).ceil();
        assert_eq!(bennett_permutations(1, 1, eps, delta, r), expect as usize);
    }

    #[test]
    fn bennett_extreme_eps_floors_at_one() {
        assert_eq!(bennett_permutations(100, 2, 50.0, 0.5, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "phi_bound > 0.0")]
    fn hoeffding_rejects_zero_range() {
        hoeffding_permutations(10, 0.1, 0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "phi_bound > 0.0")]
    fn bennett_rejects_zero_range() {
        bennett_permutations(10, 1, 0.1, 0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "delta in (0,1)")]
    fn hoeffding_rejects_delta_one() {
        hoeffding_permutations(10, 0.1, 1.0, 1.0);
    }

    #[test]
    fn heuristic_threshold_is_eps_over_50() {
        assert_eq!(heuristic_threshold(0.5), 0.01);
        assert_eq!(heuristic_threshold(1.0), 1.0 / 50.0);
    }

    #[test]
    fn mc_round_size_shape() {
        // Never exceeds the budget, never zero, saturates at MAX_MC_ROUND,
        // and is a function of the budget alone.
        assert_eq!(mc_round_size(1), 1);
        assert_eq!(mc_round_size(5), 5);
        assert_eq!(mc_round_size(100), 8);
        assert_eq!(mc_round_size(100_000), 64);
        for budget in [1usize, 2, 7, 63, 64, 65, 511, 512, 10_000] {
            let r = mc_round_size(budget);
            assert!(r >= 1 && r <= budget.max(1) && r <= 64, "budget={budget}");
        }
    }
}
