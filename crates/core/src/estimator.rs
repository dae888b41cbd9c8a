//! The one front door of every valuation family.
//!
//! The paper's §6.2 "Remarks" are a decision guide — exact by default,
//! truncated or LSH when a moderate ε is acceptable and K is small, Monte
//! Carlo where the exact algorithm is O(N^K) — and Theorem 1 (and Theorems
//! 2/6/7) write the multi-test Shapley vector as the mean of independent
//! per-test-point games, while the Monte Carlo and group-testing families
//! average independent permutation/coalition streams. So every family has
//! the same shape — exact partial sums over an item range, finalized once —
//! and this module is the one place that shape is dispatched:
//!
//! * an [`Estimator`] names the task, the family and every parameter that
//!   moves a bit (K, weights, ε, stopping rule or stream budget, seed);
//!   [`Estimator::check`] refuses impossible parameters before any data is
//!   read;
//! * [`Estimator::run`] is the unsharded valuation: it validates the
//!   borrowed datasets and the ranking [`Source`] — a fresh distance pass or
//!   a precomputed [`KnnGraph`] — runs the family's fold over the whole item
//!   range on the chosen [`Schedule`], and finalizes it directly (no job
//!   identity is hashed);
//! * [`Estimator::prepare`] binds a shardable estimator to its data,
//!   deriving the job [`Identity`] (shard kind, dataset-content fingerprint,
//!   sizes) exactly once, and [`Prepared::partial`] computes one canonical
//!   range, finalized by [`merge_partials`](crate::sharding::merge_partials).
//!   The Monte Carlo and group-testing utilities are built on first use and
//!   shared by every later partial of the same [`Prepared`].
//!
//! Graph-backed and brute-force runs and partials of one job carry the same
//! kind, fingerprint and bytes (the graph stores exactly the rankings the
//! distance pass produces), so they inter-merge freely. LSH retrieval
//! ([`crate::lsh_approx::lsh_class_shapley_planned`]) plans its index from
//! whole-test-set statistics and stays outside [`Family`].
//!
//! ```
//! use knnshap_core::estimator::{Data, Estimator, Family, Source, Task};
//! use knnshap_core::mc::StoppingRule;
//! use knnshap_core::schedule::Schedule;
//! use knnshap_core::sharding::{merge_partials, ShardSpec};
//! use knnshap_datasets::synth::blobs::{self, BlobConfig};
//! use knnshap_knn::weights::WeightFn;
//!
//! let cfg = BlobConfig { n: 30, dim: 3, n_classes: 2, ..Default::default() };
//! let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 5, 1));
//! let est = Estimator {
//!     task: Task::Class,
//!     k: 2,
//!     weight: WeightFn::Uniform,
//!     family: Family::McImproved { rule: StoppingRule::Fixed(40) },
//!     seed: 7,
//! };
//! let data = Data::Class { train: &train, test: &test };
//! let job = est.prepare(data, Source::Brute).unwrap();
//! assert_eq!(job.identity().total_items, 40);
//! let parts: Vec<_> = (0..3).map(|i| job.partial(ShardSpec::new(i, 3), 1)).collect();
//! let merged = merge_partials(&parts).unwrap();
//! let whole = est.run(data, Source::Brute, 4, Schedule::Measured).unwrap();
//! assert_eq!(merged.values, whole.values);
//! assert_eq!(whole.permutations, Some(40));
//! ```

use crate::mc::{IncKnnUtility, McResult, StoppingRule};
use crate::schedule::{Schedule, Workers};
use crate::sharding::{
    finalize_mean, hash_class_dataset, hash_reg_dataset, weight_code, Fingerprint, ShardKind,
    ShardMeta, ShardPartial, ShardSpec,
};
use crate::types::ShapleyValues;
use crate::utility::{DistMatrix, KnnClassUtility, KnnRegUtility, Utility};
use knnshap_datasets::{ClassDataset, Features, RegDataset};
use knnshap_knn::distance::Metric;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::neighbors::{argsort_by_distance, partial_k_nearest, Neighbor};
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::exact::ExactVec;
use knnshap_numerics::sampling::RngStreams;
use std::borrow::Cow;
use std::cell::OnceCell;

/// Which prediction task the datasets hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Integer labels; utility eqs. (5)/(8)/(26).
    Class,
    /// Float targets; utility eqs. (25)/(27).
    Reg,
}

impl Task {
    pub fn name(self) -> &'static str {
        match self {
            Task::Class => "class",
            Task::Reg => "reg",
        }
    }
}

/// The estimator family, with its family-specific parameter.
///
/// The Monte Carlo families carry their [`StoppingRule`]; sharding needs an
/// **a-priori** [`Fixed`](StoppingRule::Fixed) budget (the sequential
/// §6.2.2 heuristic stop cannot be sharded — [`Estimator::prepare`] refuses
/// it). LSH is absent on purpose — its index is planned from
/// whole-test-set statistics and does not shard by test range (see
/// `docs/sharding.md` and [`crate::lsh_approx::lsh_class_shapley_planned`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Exact per-test decomposition (Theorems 1/6/7; weighted via
    /// [`Estimator::weight`]).
    Exact,
    /// Truncated (ε, 0)-approximation (Theorem 2).
    Truncated { eps: f64 },
    /// Baseline Monte Carlo (§2.2) under `rule`.
    McBaseline { rule: StoppingRule },
    /// Improved Monte Carlo (Algorithm 2) under `rule`.
    McImproved { rule: StoppingRule },
    /// Group-testing baseline over `tests` coalition-test streams.
    GroupTesting { tests: usize },
}

impl Family {
    /// The name `--method` and the `KNNJOBPLAN` file use.
    pub fn name(self) -> &'static str {
        match self {
            Family::Exact => "exact",
            Family::Truncated { .. } => "truncated",
            Family::McBaseline { .. } => "mc-baseline",
            Family::McImproved { .. } => "mc-improved",
            Family::GroupTesting { .. } => "group-testing",
        }
    }

    /// The family called `name`, taking `eps` or the stream budget `perms`
    /// as its parameter; `None` for names no family answers to. A Monte
    /// Carlo family without a budget (`perms == 0`) stops by the paper's
    /// §6.2.2 heuristic at threshold ε/50, capped at 50 000 (baseline) or
    /// 200 000 (improved) permutations. The inverse of
    /// [`name`](Self::name) + [`params`](Self::params) for every shardable
    /// family.
    pub fn from_parts(name: &str, eps: f64, perms: usize) -> Option<Family> {
        let rule = |max| match perms {
            0 => StoppingRule::Heuristic {
                threshold: crate::bounds::heuristic_threshold(eps),
                max,
            },
            t => StoppingRule::Fixed(t),
        };
        Some(match name {
            "exact" => Family::Exact,
            "truncated" => Family::Truncated { eps },
            "mc-baseline" => Family::McBaseline { rule: rule(50_000) },
            "mc-improved" => Family::McImproved {
                rule: rule(200_000),
            },
            "group-testing" => Family::GroupTesting { tests: perms },
            _ => return None,
        })
    }

    /// `(eps, fixed stream budget)`, each 0 where the family has none.
    pub fn params(self) -> (f64, usize) {
        match self {
            Family::Exact => (0.0, 0),
            Family::Truncated { eps } => (eps, 0),
            Family::McBaseline { rule } | Family::McImproved { rule } => {
                (0.0, rule.fixed().unwrap_or(0))
            }
            Family::GroupTesting { tests } => (0.0, tests),
        }
    }
}

/// A valuation: task, family and every output-affecting parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimator {
    pub task: Task,
    pub k: usize,
    pub weight: WeightFn,
    pub family: Family,
    /// RNG seed of the stochastic families (carried, and ignored, by the
    /// others).
    pub seed: u64,
}

/// Borrowed datasets, typed by task.
#[derive(Debug, Clone, Copy)]
pub enum Data<'a> {
    Class {
        train: &'a ClassDataset,
        test: &'a ClassDataset,
    },
    Reg {
        train: &'a RegDataset,
        test: &'a RegDataset,
    },
}

impl<'a> Data<'a> {
    fn task(self) -> Task {
        match self {
            Data::Class { .. } => Task::Class,
            Data::Reg { .. } => Task::Reg,
        }
    }

    pub(crate) fn features(self) -> (&'a Features, &'a Features) {
        match self {
            Data::Class { train, test } => (&train.x, &test.x),
            Data::Reg { train, test } => (&train.x, &test.x),
        }
    }

    /// The classification pair of a family [`Estimator::check`] has
    /// confined to classification.
    fn class(self) -> (&'a ClassDataset, &'a ClassDataset) {
        match self {
            Data::Class { train, test } => (train, test),
            Data::Reg { .. } => unreachable!("checked: a classification-only family"),
        }
    }
}

/// Where the distance rankings come from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A fresh distance pass over the features.
    Brute,
    /// A precomputed `KNNGRAPH` artifact built from exactly these features.
    /// It stores the rankings the distance pass produces (same per-pair
    /// arithmetic, same tie-break), so every result is bitwise-identical.
    Graph(&'a KnnGraph),
}

impl<'a> From<Option<&'a KnnGraph>> for Source<'a> {
    fn from(graph: Option<&'a KnnGraph>) -> Self {
        graph.map_or(Source::Brute, Source::Graph)
    }
}

impl<'a> Source<'a> {
    /// Test point `j`'s full ascending ranking of the training set.
    pub(crate) fn ranking(
        self,
        train: &Features,
        test: &Features,
        j: usize,
    ) -> Cow<'a, [Neighbor]> {
        match self {
            Source::Brute => Cow::Owned(argsort_by_distance(train, test.row(j), Metric::SquaredL2)),
            Source::Graph(g) => Cow::Borrowed(g.list(j)),
        }
    }

    /// The `ks` nearest training points of test point `j`, ascending: the
    /// same prefix of the same total order either way.
    pub(crate) fn nearest(
        self,
        train: &Features,
        test: &Features,
        j: usize,
        ks: usize,
    ) -> Cow<'a, [Neighbor]> {
        match self {
            Source::Brute => {
                Cow::Owned(partial_k_nearest(train, test.row(j), ks, Metric::SquaredL2))
            }
            Source::Graph(g) => {
                let list = g.list(j);
                Cow::Borrowed(&list[..ks.min(list.len())])
            }
        }
    }

    /// The utilities' `N_test × N` distance matrix.
    pub(crate) fn dist_matrix(self, train: &Features, test: &Features) -> DistMatrix {
        match self {
            Source::Brute => DistMatrix::build(train, test),
            Source::Graph(g) => DistMatrix::from_graph(g),
        }
    }
}

/// Why the datasets (or the graph) cannot be valued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// Train/test feature dimensionality differs.
    DimensionMismatch,
    /// The test set is empty.
    EmptyTestSet,
    /// The training set is empty.
    EmptyTrainSet,
    /// A feature value is NaN or infinite; distance comparisons would panic
    /// deep inside the valuation sorts. `(which, row)` identifies the first
    /// offending row in `"train"` or `"test"`.
    NonFiniteFeature { which: &'static str, row: usize },
    /// The attached KNN graph was built from different datasets (shape or
    /// content fingerprint drift).
    GraphMismatch(String),
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::DimensionMismatch => write!(f, "train/test dimension mismatch"),
            InputError::EmptyTestSet => write!(f, "test set is empty"),
            InputError::EmptyTrainSet => write!(f, "training set is empty"),
            InputError::NonFiniteFeature { which, row } => {
                write!(f, "{which} row {row} contains a NaN/infinite feature")
            }
            InputError::GraphMismatch(detail) => {
                write!(f, "graph does not match the datasets: {detail}")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// The input checks every valuation shares: non-empty sets, matching
/// dimensions, finite features (NaN would panic deep inside the distance
/// sorts), and — for a graph source — a graph built from exactly these
/// features.
pub(crate) fn check_inputs(
    train: &Features,
    test: &Features,
    source: Source<'_>,
) -> Result<(), EstimatorError> {
    let bad = |e| Err(EstimatorError::Input(e));
    if train.is_empty() {
        return bad(InputError::EmptyTrainSet);
    }
    if test.is_empty() {
        return bad(InputError::EmptyTestSet);
    }
    if train.dim() != test.dim() {
        return bad(InputError::DimensionMismatch);
    }
    for (which, x) in [("train", train), ("test", test)] {
        if let Some(row) = x.first_non_finite_row() {
            return bad(InputError::NonFiniteFeature { which, row });
        }
    }
    if let Source::Graph(g) = source {
        if let Err(e) = g.validate_against(train, test) {
            return bad(InputError::GraphMismatch(e.to_string()));
        }
    }
    Ok(())
}

/// Why an estimator refuses a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimatorError {
    /// The parameters name a job no family can run (refused before any data
    /// is read by [`Estimator::check`]), or one that cannot shard (refused
    /// by [`Estimator::check_shardable`]).
    Unsupported(String),
    /// The datasets or the graph fail the shared input checks.
    Input(InputError),
}

impl std::fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorError::Unsupported(m) => write!(f, "{m}"),
            EstimatorError::Input(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

fn unsupported<T>(message: String) -> Result<T, EstimatorError> {
    Err(EstimatorError::Unsupported(message))
}

/// Refuse an accuracy target ε that is not positive (NaN included): every
/// ε-driven bound (K* = ⌈1/ε⌉, the ε/50 stop) needs ε > 0.
pub(crate) fn check_eps(eps: f64) -> Result<(), EstimatorError> {
    if eps > 0.0 {
        return Ok(());
    }
    unsupported(format!("eps must be positive (got {eps})"))
}

/// Refuse a failure probability δ outside (0, 1) (NaN included).
pub(crate) fn check_delta(delta: f64) -> Result<(), EstimatorError> {
    if delta > 0.0 && delta < 1.0 {
        return Ok(());
    }
    unsupported(format!("delta must lie in (0, 1) (got {delta})"))
}

/// Refuse a stopping rule whose budget or threshold cannot be computed.
fn check_rule(rule: StoppingRule) -> Result<(), EstimatorError> {
    match rule {
        StoppingRule::Fixed(_) => Ok(()),
        StoppingRule::Heuristic { threshold, .. } if threshold > 0.0 && threshold.is_finite() => {
            Ok(())
        }
        StoppingRule::Heuristic { threshold, .. } => unsupported(format!(
            "the heuristic stop needs a positive, finite eps (its threshold eps/50 is \
             {threshold}); pass a positive --eps, or a fixed budget with --perms N"
        )),
        StoppingRule::Hoeffding { eps, delta, range }
        | StoppingRule::Bennett {
            eps, delta, range, ..
        } => {
            check_eps(eps)?;
            check_delta(delta)?;
            if range > 0.0 {
                return Ok(());
            }
            unsupported(format!("the utility range must be positive (got {range})"))
        }
    }
}

/// What every shard of one job agrees on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    pub kind: ShardKind,
    /// Hash of the dataset contents and every output-affecting parameter.
    pub fingerprint: u64,
    pub n_train: u64,
    /// Test points for the per-test families, the stream budget otherwise.
    pub total_items: u64,
}

/// An unsharded valuation plus run metadata, returned by
/// [`Estimator::run`].
///
/// ```
/// use knnshap_core::estimator::{Data, Estimator, Family, Source, Task};
/// use knnshap_core::schedule::Schedule;
/// use knnshap_datasets::synth::regression::{self, RegressionConfig};
/// use knnshap_knn::weights::WeightFn;
///
/// let cfg = RegressionConfig { n: 200, ..Default::default() };
/// let (train, test) = (regression::generate(&cfg), regression::queries(&cfg, 10));
/// let est = Estimator { task: Task::Reg, k: 3, weight: WeightFn::Uniform, family: Family::Exact, seed: 0 };
/// let data = Data::Reg { train: &train, test: &test };
/// let run = est.run(data, Source::Brute, 2, Schedule::Static).unwrap();
/// assert_eq!(run.values.len(), 200);
/// assert_eq!(run.permutations, None); // deterministic family
/// ```
#[derive(Debug, Clone)]
pub struct Valuation {
    pub values: ShapleyValues,
    /// Permutations consumed, for the Monte Carlo families (`None` for the
    /// others).
    pub permutations: Option<usize>,
}

impl From<ShapleyValues> for Valuation {
    fn from(values: ShapleyValues) -> Self {
        Valuation {
            values,
            permutations: None,
        }
    }
}

impl From<McResult> for Valuation {
    fn from(res: McResult) -> Self {
        Valuation {
            values: res.values,
            permutations: Some(res.permutations),
        }
    }
}

impl Estimator {
    fn uniform(&self) -> bool {
        matches!(self.weight, WeightFn::Uniform)
    }

    /// The refusals that need no data: K = 0, a non-finite weight
    /// parameter, a non-positive ε, a stopping rule without a computable
    /// budget, group testing without a test budget, weighted truncation,
    /// and regression with a classification-only family (truncated, group
    /// testing).
    pub fn check(&self) -> Result<(), EstimatorError> {
        if self.k == 0 {
            return unsupported("k must be at least 1".into());
        }
        let (_, weight_param) = weight_code(self.weight);
        if !weight_param.is_finite() {
            return unsupported(format!(
                "the weight parameter must be finite (got {weight_param})"
            ));
        }
        match (self.task, self.family) {
            (Task::Reg, f @ (Family::Truncated { .. } | Family::GroupTesting { .. })) => {
                unsupported(format!(
                    "regression supports methods exact, mc-baseline and mc-improved (got {})",
                    f.name()
                ))
            }
            (_, Family::Truncated { eps }) => {
                check_eps(eps)?;
                if self.uniform() {
                    return Ok(());
                }
                unsupported("truncated supports uniform weights only".into())
            }
            (_, Family::McBaseline { rule } | Family::McImproved { rule }) => check_rule(rule),
            (_, Family::GroupTesting { tests: 0 }) => {
                unsupported("group testing needs a fixed test budget: pass --perms N".into())
            }
            _ => Ok(()),
        }
    }

    /// [`check`](Self::check) plus what sharding cannot do: regression
    /// beyond the unweighted exact family, and a Monte Carlo family without
    /// a fixed, non-zero permutation budget.
    pub fn check_shardable(&self) -> Result<(), EstimatorError> {
        self.check()?;
        match (self.task, self.family) {
            (Task::Reg, Family::Exact) if !self.uniform() => {
                unsupported("regression jobs support uniform weights only".into())
            }
            (Task::Reg, Family::Exact) => Ok(()),
            (Task::Reg, f) => unsupported(format!(
                "regression jobs support method exact (got {})",
                f.name()
            )),
            (_, Family::McBaseline { rule } | Family::McImproved { rule })
                if rule.fixed().unwrap_or(0) == 0 =>
            {
                unsupported(
                    "sharded Monte Carlo / group testing needs a fixed stream budget: \
                     pass --perms N (the §6.2.2 heuristic stop is sequential and \
                     cannot be sharded)"
                        .into(),
                )
            }
            _ => Ok(()),
        }
    }

    /// The data checks shared by [`run`](Self::run) and
    /// [`prepare`](Self::prepare).
    fn check_data(&self, data: Data<'_>, source: Source<'_>) -> Result<(), EstimatorError> {
        if data.task() != self.task {
            return unsupported(format!(
                "a {} estimator cannot value {} data",
                self.task.name(),
                data.task().name()
            ));
        }
        let (train, test) = data.features();
        check_inputs(train, test, source)?;
        if matches!(self.family, Family::GroupTesting { .. }) && train.len() < 2 {
            return unsupported("group testing needs at least two training points".into());
        }
        Ok(())
    }

    /// The unsharded valuation of `data`, with rankings from `source`:
    /// [`check`](Self::check) and the shared input checks, then the
    /// family's fold over every item on `threads` workers tiled per
    /// `schedule` (the closed-form exact families have no budget to plan
    /// and ignore it), finalized directly.
    ///
    /// ### Determinism contract
    ///
    /// The values are a pure function of the estimator and the datasets —
    /// never of `threads`, `schedule` or `source` — and equal, bit for bit,
    /// the merge of any full shard set of the same job.
    ///
    /// ```
    /// use knnshap_core::estimator::{Data, Estimator, Family, Source, Task};
    /// use knnshap_core::schedule::Schedule;
    /// use knnshap_datasets::synth::blobs::{self, BlobConfig};
    /// use knnshap_knn::weights::WeightFn;
    ///
    /// let cfg = BlobConfig { n: 300, dim: 8, n_classes: 3, ..Default::default() };
    /// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 10, 7));
    /// let exact = Estimator { task: Task::Class, k: 3, weight: WeightFn::Uniform, family: Family::Exact, seed: 0 };
    /// let data = Data::Class { train: &train, test: &test };
    /// let sv = exact.run(data, Source::Brute, 2, Schedule::Static).unwrap().values;
    /// assert_eq!(sv.len(), 300);
    /// // Theorem 2: the truncated estimate is within ε of the exact one.
    /// let truncated = Estimator { family: Family::Truncated { eps: 0.1 }, ..exact };
    /// let approx = truncated.run(data, Source::Brute, 2, Schedule::Measured).unwrap().values;
    /// assert!(sv.max_abs_diff(&approx) <= 0.1 + 1e-12);
    /// ```
    pub fn run(
        &self,
        data: Data<'_>,
        source: Source<'_>,
        threads: usize,
        schedule: Schedule,
    ) -> Result<Valuation, EstimatorError> {
        self.check()?;
        self.check_data(data, source)?;
        let workers = Workers { threads, schedule };
        let (k, weight, seed) = (self.k, self.weight, self.seed);
        Ok(match (data, self.family) {
            (_, Family::Exact | Family::Truncated { .. }) => {
                let n_test = data.features().1.len();
                let sums = self.per_test_sums(data, source, 0..n_test, workers);
                finalize_mean(&sums, n_test as u64).into()
            }
            (Data::Class { train, test }, Family::McBaseline { rule }) => {
                let u = KnnClassUtility::with_source(train, test, k, weight, source);
                crate::mc::mc_shapley_baseline_with_threads(&u, rule, seed, None, workers).into()
            }
            (Data::Reg { train, test }, Family::McBaseline { rule }) => {
                let u = KnnRegUtility::with_source(train, test, k, weight, source);
                crate::mc::mc_shapley_baseline_with_threads(&u, rule, seed, None, workers).into()
            }
            (_, Family::McImproved { rule }) => {
                let inc = IncKnnUtility::with_source(data, k, weight, source);
                crate::mc::mc_shapley_improved_with_threads(&inc, rule, seed, None, workers).into()
            }
            (_, Family::GroupTesting { tests }) => {
                let (train, test) = data.class();
                let u = KnnClassUtility::with_source(train, test, k, weight, source);
                let streams = RngStreams::new(seed);
                let (point, shared) = crate::group_testing::group_testing_shapley_shard(
                    &u,
                    streams,
                    0..tests,
                    threads,
                    schedule,
                );
                let (point, shared) = (point.values(), shared.value());
                crate::group_testing::recover_values(u.grand(), tests, point, shared).into()
            }
        })
    }

    /// Bind a shardable estimator to `data` and `source`: run
    /// [`check_shardable`](Self::check_shardable) and the shared input
    /// checks, and derive the job identity.
    pub fn prepare<'a>(
        &self,
        data: Data<'a>,
        source: Source<'a>,
    ) -> Result<Prepared<'a>, EstimatorError> {
        self.check_shardable()?;
        self.check_data(data, source)?;
        let (train, test) = data.features();
        let total_items = match self.family.params().1 {
            0 => test.len(),
            budget => budget,
        };
        Ok(Prepared {
            estimator: *self,
            data,
            source,
            identity: Identity {
                kind: self.kind(),
                fingerprint: self.fingerprint(data),
                n_train: train.len() as u64,
                total_items: total_items as u64,
            },
            class_util: OnceCell::new(),
            inc_util: OnceCell::new(),
        })
    }

    fn kind(&self) -> ShardKind {
        match (self.task, self.family) {
            (Task::Reg, _) => ShardKind::ExactReg,
            (Task::Class, Family::Exact) => ShardKind::ExactClass,
            (Task::Class, Family::Truncated { .. }) => ShardKind::Truncated,
            (Task::Class, Family::McBaseline { .. }) => ShardKind::McBaseline,
            (Task::Class, Family::McImproved { .. }) => ShardKind::McImproved,
            (Task::Class, Family::GroupTesting { .. }) => ShardKind::GroupTesting,
        }
    }

    /// The job fingerprint, from the dataset contents (never from derived
    /// distance matrices, so checking it costs O(dataset)). The hash inputs
    /// are frozen: `KNNSHARD` files of earlier builds must keep merging.
    fn fingerprint(&self, data: Data<'_>) -> u64 {
        let k = self.k as u64;
        let (train, test) = match data {
            Data::Reg { train, test } => {
                return Fingerprint::new("exact-reg")
                    .u64(k)
                    .u64(hash_reg_dataset(train))
                    .u64(hash_reg_dataset(test))
                    .finish()
            }
            Data::Class { train, test } => (train, test),
        };
        let contents = |fp: Fingerprint| {
            fp.u64(hash_class_dataset(train))
                .u64(hash_class_dataset(test))
                .finish()
        };
        // The stochastic families hash the seed and their utility's content
        // fingerprint.
        let seeded =
            |name: &str, utility: u64| Fingerprint::new(name).u64(self.seed).u64(utility).finish();
        let class_utility =
            || KnnClassUtility::content_fingerprint(train, test, self.k, self.weight);
        match self.family {
            Family::Exact if self.uniform() => contents(Fingerprint::new("exact-class").u64(k)),
            Family::Exact => {
                let (wtag, wparam) = weight_code(self.weight);
                contents(Fingerprint::new("exact-class").u64(k).u64(wtag).f64(wparam))
            }
            Family::Truncated { eps } => contents(Fingerprint::new("truncated").u64(k).f64(eps)),
            Family::McBaseline { .. } => seeded("mc-baseline", class_utility()),
            Family::McImproved { .. } => seeded(
                "mc-improved",
                IncKnnUtility::class_content_fingerprint(train, test, self.k, self.weight),
            ),
            Family::GroupTesting { .. } => seeded("group-testing", class_utility()),
        }
    }

    /// Exact partial sums of a per-test family (exact or truncated) over
    /// test points `range`. Only truncated has a budget to schedule; the
    /// exact folds are closed-form and always static.
    fn per_test_sums(
        &self,
        data: Data<'_>,
        source: Source<'_>,
        range: std::ops::Range<usize>,
        workers: Workers,
    ) -> ExactVec {
        let (k, weight, threads) = (self.k, self.weight, workers.threads);
        match (data, self.family) {
            (Data::Reg { train, test }, _) if self.uniform() => {
                crate::exact_regression::knn_reg_shapley_shard(
                    train, test, k, source, range, threads,
                )
            }
            (Data::Reg { train, test }, _) => crate::exact_weighted::weighted_knn_reg_shapley_sums(
                train, test, k, weight, source, range, threads,
            ),
            (Data::Class { train, test }, Family::Truncated { eps }) => {
                crate::truncated::truncated_class_shapley_shard(
                    train, test, k, eps, source, range, workers,
                )
            }
            (Data::Class { train, test }, _) if self.uniform() => {
                crate::exact_unweighted::knn_class_shapley_shard(
                    train, test, k, source, range, threads,
                )
            }
            (Data::Class { train, test }, _) => {
                crate::exact_weighted::weighted_knn_class_shapley_shard(
                    train, test, k, weight, source, range, threads,
                )
            }
        }
    }
}

/// A shardable [`Estimator`] bound to its datasets and ranking source,
/// ready to compute partials of the job [`identity`](Self::identity) names.
pub struct Prepared<'a> {
    estimator: Estimator,
    data: Data<'a>,
    source: Source<'a>,
    identity: Identity,
    class_util: OnceCell<KnnClassUtility>,
    inc_util: OnceCell<IncKnnUtility>,
}

impl Prepared<'_> {
    pub fn identity(&self) -> Identity {
        self.identity
    }

    /// The baseline/group-testing utility, built once.
    fn class_util(&self) -> &KnnClassUtility {
        self.class_util.get_or_init(|| {
            let (train, test) = self.data.class();
            let e = &self.estimator;
            KnnClassUtility::with_source(train, test, e.k, e.weight, self.source)
        })
    }

    /// Algorithm 2's incremental utility, built once.
    fn inc_util(&self) -> &IncKnnUtility {
        self.inc_util.get_or_init(|| {
            let e = &self.estimator;
            IncKnnUtility::with_source(self.data, e.k, e.weight, self.source)
        })
    }

    /// The partial of one canonical range of the job's items, folded with
    /// `threads` workers on the static schedule.
    ///
    /// ### Determinism contract
    ///
    /// The partial is a pure function of the job and `spec`'s item range —
    /// never of `threads`, of the [`Source`], or of how the rest of the job
    /// is split. Merging any full set with
    /// [`merge_partials`](crate::sharding::merge_partials) reproduces the
    /// unsharded [`Estimator::run`] bit for bit.
    pub fn partial(&self, spec: ShardSpec, threads: usize) -> ShardPartial {
        let id = self.identity;
        let range = spec.range(id.total_items as usize);
        let seed = self.estimator.seed;
        let mut extras = Vec::new();
        let mut aux = ExactVec::zeros(0);
        let sums = match self.estimator.family {
            Family::Exact | Family::Truncated { .. } => self.estimator.per_test_sums(
                self.data,
                self.source,
                range.clone(),
                Workers::from(threads),
            ),
            Family::McBaseline { .. } => crate::mc::mc_shapley_baseline_shard(
                self.class_util(),
                seed,
                range.clone(),
                threads,
            ),
            Family::McImproved { .. } => {
                crate::mc::mc_shapley_improved_shard(self.inc_util(), seed, range.clone(), threads)
            }
            Family::GroupTesting { .. } => {
                let u = self.class_util();
                let (point, shared) = crate::group_testing::group_testing_shapley_shard(
                    u,
                    RngStreams::new(seed),
                    range.clone(),
                    threads,
                    Schedule::Static,
                );
                aux = ExactVec::zeros(1);
                aux.merge_scalar(0, &shared);
                extras.push(u.grand());
                point
            }
        };
        ShardPartial {
            meta: ShardMeta {
                kind: id.kind,
                fingerprint: id.fingerprint,
                n_train: id.n_train,
                total_items: id.total_items,
                item_lo: range.start as u64,
                item_hi: range.end as u64,
                extras,
            },
            sums,
            aux,
        }
    }
}
