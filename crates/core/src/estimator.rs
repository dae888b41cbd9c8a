//! One descriptor for every shardable valuation job.
//!
//! Theorem 1 (and Theorems 2/6/7) write the multi-test Shapley vector as the
//! mean of independent per-test-point games; the Monte Carlo and
//! group-testing families average independent permutation/coalition streams.
//! Every shardable family therefore has the same shape — exact partial sums
//! over an item range, stamped with a job identity, finalized once by
//! [`merge_partials`](crate::sharding::merge_partials) — and this module is
//! the one place that shape is dispatched:
//!
//! * an [`Estimator`] names the task, the family and every parameter that
//!   moves a bit (K, weights, ε, stream budget, seed);
//! * [`Estimator::prepare`] binds it to borrowed datasets and a ranking
//!   [`Source`] — a fresh distance pass or a precomputed
//!   [`KnnGraph`] — validating the inputs and deriving the job [`Identity`]
//!   (shard kind, dataset-content fingerprint, sizes) exactly once;
//! * [`Prepared::partial`] computes one canonical range. The Monte Carlo and
//!   group-testing utilities are built on first use and shared by every
//!   later partial of the same [`Prepared`].
//!
//! Graph-backed and brute-force partials of one job carry the same kind,
//! fingerprint and bytes (the graph stores exactly the rankings the distance
//! pass produces), so they inter-merge freely.
//!
//! ```
//! use knnshap_core::estimator::{Data, Estimator, Family, Source, Task};
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
//!     family: Family::McImproved { perms: 40 },
//!     seed: 7,
//! };
//! let job = est.prepare(Data::Class { train: &train, test: &test }, Source::Brute).unwrap();
//! assert_eq!(job.identity().total_items, 40);
//! let parts: Vec<_> = (0..3).map(|i| job.partial(ShardSpec::new(i, 3), 1)).collect();
//! let merged = merge_partials(&parts).unwrap();
//! let whole = merge_partials(&[job.partial(ShardSpec::full(), 4)]).unwrap();
//! assert_eq!(merged.values, whole.values);
//! ```

use crate::mc::IncKnnUtility;
use crate::pipeline::PipelineError;
use crate::sharding::{
    finalize_mean, hash_class_dataset, hash_reg_dataset, weight_code, Fingerprint, ShardKind,
    ShardMeta, ShardPartial, ShardSpec,
};
use crate::types::ShapleyValues;
use crate::utility::{DistMatrix, KnnClassUtility, Utility};
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
/// The stochastic families carry an **a-priori** stream budget: the
/// sequential §6.2.2 heuristic stop cannot be sharded. LSH is absent on
/// purpose — its index is planned from whole-test-set statistics and does
/// not shard by test range (see `docs/sharding.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Exact per-test decomposition (Theorems 1/6/7; weighted via
    /// [`Estimator::weight`]).
    Exact,
    /// Truncated (ε, 0)-approximation (Theorem 2).
    Truncated { eps: f64 },
    /// Baseline Monte Carlo (§2.2) over `perms` permutation streams.
    McBaseline { perms: usize },
    /// Improved Monte Carlo (Algorithm 2) over `perms` permutation streams.
    McImproved { perms: usize },
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
    /// as its parameter; `None` for names no family answers to. The inverse
    /// of [`name`](Self::name) + [`params`](Self::params).
    pub fn from_parts(name: &str, eps: f64, perms: usize) -> Option<Family> {
        Some(match name {
            "exact" => Family::Exact,
            "truncated" => Family::Truncated { eps },
            "mc-baseline" => Family::McBaseline { perms },
            "mc-improved" => Family::McImproved { perms },
            "group-testing" => Family::GroupTesting { tests: perms },
            _ => return None,
        })
    }

    /// `(eps, stream budget)`, each 0 where the family has none.
    pub fn params(self) -> (f64, usize) {
        match self {
            Family::Exact => (0.0, 0),
            Family::Truncated { eps } => (eps, 0),
            Family::McBaseline { perms } | Family::McImproved { perms } => (0.0, perms),
            Family::GroupTesting { tests } => (0.0, tests),
        }
    }
}

/// A shardable valuation: task, family and every output-affecting parameter.
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

    fn features(self) -> (&'a Features, &'a Features) {
        match self {
            Data::Class { train, test } => (&train.x, &test.x),
            Data::Reg { train, test } => (&train.x, &test.x),
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

/// The input checks every valuation shares: non-empty sets, matching
/// dimensions, finite features (NaN would panic deep inside the distance
/// sorts), and — for a graph source — a graph built from exactly these
/// features.
pub(crate) fn check_inputs(
    train: &Features,
    test: &Features,
    source: Source<'_>,
) -> Result<(), PipelineError> {
    if train.is_empty() {
        return Err(PipelineError::EmptyTrainSet);
    }
    if test.is_empty() {
        return Err(PipelineError::EmptyTestSet);
    }
    if train.dim() != test.dim() {
        return Err(PipelineError::DimensionMismatch);
    }
    for (which, x) in [("train", train), ("test", test)] {
        if let Some(row) = x.first_non_finite_row() {
            return Err(PipelineError::NonFiniteFeature { which, row });
        }
    }
    if let Source::Graph(g) = source {
        g.validate_against(train, test)
            .map_err(|e| PipelineError::GraphMismatch(e.to_string()))?;
    }
    Ok(())
}

/// Why an estimator refuses a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimatorError {
    /// The parameters name a job no family can run (refused before any data
    /// is read by [`Estimator::check`]).
    Unsupported(String),
    /// The datasets or the graph fail the shared input checks.
    Input(PipelineError),
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

impl Estimator {
    fn uniform(&self) -> bool {
        matches!(self.weight, WeightFn::Uniform)
    }

    /// The refusals that need no data: K = 0, regression beyond the
    /// unweighted exact family, weighted truncation, and a stochastic family
    /// without a fixed stream budget.
    pub fn check(&self) -> Result<(), EstimatorError> {
        let bad = |m: String| Err(EstimatorError::Unsupported(m));
        if self.k == 0 {
            return bad("k must be at least 1".into());
        }
        match (self.task, self.family) {
            (Task::Reg, Family::Exact) if !self.uniform() => {
                bad("regression jobs support uniform weights only".into())
            }
            (Task::Reg, Family::Exact) => Ok(()),
            (Task::Reg, f) => bad(format!(
                "regression jobs support method exact (got {})",
                f.name()
            )),
            (_, Family::Truncated { .. }) if !self.uniform() => {
                bad("truncated supports uniform weights only".into())
            }
            (
                _,
                Family::McBaseline { perms: 0 }
                | Family::McImproved { perms: 0 }
                | Family::GroupTesting { tests: 0 },
            ) => bad(
                "sharded Monte Carlo / group testing needs a fixed stream budget: \
                 pass --perms N (the §6.2.2 heuristic stop is sequential and \
                 cannot be sharded)"
                    .into(),
            ),
            _ => Ok(()),
        }
    }

    /// Bind the estimator to `data` and `source`: run [`check`](Self::check)
    /// and the shared input checks, and derive the job identity.
    pub fn prepare<'a>(
        &self,
        data: Data<'a>,
        source: Source<'a>,
    ) -> Result<Prepared<'a>, EstimatorError> {
        self.check()?;
        if data.task() != self.task {
            return Err(EstimatorError::Unsupported(format!(
                "a {} estimator cannot value {} data",
                self.task.name(),
                data.task().name()
            )));
        }
        let (train, test) = data.features();
        check_inputs(train, test, source).map_err(EstimatorError::Input)?;
        if matches!(self.family, Family::GroupTesting { .. }) && train.len() < 2 {
            return Err(EstimatorError::Unsupported(
                "group testing needs at least two training points".into(),
            ));
        }
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

    /// The unsharded values of a per-test family (exact or truncated) — the
    /// fold [`Prepared::partial`] runs, over every test point, finalized
    /// directly: no input checks and no identity hash, for the pipeline,
    /// which has validated already.
    pub(crate) fn per_test_values(
        &self,
        data: Data<'_>,
        source: Source<'_>,
        threads: usize,
    ) -> ShapleyValues {
        let n_test = data.features().1.len();
        finalize_mean(
            &self.per_test_sums(data, source, 0..n_test, threads),
            n_test as u64,
        )
    }

    /// Exact partial sums of a per-test family over test points `range`.
    fn per_test_sums(
        &self,
        data: Data<'_>,
        source: Source<'_>,
        range: std::ops::Range<usize>,
        threads: usize,
    ) -> ExactVec {
        let k = self.k;
        match (data, self.family) {
            (Data::Reg { train, test }, _) => crate::exact_regression::knn_reg_shapley_shard(
                train, test, k, source, range, threads,
            ),
            (Data::Class { train, test }, Family::Truncated { eps }) => {
                crate::truncated::truncated_class_shapley_shard(
                    train, test, k, eps, source, range, threads,
                )
            }
            (Data::Class { train, test }, _) if self.uniform() => {
                crate::exact_unweighted::knn_class_shapley_shard(
                    train, test, k, source, range, threads,
                )
            }
            (Data::Class { train, test }, _) => {
                crate::exact_weighted::weighted_knn_class_shapley_shard(
                    train,
                    test,
                    k,
                    self.weight,
                    source,
                    range,
                    threads,
                )
            }
        }
    }
}

/// An [`Estimator`] bound to its datasets and ranking source, ready to
/// compute partials of the job [`identity`](Self::identity) names.
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

    fn class_data(&self) -> (&ClassDataset, &ClassDataset) {
        match self.data {
            Data::Class { train, test } => (train, test),
            Data::Reg { .. } => {
                unreachable!("checked: stochastic families are classification-only")
            }
        }
    }

    /// The baseline/group-testing utility, built once.
    fn class_util(&self) -> &KnnClassUtility {
        self.class_util.get_or_init(|| {
            let (train, test) = self.class_data();
            let e = &self.estimator;
            KnnClassUtility::with_source(train, test, e.k, e.weight, self.source)
        })
    }

    /// Algorithm 2's incremental utility, built once.
    fn inc_util(&self) -> &IncKnnUtility {
        self.inc_util.get_or_init(|| {
            let (train, test) = self.class_data();
            let e = &self.estimator;
            IncKnnUtility::class_with_source(train, test, e.k, e.weight, self.source)
        })
    }

    /// The partial of one canonical range of the job's items, folded with
    /// `threads` workers.
    ///
    /// ### Determinism contract
    ///
    /// The partial is a pure function of the job and `spec`'s item range —
    /// never of `threads`, of the [`Source`], or of how the rest of the job
    /// is split. Merging any full set with
    /// [`merge_partials`](crate::sharding::merge_partials) reproduces the
    /// unsharded estimator bit for bit.
    pub fn partial(&self, spec: ShardSpec, threads: usize) -> ShardPartial {
        let id = self.identity;
        let range = spec.range(id.total_items as usize);
        let seed = self.estimator.seed;
        let mut extras = Vec::new();
        let mut aux = ExactVec::zeros(0);
        let sums = match self.estimator.family {
            Family::Exact | Family::Truncated { .. } => {
                self.estimator
                    .per_test_sums(self.data, self.source, range.clone(), threads)
            }
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
                    None,
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
