//! From plan to partial sums: load the datasets a plan names and bind them
//! to the plan's `knnshap_core::estimator::Estimator`, verifying the job
//! identity against their *contents*. Computing a chunk is then
//! `Prepared::partial` — the one dispatch every shardable family shares.

use crate::spec::{JobPlan, JobSpec};
use crate::JobError;
use knnshap_core::estimator::{Data, Prepared, Task};
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::graph::KnnGraph;

/// The datasets of one job, typed by task.
pub enum JobData {
    Class {
        train: ClassDataset,
        test: ClassDataset,
    },
    Reg {
        train: RegDataset,
        test: RegDataset,
    },
}

impl JobData {
    /// Load the CSVs a spec names, parsed for its task. The structural
    /// checks (dimensions, empty sets, finite features) are the estimator's.
    pub fn load(spec: &JobSpec) -> Result<JobData, JobError> {
        let ds = |path: &std::path::Path, e: knnshap_datasets::io::IoError| {
            JobError::Dataset(format!("{}: {e}", path.display()))
        };
        Ok(match spec.estimator.task {
            Task::Class => JobData::Class {
                train: knnshap_datasets::io::load_class_csv(&spec.train)
                    .map_err(|e| ds(&spec.train, e))?,
                test: knnshap_datasets::io::load_class_csv(&spec.test)
                    .map_err(|e| ds(&spec.test, e))?,
            },
            Task::Reg => JobData::Reg {
                train: knnshap_datasets::io::load_reg_csv(&spec.train)
                    .map_err(|e| ds(&spec.train, e))?,
                test: knnshap_datasets::io::load_reg_csv(&spec.test)
                    .map_err(|e| ds(&spec.test, e))?,
            },
        })
    }

    pub(crate) fn view(&self) -> Data<'_> {
        match self {
            JobData::Class { train, test } => Data::Class { train, test },
            JobData::Reg { train, test } => Data::Reg { train, test },
        }
    }
}

/// Bind `plan`'s estimator to `data` (and an optional precomputed `graph`)
/// and compare the identity re-derived from the files actually read with
/// the plan's. A worker pointed at a drifted CSV (one edited row is enough)
/// refuses to compute instead of publishing partials that would poison the
/// merge; comparing the whole identity also catches a hand-edited plan
/// file. The returned [`Prepared`] builds the Monte Carlo utilities once and
/// reuses them for every chunk the owner computes.
pub fn prepare<'a>(
    plan: &JobPlan,
    data: &'a JobData,
    graph: Option<&'a KnnGraph>,
) -> Result<Prepared<'a>, JobError> {
    let prepared = plan.spec.estimator.prepare(data.view(), graph.into())?;
    let id = prepared.identity();
    if id.fingerprint != plan.fingerprint {
        return Err(JobError::FingerprintMismatch {
            expected: plan.fingerprint,
            found: id.fingerprint,
        });
    }
    if id.kind != plan.kind || id.n_train != plan.n_train || id.total_items != plan.total_items {
        return Err(JobError::Plan(format!(
            "plan disagrees with its spec: derived {} / {} train / {} items, plan says \
             {} / {} train / {} items",
            id.kind.name(),
            id.n_train,
            id.total_items,
            plan.kind.name(),
            plan.n_train,
            plan.total_items,
        )));
    }
    Ok(prepared)
}
