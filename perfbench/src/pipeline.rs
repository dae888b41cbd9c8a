//! The traced re-enactment of `knnshap value --method exact`: the same
//! layer functions the binary calls, in the same order, with a span around
//! each. Its output must equal the binary's bit for bit, which is checked,
//! so the stage split describes the computation the binary really does.

use crate::trace::{self_times, Span, Tracer};
use crate::verify::values_csv;
use knnshap_core::exact_unweighted::theorem1_recurrence;
use knnshap_datasets::io::load_class_csv;
use knnshap_knn::block::blocked_squared_l2;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::argsort_by_distance;
use knnshap_numerics::exact::ExactVec;
use std::path::Path;

/// Seconds per stage of one traced run. Stages that run on the worker
/// blocks report busy seconds divided by the block count, so the stages add
/// up to the run's wall time.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub parse_s: f64,
    pub parse_bytes: u64,
    pub rank_s: f64,
    pub recurrence_s: f64,
    pub fold_s: f64,
    pub write_s: f64,
    /// The root span: the whole traced run.
    pub total_s: f64,
    /// `blocked_squared_l2` over the same pairs, timed apart from the run.
    pub distance_s: f64,
    pub pairs: u64,
    pub dim: usize,
}

impl Stages {
    pub fn stage_sum(&self) -> f64 {
        self.parse_s + self.rank_s + self.recurrence_s + self.fold_s + self.write_s
    }
}

/// Spans under `root`, `root` included.
fn subtree(spans: &[Span], root: usize) -> Vec<Span> {
    let mut keep = vec![false; spans.len()];
    for s in spans {
        keep[s.id] = s.id == root || s.parent.is_some_and(|p| keep[p]);
    }
    spans.iter().filter(|s| keep[s.id]).cloned().collect()
}

/// Runs the traced pipeline once under a root span named `run`, writing the
/// values CSV to `out`. Returns the stage split and the CSV bytes.
pub fn exact_traced(
    tr: &Tracer,
    train_path: &Path,
    test_path: &Path,
    k: usize,
    threads: usize,
    out: &Path,
) -> Result<(Stages, Vec<u8>), String> {
    let (root, csv, blocks, train, test) = tr.span("run", None, |root| -> Result<_, String> {
        let (train, test) = tr.span("datasets.parse", Some(root), |_| {
            let load = |p: &Path| load_class_csv(p).map_err(|e| format!("{}: {e}", p.display()));
            Ok::<_, String>((load(train_path)?, load(test_path)?))
        })?;
        let (n, m) = (train.len(), test.len());
        let blocks = threads.clamp(1, m);
        let sums: Vec<ExactVec> = knnshap_parallel::par_map(blocks, threads, |b| {
            tr.span("block", Some(root), |block| {
                let mut acc = ExactVec::zeros(n);
                let mut scratch = vec![0.0f64; n];
                for j in b * m / blocks..(b + 1) * m / blocks {
                    let ranked = tr.span("knn.rank", Some(block), |_| {
                        argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2)
                    });
                    tr.span("core.recurrence", Some(block), |_| {
                        theorem1_recurrence(
                            n,
                            k,
                            |r| f64::from(train.y[ranked[r].index as usize] == test.y[j]),
                            |r, s| scratch[ranked[r].index as usize] = s,
                        )
                    });
                    tr.span("numerics.fold", Some(block), |_| acc.add_dense(&scratch));
                }
                acc
            })
        });
        let total = tr.span("numerics.merge", Some(root), |_| {
            let mut it = sums.into_iter();
            let mut total = it.next().expect("at least one block");
            for part in it {
                total.merge(&part);
            }
            total
        });
        let csv = tr.span("cli.write", Some(root), |_| {
            let values: Vec<f64> = (0..n).map(|i| total.value(i) / m as f64).collect();
            let csv = values_csv(&train.y, &values);
            std::fs::write(out, &csv)
                .map(|_| csv)
                .map_err(|e| format!("{}: {e}", out.display()))
        })?;
        Ok((root, csv, blocks, train, test))
    })?;
    let distance_s = tr.span("knn.distance", None, |_| {
        let t = std::time::Instant::now();
        std::hint::black_box(blocked_squared_l2(&train.x, &test.x, threads));
        t.elapsed().as_secs_f64()
    });

    let spans = subtree(&tr.spans(), root);
    let own = self_times(&spans);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let per_block = |name: &str| get(name) / blocks as f64;
    let stages = Stages {
        parse_s: get("datasets.parse"),
        parse_bytes: file_len(train_path) + file_len(test_path),
        rank_s: per_block("knn.rank"),
        recurrence_s: per_block("core.recurrence"),
        fold_s: per_block("numerics.fold") + get("numerics.merge"),
        write_s: get("cli.write"),
        total_s: spans[0].end - spans[0].start,
        distance_s,
        pairs: (train.len() * test.len()) as u64,
        dim: train.dim(),
    };
    Ok((stages, csv))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}
