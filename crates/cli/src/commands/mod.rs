//! One module per subcommand; each exposes `run(&Args) -> Result<String, CliError>`.

pub mod audit;
pub mod contrast;
pub mod graph;
pub mod job;
pub mod serve;
pub mod shard;
pub mod synth;
pub mod value;
pub mod watch;

use crate::args::{ArgError, Args};
use crate::CliError;
use knnshap_core::estimator::{Data, Estimator, Family, Task, Valuation};
use knnshap_core::lsh_approx::{lsh_class_shapley_planned, LSH_UNSHARDABLE};
use knnshap_core::schedule::Schedule;
use knnshap_datasets::ClassDataset;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;
use std::path::Path;

/// Resolves `--k` (default 1), refusing K = 0 — it has no neighbors to
/// value. Every command taking `--k` calls this before reading any dataset,
/// so the refusal is an argument error rather than a panic deep in an
/// estimator.
pub(crate) fn parse_k(args: &Args) -> Result<usize, CliError> {
    match args.usize_or("k", 1)? {
        0 => Err(ArgError::BadValue {
            key: "k".into(),
            value: "0".into(),
            expected: "a positive integer",
        }
        .into()),
        k => Ok(k),
    }
}

/// Loads the `--train`/`--test` CSV pair shared by value/audit/contrast.
pub(crate) fn load_pair(args: &Args) -> Result<(ClassDataset, ClassDataset), CliError> {
    let train = knnshap_datasets::io::load_class_csv(Path::new(args.require("train")?))?;
    let test = knnshap_datasets::io::load_class_csv(Path::new(args.require("test")?))?;
    if train.dim() != test.dim() {
        return Err(CliError::Invalid(format!(
            "train has {} features but test has {}",
            train.dim(),
            test.dim()
        )));
    }
    Ok((train, test))
}

/// Resolves `--method`/`--eps`/`--perms`/`--seed`/`--weight` into the
/// [`Estimator`] every valuing command runs: `value`/`audit` unsharded or
/// with `--shards`, `shard`, `merge`, `shard-plan`. The Monte Carlo
/// families stop by the §6.2.2 heuristic unless `--perms N` pins a fixed
/// budget (`perms_default` where the budget is already pinned, as
/// `merge`'s shard files pin it). `lsh` is refused with the full
/// explanation of why it cannot shard — `value`/`audit` run it through
/// [`valuation`] before reaching this parser — and the estimator's own
/// rules refuse out-of-range parameters before any data is read; the
/// sharding rules (a fixed budget among them) apply when a job is prepared.
pub(crate) fn parse_estimator(
    args: &Args,
    task: Task,
    k: usize,
    perms_default: usize,
) -> Result<Estimator, CliError> {
    let name = args.str("method").unwrap_or("exact");
    if name == "lsh" {
        return Err(CliError::Invalid(LSH_UNSHARDABLE.into()));
    }
    let eps = args.f64_or("eps", 0.1)?;
    let perms = args.usize_or("perms", perms_default)?;
    let family = Family::from_parts(name, eps, perms).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown method '{name}' (exact, truncated, lsh, mc-baseline, mc-improved, \
             group-testing)"
        ))
    })?;
    let estimator = Estimator {
        task,
        k,
        weight: parse_weight(args)?,
        family,
        seed: args.u64_or("seed", 42)?,
    };
    estimator.check()?;
    Ok(estimator)
}

/// The valuation `value` and `audit` report: `--method lsh` through the
/// planned LSH entry (which shards nowhere and does its own retrieval),
/// every other method through [`parse_estimator`] — unsharded via
/// `Estimator::run` (`--adaptive` picks the measured schedule), or with
/// `--shards N` through the in-process shard/merge round trip.
pub(crate) fn valuation(
    args: &Args,
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    threads: usize,
) -> Result<Valuation, CliError> {
    let shards = args.usize_or("shards", 0)?;
    let graph = load_graph(args, &train.x, &test.x)?;
    if args.str("method") == Some("lsh") {
        let refuse = |m: &str| Err(CliError::Invalid(m.into()));
        if shards > 0 {
            return refuse(LSH_UNSHARDABLE);
        }
        if graph.is_some() {
            return refuse("lsh performs its own retrieval and cannot use --graph");
        }
        if parse_weight(args)? != WeightFn::Uniform {
            return refuse("lsh supports uniform weights only");
        }
        let eps = args.f64_or("eps", 0.1)?;
        let delta = args.f64_or("delta", 0.1)?;
        let max_tables = args.usize_or("max-tables", 64)?;
        let sv = lsh_class_shapley_planned(train, test, k, eps, delta, max_tables)?;
        return Ok(sv.into());
    }
    let estimator = parse_estimator(args, Task::Class, k, 0)?;
    if shards > 0 {
        return shard::run_sharded(train, test, estimator, graph.as_ref(), shards, threads);
    }
    let schedule = if args.flag("adaptive") {
        Schedule::Measured
    } else {
        Schedule::Static
    };
    let data = Data::Class { train, test };
    Ok(estimator.run(data, graph.as_ref().into(), threads, schedule)?)
}

/// The per-permutation throughput line the MC paths of `value` and `audit`
/// both print: permutations consumed, wall-clock, permutations/s, threads.
pub(crate) fn mc_throughput_line(permutations: usize, secs: f64, threads: usize) -> String {
    format!(
        "monte carlo: {permutations} permutations in {secs:.3} s \
         ({:.1} permutations/s, threads = {threads})\n",
        permutations as f64 / secs.max(1e-9),
    )
}

/// Loads the optional `--graph FILE` artifact (`knnshap build-graph`) and
/// fingerprint-checks it against the datasets it is about to value, so a
/// graph built from drifted CSVs is refused up front with a CLI error
/// instead of a panic deep inside an estimator.
pub(crate) fn load_graph(
    args: &Args,
    train: &knnshap_datasets::Features,
    test: &knnshap_datasets::Features,
) -> Result<Option<KnnGraph>, CliError> {
    let Some(path) = args.str("graph") else {
        return Ok(None);
    };
    let graph =
        KnnGraph::load(Path::new(path)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    graph
        .validate_against(train, test)
        .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    Ok(Some(graph))
}

/// Resolves `--weight`/`--weight-param` into a [`WeightFn`].
pub(crate) fn parse_weight(args: &Args) -> Result<WeightFn, CliError> {
    match args.str("weight").unwrap_or("uniform") {
        "uniform" => Ok(WeightFn::Uniform),
        "inverse" => Ok(WeightFn::InverseDistance {
            eps: args.f64_or("weight-param", 1e-3)? as f32,
        }),
        "exponential" => Ok(WeightFn::Exponential {
            beta: args.f64_or("weight-param", 1.0)? as f32,
        }),
        other => Err(CliError::Invalid(format!(
            "unknown weight '{other}' (uniform, inverse, exponential)"
        ))),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use std::path::PathBuf;

    /// Writes a small train/test CSV pair into the temp dir; returns paths.
    pub fn csv_pair(tag: &str, n: usize, n_test: usize) -> (PathBuf, PathBuf) {
        let cfg = BlobConfig {
            n,
            dim: 4,
            n_classes: 2,
            cluster_std: 0.5,
            center_scale: 3.0,
            seed: 11,
        };
        let train = blobs::generate(&cfg);
        let test = blobs::queries(&cfg, n_test, 23);
        let dir = std::env::temp_dir();
        let tpath = dir.join(format!(
            "knnshap-cli-{}-{tag}-train.csv",
            std::process::id()
        ));
        let qpath = dir.join(format!("knnshap-cli-{}-{tag}-test.csv", std::process::id()));
        knnshap_datasets::io::save_class_csv(&tpath, &train).unwrap();
        knnshap_datasets::io::save_class_csv(&qpath, &test).unwrap();
        (tpath, qpath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parsing_covers_all_variants() {
        for (name, ok) in [
            ("exact", true),
            ("truncated", true),
            ("mc-baseline", true),
            ("mc-improved", true),
            ("group-testing", false), // no --perms: no test budget
            ("lsh", false),           // every estimator shards; lsh does not
            ("bogus", false),
        ] {
            let args = Args::parse(["value", "--method", name]).unwrap();
            assert_eq!(
                parse_estimator(&args, Task::Class, 1, 0).is_ok(),
                ok,
                "{name}"
            );
        }
        let args = Args::parse(["value", "--method", "group-testing", "--perms", "9"]).unwrap();
        assert!(parse_estimator(&args, Task::Class, 1, 0).is_ok());
    }

    #[test]
    fn weight_parsing_covers_all_variants() {
        let args = Args::parse(["value", "--weight", "inverse", "--weight-param", "0.01"]).unwrap();
        assert!(matches!(
            parse_weight(&args).unwrap(),
            WeightFn::InverseDistance { .. }
        ));
        let args = Args::parse(["value", "--weight", "nope"]).unwrap();
        assert!(parse_weight(&args).is_err());
        let args = Args::parse(["value"]).unwrap();
        assert!(matches!(parse_weight(&args).unwrap(), WeightFn::Uniform));
    }

    #[test]
    fn load_pair_validates_dimensions() {
        let (tpath, _) = testutil::csv_pair("dim-a", 20, 5);
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("knnshap-cli-{}-dim-bad.csv", std::process::id()));
        std::fs::write(&bad, "1.0,2.0,0\n3.0,4.0,1\n").unwrap();
        let args = Args::parse([
            "value",
            "--train",
            tpath.to_str().unwrap(),
            "--test",
            bad.to_str().unwrap(),
        ])
        .unwrap();
        let err = load_pair(&args).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        std::fs::remove_file(&bad).ok();
    }
}
