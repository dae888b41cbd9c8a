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
use knnshap_core::estimator::{Estimator, Family, Task};
use knnshap_core::mc::StoppingRule;
use knnshap_core::pipeline::Method;
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

/// Resolves `--method`/`--eps`/`--delta`/`--seed`/`--perms` into a pipeline
/// [`Method`]. The MC methods default to the §6.2.2 heuristic stop; an
/// explicit `--perms N` pins a fixed N-permutation budget instead — the
/// form the sharded runtime requires (a shard cannot evaluate a sequential
/// stopping criterion).
pub(crate) fn parse_method(args: &Args) -> Result<Method, CliError> {
    let eps = args.f64_or("eps", 0.1)?;
    let delta = args.f64_or("delta", 0.1)?;
    let seed = args.u64_or("seed", 42)?;
    let perms = args.usize_or("perms", 0)?;
    let mc_rule = |heuristic_max: usize| match perms {
        0 => StoppingRule::Heuristic {
            threshold: knnshap_core::bounds::heuristic_threshold(eps),
            max: heuristic_max,
        },
        t => StoppingRule::Fixed(t),
    };
    match args.str("method").unwrap_or("exact") {
        "exact" => Ok(Method::Exact),
        "truncated" => Ok(Method::Truncated { eps }),
        "lsh" => Ok(Method::Lsh {
            eps,
            delta,
            max_tables: args.usize_or("max-tables", 64)?,
        }),
        "mc-baseline" => Ok(Method::McBaseline {
            rule: mc_rule(50_000),
            seed,
        }),
        "mc-improved" => Ok(Method::McImproved {
            rule: mc_rule(200_000),
            seed,
        }),
        other => Err(CliError::Invalid(format!(
            "unknown method '{other}' (exact, truncated, lsh, mc-baseline, mc-improved)"
        ))),
    }
}

/// Why `--method lsh` is rejected by every sharded command — the full
/// explanation, not a generic "unsupported" line, because the obvious
/// workaround (build a per-shard index) silently breaks the determinism
/// contract. The planned sharding design for LSH is documented in
/// `docs/sharding.md` ("Why LSH does not shard yet").
pub(crate) const LSH_UNSHARDABLE: &str =
    "the LSH method cannot shard by test range: its index needs whole-test-set \
     statistics (the relative-contrast estimate that picks hash width, table \
     count and probe schedule), so independently built per-shard indexes would \
     answer queries differently and the merged values would not match the \
     unsharded run. Planned design: build the index once, then stream query \
     ranges through OnlineValuator workers — see docs/sharding.md";

/// Resolves `--method`/`--eps`/`--perms`/`--seed`/`--weight` into the
/// shardable [`Estimator`] that `shard`, `merge`, `shard-plan` and
/// `value`/`audit --shards` run. `lsh` is refused with the full
/// explanation, and the estimator's own rules refuse a stochastic family
/// without a fixed budget (`--perms`; `perms_default` where the budget is
/// already pinned, as `merge`'s shard files pin it) before any data is read.
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
            "unknown method '{name}' (exact, truncated, mc-baseline, mc-improved, \
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
            ("lsh", true),
            ("mc-baseline", true),
            ("mc-improved", true),
            ("bogus", false),
        ] {
            let args = Args::parse(["value", "--method", name]).unwrap();
            assert_eq!(parse_method(&args).is_ok(), ok, "{name}");
        }
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
