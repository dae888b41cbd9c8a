//! `knnshap value` — compute per-point values, optionally price them.

use crate::args::Args;
use crate::commands::{load_pair, parse_k, parse_method, parse_weight};
use crate::report::{fmt_f64, Table};
use crate::CliError;
use knnshap_core::analysis::monetary_payout;
use knnshap_core::pipeline::KnnShapley;
use knnshap_core::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_numerics::stats::Summary;
use std::io::Write;
use std::path::Path;

const ALLOWED: &[&str] = &[
    "train",
    "test",
    "k",
    "method",
    "eps",
    "delta",
    "max-tables",
    "weight",
    "weight-param",
    "threads",
    "shards",
    "perms",
    "top",
    "out",
    "revenue",
    "base-fee",
    "seed",
    "graph",
    "adaptive",
];

pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(ALLOWED)?;
    let k = parse_k(args)?;
    let (train, test) = load_pair(args)?;
    let method = parse_method(args)?;
    let weight = parse_weight(args)?;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let top = args.usize_or("top", 10)?;
    let shards = args.usize_or("shards", 0)?;
    let adaptive = args.flag("adaptive");

    let graph = super::load_graph(args, &train.x, &test.x)?;

    let started = std::time::Instant::now();
    let (sv, permutations) = if shards > 0 {
        // In-process sharded run: N partials through the wire format, then
        // the deterministic merge — bitwise-identical to the unsharded path.
        super::shard::run_sharded(
            &train,
            &test,
            k,
            method,
            weight,
            graph.as_ref(),
            shards,
            threads,
        )?
    } else {
        let mut builder = KnnShapley::new(&train, &test)
            .k(k)
            .weight(weight)
            .method(method)
            .threads(threads)
            .adaptive(adaptive);
        if let Some(g) = &graph {
            builder = builder.graph(g);
        }
        let report = builder.run_report()?;
        (report.values, report.permutations)
    };
    let secs = started.elapsed().as_secs_f64();

    // Per-permutation throughput of the (parallel) MC paths — the number to
    // watch when tuning --threads.
    let mc_line =
        permutations.map(|perms| crate::commands::mc_throughput_line(perms, secs, threads));

    let payout = match args.f64_opt("revenue")? {
        Some(revenue) => {
            let base = args.f64_or("base-fee", 0.0)?;
            Some(monetary_payout(&sv, revenue, base))
        }
        None => None,
    };

    if let Some(out) = args.str("out") {
        write_csv(Path::new(out), &train, &sv, payout.as_deref())
            .map_err(knnshap_datasets::io::IoError::Io)?;
    }

    Ok(render(
        &train,
        &test,
        k,
        &sv,
        payout.as_deref(),
        top,
        mc_line.as_deref(),
        args.str("method").unwrap_or("exact"),
        args.str("out"),
    ))
}

pub(crate) fn write_csv(
    path: &Path,
    train: &ClassDataset,
    sv: &ShapleyValues,
    payout: Option<&[f64]>,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    match payout {
        Some(_) => writeln!(w, "index,label,shapley_value,payout")?,
        None => writeln!(w, "index,label,shapley_value")?,
    }
    for i in 0..sv.len() {
        match payout {
            Some(p) => writeln!(w, "{i},{},{},{}", train.y[i], sv.get(i), p[i])?,
            None => writeln!(w, "{i},{},{}", train.y[i], sv.get(i))?,
        }
    }
    w.flush()
}

/// Renders the `value` report. Also used verbatim by `merge`, so a sharded
/// run's report is byte-identical to the unsharded one (for the
/// deterministic methods — the MC throughput line carries wall-clock time).
#[allow(clippy::too_many_arguments)]
pub(crate) fn render(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    sv: &ShapleyValues,
    payout: Option<&[f64]>,
    top: usize,
    mc_line: Option<&str>,
    method_label: &str,
    out_path: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Valued {} training points against {} test points (K = {k}, method = {method_label}).\n",
        train.len(),
        test.len(),
    ));
    if let Some(line) = mc_line {
        out.push_str(line);
    }
    let s = Summary::of(sv.as_slice());
    out.push_str(&format!(
        "total value (= utility of the full set): {}\n\
         per-point: mean {}  std {}  min {}  max {}\n\n",
        fmt_f64(sv.total()),
        fmt_f64(s.mean),
        fmt_f64(s.std_dev),
        fmt_f64(s.min),
        fmt_f64(s.max),
    ));
    if let Some(p) = payout {
        out.push_str(&format!(
            "payout: revenue×value + equal base-fee split; total paid {}\n\n",
            fmt_f64(p.iter().sum::<f64>()),
        ));
    }

    let mut table = Table::new(if payout.is_some() {
        vec!["rank", "index", "label", "value", "payout"]
    } else {
        vec!["rank", "index", "label", "value"]
    });
    let ranking = sv.ranking();
    for (rank, &i) in ranking.iter().take(top).enumerate() {
        let mut row = vec![
            format!("{}", rank + 1),
            format!("{i}"),
            format!("{}", train.y[i]),
            fmt_f64(sv.get(i)),
        ];
        if let Some(p) = payout {
            row.push(fmt_f64(p[i]));
        }
        table.row(row);
    }
    out.push_str(&format!("top {top} most valuable points:\n"));
    out.push_str(&table.render());
    if let Some(path) = out_path {
        out.push_str(&format!("\nfull values written to {path}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::csv_pair;

    fn argv(tpath: &std::path::Path, qpath: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            "value".to_string(),
            "--train".into(),
            tpath.to_str().unwrap().into(),
            "--test".into(),
            qpath.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn exact_value_report_contains_summary_and_top_table() {
        let (t, q) = csv_pair("value-exact", 60, 8);
        let out = crate::run(argv(&t, &q, &["--k", "3"])).unwrap();
        assert!(out.contains("Valued 60 training points"));
        assert!(out.contains("total value"));
        assert!(out.contains("rank  index  label  value"));
    }

    #[test]
    fn revenue_adds_payout_column_and_conserves_money() {
        let (t, q) = csv_pair("value-pay", 40, 5);
        let out = crate::run(argv(&t, &q, &["--revenue", "1000", "--base-fee", "100"])).unwrap();
        assert!(out.contains("payout"));
        assert!(out.contains("total paid"));
    }

    #[test]
    fn out_writes_csv_with_header() {
        let (t, q) = csv_pair("value-out", 30, 4);
        let out_path =
            std::env::temp_dir().join(format!("knnshap-cli-{}-values.csv", std::process::id()));
        crate::run(argv(&t, &q, &["--out", out_path.to_str().unwrap()])).unwrap();
        let contents = std::fs::read_to_string(&out_path).unwrap();
        let mut lines = contents.lines();
        assert_eq!(lines.next().unwrap(), "index,label,shapley_value");
        assert_eq!(contents.lines().count(), 31);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn truncated_and_mc_methods_run_end_to_end() {
        let (t, q) = csv_pair("value-methods", 50, 5);
        for m in ["truncated", "mc-improved"] {
            let out = crate::run(argv(&t, &q, &["--method", m, "--eps", "0.2"])).unwrap();
            assert!(out.contains("total value"), "{m}");
        }
    }

    #[test]
    fn mc_methods_report_permutation_throughput() {
        let (t, q) = csv_pair("value-mc-tput", 40, 4);
        for m in ["mc-baseline", "mc-improved"] {
            let out = crate::run(argv(
                &t,
                &q,
                &["--method", m, "--eps", "0.3", "--threads", "2"],
            ))
            .unwrap();
            assert!(out.contains("permutations/s"), "{m}: {out}");
            assert!(out.contains("threads = 2"), "{m}");
        }
        // Deterministic methods stay silent about permutations.
        let out = crate::run(argv(&t, &q, &["--method", "exact"])).unwrap();
        assert!(!out.contains("permutations/s"));
    }

    #[test]
    fn adaptive_flag_is_bitwise_identical_to_static() {
        let (t, q) = csv_pair("value-adaptive", 50, 5);
        let mut csvs = Vec::new();
        for variant in [&["--method", "mc-improved", "--eps", "0.25"][..], {
            &["--method", "mc-improved", "--eps", "0.25", "--adaptive"][..]
        }] {
            let out_path = std::env::temp_dir().join(format!(
                "knnshap-cli-{}-adaptive-{}.csv",
                std::process::id(),
                csvs.len()
            ));
            let mut extra: Vec<&str> = variant.to_vec();
            let path_str = out_path.to_str().unwrap().to_string();
            extra.push("--out");
            extra.push(&path_str);
            crate::run(argv(&t, &q, &extra)).unwrap();
            csvs.push(std::fs::read_to_string(&out_path).unwrap());
            std::fs::remove_file(&out_path).ok();
        }
        assert_eq!(csvs[0], csvs[1], "adaptive scheduling changed the values");
    }

    #[test]
    fn typo_in_option_is_rejected() {
        let (t, q) = csv_pair("value-typo", 20, 3);
        let err = crate::run(argv(&t, &q, &["--kay", "3"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = crate::run([
            "value",
            "--train",
            "/nonexistent/knnshap.csv",
            "--test",
            "/nonexistent/knnshap.csv",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
