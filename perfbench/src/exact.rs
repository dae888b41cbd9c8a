//! `exact_value`: `knnshap value --method exact` at the paper's regime,
//! CSV in to CSV out. Parse, argsort and the exact fold do nearly all the
//! work; the Monte Carlo code never runs.

use crate::pipeline::{exact_traced, Stages};
use crate::report::Report;
use crate::stats::median;
use crate::verify::{efficiency, same_bytes, values_csv};
use crate::{gen, proc, Ctx, SETUPS};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_core::utility::{KnnClassUtility, Utility};
use knnshap_datasets::ClassDataset;
use std::time::Instant;

pub const N_TRAIN: usize = 200_000;
pub const N_TEST: usize = 64;
pub const DIM: usize = 32;
pub const CLASSES: usize = 4;
pub const K: usize = 5;
/// An invocation slower than this misses `goodput_frac`.
const LIMIT_S: f64 = 20.0;

/// Generates the seed's train/test pair and writes `train.csv`, `test.csv`
/// and `probe.csv`, the first test point alone.
pub fn write_inputs(ctx: &Ctx) -> Result<(ClassDataset, ClassDataset), String> {
    let (train, test, _) = gen::pair(ctx.seed, N_TRAIN, N_TEST, DIM, CLASSES);
    write_csvs(ctx, &train, &test)?;
    Ok((train, test))
}

/// Writes a batch workload's CSVs. Valuing `probe.csv` is the batch
/// set-up: parse the training set, rank it once and write every value,
/// the work a `value` run does before its per-test-point work, as the
/// daemon's load is before its first answer.
pub fn write_csvs(ctx: &Ctx, train: &ClassDataset, test: &ClassDataset) -> Result<(), String> {
    for (name, d) in [
        ("train.csv", train),
        ("test.csv", test),
        ("probe.csv", &test.gather(&[0])),
    ] {
        std::fs::write(ctx.path(name), gen::csv(d)).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// The reference output: a single-thread in-process run, checked against
/// the efficiency axiom.
fn reference(train: &ClassDataset, test: &ClassDataset) -> Result<Vec<u8>, String> {
    let sv = knn_class_shapley_with_threads(train, test, K, 1);
    let grand = KnnClassUtility::unweighted(train, test, K).grand();
    efficiency(sv.total(), grand).map_err(|e| format!("reference: {e}"))?;
    Ok(values_csv(&train.y, sv.as_slice()))
}

/// One `value` invocation against test file `test`, checked against
/// `want`: its seconds.
fn invoke(ctx: &Ctx, test: &str, want: &[u8]) -> Result<f64, String> {
    let (threads, k) = (ctx.threads.to_string(), K.to_string());
    let (train, test, out) = (
        ctx.path_str("train.csv"),
        ctx.path_str(test),
        ctx.path_str("values.csv"),
    );
    let (secs, _) = proc::run_timed(&mut proc::knnshap(&[
        "value",
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        &k,
        "--method",
        "exact",
        "--threads",
        &threads,
        "--out",
        &out,
    ]))?;
    let got = std::fs::read(&out).map_err(|e| format!("{out}: {e}"))?;
    same_bytes("value --method exact", &got, want)?;
    Ok(secs)
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let Some((train, test)) = rep.attempt(write_inputs(ctx)) else {
        return;
    };
    let Some(want) = rep.attempt(reference(&train, &test)) else {
        return;
    };
    let Some(probe) = rep.attempt(reference(&train, &test.gather(&[0]))) else {
        return;
    };
    drop((train, test));
    let setup: Vec<f64> = (0..SETUPS)
        .filter_map(|_| rep.attempt(invoke(ctx, "probe.csv", &probe)))
        .collect();
    rep.set("setup_s", median(&setup), "s", setup.len());
    let mut wall = Vec::new();
    let mut attempts = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        attempts += 1;
        wall.extend(rep.attempt(invoke(ctx, "test.csv", &want)));
    }
    rep.set(
        "peak_rss_mb",
        proc::children_peak_rss_mb(),
        "MB",
        setup.len() + wall.len(),
    );
    let within = wall.iter().filter(|&&s| s <= LIMIT_S).count();
    rep.set(
        "goodput_frac",
        within as f64 / attempts.max(1) as f64,
        "frac",
        attempts,
    );
    if wall.is_empty() {
        return;
    }
    let wall_s = median(&wall);
    rep.set("wall_s", wall_s, "s", wall.len());
    rep.set(
        "pairs_per_s",
        (N_TRAIN * N_TEST) as f64 / wall_s,
        "1/s",
        wall.len(),
    );
    if ctx.trace {
        traced(ctx, rep, &want, wall_s);
    }
}

/// Repeats the traced pipeline (at least twice, for half the run's
/// seconds) and reports the median of each stage.
pub fn traced_stages(ctx: &Ctx, rep: &mut Report, want: &[u8]) -> Option<Stages> {
    let out = ctx.path("traced.csv");
    let (train, test) = (ctx.path("train.csv"), ctx.path("test.csv"));
    let probe = knnshap_obs::metrics::snapshot();
    let mut runs: Vec<Stages> = Vec::new();
    let start = Instant::now();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let r = exact_traced(&ctx.tracer, &train, &test, K, ctx.threads, &out)
            .and_then(|(st, csv)| same_bytes("traced exact pipeline", &csv, want).map(|_| st));
        runs.push(rep.attempt(r)?);
    }
    set_parallel(rep, &probe);
    let med = |f: fn(&Stages) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let n = runs.len();
    let s = &runs[0];
    let st = Stages {
        parse_s: med(|s| s.parse_s),
        rank_s: med(|s| s.rank_s),
        recurrence_s: med(|s| s.recurrence_s),
        fold_s: med(|s| s.fold_s),
        write_s: med(|s| s.write_s),
        total_s: med(|s| s.total_s),
        distance_s: med(|s| s.distance_s),
        ..s.clone()
    };
    rep.set("datasets.parse_s", st.parse_s, "s", n);
    rep.set(
        "datasets.parse_mb_per_s",
        st.parse_bytes as f64 / 1e6 / st.parse_s,
        "MB/s",
        n,
    );
    rep.set("knn.rank_s", st.rank_s, "s", n);
    rep.set("knn.distance_s", st.distance_s, "s", n);
    rep.set("knn.sort_s", st.rank_s - st.distance_s, "s", n);
    let flops = st.pairs as f64 * st.dim as f64 * 3.0;
    rep.set(
        "knn.distance_gflop_per_s",
        flops / st.distance_s / 1e9,
        "GFLOP/s",
        n,
    );
    rep.set("core.recurrence_s", st.recurrence_s, "s", n);
    rep.set("numerics.fold_s", st.fold_s, "s", n);
    rep.set("numerics.deposits", st.pairs as f64, "count", n);
    rep.set("cli.write_s", st.write_s, "s", n);
    Some(st)
}

/// Pool counters since `before`, from the public `knnshap_obs` registry.
pub fn set_parallel(rep: &mut Report, before: &knnshap_obs::metrics::MetricsSnapshot) {
    let after = knnshap_obs::metrics::snapshot();
    let d = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let capacity = d("pool.capacity_micros");
    let utilization = if capacity > 0.0 {
        d("pool.busy_micros") / capacity
    } else {
        0.0
    };
    rep.set("parallel.utilization", utilization, "frac", 1);
    rep.set("parallel.steals", d("pool.steals"), "count", 1);
}

fn traced(ctx: &Ctx, rep: &mut Report, want: &[u8], wall_s: f64) {
    let Some(st) = traced_stages(ctx, rep, want) else {
        return;
    };
    rep.set("cli.unattributed_s", wall_s - st.stage_sum(), "s", 1);
    rep.set("trace.overhead_s", st.total_s - wall_s, "s", 1);
}
