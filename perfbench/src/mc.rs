//! `mc_value`: `knnshap value --method mc-improved` with a fixed
//! permutation budget, the paper's baseline family. The MC estimator, the
//! pool and the scheduler do the work; parse and argsort are small.

use crate::exact::{set_parallel, write_csvs};
use crate::report::Report;
use crate::stats::median;
use crate::verify::{same_bytes, values_csv};
use crate::{gen, proc, Ctx, SETUPS};
use knnshap_core::mc::{mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule};
use knnshap_datasets::io::load_class_csv;
use knnshap_knn::weights::WeightFn;
use std::time::Instant;

const N_TRAIN: usize = 20_000;
const N_TEST: usize = 32;
const DIM: usize = 32;
const CLASSES: usize = 4;
const K: usize = 5;
const PERMS: usize = 400;
/// An invocation slower than this misses `goodput_frac`.
const LIMIT_S: f64 = 20.0;

fn mc_seed(seed: u64) -> u64 {
    gen::Rng::derive(seed, 2).next_u64() >> 1
}

/// One `value` invocation against test file `test` with `threads`
/// workers: its seconds and CSV.
fn invoke(ctx: &Ctx, test: &str, threads: usize, out: &str) -> Result<(f64, Vec<u8>), String> {
    let (train, test) = (ctx.path_str("train.csv"), ctx.path_str(test));
    let (k, perms, seed, threads) = (
        K.to_string(),
        PERMS.to_string(),
        mc_seed(ctx.seed).to_string(),
        threads.to_string(),
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
        "mc-improved",
        "--perms",
        &perms,
        "--seed",
        &seed,
        "--threads",
        &threads,
        "--out",
        out,
    ]))?;
    let csv = std::fs::read(out).map_err(|e| format!("{out}: {e}"))?;
    Ok((secs, csv))
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let (train, test, _) = gen::pair(ctx.seed, N_TRAIN, N_TEST, DIM, CLASSES);
    if rep.attempt(write_csvs(ctx, &train, &test)).is_none() {
        return;
    }
    let out = ctx.path_str("values.csv");
    let setup: Vec<_> = (0..SETUPS)
        .map(|_| invoke(ctx, "probe.csv", ctx.threads, &out))
        .collect();
    let mut wall = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        wall.push(invoke(ctx, "test.csv", ctx.threads, &out));
    }
    // Read before the reference runs, which are not part of the workload.
    rep.set(
        "peak_rss_mb",
        proc::children_peak_rss_mb(),
        "MB",
        setup.len() + wall.len(),
    );

    // The references: the same seed at one thread.
    let mut reference =
        |test: &str| rep.attempt(invoke(ctx, test, 1, &ctx.path_str("reference.csv")));
    let (Some((_, probe)), Some((_, want))) = (reference("probe.csv"), reference("test.csv"))
    else {
        return;
    };
    let mut check = |runs: Vec<Result<(f64, Vec<u8>), String>>, want: &[u8]| -> Vec<f64> {
        let checked = runs.into_iter().map(|r| {
            r.and_then(|(secs, csv)| {
                same_bytes("value --method mc-improved", &csv, want).map(|_| secs)
            })
        });
        checked.filter_map(|r| rep.attempt(r)).collect()
    };
    let setup = check(setup, &probe);
    let attempts = wall.len();
    let wall = check(wall, &want);
    rep.set("setup_s", median(&setup), "s", setup.len());
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
    rep.set("perms_per_s", PERMS as f64 / wall_s, "1/s", wall.len());
    if ctx.trace {
        traced(ctx, rep, &want, wall_s);
    }
}

/// Seconds of each stage of one traced in-process run.
struct McStages {
    parse_s: f64,
    distance_s: f64,
    mc_s: f64,
    write_s: f64,
    total_s: f64,
    perms: u64,
}

/// Runs `f` under a span named `name`: its result and seconds.
fn stage<R>(ctx: &Ctx, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = ctx.tracer.span(name, Some(parent), |_| f());
    (r, t.elapsed().as_secs_f64())
}

fn traced_once(ctx: &Ctx, want: &[u8]) -> Result<McStages, String> {
    let before = knnshap_obs::metrics::snapshot();
    let t0 = Instant::now();
    let (parse_s, distance_s, mc_s, write_s) = ctx.tracer.span("run", None, |root| {
        let load = |n: &str| load_class_csv(&ctx.path(n)).map_err(|e| format!("{n}: {e}"));
        let (data, parse_s) = stage(ctx, "datasets.parse", root, || {
            Ok::<_, String>((load("train.csv")?, load("test.csv")?))
        });
        let (train, test) = data?;
        let (inc, distance_s) = stage(ctx, "knn.distance", root, || {
            IncKnnUtility::classification(&train, &test, K, WeightFn::Uniform)
        });
        let (res, mc_s) = stage(ctx, "core.mc", root, || {
            let rule = StoppingRule::Fixed(PERMS);
            mc_shapley_improved_with_threads(&inc, rule, mc_seed(ctx.seed), None, ctx.threads)
        });
        let out = ctx.path("traced.csv");
        let csv = values_csv(&train.y, res.values.as_slice());
        let (written, write_s) = stage(ctx, "cli.write", root, || std::fs::write(&out, &csv));
        written.map_err(|e| format!("{}: {e}", out.display()))?;
        same_bytes("traced mc pipeline", &csv, want)?;
        Ok::<_, String>((parse_s, distance_s, mc_s, write_s))
    })?;
    let total_s = t0.elapsed().as_secs_f64();
    let after = knnshap_obs::metrics::snapshot();
    let perms = after.counter("mc.perms").unwrap_or(0) - before.counter("mc.perms").unwrap_or(0);
    Ok(McStages {
        parse_s,
        distance_s,
        mc_s,
        write_s,
        total_s,
        perms,
    })
}

fn traced(ctx: &Ctx, rep: &mut Report, want: &[u8], wall_s: f64) {
    let probe = knnshap_obs::metrics::snapshot();
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        match rep.attempt(traced_once(ctx, want)) {
            Some(r) => runs.push(r),
            None => return,
        }
    }
    set_parallel(rep, &probe);
    let n = runs.len();
    let med = |f: fn(&McStages) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let (parse_s, distance_s, mc_s, write_s, total_s) = (
        med(|s| s.parse_s),
        med(|s| s.distance_s),
        med(|s| s.mc_s),
        med(|s| s.write_s),
        med(|s| s.total_s),
    );
    let bytes = ["train.csv", "test.csv"]
        .iter()
        .map(|f| std::fs::metadata(ctx.path(f)).map_or(0, |m| m.len()))
        .sum::<u64>();
    rep.set("datasets.parse_s", parse_s, "s", n);
    rep.set(
        "datasets.parse_mb_per_s",
        bytes as f64 / 1e6 / parse_s,
        "MB/s",
        n,
    );
    rep.set("knn.distance_s", distance_s, "s", n);
    let flops = (N_TRAIN * N_TEST * DIM * 3) as f64;
    rep.set(
        "knn.distance_gflop_per_s",
        flops / distance_s / 1e9,
        "GFLOP/s",
        n,
    );
    rep.set("core.mc_s", mc_s, "s", n);
    rep.set("core.mc.perms", runs[0].perms as f64, "count", n);
    rep.set("cli.write_s", write_s, "s", n);
    rep.set(
        "cli.unattributed_s",
        wall_s - (parse_s + distance_s + mc_s + write_s),
        "s",
        1,
    );
    rep.set("trace.overhead_s", total_s - wall_s, "s", 1);
}
