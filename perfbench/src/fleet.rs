//! `fleet_job`: `knnshap shard-plan` (the set-up) then `knnshap run-job`
//! with two single-thread worker processes on the `exact_value` inputs.
//! Spawn, per-worker load, chunk checkpoints, leases and the merge are the
//! fleet overhead on top of the same exact computation.

use crate::exact::{self, K};
use crate::report::Report;
use crate::stats::median;
use crate::verify::same_bytes;
use crate::{proc, Ctx, SETUPS};
use knnshap_core::sharding::{merge_partials, ShardPartial};
use std::time::{Instant, SystemTime};

const SHARDS: usize = 4;
const WORKERS: usize = 2;
/// A job slower than this misses `goodput_frac`.
const LIMIT_S: f64 = 40.0;

fn plan(ctx: &Ctx, job: &str) -> Result<f64, String> {
    let (train, test) = (ctx.path_str("train.csv"), ctx.path_str("test.csv"));
    let (k, shards) = (K.to_string(), SHARDS.to_string());
    proc::run_timed(&mut proc::knnshap(&[
        "shard-plan",
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        &k,
        "--method",
        "exact",
        "--shards",
        &shards,
        "--job",
        job,
    ]))
    .map(|(secs, _)| secs)
}

/// One finished job: its seconds, merged CSV and wall-clock start (epoch
/// seconds, the clock of the job's `events.jsonl`).
struct Job {
    dir: String,
    secs: f64,
    started: f64,
    csv: Vec<u8>,
}

fn run_job(job: &str, out: &str, env: &[(&str, String)]) -> Result<Job, String> {
    let workers = WORKERS.to_string();
    let mut cmd = proc::knnshap(&[
        "run-job",
        "--job",
        job,
        "--workers",
        &workers,
        "--threads",
        "1",
        "--out",
        out,
    ]);
    cmd.envs(env.iter().map(|(k, v)| (k, v)));
    let started = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let (secs, _) = proc::run_timed(&mut cmd)?;
    let csv = std::fs::read(out).map_err(|e| format!("{out}: {e}"))?;
    Ok(Job {
        dir: job.to_string(),
        secs,
        started,
        csv,
    })
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let Some((train, _)) = rep.attempt(exact::write_inputs(ctx)) else {
        return;
    };
    let job = |i: usize| ctx.path_str(&format!("job{i}"));
    let mut setup: Vec<f64> = (0..SETUPS)
        .filter_map(|i| rep.attempt(plan(ctx, &job(i))))
        .collect();
    let mut jobs = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let i = jobs.len();
        if i >= SETUPS {
            setup.extend(rep.attempt(plan(ctx, &job(i))));
        }
        jobs.push(run_job(
            &job(i),
            &ctx.path_str(&format!("merged{i}.csv")),
            &[],
        ));
    }
    rep.set("setup_s", median(&setup), "s", setup.len());
    rep.set("runtime.plan_s", median(&setup), "s", setup.len());
    rep.set(
        "peak_rss_mb",
        proc::children_peak_rss_mb(),
        "MB",
        setup.len() + jobs.len(),
    );

    // The reference: the exact_value workload's own output for these inputs.
    let reference = {
        let (train, test) = (ctx.path_str("train.csv"), ctx.path_str("test.csv"));
        let (out, threads, k) = (
            ctx.path_str("reference.csv"),
            ctx.threads.to_string(),
            K.to_string(),
        );
        proc::run_timed(&mut proc::knnshap(&[
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
        ]))
        .and_then(|_| std::fs::read(&out).map_err(|e| format!("{out}: {e}")))
    };
    let Some(want) = rep.attempt(reference) else {
        return;
    };
    let attempts = jobs.len();
    let jobs: Vec<Job> = jobs
        .into_iter()
        .map(|j| j.and_then(|j| same_bytes("run-job merged output", &j.csv, &want).map(|_| j)))
        .filter_map(|j| rep.attempt(j))
        .collect();
    let wall: Vec<f64> = jobs.iter().map(|j| j.secs).collect();
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
    let pairs = (exact::N_TRAIN * exact::N_TEST) as f64;
    rep.set("pairs_per_s", pairs / wall_s, "1/s", wall.len());
    if ctx.trace {
        traced(ctx, rep, &want, &train.y, &jobs, wall_s);
    }
}

/// One `events.jsonl` line: event name, timestamp, shard.
fn events(dir: &str) -> Result<Vec<(String, f64, Option<u64>)>, String> {
    let path = format!("{dir}/events.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .map(|line| {
            let v = knnshap_obs::json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let ev = v
                .get("ev")
                .and_then(|e| e.as_str())
                .ok_or(format!("{path}: no ev"))?;
            let ts = v
                .get("ts")
                .and_then(|t| t.as_f64())
                .ok_or(format!("{path}: no ts"))?;
            let shard = v.get("shard").and_then(|s| s.as_f64()).map(|s| s as u64);
            Ok((ev.to_string(), ts, shard))
        })
        .collect()
}

/// Runtime stage split of one job from its event stream: first claim after
/// the start, per-chunk seconds, and when the job finished.
struct Timeline {
    first_claim_s: f64,
    chunk_s: Vec<f64>,
    done_s: f64,
    last_shard_s: f64,
    spawned: usize,
    reassigned: usize,
}

fn timeline(job: &Job) -> Result<Timeline, String> {
    let evs = events(&job.dir)?;
    let at = |name: &'static str| {
        evs.iter()
            .filter(move |e| e.0 == name)
            .map(|e| e.1 - job.started)
    };
    let first_claim_s = at("claim").fold(f64::INFINITY, f64::min);
    let done_s = at("job_done").next().ok_or("job has no job_done event")?;
    let last_shard_s = at("shard_done").fold(0.0, f64::max);
    // A chunk lasts from its shard's claim (or previous chunk) to its event.
    let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut chunk_s = Vec::new();
    for (ev, ts, shard) in &evs {
        let Some(shard) = shard else { continue };
        match ev.as_str() {
            "claim" => {
                last.insert(*shard, *ts);
            }
            "chunk" => {
                if let Some(prev) = last.insert(*shard, *ts) {
                    chunk_s.push(ts - prev);
                }
            }
            _ => {}
        }
    }
    Ok(Timeline {
        first_claim_s,
        chunk_s,
        done_s,
        last_shard_s,
        spawned: at("spawn").count(),
        reassigned: at("reassign").count(),
    })
}

fn traced(ctx: &Ctx, rep: &mut Report, want: &[u8], labels: &[u32], jobs: &[Job], wall_s: f64) {
    let tr = &ctx.tracer;
    let Some(lines) = rep.attempt(jobs.iter().map(timeline).collect::<Result<Vec<_>, _>>()) else {
        return;
    };
    let n = lines.len();
    let med = |f: &dyn Fn(&Timeline) -> f64| median(&lines.iter().map(f).collect::<Vec<_>>());
    let chunks: Vec<f64> = lines
        .iter()
        .flat_map(|t| t.chunk_s.iter().copied())
        .collect();
    rep.set("runtime.first_claim_s", med(&|t| t.first_claim_s), "s", n);
    rep.set("runtime.chunk_s", median(&chunks), "s", chunks.len());
    rep.set(
        "runtime.workers_spawned",
        med(&|t| t.spawned as f64),
        "count",
        n,
    );
    rep.set(
        "runtime.lease_expiries",
        lines.iter().map(|t| t.reassigned).sum::<usize>() as f64,
        "count",
        n,
    );
    // Supervisor merge (last shard done to job done), as the job saw it.
    let supervisor_merge = med(&|t| t.done_s - t.last_shard_s);
    // In-process merge of the first job's shard files.
    let merged = tr.span("runtime.merge", None, |_| {
        let t = Instant::now();
        let parts = (0..SHARDS)
            .map(|i| {
                let path = format!("{}/shards/s{i}.shard", jobs[0].dir);
                let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
                ShardPartial::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let merged = merge_partials(&parts).map_err(|e| e.to_string())?;
        Ok::<_, String>((t.elapsed().as_secs_f64(), merged.values))
    });
    if let Some((merge_s, values)) = rep.attempt(merged) {
        rep.set("runtime.merge_s", merge_s, "s", 1);
        eprintln!("  supervisor merge (last shard_done to job_done): {supervisor_merge:.4} s");
        let csv = crate::verify::values_csv(labels, values.as_slice());
        rep.attempt(same_bytes(
            "in-process merge of the shard files",
            &csv,
            want,
        ));
    }
    // Everything between the job's own milestones and the process exit.
    rep.set("cli.unattributed_s", wall_s - med(&|t| t.done_s), "s", n);

    // Telemetry overhead: one job with the program's event log and metrics on.
    let dir = ctx.path_str("job-traced");
    let env = [
        (
            "KNNSHAP_LOG",
            format!("debug:{}", ctx.path_str("events.log")),
        ),
        ("KNNSHAP_METRICS", ctx.path_str("metrics.jsonl")),
    ];
    let traced_job = plan(ctx, &dir)
        .and_then(|_| run_job(&dir, &ctx.path_str("traced.csv"), &env))
        .and_then(|j| same_bytes("traced run-job", &j.csv, want).map(|_| j.secs));
    if let Some(secs) = rep.attempt(traced_job) {
        rep.set("trace.overhead_s", secs - wall_s, "s", 1);
    }

    // The exact computation the workers share, split by layer.
    exact::traced_stages(ctx, rep, want);
}
