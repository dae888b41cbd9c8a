//! `serve_mixed`: a `knnshap serve` daemon under an open-loop stream of
//! snapshot reads, what-ifs and writes at one fixed rate.
//!
//! Writes take the engine write lock that what-ifs wait on and invalidate
//! the version-keyed what-if cache; snapshot reads never touch that lock.
//! The generator is one process with two connections: one carries the
//! reads, the other every engine request in schedule order, so writes apply
//! in a known order and the daemon's final state can be checked. Each
//! request is timed from when it was due, so time spent queued behind a
//! slow request counts.

use crate::exact::{set_parallel, write_csvs};
use crate::gen::{self, Blobs, Rng};
use crate::report::Report;
use crate::stats::{backlog, backlog_growth, due_times, median, tail, BACKLOG_SLACK};
use crate::verify::{same_bits, same_bytes, values_csv};
use crate::{pipeline, proc, Ctx, SETUPS};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_core::resident::{Mutation, ResidentValuator};
use knnshap_datasets::ClassDataset;
use knnshap_serve::client::Client;
use knnshap_serve::server::Endpoint;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const N_TRAIN: usize = 50_000;
const N_TEST: usize = 64;
const DIM: usize = 32;
const CLASSES: usize = 4;
const K: usize = 5;
/// Requests per second. At this rate the engine is busy about half the
/// time on a two-core machine: queueing shows, no backlog grows.
const RATE: f64 = 14.0;
/// Percent of requests per kind: get, top, what-if, insert, delete.
const MIX: [(Kind, usize); 5] = [
    (Kind::Get, 35),
    (Kind::Top, 10),
    (Kind::WhatIf, 35),
    (Kind::Insert, 10),
    (Kind::Delete, 10),
];
/// Every third what-if repeats the previous what-if's point, so it hits the
/// cache unless a write landed in between.
const REPEAT_EVERY: usize = 3;
/// Latency limits (from when the request was due) for `goodput_frac`.
const READ_LIMIT_MS: f64 = 50.0;
const WHATIF_LIMIT_MS: f64 = 500.0;
const WRITE_LIMIT_MS: f64 = 1000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Get,
    Top,
    WhatIf,
    Insert,
    Delete,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Read,
    WhatIf,
    Write,
}

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Get(u64),
    Top,
    /// `repeats`: index of the request whose point this one repeats.
    WhatIf {
        row: Vec<f32>,
        label: u32,
        repeats: Option<usize>,
    },
    Insert {
        row: Vec<f32>,
        label: u32,
    },
    Delete(u64),
}

impl Op {
    fn class(&self) -> Class {
        match self {
            Op::Get(_) | Op::Top => Class::Read,
            Op::WhatIf { .. } => Class::WhatIf,
            Op::Insert { .. } | Op::Delete(_) => Class::Write,
        }
    }
}

/// The seed's request sequence over a training set of `n_train` points.
fn schedule(seed: u64, blobs: &Blobs, n_train: usize, count: usize) -> Vec<Op> {
    let mut rng = Rng::derive(seed, 3);
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, pct)| std::iter::repeat_n(kind, count * pct / 100))
        .collect();
    kinds.resize(count, Kind::Get);
    rng.shuffle(&mut kinds);
    let mut n = n_train as u64;
    let mut last_whatif: Option<usize> = None;
    let mut whatifs = 0;
    let mut ops: Vec<Op> = Vec::with_capacity(count);
    for kind in kinds {
        let op = match kind {
            // Deletes never reach the lower half, so reads on their own
            // connection stay in range at any interleaving.
            Kind::Get => Op::Get(rng.below(n_train as u64 / 2)),
            Kind::Top => Op::Top,
            Kind::WhatIf => {
                whatifs += 1;
                match last_whatif {
                    Some(prev) if whatifs % REPEAT_EVERY == 0 => match &ops[prev] {
                        Op::WhatIf { row, label, .. } => Op::WhatIf {
                            row: row.clone(),
                            label: *label,
                            repeats: Some(prev),
                        },
                        _ => unreachable!("last_whatif indexes a what-if"),
                    },
                    _ => {
                        let (row, label) = blobs.point(&mut rng);
                        Op::WhatIf {
                            row,
                            label,
                            repeats: None,
                        }
                    }
                }
            }
            Kind::Insert => {
                n += 1;
                let (row, label) = blobs.point(&mut rng);
                Op::Insert { row, label }
            }
            Kind::Delete => {
                n -= 1;
                Op::Delete(n_train as u64 / 2 + rng.below(n - n_train as u64 / 2))
            }
        };
        if kind == Kind::WhatIf {
            last_whatif = Some(ops.len());
        }
        ops.push(op);
    }
    ops
}

/// The training set after the schedule's writes, in order.
fn expected_train(train: &ClassDataset, ops: &[Op]) -> (Vec<f32>, Vec<u32>) {
    let (mut x, mut y) = (train.x.as_slice().to_vec(), train.y.clone());
    for op in ops {
        match op {
            Op::Insert { row, label } => {
                x.extend_from_slice(row);
                y.push(*label);
            }
            Op::Delete(i) => {
                let i = *i as usize;
                x.drain(i * DIM..(i + 1) * DIM);
                y.remove(i);
            }
            _ => {}
        }
    }
    (x, y)
}

/// What a request got back.
#[derive(Debug, Clone, Copy)]
struct Answer {
    version: u64,
    value: f64,
}

struct Outcome {
    sent: Instant,
    recv: Instant,
    result: Result<Answer, String>,
    busy: bool,
}

fn call(client: &mut Client, op: &Op) -> Result<Answer, knnshap_serve::ClientError> {
    let (version, value) = match op {
        Op::Get(i) => client.get(*i)?,
        Op::Top => {
            let (version, top) = client.ranked(10, true)?;
            (version, top.first().map_or(0.0, |e| e.1))
        }
        Op::WhatIf { row, label, .. } => client.what_if(row, *label)?,
        Op::Insert { row, label } => {
            let (version, index) = client.insert(row, *label)?;
            (version, index as f64)
        }
        Op::Delete(i) => {
            let (version, _) = client.delete(*i)?;
            (version, 0.0)
        }
    };
    Ok(Answer { version, value })
}

/// Serves one connection's queue until the dispatcher hangs up.
fn connection(
    mut client: Client,
    ops: &[Op],
    rx: mpsc::Receiver<usize>,
) -> (Client, Vec<(usize, Outcome)>) {
    let mut out = Vec::new();
    for i in rx {
        let sent = Instant::now();
        let r = call(&mut client, &ops[i]);
        let recv = Instant::now();
        let busy = matches!(&r, Err(e) if e.is_busy());
        out.push((
            i,
            Outcome {
                sent,
                recv,
                result: r.map_err(|e| format!("request {i} ({:?}): {e}", ops[i].class())),
                busy,
            },
        ));
    }
    (client, out)
}

/// A running daemon. Dropping one that was not stopped kills and reaps it,
/// so an early error never leaves a process behind.
struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts the daemon and waits for its readiness line: the daemon and
    /// its load-to-ready seconds.
    fn start(ctx: &Ctx, socket: &str) -> Result<(Daemon, f64), String> {
        std::fs::remove_file(socket).ok();
        let (train, test) = (ctx.path_str("train.csv"), ctx.path_str("test.csv"));
        let (k, threads) = (K.to_string(), ctx.threads.to_string());
        let t = Instant::now();
        let mut child = proc::spawn(&mut proc::knnshap(&[
            "serve",
            "--train",
            &train,
            "--test",
            &test,
            "--k",
            &k,
            "--threads",
            &threads,
            "--socket",
            socket,
        ]))
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                let mut err = String::new();
                if let Some(mut e) = daemon.child.as_mut().and_then(|c| c.stderr.take()) {
                    e.read_to_string(&mut err).ok();
                }
                return Err(format!("daemon exited before it was ready: {}", err.trim()));
            }
            if line.contains("listening") {
                break;
            }
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Asks the daemon to shut down and waits for it to exit: its peak
    /// resident set (MB), read just before.
    fn stop(mut self, client: &mut Client) -> Result<f64, String> {
        let peak = peak_rss_mb(self.pid());
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).ok();
        let child = self.child.take().expect("daemon is running");
        let status = proc::wait(child).map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        peak
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            proc::wait(child).ok();
        }
    }
}

/// `VmHWM` of a live process, in MB.
fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or(format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

fn connect(socket: &str) -> Result<Client, String> {
    Client::connect(&Endpoint::Unix(socket.into())).map_err(|e| format!("connect {socket}: {e}"))
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let (train, test, blobs) = gen::pair(ctx.seed, N_TRAIN, N_TEST, DIM, CLASSES);
    if rep.attempt(write_csvs(ctx, &train, &test)).is_none() {
        return;
    }
    let dues = due_times(RATE, ctx.seconds);
    let ops = schedule(ctx.seed, &blobs, N_TRAIN, dues.len());
    let socket = ctx.path_str("s.sock");

    // Set-up: start the daemon SETUPS times; keep the last one. The peak
    // memory of a loaded daemon is `peak_rss_mb`; what the stream adds on
    // top depends on how the allocator's per-thread arenas interleave, so
    // it varies from run to run and is reported per layer instead.
    let mut setup = Vec::new();
    let mut loaded_rss = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let Some((d, secs)) = rep.attempt(Daemon::start(ctx, &socket)) else {
            return;
        };
        setup.push(secs);
        if i + 1 < SETUPS {
            let Some(rss) = rep.attempt(connect(&socket).and_then(|mut c| d.stop(&mut c))) else {
                return;
            };
            loaded_rss.push(rss);
        } else {
            loaded_rss.extend(rep.attempt(peak_rss_mb(d.pid())));
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUPS >= 1");
    rep.set("setup_s", median(&setup), "s", setup.len());
    rep.set(
        "peak_rss_mb",
        loaded_rss.iter().copied().fold(0.0, f64::max),
        "MB",
        loaded_rss.len(),
    );

    let (Some(reads), Some(engine)) =
        (rep.attempt(connect(&socket)), rep.attempt(connect(&socket)))
    else {
        return;
    };
    let stream = run_stream(&ops, &dues, reads, engine);
    let mut engine = stream.engine;
    let server = engine.metrics();
    let dump = engine.dump();
    let final_train = engine.train_csv();
    if let Some(rss) = rep.attempt(daemon.stop(&mut engine)) {
        rep.set("serve.stream_rss_mb", rss, "MB", 1);
    }

    check_final(ctx, rep, &train, &test, &ops, dump, final_train);
    let outcomes = stream.outcomes;
    report_stream(
        ctx,
        rep,
        &ops,
        &dues,
        stream.start,
        &stream.dispatched,
        &outcomes,
    );
    if let Some(m) = rep.attempt(server.map_err(|e| format!("metrics: {e}"))) {
        report_server(rep, &ops, &outcomes, &m);
    }
    if ctx.trace {
        traced(
            ctx,
            rep,
            &train,
            &test,
            &ops,
            stream.start,
            &dues,
            &outcomes,
        );
    }
}

struct Stream {
    start: Instant,
    dispatched: Vec<Instant>,
    outcomes: Vec<Outcome>,
    engine: Client,
}

/// Replays the schedule open-loop: request `i` is handed to its connection
/// at `start + dues[i]` whether or not earlier requests have finished.
fn run_stream(ops: &[Op], dues: &[f64], reads: Client, engine: Client) -> Stream {
    let (read_tx, read_rx) = mpsc::channel();
    let (engine_tx, engine_rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(20);
    let mut dispatched = Vec::with_capacity(ops.len());
    let (mut read_out, (engine, mut engine_out)) = std::thread::scope(|s| {
        let r = s.spawn(|| connection(reads, ops, read_rx).1);
        let e = s.spawn(|| connection(engine, ops, engine_rx));
        for (i, op) in ops.iter().enumerate() {
            let due = start + Duration::from_secs_f64(dues[i]);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            dispatched.push(Instant::now());
            let tx = if op.class() == Class::Read {
                &read_tx
            } else {
                &engine_tx
            };
            tx.send(i)
                .expect("connection threads outlive the dispatcher");
        }
        drop((read_tx, engine_tx));
        (
            r.join().expect("read connection panicked"),
            e.join().expect("engine connection panicked"),
        )
    });
    read_out.append(&mut engine_out);
    read_out.sort_by_key(|(i, _)| *i);
    Stream {
        start,
        dispatched,
        outcomes: read_out.into_iter().map(|(_, o)| o).collect(),
        engine,
    }
}

/// The daemon's final vector must equal a cold valuation of its final
/// training set, which must be the initial set with the writes applied.
fn check_final(
    ctx: &Ctx,
    rep: &mut Report,
    train: &ClassDataset,
    test: &ClassDataset,
    ops: &[Op],
    dump: Result<knnshap_serve::Dump, knnshap_serve::ClientError>,
    final_train: Result<(u64, Vec<u8>), knnshap_serve::ClientError>,
) {
    let check = || -> Result<(), String> {
        let dump = dump.map_err(|e| format!("dump: {e}"))?;
        let (version, csv) = final_train.map_err(|e| format!("train-csv: {e}"))?;
        let writes = ops.iter().filter(|o| o.class() == Class::Write).count() as u64;
        if dump.version != writes || version != writes {
            return Err(format!(
                "versions: dump {} and train-csv {version} after {writes} writes",
                dump.version
            ));
        }
        let (x, y) = expected_train(train, ops);
        let want = gen::csv(&ClassDataset::new(
            knnshap_datasets::Features::new(x, DIM),
            y,
            CLASSES as u32,
        ));
        same_bytes("daemon train-csv", &csv, &want)?;
        let path = ctx.path("final-train.csv");
        std::fs::write(&path, &csv).map_err(|e| e.to_string())?;
        let cold_train = knnshap_datasets::io::load_class_csv(&path).map_err(|e| e.to_string())?;
        let cold = knn_class_shapley_with_threads(&cold_train, test, K, ctx.threads);
        if dump.labels != cold_train.y {
            return Err("dump labels differ from the daemon's training set".into());
        }
        same_bits(
            "daemon dump vs cold valuation",
            &dump.values,
            cold.as_slice(),
        )
    };
    rep.attempt(check());
}

fn limit_ms(class: Class) -> f64 {
    match class {
        Class::Read => READ_LIMIT_MS,
        Class::WhatIf => WHATIF_LIMIT_MS,
        Class::Write => WRITE_LIMIT_MS,
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn report_stream(
    ctx: &Ctx,
    rep: &mut Report,
    ops: &[Op],
    dues: &[f64],
    start: Instant,
    dispatched: &[Instant],
    outcomes: &[Outcome],
) {
    let due = |i: usize| start + Duration::from_secs_f64(dues[i]);
    // Per-request checks: answered, versions monotone per connection, a
    // repeated what-if at an unchanged version answers the same bits.
    let mut last_version = [0u64; 2];
    let mut within = 0usize;
    let mut latency: [Vec<f64>; 3] = Default::default();
    for (i, o) in outcomes.iter().enumerate() {
        let class = ops[i].class();
        let checked = o.result.clone().and_then(|a| {
            let conn = (class != Class::Read) as usize;
            if a.version < last_version[conn] {
                return Err(format!(
                    "request {i}: version {} after {}",
                    a.version, last_version[conn]
                ));
            }
            last_version[conn] = a.version;
            if let Op::WhatIf {
                repeats: Some(j), ..
            } = &ops[i]
            {
                if let Ok(b) = &outcomes[*j].result {
                    if b.version == a.version && b.value.to_bits() != a.value.to_bits() {
                        return Err(format!(
                            "request {i}: repeated what-if answered differently"
                        ));
                    }
                }
            }
            Ok(a)
        });
        if rep.attempt(checked).is_some() {
            let l = ms(due(i), o.recv);
            within += (l <= limit_ms(class)) as usize;
            latency[class as usize].push(l);
        }
    }
    rep.set(
        "goodput_frac",
        within as f64 / ops.len().max(1) as f64,
        "frac",
        ops.len(),
    );

    let sent: Vec<f64> = outcomes
        .iter()
        .map(|o| o.sent.saturating_duration_since(start).as_secs_f64())
        .collect();
    let growth = backlog_growth(&backlog(dues, &sent));
    let lag: Vec<f64> = (0..ops.len()).map(|i| ms(due(i), dispatched[i])).collect();
    rep.set("bench.backlog_growth", growth, "count", ops.len());
    // The tail, or the worst lag when the run is too short to have one.
    let worst = lag.iter().copied().fold(0.0, f64::max);
    rep.set(
        "bench.generator_lag_ms",
        tail(&lag).map_or(worst, |t| t.1),
        "ms",
        lag.len(),
    );
    let engine_busy: f64 = outcomes
        .iter()
        .zip(ops)
        .filter(|(_, op)| op.class() != Class::Read)
        .map(|(o, _)| ms(o.sent, o.recv))
        .sum::<f64>()
        / 1e3
        / ctx.seconds;
    eprintln!(
        "  engine connection busy {:.0}% of the stream",
        engine_busy * 100.0
    );
    if growth > BACKLOG_SLACK {
        rep.problems.push(format!(
            "backlog grew by {growth:.1} requests over the run (limit {BACKLOG_SLACK}): \
             the rate is more than this machine sustains, latencies refused"
        ));
        return;
    }
    for (class, (p50, tl)) in [
        (Class::Read, ("read_p50_ms", "read_tail_ms")),
        (Class::WhatIf, ("whatif_p50_ms", "whatif_tail_ms")),
        (Class::Write, ("write_p50_ms", "write_tail_ms")),
    ] {
        let xs = &latency[class as usize];
        rep.set(p50, median(xs), "ms", xs.len());
        if let Some((pct, v)) = tail(xs) {
            eprintln!("  {tl} is p{pct}");
            rep.set(tl, v, "ms", xs.len());
        }
    }
    let writes = &latency[Class::Write as usize];
    if !writes.is_empty() {
        rep.set("wall_s", median(writes) / 1e3, "s", writes.len());
    }
}

/// Linear interpolation inside the power-of-two bucket holding the median.
fn histogram_p50(h: &knnshap_serve::protocol::MetricsHistogram) -> f64 {
    let half = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for (b, &c) in h.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= half {
            let (lo, hi) = if b == 0 {
                (0.0, 1.0)
            } else {
                ((1u64 << (b - 1)) as f64, (1u64 << b) as f64)
            };
            return lo + (hi - lo) * (half - seen) / c;
        }
        seen += c;
    }
    f64::NAN
}

fn report_server(
    rep: &mut Report,
    ops: &[Op],
    outcomes: &[Outcome],
    m: &knnshap_serve::client::MetricsInfo,
) {
    let p50 = histogram_p50(&m.latency_micros);
    rep.set(
        "serve.server_p50_us",
        p50,
        "us",
        m.latency_micros.count as usize,
    );
    let rpc: Vec<f64> = outcomes.iter().map(|o| ms(o.sent, o.recv)).collect();
    let client_mean = rpc.iter().sum::<f64>() / rpc.len().max(1) as f64;
    rep.set(
        "serve.transport_ms",
        client_mean - m.latency_micros.mean() / 1e3,
        "ms",
        rpc.len(),
    );
    rep.set(
        "serve.queue_depth_max",
        m.batch_sizes.max as f64,
        "count",
        m.batch_sizes.count as usize,
    );
    rep.set(
        "serve.batch_mean",
        m.batch_sizes.mean(),
        "count",
        m.batch_sizes.count as usize,
    );
    let busy = outcomes.iter().filter(|o| o.busy).count();
    rep.set("serve.busy_refusals", busy as f64, "count", ops.len());
    let lookups = m.whatif_hits + m.whatif_misses;
    let ratio = if lookups > 0 {
        m.whatif_hits as f64 / lookups as f64
    } else {
        0.0
    };
    rep.set("serve.whatif_hit_ratio", ratio, "frac", lookups as usize);
}

/// Request spans, then the daemon's layers called in-process on the same
/// inputs: the load split by layer, and the resident engine's load, what-if
/// and write.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    train: &ClassDataset,
    test: &ClassDataset,
    ops: &[Op],
    start: Instant,
    dues: &[f64],
    outcomes: &[Outcome],
) {
    let tr = &ctx.tracer;
    for (i, o) in outcomes.iter().enumerate() {
        let due = start + Duration::from_secs_f64(dues[i]);
        let req = Some(i as u64);
        let id = tr.record("serve.request", None, req, due, o.recv);
        tr.record("bench.queue", Some(id), req, due, o.sent);
        tr.record("serve.rpc", Some(id), req, o.sent, o.recv);
    }

    let probe = knnshap_obs::metrics::snapshot();
    let t = Instant::now();
    let engine = tr.span("core.resident.load", None, |_| {
        ResidentValuator::new(train.clone(), test.clone(), K, ctx.threads)
    });
    let load_s = t.elapsed().as_secs_f64();
    let Some(mut engine) = rep.attempt(engine.map_err(|e| format!("resident load: {e}"))) else {
        return;
    };
    rep.set("core.resident.load_s", load_s, "s", 1);
    let want = values_csv(&train.y, engine.values().as_slice());

    let mut what_if = Vec::new();
    for op in ops
        .iter()
        .filter(|o| matches!(o, Op::WhatIf { repeats: None, .. }))
        .take(16)
    {
        let Op::WhatIf { row, label, .. } = op else {
            unreachable!()
        };
        let t = Instant::now();
        let r = tr.span("core.resident.what_if", None, |_| {
            engine.what_if(row, *label)
        });
        what_if.push(t.elapsed().as_secs_f64());
        rep.attempt(r.map_err(|e| format!("resident what-if: {e}")));
    }
    rep.set(
        "core.resident.what_if_s",
        median(&what_if),
        "s",
        what_if.len(),
    );

    // A daemon write: apply the mutation, then revalue for the snapshot.
    let mut apply = Vec::new();
    for op in ops.iter().filter(|o| o.class() == Class::Write).take(8) {
        let m = match op {
            Op::Insert { row, label } => Mutation::Insert {
                features: row.clone(),
                label: *label,
            },
            Op::Delete(i) => Mutation::Delete { index: *i as usize },
            _ => unreachable!("filtered to writes"),
        };
        let t = Instant::now();
        let r = tr.span("core.resident.apply", None, |_| {
            let r = engine
                .apply_batch(&[m])
                .pop()
                .expect("one receipt per mutation");
            std::hint::black_box(engine.values());
            r
        });
        apply.push(t.elapsed().as_secs_f64());
        rep.attempt(r.map(|_| ()).map_err(|e| format!("resident apply: {e}")));
    }
    rep.set("core.resident.apply_s", median(&apply), "s", apply.len());

    // The daemon's load is an exact valuation: split it by layer.
    let (train_path, test_path, out) = (
        ctx.path("train.csv"),
        ctx.path("test.csv"),
        ctx.path("traced.csv"),
    );
    let split = pipeline::exact_traced(tr, &train_path, &test_path, K, ctx.threads, &out)
        .and_then(|(st, csv)| same_bytes("traced exact pipeline", &csv, &want).map(|_| st));
    if let Some(st) = rep.attempt(split) {
        rep.set("datasets.parse_s", st.parse_s, "s", 1);
        rep.set(
            "datasets.parse_mb_per_s",
            st.parse_bytes as f64 / 1e6 / st.parse_s,
            "MB/s",
            1,
        );
        rep.set("knn.rank_s", st.rank_s, "s", 1);
        rep.set("knn.distance_s", st.distance_s, "s", 1);
        rep.set("knn.sort_s", st.rank_s - st.distance_s, "s", 1);
        let flops = st.pairs as f64 * st.dim as f64 * 3.0;
        rep.set(
            "knn.distance_gflop_per_s",
            flops / st.distance_s / 1e9,
            "GFLOP/s",
            1,
        );
        rep.set("core.recurrence_s", st.recurrence_s, "s", 1);
        rep.set("numerics.fold_s", st.fold_s, "s", 1);
        rep.set("numerics.deposits", st.pairs as f64, "count", 1);
    }
    set_parallel(rep, &probe);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (ClassDataset, Vec<Op>) {
        let (train, _, blobs) = gen::pair(5, 200, 4, DIM, CLASSES);
        let ops = schedule(5, &blobs, 200, 200);
        (train, ops)
    }

    #[test]
    fn schedule_has_the_stated_mix_and_repeats() {
        let (_, ops) = fixture();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Get(_))), 70);
        assert_eq!(count(|o| matches!(o, Op::Top)), 20);
        assert_eq!(count(|o| matches!(o, Op::WhatIf { .. })), 70);
        assert_eq!(count(|o| matches!(o, Op::Insert { .. })), 20);
        assert_eq!(count(|o| matches!(o, Op::Delete(_))), 20);
        let repeats: Vec<(usize, usize)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                Op::WhatIf {
                    repeats: Some(j), ..
                } => Some((i, *j)),
                _ => None,
            })
            .collect();
        assert_eq!(repeats.len(), 70 / REPEAT_EVERY);
        for (i, j) in repeats {
            assert!(j < i);
            let (
                Op::WhatIf {
                    row: a, label: la, ..
                },
                Op::WhatIf {
                    row: b, label: lb, ..
                },
            ) = (&ops[i], &ops[j])
            else {
                panic!("a repeat points at a what-if");
            };
            assert_eq!((a, la), (b, lb));
        }
        assert_eq!(ops, fixture().1, "same seed, same schedule");
    }

    #[test]
    fn writes_stay_in_range_and_reads_below_every_delete() {
        let (train, ops) = fixture();
        let mut n = train.len() as u64;
        for op in &ops {
            match op {
                Op::Get(i) => assert!(*i < 100),
                Op::Delete(i) => {
                    assert!((100..n).contains(i), "delete {i} of {n}");
                    n -= 1;
                }
                Op::Insert { .. } => n += 1,
                _ => {}
            }
        }
        let (x, y) = expected_train(&train, &ops);
        assert_eq!(y.len() as u64, n);
        assert_eq!(x.len(), y.len() * DIM);
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let h = knnshap_serve::protocol::MetricsHistogram {
            count: 4,
            sum: 0,
            min: 0,
            max: 0,
            // Two samples in [1, 2), two in [8, 16).
            buckets: vec![0, 2, 0, 0, 2],
        };
        assert_eq!(histogram_p50(&h), 2.0);
        let h = knnshap_serve::protocol::MetricsHistogram {
            buckets: vec![0, 1, 0, 0, 3],
            ..h
        };
        assert!((histogram_p50(&h) - (8.0 + 8.0 / 3.0)).abs() < 1e-12);
    }
}
