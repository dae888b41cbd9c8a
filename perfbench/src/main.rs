//! The repository benchmark: drives the real `knnshap` binary, daemon and
//! fleet from outside on four workloads, checks every output bit for bit,
//! and prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics of a traced run) as one JSON line. See README.md.

mod exact;
mod fleet;
mod gen;
mod mc;
mod pipeline;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Every run ends well inside the 180 s a run may take.
const TIME_LIMIT: Duration = Duration::from_secs(170);

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the program: one per core, as a user would run it.
    pub threads: usize,
    /// Scratch directory for this run, relative to the checkout root.
    pub dir: PathBuf,
    pub tracer: trace::Tracer,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn path_str(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

const USAGE: &str = "usage: perfbench --workload exact_value|mc_value|serve_mixed|fleet_job \
                     --seed N --seconds S --trace 0|1";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx, &mut Report) = match args.workload.as_str() {
        "exact_value" => exact::run,
        "mc_value" => mc::run,
        "serve_mixed" => serve::run,
        "fleet_job" => fleet::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !proc::knnshap_bin().is_file() {
        eprintln!(
            "perfbench: {} is missing; run through perfbench/run.sh, which builds it",
            proc::knnshap_bin().display()
        );
        std::process::exit(1);
    }
    proc::start_watchdog(TIME_LIMIT);

    let base = proc::knnshap_bin()
        .parent()
        .and_then(Path::parent)
        .expect("binary sits under <target>/release")
        .join("perfbench");
    let dir = base.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        dir: dir.clone(),
        tracer: trace::Tracer::default(),
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        knnshap_obs::set_metrics(true);
    }

    let mut rep = Report::default();
    run(&ctx, &mut rep);
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.set("error_rate", error_rate, "frac", rep.attempted as usize);

    if args.trace {
        let traces = base.join("traces");
        let file = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&traces).and_then(|_| ctx.tracer.write_jsonl(&file)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", file.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", file.display()),
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    eprint!("{}", rep.table());
    let line = if args.trace {
        rep.json(&report::PER_LAYER, true)
    } else {
        rep.json(&report::END_TO_END, false)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            std::process::exit(1);
        }
    }
}
