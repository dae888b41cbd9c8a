//! Child processes: timed runs of the `knnshap` binary, a watchdog that
//! kills every live child before the run's time limit, and peak memory of
//! the children from `getrusage`.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pids of children spawned and not yet waited for.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs starting
/// with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Largest resident set (MB) of any child this process has waited for,
/// including the children those children waited for (the fleet's workers).
pub fn children_peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` for this
    // target, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return f64::NAN;
    }
    ru.maxrss as f64 / 1024.0
}

/// Kills every live child and exits nonzero once `limit` has passed, so a
/// hung program can never hold the benchmark past its deadline.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
        for pid in pids {
            // SAFETY: plain syscall. Each child leads its own process group
            // (see `spawn`) and has not been reaped, so the group id cannot
            // have been reused; the negative pid reaches the fleet's
            // workers too.
            unsafe { kill(-(pid as i32), SIGKILL) };
        }
        eprintln!(
            "perfbench: time limit of {} s reached; children killed",
            limit.as_secs()
        );
        std::process::exit(3);
    });
}

fn register(child: &Child) {
    LIVE.lock().expect("pid registry poisoned").push(child.id());
}

fn unregister(pid: u32) {
    LIVE.lock()
        .expect("pid registry poisoned")
        .retain(|&p| p != pid);
}

/// The `knnshap` binary built by `run.sh`.
pub fn knnshap_bin() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("release").join("knnshap")
}

/// Spawns a child with piped output, leading a process group of its own.
pub fn spawn(cmd: &mut Command) -> std::io::Result<Child> {
    use std::os::unix::process::CommandExt;
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()?;
    register(&child);
    Ok(child)
}

/// Waits for a child from [`spawn`].
pub fn wait(mut child: Child) -> std::io::Result<std::process::ExitStatus> {
    let pid = child.id();
    let status = child.wait();
    unregister(pid);
    status
}

/// Runs `cmd` to completion: `(seconds from spawn to exit, output)`. A
/// nonzero exit is an error carrying the program's stderr.
pub fn run_timed(cmd: &mut Command) -> Result<(f64, Output), String> {
    let start = Instant::now();
    let child = spawn(cmd).map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let pid = child.id();
    let out = child.wait_with_output();
    let secs = start.elapsed().as_secs_f64();
    unregister(pid);
    let out = out.map_err(|e| format!("waiting for {:?}: {e}", cmd.get_program()))?;
    if !out.status.success() {
        return Err(format!(
            "{:?} exited with {}: {}",
            cmd.get_args().collect::<Vec<_>>(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((secs, out))
}

/// A `knnshap` command line.
pub fn knnshap(args: &[&str]) -> Command {
    let mut cmd = Command::new(knnshap_bin());
    cmd.args(args);
    cmd
}
