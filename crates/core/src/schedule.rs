//! Measured-cost-model scheduling for the budget-driven estimators.
//!
//! The Monte Carlo family (paper §2.2 / Algorithm 2), group testing
//! (Algorithm 3) and the truncated multi-test path are the estimators whose
//! cost is a *budget* (permutations, coalition tests, test points) rather
//! than a closed form — the one place where "how do we tile the work" is a
//! real decision. Each of them has one fold, and a [`Schedule`] handed to
//! that fold picks the tiling:
//!
//! * [`Schedule::Static`] — fixed heuristics, pure functions of the item and
//!   worker counts (`static_fold_block` for the exact fan-out folds,
//!   `static_round_plan` for the Monte Carlo round path);
//! * [`Schedule::Measured`] — three numbers sampled from warm-up items of
//!   the actual job by the one measurement helper, `measure`
//!   ([`CostModel`]):
//!
//!   * `per_item_secs` — wall time of one permutation / coalition test /
//!     test point;
//!   * `fork_secs` — the setup a block pays before its first item (forking
//!     the utility, zeroing an exact accumulator);
//!   * `merge_secs` — the cost of folding a finished block into the total.
//!
//! From those, pure planners choose the tiling: [`plan_fanout`] (block size
//! and serial-vs-parallel for the a-priori-budget fan-out path),
//! [`plan_rounds`] (round and chunk size for the heuristic/snapshot round
//! path) and [`suggest_shards`] (process-level shard count for
//! `shard-plan --auto`). Planning is deliberately separated from
//! measurement so every decision rule is unit-testable with synthetic
//! timings — no wall clock in any assertion.
//!
//! ### Why the scheduler cannot move a bit
//!
//! A plan only re-tiles *which items run in which block/round*. Per-item
//! contributions are pure functions of `(job, item)` — permutation `t`
//! draws from counter-based RNG stream `t` — and cross-item accumulation is
//! exact ([`knnshap_numerics::exact::ExactVec`]: error-free,
//! order/grouping-invariant merge) on the fan-out path, or folded in
//! permutation order on the round path regardless of round size. So every
//! schedule, including an adversarial one, yields output bitwise-identical
//! to the static path at every thread count. `tests/schedule_determinism.rs`
//! enforces exactly that, using the [`forced`] hook
//! (`KNNSHAP_SCHED_FORCE`) to pin pathological schedules.

use std::time::Instant;

// Telemetry (write-only; see the `knnshap_obs` crate docs): the last
// measured cost model, so operators can see what the planner saw.
static SCHED_PER_ITEM: knnshap_obs::Gauge = knnshap_obs::Gauge::new("sched.per_item_secs");
static SCHED_FORK: knnshap_obs::Gauge = knnshap_obs::Gauge::new("sched.fork_secs");
static SCHED_MERGE: knnshap_obs::Gauge = knnshap_obs::Gauge::new("sched.merge_secs");

/// How a budget-driven fold tiles its items across the pool. Output is
/// bitwise-identical under either (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Fixed heuristics: a pure function of the item and worker counts.
    #[default]
    Static,
    /// Plan from a [`CostModel`] measured on warm-up items of the job (or
    /// from the [`forced`] test hook).
    Measured,
}

/// A worker count plus the [`Schedule`] that tiles their work. A bare
/// thread count converts to the static schedule, so every
/// `*_with_threads(…, threads)` call keeps its meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workers {
    pub threads: usize,
    pub schedule: Schedule,
}

impl Workers {
    /// `threads` workers on the measured schedule.
    pub fn measured(threads: usize) -> Self {
        Workers {
            threads,
            schedule: Schedule::Measured,
        }
    }
}

impl From<usize> for Workers {
    fn from(threads: usize) -> Self {
        Workers {
            threads,
            schedule: Schedule::Static,
        }
    }
}

impl Schedule {
    /// The tiling of an exact fan-out fold of `count` items on `threads`
    /// workers: the static partition, or the plan of the model `measure`
    /// samples (called only on the measured schedule, and never for an
    /// empty fold — there is nothing to measure on).
    pub(crate) fn fanout(
        self,
        count: usize,
        threads: usize,
        measure: impl FnOnce() -> CostModel,
    ) -> FanoutPlan {
        match self {
            Schedule::Measured if count > 0 => {
                plan_fanout(&measure(), count, threads, forced().as_ref())
            }
            _ => FanoutPlan {
                threads,
                block_items: static_fold_block(count, threads),
            },
        }
    }

    /// The tiling of the Monte Carlo round path over `budget` permutations;
    /// `measure` as for [`fanout`](Self::fanout).
    pub(crate) fn rounds(
        self,
        budget: usize,
        threads: usize,
        measure: impl FnOnce() -> CostModel,
    ) -> RoundPlan {
        match self {
            Schedule::Measured if budget > 0 => {
                plan_rounds(&measure(), budget, threads, forced().as_ref())
            }
            _ => static_round_plan(budget, threads),
        }
    }
}

/// Warm-up items [`measure`] times. Small on purpose: the real pass re-runs
/// them.
const WARMUP: usize = 2;

/// The one warm-up measurement behind every measured plan. Times one block
/// setup (`make`), the first `min(2, count)` items of the fold (`step`), and
/// one merge of that block into a fresh total (`zero`, allocated outside the
/// timed region; `merge`) — the very closures the fold then runs. Each item
/// is a pure function of its index, so the sampled work is simply thrown
/// away and re-run by the real pass. The model is recorded into the
/// `sched.*` gauges and the `mc.cost_model` event.
pub(crate) fn measure<T, A>(
    count: usize,
    zero: impl Fn() -> T,
    make: impl Fn() -> A,
    step: impl Fn(&mut A, usize),
    merge: impl Fn(&mut T, &A),
) -> CostModel {
    let warmup = WARMUP.min(count);
    let fork_t = Instant::now();
    let mut acc = make();
    let fork_secs = fork_t.elapsed().as_secs_f64();

    let items_t = Instant::now();
    for t in 0..warmup {
        step(&mut acc, t);
    }
    let per_item_secs = items_t.elapsed().as_secs_f64() / warmup.max(1) as f64;

    let mut total = zero();
    let merge_t = Instant::now();
    merge(&mut total, &acc);
    let merge_secs = merge_t.elapsed().as_secs_f64();

    let model = CostModel {
        per_item_secs,
        fork_secs,
        merge_secs,
    };
    SCHED_PER_ITEM.set(model.per_item_secs);
    SCHED_FORK.set(model.fork_secs);
    SCHED_MERGE.set(model.merge_secs);
    knnshap_obs::emit(
        knnshap_obs::Level::Info,
        "mc",
        "cost_model",
        &[
            ("per_item_secs", model.per_item_secs.into()),
            ("fork_secs", model.fork_secs.into()),
            ("merge_secs", model.merge_secs.into()),
        ],
    );
    model
}

/// Block-granularity cap for the static exact folds: enough scheduling
/// units for the pool to balance skewed per-item costs, few enough that
/// block setup is invisible. The actual block count also scales with the
/// thread count: every block pays O(`n_train`) accumulator setup, so a
/// serial fold uses one block and a parallel one a few blocks per worker —
/// never more than this cap.
const FOLD_BLOCKS: usize = 32;

/// Scheduling units per worker below the [`FOLD_BLOCKS`] cap — enough slack
/// to rebalance skewed items without multiplying accumulator setup.
const FOLD_BLOCKS_PER_THREAD: usize = 4;

/// The static block size of an exact fold of `count` items: one block per
/// serial fold; a few per worker otherwise, capped at [`FOLD_BLOCKS`].
/// Bitwise-free choice — the accumulators are exact, so the partition (like
/// the fold order) cannot move a bit; it is picked purely for cost.
pub(crate) fn static_fold_block(count: usize, threads: usize) -> usize {
    let target = if threads <= 1 {
        1
    } else {
        FOLD_BLOCKS.min(threads.saturating_mul(FOLD_BLOCKS_PER_THREAD))
    };
    count.div_ceil(target).max(1)
}

/// The static round tiling of the Monte Carlo round path:
/// [`crate::bounds::mc_round_size`] streams per round, chunked a few
/// permutations per fork so fork cost amortizes even without a cost model.
/// Pure function of `(budget, threads)` — never of measured time.
pub(crate) fn static_round_plan(budget: usize, threads: usize) -> RoundPlan {
    let round = crate::bounds::mc_round_size(budget);
    let workers = threads.max(1);
    RoundPlan {
        threads: workers,
        round,
        chunk_perms: round.div_ceil(workers.saturating_mul(4)).max(1),
    }
}

/// Per-block compute must be at least this multiple of the block's
/// fork + merge overhead before parallel fan-out is worth it.
pub const AMORTIZE: f64 = 8.0;

/// Scheduling slack: blocks per worker when the budget is large enough,
/// so skewed per-item costs can rebalance without re-forking per item.
pub const BLOCKS_PER_THREAD: usize = 4;

/// Ceiling on permutations held in flight by the round path (the round
/// buffer is `round × n_train` f64s; this caps it independently of what
/// the cost model would like).
pub const MAX_ROUND: usize = 4096;

/// The three measured numbers every plan is derived from. Sampled from
/// warmup items of the actual job by `measure`; constructed directly in
/// tests with synthetic timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Wall seconds per item (permutation, coalition test, test point).
    pub per_item_secs: f64,
    /// Block setup seconds: utility fork + accumulator allocation.
    pub fork_secs: f64,
    /// Seconds to merge one finished block into the running total.
    pub merge_secs: f64,
}

impl CostModel {
    /// The smallest block size (in items) whose compute amortizes the
    /// fork + merge overhead it pays, per the [`AMORTIZE`] policy.
    /// Always ≥ 1; degenerate timings (zero/negative/NaN) degrade to 1
    /// rather than poisoning the plan.
    pub fn min_block(&self) -> usize {
        let per = if self.per_item_secs.is_finite() && self.per_item_secs > 0.0 {
            self.per_item_secs
        } else {
            return 1;
        };
        let overhead = self.fork_secs.max(0.0) + self.merge_secs.max(0.0);
        if !overhead.is_finite() {
            return 1;
        }
        let b = (AMORTIZE * overhead / per).ceil();
        if b.is_finite() && b >= 1.0 {
            (b as usize).min(usize::MAX / 2)
        } else {
            1
        }
    }
}

/// A tiling of an a-priori budget over the exact fan-out path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutPlan {
    /// Worker count to hand the pool (1 ⇒ serial execution).
    pub threads: usize,
    /// Items per block of the exact fold.
    pub block_items: usize,
}

impl FanoutPlan {
    /// Did the planner decide fan-out is not worth the overhead?
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }
}

/// Choose block size and fan-out vs serial execution for `items` work
/// items on `threads` workers. Pure function of its arguments.
///
/// Policy: a block must amortize its own fork + merge
/// ([`CostModel::min_block`]); if the budget cannot fill two such blocks,
/// parallel fan-out cannot beat serial execution and the plan says so.
/// Otherwise blocks are sized for [`BLOCKS_PER_THREAD`] scheduling units
/// per worker, but never below the amortization floor.
pub fn plan_fanout(
    model: &CostModel,
    items: usize,
    threads: usize,
    force: Option<&Forced>,
) -> FanoutPlan {
    let mut plan = plan_fanout_unforced(model, items, threads);
    if let Some(f) = force {
        if f.serial {
            plan.threads = 1;
            plan.block_items = items.max(1);
        }
        if let Some(t) = f.threads {
            plan.threads = t.max(1);
        }
        if let Some(b) = f.block {
            plan.block_items = b.clamp(1, items.max(1));
        }
    }
    plan
}

fn plan_fanout_unforced(model: &CostModel, items: usize, threads: usize) -> FanoutPlan {
    let items_nz = items.max(1);
    let min_block = model.min_block().min(items_nz);
    if threads <= 1 || items_nz < 2 * min_block.max(1) {
        return FanoutPlan {
            threads: 1,
            block_items: items_nz,
        };
    }
    let max_blocks = (items_nz / min_block.max(1)).max(1);
    let target = threads
        .saturating_mul(BLOCKS_PER_THREAD)
        .min(max_blocks)
        .max(1);
    FanoutPlan {
        threads,
        block_items: items_nz.div_ceil(target).max(min_block).min(items_nz),
    }
}

/// A tiling of the sequential-in-`t` round path (heuristic stopping and/or
/// snapshots): `round` permutations in flight per round, forked in chunks
/// of `chunk_perms` per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundPlan {
    pub threads: usize,
    /// Permutations dispatched per round (fold + stop-check granularity).
    pub round: usize,
    /// Permutations one forked worker runs before re-forking.
    pub chunk_perms: usize,
}

/// Choose round and chunk sizes for a (possibly early-stopping) budget of
/// `budget` permutations on `threads` workers. Pure function of its
/// arguments.
///
/// Policy: a chunk must amortize one fork ([`CostModel::min_block`]); a
/// round holds [`BLOCKS_PER_THREAD`] chunks per worker so the pool can
/// rebalance, capped by the remaining budget and [`MAX_ROUND`]. Overshoot
/// past an early stop is bounded by one round; the fold order inside a
/// round is permutation order regardless, so round size never moves a bit.
pub fn plan_rounds(
    model: &CostModel,
    budget: usize,
    threads: usize,
    force: Option<&Forced>,
) -> RoundPlan {
    let mut plan = plan_rounds_unforced(model, budget, threads);
    if let Some(f) = force {
        if f.serial {
            plan.threads = 1;
        }
        if let Some(t) = f.threads {
            plan.threads = t.max(1);
        }
        if let Some(c) = f.chunk {
            plan.chunk_perms = c.max(1);
        }
        if let Some(r) = f.round {
            plan.round = r.clamp(1, budget.max(1));
        }
        plan.chunk_perms = plan.chunk_perms.min(plan.round);
    }
    plan
}

fn plan_rounds_unforced(model: &CostModel, budget: usize, threads: usize) -> RoundPlan {
    let budget_nz = budget.max(1);
    let chunk = model.min_block().clamp(1, budget_nz).min(MAX_ROUND);
    let workers = threads.max(1);
    let round = chunk
        .saturating_mul(workers)
        .saturating_mul(BLOCKS_PER_THREAD)
        .clamp(chunk, budget_nz)
        .min(MAX_ROUND.max(chunk));
    RoundPlan {
        threads: workers,
        round,
        chunk_perms: chunk.min(round),
    }
}

/// Suggested process-level shard count for `items` work items, given the
/// measured per-item cost and the per-shard overhead (dataset load +
/// utility build + merge). Pure function of its arguments.
///
/// Policy: each shard's compute must amortize its overhead
/// ([`AMORTIZE`]×), so `s ≤ items·per_item / (AMORTIZE·overhead)`, clamped
/// to `[1, max_shards]` and never more shards than items.
pub fn suggest_shards(
    per_item_secs: f64,
    shard_overhead_secs: f64,
    items: usize,
    max_shards: usize,
) -> usize {
    let cap = max_shards.max(1).min(items.max(1));
    if !(per_item_secs.is_finite() && per_item_secs > 0.0) {
        return 1;
    }
    let overhead = shard_overhead_secs.max(0.0);
    if overhead <= 0.0 || !overhead.is_finite() {
        return cap;
    }
    let total = per_item_secs * items as f64;
    let s = (total / (AMORTIZE * overhead)).floor();
    if s.is_finite() && s >= 1.0 {
        (s as usize).min(cap)
    } else {
        1
    }
}

/// An adversarially-forced schedule, parsed from the `KNNSHAP_SCHED_FORCE`
/// environment variable — the test hook `tests/schedule_determinism.rs`
/// uses to pin pathological tilings. Unset (production): no hook, the
/// measured plan stands.
///
/// Syntax: `serial`, or a comma-separated list of `threads=T`, `block=B`
/// (fan-out block items), `round=R`, `chunk=C` (round-path sizes), e.g.
/// `KNNSHAP_SCHED_FORCE=threads=8,block=1,round=3,chunk=1`. Unknown keys
/// and malformed values are ignored rather than fatal: a forced schedule
/// may only ever change performance, never behavior, so the safe reading
/// of garbage is "no constraint".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Forced {
    pub serial: bool,
    pub threads: Option<usize>,
    pub block: Option<usize>,
    pub round: Option<usize>,
    pub chunk: Option<usize>,
}

/// Parse a `KNNSHAP_SCHED_FORCE` value. `None` for an empty/blank string.
pub fn parse_force(s: &str) -> Option<Forced> {
    let mut f = Forced::default();
    let mut any = false;
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if part == "serial" {
            f.serial = true;
            any = true;
            continue;
        }
        let Some((key, value)) = part.split_once('=') else {
            continue;
        };
        let Ok(v) = value.trim().parse::<usize>() else {
            continue;
        };
        match key.trim() {
            "threads" => f.threads = Some(v),
            "block" => f.block = Some(v),
            "round" => f.round = Some(v),
            "chunk" => f.chunk = Some(v),
            _ => continue,
        }
        any = true;
    }
    any.then_some(f)
}

/// The process-wide forced schedule, if `KNNSHAP_SCHED_FORCE` is set.
pub fn forced() -> Option<Forced> {
    parse_force(&std::env::var("KNNSHAP_SCHED_FORCE").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(per: f64, fork: f64, merge: f64) -> CostModel {
        CostModel {
            per_item_secs: per,
            fork_secs: fork,
            merge_secs: merge,
        }
    }

    #[test]
    fn min_block_amortizes_overhead() {
        // 1 ms/item, 2 ms fork+merge: 8×2/1 = 16 items per block.
        assert_eq!(model(1e-3, 1e-3, 1e-3).min_block(), 16);
        // Free overhead ⇒ tiniest blocks are fine.
        assert_eq!(model(1e-3, 0.0, 0.0).min_block(), 1);
        // Degenerate timings degrade to 1, never panic or zero.
        assert_eq!(model(0.0, 1.0, 1.0).min_block(), 1);
        assert_eq!(model(f64::NAN, 1.0, 1.0).min_block(), 1);
        assert_eq!(model(1.0, f64::INFINITY, 0.0).min_block(), 1);
    }

    #[test]
    fn fanout_goes_serial_when_overhead_dominates() {
        // Fork costs 100× an item: a 50-item budget can't amortize 2 blocks.
        let m = model(1e-6, 1e-4, 0.0);
        let p = plan_fanout(&m, 50, 8, None);
        assert!(p.is_serial());
        assert_eq!(p.block_items, 50);
        // With 10 000 items there's room for real blocks.
        let p = plan_fanout(&m, 10_000, 8, None);
        assert!(!p.is_serial());
        assert!(p.block_items >= m.min_block());
        assert!(p.block_items <= 10_000);
    }

    #[test]
    fn fanout_blocks_scale_with_threads_when_cheap() {
        let m = model(1e-3, 0.0, 0.0);
        let p2 = plan_fanout(&m, 1024, 2, None);
        let p8 = plan_fanout(&m, 1024, 8, None);
        assert_eq!(p2.block_items, 1024usize.div_ceil(2 * BLOCKS_PER_THREAD));
        assert_eq!(p8.block_items, 1024usize.div_ceil(8 * BLOCKS_PER_THREAD));
        assert!(p8.block_items < p2.block_items);
    }

    #[test]
    fn fanout_single_thread_is_one_block() {
        let p = plan_fanout(&model(1e-3, 1e-3, 0.0), 100, 1, None);
        assert!(p.is_serial());
        assert_eq!(p.block_items, 100);
    }

    #[test]
    fn round_plan_never_zero_and_never_exceeds_budget() {
        for budget in [1usize, 2, 7, 64, 1000, 100_000] {
            for threads in [1usize, 2, 8] {
                for m in [
                    model(1e-3, 1e-3, 1e-4),
                    model(1e-6, 1e-2, 1e-3),
                    model(1.0, 0.0, 0.0),
                    model(0.0, 0.0, 0.0),
                ] {
                    let p = plan_rounds(&m, budget, threads, None);
                    assert!(p.round >= 1, "{budget} {threads} {m:?}");
                    assert!(p.round <= budget.max(1));
                    assert!(p.round <= MAX_ROUND);
                    assert!(p.chunk_perms >= 1);
                    assert!(p.chunk_perms <= p.round);
                }
            }
        }
    }

    #[test]
    fn round_plan_amortizes_forks() {
        // Fork = 10 items of work: chunks must be ≥ 80 (8× amortize).
        let m = model(1e-4, 1e-3, 0.0);
        let p = plan_rounds(&m, 100_000, 8, None);
        assert_eq!(p.chunk_perms, 80);
        assert_eq!(p.round, 80 * 8 * BLOCKS_PER_THREAD);
    }

    #[test]
    fn round_plan_respects_memory_cap() {
        let m = model(1e-6, 1.0, 0.0); // absurd fork cost wants huge chunks
        let p = plan_rounds(&m, 100_000_000, 8, None);
        assert_eq!(p.round, MAX_ROUND, "cap must bind");
        assert!(p.chunk_perms <= p.round);
    }

    #[test]
    fn suggest_shards_amortizes_overhead() {
        // 1 ms/item × 8000 items = 8 s of work; 0.1 s/shard overhead ⇒
        // 8 / (8 × 0.1) = 10 shards.
        assert_eq!(suggest_shards(1e-3, 0.1, 8000, 64), 10);
        // Capped by max_shards and by items.
        assert_eq!(suggest_shards(1e-3, 1e-6, 8000, 4), 4);
        assert_eq!(suggest_shards(1.0, 1e-9, 3, 64), 3);
        // Overhead dwarfing the job ⇒ one shard.
        assert_eq!(suggest_shards(1e-6, 10.0, 100, 64), 1);
        // Degenerate timings ⇒ one shard, never zero or a panic.
        assert_eq!(suggest_shards(0.0, 0.1, 100, 64), 1);
        assert_eq!(suggest_shards(f64::NAN, 0.1, 100, 64), 1);
        // Free overhead ⇒ as many shards as allowed.
        assert_eq!(suggest_shards(1e-3, 0.0, 8000, 64), 64);
    }

    #[test]
    fn monotone_in_budget_and_threads() {
        // More budget never shrinks the round; more threads never shrink it.
        let m = model(1e-4, 1e-4, 1e-5);
        let mut prev = 0;
        for budget in [1usize, 10, 100, 1000, 10_000] {
            let p = plan_rounds(&m, budget, 4, None);
            assert!(p.round >= prev, "round not monotone in budget");
            prev = p.round;
        }
        let r1 = plan_rounds(&m, 100_000, 1, None).round;
        let r8 = plan_rounds(&m, 100_000, 8, None).round;
        assert!(r8 >= r1);
    }

    #[test]
    fn force_parses_and_overrides() {
        assert_eq!(parse_force(""), None);
        assert_eq!(parse_force("   "), None);
        assert_eq!(
            parse_force("serial"),
            Some(Forced {
                serial: true,
                ..Default::default()
            })
        );
        let f = parse_force("threads=2,block=3,round=5,chunk=2").unwrap();
        assert_eq!(f.threads, Some(2));
        assert_eq!(f.block, Some(3));
        assert_eq!(f.round, Some(5));
        assert_eq!(f.chunk, Some(2));
        // Garbage keys/values are ignored, not fatal.
        assert_eq!(parse_force("wat=7,block=x"), None);
        assert_eq!(parse_force("block=x,chunk=4").unwrap().chunk, Some(4));

        let m = model(1e-3, 0.0, 0.0);
        let p = plan_fanout(&m, 1000, 8, Some(&f));
        assert_eq!(p.threads, 2);
        assert_eq!(p.block_items, 3);
        let r = plan_rounds(&m, 1000, 8, Some(&f));
        assert_eq!((r.threads, r.round, r.chunk_perms), (2, 5, 2));

        // `serial` forces one worker and (fan-out) one block.
        let s = parse_force("serial").unwrap();
        let p = plan_fanout(&m, 1000, 8, Some(&s));
        assert_eq!((p.threads, p.block_items), (1, 1000));

        // Forced values are clamped into validity.
        let z = parse_force("round=0,chunk=0,block=0,threads=0").unwrap();
        let p = plan_fanout(&m, 10, 8, Some(&z));
        assert!(p.threads >= 1 && p.block_items >= 1);
        let r = plan_rounds(&m, 10, 8, Some(&z));
        assert!(r.threads >= 1 && r.round >= 1 && r.chunk_perms >= 1);
    }
}
