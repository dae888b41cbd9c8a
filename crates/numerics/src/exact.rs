//! Exact (error-free) floating-point accumulation with an order- and
//! grouping-invariant merge — the numerical substrate of the sharded
//! valuation runtime.
//!
//! ## Why compensated sums are not enough for sharding
//!
//! The parallel runtime's blocked Neumaier folds ([`crate::compensated`])
//! are bitwise-reproducible because the *reduction tree is fixed*: a pure
//! function of the item count. Sharding breaks that premise — a job split
//! into 7 shard files and merged must produce the same bits as the same job
//! split into 2, or not split at all, so the reduction tree now depends on
//! an operator's deployment choice. No rounded partial sum survives that:
//! `fl(fl(a+b)+c) ≠ fl(a+fl(b+c))` in general, so Neumaier partials merged
//! in shard order drift by a few ulps as the shard count changes.
//!
//! [`ExactSum`] removes rounding from the accumulation entirely. It is a
//! fixed-point *superaccumulator* (Kulisch-style): a 2176-bit signed
//! fixed-point register, held as 68 × 32-bit limbs inside `i64`s so carries
//! can be deferred, spanning every bit position an `f64` can occupy
//! (2⁻¹⁰⁷⁴ … 2¹⁰²³) plus 78 bits of carry headroom. Adding an `f64` deposits
//! its 53-bit significand into at most three limbs — *exactly*, no rounding.
//! The represented value is therefore the true real-number sum of everything
//! deposited, and:
//!
//! * [`merge`](ExactSum::merge) (limb-wise addition) is exact, hence
//!   mathematically associative and commutative — **any** partition of a
//!   summand multiset into shards, merged in **any** order, reproduces the
//!   single accumulator state;
//! * [`value`](ExactSum::value) rounds the exact sum to the nearest `f64`
//!   (ties to even) once, so the returned bits are a pure function of the
//!   summand multiset — never of thread counts, block sizes, or shard
//!   boundaries.
//!
//! That is the determinism contract the `knnshap_core::sharding` module
//! builds on. The register is stored as a **lazily-sized window**: a fresh
//! accumulator holds no limbs at all (40 bytes), and deposits grow the
//! window only over the limb positions their magnitudes actually touch —
//! summands of similar magnitude keep it at a handful of limbs instead of
//! the full register's ~0.5 KiB (the worst case if a single accumulator
//! really mixes 2⁻¹⁰⁷⁴ with 2¹⁰²³).
//!
//! ```
//! use knnshap_numerics::exact::ExactSum;
//!
//! // Catastrophic cancellation, grouped two different ways.
//! let xs = [1.0, 1e100, 1.0, -1e100];
//! let mut whole = ExactSum::new();
//! for &x in &xs {
//!     whole.add(x);
//! }
//! let (mut left, mut right) = (ExactSum::new(), ExactSum::new());
//! left.add(xs[0]);
//! left.add(xs[1]);
//! right.add(xs[2]);
//! right.add(xs[3]);
//! left.merge(&right);
//! assert_eq!(whole.value(), 2.0);
//! assert_eq!(whole.value().to_bits(), left.value().to_bits());
//! ```
//!
//! ## The fixed-point lane of [`ExactVec`]
//!
//! A per-training-point vector adds one summand per slot per test point.
//! When the summands are fractions below 1 a 2176-bit register is
//! overkill: [`ExactVec`] keeps one `i128` per slot, an exact integer
//! multiple of 2⁻¹¹⁴, and allocates the registers only when some summand
//! misses it. Classification values are at most 1 in magnitude (the
//! utility lies in `[0, 1]`); regression values scale with the square of
//! the targets, so they are fractions while the targets are of order 1,
//! and large targets send most summands to the registers. A slot with a
//! register has the fixed footprint of the bare register it replaced:
//! 16 + 40 = 56 bytes (see the [`ExactSum`] layout note).
//! `docs/benchmarks.md` reports the measured lane share per workload.
//!
//! * **Eligibility.** A summand `x` enters the lane iff it is normal,
//!   `|x| < 1` and its lowest set significand bit is worth at least 2⁻¹¹⁴.
//!   Its lane value `x · 2¹¹⁴` is then a shift of the significand — an
//!   integer below 2¹¹⁴, no rounding. Everything else (zero, subnormals,
//!   `|x| ≥ 1`, finer bits, non-finite values) takes the register path.
//! * **Bound.** Every lane entry stays below 2¹²⁵ in magnitude. A deposit
//!   (< 2¹¹⁴) or a merge (< 2¹²⁵) that would reach the bound moves that one
//!   entry into its slot's register instead — exactly, as four 32-bit
//!   chunks; the sum of two in-bound terms stays below 2¹²⁶, so no `i128`
//!   ever overflows. The check is per slot, so one busy slot never flushes
//!   the others.
//! * **Limb alignment.** 2⁻¹¹⁴ is the weight of register bit 960 = 30·32,
//!   so lane bit `p` is register bit `960 + p`, in limb `30 + p/32`, and an
//!   entry below 2¹²⁵ spans limbs 30..33.
//!
//! Slot `i`'s exact sum is `lane[i] · 2⁻¹¹⁴` plus its register, and the
//! split between the two is invisible in every output:
//!
//! * `value` of a slot with a blank register is `(v as f64) · 2⁻¹¹⁴`. The
//!   integer-to-float `as` rounds to nearest, ties to even, and the
//!   power-of-two scale is exact (the result is zero or at least 2⁻¹¹⁴ in
//!   magnitude, far from subnormals), so it is the register's own rounding
//!   of the same sum. With a register, the lane entry is folded into the
//!   register's canonical form before rounding.
//! * `encode_into` writes the same canonical record as a register holding
//!   the sum: a lane entry's sign and magnitude limbs come straight from
//!   the `i128`, trimmed to its nonzero limbs.
//! * `decode_from` puts a record back in the lane when it has no special,
//!   its window lies in limbs 30..33 and it is below 2¹²⁵; any other record
//!   becomes a register. Shard files therefore keep their bytes whichever
//!   storage wrote or reads them.
//!
//! The scale and bound are fixed by this argument, not tuning knobs.

/// Bits per limb window. Limbs are kept in `i64`s so up to
/// [`PENDING_MAX`] deposits can accumulate before a carry sweep.
const LIMB_BITS: u32 = 32;

/// Number of limbs: bit positions `p ∈ 0..68·32` with weight `2^(p − 1074)`,
/// i.e. 2⁻¹⁰⁷⁴ (the least subnormal) up to 2¹¹⁰¹ — 78 bits of headroom above
/// the largest finite `f64` (< 2¹⁰²⁴), so ~2⁷⁸ maximal-magnitude deposits
/// would be needed to overflow the register.
const LIMBS: usize = 68;

/// Carry sweep threshold. Each deposit moves a limb by `< 2³²`, so limbs stay
/// well inside `i64` as long as at most `2²⁹` deposits (or merges of swept
/// accumulators) happen between sweeps: `2²⁹ · 2³² = 2⁶¹ < 2⁶³`, and a merge
/// of two accumulators each below the threshold stays `< 2⁶²`.
const PENDING_MAX: u32 = 1 << 29;

const LIMB_MASK: i64 = 0xFFFF_FFFF;

/// An exact accumulator for `f64` summands.
///
/// ### Determinism contract
///
/// The state represents the *exact* real sum of every finite summand ever
/// [`add`](Self::add)ed (plus an `f64`-semantics side channel for nonfinite
/// summands). [`merge`](Self::merge) is exact, so the state — and therefore
/// [`value`](Self::value), the correctly-rounded (nearest, ties-to-even)
/// `f64` — depends only on the **multiset** of summands: any grouping of the
/// summands into partial accumulators, merged in any order, yields
/// bitwise-identical results.
///
/// Nonfinite summands (`±inf`, NaN) are folded through ordinary `f64`
/// addition in a side register and dominate [`value`](Self::value), so
/// overflow/invalid propagation matches what a plain `f64` loop would report.
///
/// ### Windowed storage
///
/// Only the contiguous limb window the deposits have touched is
/// materialized: `limbs[i]` carries weight `2^(32·(start + i) − 1074)`, and
/// positions outside `start .. start + limbs.len()` are implicitly zero. A
/// fresh accumulator allocates nothing; the window grows (and, after carry
/// sweeps, shrinks back) to the magnitude range actually in use. The value
/// represented is independent of the window bounds, so none of the
/// determinism contract depends on them.
///
/// The carry past the register and the nonfinite side channel are almost
/// never used, so they live behind one box: an accumulator is 40 bytes, and
/// an [`ExactVec`] slot with a register (16-byte lane entry plus register)
/// has the 56-byte fixed size a bare register had before the lane existed.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Signed limb window; entry `i` carries `limbs[i] · 2^(32·(start+i) − 1074)`.
    limbs: Vec<i64>,
    /// Top carry and specials; `None` until either is needed.
    rare: Option<Box<Rare>>,
    /// Deposits/merges since the last carry sweep.
    pending: u32,
    /// Limb index (in the full 68-limb register) of `limbs[0]`.
    start: u16,
}

/// The rarely used part of an [`ExactSum`].
#[derive(Debug, Clone, Default)]
struct Rare {
    /// Carry out of the top limb (kept separately so sweeps never lose bits).
    top: i64,
    /// `f64`-folded nonfinite summands, once any arrived.
    special: Option<f64>,
}

/// Decoding failures for [`ExactSum::decode_from`] /
/// [`ExactVec::decode_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exact-accumulator decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl ExactSum {
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit one summand. Exact for finite `x` (including subnormals);
    /// `±0.0` is a no-op; nonfinite `x` folds into the special register.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            self.add_special(x);
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        // value = ±m · 2^(shift − 1074)
        let (m, shift) = if exp == 0 {
            (frac, 0u32)
        } else {
            (frac | (1u64 << 52), exp - 1)
        };
        let li = (shift / LIMB_BITS) as usize;
        let bo = shift % LIMB_BITS;
        // 53 significand bits shifted by < 32 span at most 85 bits = 3 limbs.
        let wide = (m as u128) << bo;
        let c0 = (wide as u64 & LIMB_MASK as u64) as i64;
        let c1 = ((wide >> 32) as u64 & LIMB_MASK as u64) as i64;
        let c2 = (wide >> 64) as i64;
        let o = self.ensure_window(li, li + 3);
        if bits >> 63 == 0 {
            self.limbs[o] += c0;
            self.limbs[o + 1] += c1;
            self.limbs[o + 2] += c2;
        } else {
            self.limbs[o] -= c0;
            self.limbs[o + 1] -= c1;
            self.limbs[o + 2] -= c2;
        }
        self.bump_pending(1);
    }

    /// Fold a nonfinite summand into the special side channel with `f64`
    /// addition.
    fn add_special(&mut self, x: f64) {
        let rare = self.rare.get_or_insert_with(Box::default);
        rare.special = Some(rare.special.map_or(x, |s| s + x));
    }

    fn top(&self) -> i64 {
        self.rare.as_ref().map_or(0, |r| r.top)
    }

    fn special(&self) -> Option<f64> {
        self.rare.as_ref().and_then(|r| r.special)
    }

    /// Grow the window (if needed) to cover limb positions `lo..hi` of the
    /// full register, returning `lo`'s offset inside the window.
    fn ensure_window(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi && hi <= LIMBS);
        if self.limbs.is_empty() {
            self.start = lo as u16;
            self.limbs.resize(hi - lo, 0);
            return 0;
        }
        if lo < self.start as usize {
            let grow = self.start as usize - lo;
            self.limbs.splice(0..0, std::iter::repeat(0).take(grow));
            self.start = lo as u16;
        }
        let start = self.start as usize;
        if hi > start + self.limbs.len() {
            self.limbs.resize(hi - start, 0);
        }
        lo - start
    }

    /// Number of limbs currently materialized — the lazily-sized window's
    /// footprint (each limb is 8 bytes). A fresh accumulator reports 0; the
    /// full register would be 68.
    pub fn window_limbs(&self) -> usize {
        self.limbs.len()
    }

    /// Fold another accumulator in. Exact: limb-wise integer addition over
    /// the union of the two windows, so the result represents the sum of
    /// both exact states regardless of how the summands were originally
    /// grouped.
    pub fn merge(&mut self, other: &ExactSum) {
        if !other.limbs.is_empty() {
            let lo = other.start as usize;
            let o = self.ensure_window(lo, lo + other.limbs.len());
            for (i, &b) in other.limbs.iter().enumerate() {
                self.limbs[o + i] += b;
            }
        }
        if let Some(rare) = &other.rare {
            if rare.top != 0 {
                self.rare.get_or_insert_with(Box::default).top += rare.top;
            }
            if let Some(special) = rare.special {
                self.add_special(special);
            }
        }
        self.bump_pending(other.pending.saturating_add(1));
    }

    #[inline]
    fn bump_pending(&mut self, by: u32) {
        self.pending = self.pending.saturating_add(by);
        if self.pending >= PENDING_MAX {
            self.sweep_carries();
        }
    }

    /// Bound the window's limbs again: each becomes a **signed** residue in
    /// `(−2³¹, 2³¹)` with the quotient carried upward, so a negative sum
    /// stays local to its window instead of rippling borrow limbs across the
    /// whole register (the strict nonnegative form is only materialized
    /// transiently, in [`canonical`](Self::canonical)). A carry past the
    /// window's top extends the window; one past the register goes to `top`.
    /// Trailing/leading zero limbs are trimmed, so sweeps also *shrink*
    /// windows that cancellation has emptied.
    fn sweep_carries(&mut self) {
        let mut carry = 0i64;
        for l in &mut self.limbs {
            let v = *l + carry;
            let mut r = v & LIMB_MASK;
            if r >= 1 << 31 {
                r -= 1 << LIMB_BITS;
            }
            carry = (v - r) >> LIMB_BITS;
            *l = r;
        }
        while carry != 0 && self.start as usize + self.limbs.len() < LIMBS {
            let v = carry;
            let mut r = v & LIMB_MASK;
            if r >= 1 << 31 {
                r -= 1 << LIMB_BITS;
            }
            carry = (v - r) >> LIMB_BITS;
            self.limbs.push(r);
        }
        if carry != 0 {
            self.rare.get_or_insert_with(Box::default).top += carry;
        }
        while let Some(0) = self.limbs.last() {
            self.limbs.pop();
        }
        let lead = self.limbs.iter().take_while(|&&l| l == 0).count();
        if lead > 0 {
            self.limbs.drain(..lead);
            self.start += lead as u16;
        }
        if self.limbs.is_empty() {
            self.start = 0;
        }
        self.pending = 0;
    }

    /// Canonical sign/magnitude form: `(sign, limbs)` with every magnitude
    /// limb in `[0, 2³²)`, materialized over the **full** register (the
    /// windowed state is only a storage optimization). `sign = 0` iff the
    /// exact sum is zero. A `top` residue that survives canonicalization
    /// means the sum left the register's range (≥ 2¹¹⁰¹ in magnitude); it is
    /// mapped to a saturated sign reported by the boolean.
    ///
    /// `lane` is an extra exact term `lane · 2⁻¹¹⁴` (an [`ExactVec`] slot's
    /// fixed-point entry) folded in before the sweep, so a slot's register
    /// and lane canonicalize together without materializing their sum.
    fn canonical(&self, lane: i128) -> (i8, [i64; LIMBS], bool) {
        let mut full = [0i64; LIMBS];
        for (i, &l) in self.limbs.iter().enumerate() {
            full[self.start as usize + i] = l;
        }
        for (k, c) in lane_chunks(lane).into_iter().enumerate() {
            full[LANE_LIMB + k] += c;
        }
        // Strict sweep: every limb to [0, 2³²), signed residue to `top`.
        let mut top = self.top();
        let mut carry = 0i64;
        for l in &mut full {
            let v = *l + carry;
            let r = v & LIMB_MASK;
            carry = (v - r) >> LIMB_BITS;
            *l = r;
        }
        top += carry;
        if top == 0 {
            let zero = full.iter().all(|&l| l == 0);
            return (if zero { 0 } else { 1 }, full, false);
        }
        if top > 0 {
            // Beyond 2^1101: saturate positive (unreachable without ~2^78
            // max-magnitude deposits, but defined behavior regardless).
            return (1, full, true);
        }
        // Negative: magnitude = two's-complement negate over base-2³² digits.
        let mut mag = [0i64; LIMBS];
        let mut carry = 1i64;
        for (m, &l) in mag.iter_mut().zip(&full) {
            let v = (LIMB_MASK - l) + carry;
            *m = v & LIMB_MASK;
            carry = v >> LIMB_BITS;
        }
        let mag_top = -top - 1 + carry;
        if mag_top != 0 {
            return (-1, mag, true);
        }
        (-1, mag, false)
    }

    /// The exact sum rounded once to the nearest `f64` (ties to even), or
    /// the `f64`-folded nonfinite result if any nonfinite summand arrived.
    pub fn value(&self) -> f64 {
        self.value_with(0)
    }

    /// [`value`](Self::value) of this register plus the lane term
    /// `lane · 2⁻¹¹⁴`.
    fn value_with(&self, lane: i128) -> f64 {
        let finite = self.finite_value(lane);
        match self.special() {
            Some(special) => finite + special,
            None => finite,
        }
    }

    fn finite_value(&self, lane: i128) -> f64 {
        let (sign, mag, saturated) = self.canonical(lane);
        if saturated {
            return if sign > 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        if sign == 0 {
            return 0.0;
        }
        // Highest nonzero limb and overall MSB position.
        let h = match (0..LIMBS).rev().find(|&i| mag[i] != 0) {
            Some(h) => h,
            None => return 0.0,
        };
        let msb_in_limb = 63 - (mag[h] as u64).leading_zeros() as usize; // < 32
        let p = h * LIMB_BITS as usize + msb_in_limb;
        let signf = if sign > 0 { 1.0 } else { -1.0 };
        if p <= 52 {
            // The whole magnitude fits below bit 53: it is an exact
            // subnormal or small normal, m · 2⁻¹⁰⁷⁴ with m < 2⁵³ — which is
            // precisely `f64::from_bits(m)`.
            let m = (mag[0] as u64) | ((mag[1] as u64) << 32);
            return signf * f64::from_bits(m);
        }
        // General case: take the 53 bits below the MSB, round by guard +
        // sticky. Gather a 96-bit window of the top three limbs.
        let limb = |i: isize| -> u128 {
            if i < 0 {
                0
            } else {
                mag[i as usize] as u128
            }
        };
        let hi = h as isize;
        let w: u128 = (limb(hi) << 64) | (limb(hi - 1) << 32) | limb(hi - 2);
        // MSB of `w` sits at bit q = p − 32·(h−2); q ∈ [64, 95].
        let q = (p as isize - 32 * (hi - 2)) as u32;
        let m53 = (w >> (q - 52)) as u64; // 53 bits, MSB set
        let guard = (w >> (q - 53)) & 1 == 1;
        let mut sticky = w & ((1u128 << (q - 53)) - 1) != 0;
        if !sticky {
            sticky = (0..(hi - 2).max(0) as usize).any(|i| mag[i] != 0);
        }
        let mut mantissa = m53;
        // Unbiased exponent of the MSB: p − 1074; biased: p − 51.
        let mut biased = p as i64 - 51;
        if guard && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1u64 << 53 {
                mantissa >>= 1;
                biased += 1;
            }
        }
        if biased >= 0x7FF {
            return signf * f64::INFINITY;
        }
        let bits =
            ((sign < 0) as u64) << 63 | (biased as u64) << 52 | (mantissa & ((1u64 << 52) - 1));
        f64::from_bits(bits)
    }

    /// True iff no summand has ever been deposited (or they cancelled to an
    /// exact zero) and no nonfinite summand arrived.
    pub fn is_zero(&self) -> bool {
        self.special().is_none() && self.canonical(0).0 == 0
    }

    /// Append the canonical serialized record (little-endian):
    ///
    /// ```text
    /// sign: i8          // −1, 0, +1; 2/−2 when a nonfinite special follows
    /// [special: f64 bits, only when |sign| == 2]
    /// start: u16        // first nonzero magnitude limb (0 when sign == 0)
    /// len:   u16        // nonzero-window length in limbs
    /// limbs: u32 × len  // magnitude limbs, canonical [0, 2³²)
    /// ```
    ///
    /// The record is a pure function of the exact sum (canonicalized before
    /// writing), so equal sums — however they were grouped or ordered —
    /// serialize to identical bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_with(0, out);
    }

    /// [`encode_into`](Self::encode_into) of this register plus the lane
    /// term `lane · 2⁻¹¹⁴`.
    fn encode_with(&self, lane: i128, out: &mut Vec<u8>) {
        let (sign, mag, saturated) = self.canonical(lane);
        debug_assert!(!saturated, "saturated ExactSum cannot be serialized");
        let first = (0..LIMBS).find(|&i| mag[i] != 0);
        let (start, len) = match first {
            None => (0usize, 0usize),
            Some(f) => {
                let last = (0..LIMBS).rev().find(|&i| mag[i] != 0).unwrap();
                (f, last - f + 1)
            }
        };
        // A special always forces code ±2 (even over a zero finite part, so
        // the decoder knows to read the special field); a negative-or-zero
        // magnitude under code +2 is fine — the sign only scales the limbs.
        let special = self.special();
        let sign_code = if special.is_some() {
            if sign < 0 {
                -2
            } else {
                2
            }
        } else {
            sign
        };
        out.push(sign_code as u8);
        if let Some(special) = special {
            out.extend_from_slice(&special.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(start as u16).to_le_bytes());
        out.extend_from_slice(&(len as u16).to_le_bytes());
        for &l in &mag[start..start + len] {
            out.extend_from_slice(&(l as u32).to_le_bytes());
        }
    }

    /// Decode one record written by [`encode_into`](Self::encode_into),
    /// advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<ExactSum, DecodeError> {
        Record::read(buf, pos).map(|r| r.into_sum())
    }

    /// Deposit the lane term `v · 2⁻¹¹⁴` (`|v| < 2¹²⁶`) exactly: four
    /// 32-bit chunks into limbs `30..34`, each no larger than one
    /// [`add`](Self::add) deposit's, so it counts as one pending deposit.
    fn add_lane(&mut self, v: i128) {
        let o = self.ensure_window(LANE_LIMB, LANE_LIMB + LANE_LIMBS);
        for (k, c) in lane_chunks(v).into_iter().enumerate() {
            self.limbs[o + k] += c;
        }
        self.bump_pending(1);
    }

    /// True iff nothing was ever deposited: no limbs, no carry, no special.
    /// Such a register contributes nothing to its [`ExactVec`] slot.
    fn is_blank(&self) -> bool {
        self.limbs.is_empty() && self.top() == 0 && self.special().is_none()
    }
}

/// One serialized accumulator record (see [`ExactSum::encode_into`]),
/// validated but not yet placed in a register or a lane.
struct Record<'a> {
    sign: i8,
    special: Option<f64>,
    start: usize,
    /// `len` little-endian `u32` magnitude limbs.
    limbs: &'a [u8],
}

impl<'a> Record<'a> {
    fn read(buf: &'a [u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let take = |pos: &mut usize, n: usize| -> Result<&'a [u8], DecodeError> {
            let s = buf
                .get(*pos..*pos + n)
                .ok_or(DecodeError("record truncated"))?;
            *pos += n;
            Ok(s)
        };
        // Validate the raw byte before any signed arithmetic (0x80 would
        // overflow `i8::abs`): the only legal encodings are 0, ±1 and ±2
        // (0xFE/0xFF as two's complement).
        let (sign, has_special) = match take(pos, 1)?[0] {
            0x00 => (0i8, false),
            0x01 => (1, false),
            0xFF => (-1, false),
            0x02 => (1, true),
            0xFE => (-1, true),
            _ => return Err(DecodeError("bad sign byte")),
        };
        let special = if has_special {
            Some(f64::from_bits(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            )))
        } else {
            None
        };
        let start = u16::from_le_bytes(take(pos, 2)?.try_into().expect("2 bytes")) as usize;
        let len = u16::from_le_bytes(take(pos, 2)?.try_into().expect("2 bytes")) as usize;
        if start + len > LIMBS {
            return Err(DecodeError("limb window out of range"));
        }
        if sign == 0 && len != 0 {
            return Err(DecodeError("zero sign with nonzero limbs"));
        }
        let limbs = take(pos, 4 * len)?;
        Ok(Record {
            sign,
            special,
            start,
            limbs,
        })
    }

    fn limbs(&self) -> impl Iterator<Item = u32> + 'a {
        self.limbs
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }

    fn into_sum(self) -> ExactSum {
        let mut s = ExactSum::new();
        if !self.limbs.is_empty() {
            s.start = self.start as u16;
            s.limbs = self
                .limbs()
                .map(|l| if self.sign < 0 { -(l as i64) } else { l as i64 })
                .collect();
            // Decoded limbs reach 2³² − 1 in magnitude (two sweeps' worth of
            // the post-sweep bound), so account for them in the overflow
            // budget as two deposits.
            s.pending = 2;
        }
        if let Some(special) = self.special {
            s.add_special(special);
        }
        s
    }

    /// The record as an [`ExactVec`] lane entry, when it is one: no special,
    /// window inside limbs `30..34`, magnitude below the lane bound.
    fn lane(&self) -> Option<i128> {
        if self.special.is_some() {
            return None;
        }
        if self.limbs.is_empty() {
            return Some(0);
        }
        if self.start < LANE_LIMB {
            return None;
        }
        let base = self.start - LANE_LIMB;
        if base + self.limbs.len() / 4 > LANE_LIMBS {
            return None;
        }
        let mut mag = 0u128;
        for (k, l) in self.limbs().enumerate() {
            mag |= (l as u128) << (LIMB_BITS as usize * (base + k));
        }
        if mag >= LANE_BOUND {
            return None;
        }
        Some(if self.sign < 0 {
            -(mag as i128)
        } else {
            mag as i128
        })
    }
}

/// Register limb holding bit 0 of an [`ExactVec`] lane entry: limb 30 starts
/// at bit position 960, weight `2^(960 − 1074) = 2⁻¹¹⁴`.
const LANE_LIMB: usize = 30;

/// Register limbs a lane entry (and a lane spill) spans: 4 × 32 = 128 bits.
const LANE_LIMBS: usize = 4;

/// Exclusive bound on a lane entry's magnitude. A lane deposit is below
/// 2¹¹⁴ and a merged entry below 2¹²⁵, so any sum of two stays below 2¹²⁶
/// — no `i128` overflow before the bound check spills it.
const LANE_BOUND: u128 = 1 << 125;

/// `2⁻¹¹⁴`, the weight of lane bit 0.
const LANE_ULP: f64 = 1.0 / (1u128 << 114) as f64;

/// `x` as an exact lane entry (`x = v · 2⁻¹¹⁴`), or `None` when `x` is not
/// one: zero, subnormal, `|x| ≥ 1`, non-finite, or a set significand bit
/// below 2⁻¹¹⁴.
#[inline]
fn lane_of(x: f64) -> Option<i128> {
    let bits = x.to_bits();
    // Normal with |x| < 1: biased exponent in 1..=1022.
    let exp = ((bits >> 52) & 0x7FF) as i32;
    if exp == 0 || exp >= 1023 {
        return None;
    }
    let m = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    // x = ±m · 2^(exp − 1075) = ±m · 2^(exp − 961) · 2⁻¹¹⁴, and the shift
    // is at most 1022 − 961 = 61, so v < 2⁵³⁺⁶¹ = 2¹¹⁴.
    let shift = exp - 961;
    let mag = if shift >= 0 {
        (m as i128) << shift
    } else {
        // The significand keeps bit 52 set, so it cannot lose more than 52
        // zero bits; dropping any set bit would round.
        let drop = (-shift) as u32;
        if drop > 52 || m & ((1u64 << drop) - 1) != 0 {
            return None;
        }
        (m >> drop) as i128
    };
    Some(if bits >> 63 == 0 { mag } else { -mag })
}

/// A lane term split into four signed 32-bit chunks for limbs `30..34`.
#[inline]
fn lane_chunks(v: i128) -> [i64; LANE_LIMBS] {
    let mag = v.unsigned_abs();
    std::array::from_fn(|k| {
        let c = ((mag >> (LIMB_BITS as usize * k)) as u64 & LIMB_MASK as u64) as i64;
        if v < 0 {
            -c
        } else {
            c
        }
    })
}

/// A lane entry's canonical record — byte for byte what
/// [`ExactSum::encode_into`] writes for a register holding the same sum.
/// This is the record format's second writer: the proptest
/// `exact_vec_lane_matches_per_slot_reference` keeps it byte-equal to
/// `encode_with`, so a format change must update both.
fn encode_lane(v: i128, out: &mut Vec<u8>) {
    if v == 0 {
        out.extend_from_slice(&[0, 0, 0, 0, 0]);
        return;
    }
    let mag = v.unsigned_abs();
    let lo = (mag.trailing_zeros() / LIMB_BITS) as usize;
    let hi = ((127 - mag.leading_zeros()) / LIMB_BITS) as usize;
    out.push(if v < 0 { 0xFF } else { 0x01 });
    out.extend_from_slice(&((LANE_LIMB + lo) as u16).to_le_bytes());
    out.extend_from_slice(&((hi - lo + 1) as u16).to_le_bytes());
    for k in lo..=hi {
        out.extend_from_slice(&((mag >> (LIMB_BITS as usize * k)) as u32).to_le_bytes());
    }
}

/// A vector of exact accumulators — one per training point.
///
/// Carries the same determinism contract as the scalar: the materialized
/// [`values`](Self::values) depend only on the multiset of `(index, summand)`
/// deposits, never on their order or on how deposits were split across
/// merged partial vectors. This is the state the sharded valuation runtime
/// serializes into shard files.
///
/// ### Fixed-point lane
///
/// Slot `i`'s exact sum is `lane[i] · 2⁻¹¹⁴` plus its [`ExactSum`]
/// register. Summands that are exact multiples of 2⁻¹¹⁴ below 1 in
/// magnitude are integer-added into the lane; the registers are allocated
/// only when some summand misses it (see the module docs for the rule, the
/// bound and why `value` and `encode_into` are unchanged by the split).
#[derive(Debug, Clone)]
pub struct ExactVec {
    /// Fixed-point entries `v · 2⁻¹¹⁴`, each `|v| < 2¹²⁵`.
    lane: Vec<i128>,
    /// Per-slot registers for what the lane cannot hold; empty until the
    /// first miss, then one per slot.
    regs: Vec<ExactSum>,
}

impl ExactVec {
    /// `n` zeroed accumulators.
    pub fn zeros(n: usize) -> Self {
        Self {
            lane: vec![0; n],
            regs: Vec::new(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.lane.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty()
    }

    /// Slot `i`'s register, allocating the register vector on first use.
    fn reg(&mut self, i: usize) -> &mut ExactSum {
        if self.regs.is_empty() {
            self.regs = vec![ExactSum::default(); self.lane.len()];
        }
        &mut self.regs[i]
    }

    /// Add the lane term `v` (`|v| < 2¹²⁵`) to slot `i`; an entry that
    /// would reach the bound moves into the slot's register instead.
    #[inline]
    fn lane_add(&mut self, i: usize, v: i128) {
        let t = self.lane[i] + v;
        if t.unsigned_abs() < LANE_BOUND {
            self.lane[i] = t;
        } else {
            self.lane[i] = 0;
            self.reg(i).add_lane(t);
        }
    }

    /// Deposit `x` into accumulator `i`.
    #[inline]
    pub fn add(&mut self, i: usize, x: f64) {
        if x == 0.0 {
            return;
        }
        match lane_of(x) {
            Some(v) => self.lane_add(i, v),
            None => self.reg(i).add(x),
        }
    }

    /// Deposit a dense per-point vector (`xs[i]` into accumulator `i`);
    /// zero entries cost one branch. Panics on length mismatch.
    pub fn add_dense(&mut self, xs: &[f64]) {
        assert_eq!(self.len(), xs.len(), "length mismatch");
        for (i, &x) in xs.iter().enumerate() {
            self.add(i, x);
        }
    }

    /// Fold one scalar accumulator into slot `i` (exact).
    pub fn merge_scalar(&mut self, i: usize, s: &ExactSum) {
        self.reg(i).merge(s);
    }

    /// Element-wise exact merge. Panics on length mismatch.
    pub fn merge(&mut self, other: &ExactVec) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        if self.regs.is_empty() {
            self.regs.clone_from(&other.regs);
        } else {
            for (a, b) in self.regs.iter_mut().zip(&other.regs) {
                if !b.is_blank() {
                    a.merge(b);
                }
            }
        }
        for (i, &v) in other.lane.iter().enumerate() {
            if v != 0 {
                self.lane_add(i, v);
            }
        }
    }

    /// Rounded total of accumulator `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        match self.regs.get(i) {
            Some(r) if !r.is_blank() => r.value_with(self.lane[i]),
            // `as` rounds the integer to nearest, ties to even, and the
            // power-of-two scale is exact (the result is 0 or ≥ 2⁻¹¹⁴ in
            // magnitude): the register's rounding of the same sum.
            _ => self.lane[i] as f64 * LANE_ULP,
        }
    }

    /// Materialize every rounded total.
    pub fn values(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Total materialized limbs across all registers — the footprint of
    /// the lazily-sized windows (8 bytes per limb) on top of the lane's 16
    /// bytes per slot. `zeros(n)` reports 0.
    pub fn window_limbs(&self) -> usize {
        self.regs.iter().map(ExactSum::window_limbs).sum()
    }

    /// Append every accumulator's canonical record (see
    /// [`ExactSum::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for (i, &v) in self.lane.iter().enumerate() {
            match self.regs.get(i) {
                Some(r) if !r.is_blank() => r.encode_with(v, out),
                _ => encode_lane(v, out),
            }
        }
    }

    /// Decode `n` records, advancing `pos`. Every record is at least 5
    /// bytes, so an `n` the rest of `buf` cannot hold is refused before
    /// anything is allocated.
    pub fn decode_from(buf: &[u8], pos: &mut usize, n: usize) -> Result<ExactVec, DecodeError> {
        if n > buf.len().saturating_sub(*pos) / 5 {
            return Err(DecodeError("record count exceeds the remaining bytes"));
        }
        let mut v = ExactVec::zeros(n);
        for i in 0..n {
            let r = Record::read(buf, pos)?;
            match r.lane() {
                Some(x) => v.lane[i] = x,
                None => *v.reg(i) = r.into_sum(),
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sum_of(xs: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    #[test]
    fn single_summand_roundtrips_bitwise() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.25e-7,
            f64::MIN_POSITIVE,          // least normal
            f64::from_bits(1),          // least subnormal
            f64::from_bits(0xFFF_FFFF), // random subnormal
            f64::MAX,
            f64::MIN,
            1.2345678901234567e300,
            -9.87e-310,
        ];
        for &x in &cases {
            let got = sum_of(&[x]).value();
            // ±0.0 both come back as +0.0 (an exact zero has no sign).
            if x == 0.0 {
                assert_eq!(got.to_bits(), 0.0f64.to_bits(), "x={x:?}");
            } else {
                assert_eq!(got.to_bits(), x.to_bits(), "x={x:?}");
            }
        }
    }

    #[test]
    fn classic_cancellation_is_exact() {
        assert_eq!(sum_of(&[1.0, 1e100, 1.0, -1e100]).value(), 2.0);
        assert_eq!(sum_of(&[1e308, -1e308, 1e-308, -1e-308]).value(), 0.0);
        // Ten copies of fl(0.1) = 7205759403792794·2⁻⁵⁶ sum exactly to
        // 1 + 2⁻⁵⁴, which correctly rounds to 1.0 — what `math.fsum` reports,
        // and what a naive f64 chain famously does not (0.9999999999999999).
        assert_eq!(sum_of(&[0.1; 10]).value(), 1.0);
    }

    #[test]
    fn matches_i128_reference_on_bounded_exponents() {
        // Summands m · 2^e with m ∈ ±[0, 2³²), e ∈ [0, 60): the exact sum
        // fits an i128, whose `as f64` conversion is correctly rounded.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let xs: Vec<(i128, f64)> = (0..50)
                .map(|_| {
                    let m = rng.gen_range(-(1i64 << 32)..(1i64 << 32)) as i128;
                    let e = rng.gen_range(0..60u32);
                    (m << e, (m as f64) * (2.0f64).powi(e as i32))
                })
                .collect();
            let exact_int: i128 = xs.iter().map(|&(i, _)| i).sum();
            let s = sum_of(&xs.iter().map(|&(_, f)| f).collect::<Vec<_>>());
            assert_eq!(
                s.value().to_bits(),
                (exact_int as f64).to_bits(),
                "exact_int={exact_int}"
            );
        }
    }

    #[test]
    fn ties_round_to_even() {
        let two53 = 9007199254740992.0; // 2^53
                                        // 2^53 + 1 is exactly halfway, LSB even → stays 2^53.
        assert_eq!(sum_of(&[two53, 1.0]).value(), two53);
        // 2^53 + 3 is halfway between 2^53+2 and 2^53+4 → rounds to +4.
        assert_eq!(sum_of(&[two53, 3.0]).value(), two53 + 4.0);
        // 2^53 + 1 + tiny is above halfway → rounds up.
        assert_eq!(sum_of(&[two53, 1.0, 1e-30]).value(), two53 + 2.0);
        // Negative mirror.
        assert_eq!(sum_of(&[-two53, -1.0]).value(), -two53);
        assert_eq!(sum_of(&[-two53, -3.0]).value(), -(two53 + 4.0));
    }

    #[test]
    fn mantissa_carry_on_rounding() {
        let below_two = 2.0 - 2.0f64.powi(-52); // predecessor of 2.0
                                                // (2 − 2⁻⁵²) + 2⁻⁵⁴ = 2 − 3·2⁻⁵⁴ is below the halfway point → down.
        assert_eq!(sum_of(&[below_two, 2.0f64.powi(-54)]).value(), below_two);
        // (2 − 2⁻⁵²) + 2⁻⁵³ = 2 − 2⁻⁵³ is exactly halfway; ties-to-even
        // carries the mantissa across the binade boundary to exactly 2.0.
        assert_eq!(sum_of(&[below_two, 2.0f64.powi(-53)]).value(), 2.0);
    }

    #[test]
    fn subnormal_arithmetic_is_exact() {
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(sum_of(&[tiny, tiny, tiny]).value(), f64::from_bits(3));
        assert_eq!(sum_of(&[tiny, -tiny]).value(), 0.0);
        // Crossing from subnormal into normal range.
        let almost = f64::MIN_POSITIVE - tiny;
        assert_eq!(sum_of(&[almost, tiny]).value(), f64::MIN_POSITIVE);
    }

    #[test]
    fn overflow_saturates_like_f64() {
        let s = sum_of(&[f64::MAX, f64::MAX]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = sum_of(&[f64::MIN, f64::MIN]);
        assert_eq!(s.value(), f64::NEG_INFINITY);
        // …but unlike f64, intermediate overflow that cancels is recovered.
        assert_eq!(
            sum_of(&[f64::MAX, f64::MAX, -f64::MAX, -f64::MAX]).value(),
            0.0
        );
    }

    #[test]
    fn nonfinite_summands_propagate() {
        assert_eq!(sum_of(&[1.0, f64::INFINITY]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[f64::NEG_INFINITY, 5.0]).value(), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).value().is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).value().is_nan());
        // Specials survive a merge.
        let mut a = sum_of(&[1.0]);
        a.merge(&sum_of(&[f64::INFINITY]));
        assert_eq!(a.value(), f64::INFINITY);
    }

    #[test]
    fn order_and_grouping_invariance_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..50 {
            // Wildly mixed magnitudes, signs, and a few exact duplicates.
            let mut xs: Vec<f64> = (0..120)
                .map(|_| {
                    let m: f64 = rng.gen_range(-1.0..1.0);
                    let e: i32 = rng.gen_range(-80..80);
                    m * (2.0f64).powi(e)
                })
                .collect();
            let reference = sum_of(&xs).value();

            // Shuffle, then split into a random number of contiguous groups,
            // sum each group independently, merge in a random order.
            knnshap_numerics_shuffle(&mut rng, &mut xs);
            let k = rng.gen_range(1..10usize);
            let mut parts: Vec<ExactSum> = xs.chunks(xs.len().div_ceil(k)).map(sum_of).collect();
            knnshap_numerics_shuffle(&mut rng, &mut parts);
            let mut total = ExactSum::new();
            for p in &parts {
                total.merge(p);
            }
            assert_eq!(
                total.value().to_bits(),
                reference.to_bits(),
                "round={round}"
            );
        }
    }

    /// Local Fisher–Yates so this module doesn't depend on `sampling`.
    fn knnshap_numerics_shuffle<R: Rng, T>(rng: &mut R, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    #[test]
    fn windows_are_lazy_and_stay_small_for_similar_magnitudes() {
        // A fresh accumulator materializes nothing.
        assert_eq!(ExactSum::new().window_limbs(), 0);
        assert_eq!(ExactVec::zeros(1000).window_limbs(), 0);

        // Unit-scale deposits touch a 3-limb site; thousands of them (with
        // sweeps) stay within a handful of limbs — not the full 68-limb
        // register.
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ExactSum::new();
        for _ in 0..5_000 {
            s.add(rng.gen_range(-1.0..1.0));
        }
        assert!(s.window_limbs() <= 6, "window = {}", s.window_limbs());

        // Mixing in a very different magnitude grows the window to span it…
        s.add(1e300);
        assert!(s.window_limbs() > 20, "window = {}", s.window_limbs());
        // …and the value is still the exact sum (spot check vs fresh order).
        assert!(s.value() == 1e300 || (s.value() - 1e300).abs() < 1e285);
    }

    #[test]
    fn register_plus_lane_entry_fits_a_bare_registers_old_footprint() {
        // 40 + 16 bytes: a slot that misses the lane costs what a slot did
        // when every slot was a 56-byte register.
        assert_eq!(std::mem::size_of::<ExactSum>(), 40);
    }

    #[test]
    fn sweeps_shrink_windows_emptied_by_cancellation() {
        let mut s = ExactSum::new();
        s.add(1e100);
        s.add(-1e100);
        let grown = s.window_limbs();
        assert!(grown >= 3);
        s.sweep_carries();
        assert_eq!(s.window_limbs(), 0, "cancelled window must trim to empty");
        assert!(s.is_zero());
        // And the accumulator remains fully usable afterwards.
        s.add(2.5);
        assert_eq!(s.value(), 2.5);
    }

    #[test]
    fn window_growth_covers_front_and_back_extensions() {
        // Deposit order forces both front (smaller magnitude) and back
        // (larger magnitude) window growth, plus merges across disjoint
        // windows — all must agree with a flat accumulation bitwise.
        let xs = [
            1.0,
            2.0f64.powi(-500),
            2.0f64.powi(700),
            -1.5,
            2.0f64.powi(-800),
        ];
        let whole = sum_of(&xs);
        for split in 1..xs.len() {
            let mut a = sum_of(&xs[..split]);
            a.merge(&sum_of(&xs[split..]));
            assert_eq!(
                a.value().to_bits(),
                whole.value().to_bits(),
                "split={split}"
            );
        }
    }

    #[test]
    fn many_deposits_trigger_carry_sweeps() {
        // 3·10^6 deposits of 0.1 — enough to exercise pending bookkeeping —
        // must equal the correctly-rounded exact sum. fl(0.1) = m/2^55 with
        // m = 3602879701896397; 3e6·m is exact in i128.
        let mut s = ExactSum::new();
        for _ in 0..3_000_000 {
            s.add(0.1);
        }
        let exact = (3_000_000i128 * 3602879701896397) as f64 / (2.0f64).powi(55);
        assert_eq!(s.value().to_bits(), exact.to_bits());
    }

    #[test]
    fn encode_decode_roundtrips_and_is_canonical() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let xs: Vec<f64> = (0..40)
                .map(|_| rng.gen_range(-1.0..1.0) * (2.0f64).powi(rng.gen_range(-60..60)))
                .collect();
            let a = sum_of(&xs);
            // A differently-grouped accumulation of the same multiset…
            let mut b = sum_of(&xs[..17]);
            b.merge(&sum_of(&xs[17..]));
            let (mut ba, mut bb) = (Vec::new(), Vec::new());
            a.encode_into(&mut ba);
            b.encode_into(&mut bb);
            // …serializes to identical bytes (canonical form).
            assert_eq!(ba, bb);
            let mut pos = 0;
            let back = ExactSum::decode_from(&ba, &mut pos).unwrap();
            assert_eq!(pos, ba.len(), "record length self-describes");
            assert_eq!(back.value().to_bits(), a.value().to_bits());
        }
    }

    #[test]
    fn encode_decode_zero_and_special() {
        let z = ExactSum::new();
        let mut buf = Vec::new();
        z.encode_into(&mut buf);
        assert_eq!(buf, vec![0u8, 0, 0, 0, 0]); // sign 0, start 0, len 0
        let mut pos = 0;
        assert_eq!(ExactSum::decode_from(&buf, &mut pos).unwrap().value(), 0.0);

        // A special over a ZERO finite part must still round-trip (the sign
        // code carries the special flag even when no limbs follow).
        let mut pure = ExactSum::new();
        pure.add(f64::NEG_INFINITY);
        let mut buf = Vec::new();
        pure.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactSum::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.value(), f64::NEG_INFINITY);

        let s = sum_of(&[2.5, f64::INFINITY]);
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactSum::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.value(), f64::INFINITY);
        // The finite part survives alongside the special.
        let mut minus_inf = ExactSum::new();
        minus_inf.add(f64::NEG_INFINITY);
        let mut c = back;
        c.merge(&minus_inf);
        assert!(c.value().is_nan()); // inf + (−inf) = NaN, f64 semantics
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(ExactSum::decode_from(&[], &mut 0).is_err());
        // Truncated limb payload.
        let mut buf = Vec::new();
        sum_of(&[1.5]).encode_into(&mut buf);
        buf.pop();
        assert!(ExactSum::decode_from(&buf, &mut 0).is_err());
        // Window out of range.
        let bad = [1u8, 0xFF, 0xFF, 2, 0];
        assert!(ExactSum::decode_from(&bad, &mut 0).is_err());
        // Bad sign bytes — including 0x80, whose naive `as i8` + `abs()`
        // interpretation would overflow-panic in debug builds.
        for bad_sign in [7u8, 0x80, 0xFD, 3] {
            let bad = [bad_sign, 0, 0, 0, 0];
            assert!(
                ExactSum::decode_from(&bad, &mut 0).is_err(),
                "{bad_sign:#x}"
            );
        }
        // Zero sign but nonzero window length.
        let bad = [0u8, 0, 0, 1, 0, 1, 0, 0, 0];
        assert!(ExactSum::decode_from(&bad, &mut 0).is_err());
    }

    #[test]
    fn vec_decode_refuses_counts_the_buffer_cannot_hold() {
        // Five zero records (5 bytes each) hold exactly five slots.
        let buf = [0u8; 25];
        assert_eq!(ExactVec::decode_from(&buf, &mut 0, 5).unwrap().len(), 5);
        assert!(ExactVec::decode_from(&buf, &mut 0, 6).is_err());
        // A huge count on a short buffer is refused before allocating —
        // `usize::MAX` slots could not be allocated at all.
        let mut pos = 3;
        assert!(ExactVec::decode_from(&buf, &mut pos, usize::MAX).is_err());
        assert_eq!(pos, 3, "nothing consumed");
        assert!(ExactVec::decode_from(&buf, &mut 30, 1).is_err());
    }

    #[test]
    fn vec_merge_matches_flat_accumulation() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 7;
        let deposits: Vec<(usize, f64)> = (0..500)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0) * (2.0f64).powi(rng.gen_range(-40..40)),
                )
            })
            .collect();
        let mut whole = ExactVec::zeros(n);
        for &(i, x) in &deposits {
            whole.add(i, x);
        }
        let mut left = ExactVec::zeros(n);
        let mut right = ExactVec::zeros(n);
        for &(i, x) in &deposits[..250] {
            left.add(i, x);
        }
        for &(i, x) in &deposits[250..] {
            right.add(i, x);
        }
        left.merge(&right);
        for i in 0..n {
            assert_eq!(left.value(i).to_bits(), whole.value(i).to_bits(), "i={i}");
        }
        assert_eq!(left.values(), whole.values());

        // Vector serialization round-trip.
        let mut buf = Vec::new();
        whole.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactVec::decode_from(&buf, &mut pos, n).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.values(), whole.values());
    }

    #[test]
    fn add_dense_skips_zeros_and_checks_length() {
        let mut v = ExactVec::zeros(3);
        v.add_dense(&[1.0, 0.0, -2.0]);
        v.add_dense(&[0.5, 0.0, 0.0]);
        assert_eq!(v.values(), vec![1.5, 0.0, -2.0]);
        assert!(!v.is_empty());
        assert_eq!(v.len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_merge_rejects_length_mismatch() {
        let mut a = ExactVec::zeros(2);
        a.merge(&ExactVec::zeros(3));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_dense_rejects_length_mismatch() {
        let mut a = ExactVec::zeros(2);
        a.add_dense(&[1.0; 3]);
    }
}
