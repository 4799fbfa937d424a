//! Provable WMED brackets from static interval analysis.
//!
//! For every weighted-operand value `x`, ternary constant propagation
//! ([`crate::propagate_constants`]) with the remaining inputs unknown
//! yields, per output bit, either a proven constant or "unknown" — i.e. a
//! *fixed-mask set* `S(x)` of output words that is guaranteed to contain
//! every output the circuit can produce for that `x`, whatever the free
//! operands are. The error of any achievable output against the exact
//! value `t` is therefore bracketed by
//!
//! ```text
//!   min_{z ∈ S(x)} |t − z|   ≤   |t − output|   ≤   max_{z ∈ S(x)} |t − z|
//! ```
//!
//! and summing those per-vector brackets with the task's distribution
//! weights (the exact WMED summation of `apx_metrics`) gives a provable
//! `[lo, hi]` interval around the circuit's true WMED — from per-`x`
//! facts that do not depend on the distribution, so one analysis serves
//! every distribution the candidate is bracketed under.
//!
//! The **exact range pass** sharpens both ends: it yields the exact
//! achievable min/max biased output `[amin(x), amax(x)]` per weighted
//! value, with both endpoints *achieved*. At every width the evaluator
//! enumerates it comes from one exhaustive simulation of the netlist and
//! always exists; beyond that it is the BDD pass
//! ([`crate::output_ranges`]), which exists when the netlist's planes fit
//! its node budget. Since the achievable
//! set `A(x)` satisfies `A(x) ⊆ S(x)` and `A(x) ⊆ [amin, amax]`, the
//! larger of the ternary distance and the interval distance is still a
//! valid lower term, and `max(|t − amin|, |t − amax|)` is the exact
//! upper term over the hull — so the combined bracket is never wider
//! than the ternary-only one ([`wmed_bounds_ternary`]), and strictly
//! tighter whenever the exact range cuts into the ternary set. When the
//! BDD pass runs out of budget it returns nothing and the ternary bracket
//! stands unchanged — the soundness contract below is identical either
//! way.
//!
//! # Soundness contract
//!
//! Three facts make the bracket safe to prune with:
//!
//! * the candidate set is an **over-approximation**: ternary propagation
//!   is per-gate exact but path-insensitive, so `S(x)` can only be larger
//!   than the truly achievable set — which widens the bracket, never
//!   narrows it;
//! * signed outputs are compared in **biased** space (`raw ^ top_bit`),
//!   an order isomorphism from two's-complement onto `0..2^n` that maps a
//!   fixed-mask set onto a fixed-mask set, so min/max distances stay
//!   exact integer computations on `u64`;
//! * the only floating-point steps are the final weighted sums — the same
//!   `≤ 2^20`-term f64 accumulation the evaluator itself performs, with
//!   relative error well under `2^-31`. [`WIDEN`] stretches both ends of
//!   the bracket multiplicatively by far more than that, so the returned
//!   interval contains the evaluator's reported WMED *as computed*, not
//!   just the ideal real number.

use crate::propagate_constants;
use crate::semantic::{assert_component_arity, digest_and_ranges};
use apx_arith::Operator;
use apx_dist::Pmf;
use apx_gates::Netlist;
use std::sync::{Mutex, PoisonError};

/// Relative widening applied to both ends of the bracket to absorb
/// floating-point accumulation differences between this analysis and the
/// exhaustive evaluator (each side's relative rounding error is below
/// `2^-31 ≈ 5e-10`; see the module-level soundness contract).
const WIDEN: f64 = 1e-9;

/// A provable bracket on a circuit's WMED under one distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBounds {
    /// Lower bound: the true WMED is provably `>= wmed_lo`.
    pub wmed_lo: f64,
    /// Upper bound: the true WMED is provably `<= wmed_hi`.
    pub wmed_hi: f64,
}

impl ErrorBounds {
    /// Whether `wmed` lies inside the bracket.
    #[must_use]
    pub fn contains(&self, wmed: f64) -> bool {
        self.wmed_lo <= wmed && wmed <= self.wmed_hi
    }
}

/// Provable WMED bracket of `netlist` as a `width`-bit `op` instance
/// under `pmf` — see the module docs for the algorithm and its soundness
/// contract.
///
/// # Panics
///
/// Panics if `pmf.width() != width`, if the width is unsupported, or if
/// the netlist's arity contradicts the operator contract (the same
/// conditions the exhaustive evaluator rejects).
#[must_use]
pub fn wmed_bounds(
    netlist: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    pmf: &Pmf,
) -> ErrorBounds {
    assert_eq!(pmf.width(), width, "PMF width must match the operand width");
    let weights: Vec<f64> = pmf.iter().collect();
    wmed_bounds_weighted(netlist, op, width, signed, &weights)
}

/// [`wmed_bounds`] over a raw weight table (one weight per raw operand
/// encoding) — the form the re-scoring pass already holds.
///
/// A one-shot [`BracketProfile`]: callers that bracket one netlist under
/// several distributions, or also need its digest, keep a profile
/// instead.
///
/// # Panics
///
/// Same contract as [`wmed_bounds`], with `weights.len() == 2^width` in
/// place of the PMF width check.
#[must_use]
pub fn wmed_bounds_weighted(
    netlist: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    weights: &[f64],
) -> ErrorBounds {
    BracketProfile::new(netlist, op, width, signed).bounds(weights)
}

/// The ternary-only bracket — [`wmed_bounds`] with the exact range pass
/// disabled. This is the documented fallback the full analysis degrades
/// to on budget exhaustion; it exists as a public entry point so the
/// cross-validation suite can assert the exact pass never *widens* a
/// bracket.
///
/// # Panics
///
/// Same contract as [`wmed_bounds`].
#[must_use]
pub fn wmed_bounds_ternary(
    netlist: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    pmf: &Pmf,
) -> ErrorBounds {
    assert_eq!(pmf.width(), width, "PMF width must match the operand width");
    assert_component_arity(netlist, op, width, "bracket analysis");
    let weights: Vec<f64> = pmf.iter().collect();
    BracketProfile::from_parts(netlist, op, width, signed, None, None).bounds(&weights)
}

/// Everything distribution-independent the library needs to know about
/// one candidate, from **one** analysis: its functional digest and a
/// reusable WMED-bracket profile.
///
/// The bracket of the module docs is a weighted sum of per-`x` integer
/// terms — the distance sums of the ternary candidate set `S(x)`,
/// sharpened by the exact range `[amin(x), amax(x)]` when it exists —
/// and none of those terms depends on the distribution. The profile
/// computes the digest and the exact ranges once, at construction, and
/// fills the per-`x` `(lo, hi)` sums on demand, only for the `x` a
/// weight table actually weights, caching them for the next table.
/// [`bounds`](Self::bounds) is then a weighted sum over cached rows,
/// bit-identical to [`wmed_bounds_weighted`] for the same weights.
///
/// Cost model: where the evaluator enumerates, construction is one
/// exhaustive 64-lane simulation (about 1–2 ms for a width-8
/// multiplier), which yields the digest and the ranges together and
/// keeps only those — the truth table itself is never stored. Past the
/// enumeration cap it is one BDD plane build plus the `2^width` range
/// descents, each result `None` past its node budget. Each new row is
/// one ternary propagation plus `2^free` distance terms. Everything is
/// single-threaded; rows are guarded by a mutex so a profile can be
/// shared.
#[derive(Debug)]
pub struct BracketProfile {
    netlist: Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    digest: Option<u128>,
    ranges: Option<Vec<(u64, u64)>>,
    /// Per-`x` `(lo, hi)` distance sums, [`UNSET_ROW`] until first
    /// needed; allocated by the first [`bounds`](Self::bounds) call.
    rows: Mutex<Vec<(u64, u64)>>,
}

/// Placeholder of a row not computed yet. No real row equals it: its
/// `lo` exceeds its `hi`, and real sums stay far below `u64::MAX`.
const UNSET_ROW: (u64, u64) = (u64::MAX, 0);

impl BracketProfile {
    /// Analyses `netlist` as a `width`-bit `op` instance: one exhaustive
    /// simulation, or past the evaluator's enumeration cap one BDD plane
    /// build, yields the functional digest and the exact output ranges.
    ///
    /// # Panics
    ///
    /// Panics if the width is unsupported or the netlist's arity
    /// contradicts the operator contract.
    #[must_use]
    pub fn new(netlist: &Netlist, op: Operator, width: u32, signed: bool) -> Self {
        assert_component_arity(netlist, op, width, "bracket analysis");
        let (digest, ranges) = digest_and_ranges(netlist, Some((width, signed)));
        Self::from_parts(netlist, op, width, signed, digest, ranges)
    }

    fn from_parts(
        netlist: &Netlist,
        op: Operator,
        width: u32,
        signed: bool,
        digest: Option<u128>,
        ranges: Option<Vec<(u64, u64)>>,
    ) -> Self {
        Self {
            netlist: netlist.clone(),
            op,
            width,
            signed,
            digest,
            ranges,
            rows: Mutex::new(Vec::new()),
        }
    }

    /// The functional digest — equal to [`crate::functional_digest`] of
    /// the netlist: always present at enumerable widths, `None` past them
    /// when its planes outgrow the semantic budget.
    #[must_use]
    pub fn digest(&self) -> Option<u128> {
        self.digest
    }

    /// The exact biased per-`x` output ranges the bracket is sharpened
    /// with, as [`crate::output_ranges`] defines them: always present at
    /// enumerable widths, `None` past them when the BDD range pass ran
    /// out of budget (the bracket is then the ternary one).
    #[must_use]
    pub fn ranges(&self) -> Option<&[(u64, u64)]> {
        self.ranges.as_deref()
    }

    /// The provable WMED bracket under a raw weight table — bit-identical
    /// to [`wmed_bounds_weighted`] on the same netlist and weights.
    ///
    /// # Panics
    ///
    /// Panics unless `weights.len() == 2^width`.
    #[must_use]
    pub fn bounds(&self, weights: &[f64]) -> ErrorBounds {
        assert_eq!(weights.len(), 1usize << self.width, "one weight per raw operand encoding");
        // A poisoned lock only means a row computation panicked before
        // inserting; every stored row is complete.
        let mut rows = self.rows.lock().unwrap_or_else(PoisonError::into_inner);
        rows.resize(weights.len(), UNSET_ROW);
        let (mut lo_sum, mut hi_sum) = (0.0f64, 0.0f64);
        for (x, &weight) in weights.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            if rows[x] == UNSET_ROW {
                rows[x] = self.row(x);
            }
            let (lo_acc, hi_acc) = rows[x];
            lo_sum += weight * lo_acc as f64;
            hi_sum += weight * hi_acc as f64;
        }
        let free = self.netlist.num_inputs() as u32 - self.width;
        let out_bits = self.netlist.num_outputs() as u32;
        let norm = 1.0 / ((1u64 << free) as f64 * (1u64 << out_bits) as f64);
        ErrorBounds {
            wmed_lo: (lo_sum * norm) * (1.0 - WIDEN),
            wmed_hi: (hi_sum * norm) * (1.0 + WIDEN),
        }
    }

    /// The integer `(lo, hi)` distance sums over every free-operand
    /// completion of weighted-operand value `x` — see the module docs
    /// for why combining the ternary set with the exact range is sound
    /// and never wider.
    fn row(&self, x: usize) -> (u64, u64) {
        let (op, width, signed) = (self.op, self.width, self.signed);
        let ni = self.netlist.num_inputs();
        let free = (ni - width as usize) as u32;
        let out_bits = self.netlist.num_outputs() as u32;
        let full: u64 = (1u64 << out_bits) - 1;
        let top_bit: u64 = if signed { 1u64 << (out_bits - 1) } else { 0 };
        // The weighted operand occupies enumeration bits `free..ni`,
        // which are netlist inputs `0..width` (LSB first).
        let inputs: Vec<Option<bool>> =
            (0..ni).map(|i| (i < width as usize).then_some((x >> i) & 1 == 1)).collect();
        let vals = propagate_constants(&self.netlist, &inputs);
        let (mut mask, mut val) = (0u64, 0u64);
        for (j, out) in self.netlist.outputs().iter().enumerate() {
            if let Some(bit) = vals[out.index()] {
                mask |= 1u64 << j;
                if bit {
                    val |= 1u64 << j;
                }
            }
        }
        // Move the candidate set into biased space: flipping the top bit
        // of every member either flips a fixed bit's value or permutes
        // the free combinations — a fixed-mask set either way.
        let bval = val ^ (top_bit & mask);
        let bmin = bval;
        let bmax = bval | (full & !mask);
        let exact_range = self.ranges.as_ref().map(|r| r[x]);
        let (mut lo_acc, mut hi_acc) = (0u64, 0u64);
        for f in 0..(1u64 << free) {
            let v = ((x as u64) << free) | f;
            let exact = op.exact_value(width, signed, v);
            // Biased target: `interp(raw) + 2^(n-1) = raw ^ top_bit`, and
            // the exact value of a supported operator always fits its
            // output word, so `t` lands in `0..2^out_bits`.
            let t = (exact + top_bit as i64) as u64;
            let (lo_term, hi_term) = match exact_range {
                // The achievable set A(x) lies inside `[amin, amax]` and
                // both extremes are achieved, so the distance to the
                // interval lower-bounds `min |t - z|` and the farthest
                // endpoint is *exactly* `max |t - z|` over the hull.
                // Both extremes also lie in S(x), so outside the hull
                // the interval distance is already the larger lower
                // term, and the hull's far endpoint never exceeds the
                // ternary set's: the combination is the interval term
                // outside the hull and the ternary distance inside it.
                Some((amin, amax)) => {
                    let lo = if t < amin {
                        amin - t
                    } else if t > amax {
                        t - amax
                    } else {
                        min_dist(t, mask, bval, full)
                    };
                    (lo, t.abs_diff(amin).max(t.abs_diff(amax)))
                }
                None => (min_dist(t, mask, bval, full), t.abs_diff(bmin).max(t.abs_diff(bmax))),
            };
            lo_acc += lo_term;
            hi_acc += hi_term;
        }
        (lo_acc, hi_acc)
    }
}

impl Clone for BracketProfile {
    fn clone(&self) -> Self {
        let rows = self.rows.lock().unwrap_or_else(PoisonError::into_inner).clone();
        Self {
            netlist: self.netlist.clone(),
            ranges: self.ranges.clone(),
            rows: Mutex::new(rows),
            ..*self
        }
    }
}

/// Distance from `t` to the nearest member of the fixed-mask set
/// `{z <= full : z & mask == val}` (exact, in biased/unsigned space).
fn min_dist(t: u64, mask: u64, val: u64, full: u64) -> u64 {
    if t & mask == val {
        return 0;
    }
    let up = succ_in(t, mask, val, full);
    let down = pred_in(t, mask, val, full);
    match (up, down) {
        (Some(u), Some(d)) => (u - t).min(t - d),
        (Some(u), None) => u - t,
        (None, Some(d)) => t - d,
        (None, None) => unreachable!("a fixed-mask set over a nonempty domain is nonempty"),
    }
}

/// Smallest `z >= t` with `z & mask == val` (and `z <= full`), if any.
///
/// The members are `val | s` for the submasks `s` of the free bits
/// `F = full & !mask`; `val` and `s` are disjoint, so `val | s = val + s`
/// is monotone in `s` and the successor is `val` plus the smallest
/// submask of `F` that is `>= u = t - val`. That is `u` itself when
/// `u ⊆ F`. Otherwise it raises the lowest free zero bit of `u` above
/// `u`'s highest non-free bit, keeps `u`'s (then all free) bits above
/// it and clears everything below; no such bit means no successor.
fn succ_in(t: u64, mask: u64, val: u64, full: u64) -> Option<u64> {
    if t <= val {
        return Some(val);
    }
    let free = full & !mask;
    let u = t - val;
    let fixed = u & !free;
    if fixed == 0 {
        return Some(val | u);
    }
    let above = u64::MAX.checked_shl(64 - fixed.leading_zeros()).unwrap_or(0);
    let raise = free & !u & above;
    if raise == 0 {
        return None;
    }
    let bit = 1u64 << raise.trailing_zeros();
    Some(val | (u & !(bit | (bit - 1))) | bit)
}

/// Largest `z <= t` with `z & mask == val`, via the complement map
/// `z -> z ^ full`, which reverses order and sends the set onto the
/// fixed-mask set with the same mask and complemented values.
fn pred_in(t: u64, mask: u64, val: u64, full: u64) -> Option<u64> {
    succ_in(t ^ full, mask, val ^ mask, full).map(|z| z ^ full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mask_successor_and_predecessor_are_exact() {
        // Brute-force oracle over every (mask, val, t) of a 5-bit domain.
        let full = 31u64;
        for mask in 0..=full {
            for val in 0..=full {
                if val & !mask != 0 {
                    continue;
                }
                let members: Vec<u64> = (0..=full).filter(|z| z & mask == val).collect();
                assert!(!members.is_empty());
                for t in 0..=full {
                    let up = members.iter().copied().find(|&z| z >= t);
                    let down = members.iter().copied().rev().find(|&z| z <= t);
                    assert_eq!(succ_in(t, mask, val, full), up, "succ t={t} mask={mask} val={val}");
                    assert_eq!(
                        pred_in(t, mask, val, full),
                        down,
                        "pred t={t} mask={mask} val={val}"
                    );
                    let want = members.iter().map(|&z| t.abs_diff(z)).min().unwrap();
                    assert_eq!(min_dist(t, mask, val, full), want);
                }
            }
        }
    }

    #[test]
    fn exact_seed_lower_bound_is_zero() {
        // The exact value is always in the candidate set of an exact
        // circuit, so the lower bound must be exactly zero (the upper
        // bound stays loose: with the free operand unknown, most output
        // bits are unprovable).
        for op in Operator::ALL {
            for signed in [false, true] {
                let width = 3;
                let nl = op.seed_circuit(width, signed);
                let b = wmed_bounds(&nl, op, width, signed, &Pmf::uniform(width));
                assert_eq!(b.wmed_lo, 0.0, "{op} signed={signed}");
                assert!(b.contains(0.0));
                assert!(b.wmed_hi >= 0.0);
            }
        }
    }

    #[test]
    fn fully_determined_outputs_collapse_the_bracket() {
        // A constant-zero "multiplier": every output provably stuck, so
        // lo and hi coincide (up to the deliberate widening) at the
        // analytic WMED of the all-zero circuit.
        let width = 3u32;
        let op = Operator::Mul;
        let mut b = apx_gates::NetlistBuilder::new(op.num_inputs(width));
        let zero = b.const0();
        b.outputs(&vec![zero; op.num_outputs(width)]);
        let nl = b.finish().unwrap();
        let bounds = wmed_bounds(&nl, op, width, false, &Pmf::uniform(width));
        // WMED of the all-zero circuit: sum of weight(a) * |a*b| over the
        // full enumeration, over 2^free * 2^out_bits (weight = 1/8 each).
        let mean: f64 = (0..64u64).map(|v| op.exact_value(width, false, v) as f64).sum::<f64>()
            / 8.0
            / (8.0 * 64.0);
        assert!(bounds.wmed_lo <= mean && mean <= bounds.wmed_hi);
        assert!((bounds.wmed_hi - bounds.wmed_lo) / mean < 1e-8, "{bounds:?}");
    }

    #[test]
    #[should_panic(expected = "must have 8 inputs")]
    fn arity_mismatch_is_rejected() {
        let nl = apx_arith::ripple_carry_adder(3);
        let _ = wmed_bounds(&nl, Operator::Mul, 4, false, &Pmf::uniform(4));
    }

    #[test]
    #[should_panic(expected = "PMF width")]
    fn pmf_width_mismatch_is_rejected() {
        let nl = apx_arith::array_multiplier(4);
        let _ = wmed_bounds(&nl, Operator::Mul, 4, false, &Pmf::uniform(5));
    }
}
