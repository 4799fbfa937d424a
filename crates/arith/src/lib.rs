//! Exact and conventionally approximated arithmetic circuits.
//!
//! This crate provides every arithmetic building block the reproduction
//! needs at the *gate level* (as [`apx_gates::Netlist`]s) and at the
//! *functional level* (as exhaustive [`OpTable`]s):
//!
//! * ripple-carry adders ([`ripple_carry_adder`], wrap-around accumulators);
//! * exact unsigned multipliers — the classic carry-ripple
//!   [`array_multiplier`] and a column-compression [`wallace_multiplier`] —
//!   used to seed the CGP search;
//! * the exact signed [`baugh_wooley_multiplier`];
//! * conventional approximate families used as baselines in the paper:
//!   [`truncated_multiplier`] (truncated array multiplier, Jiang et al.) and
//!   [`broken_array_multiplier`] (BAM, Mahdiani et al.), plus a signed
//!   Baugh-Wooley broken variant;
//! * [`mac::mac_unit`] composing a multiplier with an accumulator adder into
//!   the processing element of a TPU-style systolic array;
//! * [`OpTable`], the exhaustive functional view of any two-operand circuit,
//!   which is what the image-filter and neural-network substrates plug in.
//!
//! Every generated netlist is verified exhaustively against a functional
//! golden model (module [`golden`]) in this crate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adders;
pub mod adders_approx;
mod approx;
mod backend;
mod columns;
pub mod golden;
pub mod mac;
mod multipliers;
mod operator;
mod optable;

pub use adders::{add_ripple, ripple_carry_adder, ripple_carry_adder_wrap, signed_ripple_adder};
pub use adders_approx::{lower_or_adder, truncated_adder};
pub use approx::{baugh_wooley_broken, broken_array_multiplier, truncated_multiplier};
pub use backend::EvalBackend;
pub use columns::{reduce_columns_sequential, reduce_columns_wallace};
pub use multipliers::{array_multiplier, baugh_wooley_multiplier, wallace_multiplier};
pub use operator::{Operator, MAX_INPUT_BITS};
pub use optable::{OpTable, TableError};

/// Interprets the low `width` bits of `raw` as a two's-complement value.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 63.
#[inline]
#[must_use]
pub fn sign_extend(raw: u64, width: u32) -> i64 {
    assert!(width > 0 && width < 64, "width must be in 1..=63");
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}

/// Masks `value` to its low `width` bits (the raw two's-complement encoding).
#[inline]
#[must_use]
pub fn to_raw(value: i64, width: u32) -> u64 {
    (value as u64) & ((1u64 << width) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_round_trips() {
        for w in 1..=16u32 {
            let lo = -(1i64 << (w - 1));
            let hi = (1i64 << (w - 1)) - 1;
            for v in [lo, -1, 0, 1, hi] {
                if v < lo || v > hi {
                    continue;
                }
                assert_eq!(sign_extend(to_raw(v, w), w), v, "w={w} v={v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn sign_extend_rejects_zero_width() {
        let _ = sign_extend(0, 0);
    }
}
