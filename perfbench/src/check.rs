//! Output checks and result digests.
//!
//! Every entry is re-scored on the `scalar` backend (the oracle that
//! proves `bitpar` correct) and must match bit for bit and meet its
//! threshold. Every entry also gets a digest over everything the sweep
//! reports, so repeated, traced and sharded runs can be compared entry by
//! entry.

use apx_core::{SweepConfig, SweepEntry};
use apx_dist::{fnv1a64, FNV1A64_OFFSET};
use apx_metrics::{CircuitEvaluator, ErrorStats, EvalBackend};
use std::fmt::Write as _;

/// Digest of one entry: its name, chromosome, statistics, physical
/// estimate and evaluation count, floats by their bits.
pub fn entry_digest(e: &SweepEntry) -> u64 {
    let m = &e.circuit;
    let mut text = format!("{} {} {} {}\n", e.dist, m.name, m.threshold.to_bits(), m.run);
    text.push_str(&m.chromosome.to_text());
    for v in stats_bits(&m.stats) {
        let _ = write!(text, " {v:x}");
    }
    let est = &m.estimate;
    for v in [est.area_um2, est.delay_ns, est.leakage_uw, est.dynamic_uw, est.clock_mhz] {
        let _ = write!(text, " {:x}", v.to_bits());
    }
    let _ = write!(text, " {}", m.evaluations);
    fnv1a64(text.as_bytes(), FNV1A64_OFFSET)
}

/// Digest over a whole run's entry digests.
pub fn run_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a64(&bytes, FNV1A64_OFFSET)
}

fn stats_bits(s: &ErrorStats) -> [u64; 6] {
    [
        s.med.to_bits(),
        s.wmed.to_bits(),
        s.wce.to_bits(),
        s.error_rate.to_bits(),
        s.mred.to_bits(),
        s.max_abs_error as u64,
    ]
}

/// The output check of one grid.
pub struct OutputCheck {
    /// Scalar-backend oracles, one per distribution.
    oracles: Vec<CircuitEvaluator>,
}

impl OutputCheck {
    pub fn new(cfg: &SweepConfig) -> Self {
        let flow = &cfg.flow;
        let oracles = cfg
            .distributions
            .iter()
            .map(|d| {
                CircuitEvaluator::for_operator_with_backend(
                    flow.operator,
                    flow.width,
                    flow.signed,
                    &d.pmf,
                    EvalBackend::Scalar,
                )
                .expect("scalar oracle")
            })
            .collect();
        OutputCheck { oracles }
    }

    /// Checks every entry of a result; returns the index of and a message
    /// for each failing check.
    pub fn check(&self, entries: &[SweepEntry]) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let m = &e.circuit;
            let mut fail = |why: String| failures.push((i, format!("{}: {why}", m.name)));
            if m.stats.wmed.is_nan() || m.stats.wmed > m.threshold {
                fail(format!("WMED {} over threshold {}", m.stats.wmed, m.threshold));
            }
            let want = self.oracles[e.dist_index].stats(&m.netlist);
            if stats_bits(&want) != stats_bits(&m.stats) {
                fail(format!("stats {:?} differ from the scalar re-score {want:?}", m.stats));
            }
        }
        failures
    }
}
