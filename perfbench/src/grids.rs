//! The workloads' sweep grids, all derived from the workload seed.
//!
//! The seed fixes the CGP master seed and the retarget distributions; the
//! program under test only ever sees the generated `SweepConfig`s.

use crate::replay::splitmix64;
use apx_core::{FlowConfig, LibraryConfig, SweepConfig, SweepDist};
use apx_dist::Pmf;
use apx_rng::Xoshiro256;
use std::path::Path;

/// CGP generations per Fig. 3 task (the cold, retarget and sharded grids).
pub const FIG3_ITERS: u64 = 200;
/// Worker threads of every in-process sweep (the host's core count).
pub const THREADS: usize = 2;
/// Shard processes of `fig3_sharded`, one thread each.
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Retarget,
    Sharded,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fig3_cold" => Workload::Cold,
            "fig3_retarget" => Workload::Retarget,
            "fig3_sharded" => Workload::Sharded,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "fig3_cold",
            Workload::Retarget => "fig3_retarget",
            Workload::Sharded => "fig3_sharded",
        }
    }
}

/// An independent stream of the workload seed, one per input it drives.
fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream)
}

/// The CGP master seed of every grid of one workload seed.
pub fn master_seed(seed: u64) -> u64 {
    derive(seed, 1)
}

/// The Fig. 3 grid: D1/D2/Du × 14 thresholds × 1 run, unsigned 8-bit
/// `Mul`, writing into `cache_dir`.
pub fn fig3(seed: u64, cache_dir: Option<&Path>) -> SweepConfig {
    SweepConfig {
        distributions: vec![
            SweepDist::new("D1", Pmf::normal(8, 127.0, 32.0)),
            SweepDist::new("D2", Pmf::half_normal(8, 48.0)),
            SweepDist::new("Du", Pmf::uniform(8)),
        ],
        flow: FlowConfig {
            width: 8,
            signed: false,
            iterations: FIG3_ITERS,
            runs_per_threshold: 1,
            seed: master_seed(seed),
            threads: THREADS,
            ..FlowConfig::default()
        },
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..SweepConfig::default()
    }
}

/// The retarget grid: the Fig. 3 thresholds under three new
/// distributions, in library `full` mode over the donor directory.
pub fn retarget(seed: u64, donor: &Path, cache_dir: Option<&Path>) -> SweepConfig {
    let mut rng = Xoshiro256::from_seed(derive(seed, 2));
    // A normal shifted 24–56 codes off D1's centre, to either side.
    let shift = (24.0 + 32.0 * rng.f64()) * if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
    let shifted = Pmf::normal(8, 127.0 + shift, 24.0 + 16.0 * rng.f64());
    // A half-normal 40–70 % as wide as D2.
    let narrow = Pmf::half_normal(8, 48.0 * (0.4 + 0.3 * rng.f64()));
    // 64 spikes of random integer mass: a lumpy measured histogram.
    let mut weights = vec![0.0f64; 256];
    for _ in 0..64 {
        weights[rng.gen_range(256)] += 1.0 + rng.gen_range(15) as f64;
    }
    let lumpy = Pmf::from_weights(8, weights).expect("spikes give positive mass");
    SweepConfig {
        distributions: vec![
            SweepDist::new("Dshift", shifted),
            SweepDist::new("Dnarrow", narrow),
            SweepDist::new("Dlumpy", lumpy),
        ],
        library: Some(LibraryConfig {
            dir: Some(donor.to_path_buf()),
            conventional: true,
            ..LibraryConfig::default()
        }),
        ..fig3(seed, cache_dir)
    }
}
