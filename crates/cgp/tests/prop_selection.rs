//! Property: branch-and-bound offspring selection promotes exactly what
//! scoring every offspring promotes.
//!
//! Fitnesses come from a random table indexed by a hash of the genes, over
//! a palette that makes ties, signed zeros, infinities and NaN common.
//! Each table entry carries a lower bound that is equal to the fitness,
//! Eq. 1-like (equal when finite, finite when not), loose, or `-∞` (the
//! fitness itself when that is a negative NaN, which orders below `-∞`).
//! Runs with the bound must match runs through a wrapper that hides it
//! (the trait's default bound), and a
//! plain reimplementation of the `(1 + λ)` rule (score all, earliest
//! `total_cmp` minimum, promote on `<=`), in `best`, `best_fitness` bits,
//! `history` and `evaluations`.

use apx_cgp::{
    evolve, mutate, Chromosome, EvolutionConfig, EvolutionResult, FitnessFn, FunctionSet,
};
use apx_rng::Xoshiro256;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// `-f64::NAN` is the NaN x86 arithmetic produces; it orders below `-∞`.
const PALETTE: [f64; 10] =
    [-f64::NAN, f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, 2.5, 2.5, f64::INFINITY, f64::NAN];

/// A fitness table: `(fitness, lower bound)` per gene-hash bucket.
struct Table {
    entries: Vec<(f64, f64)>,
    evals: AtomicU64,
}

impl Table {
    /// `raw` holds `(fitness index, bound kind, loose index)` triples.
    fn new(raw: &[(usize, usize, usize)]) -> Self {
        let entries = raw
            .iter()
            .map(|&(f, kind, l)| {
                let fit = PALETTE[f % PALETTE.len()];
                let loose = PALETTE[l % PALETTE.len()];
                let bound = match kind % 4 {
                    // Eq. 1: the area, finite even when the fitness is ∞.
                    1 if fit.total_cmp(&f64::INFINITY).is_ge() => [0.0, 1.0, 2.5][l % 3],
                    0 | 1 => fit,
                    2 => total_min(loose, fit),
                    _ => total_min(f64::NEG_INFINITY, fit),
                };
                assert!(bound.total_cmp(&fit).is_le(), "bound {bound} above fitness {fit}");
                (fit, bound)
            })
            .collect();
        Table { entries, evals: AtomicU64::new(0) }
    }

    fn entry(&self, c: &Chromosome) -> (f64, f64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &g in c.genes() {
            h = (h ^ u64::from(g)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.entries[(h % self.entries.len() as u64) as usize]
    }

    fn fitness(&self, c: &Chromosome) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.entry(c).0
    }
}

fn total_min(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b).is_le() {
        a
    } else {
        b
    }
}

impl FitnessFn for &Table {
    fn eval(&self, c: &Chromosome) -> f64 {
        self.fitness(c)
    }

    fn lower_bound(&self, c: &Chromosome) -> f64 {
        self.entry(c).1
    }
}

/// The same table with its lower bound hidden (the trait's default).
struct Hidden<'a>(&'a Table);

impl FitnessFn for Hidden<'_> {
    fn eval(&self, c: &Chromosome) -> f64 {
        self.0.fitness(c)
    }
}

/// The `(1 + λ)` rule with every offspring scored.
fn reference(seed: &Chromosome, table: &Table, config: &EvolutionConfig) -> EvolutionResult {
    let mut rng = Xoshiro256::from_seed(config.seed);
    let mut parent = seed.clone();
    let mut parent_fit = table.fitness(&parent);
    let mut history = vec![(0, parent_fit)];
    for iter in 1..=config.max_iterations {
        let mut scored: Vec<(Chromosome, f64)> = (0..config.lambda)
            .map(|_| {
                let mut child = parent.clone();
                mutate(&mut child, config.mutations, &mut rng);
                let fit = table.fitness(&child);
                (child, fit)
            })
            .collect();
        let (best_idx, best_fit) = scored
            .iter()
            .enumerate()
            .map(|(i, (_, fit))| (i, *fit))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        if best_fit <= parent_fit {
            if best_fit < parent_fit {
                history.push((iter, best_fit));
            }
            parent = scored.swap_remove(best_idx).0;
            parent_fit = best_fit;
        }
    }
    EvolutionResult {
        best: parent,
        best_fitness: parent_fit,
        iterations: config.max_iterations,
        evaluations: 1 + config.lambda as u64 * config.max_iterations,
        history,
        initial_seed: None,
    }
}

/// Everything selection decides, with fitnesses compared by bits.
fn outcome(r: &EvolutionResult) -> (Chromosome, u64, Vec<(u64, u64)>, u64, u64) {
    let history = r.history.iter().map(|&(i, f)| (i, f.to_bits())).collect();
    (r.best.clone(), r.best_fitness.to_bits(), history, r.evaluations, r.iterations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn branch_and_bound_selects_what_full_scoring_selects(
        raw in proptest::collection::vec((0usize..10, 0usize..4, 0usize..10), 1..=12),
        lambda in 1usize..=5,
        mutations in 1usize..=3,
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let table = Table::new(&raw);
        let mut rng = Xoshiro256::from_seed(seeds.0);
        let seed = Chromosome::random(3, 2, 10, &FunctionSet::standard(), &mut rng);
        let config = EvolutionConfig {
            lambda,
            mutations,
            max_iterations: 40,
            seed: seeds.1,
            ..EvolutionConfig::default()
        };
        let expected = outcome(&reference(&seed, &table, &config));
        let full_scoring = table.evals.swap(0, Ordering::Relaxed);
        for parallel in [false, true] {
            let config = EvolutionConfig { parallel, ..config.clone() };
            prop_assert_eq!(outcome(&evolve(&seed, &table, &config)), expected.clone());
            let pruned = table.evals.swap(0, Ordering::Relaxed);
            prop_assert_eq!(outcome(&evolve(&seed, Hidden(&table), &config)), expected.clone());
            let hidden = table.evals.swap(0, Ordering::Relaxed);
            prop_assert!(pruned <= hidden && hidden <= full_scoring, "{pruned} {hidden} {full_scoring}");
        }
    }
}
