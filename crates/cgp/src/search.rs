//! The `(1 + λ)` evolution strategy.

use crate::{mutate, Chromosome};
use apx_rng::Xoshiro256;

/// Parameters of a CGP run (paper defaults: `λ = 4`, `h = 5`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionConfig {
    /// Offspring per generation (λ).
    pub lambda: usize,
    /// Maximum genes mutated per offspring (h).
    pub mutations: usize,
    /// Generations to run.
    pub max_iterations: u64,
    /// RNG seed; equal seeds reproduce the run exactly.
    pub seed: u64,
    /// Evaluate offspring on a persistent [`apx_pool`] worker pool (λ
    /// threads, spawned once and kept alive across all generations).
    pub parallel: bool,
    /// Stop early once fitness reaches this value.
    pub target_fitness: Option<f64>,
    /// Record `(iteration, fitness)` history points on every improvement.
    pub keep_history: bool,
}

impl Default for EvolutionConfig {
    /// Paper parameters: `λ = 4`, `h = 5`, sequential evaluation.
    fn default() -> Self {
        EvolutionConfig {
            lambda: 4,
            mutations: 5,
            max_iterations: 10_000,
            seed: 0,
            parallel: false,
            target_fitness: None,
            keep_history: true,
        }
    }
}

/// Outcome of a CGP run.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// The best chromosome found (the final parent).
    pub best: Chromosome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Generations executed.
    pub iterations: u64,
    /// Candidates resolved, `1 + seeds + λ·iterations`: every offspring
    /// counts, including those [`FitnessFn::lower_bound`] settled without
    /// an `eval` call, so the count does not depend on the bound.
    pub evaluations: u64,
    /// `(iteration, fitness)` at every strict improvement.
    pub history: Vec<(u64, f64)>,
    /// Which extra seed of [`evolve_seeded`] won the initial-parent
    /// selection, or `None` when the run started from `seed_parent`
    /// (always `None` for plain [`evolve`]).
    pub initial_seed: Option<usize>,
}

/// A fitness function with an optional incremental-evaluation hook.
///
/// The evolution loop calls [`FitnessFn::rebase`] every time the parent
/// chromosome changes — once after the initial parent is selected, then on
/// every promotion — so stateful implementations can cache simulation
/// state for the current parent and score offspring by re-simulating only
/// what a mutation touched (`apx_core`'s Eq. 1 fitness does exactly this
/// over `apx_metrics`' cached `WmedState`). Every `eval` between two
/// `rebase` calls is therefore guaranteed to see a chromosome derived from
/// the most recently rebased parent.
///
/// Plain closures implement the trait with a no-op `rebase`, so stateless
/// fitnesses keep working unchanged:
///
/// ```
/// use apx_cgp::FitnessFn;
///
/// let f = |c: &apx_cgp::Chromosome| c.decode_active().active_gate_count() as f64;
/// fn assert_fitness(_: &impl FitnessFn) {}
/// assert_fitness(&f);
/// ```
pub trait FitnessFn: Sync {
    /// Scores a chromosome (lower is better; `f64::INFINITY` rejects a
    /// candidate outright).
    fn eval(&self, c: &Chromosome) -> f64;

    /// Notification that `parent` is the new baseline all following
    /// offspring are mutated from. Defaults to a no-op.
    fn rebase(&self, parent: &Chromosome) {
        let _ = parent;
    }

    /// [`rebase`](FitnessFn::rebase), but also handing over `parent`'s
    /// just-computed fitness — the evolution loop always knows it at
    /// promotion time, so stateful implementations can cache the value
    /// instead of re-scoring the parent. Defaults to plain `rebase`.
    fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
        let _ = fit;
        self.rebase(parent);
    }

    /// A cheap lower bound on [`eval`](FitnessFn::eval)`(c)`: it must
    /// never order after the fitness under [`f64::total_cmp`]. The
    /// evolution loop uses it to skip `eval` for offspring that can
    /// neither be promoted nor beat an already-scored sibling; selection
    /// is the same as if every offspring had been scored.
    ///
    /// Defaults to the least `f64` under `total_cmp`, a negative NaN that
    /// orders below `f64::NEG_INFINITY`. `-∞` itself would not do: it
    /// orders after the negative NaNs that arithmetic can produce (e.g.
    /// `0.0 * f64::INFINITY` on x86), and such a fitness is the best
    /// offspring under `total_cmp`.
    fn lower_bound(&self, c: &Chromosome) -> f64 {
        let _ = c;
        f64::from_bits(u64::MAX)
    }
}

impl<F: Fn(&Chromosome) -> f64 + Sync> FitnessFn for F {
    fn eval(&self, c: &Chromosome) -> f64 {
        self(c)
    }
}

/// Runs the `(1 + λ)` strategy from `seed_parent`, minimizing `fitness`.
///
/// Each generation clones the parent λ times, mutates every clone with up
/// to `h` gene redraws and promotes the best offspring (the earliest on
/// ties) if its fitness is **less than or equal to** the parent's — the
/// neutral genetic drift that CGP's redundant representation is designed
/// for (paper §III-C).
///
/// Offspring are resolved branch-and-bound: they are visited in order of
/// [`FitnessFn::lower_bound`], and `eval` runs only on an offspring that
/// could still be promoted and still beat the best sibling scored so far.
/// The promoted chromosome is exactly the one scoring every offspring
/// would pick.
///
/// With `parallel` set, the offspring whose bound rules out promotion are
/// dropped and the rest are evaluated on a persistent [`apx_pool`] worker
/// pool whose λ threads are spawned once and reused for every generation
/// of the run; results come back in offspring order, so parallel and
/// sequential runs are bit-for-bit identical.
///
/// `fitness` may return `f64::INFINITY` to reject a candidate outright
/// (Eq. 1 does exactly that when the WMED budget is violated).
///
/// # Panics
///
/// Panics if `lambda == 0` or `mutations == 0`, and re-raises a panic of
/// `fitness` naming the offending offspring.
pub fn evolve<F>(seed_parent: &Chromosome, fitness: F, config: &EvolutionConfig) -> EvolutionResult
where
    F: FitnessFn,
{
    evolve_seeded(seed_parent, &[], fitness, config)
}

/// [`evolve`] with a warm-start hook: before the first generation, every
/// chromosome in `seeds` is evaluated alongside `seed_parent` and the
/// **strictly best** one becomes the initial parent (ties keep
/// `seed_parent`, then the earliest seed). An empty seed list reproduces
/// [`evolve`] bit for bit; seeds that all lose leave the search
/// trajectory identical too (seed evaluation happens before the run's
/// RNG stream is touched), with only `evaluations` counting the extra
/// `seeds.len()` warm-start fitness calls.
///
/// This is the component-library entry point: candidates re-scored from a
/// previous design-space exploration start the search near the Pareto
/// front instead of at the exact circuit every time. Seeds may have any
/// grid geometry (`cols` need not match `seed_parent`); they only need the
/// same primary input/output counts for the fitness to be meaningful,
/// which the caller is responsible for.
///
/// `EvolutionResult::initial_seed` reports which seed (index into
/// `seeds`) won, or `None` when the run started from `seed_parent`.
///
/// # Panics
///
/// Panics if `lambda == 0` or `mutations == 0`, and re-raises a panic of
/// `fitness` naming the offending offspring.
pub fn evolve_seeded<F>(
    seed_parent: &Chromosome,
    seeds: &[Chromosome],
    fitness: F,
    config: &EvolutionConfig,
) -> EvolutionResult
where
    F: FitnessFn,
{
    assert!(config.lambda > 0, "lambda must be at least 1");
    assert!(config.mutations > 0, "mutation rate must be at least 1");
    let mut parent = seed_parent.clone();
    let mut parent_fit = fitness.eval(&parent);
    let mut initial_seed = None;
    for (i, seed) in seeds.iter().enumerate() {
        let fit = fitness.eval(seed);
        if fit < parent_fit {
            parent = seed.clone();
            parent_fit = fit;
            initial_seed = Some(i);
        }
    }
    // The initial parent is now fixed: let stateful fitnesses cache it.
    fitness.rebase_scored(&parent, parent_fit);
    let start = Start { parent, parent_fit, evaluations: 1 + seeds.len() as u64, initial_seed };
    if config.parallel && config.lambda > 1 {
        apx_pool::Pool::scope(
            config.lambda,
            |_, child: Chromosome| {
                let fit = fitness.eval(&child);
                (child, fit)
            },
            |pool| generation_loop(start, &fitness, config, Some(pool)),
        )
    } else {
        generation_loop(start, &fitness, config, None)
    }
}

/// Sequential branch-and-bound selection: visits the offspring in
/// `(bound, index)` order and scores one only while it could still be
/// promoted and still beat the best `(fitness, index)` scored so far.
///
/// Returns the best scored offspring. Whenever some offspring can be
/// promoted, that is the best of all offspring; otherwise it is either
/// `None` or an offspring that cannot be promoted either.
fn branch_and_bound<F>(
    mut offspring: Vec<Chromosome>,
    bounds: &[f64],
    parent_fit: f64,
    fitness: &F,
) -> Option<(Chromosome, f64)>
where
    F: FitnessFn,
{
    let mut order: Vec<usize> = (0..offspring.len()).collect();
    // A stable sort: equal bounds stay in index order.
    order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]));
    let mut best: Option<(usize, f64)> = None;
    for i in order {
        let bound = bounds[i];
        // Every offspring from here on scores at least `bound`, so none
        // can be promoted …
        if cannot_promote(bound, parent_fit) {
            break;
        }
        // … or beat the best so far, nor tie it at an earlier index.
        if best.is_some_and(|(bi, bf)| bound.total_cmp(&bf).then(i.cmp(&bi)).is_gt()) {
            break;
        }
        let fit = fitness.eval(&offspring[i]);
        debug_assert!(bound.total_cmp(&fit).is_le(), "lower bound {bound} exceeds fitness {fit}");
        if best.is_none_or(|(bi, bf)| fit.total_cmp(&bf).then(i.cmp(&bi)).is_lt()) {
            best = Some((i, fit));
        }
    }
    best.map(|(i, fit)| (offspring.swap_remove(i), fit))
}

/// Whether an offspring whose fitness is at least `bound` (under
/// `total_cmp`) is sure to fail the `fitness <= parent_fit` promotion
/// test. Never true for a NaN bound or parent, which is merely
/// conservative.
fn cannot_promote(bound: f64, parent_fit: f64) -> bool {
    bound > parent_fit
}

/// The selected initial parent handed to the generation loop.
struct Start {
    parent: Chromosome,
    parent_fit: f64,
    evaluations: u64,
    initial_seed: Option<usize>,
}

/// The generation loop, with offspring scored either inline or on the
/// scope's persistent pool.
fn generation_loop<F>(
    start: Start,
    fitness: &F,
    config: &EvolutionConfig,
    pool: Option<&apx_pool::Executor<'_, Chromosome, (Chromosome, f64)>>,
) -> EvolutionResult
where
    F: FitnessFn,
{
    let mut rng = Xoshiro256::from_seed(config.seed);
    let Start { mut parent, mut parent_fit, mut evaluations, initial_seed } = start;
    let mut history = Vec::new();
    if config.keep_history {
        history.push((0, parent_fit));
    }
    let mut iterations = 0u64;
    for iter in 1..=config.max_iterations {
        iterations = iter;
        if let Some(target) = config.target_fitness {
            if parent_fit <= target {
                iterations = iter - 1;
                break;
            }
        }
        let mut offspring: Vec<Chromosome> = Vec::with_capacity(config.lambda);
        for _ in 0..config.lambda {
            let mut child = parent.clone();
            mutate(&mut child, config.mutations, &mut rng);
            offspring.push(child);
        }
        evaluations += config.lambda as u64;
        let bounds: Vec<f64> = offspring.iter().map(|c| fitness.lower_bound(c)).collect();
        // The best scored offspring under `(fitness, index)` order, or
        // `None` when the bounds ruled out every offspring.
        let best = match pool {
            Some(pool) => {
                // An offspring whose bound exceeds the parent's fitness
                // cannot be promoted; were it the best, no sibling could
                // be promoted either, so dropping it changes nothing.
                let survivors: Vec<Chromosome> = offspring
                    .into_iter()
                    .zip(&bounds)
                    .filter(|&(_, &bound)| !cannot_promote(bound, parent_fit))
                    .map(|(child, _)| child)
                    .collect();
                // `min_by` keeps the first of equal minima: the earliest.
                pool.map(survivors).into_iter().min_by(|a, b| a.1.total_cmp(&b.1))
            }
            None => branch_and_bound(offspring, &bounds, parent_fit, fitness),
        };
        // Neutral drift: equal fitness replaces the parent.
        if let Some((child, best_fit)) = best.filter(|&(_, fit)| fit <= parent_fit) {
            if best_fit < parent_fit && config.keep_history {
                history.push((iter, best_fit));
            }
            parent = child;
            parent_fit = best_fit;
            fitness.rebase_scored(&parent, parent_fit);
        }
    }
    EvolutionResult {
        best: parent,
        best_fitness: parent_fit,
        iterations,
        evaluations,
        history,
        initial_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionSet;
    use apx_arith::array_multiplier;
    use apx_gates::Exhaustive;

    /// Area-under-correctness fitness: enormous penalty per wrong output
    /// bit plus gate count — a miniature of the paper's Eq. 1.
    fn exactness_area_fitness(width: u32) -> impl Fn(&Chromosome) -> f64 + Sync {
        let golden = Exhaustive::new(2 * width as usize).output_table(&array_multiplier(width));
        move |c: &Chromosome| {
            let nl = c.decode_active();
            let table = Exhaustive::new(nl.num_inputs()).output_table(&nl);
            let wrong: u64 =
                table.iter().zip(&golden).map(|(a, b)| (a ^ b).count_ones() as u64).sum();
            wrong as f64 * 1e6 + nl.active_gate_count() as f64
        }
    }

    #[test]
    fn evolution_reduces_multiplier_area_without_breaking_it() {
        let nl = array_multiplier(2);
        let funcs = FunctionSet::standard();
        let seed = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 12).unwrap();
        let fitness = exactness_area_fitness(2);
        let start = fitness(&seed);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig { max_iterations: 3000, seed: 7, ..Default::default() },
        );
        assert!(result.best_fitness <= start);
        // Still exact (fitness < 1e6 means zero wrong bits).
        assert!(
            result.best_fitness < 1e6,
            "evolved multiplier must stay exact, fitness {}",
            result.best_fitness
        );
        // The textbook 2-bit array multiplier (8 gates here) is not
        // minimal; evolution should shave at least one gate.
        assert!(result.best_fitness < start, "expected improvement from {start}");
    }

    #[test]
    fn runs_are_deterministic() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let config = EvolutionConfig { max_iterations: 200, seed: 42, ..Default::default() };
        let a = evolve(&seed, &fitness, &config);
        let b = evolve(&seed, &fitness, &config);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_matches_sequential() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let base = EvolutionConfig { max_iterations: 150, seed: 21, ..Default::default() };
        let seq = evolve(&seed, &fitness, &base);
        let par = evolve(&seed, &fitness, &EvolutionConfig { parallel: true, ..base });
        assert_eq!(seq.best, par.best);
        assert_eq!(seq.best_fitness, par.best_fitness);
    }

    #[test]
    fn target_fitness_stops_early() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig {
                max_iterations: 10_000,
                target_fitness: Some(fitness(&seed)),
                seed: 1,
                ..Default::default()
            },
        );
        assert_eq!(result.iterations, 0, "seed already meets the target");
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn history_is_monotone_decreasing() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 10).unwrap();
        let fitness = exactness_area_fitness(2);
        let result = evolve(
            &seed,
            &fitness,
            &EvolutionConfig { max_iterations: 1500, seed: 3, ..Default::default() },
        );
        for pair in result.history.windows(2) {
            assert!(pair[1].1 < pair[0].1, "history must strictly improve");
            assert!(pair[1].0 > pair[0].0);
        }
        assert_eq!(result.evaluations, 1 + 4 * result.iterations);
    }

    #[test]
    fn parallel_fitness_panic_names_the_task() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        // The parent evaluation (call 0) must succeed; a later offspring
        // evaluation panics inside the pool.
        let calls = AtomicU64::new(0);
        let fitness = |_: &Chromosome| {
            assert!(calls.fetch_add(1, Ordering::Relaxed) < 3, "fitness exploded");
            1.0
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evolve(
                &seed,
                fitness,
                &EvolutionConfig { parallel: true, max_iterations: 5, ..Default::default() },
            )
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(msg.contains("task") && msg.contains("fitness exploded"), "message was: {msg}");
    }

    #[test]
    fn empty_seed_list_reproduces_plain_evolve_bit_for_bit() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        let config = EvolutionConfig { max_iterations: 300, seed: 11, ..Default::default() };
        let plain = evolve(&seed, &fitness, &config);
        let seeded = evolve_seeded(&seed, &[], &fitness, &config);
        assert_eq!(plain.best, seeded.best);
        assert_eq!(plain.best_fitness, seeded.best_fitness);
        assert_eq!(plain.history, seeded.history);
        assert_eq!(plain.evaluations, seeded.evaluations);
        assert_eq!(seeded.initial_seed, None);
    }

    #[test]
    fn strictly_better_seed_wins_the_initial_parent_selection() {
        let nl = array_multiplier(2);
        let funcs = FunctionSet::standard();
        let parent = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 8).unwrap();
        let fitness = exactness_area_fitness(2);
        // Shrink the grid's spare columns: an already-evolved, smaller
        // exact multiplier (different cols on purpose) seeds the run.
        let better = evolve(
            &parent,
            &fitness,
            &EvolutionConfig { max_iterations: 3000, seed: 7, ..Default::default() },
        )
        .best;
        assert!(fitness(&better) < fitness(&parent), "evolution found a smaller circuit");
        // A worthless seed (ties lose) and the genuinely better one.
        let result = evolve_seeded(
            &parent,
            &[parent.clone(), better.clone()],
            &fitness,
            &EvolutionConfig { max_iterations: 1, seed: 3, ..Default::default() },
        );
        assert_eq!(result.initial_seed, Some(1), "the strictly better seed must win");
        assert!(result.best_fitness <= fitness(&better));
        assert_eq!(result.evaluations, 1 + 2 + 4, "parent + 2 seeds + lambda");
        // Infeasible (infinite-fitness) seeds never displace the parent.
        let rejected = evolve_seeded(
            &parent,
            &[better],
            |c: &Chromosome| if fitness(c) < fitness(&parent) { f64::INFINITY } else { fitness(c) },
            &EvolutionConfig { max_iterations: 1, seed: 3, ..Default::default() },
        );
        assert_eq!(rejected.initial_seed, None);
    }

    #[test]
    fn rebase_tracks_every_parent_change() {
        use std::sync::Mutex;

        /// Wraps a closure fitness and checks the incremental contract:
        /// every evaluated offspring differs from the latest rebased parent
        /// in at most `3·mutations` genes (a mutation redraws whole genes
        /// of the parent), and every promotion is announced via `rebase`
        /// before the next generation is scored.
        struct Spy<F> {
            inner: F,
            state: std::sync::Arc<Mutex<SpyState>>,
        }
        #[derive(Default)]
        struct SpyState {
            base: Option<Chromosome>,
            rebases: usize,
            evals_since_rebase: usize,
        }
        impl<F: Fn(&Chromosome) -> f64 + Sync> FitnessFn for Spy<F> {
            fn eval(&self, c: &Chromosome) -> f64 {
                let mut st = self.state.lock().unwrap();
                if let Some(base) = &st.base {
                    let diff = base.genes().iter().zip(c.genes()).filter(|(a, b)| a != b).count();
                    assert!(diff <= 3 * 5, "offspring drifted {diff} genes from rebased parent");
                }
                st.evals_since_rebase += 1;
                (self.inner)(c)
            }
            fn rebase(&self, parent: &Chromosome) {
                let mut st = self.state.lock().unwrap();
                st.base = Some(parent.clone());
                st.rebases += 1;
                st.evals_since_rebase = 0;
            }
        }

        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 8).unwrap();
        let state = std::sync::Arc::new(Mutex::new(SpyState::default()));
        let spy = Spy { inner: exactness_area_fitness(2), state: state.clone() };
        let result = evolve(
            &seed,
            spy,
            &EvolutionConfig { max_iterations: 300, seed: 5, ..Default::default() },
        );
        let st = state.lock().unwrap();
        // One initial rebase plus one per promotion; promotions include
        // neutral drift, so there are at least as many as strict
        // improvements (history also counts the iteration-0 entry).
        assert!(st.rebases >= result.history.len(), "{} < {}", st.rebases, result.history.len());
        assert_eq!(st.base.as_ref(), Some(&result.best), "last rebase is the final parent");
        // Same trajectory as the plain closure.
        let plain = evolve(
            &seed,
            exactness_area_fitness(2),
            &EvolutionConfig { max_iterations: 300, seed: 5, ..Default::default() },
        );
        assert_eq!(plain.best, result.best);
        assert_eq!(plain.best_fitness, result.best_fitness);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn zero_lambda_panics() {
        let nl = array_multiplier(2);
        let seed =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count()).unwrap();
        let _ = evolve(
            &seed,
            |_: &Chromosome| 0.0,
            &EvolutionConfig { lambda: 0, ..Default::default() },
        );
    }
}
