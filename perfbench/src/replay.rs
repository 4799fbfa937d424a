//! The traced replay: `run_sweep` re-driven step by step through the
//! layers' public calls, with a span around each call.
//!
//! `task_seed` and `seed_circuit` are crate-private in `apx_core`, so they
//! are re-derived here. The replay must reproduce `run_sweep`'s entries
//! bit for bit; the benchmark compares the two on every traced run, so a
//! copy that drifts from the program fails the run instead of silently
//! measuring something else.

use crate::trace::{TimedFitness, Tracer};
use apx_approxlib::MultiplierLibrary;
use apx_arith::Operator;
use apx_cgp::{evolve_seeded, Chromosome, EvolutionConfig, FunctionSet};
use apx_core::cache::{task_key, CacheKey, SweepCache};
use apx_core::library::{ComponentLibrary, PrunePolicy, RescoredLibrary};
use apx_core::{Eq1Fitness, EvolvedCircuit, FlowConfig, SweepConfig, SweepEntry};
use apx_gates::Netlist;
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_rng::Xoshiro256;
use apx_techlib::{area_of, estimate_under_pmf, TechLibrary, DEFAULT_CLOCK_MHZ};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

/// The SplitMix64 finalizer `apx_core` derives its task seeds with.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-task RNG seed, as `apx_core`'s sweep derives it.
pub fn task_seed(seed: u64, dist: usize, ti: usize, run: usize) -> u64 {
    let mut s = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    s = splitmix64(s ^ dist as u64);
    s = splitmix64(s ^ ti as u64);
    splitmix64(s ^ run as u64)
}

/// The operator's exact seed netlist and its CGP encoding with
/// `cols_slack` spare columns, as `apx_core`'s sweep builds them.
pub fn seed_circuit(flow: &FlowConfig) -> (Netlist, Chromosome) {
    let netlist = flow.operator.seed_circuit(flow.width, flow.signed);
    let chrom = Chromosome::from_netlist(
        &netlist,
        &FunctionSet::extended(),
        netlist.gate_count() + flow.cols_slack,
    )
    .expect("the exact seed encodes");
    (netlist, chrom)
}

/// The grid in the flat `(distribution, threshold, run)` order shards
/// stride over.
pub fn flat_grid(cfg: &SweepConfig) -> Vec<(usize, usize, usize)> {
    let flow = &cfg.flow;
    (0..cfg.distributions.len())
        .flat_map(|di| {
            (0..flow.thresholds.len())
                .flat_map(move |ti| (0..flow.runs_per_threshold).map(move |r| (di, ti, r)))
        })
        .collect()
}

/// How a task that no cache tier replayed gets its result.
enum Work {
    Evolve(Vec<Chromosome>),
    Take { chromosome: Chromosome, netlist: Netlist, stats: ErrorStats },
}

/// A task for the pool: its slot in the entry list, its grid
/// coordinates, the key to checkpoint it under, and how to compute it.
type Pending = (usize, (usize, usize, usize), Option<CacheKey>, Work);

/// What one replay produced.
pub struct Replayed {
    pub entries: Vec<SweepEntry>,
    /// Fitness evaluations spent by this replay.
    pub computed_evaluations: u64,
    /// The component library the replay built (library mode only).
    pub library: Option<ComponentLibrary>,
    /// The evaluators, one per distribution.
    pub evaluators: Vec<Arc<CircuitEvaluator>>,
}

/// Replays `run_sweep(cfg)`, recording spans and counters into `tr`.
pub fn replay_sweep(cfg: &SweepConfig, tr: &Tracer) -> Result<Replayed, String> {
    let flow = &cfg.flow;
    let tech = TechLibrary::nangate45();
    let (_, seed_chrom) = seed_circuit(flow);
    let evaluators: Vec<Arc<CircuitEvaluator>> = cfg
        .distributions
        .iter()
        .map(|d| {
            tr.span("apx_metrics.evaluator_build", || {
                CircuitEvaluator::for_operator(flow.operator, flow.width, flow.signed, &d.pmf)
            })
            .map(Arc::new)
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let grid = flat_grid(cfg);
    let tasks: Vec<(usize, usize, usize)> = match cfg.shard {
        Some(s) => grid.into_iter().skip(s.index).step_by(s.count).collect(),
        None => grid,
    };
    let threads = flow.threads.max(1);
    let name_of = |(di, ti, run): (usize, usize, usize)| {
        format!("{}_t{ti}_r{run}", cfg.distributions[di].name)
    };
    let cache = cfg.cache_dir.as_ref().map(SweepCache::new);

    let library: Option<ComponentLibrary> = cfg.library.as_ref().map(|lc| {
        let mut lib = ComponentLibrary::new();
        if let Some(dir) = &lc.dir {
            let scanned = tr.span("apx_core.cache.scan", || SweepCache::new(dir).scan());
            tr.span("apx_core.library.ingest", || {
                for e in scanned {
                    lib.ingest_scanned(e);
                }
            });
        }
        if lc.conventional {
            tr.span("apx_core.library.ingest", || match flow.operator {
                Operator::Mul if flow.width >= 3 => {
                    if flow.signed {
                        lib.ingest_conventional(&MultiplierLibrary::broken_family_signed(
                            flow.width,
                        ));
                        lib.ingest_conventional(&MultiplierLibrary::zero_guard_family_signed(
                            flow.width,
                        ));
                    } else {
                        lib.ingest_conventional(&MultiplierLibrary::evoapprox_like(flow.width));
                    }
                }
                Operator::Add if !flow.signed => {
                    lib.ingest_conventional_adders(flow.width);
                }
                _ => {}
            });
        }
        if lc.semantic_dedup {
            tr.span("apx_core.library.dedup", || lib.dedup_semantic(&tech));
        }
        lib
    });
    let prune_policy: Option<PrunePolicy> =
        cfg.library.as_ref().filter(|l| l.prune).map(|l| PrunePolicy {
            max_threshold: flow.thresholds.iter().fold(f64::NEG_INFINITY, |m, &t| m.max(t)),
            max_seeds: l.max_seeds,
        });
    let rescored: Vec<OnceCell<RescoredLibrary<'_>>> =
        cfg.distributions.iter().map(|_| OnceCell::new()).collect();
    let rescored_for = |di: usize| -> Option<&RescoredLibrary<'_>> {
        match &library {
            Some(lib) if !lib.is_empty() => Some(rescored[di].get_or_init(|| {
                tr.span("apx_core.library.rescore", || {
                    lib.rescore_pruned(&evaluators[di], &tech, threads, prune_policy.as_ref())
                })
            })),
            _ => None,
        }
    };
    let seed_area = area_of(&seed_chrom.decode_active(), &tech);
    let take_hits = cfg.library.as_ref().is_some_and(|l| l.take_hits);
    let max_seeds = cfg.library.as_ref().map_or(0, |l| l.max_seeds);

    let mut slots: Vec<Option<EvolvedCircuit>> = Vec::with_capacity(tasks.len());
    let mut to_compute: Vec<Pending> = Vec::new();
    let (mut cache_hits, mut library_hits) = (0usize, 0usize);
    for (pos, &(di, ti, run)) in tasks.iter().enumerate() {
        let key = (cache.is_some() || library.is_some()).then(|| {
            task_key(
                flow,
                &cfg.distributions[di].pmf,
                flow.thresholds[ti],
                run,
                task_seed(flow.seed, di, ti, run),
            )
        });
        let mut hit = match (&cache, key) {
            (Some(c), Some(k)) => tr.span("apx_core.cache.load", || c.load(k)),
            _ => None,
        };
        cache_hits += usize::from(hit.is_some());
        if hit.is_none() && take_hits {
            hit = library
                .as_ref()
                .and_then(|lib| {
                    key.and_then(|k| lib.exact_match(k, flow.operator, flow.width, flow.signed))
                        .cloned()
                })
                .inspect(|m| {
                    library_hits += 1;
                    if let (Some(c), Some(k)) = (&cache, key) {
                        let _ = tr.span("apx_core.cache.store", || {
                            c.store(k, m, flow.operator, flow.width, flow.signed)
                        });
                    }
                });
        }
        slots.push(hit.map(|mut m| {
            m.name = name_of((di, ti, run));
            m
        }));
        if slots[pos].is_some() {
            continue;
        }
        let threshold = flow.thresholds[ti];
        let seeds_for = |r: &RescoredLibrary<'_>| -> Vec<Chromosome> {
            if threshold == 0.0 {
                return Vec::new();
            }
            r.seeds(threshold, max_seeds).into_iter().map(|c| c.entry.chromosome.clone()).collect()
        };
        let work = match rescored_for(di) {
            Some(r) if take_hits => match r.best_meeting(threshold) {
                Some(c) if c.area < seed_area => {
                    library_hits += 1;
                    Work::Take {
                        chromosome: c.entry.chromosome.clone(),
                        netlist: c.entry.netlist.clone(),
                        stats: c.stats,
                    }
                }
                _ => Work::Evolve(seeds_for(r)),
            },
            Some(r) => Work::Evolve(seeds_for(r)),
            None => Work::Evolve(Vec::new()),
        };
        to_compute.push((pos, (di, ti, run), key, work));
    }
    let resolved_elsewhere = tasks.len() - cache_hits;
    if library.is_some() && resolved_elsewhere > 0 {
        tr.add("apx_core.library.hit_ratio", library_hits as f64 / resolved_elsewhere as f64);
    }

    let runner = TaskRunner {
        cfg,
        tech: &tech,
        seed_chrom: &seed_chrom,
        evaluators: &evaluators,
        cache: cache.as_ref(),
        tr,
    };
    let phase = Instant::now();
    let computed = tr
        .span("apx_pool.scope_map", || {
            let pool_span = tr.current();
            apx_pool::scope_map(threads, to_compute, |_, (pos, t, key, work)| {
                let busy = Instant::now();
                let m = tr.span_under("apx_pool.task", pool_span, pos as u32, || {
                    runner.run(t, key, work)
                });
                let busy = busy.elapsed().as_secs_f64();
                tr.add("apx_pool.busy_s", busy);
                tr.max("apx_pool.max_task_s", busy);
                (pos, m)
            })
        })
        .map_err(|p| format!("task {} panicked: {}", p.index, p.message))?;
    tr.add("apx_pool.capacity_s", threads as f64 * phase.elapsed().as_secs_f64());

    let mut computed_evaluations = 0;
    for (pos, m) in computed {
        computed_evaluations += m.evaluations;
        slots[pos] = Some(m);
    }
    let entries: Vec<SweepEntry> = slots
        .into_iter()
        .zip(&tasks)
        .map(|(m, &(di, _, _))| SweepEntry {
            dist: cfg.distributions[di].name.clone(),
            dist_index: di,
            circuit: m.expect("every task is replayed or computed"),
        })
        .collect();

    // The reference estimates `run_sweep` closes with.
    let (seed_netlist, _) = seed_circuit(flow);
    let compact_seed = seed_netlist.compact();
    for (di, d) in cfg.distributions.iter().enumerate() {
        let mut est_rng =
            Xoshiro256::from_seed((flow.seed ^ 0x5EED).wrapping_add((di as u64) << 48));
        tr.span("apx_techlib.estimate", || {
            estimate_under_pmf(
                &compact_seed,
                &tech,
                &d.pmf,
                DEFAULT_CLOCK_MHZ,
                flow.activity_blocks,
                &mut est_rng,
            )
        });
    }
    let pruned: usize =
        rescored.iter().filter_map(OnceCell::get).map(RescoredLibrary::pruned).sum();
    drop(rescored);
    if let Some(lib) = &library {
        tr.add("apx_core.library.pruned", pruned as f64);
        tr.add("apx_core.library.semantic_dups", lib.semantic_dups() as f64);
    }
    Ok(Replayed { entries, computed_evaluations, library, evaluators })
}

/// Everything a pool task reads.
struct TaskRunner<'a> {
    cfg: &'a SweepConfig,
    tech: &'a TechLibrary,
    seed_chrom: &'a Chromosome,
    evaluators: &'a [Arc<CircuitEvaluator>],
    cache: Option<&'a SweepCache>,
    tr: &'a Tracer,
}

impl TaskRunner<'_> {
    /// Computes one task the way the sweep's pool worker does: evolve (or
    /// take a library candidate), score, estimate, checkpoint.
    fn run(&self, t: (usize, usize, usize), key: Option<CacheKey>, work: Work) -> EvolvedCircuit {
        let (cfg, flow, tr) = (self.cfg, &self.cfg.flow, self.tr);
        let (di, ti, run) = t;
        let threshold = flow.thresholds[ti];
        let seed = task_seed(flow.seed, di, ti, run);
        let (chromosome, netlist, evaluations, stats, seeds) = match work {
            Work::Take { chromosome, netlist, stats } => {
                (chromosome, netlist, 0, Some(stats), None)
            }
            Work::Evolve(seeds) => {
                // Threshold-0 tasks keep the exact seed without running CGP.
                let (best, evaluations, seeds) = if threshold == 0.0 {
                    (self.seed_chrom.clone(), 0, Some(seeds))
                } else {
                    self.evolve(di, threshold, seed, seeds)
                };
                let netlist = best.decode_active();
                (best, netlist, evaluations, None, seeds)
            }
        };
        let stats = stats.unwrap_or_else(|| {
            tr.span("apx_metrics.stats", || self.evaluators[di].stats(&netlist))
        });
        let mut est_rng = Xoshiro256::from_seed(seed ^ 0xE57);
        let estimate = tr.span("apx_techlib.estimate", || {
            estimate_under_pmf(
                &netlist,
                self.tech,
                &cfg.distributions[di].pmf,
                DEFAULT_CLOCK_MHZ,
                flow.activity_blocks,
                &mut est_rng,
            )
        });
        let m = EvolvedCircuit {
            name: format!("{}_t{ti}_r{run}", cfg.distributions[di].name),
            chromosome,
            netlist,
            threshold,
            run,
            stats,
            estimate,
            evaluations,
        };
        if let (Some(seeds), Some(c), Some(k)) = (seeds, self.cache, key) {
            // Checkpointed as the unseeded evolution computes it: without
            // the warm-start evaluations of the seeds that lost.
            let mut plain = m.clone();
            plain.evaluations -= seeds.len() as u64;
            let _ = tr.span("apx_core.cache.store", || {
                c.store(k, &plain, flow.operator, flow.width, flow.signed)
            });
        }
        m
    }

    /// One CGP run warm-started by `seeds`: the best chromosome, the
    /// evaluations spent, and the seeds back when none of them won — a
    /// run a seed won is not what the task's plain evolution computes, so
    /// it is not checkpointed.
    fn evolve(
        &self,
        di: usize,
        threshold: f64,
        seed: u64,
        seeds: Vec<Chromosome>,
    ) -> (Chromosome, u64, Option<Vec<Chromosome>>) {
        let flow = &self.cfg.flow;
        let fitness = TimedFitness::new(Eq1Fitness::with_evaluator(
            Arc::clone(&self.evaluators[di]),
            self.tech.clone(),
            threshold,
        ));
        let config = EvolutionConfig {
            lambda: flow.lambda,
            mutations: flow.mutations,
            max_iterations: flow.iterations,
            seed,
            parallel: false,
            target_fitness: None,
            keep_history: false,
        };
        let result = self
            .tr
            .span("apx_cgp.evolve", || evolve_seeded(self.seed_chrom, &seeds, &fitness, &config));
        fitness.report(self.tr);
        let seeds = result.initial_seed.is_none().then_some(seeds);
        (result.best, result.evaluations, seeds)
    }
}

/// Splits a replay's library passes into their parts, outside any timed
/// section: an unpruned re-score per distribution, `apx_verify`'s WMED
/// bracket for every (distribution, candidate) pair, and the functional
/// digest of every candidate.
pub fn probe_library(replayed: &Replayed, threads: usize, tr: &Tracer) {
    let Some(lib) = &replayed.library else { return };
    let tech = TechLibrary::nangate45();
    for ev in &replayed.evaluators {
        let _ = tr.span("apx_core.library.rescore_unpruned", || lib.rescore(ev, &tech, threads));
        for e in lib.candidates(ev.operator(), ev.width(), ev.is_signed()) {
            tr.span("apx_verify.bounds", || {
                apx_verify::wmed_bounds_weighted(
                    &e.netlist,
                    ev.operator(),
                    ev.width(),
                    ev.is_signed(),
                    ev.weights(),
                )
            });
        }
    }
    for e in lib.entries() {
        tr.span("apx_verify.digest", || apx_verify::functional_digest(&e.netlist));
    }
}
