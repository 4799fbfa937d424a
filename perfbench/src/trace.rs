//! In-memory tracing for the traced replay: spans at every layer boundary
//! the replay crosses, plus counters for the per-evaluation work that is
//! too fine-grained to record as one span per call.
//!
//! A span is `(name, start, end, parent, task)`. Spans are appended to one
//! mutex-guarded vector and only read after the replay, when they are
//! folded into per-layer busy times (`<name>_s`) and call counts
//! (`<name>_n`) and written out as JSON lines.

use apx_cgp::{Chromosome, FitnessFn};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for "no parent span" and "no task".
pub const NONE: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub task: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// The innermost open span on this thread and the task it belongs to.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((NONE, NONE)) };
}

/// Span and counter sink of one traced replay.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of this thread's open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, task) = CURRENT.with(Cell::get);
        self.span_under(name, parent, task, f)
    }

    /// Runs `f` inside a span with an explicit parent and task id — the
    /// entry point on pool worker threads, which inherit no open span.
    pub fn span_under<R>(
        &self,
        name: &'static str,
        parent: u32,
        task: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span sink");
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, task });
            (spans.len() - 1) as u32
        };
        let outer = CURRENT.with(|c| c.replace((id, task)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        let mut spans = self.spans.lock().expect("span sink");
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = end_ns;
        out
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> u32 {
        CURRENT.with(Cell::get).0
    }

    /// Adds `v` to counter `name`.
    pub fn add(&self, name: &str, v: f64) {
        *self.counters.lock().expect("counter sink").entry(name.to_owned()).or_insert(0.0) += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&self, name: &str, v: f64) {
        let mut counters = self.counters.lock().expect("counter sink");
        let slot = counters.entry(name.to_owned()).or_insert(v);
        *slot = slot.max(v);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink").clone()
    }

    /// Busy time `<name>_s` and call count `<name>_n` per span name, plus
    /// every counter.
    pub fn totals(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.lock().expect("span sink").iter() {
            *out.entry(format!("{}_s", s.name)).or_insert(0.0) += s.seconds();
            *out.entry(format!("{}_n", s.name)).or_insert(0.0) += 1.0;
        }
        for (k, v) in self.counters.lock().expect("counter sink").iter() {
            *out.entry(k.clone()).or_insert(0.0) += v;
        }
        out
    }
}

/// A [`FitnessFn`] that times every call into the wrapped fitness.
///
/// One instance serves one evolution, which the sweep runs sequentially
/// (`parallel: false`), so the atomics are uncontended.
pub struct TimedFitness<F> {
    inner: F,
    eval_ns: AtomicU64,
    evals: AtomicU64,
    rejected: AtomicU64,
    rebase_ns: AtomicU64,
    rebases: AtomicU64,
}

impl<F: FitnessFn> TimedFitness<F> {
    pub fn new(inner: F) -> Self {
        TimedFitness {
            inner,
            eval_ns: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rebase_ns: AtomicU64::new(0),
            rebases: AtomicU64::new(0),
        }
    }

    /// Folds this evolution's counts into `tracer`.
    pub fn report(&self, tracer: &Tracer) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        tracer.add("apx_core.fitness.eval_s", get(&self.eval_ns) * 1e-9);
        tracer.add("apx_core.fitness.eval_n", get(&self.evals));
        tracer.add("apx_core.fitness.rejected", get(&self.rejected));
        tracer.add("apx_core.fitness.rebase_s", get(&self.rebase_ns) * 1e-9);
        tracer.add("apx_core.fitness.rebase_n", get(&self.rebases));
    }
}

impl<F: FitnessFn> FitnessFn for &TimedFitness<F> {
    fn eval(&self, c: &Chromosome) -> f64 {
        let t = Instant::now();
        let fit = self.inner.eval(c);
        self.eval_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.evals.fetch_add(1, Ordering::Relaxed);
        if fit == f64::INFINITY {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        fit
    }

    fn rebase(&self, parent: &Chromosome) {
        let t = Instant::now();
        self.inner.rebase(parent);
        self.rebase_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rebases.fetch_add(1, Ordering::Relaxed);
    }

    fn rebase_scored(&self, parent: &Chromosome, fit: f64) {
        let t = Instant::now();
        self.inner.rebase_scored(parent, fit);
        self.rebase_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rebases.fetch_add(1, Ordering::Relaxed);
    }
}
