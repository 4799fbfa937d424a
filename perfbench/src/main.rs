//! `perfbench`: the repository's benchmark. `run.py` builds this binary,
//! runs it once per measurement and turns its report into the metrics
//! named in `BENCHMARK.json`.
//!
//! ```text
//! perfbench bench --workload W --seed N --seconds S --trace 0|1 --out DIR
//! perfbench shard --seed N --trace 0|1 --report-dir DIR
//! perfbench setup --workload W --seed N --seconds S
//! ```
//!
//! `bench` repeats the workload's timed calls until `--seconds` have
//! passed, checks every result, and prints one JSON report line. With
//! `--trace 1` every untraced repetition is followed by a traced replay
//! of the same calls, whose spans give the per-layer numbers. `shard` is
//! the worker process `fig3_sharded` hands to `apx_core::orchestrate`;
//! `setup` samples the set-up of a workload's grid for `bench`.

mod check;
mod grids;
mod replay;
mod trace;

use apx_core::cache::{gc_cache_dir, GcConfig};
use apx_core::orchestrate::{orchestrate, OrchestratorConfig};
use apx_core::{grid_keys, run_sweep, Shard, SweepConfig, SweepEntry};
use apx_metrics::EvalBackend;
use apx_techlib::{area_of, TechLibrary};
use check::{entry_digest, run_digest, OutputCheck};
use grids::Workload;
use replay::{probe_library, replay_sweep, seed_circuit};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bench") => bench(&flags(&args[1..])),
        Some("shard") => shard(&flags(&args[1..])),
        Some("setup") => setup(&flags(&args[1..])),
        _ => Err("usage: perfbench bench|shard|setup --flag value ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs.
fn flags(args: &[String]) -> HashMap<String, String> {
    args.chunks(2)
        .filter_map(|kv| Some((kv[0].strip_prefix("--")?.to_owned(), kv.get(1)?.clone())))
        .collect()
}

fn flag<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> Result<T, String> {
    f.get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("bad --{key}"))
}

/// Resets this process's peak resident set size to its current one, so
/// each repetition's peak can be read on its own.
fn reset_vmhwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in KiB.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let read = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for f in read.filter_map(Result::ok) {
        std::fs::copy(f.path(), to.join(f.file_name())).map_err(|e| format!("copy: {e}"))?;
    }
    Ok(())
}

/// What one execution of a workload's timed calls produced.
struct Outcome {
    wall_s: f64,
    setup_s: f64,
    evals: u64,
    entries: Vec<SweepEntry>,
    /// Peak RSS of worker processes, in KiB (0 when there are none).
    worker_rss_kb: u64,
    /// The traced replay's library and evaluators, for the probes.
    replayed: Option<replay::Replayed>,
}

/// Everything a run sets up once, untimed.
struct Ctx {
    workload: Workload,
    seed: u64,
    /// Donor cache of `fig3_retarget`, filled by a Fig. 3 fixture run.
    donor: PathBuf,
    /// The workload's grid without a cache directory, which the entries
    /// are checked against.
    grid: SweepConfig,
    /// Exact seed area, the denominator of `area_ratio`.
    seed_area: f64,
}

impl Ctx {
    fn new(workload: Workload, seed: u64, tmp: &Path) -> Result<Self, String> {
        let donor = tmp.join("donor");
        if workload == Workload::Retarget {
            fresh_dir(&donor)?;
            run_sweep(&grids::fig3(seed, Some(&donor))).map_err(|e| e.to_string())?;
        }
        let grid = grid_of(workload, seed, &donor, None);
        let seed_area =
            area_of(&seed_circuit(&grid.flow).1.decode_active(), &TechLibrary::nangate45());
        Ok(Ctx { workload, seed, donor, grid, seed_area })
    }

    /// Median of the set-up samples of one untraced repetition: its own,
    /// plus those of a `setup` process that samples the same grid for
    /// another `SETUP_PROBE_SHARE` of the repetition's wall time. Sharded
    /// set-up happens in the shard processes and is not probed.
    fn setup_sample(&self, out: &Outcome) -> Result<f64, String> {
        let mut samples = vec![out.setup_s];
        if self.workload != Workload::Sharded {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let probe = Command::new(exe)
                .args(["setup", "--workload", self.workload.name(), "--seed"])
                .arg(self.seed.to_string())
                .arg("--seconds")
                .arg((SETUP_PROBE_SHARE * out.wall_s).to_string())
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            if !probe.status.success() {
                return Err(format!("setup probe: {}", String::from_utf8_lossy(&probe.stderr)));
            }
            for line in String::from_utf8_lossy(&probe.stdout).lines() {
                samples.push(line.parse().map_err(|_| format!("setup probe printed {line}"))?);
            }
        }
        samples.sort_by(f64::total_cmp);
        Ok(samples[samples.len() / 2])
    }

    /// Runs the workload's timed calls once in the fresh directory `dir`,
    /// traced when `tr` is given.
    fn run_once(&self, dir: &Path, tr: Option<&Tracer>) -> Result<Outcome, String> {
        fresh_dir(dir)?;
        let cache = dir.join("cache");
        let cfg = grid_of(self.workload, self.seed, &self.donor, Some(&cache));
        match self.workload {
            Workload::Cold => timed(|| sweep(&cfg, tr)),
            Workload::Retarget => {
                let gc_dir = dir.join("gc");
                copy_dir(&self.donor, &gc_dir)?;
                let gc_cfg = GcConfig {
                    keep: grid_keys(&cfg).into_iter().collect(),
                    distributions: cfg.distributions.iter().map(|d| d.pmf.clone()).collect(),
                    threads: grids::THREADS,
                    tmp_ttl: Duration::ZERO,
                    collapse_equiv: true,
                };
                let out = timed(|| {
                    let out = sweep(&cfg, tr)?;
                    let report = span(tr, "apx_core.cache.gc", || gc_cache_dir(&gc_dir, &gc_cfg))
                        .map_err(|e| format!("gc: {e}"))?;
                    if let Some(tr) = tr {
                        let deleted = report.evicted + report.corrupt_removed + report.tmp_removed;
                        tr.add("apx_core.cache.gc_deleted", deleted as f64);
                    }
                    Ok(out)
                })?;
                if let (Some(tr), Some(replayed)) = (tr, &out.replayed) {
                    probe_library(replayed, grids::THREADS, tr);
                }
                Ok(out)
            }
            Workload::Sharded => self.run_sharded(dir, &cfg, tr),
        }
    }

    /// Orchestrates the shards of `cfg` over its cache directory, then
    /// assembles the result with an unsharded pass over the same grid.
    fn run_sharded(
        &self,
        dir: &Path,
        cfg: &SweepConfig,
        tr: Option<&Tracer>,
    ) -> Result<Outcome, String> {
        let reports = dir.join("reports");
        fresh_dir(&reports)?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let cache = cfg.cache_dir.as_deref().expect("the sharded grid has a cache");
        let mut orch = OrchestratorConfig::new(exe, grids::SHARDS, cache);
        let trace = u8::from(tr.is_some()).to_string();
        let args = ["shard", "--seed", &self.seed.to_string(), "--trace", &trace, "--report-dir"];
        orch.args = args.iter().map(|a| (*a).to_owned()).collect();
        orch.args.push(reports.display().to_string());
        let mut out = timed(|| {
            let report = span(tr, "apx_core.orchestrate.shard", || orchestrate(&orch, |_| {}))
                .map_err(|e| e.to_string())?;
            if !report.all_succeeded() {
                return Err("a shard exhausted its relaunch budget".into());
            }
            if let Some(tr) = tr {
                let launches: usize = report.shards.iter().map(|s| s.launches).sum();
                tr.add("apx_core.orchestrate.launches", launches as f64);
            }
            let mut out = span(tr, "apx_core.orchestrate.assembly", || sweep(cfg, tr))?;
            // The assembly pass replays every task; the evaluations behind
            // them were spent by this repetition's shards.
            out.evals = out.entries.iter().map(|e| e.circuit.evaluations).sum();
            Ok(out)
        })?;
        let mut shard_setup = 0.0f64;
        for i in 0..grids::SHARDS {
            let path = reports.join(format!("shard-{i}.txt"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            for (k, v) in text.lines().filter_map(|l| l.split_once('=')) {
                let v: f64 = v.parse().map_err(|_| format!("bad report line {k}={v}"))?;
                match (k, tr) {
                    ("setup_s", _) => shard_setup = shard_setup.max(v),
                    ("vmhwm_kb", _) => out.worker_rss_kb = out.worker_rss_kb.max(v as u64),
                    ("apx_pool.max_task_s", Some(tr)) => tr.max(k, v),
                    (_, Some(tr)) => tr.add(k, v),
                    _ => {}
                }
            }
        }
        // Shards set up concurrently: the slowest one is on the critical
        // path, followed by the assembly pass's own set-up.
        out.setup_s += shard_setup;
        Ok(out)
    }
}

/// Share of a repetition's wall time spent on extra set-up samples,
/// taken in a separate process so they leave nothing in this one's heap.
const SETUP_PROBE_SHARE: f64 = 0.05;

/// The workload's sweep grid writing into `cache`.
fn grid_of(workload: Workload, seed: u64, donor: &Path, cache: Option<&Path>) -> SweepConfig {
    match workload {
        Workload::Cold | Workload::Sharded => grids::fig3(seed, cache),
        Workload::Retarget => grids::retarget(seed, donor, cache),
    }
}

/// Runs `f` inside a span when tracing.
fn span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// One sweep, through `run_sweep` or the traced replay. The caller times
/// it and fills in `wall_s`.
fn sweep(cfg: &SweepConfig, tr: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome {
        wall_s: 0.0,
        setup_s: 0.0,
        evals: 0,
        entries: Vec::new(),
        worker_rss_kb: 0,
        replayed: None,
    };
    match tr {
        None => {
            let t0 = Instant::now();
            let res = run_sweep(cfg).map_err(|e| e.to_string())?;
            out.setup_s = t0.elapsed().as_secs_f64() - res.stats.wall_seconds;
            out.evals = res.stats.computed_evaluations;
            out.entries = res.entries;
        }
        Some(tr) => {
            let mut r = replay_sweep(cfg, tr)?;
            out.evals = r.computed_evaluations;
            out.entries = std::mem::take(&mut r.entries);
            out.replayed = Some(r);
        }
    }
    Ok(out)
}

/// Times `f`, the workload's timed calls, from the outside.
fn timed(f: impl FnOnce() -> Result<Outcome, String>) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut out = f()?;
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Geometric mean of area / exact-seed area over the nonzero thresholds.
fn area_ratio(entries: &[SweepEntry], seed_area: f64) -> f64 {
    let tech = TechLibrary::nangate45();
    let logs: Vec<f64> = entries
        .iter()
        .filter(|e| e.circuit.threshold > 0.0)
        .map(|e| (area_of(&e.circuit.netlist, &tech) / seed_area).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Per-layer metrics derived from a traced replay's raw totals.
fn layer_metrics(mut t: BTreeMap<String, f64>, overhead: f64) -> BTreeMap<String, f64> {
    let get = |t: &BTreeMap<String, f64>, k: &str| t.get(k).copied().unwrap_or(0.0);
    let evals = get(&t, "apx_core.fitness.eval_n");
    if evals > 0.0 {
        t.insert(
            "apx_core.fitness.reject_ratio".into(),
            get(&t, "apx_core.fitness.rejected") / evals,
        );
    }
    let self_s = get(&t, "apx_cgp.evolve_s")
        - get(&t, "apx_core.fitness.eval_s")
        - get(&t, "apx_core.fitness.rebase_s");
    t.insert("apx_cgp.self_s".into(), self_s);
    let capacity = get(&t, "apx_pool.capacity_s");
    if capacity > 0.0 {
        t.insert("apx_pool.idle_ratio".into(), 1.0 - get(&t, "apx_pool.busy_s") / capacity);
    }
    t.insert("trace.overhead_ratio".into(), overhead);
    t
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(*v))).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bench(f: &HashMap<String, String>) -> Result<(), String> {
    let name: String = flag(f, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = flag(f, "seed")?;
    let seconds: f64 = flag(f, "seconds")?;
    let traced = flag::<u8>(f, "trace")? == 1;
    let out: PathBuf = flag(f, "out")?;
    let tmp = out.join("tmp").join(format!("{name}-{seed}-{}", std::process::id()));
    fresh_dir(&tmp)?;
    let result = measure(workload, seed, seconds, traced, &tmp, &out);
    let _ = std::fs::remove_dir_all(&tmp);
    println!("{}", result?);
    Ok(())
}

/// Runs the repetitions of one benchmark run and returns its JSON report.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tmp: &Path,
    out: &Path,
) -> Result<String, String> {
    let ctx = Ctx::new(workload, seed, tmp)?;
    let grid_size = replay::flat_grid(&ctx.grid).len();
    // The entries every repetition must reproduce bit for bit:
    // `fig3_sharded` must reproduce `fig3_cold`, any other workload its
    // own first repetition.
    let mut reference: Option<Vec<SweepEntry>> = match workload {
        Workload::Sharded => Some(run_sweep(&ctx.grid).map_err(|e| e.to_string())?.entries),
        _ => None,
    };
    let mut reps: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut spans = String::new();
    // Entry digests of every outcome; `None` for a repetition that failed.
    let mut outcomes: Vec<Option<Vec<u64>>> = Vec::new();
    let mut errors: Vec<String> = Vec::new();

    let started = Instant::now();
    let mut rep = 0usize;
    loop {
        let dir = tmp.join(format!("rep{rep}"));
        reset_vmhwm();
        let untraced = ctx.run_once(&dir, None);
        let rss_kb = vmhwm_kb();
        let _ = std::fs::remove_dir_all(&dir);
        let untraced = untraced.and_then(|o| Ok((ctx.setup_sample(&o)?, o)));
        let untraced_wall = match untraced {
            Ok((setup_s, o)) => {
                let mut m = BTreeMap::new();
                m.insert("peak_rss_mb".to_owned(), rss_kb.max(o.worker_rss_kb) as f64 / 1024.0);
                m.insert("wall_s".to_owned(), o.wall_s);
                m.insert("setup_s".to_owned(), setup_s);
                m.insert("evals_per_s".to_owned(), o.evals as f64 / o.wall_s);
                m.insert("tasks_per_s".to_owned(), o.entries.len() as f64 / o.wall_s);
                m.insert("area_ratio".to_owned(), area_ratio(&o.entries, ctx.seed_area));
                reps.push(m);
                outcomes.push(Some(o.entries.iter().map(entry_digest).collect()));
                reference.get_or_insert(o.entries);
                Some(o.wall_s)
            }
            Err(e) => {
                errors.push(e);
                outcomes.push(None);
                None
            }
        };
        if traced {
            let tr = Tracer::new();
            let result = ctx.run_once(&dir, Some(&tr));
            let _ = std::fs::remove_dir_all(&dir);
            match result {
                Ok(o) => {
                    outcomes.push(Some(o.entries.iter().map(entry_digest).collect()));
                    let overhead = untraced_wall.map_or(f64::NAN, |w| o.wall_s / w - 1.0);
                    layers.push(layer_metrics(tr.totals(), overhead));
                    for s in tr.spans() {
                        let _ = writeln!(
                            spans,
                            "{{\"rep\": {rep}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                             \"parent\": {}, \"task\": {}}}",
                            s.name,
                            s.start_ns,
                            s.end_ns,
                            i64::from(s.parent as i32),
                            i64::from(s.task as i32),
                        );
                    }
                }
                Err(e) => {
                    errors.push(e);
                    outcomes.push(None);
                }
            }
        }
        rep += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Check the reference once, then hold every outcome to it entry by
    // entry: an entry fails if it differs or if the reference failed there.
    let reference = reference.unwrap_or_default();
    let mut bad_ref = vec![reference.len() != grid_size; grid_size];
    for (i, msg) in OutputCheck::new(&ctx.grid).check(&reference) {
        errors.push(msg);
        bad_ref[i] = true;
    }
    let want: Vec<u64> = reference.iter().map(entry_digest).collect();
    let attempted = grid_size * outcomes.len();
    let mut failed = 0;
    for digests in &outcomes {
        let Some(digests) = digests else {
            failed += grid_size;
            continue;
        };
        if digests.len() != grid_size {
            errors.push(format!("{} entries, expected {grid_size}", digests.len()));
            failed += grid_size;
            continue;
        }
        for (i, bad) in bad_ref.iter().enumerate() {
            if *bad || want.get(i) != Some(&digests[i]) {
                failed += 1;
                if !*bad {
                    let name = &reference[i].circuit.name;
                    errors.push(format!("{name}: result differs from the reference run"));
                }
            }
        }
    }
    if traced {
        let path = out.join(format!("spans-{}-{seed}.jsonl", workload.name()));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let list = |v: &[BTreeMap<String, f64>]| v.iter().map(json_map).collect::<Vec<_>>().join(", ");
    let errors: Vec<String> = errors.iter().take(20).map(|e| json_str(e)).collect();
    Ok(format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"backend\": \"{}\", \"avx2\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \
         \"digest\": \"{:016x}\", \"reps\": [{}], \"layers\": [{}], \"errors\": [{}]}}",
        workload.name(),
        EvalBackend::from_env(),
        cfg!(target_feature = "avx2"),
        run_digest(&want),
        list(&reps),
        list(&layers),
        errors.join(", "),
    ))
}

/// Worker process of `fig3_sharded`: computes the shard named by
/// `APX_SHARD` into `APX_CACHE_DIR` and leaves a report for the parent.
fn shard(f: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(f, "seed")?;
    let traced = flag::<u8>(f, "trace")? == 1;
    let report_dir: PathBuf = flag(f, "report-dir")?;
    let spec = std::env::var("APX_SHARD").map_err(|_| "APX_SHARD not set")?;
    let (index, count) = spec
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
        .ok_or_else(|| format!("bad APX_SHARD {spec}"))?;
    let cache = PathBuf::from(std::env::var("APX_CACHE_DIR").map_err(|_| "APX_CACHE_DIR not set")?);
    let mut cfg = grids::fig3(seed, Some(&cache));
    cfg.flow.threads = 1;
    cfg.shard = Some(Shard { index, count });
    let mut report = String::new();
    if traced {
        let tr = Tracer::new();
        replay_sweep(&cfg, &tr)?;
        for (k, v) in tr.totals() {
            let _ = writeln!(report, "{k}={v}");
        }
    } else {
        let swept = sweep(&cfg, None)?;
        let _ = writeln!(report, "setup_s={}", swept.setup_s);
    }
    let _ = writeln!(report, "vmhwm_kb={}", vmhwm_kb());
    let path = report_dir.join(format!("shard-{index}.txt"));
    let tmp = report_dir.join(format!(".shard-{index}.tmp"));
    std::fs::write(&tmp, report)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| e.to_string())
}

/// Set-up sampler of `bench`: runs `run_sweep` on an empty shard of the
/// workload's grid, without cache or library, so the timed phase does
/// nothing, until `--seconds` have passed (at least once), and prints
/// each set-up time in seconds on a line of its own.
fn setup(f: &HashMap<String, String>) -> Result<(), String> {
    let name: String = flag(f, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = flag(f, "seed")?;
    let seconds: f64 = flag(f, "seconds")?;
    let grid = grid_of(workload, seed, Path::new(""), None);
    let tasks = replay::flat_grid(&grid).len();
    let cfg = SweepConfig {
        shard: Some(Shard { index: tasks, count: tasks + 1 }),
        library: None,
        ..grid
    };
    let mut samples = String::new();
    let t0 = Instant::now();
    loop {
        let _ = writeln!(samples, "{}", sweep(&cfg, None)?.setup_s);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    print!("{samples}");
    Ok(())
}
