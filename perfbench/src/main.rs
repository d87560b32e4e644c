//! `perfbench`: the end-to-end and per-layer benchmark of the
//! transform-dialect workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lower_models --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload for `--seconds` seconds in whole rounds
//! of identical operations, checks every output, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! taken from spans the benchmark records around its own calls into each
//! layer (see `README.md`). End-to-end timings are read on the process CPU
//! clock ([`measure::cpu_ms`]), so the host's steal time does not count.

mod measure;
mod reference;
mod replay;
mod trace;
mod workloads;

use measure::{cpu_ms, cpu_ms_since, geomean, mean, median, ms_since, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use td_sched::{Engine, EngineConfig, Job};

/// Set-up repetitions per run, spread evenly over the measured time so
/// that their median sees the same machine phases as the jobs do.
const SETUP_SAMPLES: usize = 21;
/// Untraced rounds are grouped into windows of at least this much timed
/// CPU time; `jobs_per_cpu_s` is the median over the windows, so a slow
/// stretch of a few seconds moves it less than a mean would.
const WINDOW_MS: f64 = 1000.0;

/// One workload: a seeded set-up and a round of identical operations.
pub trait Workload: Sized {
    /// Builds the inputs and the program state from the seed. This is
    /// the timed set-up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Computes the correctness oracle for the inputs (untimed, once).
    fn prepare(&mut self) -> Result<(), String>;
    /// Takes over the inputs and program state of a repeated set-up,
    /// keeping the oracle; the repeated inputs must equal the first.
    fn adopt(&mut self, fresh: Self) -> Result<(), String>;
    /// Runs one round. An error means a wrong output and ends the run.
    fn round(&mut self, round: &mut Round) -> Result<(), String>;
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Whether spans and replays are recorded this round.
    pub traced: bool,
    /// Per-job process CPU times, ms.
    pub job_ms: Vec<f64>,
    /// Per-class samples for `model_cpu_ms_gmean`, ms.
    pub class_ms: BTreeMap<usize, Vec<f64>>,
    /// Jobs completed (the `jobs_per_cpu_s` numerator).
    pub jobs: u64,
    /// Process CPU time of the timed sections, ms.
    pub cpu_ms: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Jobs whose layers were traced (the per-job denominator).
    pub traced_jobs: u64,
    /// Per-layer sums (counts, or ms not covered by spans).
    pub sums: BTreeMap<&'static str, f64>,
    /// Per-layer samples, reported as medians.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Spans recorded this round, one chunk per recording thread.
    pub spans: Vec<Vec<trace::Span>>,
}

impl Round {
    /// Records one completed job of `class` that took `ms` of process
    /// CPU time.
    pub fn job(&mut self, class: usize, ms: f64) {
        self.job_ms.push(ms);
        self.class_ms.entry(class).or_default().push(ms);
        self.jobs += 1;
        self.attempted += 1;
    }

    /// Runs `f` as a timed section: its process CPU time counts towards
    /// `jobs_per_cpu_s`. Checks and replays run outside timed sections.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = cpu_ms();
        let result = f();
        self.cpu_ms += cpu_ms_since(start);
        result
    }

    /// Adds `value` to the per-layer sum `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Records the replay of one traced job; `batch_ms` is the time of the
    /// `run_batch` call that ran it, when the benchmark made that call.
    pub fn traced_job(
        &mut self,
        replayed: &replay::Replay,
        batch_ms: Option<f64>,
        hit: bool,
        ops_out: usize,
    ) {
        self.traced_jobs += 1;
        self.add("sched.lookups", 1.0);
        self.add("sched.hits", if hit { 1.0 } else { 0.0 });
        if let Some(batch_ms) = batch_ms {
            self.add("sched.unattributed", batch_ms - replayed.calls_ms);
        }
        self.add("transform.steps", replayed.steps as f64);
        self.add("transform.undo_entries", replayed.undo_entries as f64);
        self.add("transform.rolled_back", replayed.rolled_back as f64);
        self.add("ir.ops_out", ops_out as f64);
    }

    /// Records a per-layer sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// How a per-layer metric is derived from the traced rounds.
enum Rule {
    /// Self time of the named spans per traced job.
    SelfPerJob(&'static str),
    /// A per-layer sum per traced job.
    SumPerJob(&'static str),
    /// The median of per-layer samples.
    Median(&'static str),
    /// The ratio of two per-layer sums.
    Ratio(&'static str, &'static str),
    /// Tracing overhead: the mean job CPU time of traced rounds over that
    /// of untraced rounds, in percent (replays run outside the job times).
    Overhead,
}

/// The per-layer metrics, as listed in `BENCHMARK.json`.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Rule)] = &[
    ("ir.parse_ms", "ms", Rule::SelfPerJob("ir.parse")),
    ("ir.fingerprint_ms", "ms", Rule::SelfPerJob("ir.fingerprint")),
    ("ir.print_ms", "ms", Rule::SelfPerJob("ir.print")),
    ("ir.ops_out", "count", Rule::SumPerJob("ir.ops_out")),
    ("transform.apply_ms", "ms", Rule::SelfPerJob("transform.apply")),
    ("transform.steps", "count", Rule::SumPerJob("transform.steps")),
    ("transform.undo_entries", "count", Rule::SumPerJob("transform.undo_entries")),
    ("transform.rolled_back", "count", Rule::SumPerJob("transform.rolled_back")),
    ("passes.pipeline_ms", "ms", Rule::SelfPerJob("passes.pipeline")),
    ("sched.batch_ms", "ms", Rule::SelfPerJob("sched.batch")),
    ("sched.batch_fixed_ms", "ms", Rule::Median("sched.batch_fixed")),
    ("sched.unattributed_ms", "ms", Rule::SumPerJob("sched.unattributed")),
    ("sched.cache_hit_ratio", "ratio", Rule::Ratio("sched.hits", "sched.lookups")),
    ("serve.ping_ms", "ms", Rule::Median("serve.ping")),
    ("serve.hit_ms", "ms", Rule::Median("serve.hit")),
    ("serve.disk_hit_ms", "ms", Rule::Median("serve.disk_hit")),
    ("serve.miss_ms", "ms", Rule::Median("serve.miss")),
    ("serve.disk_hit_ratio", "ratio", Rule::Ratio("serve.disk_hits", "serve.memory_misses")),
    ("machine.sim_ms", "ms", Rule::SelfPerJob("machine.sim")),
    ("machine.instructions", "count", Rule::SumPerJob("machine.instructions")),
    ("autotune.suggest_ms", "ms", Rule::SelfPerJob("autotune.suggest")),
    ("autotune.best_sim_speedup", "x", Rule::Median("autotune.best_sim_speedup")),
    ("env.probe_ms", "ms", Rule::Median("env.probe")),
    ("trace.overhead_pct", "%", Rule::Overhead),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// Everything a run accumulates over its rounds.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    /// Closed windows of untraced rounds: (jobs, CPU ms).
    windows: Vec<(f64, f64)>,
    /// The window being filled.
    open: (f64, f64),
    untraced: Round,
    traced: Round,
    self_ms: BTreeMap<&'static str, f64>,
    spans: Vec<trace::Span>,
    /// Wall time of the measured loop, s, and the host's steal time over
    /// it, ms summed over the machine's CPUs (diagnostics only).
    wall_s: f64,
    steal_ms: f64,
}

/// `sched.batch_fixed`: a single cached job through `Engine::run_batch`,
/// the engine's fixed cost per batch.
struct FixedBatch {
    engine: Engine,
    job: Job,
}

impl FixedBatch {
    fn new() -> FixedBatch {
        let job = Job::new(
            workloads::tune_sweep::tile_script(2, 2, 1),
            workloads::tune_sweep::nest_payload(8, 8, 4),
        );
        let engine = Engine::new(EngineConfig::standard().with_workers(1));
        engine.run_batch(vec![job.clone()]);
        FixedBatch { engine, job }
    }

    /// Times five back-to-back batches of the cached job. Their median
    /// over the run is `sched.batch_fixed_ms`, so the first batch of a
    /// round, cold after the probe, does not set it.
    fn record(&self, round: &mut Round) {
        for _ in 0..5 {
            let start = Instant::now();
            let report = self.engine.run_batch(vec![self.job.clone()]);
            round.sample("sched.batch_fixed", ms_since(start));
            assert!(matches!(&report.results[0], Ok(out) if out.from_cache));
        }
    }
}

fn drive<W: Workload>(args: &Args) -> Result<(Totals, bool), String> {
    let mut totals = Totals::default();
    // The probe's buffer exists before the program's first call, so it
    // is a constant part of the peak RSS, which `end_to_end` takes off.
    let mut probe = measure::Probe::new();
    let start = Instant::now();
    let setup = cpu_ms();
    let mut workload = W::setup(args.seed)?;
    totals.setup_s.push(cpu_ms_since(setup) / 1e3);
    workload.prepare()?;
    let fixed = args.trace.then(FixedBatch::new);

    let measured = Instant::now();
    let steal = measure::steal_ticks();
    let budget = Duration::from_secs_f64(args.seconds);
    let setup_every = budget / SETUP_SAMPLES as u32;
    let mut next_setup = setup_every;
    let mut index = 0usize;
    while measured.elapsed() < budget {
        let probe_ms = probe.run_ms();
        // A traced run alternates traced and untraced rounds, so the
        // difference between the two is the tracing overhead.
        let traced = args.trace && index % 2 == 1;
        let mut round = Round {
            traced,
            ..Round::default()
        };
        round.sample("env.probe", probe_ms);
        if traced {
            trace::enable(start, 0);
            if let Some(fixed) = &fixed {
                fixed.record(&mut round);
            }
        }
        let outcome = workload.round(&mut round);
        if traced {
            round.spans.push(trace::take());
        }
        if let Err(message) = outcome {
            eprintln!("perfbench: wrong output: {message}");
            return Ok((totals, false));
        }
        if traced {
            for chunk in std::mem::take(&mut round.spans) {
                for (name, ms) in trace::self_ms(&chunk) {
                    *totals.self_ms.entry(name).or_insert(0.0) += ms;
                }
                totals.spans.extend(chunk);
            }
            merge(&mut totals.traced, round);
        } else {
            let open = &mut totals.open;
            *open = (open.0 + round.jobs as f64, open.1 + round.cpu_ms);
            if open.1 >= WINDOW_MS {
                totals.windows.push(std::mem::take(open));
            }
            merge(&mut totals.untraced, round);
        }
        index += 1;
        if totals.setup_s.len() < SETUP_SAMPLES && measured.elapsed() >= next_setup {
            let again = cpu_ms();
            let fresh = W::setup(args.seed)?;
            totals.setup_s.push(cpu_ms_since(again) / 1e3);
            workload.adopt(fresh)?;
            next_setup += setup_every;
        }
    }
    totals.wall_s = measured.elapsed().as_secs_f64();
    totals.steal_ms = (measure::steal_ticks() - steal) * 10.0;
    Ok((totals, true))
}

fn merge(into: &mut Round, round: Round) {
    into.job_ms.extend(round.job_ms);
    for (class, samples) in round.class_ms {
        into.class_ms.entry(class).or_default().extend(samples);
    }
    into.jobs += round.jobs;
    into.attempted += round.attempted;
    into.failed += round.failed;
    into.traced_jobs += round.traced_jobs;
    for (name, value) in round.sums {
        *into.sums.entry(name).or_insert(0.0) += value;
    }
    for (name, samples) in round.samples {
        into.samples.entry(name).or_default().extend(samples);
    }
}

/// The end-to-end metrics; `peak_rss_mb` is `VmHWM` as read when the
/// last round ended, before the statistics below copy the samples.
fn end_to_end(totals: &Totals, peak_rss_mb: f64) -> Vec<(&'static str, &'static str, f64)> {
    let run = &totals.untraced;
    let class_medians: Vec<f64> = run.class_ms.values().map(|s| median(s)).collect();
    // A run too short to close a window reports its one open window.
    let mut windows = totals.windows.clone();
    if windows.is_empty() {
        windows.push(totals.open);
    }
    let rates: Vec<f64> = windows.iter().map(|w| w.0 / (w.1 / 1e3)).collect();
    vec![
        ("setup_s", "s", median(&totals.setup_s)),
        ("jobs_per_cpu_s", "1/s", median(&rates)),
        ("job_cpu_ms_p50", "ms", percentile(&run.job_ms, 0.5)),
        ("job_cpu_ms_p90", "ms", percentile(&run.job_ms, 0.9)),
        ("model_cpu_ms_gmean", "ms", geomean(&class_medians)),
        ("peak_rss_mb", "MB", peak_rss_mb - measure::PROBE_MB),
    ]
}

fn per_layer(totals: &Totals) -> Vec<(&'static str, &'static str, f64)> {
    let run = &totals.traced;
    let per_job = run.traced_jobs.max(1) as f64;
    let sum = |name: &str| run.sums.get(name).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|(name, unit, rule)| {
            let value = match rule {
                Rule::SelfPerJob(span) => {
                    totals.self_ms.get(span).copied().unwrap_or(0.0) / per_job
                }
                Rule::SumPerJob(key) => sum(key) / per_job,
                Rule::Median(key) => run.samples.get(key).map_or(0.0, |s| median(s)),
                Rule::Ratio(num, den) if sum(den) > 0.0 => sum(num) / sum(den),
                Rule::Ratio(..) => 0.0,
                Rule::Overhead => {
                    let traced = mean(&totals.traced.job_ms);
                    let untraced = mean(&totals.untraced.job_ms);
                    if untraced > 0.0 {
                        (traced / untraced - 1.0) * 100.0
                    } else {
                        0.0
                    }
                }
            };
            (*name, *unit, value)
        })
        .collect()
}

/// Writes the traced run's spans once, at the end, next to the build.
fn write_trace(args: &Args, spans: &[trace::Span]) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()),
    )
    .join("perfbench");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)))
    {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    measure::cap_malloc_arenas();
    if std::env::args().any(|a| a == "--reference") {
        if let Err(message) = reference::print_reference() {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
        return;
    }
    // Before any thread starts, so that every thread inherits the mask.
    if let Err(message) = measure::pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned: {message}");
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "lower_models" => drive::<workloads::lower_models::LowerModels>(&args),
        "tune_sweep" => drive::<workloads::tune_sweep::TuneSweep>(&args),
        "serve_mix" => drive::<workloads::serve_mix::ServeMix>(&args),
        "autotune_sim" => drive::<workloads::autotune_sim::AutotuneSim>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let peak_rss_mb = measure::peak_rss_mb();
    let (totals, correct) = match outcome {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    // Traced runs also run untraced rounds; both count as attempts.
    let attempted = totals.traced.attempted + totals.untraced.attempted;
    let failed = totals.traced.failed + totals.untraced.failed;
    let metrics = if args.trace {
        write_trace(&args, &totals.spans);
        per_layer(&totals)
    } else {
        let probes = totals.untraced.samples.get("env.probe");
        eprintln!(
            "perfbench: env.probe_ms median {:.3} over {} samples; host steal {:.0} ms in {:.1} s",
            probes.map_or(0.0, |s| median(s)),
            probes.map_or(0, Vec::len),
            totals.steal_ms,
            totals.wall_s
        );
        end_to_end(&totals, peak_rss_mb)
    };
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted, failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct || attempted == 0 {
        std::process::exit(1);
    }
}
