//! `autotune_sim`: Case Study 5 at reduced size. `BayesOpt` searches the
//! tile space of a CS4 matmul nest through `tune_schedules`; every
//! candidate's output is executed on td-machine with caches scaled to the
//! nest, and its simulated time is the cost. Simulation dominates; this is
//! the workload that measures td-machine and td-autotune.

use super::tune_sweep::{nest_payload, tile_script};
use crate::measure::{cpu_ms, cpu_ms_since};
use crate::replay::{self, fresh_context};
use crate::trace;
use crate::{Round, Workload};
use std::cell::{Cell, RefCell};
use std::time::Instant;
use td_autotune::{divisors, BayesOpt, Config, ParamDomain, ParamSpace, Searcher};
use td_ir::PassRegistry;
use td_machine::{run_function_with_buffers, ArgBuilder, ExecConfig, ExecReport};
use td_sched::{tune_schedules, Engine, EngineConfig};
use td_support::rng::Xoshiro256pp;

/// The nest `C[M,N] += A[M,K] * B[K,N]`: about 1/50 of the paper-scale
/// CS4 layer, so an evaluation takes tens of milliseconds.
const M: i64 = 24;
const N: i64 = 48;
const K: i64 = 32;
/// `TILE_J` candidates: powers of two up to a 16-float cache line, so a
/// tile never splits a line (Fig. 10 restricts tile sizes the same way,
/// to divisors). Every configuration then beats the untiled nest.
const TILES_J: [i64; 4] = [2, 4, 8, 16];
/// Evaluations per `tune_schedules` call.
const BUDGET: usize = 16;
/// The searcher's seed, the same in every round and every run, so that
/// every round evaluates the same configurations in the same order and
/// the work of a run does not depend on `--seed`.
const SEARCH_SEED: u64 = 0xca5e_5;

/// A [`Searcher`] whose proposals are timed in `autotune.suggest` spans.
pub struct TimedSearcher<S>(pub S);

impl<S: Searcher> Searcher for TimedSearcher<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn suggest(
        &mut self,
        space: &ParamSpace,
        history: &[(Config, f64)],
        rng: &mut td_support::rng::Xoshiro256pp,
    ) -> Option<Config> {
        trace::span("autotune.suggest", || self.0.suggest(space, history, rng))
    }
}

/// Plain-Rust f64 matmul over row-major operands: the oracle.
pub fn matmul_reference(a: &[f64], b: &[f64], m: i64, n: i64, k: i64) -> Vec<f64> {
    let (m, n, k) = (m as usize, n as usize, k as usize);
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
    c
}

/// Runs `@mm` of a printed module on td-machine and returns `C` and the
/// execution report.
pub fn run_matmul(
    text: &str,
    a: &[f64],
    b: &[f64],
    m: i64,
    n: i64,
    config: ExecConfig,
) -> Result<(Vec<f64>, ExecReport), String> {
    let mut ctx = fresh_context();
    let module = td_ir::parse_module(&mut ctx, text).map_err(|d| d.to_string())?;
    let mut args = ArgBuilder::new();
    let operands = vec![
        args.buffer(a.to_vec()),
        args.buffer(b.to_vec()),
        args.buffer(vec![0.0; (m * n) as usize]),
    ];
    let (_, mut buffers, report) = run_function_with_buffers(
        &ctx,
        module,
        "mm",
        operands,
        args.into_buffers(),
        config,
        None,
    )
    .map_err(|d| d.to_string())?;
    Ok((buffers.swap_remove(2), report))
}

/// The Case Study 4 caches scaled down with the nest: `B` (6 KiB here,
/// 64 KiB in CS4) overflows the L2 in both, so tiling `j` pays.
fn exec_config() -> ExecConfig {
    let mut config = td_bench::cs4::cs4_exec_config();
    config.cache.l1.size_bytes /= 4;
    config.cache.l2.size_bytes /= 8;
    config
}

/// Small-integer operands, so every summation order is exact.
pub fn operands(m: i64, n: i64, k: i64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut values = |count: i64| (0..count).map(|_| rng.range_i64(-4, 4) as f64).collect();
    (values(m * k), values(k * n))
}

/// The workload state.
pub struct AutotuneSim {
    payload: String,
    space: ParamSpace,
    a: Vec<f64>,
    b: Vec<f64>,
    expected: Vec<f64>,
    baseline_s: f64,
    passes: PassRegistry,
}

impl Workload for AutotuneSim {
    fn setup(seed: u64) -> Result<Self, String> {
        let payload = nest_payload(M, N, K);
        replay::verifies(&payload)?;
        let (a, b) = operands(M, N, K, seed);
        let space = ParamSpace::new()
            .param("TILE_I", ParamDomain::Ordinal(divisors(M)[1..].to_vec()))
            .param("TILE_J", ParamDomain::Ordinal(TILES_J.to_vec()));
        Ok(AutotuneSim {
            payload,
            space,
            a,
            b,
            expected: Vec::new(),
            baseline_s: 0.0,
            passes: replay::pass_registry(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.expected = matmul_reference(&self.a, &self.b, M, N, K);
        let (c, report) = run_matmul(&self.payload, &self.a, &self.b, M, N, exec_config())?;
        if c != self.expected {
            return Err("the untiled nest differs from the reference on td-machine".to_owned());
        }
        self.baseline_s = report.seconds();
        Ok(())
    }

    fn adopt(&mut self, fresh: Self) -> Result<(), String> {
        if fresh.payload != self.payload || fresh.a != self.a || fresh.b != self.b {
            return Err("a repeated set-up built different inputs".to_owned());
        }
        self.space = fresh.space;
        self.passes = fresh.passes;
        Ok(())
    }

    fn round(&mut self, round: &mut Round) -> Result<(), String> {
        let engine = Engine::new(EngineConfig::standard().with_workers(1));
        let env = replay::engine_env(&self.passes);
        let started = Cell::new(Instant::now());
        let started_cpu = Cell::new(0.0);
        let job_id = Cell::new(0);
        let class = Cell::new(0);
        let rendered = RefCell::new(String::new());
        let failure = RefCell::new(None::<String>);
        let evaluations = RefCell::new(Vec::new());
        let mut searcher = TimedSearcher(BayesOpt::default());
        let result = round.timed(|| {
            tune_schedules(
                &engine,
                &self.payload,
                &self.space,
                &mut searcher,
                BUDGET,
                SEARCH_SEED,
                |config| {
                    started.set(Instant::now());
                    started_cpu.set(cpu_ms());
                    job_id.set(trace::next_job());
                    let tile = |i: usize| config[i].as_int().unwrap_or(1);
                    class.set((tile(0) * 100 + tile(1)) as usize);
                    let script = tile_script(tile(0), tile(1), 1);
                    *rendered.borrow_mut() = script.clone();
                    script
                },
                |output| {
                    let batch_end = Instant::now();
                    let batch_ms = batch_end.duration_since(started.get()).as_secs_f64() * 1e3;
                    trace::record("sched.batch", started.get(), batch_end);
                    let simulated = trace::span("machine.sim", || {
                        run_matmul(&output.module_text, &self.a, &self.b, M, N, exec_config())
                    });
                    let (c, report) = match simulated {
                        Ok(result) => result,
                        Err(message) => {
                            *failure.borrow_mut() = Some(message);
                            return None;
                        }
                    };
                    if c != self.expected {
                        *failure.borrow_mut() =
                            Some(format!("{:?} computes a wrong product", rendered.borrow()));
                        return None;
                    }
                    evaluations.borrow_mut().push((
                        job_id.get(),
                        class.get(),
                        rendered.borrow().clone(),
                        output.from_cache,
                        cpu_ms_since(started_cpu.get()),
                        batch_ms,
                        output.module_text.clone(),
                        report.instructions,
                    ));
                    Some(report.seconds())
                },
            )
        });
        if let Some(message) = failure.into_inner() {
            return Err(message);
        }
        let evaluations = evaluations.into_inner();
        round.attempted += (BUDGET - evaluations.len()) as u64;
        round.failed += (BUDGET - evaluations.len()) as u64;
        let best = result.best().ok_or("no configuration was evaluated")?;
        if best.cost > self.baseline_s {
            return Err(format!(
                "the best configuration ({} s) is slower than the untiled nest ({} s)",
                best.cost, self.baseline_s
            ));
        }
        round.sample("autotune.best_sim_speedup", self.baseline_s / best.cost);
        for (job, class, script, hit, ms, batch_ms, text, instructions) in evaluations {
            // Each configuration is its own `model_cpu_ms_gmean` class.
            round.job(class, ms);
            if round.traced {
                trace::set_job(job);
                let replayed = replay::replay_job(
                    &env,
                    Some(engine.cache()),
                    &script,
                    &self.payload,
                    "main",
                    hit,
                );
                if !hit && replayed.output.as_deref() != Some(text.as_str()) {
                    return Err("a replayed candidate differs from the engine's output".to_owned());
                }
                round.traced_job(&replayed, Some(batch_ms), hit, replay::count_ops(&text));
                round.add("machine.instructions", instructions as f64);
            }
        }
        Ok(())
    }
}
