//! `tune_sweep`: CS4-shaped matmul loop nests over three seeded shapes ×
//! a tile/unroll space. Per shape, a round first calls `sweep_schedules`
//! on a fresh engine (every candidate a miss that inserts into the cache),
//! then `tune_schedules` with a seeded annealing searcher whose every
//! proposal is already cached. The cost is the output's length in bytes,
//! read from the text without simulation. Parse, fingerprint, the cache,
//! the loop transforms and the engine's fixed cost per batch dominate.

use super::autotune_sim::{matmul_reference, operands, run_matmul, TimedSearcher};
use crate::measure::{cpu_ms, cpu_ms_since, ms_since};
use crate::replay::{self, verifies};
use crate::trace;
use crate::{Round, Workload};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use td_autotune::{Annealing, Config, ParamDomain, ParamSpace};
use td_ir::PassRegistry;
use td_sched::{sweep_schedules, tune_schedules, Engine, EngineConfig, JobOutput};
use td_support::rng::{derive_seed, Xoshiro256pp};

/// Tile sizes tried on each of the two outer loops.
const TILES: [i64; 4] = [2, 4, 8, 16];
/// Unroll factors tried on the reduction loop (1 = not unrolled).
const UNROLLS: [i64; 3] = [1, 2, 4];
/// Loop extents the shapes draw from (multiples of every tile and
/// unroll factor, so every candidate applies; small, so the sampled
/// td-machine check stays cheap).
const EXTENTS: [i64; 2] = [16, 32];
/// Shapes per seed.
const SHAPES: usize = 3;
/// Proposals per `tune_schedules` call.
const TUNE_BUDGET: usize = 48;

/// The CS4 loop nest `C[i,j] += A[i,k] * B[k,j]` as `@mm`, built by the
/// Case Study 4 harness and printed.
pub fn nest_payload(m: i64, n: i64, k: i64) -> String {
    let mut ctx = crate::replay::fresh_context();
    let module = td_bench::cs4::build_payload(&mut ctx, td_bench::cs4::Cs4Config { m, n, k });
    td_ir::print_op(&ctx, module)
}

/// A schedule `@main` that unrolls the reduction loop by `unroll` (when
/// above 1), then tiles the two outer loops by `(tile_i, tile_j)` (when
/// either is above 1).
pub fn tile_script(tile_i: i64, tile_j: i64, unroll: i64) -> String {
    let unroll_step = if unroll > 1 {
        format!(
            r#"
    %k = "transform.match_op"(%func) {{name = "scf.for", select = "last"}} : (!transform.any_op) -> !transform.any_op
    %ku = "transform.loop.unroll"(%k) {{factor = {unroll}}} : (!transform.any_op) -> !transform.any_op"#
        )
    } else {
        String::new()
    };
    let tile_step = if tile_i > 1 || tile_j > 1 {
        format!(
            r#"
    %i = "transform.match_op"(%func) {{name = "scf.for", select = "first"}} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%i) {{tile_sizes = [{tile_i}, {tile_j}]}} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"#
        )
    } else {
        String::new()
    };
    format!(
        r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %func = "transform.match_op"(%root) {{name = "func.func", select = "first"}} : (!transform.any_op) -> !transform.any_op{unroll_step}{tile_step}
  }}
}}"#
    )
}

/// Renders a `(TILE_I, TILE_J, UNROLL)` configuration.
pub fn render(config: &Config) -> String {
    let int = |i: usize| config[i].as_int().unwrap_or(1);
    tile_script(int(0), int(1), int(2))
}

struct Shape {
    dims: (i64, i64, i64),
    payload: String,
    /// Script text → the output the first sweep produced (verified once).
    outputs: HashMap<String, String>,
}

/// The workload state.
pub struct TuneSweep {
    seed: u64,
    shapes: Vec<Shape>,
    space: ParamSpace,
    rng: Xoshiro256pp,
    passes: PassRegistry,
    verified: HashSet<String>,
}

fn space() -> ParamSpace {
    let ordinal = |values: &[i64]| ParamDomain::Ordinal(values.to_vec());
    ParamSpace::new()
        .param("TILE_I", ordinal(&TILES))
        .param("TILE_J", ordinal(&TILES))
        .param("UNROLL", ordinal(&UNROLLS))
}

impl Workload for TuneSweep {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x5a3e));
        let mut pick = || EXTENTS[rng.below(EXTENTS.len() as u64) as usize];
        let shapes = (0..SHAPES)
            .map(|_| {
                let dims = (pick(), pick(), pick());
                let payload = nest_payload(dims.0, dims.1, dims.2);
                verifies(&payload)?;
                Ok(Shape {
                    dims,
                    payload,
                    outputs: HashMap::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TuneSweep {
            seed,
            shapes,
            space: space(),
            rng: Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x7e57)),
            passes: replay::pass_registry(),
            verified: HashSet::new(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn adopt(&mut self, fresh: Self) -> Result<(), String> {
        for (shape, new) in self.shapes.iter().zip(fresh.shapes) {
            if new.payload != shape.payload {
                return Err("a repeated set-up built different inputs".to_owned());
            }
        }
        self.space = fresh.space;
        self.passes = fresh.passes;
        Ok(())
    }

    fn round(&mut self, round: &mut Round) -> Result<(), String> {
        let env = replay::engine_env(&self.passes);
        for (index, shape) in self.shapes.iter_mut().enumerate() {
            let engine = Engine::new(EngineConfig::standard().with_workers(1));
            let cost = |output: &JobOutput| Some(output.module_text.len() as f64);

            let start = Instant::now();
            let cpu = cpu_ms();
            let sweep = round.timed(|| {
                trace::span("sched.batch", || {
                    sweep_schedules(&engine, &shape.payload, &self.space, render, cost)
                })
            });
            let candidates = sweep.outcomes.len() as f64;
            let per_candidate = ms_since(start) / candidates;
            round
                .class_ms
                .entry(index)
                .or_default()
                .push(cpu_ms_since(cpu) / candidates);
            for outcome in &sweep.outcomes {
                let script = render(&outcome.config);
                let Ok(output) = &outcome.result else {
                    round.attempted += 1;
                    round.failed += 1;
                    continue;
                };
                round.jobs += 1;
                round.attempted += 1;
                if output.from_cache {
                    return Err("a sweep candidate was served from a fresh cache".to_owned());
                }
                check_output(
                    &mut self.verified,
                    &mut shape.outputs,
                    script.clone(),
                    &output.module_text,
                )?;
                if round.traced {
                    trace::next_job();
                    let replayed = replay::replay_job(
                        &env,
                        Some(engine.cache()),
                        &script,
                        &shape.payload,
                        "main",
                        false,
                    );
                    if replayed.output.as_deref() != Some(output.module_text.as_str()) {
                        return Err(
                            "a replayed candidate differs from the engine's output".to_owned()
                        );
                    }
                    round.traced_job(
                        &replayed,
                        Some(per_candidate),
                        false,
                        replay::count_ops(&output.module_text),
                    );
                }
            }

            // Every proposal of the tuner is a configuration the sweep
            // already cached: each must come back byte-identical.
            let started = Cell::new(Instant::now());
            let started_cpu = Cell::new(0.0);
            let job_id = Cell::new(0);
            let rendered = RefCell::new(String::new());
            let failure = RefCell::new(None::<String>);
            let hits = RefCell::new(Vec::new());
            let mut searcher = TimedSearcher(Annealing::default());
            let tuned = round.timed(|| {
                tune_schedules(
                    &engine,
                    &shape.payload,
                    &self.space,
                    &mut searcher,
                    TUNE_BUDGET,
                    derive_seed(self.seed, index as u64),
                    |config| {
                        started.set(Instant::now());
                        started_cpu.set(cpu_ms());
                        job_id.set(trace::next_job());
                        let script = render(config);
                        *rendered.borrow_mut() = script.clone();
                        script
                    },
                    |output| {
                        let ms = cpu_ms_since(started_cpu.get());
                        let batch_ms = ms_since(started.get());
                        trace::record("sched.batch", started.get(), Instant::now());
                        let script = rendered.borrow();
                        if !output.from_cache {
                            *failure.borrow_mut() =
                                Some("a tuner proposal missed the cache".to_owned());
                        } else if shape.outputs.get(&*script) != Some(&output.module_text) {
                            *failure.borrow_mut() =
                                Some("a cache hit differs from the miss that filled it".to_owned());
                        }
                        hits.borrow_mut().push((
                            job_id.get(),
                            script.clone(),
                            ms,
                            batch_ms,
                            output.module_text.clone(),
                        ));
                        Some(output.module_text.len() as f64)
                    },
                )
            });
            if let Some(message) = failure.into_inner() {
                return Err(message);
            }
            let hits = hits.into_inner();
            round.attempted += (TUNE_BUDGET - tuned.evaluations.len()) as u64;
            round.failed += (TUNE_BUDGET - tuned.evaluations.len()) as u64;
            for (job, script, ms, batch_ms, text) in &hits {
                round.job_ms.push(*ms);
                round.jobs += 1;
                round.attempted += 1;
                if round.traced {
                    trace::set_job(*job);
                    let replayed = replay::replay_job(
                        &env,
                        Some(engine.cache()),
                        script,
                        &shape.payload,
                        "main",
                        true,
                    );
                    round.traced_job(&replayed, Some(*batch_ms), true, replay::count_ops(text));
                }
            }
        }

        // A seeded sample of this round's outputs, one per round, executed
        // on td-machine outside the timed sections.
        let shape = &self.shapes[self.rng.below(self.shapes.len() as u64) as usize];
        let configs = self.space.enumerate();
        let pick = self.rng.below(configs.len() as u64);
        let script = render(&configs[pick as usize]);
        let (m, n, k) = shape.dims;
        let (a, b) = operands(m, n, k, derive_seed(self.seed, pick));
        let text = shape
            .outputs
            .get(&script)
            .ok_or("the sampled candidate failed")?;
        let (c, report) = trace::span("machine.sim", || {
            run_matmul(text, &a, &b, m, n, td_machine::ExecConfig::default())
        })?;
        if c != matmul_reference(&a, &b, m, n, k) {
            return Err(format!(
                "td-machine result of {script:?} differs from the reference"
            ));
        }
        if round.traced {
            round.add("machine.instructions", report.instructions as f64);
        }
        Ok(())
    }
}

/// Verifies each distinct output once; afterwards every output for the
/// same script must be byte-identical to the verified one.
fn check_output(
    verified: &mut HashSet<String>,
    outputs: &mut HashMap<String, String>,
    script: String,
    text: &str,
) -> Result<(), String> {
    match outputs.get(&script) {
        Some(first) if first == text => Ok(()),
        Some(_) => Err("a sweep output changed between rounds".to_owned()),
        None => {
            if verified.insert(text.to_owned()) {
                verifies(text)?;
            }
            outputs.insert(script, text.to_owned());
            Ok(())
        }
    }
}
