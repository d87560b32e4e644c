//! `lower_models`: the five Table-1 models, each lowered by the TOSA
//! pipeline emitted as a `transform.apply_registered_pass` script, through
//! `Engine::run_batch` with one worker and no cache. A round runs every
//! model once in a seeded order. The passes, the pattern rewriter, the undo
//! log and parse/print of 10–340 KB modules dominate.

use crate::measure::{cpu_ms, cpu_ms_since, ms_since};
use crate::replay::{self, fresh_context};
use crate::trace;
use crate::{Round, Workload};
use std::time::Instant;
use td_ir::PassRegistry;
use td_sched::{Engine, EngineConfig, Job};
use td_support::rng::Xoshiro256pp;
use td_transform::TRANSFORM_MAIN;

struct Model {
    payload: String,
    script: String,
    /// `PassManager::run` output for the same model: the oracle.
    reference: String,
    ops_out: usize,
}

/// The workload state.
pub struct LowerModels {
    engine: Engine,
    models: Vec<Model>,
    rng: Xoshiro256pp,
    passes: PassRegistry,
}

impl Workload for LowerModels {
    fn setup(seed: u64) -> Result<Self, String> {
        let models = td_modelgen::paper_models()
            .iter()
            .map(|spec| {
                let mut ctx = fresh_context();
                let module = td_modelgen::build_model(&mut ctx, spec);
                let script =
                    td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
                        .map_err(|d| d.to_string())?;
                Ok(Model {
                    payload: td_ir::print_op(&ctx, module),
                    script: td_ir::print_op(&ctx, script),
                    reference: String::new(),
                    ops_out: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LowerModels {
            engine: Engine::new(EngineConfig::standard().with_workers(1).without_cache()),
            models,
            rng: Xoshiro256pp::seed_from_u64(seed),
            passes: replay::pass_registry(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        for model in &mut self.models {
            let mut ctx = fresh_context();
            let module =
                td_ir::parse_module(&mut ctx, &model.payload).map_err(|d| d.to_string())?;
            self.passes
                .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
                .and_then(|mut pm| pm.run(&mut ctx, module))
                .map_err(|d| d.to_string())?;
            td_ir::verify(&ctx, module).map_err(|_| "pass-manager output fails to verify")?;
            if let Some(&op) = ctx.walk_nested(module).iter().find(|&&op| {
                let name = ctx.op(op).name.as_str();
                name.starts_with("tosa.") || name.starts_with("linalg.")
            }) {
                return Err(format!("{} survives lowering", ctx.op(op).name.as_str()));
            }
            model.ops_out = ctx.walk_nested(module).len();
            model.reference = td_ir::print_op(&ctx, module);
        }
        Ok(())
    }

    fn adopt(&mut self, fresh: Self) -> Result<(), String> {
        for (model, new) in self.models.iter().zip(fresh.models) {
            if new.payload != model.payload || new.script != model.script {
                return Err("a repeated set-up built different inputs".to_owned());
            }
        }
        self.engine = fresh.engine;
        self.passes = fresh.passes;
        Ok(())
    }

    fn round(&mut self, round: &mut Round) -> Result<(), String> {
        let env = replay::engine_env(&self.passes);
        for index in super::permutation(&mut self.rng, self.models.len()) {
            let job_id = trace::next_job();
            let model = &self.models[index];
            let job =
                Job::new(model.script.as_str(), model.payload.as_str()).with_entry(TRANSFORM_MAIN);
            let start = Instant::now();
            let cpu = cpu_ms();
            let engine = &self.engine;
            let report = round.timed(|| trace::span("sched.batch", || engine.run_batch(vec![job])));
            let cpu_ms = cpu_ms_since(cpu);
            let batch_ms = ms_since(start);
            let output = match report.results.into_iter().next() {
                Some(Ok(output)) => output,
                _ => {
                    round.attempted += 1;
                    round.failed += 1;
                    continue;
                }
            };
            if output.module_text != model.reference {
                return Err(format!(
                    "model {index}: engine output differs from PassManager::run"
                ));
            }
            round.job(index, cpu_ms);
            if round.traced {
                trace::set_job(job_id);
                let replayed = replay::replay_job(
                    &env,
                    None,
                    &model.script,
                    &model.payload,
                    TRANSFORM_MAIN,
                    false,
                );
                if replayed.output.as_deref() != Some(model.reference.as_str()) {
                    return Err(format!("model {index}: replayed output differs"));
                }
                round.traced_job(&replayed, Some(batch_ms), false, model.ops_out);
                let mut ctx = fresh_context();
                let module =
                    td_ir::parse_module(&mut ctx, &model.payload).map_err(|d| d.to_string())?;
                let mut pm = self
                    .passes
                    .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
                    .map_err(|d| d.to_string())?;
                trace::span("passes.pipeline", || pm.run(&mut ctx, module))
                    .map_err(|d| d.to_string())?;
            }
        }
        Ok(())
    }
}
