//! `--reference`: the GPT-2 job broken into the public calls the engine
//! makes for it, each timed on its own (median of several repetitions),
//! plus the job's minor page faults. The README's reference table is
//! refreshed from this output.

use crate::measure::{median, ms_since};
use crate::replay::{engine_env, fresh_context, pass_registry};
use std::time::Instant;
use td_sched::{Engine, EngineConfig, Job};
use td_transform::{Interpreter, TxnMode, TRANSFORM_MAIN};

const REPEATS: usize = 9;

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    rest.split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0)
}

/// Prints the reference breakdown of the GPT-2 job.
pub fn print_reference() -> Result<(), String> {
    let spec = td_modelgen::paper_models()
        .into_iter()
        .find(|spec| spec.name == "GPT-2")
        .ok_or("no GPT-2 model")?;
    let mut ctx = fresh_context();
    let module = td_modelgen::build_model(&mut ctx, &spec);
    let script = td_transform::pipeline_to_script(&mut ctx, td_dialects::passes::TOSA_PIPELINE)
        .map_err(|d| d.to_string())?;
    let (payload, script) = (td_ir::print_op(&ctx, module), td_ir::print_op(&ctx, script));
    let passes = pass_registry();
    let engine = Engine::new(EngineConfig::standard().with_workers(1).without_cache());
    let job = Job::new(script.as_str(), payload.as_str()).with_entry(TRANSFORM_MAIN);

    let parsed = || {
        let mut ctx = fresh_context();
        let p = td_ir::parse_module(&mut ctx, &payload).expect("payload parses");
        let s = td_ir::parse_module(&mut ctx, &script).expect("script parses");
        let entry = ctx.lookup_symbol(s, TRANSFORM_MAIN).expect("entry exists");
        (ctx, p, s, entry)
    };
    let apply = |txn: TxnMode, expensive_checks: bool| {
        let (mut ctx, p, _, entry) = parsed();
        let mut env = engine_env(&passes);
        env.config.txn = txn;
        env.config.expensive_checks = expensive_checks;
        let mut interp = Interpreter::new(&env);
        let start = Instant::now();
        interp
            .apply_reentrant(&mut ctx, entry, p)
            .expect("script applies");
        (ms_since(start), ctx, p)
    };
    // The measurements are interleaved, one of each per repetition, so
    // every figure sees the same mix of the machine's fast and slow phases.
    let default_checks = engine_env(&passes).config.expensive_checks;
    let mut samples = vec![Vec::new(); 8];
    for _ in 0..REPEATS {
        let before = minor_faults();
        let start = Instant::now();
        let report = engine.run_batch(vec![job.clone()]);
        samples[0].push(ms_since(start));
        samples[7].push(minor_faults() - before);
        assert!(report.results[0].is_ok(), "the GPT-2 job fails");

        let mut ctx = fresh_context();
        let start = Instant::now();
        let p = td_ir::parse_module(&mut ctx, &payload).expect("payload parses");
        let s = td_ir::parse_module(&mut ctx, &script).expect("script parses");
        samples[1].push(ms_since(start));
        let start = Instant::now();
        std::hint::black_box((
            td_ir::fingerprint_op(&ctx, s),
            td_ir::fingerprint_op(&ctx, p),
        ));
        samples[2].push(ms_since(start));

        let (always, ctx, p) = apply(TxnMode::Always, default_checks);
        samples[3].push(always);
        let start = Instant::now();
        std::hint::black_box(td_ir::print_op(&ctx, p));
        samples[6].push(ms_since(start));
        samples[4].push(apply(TxnMode::Never, default_checks).0);
        samples[5].push(apply(TxnMode::Never, false).0);
    }
    let [batch, parse, fingerprint, always, never, table1, print, faults] =
        std::array::from_fn(|i| median(&samples[i]));
    println!("GPT-2 job, median of {REPEATS} repetitions each:");
    println!("  through run_batch (1 worker, no cache)   {batch:8.1} ms");
    println!("  parse payload + script                   {parse:8.1} ms");
    println!("  fingerprint script + payload             {fingerprint:8.1} ms");
    println!("  apply_reentrant (Always)                 {always:8.1} ms");
    println!("  apply_reentrant (Never)                  {never:8.1} ms");
    println!("  apply_reentrant (Never, no expensive checks; Table 1) {table1:5.1} ms");
    println!("  print                                    {print:8.1} ms");
    println!("  minor page faults per run_batch          {faults:8.0}");
    Ok(())
}
