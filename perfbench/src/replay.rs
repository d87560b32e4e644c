//! Shared program plumbing: contexts and registries built the way the
//! engine builds them, and the traced replay of one engine job through the
//! public calls `Engine::run_batch` makes for it (parse ×2, fingerprint,
//! cache lookup, then on a miss parse ×2, `apply_reentrant` and print).

use crate::trace::span;
use std::time::Instant;

use td_ir::{Context, PassRegistry};
use td_sched::{CacheKey, ResultCache};
use td_transform::{InterpEnv, Interpreter, TxnMode};

/// Runs `f` in a span named `name` and adds its wall time to `total_ms`.
fn timed<R>(total_ms: &mut f64, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = span(name, f);
    *total_ms += crate::measure::ms_since(start);
    result
}

/// A context with every payload dialect and the transform dialect, as
/// `EngineConfig::standard` registers them.
pub fn fresh_context() -> Context {
    let mut ctx = Context::new();
    td_dialects::register_all_dialects(&mut ctx);
    td_transform::register_transform_dialect(&mut ctx);
    ctx
}

/// The full pass registry, as `EngineConfig::standard` builds it.
pub fn pass_registry() -> PassRegistry {
    let mut registry = PassRegistry::new();
    td_dialects::passes::register_all_passes(&mut registry);
    registry
}

/// The interpreter environment an engine worker uses.
pub fn engine_env(passes: &PassRegistry) -> InterpEnv<'_> {
    let mut env = InterpEnv::standard();
    env.passes = Some(passes);
    env.config.txn = TxnMode::Always;
    env
}

/// Applies `script`'s `entry` to `payload` in a fresh context with a
/// direct `Interpreter` call and returns the printed module: the
/// reference the engine's and the service's outputs must equal.
pub fn direct_apply(
    env: &InterpEnv<'_>,
    script: &str,
    payload: &str,
    entry: &str,
) -> Result<String, String> {
    let mut ctx = fresh_context();
    let module = td_ir::parse_module(&mut ctx, payload).map_err(|d| d.to_string())?;
    let script = td_ir::parse_module(&mut ctx, script).map_err(|d| d.to_string())?;
    let entry = ctx
        .lookup_symbol(script, entry)
        .ok_or_else(|| format!("no entry @{entry}"))?;
    Interpreter::new(env)
        .apply_reentrant(&mut ctx, entry, module)
        .map_err(|e| e.diagnostic().message().to_owned())?;
    Ok(td_ir::print_op(&ctx, module))
}

/// What a traced replay measured.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Summed wall time of the replayed public calls, ms (context
    /// construction and entry lookup excluded).
    pub calls_ms: f64,
    /// Transform ops executed (`InterpStats`).
    pub steps: usize,
    /// Undo-log entries recorded (`InterpStats`).
    pub undo_entries: usize,
    /// Top-level steps rolled back (`InterpStats`).
    pub rolled_back: usize,
    /// The printed module, for a replayed miss.
    pub output: Option<String>,
}

/// Replays one job inside `ir.*`, `sched.cache_get` and
/// `transform.apply` spans. A job the engine served from its cache stops
/// after the lookup, as the engine does. Lookups on `cache` count in its
/// statistics, so callers take hit ratios from job outputs instead.
pub fn replay_job(
    env: &InterpEnv<'_>,
    cache: Option<&ResultCache>,
    script: &str,
    payload: &str,
    entry: &str,
    hit: bool,
) -> Replay {
    let mut replay = Replay::default();
    let mut calls_ms = 0.0;
    let total = &mut calls_ms;
    let mut ctx = fresh_context();
    let payload_op = timed(total, "ir.parse", || td_ir::parse_module(&mut ctx, payload));
    let script_op = timed(total, "ir.parse", || td_ir::parse_module(&mut ctx, script));
    let (Ok(payload_op), Ok(script_op)) = (payload_op, script_op) else {
        return Replay::default();
    };
    let key = timed(total, "ir.fingerprint", || CacheKey {
        script_fp: td_ir::fingerprint_op(&ctx, script_op),
        payload_fp: td_ir::fingerprint_op(&ctx, payload_op),
        entry_fp: td_sched::cache::fnv1a(entry.as_bytes()),
    });
    if let Some(cache) = cache {
        timed(total, "sched.cache_get", || {
            std::hint::black_box(cache.get(&key))
        });
    }
    if !hit {
        let mut ctx = fresh_context();
        let payload_op = timed(total, "ir.parse", || td_ir::parse_module(&mut ctx, payload));
        let script_op = timed(total, "ir.parse", || td_ir::parse_module(&mut ctx, script));
        if let (Ok(payload_op), Ok(script_op)) = (payload_op, script_op) {
            if let Some(entry_op) = ctx.lookup_symbol(script_op, entry) {
                let mut interp = Interpreter::new(env);
                let applied = timed(total, "transform.apply", || {
                    interp.apply_reentrant(&mut ctx, entry_op, payload_op)
                });
                replay.steps = interp.stats.transforms_executed;
                replay.undo_entries = interp.stats.undo_entries;
                replay.rolled_back = interp.stats.rolled_back;
                if applied.is_ok() {
                    let printed = timed(total, "ir.print", || td_ir::print_op(&ctx, payload_op));
                    replay.output = Some(printed);
                }
            }
        }
    }
    replay.calls_ms = calls_ms;
    replay
}

/// Ops in a printed module (the module op included).
pub fn count_ops(text: &str) -> usize {
    let mut ctx = fresh_context();
    td_ir::parse_module(&mut ctx, text).map_or(0, |module| ctx.walk_nested(module).len())
}

/// Parses and verifies a printed module.
pub fn verifies(text: &str) -> Result<(), String> {
    let mut ctx = fresh_context();
    let module = td_ir::parse_module(&mut ctx, text).map_err(|d| d.to_string())?;
    td_ir::verify(&ctx, module).map_err(|diags| {
        diags
            .first()
            .map_or_else(|| "verification failed".to_owned(), |d| d.to_string())
    })
}
