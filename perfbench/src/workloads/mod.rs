//! The four workloads. Each puts most of its work on a different layer.

pub mod autotune_sim;
pub mod lower_models;
pub mod serve_mix;
pub mod tune_sweep;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["lower_models", "tune_sweep", "serve_mix", "autotune_sim"];

use td_support::rng::Xoshiro256pp;

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(rng: &mut Xoshiro256pp, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}
