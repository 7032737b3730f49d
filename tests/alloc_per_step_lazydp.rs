//! Multi-thread LazyDP allocates per parallel region, never per row.
//!
//! A multi-thread step cannot be allocation-free: the overlap worker and
//! the executor's scoped workers are spawned per region, and each spawn
//! allocates thread state (see `alloc_steady_state.rs` for the
//! one-thread, one-shard zero-byte contract). What the lookahead flush
//! guarantees is that its per-table and per-shard buffers are reused
//! across steps, so once they are warm the allocations of a step are set
//! by its regions alone and do not grow with the number of rows flushed.
//! This file holds exactly one test so no concurrent thread pollutes the
//! counters.

#[allow(dead_code)] // this binary uses only `count_alloc_calls`
mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{DpConfig, Optimizer};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

/// Allocation calls over `steps` steady-state steps at `batch_size`,
/// 3 tables, 2 threads and 4 shards, cycling through four batches.
fn steady_state_alloc_calls(batch_size: usize, steps: usize) -> u64 {
    let (tables, rows) = (3usize, 4096u64);
    let mut rng = Xoshiro256PlusPlus::seed_from(43);
    let mut model = Dlrm::new(DlrmConfig::tiny(tables, rows, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, 4 * batch_size));
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();
    let dp = DpConfig::new(0.8, 1.0, 0.05, batch_size)
        .with_threads(2)
        .with_shards(4);
    let mut opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, CounterNoise::new(37));
    let mut step = |i: usize| {
        let next = &batches[(i + 1) % batches.len()];
        opt.step(&mut model, &batches[i % batches.len()], Some(next));
    };
    // Two full cycles size every buffer for the largest step.
    for i in 0..2 * batches.len() {
        step(i);
    }
    alloc_common::count_alloc_calls(|| {
        for i in 0..steps {
            step(i);
        }
    })
}

#[test]
fn multi_thread_lazydp_step_allocations_do_not_grow_with_the_batch() {
    // GEMMs inline, so the parallel regions are the overlap worker and
    // the flush's shard fan-out, on 2 workers.
    lazydp::exec::set_global_threads(1);
    lazydp::obs::set_mode(lazydp::obs::ObsMode::Counters);
    let steps = 8;
    let small = steady_state_alloc_calls(16, steps);
    let large = steady_state_alloc_calls(128, steps);
    assert_eq!(
        small, large,
        "allocations over {steps} steps grew from {small} at batch 16 to {large} at batch 128: \
         the flush allocates per row"
    );
}
