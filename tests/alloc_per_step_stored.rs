//! Multi-thread LazyDP on paged tables allocates per parallel region,
//! never per row or per page.
//!
//! The same contract as `alloc_per_step_lazydp.rs`, on `StoredTable`
//! backends whose page cache is far smaller than the table: the store's
//! page-order buffer (kept in its engine) and the forward's gathered-rows
//! buffer (kept in `DlrmScratch`) are reused across steps, and a page
//! fault recycles an evicted frame. So once they are warm, a step's
//! allocations do not grow with the number of rows or pages it touches.
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
use lazydp::store::{StorageConfig, StoredTable};

/// Allocation calls over `steps` steady-state steps at `batch_size`,
/// 3 paged tables (64 pages of 64 rows, 8 cached), `threads` and
/// `shards`, cycling through four batches.
fn steady_state_alloc_calls(batch_size: usize, steps: usize, threads: usize, shards: usize) -> u64 {
    let (tables, rows) = (3usize, 4096u64);
    let mut rng = Xoshiro256PlusPlus::seed_from(43);
    let scfg = StorageConfig::new().with_page_rows(64).with_cache_pages(8);
    let mut model = Dlrm::new(DlrmConfig::tiny(tables, rows, 8), &mut rng)
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
        .expect("spill dir must be writable");
    let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, 4 * batch_size));
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();
    let dp = DpConfig::new(0.8, 1.0, 0.05, batch_size)
        .with_threads(threads)
        .with_shards(shards);
    let mut opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, CounterNoise::new(37));
    let mut step = |i: usize| {
        let next = &batches[(i + 1) % batches.len()];
        opt.step(&mut model, &batches[i % batches.len()], Some(next));
    };
    // Two full cycles size every buffer for the largest step and fill
    // the page cache.
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
fn multi_thread_stored_lazydp_step_allocations_do_not_grow_with_the_batch() {
    lazydp::exec::set_global_threads(1);
    lazydp::obs::set_mode(lazydp::obs::ObsMode::Counters);
    // An empty plan overrides any `LAZYDP_FAULTS` storm: an injected I/O
    // error allocates its report, which is not a per-row allocation.
    lazydp::fault::install(lazydp::fault::FaultPlan::new(0));
    let steps = 8;
    // One thread, one shard: no region spawns a worker, so a warm paged
    // step allocates nothing at all — a batch operation that built its
    // visit order in a fresh buffer would show here.
    let inline = steady_state_alloc_calls(128, steps, 1, 1);
    assert_eq!(
        inline, 0,
        "{inline} allocations over {steps} one-thread paged steps"
    );
    let small = steady_state_alloc_calls(16, steps, 2, 4);
    let large = steady_state_alloc_calls(128, steps, 2, 4);
    assert_eq!(
        small, large,
        "allocations over {steps} steps grew from {small} at batch 16 to {large} at batch 128: \
         the paged step allocates per row or per page"
    );
}
