//! Multi-thread eager DP-SGD(F) allocates per parallel region, never per
//! chunk.
//!
//! A multi-thread step cannot be allocation-free: the executor spawns its
//! scoped workers per parallel region, and each spawn allocates thread
//! state (see `alloc_steady_state_eager.rs` for the single-width
//! zero-byte contract). What the fused noise kernels guarantee is that no
//! chunk allocates: the chunk-parallel dense noisy update applies each
//! sample as it is drawn, with no per-chunk noise buffer. So the
//! allocations of a step are set by its regions and workers, and stay far
//! below its chunk count. This file holds exactly one test so no
//! concurrent thread pollutes the counters.

#[allow(dead_code)] // this binary uses only `count_alloc_calls`
mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{ClipStyle, DpConfig, EagerDpSgd, Optimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

/// Rows per chunk of `par_dense_noisy_update`.
const ROWS_PER_CHUNK: usize = 512;

#[test]
fn multi_thread_eager_step_allocates_per_region_not_per_chunk() {
    // GEMMs inline, so the only parallel regions are the noisy-update
    // sweeps: one per table per step, on 2 workers.
    lazydp::exec::set_global_threads(1);
    lazydp::obs::set_mode(lazydp::obs::ObsMode::Counters);
    let (tables, rows) = (3usize, 64 * ROWS_PER_CHUNK as u64);
    let mut rng = Xoshiro256PlusPlus::seed_from(41);
    let mut model = Dlrm::new(DlrmConfig::tiny(tables, rows, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, 128));
    let batch_size = 16usize;
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();
    let cfg = DpConfig::new(0.8, 1.0, 0.05, batch_size).with_threads(2);
    let mut opt = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(31));
    for b in &batches {
        opt.step(&mut model, b, None);
    }

    let steps = 4u64;
    let calls = alloc_common::count_alloc_calls(|| {
        for i in 0..steps as usize {
            opt.step(&mut model, &batches[i % batches.len()], None);
        }
    });
    let chunks_per_step = tables as u64 * rows / ROWS_PER_CHUNK as u64;
    let per_step = calls / steps;
    assert!(
        per_step * 4 < chunks_per_step,
        "{per_step} allocations per step for {chunks_per_step} chunks: \
         some chunk allocates"
    );
}
