//! Steady-state allocation accounting for EANA.
//!
//! The `EanaScratch` refactor's contract: with a single noise thread
//! and in-memory tables, an `EanaOptimizer::step` allocates **zero**
//! heap bytes once warm-up has sized the scratch — the accessed-rows
//! noisy update (`sparse_noisy_update`) applies each sample as it is
//! drawn and needs no buffer at all. See `alloc_common` for the harness; this
//! file holds exactly one test so no concurrent thread pollutes the
//! counters.

mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{DpConfig, EanaOptimizer, Optimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

#[test]
fn steady_state_eana_step_allocates_zero_bytes() {
    let mut rng = Xoshiro256PlusPlus::seed_from(37);
    let mut model = Dlrm::new(DlrmConfig::tiny(3, 64, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 128));
    let batch_size = 16usize;
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();

    let cfg = DpConfig::new(0.8, 1.0, 0.05, batch_size).with_threads(1);
    let mut opt = EanaOptimizer::new(cfg, CounterNoise::new(41));

    alloc_common::assert_steady_state_zero_alloc("EANA", 8, 4, |i| {
        opt.step(&mut model, &batches[i % batches.len()], None);
    });
}
