//! EANA (Ning et al., RecSys 2022) — the prior-work comparison of §7.4.
//!
//! EANA modifies DP-SGD to add noise **only to the embedding rows that
//! were accessed** in the current iteration. That makes its model-update
//! cost proportional to the batch's unique rows (like LazyDP), but its
//! privacy is *weaker and data-dependent*: a row that is never accessed
//! never receives noise, so the released model leaks which features
//! never occurred in the data (§2.5). LazyDP achieves the same
//! asymptotic cost while preserving the exact DP-SGD guarantee.

use crate::clip::{clip_weights_into, clipped_fraction};
use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::noise_update::sparse_noisy_update;
use crate::optimizer::{Optimizer, StepStats};
use lazydp_data::MiniBatch;
use lazydp_embedding::CoalesceScratch;
use lazydp_model::{Dlrm, DlrmCache, DlrmGrads, DlrmScratch};
use lazydp_rng::RowNoise;

/// Reusable per-step buffers — one EANA step allocates nothing once
/// these reach steady-state size (pinned by
/// `tests/alloc_steady_state_eana.rs`).
#[derive(Debug, Clone, Default)]
struct EanaScratch {
    cache: DlrmCache,
    model_scratch: DlrmScratch,
    grads: DlrmGrads,
    logit_g: Vec<f32>,
    norms: Vec<f64>,
    coalesce: CoalesceScratch,
}

/// The EANA optimizer (ghost-norm clipping + accessed-rows-only noise).
#[derive(Debug, Clone)]
pub struct EanaOptimizer<N> {
    cfg: DpConfig,
    noise: N,
    counters: KernelCounters,
    iter: u64,
    scratch: EanaScratch,
}

impl<N: RowNoise> EanaOptimizer<N> {
    /// Creates an EANA optimizer.
    #[must_use]
    pub fn new(cfg: DpConfig, noise: N) -> Self {
        Self {
            cfg,
            noise,
            counters: KernelCounters::new(),
            iter: 0,
            scratch: EanaScratch::default(),
        }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        &self.cfg
    }
}

impl<N: RowNoise> Optimizer for EanaOptimizer<N> {
    fn name(&self) -> &'static str {
        "EANA"
    }

    fn step(
        &mut self,
        model: &mut Dlrm,
        batch: &MiniBatch,
        _next: Option<&MiniBatch>,
    ) -> StepStats {
        self.iter += 1;
        if batch.is_empty() {
            // No accessed rows ⇒ EANA adds no embedding noise at all —
            // exactly the information leak §2.5 describes. MLP noise is
            // still added (dense layers are always "accessed").
            let std = self.cfg.noise_std_per_coord();
            let (lr, threads) = (self.cfg.lr, self.cfg.threads);
            model
                .bottom
                .apply_dense_noise(&mut self.noise, self.iter, 0, std, lr, threads);
            model
                .top
                .apply_dense_noise(&mut self.noise, self.iter, 64, std, lr, threads);
            self.counters.gaussian_samples += (model.bottom.params() + model.top.params()) as u64;
            self.counters.steps += 1;
            return StepStats::default();
        }
        model.forward_with(
            batch,
            &mut self.scratch.cache,
            &mut self.scratch.model_scratch,
        );
        self.counters.rows_gathered += batch.total_lookups() as u64;
        Dlrm::logit_grads_into(
            &self.scratch.cache,
            &batch.labels,
            false,
            &mut self.scratch.logit_g,
        );
        let c = self.cfg.max_grad_norm;
        let EanaScratch {
            cache,
            model_scratch,
            grads,
            logit_g,
            norms,
            coalesce,
        } = &mut self.scratch;
        // Fused ghost-clipping backward (same single-chain pass as the
        // eager DP-SGD(F) baseline and the LazyDP step).
        model.backward_clipped_with(
            cache,
            batch,
            logit_g,
            |n, w| {
                norms.clear();
                norms.extend_from_slice(n);
                clip_weights_into(n, c, w);
            },
            grads,
            model_scratch,
        );
        grads.scale(1.0 / self.cfg.nominal_batch as f32);
        self.counters.duplicates_removed += grads.coalesce_with(coalesce) as u64;
        let std = self.cfg.noise_std_per_coord();
        let lr = self.cfg.lr;
        model.bottom.apply(&grads.bottom, lr);
        model.top.apply(&grads.top, lr);
        let threads = self.cfg.threads;
        model
            .bottom
            .apply_dense_noise(&mut self.noise, self.iter, 0, std, lr, threads);
        model
            .top
            .apply_dense_noise(&mut self.noise, self.iter, 64, std, lr, threads);
        self.counters.gaussian_samples += (model.bottom.params() + model.top.params()) as u64;
        for (t, (table, g)) in model.tables.iter_mut().zip(grads.tables.iter()).enumerate() {
            sparse_noisy_update(
                t as u32,
                table,
                g,
                &mut self.noise,
                self.iter,
                std,
                lr,
                &mut self.counters,
            );
        }
        self.counters.steps += 1;
        StepStats {
            realized_batch: batch.batch_size(),
            clipped_fraction: clipped_fraction(norms, c),
        }
    }

    fn counters(&self) -> KernelCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn setup() -> (Dlrm, SyntheticDataset) {
        let mut rng = Xoshiro256PlusPlus::seed_from(21);
        let model = Dlrm::new(DlrmConfig::tiny(2, 50, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 50, 64));
        (model, ds)
    }

    #[test]
    fn eana_never_noises_untouched_rows() {
        let (mut model, ds) = setup();
        let before = model.tables[0].clone();
        let mut opt = EanaOptimizer::new(DpConfig::paper_default(8), CounterNoise::new(3));
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        opt.step(&mut model, &batch, None);
        let touched: std::collections::HashSet<u64> =
            batch.table_indices(0).iter().copied().collect();
        let mut untouched_unchanged = 0;
        for r in 0..model.tables[0].rows() {
            if !touched.contains(&(r as u64)) {
                assert_eq!(
                    model.tables[0].row(r),
                    before.row(r),
                    "EANA noised untouched row {r} — privacy leak signature"
                );
                untouched_unchanged += 1;
            }
        }
        assert!(untouched_unchanged > 0, "test needs untouched rows");
    }

    #[test]
    fn eana_work_scales_with_batch_not_table() {
        let (mut model, ds) = setup();
        let mut opt = EanaOptimizer::new(DpConfig::paper_default(8), CounterNoise::new(3));
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let mlp_params = (model.bottom.params() + model.top.params()) as u64;
        opt.step(&mut model, &batch, None);
        let c = opt.counters();
        let emb_samples = c.gaussian_samples - mlp_params;
        let dim = model.config().embedding_dim as u64;
        // At most one noise vector per lookup (fewer after dedup),
        // never table_rows × dim.
        assert!(emb_samples <= batch.total_lookups() as u64 * dim);
        let total_rows: u64 = model.tables.iter().map(|t| t.rows() as u64).sum();
        assert!(emb_samples < total_rows * dim / 2);
    }

    #[test]
    fn eana_learns_like_dp_sgd() {
        let (mut model, ds) = setup();
        let eval = ds.batch_of(&(0..64).collect::<Vec<_>>());
        let before = model.loss(&eval);
        let mut opt = EanaOptimizer::new(DpConfig::new(0.3, 5.0, 0.1, 32), CounterNoise::new(3));
        for it in 0..30 {
            let ids: Vec<usize> = (0..32).map(|k| (it * 32 + k) % 64).collect();
            let batch = ds.batch_of(&ids);
            opt.step(&mut model, &batch, None);
        }
        let after = model.loss(&eval);
        assert!(
            after < before,
            "EANA should learn: {before:.4} -> {after:.4}"
        );
    }

    #[test]
    fn eana_matches_dp_sgd_on_accessed_rows_with_same_noise() {
        // With the same counter noise source, EANA and DP-SGD(F) apply
        // identical updates to accessed rows; they differ only on
        // untouched rows (which EANA leaves pristine).
        let (model0, ds) = setup();
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let cfg = DpConfig::paper_default(8);
        let mut eana_model = model0.clone();
        let mut dp_model = model0.clone();
        let mut eana = EanaOptimizer::new(cfg, CounterNoise::new(55));
        let mut dp = crate::eager::EagerDpSgd::new(
            cfg,
            crate::eager::ClipStyle::Fast,
            CounterNoise::new(55),
        );
        eana.step(&mut eana_model, &batch, None);
        dp.step(&mut dp_model, &batch, None);
        let touched: std::collections::HashSet<u64> =
            batch.table_indices(0).iter().copied().collect();
        for &r in &touched {
            let a = eana_model.tables[0].row(r as usize);
            let b = dp_model.tables[0].row(r as usize);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-6, "row {r} differs");
            }
        }
    }
}
