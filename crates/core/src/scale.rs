//! LazyDP at the paper's **true logical scale**, functionally.
//!
//! Eager DP-SGD must materialize and stream the whole embedding table —
//! at the paper's default scale that is 96 GB and 24 billion Gaussian
//! draws *per iteration*, which is why the paper needs a 256 GB server
//! (and why this reproduction prices it with a performance model).
//! LazyDP, however, only ever touches `O(batch)` rows per iteration —
//! so with a lazily-materialized [`VirtualTable`] the *functional*
//! LazyDP embedding-update loop runs at the full 187 M-row scale on a
//! laptop, drawing real Box–Muller noise and producing a row-exact
//! model for every row it ever touches.
//!
//! [`TerabyteLazyEmbedding`] packages that loop: the real history (751
//! MB at paper scale, exactly §7.2's number), real ANS draws, real
//! sparse updates, all through the same [`LookaheadFlush`] as
//! `LazyDpOptimizer`. Untouched rows remain pure functions of the seed;
//! their pending noise is deterministic bookkeeping that
//! [`flush_row`](TerabyteLazyEmbedding::flush_row) can settle for any
//! row on demand (a full-table flush is exactly the dense sweep LazyDP
//! exists to avoid, so it is intentionally not offered at this scale).

use crate::history::ShardedHistory;
use crate::plan::LookaheadFlush;
use lazydp_dpsgd::{DpConfig, KernelCounters};
use lazydp_embedding::sparse::dedup_indices_into;
use lazydp_embedding::{SparseGrad, VirtualTable};
use lazydp_exec::Executor;
use lazydp_rng::RowNoise;

/// One embedding table trained with LazyDP's lazy noise update at
/// arbitrary logical scale.
#[derive(Debug, Clone)]
pub struct TerabyteLazyEmbedding<N> {
    table: VirtualTable,
    history: ShardedHistory,
    cfg: DpConfig,
    ans: bool,
    noise: N,
    table_id: u32,
    iter: u64,
    counters: KernelCounters,
    targets: Vec<u64>,
    flush: LookaheadFlush,
}

impl<N: RowNoise> TerabyteLazyEmbedding<N> {
    /// Creates the trainer. Allocates the history eagerly
    /// (`4 B × logical_rows` — 751 MB for the paper's 187.7 M rows,
    /// §7.2), which is the *only* O(table) allocation LazyDP needs.
    ///
    /// # Panics
    ///
    /// Panics if `logical_rows` exceeds `usize` (32-bit hosts).
    #[must_use]
    pub fn new(table: VirtualTable, cfg: DpConfig, ans: bool, noise: N, table_id: u32) -> Self {
        let rows = usize::try_from(table.logical_rows()).expect("rows fit usize");
        Self {
            history: ShardedHistory::new(rows, cfg.shards),
            table,
            cfg,
            ans,
            noise,
            table_id,
            iter: 0,
            counters: KernelCounters::new(),
            targets: Vec::new(),
            flush: LookaheadFlush::default(),
        }
    }

    /// The underlying virtual table.
    #[must_use]
    pub fn table(&self) -> &VirtualTable {
        &self.table
    }

    /// Work counters.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Current iteration.
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// History bytes (the §7.2 overhead, for real this time).
    #[must_use]
    pub fn history_bytes(&self) -> u64 {
        self.history.bytes()
    }

    /// One LazyDP training iteration on this table: merges the
    /// (already clipped & scaled, coalesced) sparse gradient of the
    /// current batch with the pending noise of the next batch's rows and
    /// applies them as one sparse update (Algorithm 1 lines 11–25).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, out-of-range rows, or a gradient
    /// that is not coalesced.
    pub fn step(&mut self, grad: &SparseGrad, next_indices: &[u64]) {
        self.iter += 1;
        assert!(grad.is_coalesced(), "gradient must be coalesced");
        self.counters.duplicates_removed +=
            dedup_indices_into(next_indices, &mut self.targets) as u64;
        self.settle(grad.clone());
        self.counters.steps += 1;
    }

    /// Settles the pending noise of a single row (e.g. before serving a
    /// prediction from it, or when releasing a row-slice of the model).
    /// Returns the row's post-flush value.
    pub fn flush_row(&mut self, idx: u64) -> Vec<f32> {
        self.targets.clear();
        self.targets.push(idx);
        self.settle(SparseGrad::new(self.table.dim()));
        self.table.read_row(idx)
    }

    /// Flushes the pending noise of `self.targets` into `update` and
    /// applies it with one sparse update.
    fn settle(&mut self, mut update: SparseGrad) {
        self.flush.run(
            self.table_id,
            self.iter,
            &self.targets,
            &mut self.history,
            self.table.dim(),
            self.cfg.noise_std_per_coord(),
            self.ans,
            &self.noise,
            &Executor::new(self.cfg.threads),
            &mut self.counters,
        );
        self.flush.merge_into(&mut update);
        self.table.sparse_update(&update, self.cfg.lr);
        self.counters.table_rows_read += update.len() as u64;
        self.counters.table_rows_written += update.len() as u64;
    }

    /// Gaussian draws an *eager* DP-SGD would have performed so far on
    /// this table: `iterations × logical_rows × dim` — for the
    /// terabyte-scale demo's comparison printout.
    #[must_use]
    pub fn eager_equivalent_samples(&self) -> u128 {
        u128::from(self.iter) * u128::from(self.table.logical_rows()) * self.table.dim() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{LazyDpConfig, LazyDpOptimizer};
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_dpsgd::Optimizer;
    use lazydp_model::{Dlrm, DlrmConfig};
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::{Prng, Xoshiro256PlusPlus};

    fn grad_for(dim: usize, rows: &[u64], value: f32) -> SparseGrad {
        let mut g = SparseGrad::new(dim);
        for &r in rows {
            let e = g.push_zeros(r);
            e.fill(value);
        }
        let _ = g.coalesce();
        g
    }

    #[test]
    fn physical_memory_tracks_touched_rows_only() {
        let table = VirtualTable::new(50_000_000, 16, 3); // 3.2 GB logical
        let mut t = TerabyteLazyEmbedding::new(
            table,
            DpConfig::paper_default(4),
            true,
            CounterNoise::new(1),
            0,
        );
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        for _ in 0..10 {
            let cur: Vec<u64> = (0..8).map(|_| rng.next_below(50_000_000)).collect();
            let next: Vec<u64> = (0..8).map(|_| rng.next_below(50_000_000)).collect();
            t.step(&grad_for(16, &cur, 0.01), &next);
        }
        assert!(
            t.table().materialized_rows() <= 160,
            "≤ 16 rows/iter touched"
        );
        assert!(t.table().physical_bytes() < 20_000);
        assert_eq!(t.history_bytes(), 200_000_000, "4 B × 50 M rows");
    }

    #[test]
    fn matches_full_lazydp_optimizer_on_small_scale() {
        // The scale loop must be the same algorithm as LazyDpOptimizer's
        // embedding path: run both on one table with identical grads and
        // noise, compare every touched row.
        let rows = 64u64;
        let dim = 8usize;
        let dp = DpConfig::new(1.0, 1.0, 0.1, 4);
        // Full optimizer on a zero-init dense model (zero grads so only
        // noise moves the table — grads require the full model; here we
        // isolate the noise path).
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        let mut model = Dlrm::new(DlrmConfig::tiny(1, rows, dim), &mut rng);
        // Zero the table so both sides start identically.
        model.tables[0].as_mut_slice().fill(0.0);
        let mut opt =
            LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, CounterNoise::new(9));
        // Virtual-scale loop with a zero-init virtual table.
        let vt = {
            let mut v = VirtualTable::new(rows, dim, 2);
            for r in 0..rows {
                v.row_mut(r).fill(0.0);
            }
            v
        };
        let mut scale = TerabyteLazyEmbedding::new(vt, dp, true, CounterNoise::new(9), 0);

        let ds = SyntheticDataset::new(SyntheticConfig::small(1, rows, 64));
        let access: Vec<Vec<u64>> = (0..6)
            .map(|i| {
                vec![
                    (i * 7 % rows as usize) as u64,
                    (i * 13 % rows as usize) as u64,
                ]
            })
            .collect();
        for i in 0..5 {
            let mut batch = ds.batch_of(&[0, 1]);
            batch.sparse[0] = lazydp_embedding::bag::BagIndices::from_samples(&[
                vec![access[i][0]],
                vec![access[i][1]],
            ]);
            let mut next = ds.batch_of(&[0, 1]);
            next.sparse[0] = lazydp_embedding::bag::BagIndices::from_samples(&[
                vec![access[i + 1][0]],
                vec![access[i + 1][1]],
            ]);
            // Empty grads on both sides: the optimizer sees an empty
            // batch (noise only), the scale loop an empty SparseGrad.
            opt.step(&mut model, &lazydp_data::MiniBatch::default(), Some(&next));
            scale.step(&SparseGrad::new(dim), next.table_indices(0));
        }
        for r in 0..rows {
            let a = model.tables[0].row(r as usize);
            let b = scale.table().read_row(r);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {r}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn flush_row_settles_pending_noise_once() {
        let table = VirtualTable::new(1000, 4, 1);
        let mut t = TerabyteLazyEmbedding::new(
            table,
            DpConfig::new(1.0, 1.0, 0.1, 1),
            true,
            CounterNoise::new(2),
            0,
        );
        for _ in 0..5 {
            t.step(&SparseGrad::new(4), &[]);
        }
        let init = t.table().init_row(42);
        let flushed = t.flush_row(42);
        assert_ne!(flushed, init, "5 iterations of pending noise applied");
        let again = t.flush_row(42);
        assert_eq!(again, flushed, "second flush is a no-op");
    }

    #[test]
    fn eager_equivalent_sample_count() {
        let table = VirtualTable::new(1_000_000, 128, 1);
        let mut t = TerabyteLazyEmbedding::new(
            table,
            DpConfig::paper_default(8),
            true,
            CounterNoise::new(2),
            0,
        );
        t.step(&SparseGrad::new(128), &[1, 2, 3]);
        t.step(&SparseGrad::new(128), &[4]);
        assert_eq!(t.eager_equivalent_samples(), 2u128 * 1_000_000 * 128);
        // Our actual draws: 3 rows (first step had all-new rows) + 1.
        assert_eq!(t.counters().gaussian_samples, 4 * 128);
    }
}
