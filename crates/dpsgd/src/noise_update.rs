//! Model-update kernels for embedding tables.
//!
//! These implement the paper's Fig. 4 update styles with work counters:
//!
//! * [`sparse_grad_update`] — SGD's sparse update (Fig. 4(a)): touches
//!   only gathered rows.
//! * [`dense_noisy_update`] — DP-SGD's dense noisy update (Fig. 4(b)):
//!   *every* row receives fresh Gaussian noise; gathered rows also
//!   receive their gradient. This is the memory-bound bottleneck the
//!   paper root-causes in §4.3.
//! * [`sparse_noisy_update`] — EANA's variant (§7.4): noise lands only
//!   on the rows that were accessed, which is cheap but leaks which
//!   rows were never touched.

use crate::counters::KernelCounters;
use lazydp_embedding::{EmbeddingTable, SparseGrad};
use lazydp_rng::RowNoise;

/// SGD sparse update: `θ[r] -= lr · g[r]` for gathered rows only.
pub fn sparse_grad_update(
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    lr: f32,
    counters: &mut KernelCounters,
) {
    table.sparse_update(grad, lr);
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

/// DP-SGD dense noisy update: for **every** row `r` of the table,
/// `θ[r] -= lr · (noise_std·n_r + g[r])`, where `n_r` is a fresh
/// standard-normal vector drawn from `noise` for `(table_id, r, iter)`
/// and `g[r]` is zero for non-gathered rows.
///
/// The noise is applied as it is sampled ([`RowNoise::apply_unit`]),
/// so the sweep writes no noise buffer and allocates nothing.
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn dense_noisy_update<N: RowNoise>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    // Gathered rows are found by binary search over the coalesced
    // (sorted) gradient — no per-call map, no unordered container.
    assert!(
        grad.is_coalesced(),
        "gradient must be coalesced (sorted, duplicate-free rows)"
    );
    let dim = table.dim();
    let rows = table.rows();
    for r in 0..rows {
        let row = table.row_mut(r);
        noisy_row_update(
            noise,
            table_id,
            r as u64,
            iter,
            row,
            grad.find(r as u64),
            noise_std,
            lr,
        );
    }
    counters.gaussian_samples += (rows * dim) as u64;
    counters.table_rows_read += rows as u64;
    counters.table_rows_written += rows as u64;
}

/// One row of the noisy update, fused with its sampling:
/// `row[j] -= lr·(noise_std·n_j + g[j])` for a gathered row, or
/// `row[j] -= lr·noise_std·n_j` without a gradient, with `n` drawn for
/// `(table_id, r, iter)`. Every dense, sparse, parallel and
/// partition-restricted noisy update runs this.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn noisy_row_update<N: RowNoise>(
    noise: &mut N,
    table_id: u32,
    r: u64,
    iter: u64,
    row: &mut [f32],
    grad: Option<&[f32]>,
    noise_std: f32,
    lr: f32,
) {
    match grad {
        Some(g) => noise.apply_unit(table_id, r, iter, row, |j, w, n| {
            *w -= lr * (noise_std * n + g[j]);
        }),
        None => noise.apply_unit(table_id, r, iter, row, |_, w, n| {
            *w -= lr * noise_std * n;
        }),
    }
}

/// EANA sparse noisy update: noise (plus gradient) lands **only** on the
/// gathered rows. Allocation-free, like [`dense_noisy_update`].
///
/// # Panics
///
/// Panics if `grad` is not coalesced or its dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn sparse_noisy_update<N: RowNoise>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    let dim = table.dim();
    // Coalesced gradients are sorted strictly increasing, so duplicates
    // are caught by a monotonicity check instead of a hash set.
    let mut last_idx: Option<u64> = None;
    for (idx, g) in grad.iter() {
        assert!(
            last_idx.is_none_or(|l| l < idx),
            "gradient must be coalesced (row {idx} out of order or duplicated)"
        );
        last_idx = Some(idx);
        let row = table.row_mut(idx as usize);
        noisy_row_update(noise, table_id, idx, iter, row, Some(g), noise_std, lr);
    }
    counters.gaussian_samples += (grad.len() * dim) as u64;
    counters.table_rows_read += grad.len() as u64;
    counters.table_rows_written += grad.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;

    fn grad_for(dim: usize, entries: Vec<(u64, Vec<f32>)>) -> SparseGrad {
        let mut g = SparseGrad::from_entries(dim, entries);
        g.coalesce();
        g
    }

    #[test]
    fn dense_update_touches_every_row() {
        let mut table = EmbeddingTable::zeros(5, 2);
        let before = table.clone();
        let grad = grad_for(2, vec![(1, vec![1.0, 1.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense_noisy_update(0, &mut table, &grad, &mut noise, 1, 0.5, 0.1, &mut c);
        for r in 0..5 {
            assert_ne!(table.row(r), before.row(r), "row {r} must move (noise)");
        }
        assert_eq!(c.gaussian_samples, 10);
        assert_eq!(c.table_rows_written, 5);
    }

    #[test]
    fn dense_update_applies_grad_plus_noise() {
        // With zero noise std, dense update reduces to the sparse grad
        // update on gathered rows and a no-op elsewhere.
        let mut a = EmbeddingTable::zeros(4, 2);
        let mut b = EmbeddingTable::zeros(4, 2);
        let grad = grad_for(2, vec![(2, vec![3.0, -1.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense_noisy_update(0, &mut a, &grad, &mut noise, 1, 0.0, 0.1, &mut c);
        sparse_grad_update(&mut b, &grad, 0.1, &mut c);
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn sparse_noisy_update_leaves_untouched_rows_alone() {
        let mut table = EmbeddingTable::zeros(5, 2);
        let grad = grad_for(2, vec![(0, vec![1.0, 0.0]), (4, vec![0.0, 1.0])]);
        let mut noise = CounterNoise::new(2);
        let mut c = KernelCounters::new();
        sparse_noisy_update(0, &mut table, &grad, &mut noise, 1, 0.5, 0.1, &mut c);
        for r in [1usize, 2, 3] {
            assert_eq!(table.row(r), &[0.0, 0.0], "EANA must not touch row {r}");
        }
        assert_ne!(table.row(0), &[0.0, 0.0]);
        assert_ne!(table.row(4), &[0.0, 0.0]);
        assert_eq!(c.gaussian_samples, 4);
    }

    #[test]
    fn dense_and_sparse_agree_on_accessed_rows_with_same_noise_source() {
        let mut dense = EmbeddingTable::zeros(6, 3);
        let mut sparse = EmbeddingTable::zeros(6, 3);
        let grad = grad_for(3, vec![(2, vec![1.0, 2.0, 3.0])]);
        let mut n1 = CounterNoise::new(9);
        let mut n2 = CounterNoise::new(9);
        let mut c = KernelCounters::new();
        dense_noisy_update(0, &mut dense, &grad, &mut n1, 7, 0.3, 0.1, &mut c);
        sparse_noisy_update(0, &mut sparse, &grad, &mut n2, 7, 0.3, 0.1, &mut c);
        // Counter-based noise is addressed by (table,row,iter), so the
        // accessed row got the identical update in both kernels.
        assert_eq!(dense.row(2), sparse.row(2));
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn dense_update_rejects_uncoalesced_grad() {
        let mut table = EmbeddingTable::zeros(3, 1);
        let grad = SparseGrad::from_entries(1, vec![(0, vec![1.0]), (0, vec![2.0])]);
        let mut noise = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        dense_noisy_update(0, &mut table, &grad, &mut noise, 1, 0.1, 0.1, &mut c);
    }
}
