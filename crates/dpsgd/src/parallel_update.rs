//! Multi-threaded dense noisy update.
//!
//! The eager baseline's model-update sweep is embarrassingly parallel
//! over rows; the paper's tuned implementation multi-threads it with
//! TBB/OpenMP (§6). This is the Rust analogue on the
//! [`lazydp_exec::Executor`]: rows are split into fixed-size chunks
//! (never sized by the thread count), and with counter-based noise the
//! result is *identical* to the sequential
//! [`dense_noisy_update`](crate::noise_update::dense_noisy_update) —
//! verified by the tests — regardless of thread count.
//! [`EagerDpSgd`](crate::EagerDpSgd) runs every step through it at its
//! [`DpConfig::threads`](crate::DpConfig) width (inline at one).

use crate::counters::KernelCounters;
use crate::noise_update::noisy_row_update;
use lazydp_embedding::{EmbeddingTable, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::RowNoise;

/// Embedding rows per executor chunk. Fixed (not derived from the
/// thread count) so chunk addressing — and therefore any per-chunk
/// noise state — is thread-count independent.
const ROWS_PER_CHUNK: usize = 512;

/// Parallel dense noisy update over `threads` workers, each chunk on its
/// own clone of `noise`. Every [`RowNoise`] is a pure function of the
/// `(table, row, iter)` address, so the result is identical to the
/// sequential [`dense_noisy_update`](crate::noise_update::dense_noisy_update)
/// at any thread count.
///
/// The gradient is looked up by binary search over the coalesced
/// entries — `SparseGrad::coalesce` already leaves them sorted by row,
/// so no per-call hash map is built.
///
/// # Panics
///
/// Panics if `grad` is not coalesced (sorted, duplicate-free rows),
/// dimensions mismatch, or `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn par_dense_noisy_update<N: RowNoise>(
    table_id: u32,
    table: &mut EmbeddingTable,
    grad: &SparseGrad,
    noise: &N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    threads: usize,
    counters: &mut KernelCounters,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    assert!(
        grad.is_coalesced(),
        "gradient must be coalesced (sorted, duplicate-free rows)"
    );
    let dim = table.dim();
    let rows = table.rows();
    Executor::new(threads).par_for(table.as_mut_slice(), ROWS_PER_CHUNK * dim, |c, chunk| {
        let mut worker_noise = noise.clone();
        let first_row = c * ROWS_PER_CHUNK;
        for (k, row) in chunk.chunks_mut(dim).enumerate() {
            let r = (first_row + k) as u64;
            let g = grad.find(r);
            noisy_row_update(&mut worker_noise, table_id, r, iter, row, g, noise_std, lr);
        }
    });
    counters.gaussian_samples += (rows * dim) as u64;
    counters.table_rows_read += rows as u64;
    counters.table_rows_written += rows as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise_update::dense_noisy_update;
    use lazydp_rng::counter::CounterNoise;

    fn grad() -> SparseGrad {
        let mut g = SparseGrad::from_entries(
            4,
            vec![(0, vec![1.0; 4]), (17, vec![-0.5; 4]), (63, vec![2.0; 4])],
        );
        let _ = g.coalesce();
        g
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let g = grad();
        let mut seq = EmbeddingTable::zeros(64, 4);
        let mut c1 = KernelCounters::new();
        let mut n1 = CounterNoise::new(12);
        dense_noisy_update(3, &mut seq, &g, &mut n1, 9, 0.25, 0.1, &mut c1);
        for threads in [1usize, 2, 3, 7] {
            let mut par = EmbeddingTable::zeros(64, 4);
            let mut c2 = KernelCounters::new();
            let n2 = CounterNoise::new(12);
            par_dense_noisy_update(3, &mut par, &g, &n2, 9, 0.25, 0.1, threads, &mut c2);
            assert_eq!(seq, par, "thread count {threads} changed the result");
            assert_eq!(c1.gaussian_samples, c2.gaussian_samples);
        }
    }

    #[test]
    fn tables_larger_than_one_chunk_still_match_sequential() {
        // > ROWS_PER_CHUNK rows so several chunks are actually in
        // flight, with gradient rows scattered across chunks.
        let rows = 2 * ROWS_PER_CHUNK + 37;
        let mut g = SparseGrad::from_entries(
            2,
            vec![
                (3, vec![1.0, -1.0]),
                (ROWS_PER_CHUNK as u64 + 5, vec![0.5, 0.5]),
                (rows as u64 - 1, vec![-2.0, 2.0]),
            ],
        );
        let _ = g.coalesce();
        let mut seq = EmbeddingTable::zeros(rows, 2);
        let mut c = KernelCounters::new();
        let mut n1 = CounterNoise::new(8);
        dense_noisy_update(1, &mut seq, &g, &mut n1, 4, 0.3, 0.05, &mut c);
        for threads in [1usize, 2, 5] {
            let mut par = EmbeddingTable::zeros(rows, 2);
            let n2 = CounterNoise::new(8);
            par_dense_noisy_update(1, &mut par, &g, &n2, 4, 0.3, 0.05, threads, &mut c);
            assert_eq!(seq, par, "thread count {threads} changed the result");
        }
    }

    #[test]
    fn handles_row_counts_not_divisible_by_threads() {
        let g = {
            let mut g = SparseGrad::from_entries(2, vec![(6, vec![1.0, 1.0])]);
            let _ = g.coalesce();
            g
        };
        let mut seq = EmbeddingTable::zeros(7, 2);
        let mut par = EmbeddingTable::zeros(7, 2);
        let mut c = KernelCounters::new();
        let mut n1 = CounterNoise::new(1);
        dense_noisy_update(0, &mut seq, &g, &mut n1, 1, 0.5, 0.1, &mut c);
        let n2 = CounterNoise::new(1);
        par_dense_noisy_update(0, &mut par, &g, &n2, 1, 0.5, 0.1, 3, &mut c);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "coalesced")]
    fn uncoalesced_grad_rejected() {
        let mut t = EmbeddingTable::zeros(4, 1);
        let g = SparseGrad::from_entries(1, vec![(2, vec![1.0]), (0, vec![1.0])]);
        let n = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        par_dense_noisy_update(0, &mut t, &g, &n, 1, 0.1, 0.1, 2, &mut c);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut t = EmbeddingTable::zeros(4, 2);
        let g = SparseGrad::new(2);
        let n = CounterNoise::new(1);
        let mut c = KernelCounters::new();
        par_dense_noisy_update(0, &mut t, &g, &n, 1, 0.1, 0.1, 0, &mut c);
    }
}
