//! Hash-partitioned embedding shards.
//!
//! LazyDP's sparse path (gather → lazy flush → sparse update) touches
//! `O(batch)` rows per iteration, so once the per-row *noise sampling*
//! is parallel (PR 2), the next scaling lever is partitioning the sparse
//! *state* itself: split a table's rows across `S` independent shards so
//! that history bookkeeping, noise accumulation, and the sparse update
//! of each shard can proceed in parallel with no shared mutable state —
//! the same partitioning that sparsity-preserving DP embedding training
//! systems use to keep the DP machinery off the critical path.
//!
//! The partition function is the modulo hash `shard(r) = r mod S` with
//! local index `r div S`. Two properties make it the right choice here:
//!
//! 1. **Skew robustness** — hot rows of a Zipf trace (low row ids, the
//!    way `lazydp_data`'s `AccessDistribution` ranks them) spread
//!    round-robin across shards instead of piling into one range shard.
//! 2. **Order preservation** — for rows of one shard, global order and
//!    local order coincide (`r1 < r2 ∧ r1 ≡ r2 (mod S)` ⇒
//!    `r1/S < r2/S`), so partitioning a sorted, deduplicated index list
//!    yields sorted, deduplicated per-shard lists with no re-sort.
//!
//! Everything here is *layout only*: a [`ShardedTable`] holds exactly
//! the same `rows × dim` weights as the dense [`EmbeddingTable`] it was
//! built from, and every operation is defined to be bitwise identical to
//! the dense equivalent (asserted by this module's tests and the
//! workspace-level proptests).

use crate::sparse::SparseGrad;
use crate::table::EmbeddingTable;
use lazydp_exec::Executor;
use lazydp_tensor::Matrix;

/// The hash-partition function mapping global rows to `S` shards.
///
/// A `ShardSpec` is deliberately tiny (one `usize`) and `Copy`: it is
/// the *shared contract* between every sharded structure — a
/// [`ShardedTable`], its `ShardedHistory` (in `lazydp-core`), and the
/// per-shard gradient partitions must all agree on it, or rows would
/// migrate between shards mid-training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A partition into `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards }
    }

    /// Number of shards `S`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning global row `row` (`row mod S`).
    #[must_use]
    pub fn shard_of(&self, row: u64) -> usize {
        usize::try_from(row % self.shards as u64).expect("shard index fits usize")
    }

    /// The row's index within its shard (`row div S`).
    #[must_use]
    pub fn local_row(&self, row: u64) -> u64 {
        row / self.shards as u64
    }

    /// The `(shard, local_row)` pair of a global row — **the** one
    /// row→shard partition function of the workspace.
    ///
    /// Every structure that splits per-row state by shard —
    /// [`ShardedTable`] here and `ShardedHistory` in `lazydp-core`
    /// today; any future sharded layer (e.g. a shard-partitioned
    /// `lazydp_store` backend) — must route through this single helper
    /// rather than re-deriving the modulo arithmetic, so the partition
    /// can never drift between layers: a row's weights and its noise
    /// history are always owned by the same shard. (`lazydp_store`'s
    /// row→page mapping is orthogonal — pages slice *within* a table's
    /// row space, shards slice *across* it.)
    #[must_use]
    pub fn locate(&self, row: u64) -> (usize, u64) {
        (self.shard_of(row), self.local_row(row))
    }

    /// The global row for local index `local` of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    #[must_use]
    pub fn global_row(&self, shard: usize, local: u64) -> u64 {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        local * self.shards as u64 + shard as u64
    }

    /// Number of global rows `< total_rows` owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    #[must_use]
    pub fn rows_in_shard(&self, total_rows: usize, shard: usize) -> usize {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        (total_rows + self.shards - 1 - shard) / self.shards
    }

    /// Splits a **sorted, deduplicated** global index list into one
    /// sorted, deduplicated *global*-index list per shard (property 2 of
    /// the module docs: no re-sort needed).
    #[must_use]
    pub fn partition_indices(&self, sorted: &[u64]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.shards];
        for &row in sorted {
            out[self.shard_of(row)].push(row);
        }
        out
    }

    /// Splits a **coalesced** (sorted, duplicate-free) sparse gradient
    /// into one coalesced per-shard gradient with **local** row indices.
    #[must_use]
    pub fn partition_grad(&self, grad: &SparseGrad) -> Vec<SparseGrad> {
        let mut out = vec![SparseGrad::new(grad.dim()); self.shards];
        for (row, values) in grad.iter() {
            out[self.shard_of(row)].push(self.local_row(row), values);
        }
        out
    }

    /// Counts, per shard, how many of the given rows it owns — the
    /// partition-count gather of DP-AdaFEST's private partition
    /// selection (one count per hash partition, fed to the Gaussian
    /// threshold test). `rows` need not be sorted or deduplicated; the
    /// caller decides whether duplicates count once (pass a deduped
    /// list) or per occurrence. `counts` is cleared and resized to
    /// `shards()`, so a warm caller re-uses its allocation.
    pub fn partition_counts_into(&self, rows: &[u64], counts: &mut Vec<u64>) {
        counts.clear();
        counts.resize(self.shards, 0);
        for &row in rows {
            counts[self.shard_of(row)] += 1;
        }
    }

    /// Allocating convenience wrapper over
    /// [`partition_counts_into`](Self::partition_counts_into).
    #[must_use]
    pub fn partition_counts(&self, rows: &[u64]) -> Vec<u64> {
        let mut counts = Vec::new();
        self.partition_counts_into(rows, &mut counts);
        counts
    }
}

/// An embedding table hash-partitioned into `S` independent shards.
///
/// Row `r` lives at local row `r div S` of shard `r mod S`; each shard
/// is an ordinary [`EmbeddingTable`], so every per-row primitive is
/// *literally the same code* as the dense path — sharding changes where
/// a row lives, never what happens to it. That is what makes the
/// S-shard training path bitwise identical to the 1-shard path.
///
/// The payoff is [`par_sparse_update`](Self::par_sparse_update): shards
/// are disjoint owned allocations, so safe Rust can hand each worker its
/// own shard mutably and apply a batch's sparse update shard-parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTable {
    spec: ShardSpec,
    rows: usize,
    dim: usize,
    shards: Vec<EmbeddingTable>,
}

impl ShardedTable {
    /// Creates a zero-initialized sharded table.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `dim == 0`, or `shards > rows` (a shard
    /// would be empty — use fewer shards for tiny tables).
    #[must_use]
    pub fn zeros(rows: usize, dim: usize, shards: usize) -> Self {
        let spec = ShardSpec::new(shards);
        assert!(
            shards <= rows,
            "cannot split {rows} rows into {shards} non-empty shards"
        );
        let shards = (0..shards)
            .map(|s| EmbeddingTable::zeros(spec.rows_in_shard(rows, s), dim))
            .collect();
        Self {
            spec,
            rows,
            dim,
            shards,
        }
    }

    /// Re-partitions a dense table into `shards` shards (bitwise copy of
    /// every row).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > table.rows()`.
    #[must_use]
    pub fn from_dense(table: &EmbeddingTable, shards: usize) -> Self {
        let mut out = Self::zeros(table.rows(), table.dim(), shards);
        for r in 0..table.rows() {
            out.row_mut(r as u64).copy_from_slice(table.row(r));
        }
        out
    }

    /// Reassembles the dense table (bitwise copy of every row).
    #[must_use]
    pub fn to_dense(&self) -> EmbeddingTable {
        let mut out = EmbeddingTable::zeros(self.rows, self.dim);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(self.row(r as u64));
        }
        out
    }

    /// The partition function.
    #[must_use]
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Total number of (global) rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (read-only).
    #[must_use]
    pub fn shards(&self) -> &[EmbeddingTable] {
        &self.shards
    }

    /// Size in bytes of the weight storage (identical to the dense
    /// table's: sharding adds no per-row overhead).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(EmbeddingTable::bytes).sum()
    }

    /// Global row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: u64) -> &[f32] {
        assert!((r as usize) < self.rows, "row {r} out of {}", self.rows);
        let (s, l) = self.spec.locate(r);
        self.shards[s].row(l as usize)
    }

    /// Mutable global row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: u64) -> &mut [f32] {
        assert!((r as usize) < self.rows, "row {r} out of {}", self.rows);
        let (s, l) = self.spec.locate(r);
        self.shards[s].row_mut(l as usize)
    }

    /// Gathers `indices` into a dense `indices.len() × dim` matrix, in
    /// input order — identical output to [`EmbeddingTable::gather`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn gather(&self, indices: &[u64]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_into(indices, &mut out);
        out
    }

    /// [`gather`](Self::gather) into a caller-owned matrix, reshaped to
    /// `indices.len() × dim` and fully overwritten (no allocation once it
    /// has grown to fit).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_into(&self, indices: &[u64], out: &mut Matrix) {
        out.reshape_for_overwrite(indices.len(), self.dim);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
    }

    /// Sequential sparse update — identical arithmetic to
    /// [`EmbeddingTable::sparse_update`], routed through the partition.
    ///
    /// # Panics
    ///
    /// Panics on gradient dimension mismatch.
    pub fn sparse_update(&mut self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim(), self.dim, "sparse grad dim mismatch");
        for (idx, values) in grad.iter() {
            let row = self.row_mut(idx);
            for (w, &g) in row.iter_mut().zip(values.iter()) {
                *w -= lr * g;
            }
        }
    }

    /// Shard-parallel sparse update: partitions the **coalesced** grad
    /// with [`ShardSpec::partition_grad`] and updates every shard
    /// concurrently on `exec` (chunk = one shard, so the chunk-addressed
    /// determinism contract of `lazydp_exec` applies: bitwise identical
    /// to [`sparse_update`](Self::sparse_update) for any thread count).
    ///
    /// # Panics
    ///
    /// Panics on gradient dimension mismatch.
    pub fn par_sparse_update(&mut self, grad: &SparseGrad, lr: f32, exec: &Executor) {
        assert_eq!(grad.dim(), self.dim, "sparse grad dim mismatch");
        let by_shard = self.spec.partition_grad(grad);
        exec.par_for(&mut self.shards, 1, |s, chunk| {
            chunk[0].sparse_update(&by_shard[s], lr);
        });
    }

    /// Maximum absolute element-wise difference to another sharded
    /// table.
    ///
    /// # Panics
    ///
    /// Panics on shape or partition mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(
            (self.spec, self.rows, self.dim),
            (other.spec, other.rows, other.dim),
            "sharded table shape mismatch"
        );
        let mut m = 0.0f32;
        for (a, b) in self.shards.iter().zip(other.shards.iter()) {
            m = m.max(a.max_abs_diff(b));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn dense(rows: usize, dim: usize) -> EmbeddingTable {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        EmbeddingTable::init_uniform(rows, dim, &mut rng)
    }

    #[test]
    fn spec_roundtrips_rows_and_counts_them() {
        for shards in [1usize, 2, 3, 4, 8] {
            let spec = ShardSpec::new(shards);
            let total = 37usize;
            let mut seen = 0usize;
            for s in 0..shards {
                for local in 0..spec.rows_in_shard(total, s) as u64 {
                    let g = spec.global_row(s, local);
                    assert!((g as usize) < total);
                    assert_eq!(spec.shard_of(g), s);
                    assert_eq!(spec.local_row(g), local);
                    seen += 1;
                }
            }
            assert_eq!(seen, total, "partition must cover every row once");
        }
    }

    #[test]
    fn partition_counts_match_partition_indices() {
        let spec = ShardSpec::new(4);
        let rows: Vec<u64> = vec![0, 1, 4, 5, 8, 9, 13, 21];
        let counts = spec.partition_counts(&rows);
        let parts = spec.partition_indices(&rows);
        assert_eq!(counts.len(), 4);
        for (c, p) in counts.iter().zip(parts.iter()) {
            assert_eq!(*c, p.len() as u64);
        }
        assert_eq!(counts.iter().sum::<u64>(), rows.len() as u64);
    }

    #[test]
    fn partition_counts_into_reuses_and_resets_the_buffer() {
        let spec = ShardSpec::new(3);
        let mut counts = vec![99u64; 7]; // stale, wrong-sized buffer
        spec.partition_counts_into(&[0, 3, 6, 1], &mut counts);
        assert_eq!(counts, vec![3, 1, 0]);
        // Empty row list ⇒ all-zero counts, still one slot per shard.
        spec.partition_counts_into(&[], &mut counts);
        assert_eq!(counts, vec![0, 0, 0]);
    }

    #[test]
    fn partition_preserves_sorted_dedup_order() {
        let spec = ShardSpec::new(3);
        let parts = spec.partition_indices(&[0, 1, 2, 3, 6, 7, 9, 12]);
        assert_eq!(parts[0], vec![0, 3, 6, 9, 12]);
        assert_eq!(parts[1], vec![1, 7]);
        assert_eq!(parts[2], vec![2]);
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "sorted per shard");
        }
    }

    #[test]
    fn from_dense_roundtrip_is_bitwise() {
        let d = dense(29, 6);
        for shards in [1usize, 2, 4, 8] {
            let sharded = ShardedTable::from_dense(&d, shards);
            assert_eq!(sharded.to_dense(), d, "{shards} shards");
            assert_eq!(sharded.bytes(), d.bytes());
            for r in 0..29u64 {
                assert_eq!(sharded.row(r), d.row(r as usize));
            }
        }
    }

    #[test]
    fn gather_matches_dense_gather() {
        let d = dense(40, 4);
        let sharded = ShardedTable::from_dense(&d, 4);
        let idx = [3u64, 39, 0, 3, 17];
        assert_eq!(sharded.gather(&idx), d.gather(&idx));
    }

    #[test]
    fn sparse_updates_match_dense_bitwise_for_any_shard_count() {
        let d0 = dense(50, 3);
        let mut grad = SparseGrad::from_entries(
            3,
            vec![
                (0, vec![1.0, -2.0, 0.5]),
                (7, vec![0.25, 0.0, -1.0]),
                (49, vec![3.0, 3.0, 3.0]),
                (7, vec![1.0, 1.0, 1.0]),
            ],
        );
        let _ = grad.coalesce();
        let mut want = d0.clone();
        want.sparse_update(&grad, 0.1);
        for shards in [1usize, 2, 4, 8] {
            let mut seq = ShardedTable::from_dense(&d0, shards);
            seq.sparse_update(&grad, 0.1);
            assert_eq!(seq.to_dense(), want, "sequential, {shards} shards");
            for threads in [1usize, 4] {
                let mut par = ShardedTable::from_dense(&d0, shards);
                par.par_sparse_update(&grad, 0.1, &Executor::new(threads));
                assert_eq!(
                    par.to_dense(),
                    want,
                    "parallel, {shards} shards, {threads} threads"
                );
                assert_eq!(par.max_abs_diff(&seq), 0.0);
            }
        }
    }

    #[test]
    fn locate_is_the_shard_of_local_row_pair() {
        for shards in [1usize, 3, 8] {
            let spec = ShardSpec::new(shards);
            for row in 0..64u64 {
                assert_eq!(spec.locate(row), (spec.shard_of(row), spec.local_row(row)));
            }
        }
    }

    #[test]
    fn zipf_hot_rows_spread_across_shards() {
        // Module-doc property 1: the hottest rows of a rank-ordered
        // trace (ids 0..k) land in k distinct shards, not one.
        let spec = ShardSpec::new(4);
        let hot: Vec<usize> = (0..4u64).map(|r| spec.shard_of(r)).collect();
        let distinct: std::collections::HashSet<_> = hot.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn rejects_more_shards_than_rows() {
        let _ = ShardedTable::zeros(3, 2, 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = ShardSpec::new(0);
    }
}
