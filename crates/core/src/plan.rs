//! The lookahead flush: LazyDP's pending-noise update, split into
//! bookkeeping and sampling.
//!
//! Algorithm 1's per-row flush interleaves two very different kinds of
//! work: *bookkeeping* (reading and resetting [`HistoryTable`] delays —
//! serial, branchy, cheap) and *noise generation* (Box–Muller sampling
//! and accumulation — the §4.3 compute bottleneck, embarrassingly
//! parallel). [`LookaheadFlush::run`] is the one function that plans and
//! samples lookahead noise, for both `LazyDpOptimizer` and
//! `TerabyteLazyEmbedding`:
//!
//! 1. **Walk:** each row the *next* iteration gathers has its pending
//!    delay count taken from its history shard; the rows that owe noise
//!    are listed per shard.
//! 2. **Sample:** the shards sample their rows concurrently, each with
//!    the chunked sampler [`NoisePlan::sample_entries`] on the executor
//!    width left over by the fan-out (inline at width 1).
//! 3. **Merge:** [`LookaheadFlush::merge_into`] adds each row's noise
//!    into the step's coalesced sparse update.
//!
//! Noise is addressed by `(table, row, iter)` — never by chunk, shard or
//! thread — so the result is bitwise identical for any thread or shard
//! count (DESIGN.md invariant #4). The release-time flush
//! (`LazyDpOptimizer::finalize_model`) plans with
//! [`NoisePlan::for_all_rows_of_shard`] and runs the same sampler.

use crate::ans::aggregated_std;
use crate::history::{HistoryTable, ShardedHistory};
use lazydp_dpsgd::KernelCounters;
use lazydp_embedding::{ShardSpec, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::RowNoise;

/// Plan entries per executor chunk in the sampling phase. Fixed (never
/// derived from the thread count) so chunk addressing is thread-count
/// independent.
const ENTRIES_PER_CHUNK: usize = 32;

/// One row awaiting its pending noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoisePlanEntry {
    /// The embedding row (global id).
    pub row: u64,
    /// How many deferred noise updates it owes (≥ 1).
    pub delays: u64,
}

/// Every row of one history shard whose pending noise must land at
/// release, with its delay count already taken from the history.
#[derive(Debug, Clone)]
pub struct NoisePlan {
    entries: Vec<NoisePlanEntry>,
}

impl NoisePlan {
    /// Plans the release-time flush (threat model §3) of one shard of a
    /// hash-partitioned history: scans the shard's local rows and plans
    /// every row with pending noise at `iter`, under its **global** row
    /// id, so the sampled noise is addressed identically for any shard
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for `spec`.
    #[must_use]
    pub fn for_all_rows_of_shard(
        iter: u64,
        spec: ShardSpec,
        shard: usize,
        history: &mut HistoryTable,
        counters: &mut KernelCounters,
    ) -> Self {
        let mut entries = Vec::new();
        for local in 0..history.rows() as u64 {
            counters.history_reads += 1;
            let delays = history.take_delays(local, iter);
            if delays == 0 {
                continue;
            }
            counters.history_writes += 1;
            entries.push(NoisePlanEntry {
                row: spec.global_row(shard, local),
                delays,
            });
        }
        Self { entries }
    }

    /// The planned rows.
    #[must_use]
    pub fn entries(&self) -> &[NoisePlanEntry] {
        &self.entries
    }

    /// The chunked sampler: accumulates every entry's pending noise into
    /// `acc`, resized to an `entries.len() × dim` row-major block in
    /// entry order (gradient units — callers scale by −η when applying).
    /// Chunks of entries run on `exec`, each on its own clone of
    /// `noise`; at width 1 they run inline and nothing is allocated
    /// beyond `acc`. Returns the number of Gaussian samples drawn.
    ///
    /// Per entry this reproduces Algorithm 1 exactly: with ANS one draw
    /// `~ N(0, delays·σ²C²/B²)` (line 38); without, the `delays`
    /// separate draws addressed by the iteration whose noise they are —
    /// the exact values eager DP-SGD would have drawn (lines 32–35).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` and `entries` is not empty.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_entries<N: RowNoise>(
        table_id: u32,
        iter: u64,
        entries: &[NoisePlanEntry],
        dim: usize,
        per_step_std: f32,
        ans: bool,
        noise: &N,
        exec: &Executor,
        acc: &mut Vec<f32>,
    ) -> u64 {
        acc.clear();
        acc.resize(entries.len() * dim, 0.0);
        exec.par_for(acc.as_mut_slice(), ENTRIES_PER_CHUNK * dim, |c, chunk| {
            let mut noise = noise.clone();
            let first = c * ENTRIES_PER_CHUNK;
            for (e, out) in entries[first..].iter().zip(chunk.chunks_mut(dim)) {
                if ans {
                    // One draw ~ N(0, delays·σ²C²/B²) — line 38.
                    let std = aggregated_std(per_step_std, e.delays);
                    noise.apply_unit(table_id, e.row, iter, out, |_, o, n| *o += std * n);
                } else {
                    for k_iter in (iter - e.delays + 1)..=iter {
                        noise.apply_unit(table_id, e.row, k_iter, out, |_, o, n| {
                            *o += per_step_std * n;
                        });
                    }
                }
            }
        });
        let draws: u64 = entries.iter().map(|e| if ans { 1 } else { e.delays }).sum();
        draws * dim as u64
    }
}

/// One history shard's share of a [`LookaheadFlush`]: its planned rows
/// and their sampled noise.
#[derive(Debug, Clone, Default)]
struct ShardFlush {
    entries: Vec<NoisePlanEntry>,
    noise: Vec<f32>,
    samples: u64,
}

/// One table's lookahead flush (Algorithm 1 lines 13–21), with its
/// per-shard buffers. Keep one per table across steps: after warm-up a
/// flush reuses its buffers and allocates nothing of its own.
///
/// Rows are held in shard-major order, unlike the sorted target order,
/// but the *values* do not depend on it: each row's delays come from
/// its own history entry and its noise is addressed by
/// `(table, global row, iter)`, so the merged update — and therefore the
/// trained table — is bitwise identical for any shard count.
#[derive(Debug, Clone, Default)]
pub struct LookaheadFlush {
    shards: Vec<ShardFlush>,
    dim: usize,
}

impl LookaheadFlush {
    /// Plans and samples the pending noise of `targets` — the sorted,
    /// deduplicated global rows the *next* iteration gathers — at
    /// iteration `iter`, taking each row's delays from `history`. Shards
    /// sample concurrently on `exec`, the width left over by the fan-out
    /// going to each shard's chunks. Land the result with
    /// [`merge_into`](Self::merge_into).
    #[allow(clippy::too_many_arguments)]
    pub fn run<N: RowNoise>(
        &mut self,
        table_id: u32,
        iter: u64,
        targets: &[u64],
        history: &mut ShardedHistory,
        dim: usize,
        per_step_std: f32,
        ans: bool,
        noise: &N,
        exec: &Executor,
        counters: &mut KernelCounters,
    ) {
        // Kill point `flush`: a crash mid-flush leaves the history's
        // last-touched iterations partially advanced. Only table 0 hosts
        // the point so one kill fires per step, not per table.
        if table_id == 0 {
            lazydp_fault::point(lazydp_fault::Site::MidFlush, iter);
        }
        let spec = history.spec();
        self.dim = dim;
        self.shards.resize_with(spec.shards(), ShardFlush::default);
        for shard in &mut self.shards {
            shard.entries.clear();
        }
        let metrics = &lazydp_obs::metrics().trainer;
        for &row in targets {
            counters.history_reads += 1;
            counters.history_writes += 1;
            let delays = history.take_delays(row, iter);
            if delays == 0 {
                continue;
            }
            self.shards[spec.shard_of(row)]
                .entries
                .push(NoisePlanEntry { row, delays });
            metrics.noise_plan_rows.incr();
            metrics.pending_depth.record(delays);
        }
        let inner = Executor::new((exec.threads() / spec.shards()).max(1));
        exec.par_for(&mut self.shards, 1, |_, shard| {
            let shard = &mut shard[0];
            shard.samples = NoisePlan::sample_entries(
                table_id,
                iter,
                &shard.entries,
                dim,
                per_step_std,
                ans,
                noise,
                &inner,
                &mut shard.noise,
            );
        });
        counters.gaussian_samples += self.shards.iter().map(|s| s.samples).sum::<u64>();
    }

    /// Adds the sampled noise into a **coalesced** sparse update
    /// (Algorithm 1 lines 17–21): rows the gradient already touches get
    /// their noise added in place; rows it does not are appended as
    /// noise-only entries.
    ///
    /// # Panics
    ///
    /// Panics if `update`'s dimension differs from the flush's.
    pub fn merge_into(&self, update: &mut SparseGrad) {
        assert_eq!(update.dim(), self.dim, "flush/update dim mismatch");
        // The coalesced prefix stays binary-searchable; appended rows
        // are unique (targets are deduplicated), so they are never
        // looked up again within this merge.
        let sorted_len = update.len();
        for shard in &self.shards {
            for (e, nv) in shard.entries.iter().zip(shard.noise.chunks_exact(self.dim)) {
                let slot = match update.indices()[..sorted_len].binary_search(&e.row) {
                    Ok(i) => i,
                    Err(_) => {
                        let i = update.len();
                        let _ = update.push_zeros(e.row);
                        i
                    }
                };
                for (w, &n) in update.entry_mut(slot).iter_mut().zip(nv) {
                    *w += n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;

    fn history_at(rows: usize, flushed: &[(u64, u64)]) -> HistoryTable {
        let mut h = HistoryTable::new(rows);
        for &(row, iter) in flushed {
            let _ = h.take_delays(row, iter);
        }
        h
    }

    fn sample(
        entries: &[NoisePlanEntry],
        dim: usize,
        ans: bool,
        noise: &CounterNoise,
        threads: usize,
    ) -> (Vec<f32>, u64) {
        let mut acc = Vec::new();
        let exec = Executor::new(threads);
        let samples =
            NoisePlan::sample_entries(2, 9, entries, dim, 0.25, ans, noise, &exec, &mut acc);
        (acc, samples)
    }

    /// Per-row oracle for [`LookaheadFlush`]: Algorithm 1 lines 13–21
    /// one target at a time on a monolithic history, each row's noise
    /// drawn straight from the source and added through its slot in the
    /// coalesced update.
    #[allow(clippy::too_many_arguments)]
    fn oracle_flush(
        table_id: u32,
        iter: u64,
        targets: &[u64],
        history: &mut HistoryTable,
        per_step_std: f32,
        ans: bool,
        noise: &mut CounterNoise,
        update: &mut SparseGrad,
        counters: &mut KernelCounters,
    ) {
        let dim = update.dim();
        let sorted_len = update.len();
        let mut unit = vec![0.0f32; dim];
        for &row in targets {
            counters.history_reads += 1;
            counters.history_writes += 1;
            let delays = history.take_delays(row, iter);
            if delays == 0 {
                continue;
            }
            let mut acc = vec![0.0f32; dim];
            let draws: Vec<(u64, f32)> = if ans {
                vec![(iter, aggregated_std(per_step_std, delays))]
            } else {
                (iter - delays + 1..=iter)
                    .map(|k| (k, per_step_std))
                    .collect()
            };
            for (k, std) in draws {
                noise.fill_unit(table_id, row, k, &mut unit);
                for (a, &n) in acc.iter_mut().zip(&unit) {
                    *a += std * n;
                }
                counters.gaussian_samples += dim as u64;
            }
            let slot = match update.indices()[..sorted_len].binary_search(&row) {
                Ok(i) => i,
                Err(_) => {
                    let i = update.len();
                    let _ = update.push_zeros(row);
                    i
                }
            };
            for (w, &a) in update.entry_mut(slot).iter_mut().zip(&acc) {
                *w += a;
            }
        }
    }

    #[test]
    fn flush_plans_only_pending_targets_and_merges_them() {
        let raw: Vec<u32> = (0..8).map(|r| if r == 2 { 5 } else { 0 }).collect();
        let mut h = ShardedHistory::from_raw_global(&raw, 1); // row 2 flushed at 5
        let mut update = SparseGrad::from_entries(2, vec![(1, vec![1.0, 1.0])]);
        let _ = update.coalesce();
        let mut c = KernelCounters::new();
        let mut flush = LookaheadFlush::default();
        let noise = CounterNoise::new(3);
        flush.run(
            0,
            5,
            &[1, 2, 4],
            &mut h,
            2,
            0.5,
            true,
            &noise,
            &Executor::new(1),
            &mut c,
        );
        flush.merge_into(&mut update);
        // Row 2 owes nothing at iter 5; rows 1 and 4 owe 5 each, and
        // row 4, absent from the gradient, is appended.
        assert_eq!(update.indices(), &[1, 4]);
        assert_eq!(c.history_reads, 3);
        assert_eq!(c.history_writes, 3);
        assert_eq!(c.gaussian_samples, 2 * 2);
        assert!(h.pending_rows(5).iter().all(|r| ![1, 2, 4].contains(r)));
    }

    #[test]
    fn for_all_rows_of_shard_plans_every_pending_row() {
        let mut h = history_at(4, &[(1, 3), (3, 7)]);
        let mut c = KernelCounters::new();
        let spec = ShardSpec::new(1);
        let plan = NoisePlan::for_all_rows_of_shard(7, spec, 0, &mut h, &mut c);
        let rows: Vec<u64> = plan.entries().iter().map(|e| e.row).collect();
        let delays: Vec<u64> = plan.entries().iter().map(|e| e.delays).collect();
        assert_eq!(rows, vec![0, 1, 2]); // row 3 is current
        assert_eq!(delays, vec![7, 4, 7]);
        assert_eq!(c.history_reads, 4);
        assert_eq!(c.history_writes, 3);
        // Idempotent: a second scan owes nothing.
        let again = NoisePlan::for_all_rows_of_shard(7, spec, 0, &mut h, &mut c);
        assert!(again.entries().is_empty());
    }

    #[test]
    fn sample_entries_is_thread_count_independent() {
        let entries: Vec<NoisePlanEntry> = (0..100)
            .map(|k| NoisePlanEntry {
                row: k * 3,
                delays: 1 + (k % 7),
            })
            .collect();
        let noise = CounterNoise::new(11);
        for ans in [true, false] {
            let base = sample(&entries, 8, ans, &noise, 1);
            for threads in [2usize, 3, 8] {
                let got = sample(&entries, 8, ans, &noise, threads);
                assert_eq!(base, got, "ans={ans}, threads={threads}");
            }
        }
    }

    #[test]
    fn sample_counts_draws_per_algorithm_variant() {
        let entries = [
            NoisePlanEntry { row: 0, delays: 4 },
            NoisePlanEntry { row: 7, delays: 2 },
        ];
        let noise = CounterNoise::new(1);
        let (_, with_ans) = sample(&entries, 3, true, &noise, 1);
        assert_eq!(with_ans, 2 * 3, "ANS: one draw per row");
        let (_, without) = sample(&entries, 3, false, &noise, 1);
        assert_eq!(without, (4 + 2) * 3, "w/o ANS: delays draws");
    }

    #[test]
    fn sharded_flush_matches_the_monolithic_path_bitwise() {
        // The per-row oracle on a monolithic history must agree per-row
        // with the flush for every shard count — same entries, same
        // noise, same counters.
        let rows = 40usize;
        let dim = 6usize;
        let iter = 9u64;
        let targets: Vec<u64> = vec![0, 3, 7, 8, 13, 21, 26, 34, 39];
        let flushed: &[(u64, u64)] = &[(3, 9), (8, 4), (21, 7)];
        let grad_rows: &[u64] = &[3, 7, 13, 30];
        let mk_update = || {
            let mut g = SparseGrad::new(dim);
            for &r in grad_rows {
                let e = g.push_zeros(r);
                e.fill(0.5 + r as f32);
            }
            let _ = g.coalesce();
            g
        };
        let mut noise = CounterNoise::new(17);

        // Reference path.
        let mut ref_hist = history_at(rows, flushed);
        let mut ref_update = mk_update();
        let mut ref_c = KernelCounters::new();
        oracle_flush(
            2,
            iter,
            &targets,
            &mut ref_hist,
            0.3,
            true,
            &mut noise,
            &mut ref_update,
            &mut ref_c,
        );
        let want = ref_update.to_dense_map();

        for shards in [1usize, 2, 4, 8] {
            let raw: Vec<u32> = (0..rows as u64)
                .map(|r| ref_flushed_at(flushed, r))
                .collect();
            let mut hist = ShardedHistory::from_raw_global(&raw, shards);
            let mut update = mk_update();
            let mut c = KernelCounters::new();
            let mut flush = LookaheadFlush::default();
            flush.run(
                2,
                iter,
                &targets,
                &mut hist,
                dim,
                0.3,
                true,
                &noise,
                &Executor::new(3),
                &mut c,
            );
            flush.merge_into(&mut update);
            let got = update.to_dense_map();
            assert_eq!(got.len(), want.len(), "{shards} shards");
            for (row, vals) in &want {
                assert_eq!(&got[row], vals, "row {row}, {shards} shards");
            }
            assert_eq!(c, ref_c, "counters, {shards} shards");
            // And the history state afterwards is identical too.
            for r in 0..rows as u64 {
                assert_eq!(hist.last_flushed(r), ref_hist.last_flushed(r));
            }
        }
    }

    fn ref_flushed_at(flushed: &[(u64, u64)], row: u64) -> u32 {
        flushed
            .iter()
            .find(|&&(r, _)| r == row)
            .map_or(0, |&(_, it)| u32::try_from(it).expect("fits"))
    }

    #[test]
    fn for_all_rows_of_shard_partitions_the_full_scan() {
        // Scanning every shard of a partitioned history must plan the
        // same (row, delays) set as one monolithic scan.
        let rows = 17usize;
        let flushed: &[(u64, u64)] = &[(1, 3), (8, 7), (16, 2)];
        let mut mono = history_at(rows, flushed);
        let mut c_mono = KernelCounters::new();
        let want =
            NoisePlan::for_all_rows_of_shard(7, ShardSpec::new(1), 0, &mut mono, &mut c_mono);
        let mut want_pairs: Vec<(u64, u64)> =
            want.entries().iter().map(|e| (e.row, e.delays)).collect();
        want_pairs.sort_unstable();

        let raw: Vec<u32> = (0..rows as u64)
            .map(|r| ref_flushed_at(flushed, r))
            .collect();
        let mut sharded = ShardedHistory::from_raw_global(&raw, 4);
        let spec = sharded.spec();
        let mut c_sh = KernelCounters::new();
        let mut got_pairs: Vec<(u64, u64)> = Vec::new();
        for (s, shard) in sharded.shards_mut().iter_mut().enumerate() {
            let plan = NoisePlan::for_all_rows_of_shard(7, spec, s, shard, &mut c_sh);
            got_pairs.extend(plan.entries().iter().map(|e| (e.row, e.delays)));
        }
        got_pairs.sort_unstable();
        assert_eq!(got_pairs, want_pairs);
        assert_eq!(c_sh, c_mono);
    }

    #[test]
    fn without_ans_draws_the_eager_iteration_noise() {
        // A row with 2 pending delays at iter 5 must receive exactly the
        // noise of iterations 4 and 5 — what eager DP-SGD would have
        // drawn.
        let entries = [NoisePlanEntry { row: 3, delays: 2 }];
        let mut noise = CounterNoise::new(5);
        let mut got = Vec::new();
        let _ = NoisePlan::sample_entries(
            1,
            5,
            &entries,
            4,
            1.0,
            false,
            &noise,
            &Executor::sequential(),
            &mut got,
        );
        let mut expect = vec![0.0f32; 4];
        let mut buf = vec![0.0f32; 4];
        for it in [4u64, 5] {
            noise.fill_unit(1, 3, it, &mut buf);
            for (e, &n) in expect.iter_mut().zip(buf.iter()) {
                *e += n;
            }
        }
        assert_eq!(got, expect);
    }
}
