//! Multi-threaded Gaussian sampling.
//!
//! The paper's optimized baseline uses Intel TBB/OpenMP to spread the
//! Box–Muller kernel across the Xeon's 20 cores (§6: "thread-level
//! parallelism (multi-threading), achieving 13.4× higher performance
//! than the built-in PyTorch implementations"). This module is the Rust
//! equivalent: thin wrappers over the [`lazydp_exec::Executor`], where
//! each fixed-size chunk draws from an independent counter-derived
//! stream. Chunk boundaries depend only on the buffer length — never on
//! the thread count — so the output is a pure function of the seed:
//! bitwise identical for any number of workers (DESIGN.md invariant #4).

use crate::counter::{CounterRng, RowNoise};
use crate::gaussian;
use lazydp_exec::Executor;

/// Elements per chunk-addressed sub-stream. Fixed (never derived from
/// the thread count) so the output is thread-count independent; large
/// enough that a chunk amortizes a worker dispatch.
const FILL_CHUNK: usize = 8192;

/// Fills `out` with standard-normal samples using `threads` worker
/// threads. Chunk `i` is always generated from the sub-stream
/// `derive(i)`, so the output depends only on `seed` — the same bits
/// for any `threads`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn par_fill_standard_normal(seed: u64, out: &mut [f32], threads: usize) {
    let root = CounterRng::new(seed ^ 0x9d39_247e_3377_6d41);
    Executor::new(threads).par_for(out, FILL_CHUNK, |i, piece| {
        let mut stream = root.derive(i as u64).stream(0);
        gaussian::fill_standard_normal(&mut stream, piece);
    });
}

/// Parallel version of the fused noisy accumulate: `acc[j] += scale·n_j`
/// with `n ~ N(0, 1)`, chunked as in [`par_fill_standard_normal`] (and
/// equally thread-count independent). Each sample is added as it is
/// produced, so no chunk allocates a noise buffer.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn par_accumulate_noise(seed: u64, scale: f32, acc: &mut [f32], threads: usize) {
    let root = CounterRng::new(seed ^ 0x243f_6a88_85a3_08d3);
    Executor::new(threads).par_for(acc, FILL_CHUNK, |i, piece| {
        let mut stream = root.derive(i as u64).stream(0);
        gaussian::apply_standard_normal(&mut stream, piece, |_, a, n| *a += scale * n);
    });
}

/// Elements per chunk of a dense (non-embedding) noise region: chunk
/// `c` of a region at element offset `offset` draws the
/// `(param, iter, offset + c·DENSE_NOISE_CHUNK)` stream. Fixed, never
/// derived from the thread count.
pub const DENSE_NOISE_CHUNK: usize = 16_384;

/// Applies the unit noise of dense parameter region `param` at
/// iteration `iter` to `xs`, fused: `f(&mut xs[j], n_j)` runs as each
/// sample is produced, so no noise buffer exists. `xs[0]` sits at
/// element `offset` of the region.
///
/// `xs` is cut into [`DENSE_NOISE_CHUNK`]-element chunks, each drawn from
/// its own `(param, iter, offset)` address through
/// [`RowNoise::apply_unit_dense`] on a clone of `noise`, over an
/// [`Executor`] of `threads` workers (inline at one). A chunk's noise is
/// a pure function of its address, so the result is the same for any
/// `threads`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn par_apply_dense_noise<N: RowNoise>(
    noise: &N,
    param: u32,
    iter: u64,
    offset: u64,
    xs: &mut [f32],
    threads: usize,
    f: impl Fn(&mut f32, f32) + Sync,
) {
    Executor::new(threads).par_for(xs, DENSE_NOISE_CHUNK, |c, piece| {
        let at = offset + (c * DENSE_NOISE_CHUNK) as u64;
        noise
            .clone()
            .apply_unit_dense(param, iter, at, piece, |_, x, n| f(x, n));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn deterministic_given_seed_and_threads() {
        let mut a = vec![0.0f32; 10_000];
        let mut b = vec![0.0f32; 10_000];
        par_fill_standard_normal(42, &mut a, 4);
        par_fill_standard_normal(42, &mut b, 4);
        assert_eq!(a, b);
        let mut c = vec![0.0f32; 10_000];
        par_fill_standard_normal(43, &mut c, 4);
        assert_ne!(a, c, "seed-sensitive");
    }

    #[test]
    fn output_is_bitwise_identical_across_thread_counts() {
        let mut base = vec![0.0f32; 50_000];
        par_fill_standard_normal(9, &mut base, 1);
        for threads in [2usize, 3, 5, 16] {
            let mut buf = vec![0.0f32; 50_000];
            par_fill_standard_normal(9, &mut buf, threads);
            assert_eq!(base, buf, "thread count {threads} changed the fill");
        }
        let mut acc_base = vec![1.0f32; 50_000];
        par_accumulate_noise(9, 0.5, &mut acc_base, 1);
        for threads in [2usize, 3, 5, 16] {
            let mut acc = vec![1.0f32; 50_000];
            par_accumulate_noise(9, 0.5, &mut acc, threads);
            assert_eq!(
                acc_base, acc,
                "thread count {threads} changed the accumulate"
            );
        }
    }

    #[test]
    fn chunks_are_independent_standard_normals() {
        let mut buf = vec![0.0f32; 200_000];
        par_fill_standard_normal(7, &mut buf, 4);
        let mut xs: Vec<f64> = buf.iter().map(|&x| f64::from(x)).collect();
        let (mean, var) = stats::mean_var(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        let ks = stats::ks_statistic_normal(&mut xs, 0.0, 1.0);
        assert!(ks < stats::ks_critical(xs.len(), 0.001), "ks {ks}");
        // Cross-chunk correlation check: chunk boundaries must not
        // repeat values.
        assert_ne!(buf[FILL_CHUNK - 1], buf[FILL_CHUNK]);
    }

    #[test]
    fn small_buffers_take_sequential_path() {
        let mut a = vec![0.0f32; 100];
        par_fill_standard_normal(1, &mut a, 8);
        assert!(a.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn accumulate_adds_scaled_noise_deterministically() {
        let mut acc1 = vec![1.0f32; 9_000];
        let mut acc2 = vec![1.0f32; 9_000];
        par_accumulate_noise(5, 0.5, &mut acc1, 3);
        par_accumulate_noise(5, 0.5, &mut acc2, 3);
        assert_eq!(acc1, acc2);
        let moved = acc1.iter().filter(|&&x| (x - 1.0).abs() > 1e-9).count();
        assert!(moved > 8_000, "noise must land nearly everywhere");
        let xs: Vec<f64> = acc1.iter().map(|&x| f64::from(x) - 1.0).collect();
        let (_, var) = stats::mean_var(&xs);
        assert!((var - 0.25).abs() < 0.02, "var {var} ≈ scale²");
    }

    #[test]
    fn dense_noise_chunks_are_addressed_and_thread_count_independent() {
        use crate::counter::CounterNoise;
        let len = 3 * DENSE_NOISE_CHUNK + 77;
        let apply = |threads: usize| {
            let mut xs = vec![1.0f32; len];
            let noise = CounterNoise::new(4);
            par_apply_dense_noise(&noise, 2, 9, 5, &mut xs, threads, |x, n| {
                *x -= 0.5 * n;
            });
            xs
        };
        let base = apply(1);
        for threads in [2usize, 5] {
            assert_eq!(
                base,
                apply(threads),
                "thread count {threads} changed the noise"
            );
        }
        // Chunk c is the (param, iter, offset + c·DENSE_NOISE_CHUNK) draw.
        let mut noise = CounterNoise::new(4);
        for (c, got) in base.chunks(DENSE_NOISE_CHUNK).enumerate() {
            let mut unit = vec![0.0f32; got.len()];
            noise.fill_unit_dense(2, 9, 5 + (c * DENSE_NOISE_CHUNK) as u64, &mut unit);
            for (g, n) in got.iter().zip(&unit) {
                assert_eq!(g.to_bits(), (1.0 - 0.5 * n).to_bits(), "chunk {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut a = vec![0.0f32; 8];
        par_fill_standard_normal(1, &mut a, 0);
    }
}
