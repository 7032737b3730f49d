//! Box–Muller Gaussian sampling — the paper's noise-sampling kernel.
//!
//! PyTorch's `torch.normal()` (the kernel the paper characterizes in §4.3)
//! is a Box–Muller transform: per generated vector it executes an AVX
//! load, ~101 AVX trigonometric/logarithmic/other compute instructions,
//! and an AVX store, making it strongly *compute-bound* (Fig. 6: 215
//! GFLOPS effective, 81% of peak). This module exports the
//! instruction-count constants that `lazydp-sysmodel` uses to model that
//! kernel at paper scale, and implements the transform itself.
//!
//! # The kernel
//!
//! [`box_muller_f32`] converts one pair of raw `u64` draws in `f32`
//! with branch-free polynomial `ln` and `sincos(2πu)` (Cephes
//! single-precision coefficients), built only from IEEE-exact
//! operations: `+ − × ÷ sqrt`, integer ops and bit casts. There is no
//! libm call and no `mul_add`, and Rust never contracts `a * b + c`, so
//! each output is a pure function of its two draws. The bulk path
//! converts 16 pairs at a time over fixed-width lane arrays,
//! which LLVM vectorizes at whatever `target-cpu` the build picks.
//! Every lane runs the same correctly-rounded operations, so the bits
//! are identical at `x86-64`, `x86-64-v3` and `native`.
//!
//! Accuracy, against the f64 formula on the same quantized uniforms:
//! within `1e-5` absolute everywhere (pinned by the tests below). Two
//! details keep that bound at the ends of `u1`'s range:
//!
//! * `u1 = (⌊b1/2¹¹⌋ + 1)·2⁻⁵³` keeps its full 53-bit `(0, 1]`
//!   resolution (split into two exact `i32 → f32` conversions), so the
//!   smallest `u1 = 2⁻⁵³` still reaches the tail `|z| = 8.5717`.
//! * Near `u1 → 1`, where `u1` itself rounds in `f32`, `ln u1` is taken
//!   as `ln(1 − c)` with `c = 1 − u1` computed from the exact integer
//!   complement, so `r = √(−2 ln u1)` keeps its relative precision as
//!   `r → 0`.
//!
//! The angle only needs absolute precision, so `sincos` reads the top
//! 32 bits of `u2`'s draw (the 21 bits below move `θ` by less than
//! `2π·2⁻³²`). Uniform consumption is exactly two draws per pair, `u1`
//! first — the same stream positions as the f64 kernel this replaced.

use crate::prng::Prng;

/// AVX compute instructions Box–Muller spends per 8-wide vector of
/// outputs, as measured by the paper (§4.3: "101 AVX compute
/// instructions for trigonometric/logarithmic/other operations").
pub const BOX_MULLER_AVX_OPS_PER_VECTOR: u32 = 101;

/// Lanes per AVX vector for f32 (AVX2: 256-bit / 32-bit).
pub const AVX_F32_LANES: u32 = 8;

/// Compute cost of the *noisy gradient update* stream kernel per loaded
/// element: one multiply by the learning rate and one add into the weight
/// (§4.3: "requiring only two computations for each loaded data element").
pub const UPDATE_OPS_PER_ELEMENT: u32 = 2;

/// Box–Muller pairs the bulk path converts per block: one lane array of
/// `z0`s and one of `z1`s, from `2 × LANES` raw draws.
const LANES: usize = 16;

/// `2⁻²⁴`, exact in `f32`.
const TWO_POW_M24: f32 = 1.0 / 16_777_216.0;
/// `2⁻⁵³`, exact in `f32`.
const TWO_POW_M53: f32 = TWO_POW_M24 * TWO_POW_M24 * (1.0 / 32.0);
/// `ln 2 = LN2_HI + LN2_LO`, with `LN2_HI = 355/512` short enough that
/// `e·LN2_HI` is exact for every exponent `u1` can have.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `(π/2)·2⁻³⁰`: angle per unit of the in-quadrant offset `d`.
const HALF_PI_OVER_2_POW_30: f32 = std::f32::consts::FRAC_PI_2 / 1_073_741_824.0;

/// `ln(2ᵉ·(1 + f))` for `f ∈ [√½ − 1, √2 − 1]` and integer-valued `e`:
/// Cephes `logf`'s polynomial, with `ln 2` split so `e·LN2_HI` is
/// exact. Relative precision is kept as `f → 0`, which the `u1 → 1`
/// complement path relies on.
#[inline(always)]
fn ln_reduced(f: f32, e: f32) -> f32 {
    let z = f * f;
    let mut p = 7.037_683_6e-2_f32;
    p = p * f - 1.151_461e-1;
    p = p * f + 1.167_699_9e-1;
    p = p * f - 1.242_014_1e-1;
    p = p * f + 1.424_932_3e-1;
    p = p * f - 1.666_805_8e-1;
    p = p * f + 2.000_071_4e-1;
    p = p * f - 2.499_999_4e-1;
    p = p * f + 3.333_333e-1;
    let mut y = f * (z * p);
    y += e * LN2_LO;
    y += -0.5 * z;
    (f + y) + e * LN2_HI
}

/// `u1 = (⌊b1/2¹¹⌋ + 1)·2⁻⁵³ = hi·2⁻²⁴ + lo·2⁻⁵³` exactly, with
/// `hi < 2²⁴` and `1 ≤ lo ≤ 2²⁹`, so both parts convert through `i32`
/// (vectorizable everywhere).
#[inline(always)]
fn u1_parts(b1: u64) -> (i32, i32) {
    (
        (b1 >> 40) as i32,
        ((b1 >> 11) as u32 & 0x1fff_ffff) as i32 + 1,
    )
}

/// `r = √(−2 ln u1)` for `u1 = hi·2⁻²⁴ + lo·2⁻⁵³ ∈ (0, 1]` (see
/// [`u1_parts`]).
#[inline(always)]
fn radius(hi: i32, lo: i32) -> f32 {
    let u1 = hi as f32 * TWO_POW_M24 + lo as f32 * TWO_POW_M53;
    // c = 1 − u1 = (2²⁴ − 1 − hi)·2⁻²⁴ + (2²⁹ − lo)·2⁻⁵³, also exact.
    let c = (0x00ff_ffff - hi) as f32 * TWO_POW_M24 + (0x2000_0000 - lo) as f32 * TWO_POW_M53;
    // u1 = 2ᵉ·m with m ∈ [√½, √2).
    let bits = u1.to_bits();
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    let big = m > std::f32::consts::SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = (bits >> 23) as i32 - 127 + i32::from(big);
    // e = 0 ⇔ u1 ∈ [√½, 1]: there m − 1 = −c, but only c is exact.
    let f = if e == 0 { -c } else { m - 1.0 };
    (-2.0 * ln_reduced(f, e as f32)).sqrt()
}

/// `(cos 2πu2, sin 2πu2)` for `u2 = ⌊b2/2¹¹⌋·2⁻⁵³ ∈ [0, 1)`, from
/// `top = ⌊b2/2³²⌋`: `2πu2 = j·π/2 + φ` with `j` the nearest quadrant
/// and `|φ| ≤ π/4`, then Cephes `sinf`/`cosf` polynomials and a
/// quadrant swap/sign fix-up done on bits.
#[inline(always)]
fn sincos_2pi(top: u32) -> (f32, f32) {
    let s = top.wrapping_add(1 << 29);
    let j = s >> 30;
    let d = (s & 0x3fff_ffff) as i32 - (1 << 29);
    let phi = d as f32 * HALF_PI_OVER_2_POW_30;
    let z = phi * phi;
    let sin = ((-1.951_529_6e-4 * z + 8.332_161e-3) * z - 1.666_665_5e-1) * z * phi + phi;
    let cos = ((2.443_315_7e-5 * z - 1.388_731_6e-3) * z + 4.166_664_6e-2) * z * z - 0.5 * z + 1.0;
    let (c, s) = if j & 1 == 0 { (cos, sin) } else { (sin, cos) };
    // cos θ is negative in quadrants 1 and 2, sin θ in 2 and 3.
    let c = f32::from_bits(c.to_bits() ^ (((j + 1) & 2) << 30));
    let s = f32::from_bits(s.to_bits() ^ ((j & 2) << 30));
    (c, s)
}

/// The Box–Muller transform over two raw uniform draws: `b1` gives
/// `u1 = (⌊b1/2¹¹⌋ + 1)·2⁻⁵³ ∈ (0, 1]` and `b2` gives
/// `u2 = ⌊b2/2¹¹⌋·2⁻⁵³ ∈ [0, 1)` — the mappings of
/// [`Prng::next_f64_open`] and [`Prng::next_f64`] — and the result is
/// `(r·cos 2πu2, r·sin 2πu2)` with `r = √(−2 ln u1)`, in `f32` (see the
/// module docs for the accuracy bound).
///
/// This is the pair function of every Gaussian in the workspace; the
/// bulk fills run it 16 pairs at a time and are bitwise equal to
/// calling it pair by pair.
#[inline(always)]
#[must_use]
pub fn box_muller_f32(b1: u64, b2: u64) -> (f32, f32) {
    let (hi, lo) = u1_parts(b1);
    let r = radius(hi, lo);
    let (c, s) = sincos_2pi((b2 >> 32) as u32);
    (r * c, r * s)
}

/// `LANES` pairs at once: `u[2i], u[2i + 1]` → `(z0[i], z1[i])`, the
/// same operations as [`box_muller_f32`] in two passes over fixed-width
/// lane arrays: the 64-bit draws are split into 32-bit lanes first, so
/// the float pass is uniform 32-bit lane code that LLVM turns into full-
/// width SIMD without `unsafe` or target gates.
#[inline(always)]
fn box_muller_block(u: &[u64; 2 * LANES], z0: &mut [f32; LANES], z1: &mut [f32; LANES]) {
    let mut hi = [0i32; LANES];
    let mut lo = [0i32; LANES];
    let mut top = [0u32; LANES];
    for i in 0..LANES {
        (hi[i], lo[i]) = u1_parts(u[2 * i]);
        top[i] = (u[2 * i + 1] >> 32) as u32;
    }
    for i in 0..LANES {
        let r = radius(hi[i], lo[i]);
        let (c, s) = sincos_2pi(top[i]);
        z0[i] = r * c;
        z1[i] = r * s;
    }
}

/// The fused kernel every Gaussian consumer runs on: draws one standard
/// normal `z_j` per element of `out` from `rng` and calls
/// `f(j, &mut out[j], z_j)` for each, in order, as it is produced — so an
/// update like `w[j] −= a·z_j` never writes a noise buffer.
///
/// Full blocks of `2 × LANES` elements go through the lane-array kernel
/// (one [`Prng::fill_u64`] of `2 × LANES` draws each), and `f` runs over
/// the block's own slice, so a simple `f` vectorizes too; the remainder
/// goes pair by pair. Either way `z_{2i}` / `z_{2i+1}` is
/// [`box_muller_f32`] of draws `2i`, `2i + 1`, and exactly
/// `2·⌈len/2⌉` draws are consumed (an odd tail drops its `z1`), so the
/// stream position after the call is a function of `out.len()` alone —
/// a property the counter-based noise sources rely on.
#[inline]
pub fn apply_standard_normal<R: Prng>(
    rng: &mut R,
    out: &mut [f32],
    mut f: impl FnMut(usize, &mut f32, f32),
) {
    let mut u = [0u64; 2 * LANES];
    let mut z0 = [0.0f32; LANES];
    let mut z1 = [0.0f32; LANES];
    let mut blocks = out.chunks_exact_mut(2 * LANES);
    let mut j = 0;
    for block in &mut blocks {
        rng.fill_u64(&mut u);
        box_muller_block(&u, &mut z0, &mut z1);
        for (i, pair) in block.chunks_exact_mut(2).enumerate() {
            f(j + 2 * i, &mut pair[0], z0[i]);
            f(j + 2 * i + 1, &mut pair[1], z1[i]);
        }
        j += 2 * LANES;
    }
    for pair in blocks.into_remainder().chunks_mut(2) {
        let (a, b) = box_muller_f32(rng.next_u64(), rng.next_u64());
        f(j, &mut pair[0], a);
        if let Some(second) = pair.get_mut(1) {
            f(j + 1, second, b);
        }
        j += 2;
    }
}

/// Fills `out` with independent standard-normal `f32` samples using
/// Box–Muller over the supplied uniform generator (see
/// [`apply_standard_normal`]).
///
/// Consumes exactly `2 * ceil(out.len() / 2)` uniforms, so the stream
/// position after the call is a deterministic function of `out.len()` —
/// a property the counter-based noise sources rely on.
pub fn fill_standard_normal<R: Prng>(rng: &mut R, out: &mut [f32]) {
    apply_standard_normal(rng, out, |_, x, z| *x = z);
}

/// Number of Gaussian samples needed to noise a tensor of `elements`
/// elements — identical for all eager DP-SGD variants (every element of
/// every table gets one sample per iteration, paper §4.1).
#[inline]
#[must_use]
pub fn samples_for_elements(elements: u64) -> u64 {
    elements
}

/// A configured Gaussian sampler `N(mean, std²)`.
///
/// # Example
///
/// ```
/// use lazydp_rng::{GaussianSampler, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from(1);
/// let sampler = GaussianSampler::new(0.0, 2.0);
/// let mut noise = vec![0.0f32; 512];
/// sampler.fill(&mut rng, &mut noise);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSampler {
    mean: f32,
    std: f32,
}

impl GaussianSampler {
    /// Creates a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    #[must_use]
    pub fn new(mean: f32, std: f32) -> Self {
        assert!(
            std.is_finite() && std >= 0.0,
            "std must be finite and >= 0, got {std}"
        );
        Self { mean, std }
    }

    /// Standard normal `N(0, 1)`.
    #[must_use]
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f32 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std(&self) -> f32 {
        self.std
    }

    /// Fills `out` with samples in a single pass: the `mean + std·z`
    /// affine is applied as each sample is produced instead of in a
    /// second sweep over `out`. Bitwise identical to a two-pass fill
    /// (`fill_standard_normal` followed by an affine sweep), including
    /// the identity short-circuit for `N(0, 1)`, and consumes the same
    /// uniforms in the same order.
    pub fn fill<R: Prng>(&self, rng: &mut R, out: &mut [f32]) {
        if self.mean == 0.0 && self.std == 1.0 {
            // The affine would not be a bitwise no-op here (it maps the
            // rare exact `-0.0` sample to `+0.0`), so N(0,1) keeps the
            // raw path — exactly as a two-pass fill skips its scaling
            // sweep.
            fill_standard_normal(rng, out);
        } else {
            let (mean, std) = (self.mean, self.std);
            apply_standard_normal(rng, out, |_, x, z| *x = mean + std * z);
        }
    }

    /// Draws a single sample.
    pub fn sample<R: Prng>(&self, rng: &mut R) -> f32 {
        let (z, _) = box_muller_f32(rng.next_u64(), rng.next_u64());
        self.mean + self.std * z
    }

    /// Adds `scale * sample` to every element of `acc` — the fused
    /// "noisy gradient generation" primitive (Algorithm 1 line 34). No
    /// noise buffer is written: each sample lands in `acc` as it is
    /// produced.
    pub fn accumulate<R: Prng>(&self, rng: &mut R, scale: f32, acc: &mut [f32]) {
        let (mean, std) = (self.mean, self.std);
        apply_standard_normal(rng, acc, |_, a, z| *a += scale * (mean + std * z));
    }
}

impl Default for GaussianSampler {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{u64_to_unit_f64, u64_to_unit_f64_open, Xoshiro256PlusPlus};
    use crate::stats;

    /// The f64 Box–Muller formula with libm `ln`/`sqrt`/`cos`/`sin` — the
    /// accuracy oracle for [`box_muller_f32`]. `u1 ∈ (0, 1]`,
    /// `u2 ∈ [0, 1)`.
    fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }

    /// The oracle fed the same quantized uniforms the kernel reads.
    fn oracle(b1: u64, b2: u64) -> (f64, f64) {
        box_muller(u64_to_unit_f64_open(b1), u64_to_unit_f64(b2))
    }

    /// Largest absolute error of the kernel against the oracle over
    /// `pairs`, with the pair that attains it.
    fn max_error(pairs: impl Iterator<Item = (u64, u64)>) -> (f64, (u64, u64)) {
        let mut worst = (0.0f64, (0, 0));
        for (b1, b2) in pairs {
            let (z0, z1) = box_muller_f32(b1, b2);
            let (w0, w1) = oracle(b1, b2);
            let err = (f64::from(z0) - w0).abs().max((f64::from(z1) - w1).abs());
            assert!(err.is_finite(), "non-finite output at ({b1:#x}, {b2:#x})");
            if err > worst.0 {
                worst = (err, (b1, b2));
            }
        }
        worst
    }

    /// The raw `b1` whose `u1` is `(k + 1)·2⁻⁵³`.
    fn b1_for(k: u64) -> u64 {
        k << 11
    }

    #[test]
    fn kernel_known_values() {
        // u1 = 1 ⇒ r = 0 ⇒ both outputs zero regardless of u2.
        let (a, b) = box_muller_f32(u64::MAX, 1 << 62);
        assert!(a == 0.0 && b == 0.0, "({a}, {b})");
        // u2 = 0 ⇒ θ = 0 ⇒ z1 = 0, z0 = r.
        let half = b1_for((1 << 52) - 1); // u1 = 0.5
        let (z0, z1) = box_muller_f32(half, 0);
        assert!((f64::from(z0) - (-2.0 * 0.5_f64.ln()).sqrt()).abs() < 1e-6);
        assert_eq!(z1, 0.0);
    }

    #[test]
    fn kernel_is_within_1e_5_of_the_f64_formula() {
        // ≥ 10⁶ random pairs ...
        let mut rng = Xoshiro256PlusPlus::seed_from(0x5eed);
        let random = (0..1_000_000).map(|_| (rng.next_u64(), rng.next_u64()));
        let (err, at) = max_error(random);
        assert!(err < 1e-5, "random pairs: error {err:e} at {at:#x?}");
        // ... and the edges: u1 ∈ {2⁻⁵³, 1 − 2⁻⁵³, 1} plus the √½ switch
        // of the log reduction, against u2 at every quadrant and octant
        // boundary (± one draw quantum) and at its maximum.
        let sqrt_half = (std::f64::consts::FRAC_1_SQRT_2 * (1u64 << 53) as f64) as u64;
        let u1s = [
            b1_for(0),
            b1_for(1),
            b1_for((1 << 53) - 2),
            b1_for((1 << 53) - 3),
            u64::MAX,
            b1_for(sqrt_half - 1),
            b1_for(sqrt_half),
            b1_for(sqrt_half + 1),
            b1_for((1 << 52) - 1),
        ];
        let mut u2s = vec![0u64, 1 << 11, u64::MAX];
        for k in 1..8u64 {
            let at = k << 61;
            u2s.extend([at - (1 << 11), at, at + (1 << 11)]);
        }
        let edges = u1s
            .iter()
            .flat_map(|&b1| u2s.iter().map(move |&b2| (b1, b2)));
        let (err, at) = max_error(edges);
        assert!(err < 1e-5, "edges: error {err:e} at {at:#x?}");
    }

    #[test]
    fn smallest_u1_reaches_the_tail() {
        let (z0, z1) = box_muller_f32(0, 0);
        let tail = (-2.0 * (2.0f64).powi(-53).ln()).sqrt();
        assert!((tail - 8.5717).abs() < 1e-4, "oracle tail {tail}");
        assert!((f64::from(z0) - tail).abs() < 1e-5, "z0 {z0} vs {tail}");
        assert_eq!(z1, 0.0);
    }

    #[test]
    fn standard_normal_moments_and_ks() {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let mut buf = vec![0.0f32; 1_000_000];
        fill_standard_normal(&mut rng, &mut buf);
        let mut xs: Vec<f64> = buf.iter().map(|&x| f64::from(x)).collect();
        let (mean, var) = stats::mean_var(&xs);
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        let skew = stats::skewness(&xs);
        assert!(skew.abs() < 0.015, "skewness {skew}");
        let kurt = stats::excess_kurtosis(&xs);
        assert!(kurt.abs() < 0.03, "excess kurtosis {kurt}");
        let ks = stats::ks_statistic_normal(&mut xs, 0.0, 1.0);
        assert!(ks < stats::ks_critical(xs.len(), 0.001), "ks {ks}");
    }

    /// Pair-at-a-time reference: one [`box_muller_f32`] per two draws,
    /// then a separate mean/std sweep.
    fn two_pass_fill<R: Prng>(sampler: &GaussianSampler, rng: &mut R, out: &mut [f32]) {
        for pair in out.chunks_mut(2) {
            let (z0, z1) = box_muller_f32(rng.next_u64(), rng.next_u64());
            pair[0] = z0;
            if let Some(second) = pair.get_mut(1) {
                *second = z1;
            }
        }
        if sampler.mean() != 0.0 || sampler.std() != 1.0 {
            for x in out {
                *x = sampler.mean() + sampler.std() * *x;
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_path_is_bitwise_the_pair_at_a_time_path() {
        // Every length class around the block size (and a few blocks
        // further out): the lane-array path and the pair tail must give
        // the bits of one box_muller_f32 per pair, and leave the stream
        // at the same position.
        let block = 2 * LANES;
        let lens = (0..=3 * block + 1).chain([8 * block - 1, 8 * block, 8 * block + 1, 1023]);
        let identity = GaussianSampler::standard();
        for len in lens {
            let mut rng_new = Xoshiro256PlusPlus::seed_from(900 + len as u64);
            let mut rng_ref = rng_new;
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];
            fill_standard_normal(&mut rng_new, &mut got);
            two_pass_fill(&identity, &mut rng_ref, &mut want);
            assert_eq!(bits(&got), bits(&want), "len {len}");
            assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "len {len}");
        }
    }

    #[test]
    fn single_pass_fill_is_bitwise_the_two_pass_fill() {
        // Folding the affine into the conversion loop (and batching the
        // uniform draws) must change neither a single output bit nor the
        // PRNG stream position — for every parity/length class around
        // the block size and for identity and non-identity affines.
        for &(mean, std) in &[(0.0f32, 1.0f32), (3.0, 0.5), (-1.25, 2.0), (0.0, 0.125)] {
            let sampler = GaussianSampler::new(mean, std);
            for len in [0usize, 1, 2, 5, 15, 16, 17, 63, 64, 65, 128, 1023] {
                let mut rng_new = Xoshiro256PlusPlus::seed_from(42 + len as u64);
                let mut rng_ref = Xoshiro256PlusPlus::seed_from(42 + len as u64);
                let mut got = vec![0.0f32; len];
                let mut want = vec![0.0f32; len];
                sampler.fill(&mut rng_new, &mut got);
                two_pass_fill(&sampler, &mut rng_ref, &mut want);
                assert_eq!(bits(&got), bits(&want), "mean {mean} std {std} len {len}");
                assert_eq!(
                    rng_new.next_u64(),
                    rng_ref.next_u64(),
                    "stream position moved (mean {mean} std {std} len {len})"
                );
            }
        }
    }

    #[test]
    fn counter_stream_fill_unit_is_bitwise_stable_under_batching() {
        // fill_unit paths run the same blocked kernel over a counter
        // stream; the values must equal a pair-at-a-time conversion of
        // the same counters.
        use crate::counter::{CounterNoise, RowNoise};
        let noise = CounterNoise::new(99);
        let mut got = vec![0.0f32; 129];
        let mut n = noise;
        n.fill_unit(3, 17, 5, &mut got);
        let mut stream = noise.stream_for(3, 17, 5);
        for (i, pair) in got.chunks(2).enumerate() {
            let (z0, z1) = box_muller_f32(stream.next_u64(), stream.next_u64());
            assert_eq!(pair[0].to_bits(), z0.to_bits(), "element {}", 2 * i);
            if let Some(&second) = pair.get(1) {
                assert_eq!(second.to_bits(), z1.to_bits(), "element {}", 2 * i + 1);
            }
        }
    }

    #[test]
    fn odd_length_fill_consumes_deterministic_uniforms() {
        let mut a = Xoshiro256PlusPlus::seed_from(3);
        let mut b = Xoshiro256PlusPlus::seed_from(3);
        let mut buf = vec![0.0f32; 5];
        fill_standard_normal(&mut a, &mut buf);
        // 5 outputs -> 3 Box-Muller invocations -> 6 uniforms.
        for _ in 0..6 {
            let _ = b.next_f64();
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn sampler_scales_mean_and_std() {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let sampler = GaussianSampler::new(3.0, 0.5);
        let mut buf = vec![0.0f32; 50_000];
        sampler.fill(&mut rng, &mut buf);
        let xs: Vec<f64> = buf.iter().map(|&x| f64::from(x)).collect();
        let (mean, var) = stats::mean_var(&xs);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "var {var}");
    }

    #[test]
    fn accumulate_adds_scaled_noise() {
        let mut rng_a = Xoshiro256PlusPlus::seed_from(4);
        let mut rng_b = Xoshiro256PlusPlus::seed_from(4);
        let sampler = GaussianSampler::new(0.0, 2.0);
        let mut acc = vec![10.0f32; 41];
        sampler.accumulate(&mut rng_a, 0.5, &mut acc);
        let mut reference = vec![0.0f32; 41];
        sampler.fill(&mut rng_b, &mut reference);
        for (a, r) in acc.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), (10.0 + 0.5 * r).to_bits());
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    #[should_panic(expected = "std must be finite")]
    fn sampler_rejects_negative_std() {
        let _ = GaussianSampler::new(0.0, -1.0);
    }

    #[test]
    fn sum_of_gaussians_matches_aggregated_distribution() {
        // Theorem 5.1 of the paper at the sampler level: the sum of n
        // independent N(0, σ²) draws has the distribution N(0, n·σ²).
        let n = 16usize;
        let sigma = 0.7f32;
        let mut rng = Xoshiro256PlusPlus::seed_from(31);
        let per_step = GaussianSampler::new(0.0, sigma);
        let mut sums: Vec<f64> = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            let mut acc = 0.0f64;
            for _ in 0..n {
                acc += f64::from(per_step.sample(&mut rng));
            }
            sums.push(acc);
        }
        let (mean, var) = stats::mean_var(&sums);
        let expect_var = f64::from(sigma) * f64::from(sigma) * n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!(
            (var - expect_var).abs() / expect_var < 0.05,
            "var {var} vs {expect_var}"
        );
        let ks = stats::ks_statistic_normal(&mut sums, 0.0, expect_var.sqrt());
        assert!(ks < stats::ks_critical(sums.len(), 0.001), "ks {ks}");
    }
}
