//! Pins the exact bits of the Gaussian kernel.
//!
//! The noise kernel computes in `f32` with in-repo polynomials built only
//! from IEEE-exact operations, written over lane arrays the compiler
//! vectorizes for whatever `target-cpu` the build uses. CI runs this
//! suite in builds for `x86-64`, `x86-64-v3` and `native`; the same
//! digests in all of them show the noise bits do not depend on the
//! instruction set.

use lazydp::fault::checksum::Fnv1a64;
use lazydp::rng::counter::{CounterNoise, RowNoise};
use lazydp::rng::{fill_standard_normal, Xoshiro256PlusPlus};

/// FNV-1a over the little-endian bit patterns of `xs`.
fn digest(xs: &[f32]) -> u64 {
    let mut h = Fnv1a64::new();
    for x in xs {
        h.update(&x.to_bits().to_le_bytes());
    }
    h.finish()
}

#[test]
fn fixed_seed_fill_has_pinned_bits() {
    let mut rng = Xoshiro256PlusPlus::seed_from(2024);
    let mut buf = vec![0.0f32; 100_000];
    fill_standard_normal(&mut rng, &mut buf);
    assert_eq!(
        digest(&buf),
        0xf2f758343dedbfe6,
        "fill_standard_normal bits changed"
    );
}

#[test]
fn counter_noise_row_has_pinned_bits() {
    // 131 elements: full lane blocks plus an odd pair tail.
    let mut noise = CounterNoise::new(7);
    let mut row = vec![0.0f32; 131];
    noise.fill_unit(3, 17, 5, &mut row);
    assert_eq!(
        digest(&row),
        0x75befeac2201066a,
        "CounterNoise row bits changed"
    );
}
