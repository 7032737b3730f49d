//! Integrity checksums: the word-wide [`word_fnv64`] shared by the spill
//! file's per-page trailers (`lazydp_store`) and the checkpoint
//! payload/manifest (`lazydp_core`), and the byte-serial [`Fnv1a64`]
//! kept for digests that are pinned in tests.
//!
//! Neither is cryptographic; the threat model here is torn writes and
//! bit rot, not an adversary forging pages. Both are defined over the
//! little-endian byte stream their users already emit, so they are
//! byte-order independent and dependency-free.
//!
//! The checksum is not free next to the I/O it guards. A spill-page
//! miss reads 16 KiB, usually from the OS page cache, in a few
//! microseconds, while byte-serial FNV-1a over the same page takes about
//! 30 µs on a 2-vCPU x86-64 VM — it was most of a miss's cost.
//! [`word_fnv64`] takes the same page in about 4 µs: it consumes a
//! 64-bit word per multiply instead of a byte, and runs four independent
//! lanes so the multiplies overlap.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Lanes of [`word_fnv64`]; one block is `LANES` little-endian words.
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

/// FNV-style checksum over little-endian `u64` words in four lanes.
///
/// Word `i` goes to lane `i % 4` as `h = (h ^ w) · FNV_PRIME`; a final
/// partial word is zero-padded. The lanes and the byte length are then
/// folded into one value with the same step. Each step is a bijection of
/// the lane state (xor with a word, then multiply by an odd constant),
/// so changing any one word always changes the result — the property
/// torn-page and bit-rot detection needs. Folding in the length keeps
/// the zero padding from hiding a truncated tail.
#[must_use]
pub fn word_fnv64(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8-byte word"));
            *lane = step(*lane, w);
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        *lane = step(*lane, u64::from_le_bytes(w));
    }
    lanes
        .iter()
        .fold(step(FNV_OFFSET, bytes.len() as u64), |h, &lane| {
            step(h, lane)
        })
}

/// Incremental byte-serial FNV-1a 64, for hashing a stream while it is
/// written/read.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The digest so far (the hasher remains usable).
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a64::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn single_byte_flips_change_the_digest() {
        let base = fnv1a64(&[0u8; 64]);
        for i in 0..64 {
            let mut buf = [0u8; 64];
            buf[i] = 1;
            assert_ne!(fnv1a64(&buf), base, "flip at {i} must be detected");
        }
    }

    /// A 16 KiB page of varied bytes.
    fn page() -> Vec<u8> {
        (0..16 * 1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn word_checksum_detects_every_single_word_flip_of_a_page() {
        let mut page = page();
        let base = word_fnv64(&page);
        for w in 0..page.len() / 8 {
            for flip in [1u64, 1 << 63, u64::MAX] {
                let word = &mut page[8 * w..8 * w + 8];
                let orig = u64::from_le_bytes(word.try_into().unwrap());
                word.copy_from_slice(&(orig ^ flip).to_le_bytes());
                assert_ne!(word_fnv64(&page), base, "word {w} ^ {flip:#x} undetected");
                page[8 * w..8 * w + 8].copy_from_slice(&orig.to_le_bytes());
            }
        }
        assert_eq!(word_fnv64(&page), base, "the page was restored");
    }

    #[test]
    fn word_checksum_sees_tail_bytes_and_length() {
        // Lengths that end mid-block and mid-word.
        for len in [0usize, 1, 4, 7, 8, 9, 31, 33, 61] {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) | 1).collect();
            let base = word_fnv64(&bytes);
            for i in 0..len {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0x80;
                assert_ne!(word_fnv64(&flipped), base, "len {len}: byte {i}");
            }
            // Zero padding of the last word must not make a
            // zero-extended stream collide with the original.
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(word_fnv64(&longer), base, "len {len}: trailing zero");
        }
    }

    #[test]
    fn word_checksum_of_zeros_is_not_the_never_written_sentinel() {
        // The spill file reads a zero trailer over zero data as "never
        // written"; a written zero page must carry a real checksum.
        for len in [4usize, 8, 64, 16 * 1024] {
            assert_ne!(word_fnv64(&vec![0u8; len]), 0, "len {len}");
        }
    }
}
