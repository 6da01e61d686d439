//! In-crate snapshot checksums (the environment is offline — no new deps).
//!
//! The snapshot integrity layer uses a word-wise FNV-1a variant: the
//! classic 64-bit FNV-1a step `h ← (h ⊕ w)·P mod 2^64`, absorbing one
//! little-endian `u64` per step instead of one byte. Two shapes of it are
//! in use:
//!
//! * [`fnv1a_words`] / [`fnv1a_bytes`] run one dependency chain over the
//!   input. The header checksum (word 47 over header words 0..=46) is this
//!   single chain.
//! * [`fnv1a_lanes_words`] / [`fnv1a_lanes_bytes`] run [`LANES`]
//!   independent chains: word `i` of the input feeds lane `i mod LANES`,
//!   every lane starting from the offset basis, and the lane digests are
//!   then folded, lane 0 first, by one more single-chain word-wise FNV-1a.
//!   Each section checksum (header words 24..=36, since format v4) is this
//!   lane checksum. A single chain waits out one multiply latency per word;
//!   sixteen independent chains keep the multiplier busy, so the checksum
//!   runs at memory speed rather than multiply-latency speed.
//!
//! **Detection guarantee.** With `P` odd, the step is injective in `h` for
//! fixed `w` (xor with `w` is a bijection and multiplication by an odd
//! number is a bijection mod `2^64`) and injective in `w` for fixed `h`.
//! Within one lane, changing one input word therefore changes the state
//! right after that step, and every later step maps distinct states to
//! distinct states, so the lane digest changes. The fold is the same chain
//! over the lane digests, so by the same argument it is injective in each
//! lane digest with the others fixed. Hence any change confined to one word — every
//! single-bit flip — changes the lane checksum, exactly as it changes the
//! single chain. Changes to two or more words can still collide, as they
//! can for the single chain.
//!
//! The digest is *not* cryptographic — it defends against truncation, bit
//! rot, and torn transfers, not an adversary crafting collisions.

/// The 64-bit FNV offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent chains of the lane checksum: word `i` feeds lane
/// `i mod LANES`.
pub const LANES: usize = 16;

/// One word-wise FNV-1a step.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Decodes a chunk of at most 8 bytes as a little-endian word, zero-padding
/// a short one.
#[inline]
fn padded_word(chunk: &[u8]) -> u64 {
    let mut pad = [0u8; 8];
    pad[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(pad)
}

/// Word-wise FNV-1a over a `u64` slice.
#[inline]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &w| step(h, w))
}

/// Word-wise FNV-1a over a byte buffer, decoding 8-byte little-endian
/// chunks; a trailing partial chunk (never produced by the serializer, but
/// tolerated) is zero-padded.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        h = step(h, padded_word(rem));
    }
    h
}

/// The [`LANES`]-lane word-wise FNV-1a over a `u64` slice (see the module
/// docs for the lane layout and its detection guarantee).
pub fn fnv1a_lanes_words(words: &[u64]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    for block in words.chunks(LANES) {
        for (h, &w) in lanes.iter_mut().zip(block) {
            *h = step(*h, w);
        }
    }
    fnv1a_words(&lanes)
}

/// [`fnv1a_lanes_words`] over a byte buffer, decoding 8-byte little-endian
/// chunks; a trailing partial chunk (never produced by the serializer, but
/// tolerated) is zero-padded and feeds the lane its word index names.
pub fn fnv1a_lanes_bytes(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(LANES * 8);
    for block in &mut blocks {
        for (h, c) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *h = step(*h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
    }
    // Fewer than LANES words remain, the last possibly partial.
    for (h, c) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *h = step(*h, padded_word(c));
    }
    fnv1a_words(&lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Deterministic, well-mixed test words (a SplitMix64 stream).
    fn mixed_words(len: usize) -> Vec<u64> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn words_and_bytes_agree_on_aligned_input() {
        let words = [0u64, 1, u64::MAX, 0xdead_beef, 42];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(fnv1a_words(&words), fnv1a_bytes(&bytes));
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
        assert_eq!(fnv1a_bytes(&[]), FNV_OFFSET);
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut bytes: Vec<u8> = (0u8..64).collect();
        let clean = fnv1a_bytes(&bytes);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                assert_ne!(fnv1a_bytes(&bytes), clean, "flip {byte}:{bit} undetected");
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(fnv1a_bytes(&bytes), clean, "flips must have been restored");
    }

    #[test]
    fn digest_is_position_sensitive() {
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_ne!(fnv1a_words(&[0, 0]), fnv1a_words(&[0]));
    }

    #[test]
    fn trailing_partial_chunk_is_absorbed() {
        let full = fnv1a_bytes(&[7u8; 8]);
        let partial = fnv1a_bytes(&[7u8; 5]);
        assert_ne!(full, partial);
        assert_ne!(partial, FNV_OFFSET);
    }

    #[test]
    fn every_single_bit_flip_changes_the_lane_digest() {
        // Two full 16-word blocks plus a 5-word remainder: every lane runs
        // at least two steps and lanes 0..5 run a third.
        let mut bytes = le_bytes(&mixed_words(2 * LANES + 5));
        let clean = fnv1a_lanes_bytes(&bytes);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                assert_ne!(
                    fnv1a_lanes_bytes(&bytes),
                    clean,
                    "flip {byte}:{bit} undetected"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(fnv1a_lanes_bytes(&bytes), clean, "flips must be restored");
    }

    #[test]
    fn lane_words_and_bytes_agree_at_every_length() {
        let words = mixed_words(3 * LANES);
        for len in 0..=words.len() {
            assert_eq!(
                fnv1a_lanes_words(&words[..len]),
                fnv1a_lanes_bytes(&le_bytes(&words[..len])),
                "length {len} words"
            );
        }
    }

    #[test]
    fn lane_digest_is_pinned() {
        // Every stored v4 snapshot carries this function's output: a change
        // to it makes them all unreadable, so it must fail here first.
        let words: Vec<u64> = (0..2 * LANES as u64 + 5).collect();
        assert_eq!(fnv1a_lanes_words(&words), 0x8148_d16f_2b2d_cd1b);
        assert_eq!(fnv1a_lanes_words(&[]), fnv1a_words(&[FNV_OFFSET; LANES]));
    }

    #[test]
    fn lane_digest_is_position_sensitive() {
        let words = mixed_words(2 * LANES + 5);
        let clean = fnv1a_lanes_words(&words);
        // Swaps across lanes, within one lane, and into the remainder.
        for (a, b) in [
            (0, 1),
            (0, LANES),
            (3, 2 * LANES + 3),
            (LANES - 1, 2 * LANES),
        ] {
            let mut swapped = words.clone();
            swapped.swap(a, b);
            assert_ne!(fnv1a_lanes_words(&swapped), clean, "swap {a}<->{b}");
        }
        assert_ne!(fnv1a_lanes_words(&[0, 0]), fnv1a_lanes_words(&[0]));
    }

    #[test]
    fn trailing_partial_chunk_feeds_the_next_lane() {
        let bytes = le_bytes(&mixed_words(LANES + 2));
        let cut = &bytes[..bytes.len() - 3];
        let mut padded = cut.to_vec();
        padded.extend_from_slice(&[0; 3]);
        assert_eq!(fnv1a_lanes_bytes(cut), fnv1a_lanes_bytes(&padded));
        assert_ne!(fnv1a_lanes_bytes(cut), fnv1a_lanes_bytes(&bytes));
    }
}
