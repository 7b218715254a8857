//! CRC-32 (IEEE 802.3 polynomial): the integrity check of log records,
//! segment page catalogs and status blocks.
//!
//! The log must detect torn writes: a record whose force did not complete
//! before a crash may be partially present on disk. Every record carries a
//! CRC over its header and payload; recovery treats a CRC mismatch as
//! end-of-log (§5.1.2). The same function checksums every segment page
//! against its catalog entry (see the `scrub` module) and guards each
//! status-block copy.
//!
//! Recovery and truncation checksum every page they verify and every
//! record they scan, so the kernel is slicing-by-16: sixteen 256-entry
//! tables fold sixteen input bytes per step instead of one, and a
//! bytewise loop finishes the tail. The values are those of the classic
//! one-table algorithm, which `tables[0]` alone still computes.

const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables, generated at compile time. `tables[0]` is the
/// classic bytewise table; `tables[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // The well-known check value for "123456789".
/// assert_eq!(rvm::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streams more data into a raw (not yet finalized) CRC state.
///
/// Start from `0xFFFF_FFFF`, feed chunks, and XOR with `0xFFFF_FFFF` to
/// finalize; [`crc32`] does all three for a single slice. Any split of
/// the input gives the same state.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The state folds into the first four bytes; every byte then
        // indexes the table for the distance to the block's end.
        let s = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        state = t[15][(s & 0xFF) as usize]
            ^ t[14][((s >> 8) & 0xFF) as usize]
            ^ t[13][((s >> 16) & 0xFF) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bitwise CRC-32, independent of the tables.
    fn reference_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    fn reference(data: &[u8]) -> u32 {
        reference_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"recoverable virtual memory";
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 512];
        let base = crc32(&data);
        for i in [0usize, 100, 511] {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} must change CRC");
            data[i] ^= 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 16 }))]

        /// Every length 0..=300 at all 16 alignments matches the bitwise
        /// reference, one-shot and streamed across a random split.
        #[test]
        fn slicing_matches_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 316..317),
            split_seed in any::<u64>()
        ) {
            for align in 0..16usize {
                for len in 0..=300usize {
                    let slice = &data[align..align + len];
                    let want = reference(slice);
                    prop_assert_eq!(crc32(slice), want, "align {} len {}", align, len);
                    let split = (split_seed as usize ^ (align * 301 + len)) % (len + 1);
                    let (a, b) = slice.split_at(split);
                    let streamed = crc32_update(crc32_update(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF;
                    prop_assert_eq!(streamed, want, "align {} len {} split {}", align, len, split);
                    prop_assert_eq!(
                        crc32_update(0x1234_5678, slice),
                        reference_update(0x1234_5678, slice),
                        "raw state, align {} len {}", align, len
                    );
                }
            }
        }
    }
}
