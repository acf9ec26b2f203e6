//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum framing every WAL record and the checkpoint trailer.
//!
//! Implemented in-repo because the workspace is dependency-free by
//! design. The parameters match zlib's `crc32`, so `cksum`-style
//! external tooling can verify store files if ever needed.
//!
//! The loop is *slicing-by-16*: sixteen 256-entry tables, all built at
//! compile time, fold sixteen input bytes per step with sixteen
//! independent lookups instead of a chain of sixteen dependent ones.
//! Table `k` maps a byte to its CRC contribution when `k` more zero
//! bytes follow it, so XOR-ing the sixteen lookups of one 16-byte
//! block equals sixteen steps of the byte-at-a-time loop. The tail
//! (under 16 bytes) runs byte at a time through table 0. Every value is
//! the byte-at-a-time CRC's, so no stored checksum changes; a
//! differential test holds the two equal.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of the main loop.
const SLICES: usize = 16;

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
    while k < SLICES {
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

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// The CRC-32 of `bytes` (zlib-compatible).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_continue(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `prev = crc32(a)`: a checksum
/// carried across pieces written one after another, without joining
/// them. `crc32_continue(0, bytes)` is `crc32(bytes)`.
pub(crate) fn crc32_continue(prev: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !prev;
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        let word = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        let a = word(0) ^ crc;
        let (b, c, d) = (word(4), word(8), word(12));
        // Byte j of the block is followed by 15 - j more: table 15 - j.
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the slicing loop replaced, with its own
    /// table: the reference the differential tests hold it to.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        const fn make_table() -> [u32; 256] {
            let mut table = [0u32; 256];
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
                table[i] = crc;
                i += 1;
            }
            table
        }
        static TABLE: [u32; 256] = make_table();
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// xorshift64*: deterministic test bytes without a dependency.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slicing_equals_the_byte_at_a_time_crc_at_every_length_and_alignment() {
        let buf = noise(16 + 80, 0x5EED);
        for start in 0..16 {
            for len in 0..=80 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn slicing_equals_the_byte_at_a_time_crc_on_random_buffers() {
        let mut state = 0xC0FF_EE00_D15E_A5E5u64;
        for round in 0..24 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let len = (state >> 40) as usize % (256 << 10) + 1;
            let bytes = noise(len, state | 1);
            assert_eq!(
                crc32(&bytes),
                reference_crc32(&bytes),
                "round {round} len {len}"
            );
        }
        let full = noise(256 << 10, 7);
        assert_eq!(crc32(&full), reference_crc32(&full), "256 KiB");
        let zeros = vec![0u8; 256 << 10];
        assert_eq!(crc32(&zeros), reference_crc32(&zeros), "256 KiB of zeros");
    }

    #[test]
    fn a_continued_crc_equals_the_crc_of_the_concatenation() {
        let buf = noise(3 * 64 + 40, 0xC0DE);
        let want = reference_crc32(&buf);
        for split in 0..buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32_continue(crc32(a), b), want, "split at {split}");
        }
        // Three pieces, including empty ones, as the checkpoint writes.
        for (i, j) in [(0, 0), (5, 5), (17, 200), (64, 232), (232, 232)] {
            let crc = crc32_continue(crc32_continue(crc32(&buf[..i]), &buf[i..j]), &buf[j..]);
            assert_eq!(crc, want, "pieces at {i}, {j}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"the quick brown fox");
        let mut bytes = b"the quick brown fox".to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), base, "flip at byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
