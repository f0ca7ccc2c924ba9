//! ROHC CRCs (RFC 3095 §5.9.1–5.9.2): CRC-3, CRC-7 and CRC-8 over
//! arbitrary byte strings.
//!
//! ROHC validates decompressed headers with small CRCs computed over the
//! *original* uncompressed header: CRC-8 for IR packets, CRC-7/CRC-3 for
//! compressed (CO) packets. Our HACK profile uses CRC-3 per compressed
//! ACK (folded into the flags octet) exactly as ROHC CO packets do.
//!
//! Polynomials (RFC 3095):
//! * CRC-3: x³ + x + 1, initial value 0b111
//! * CRC-7: x⁷ + x⁶ + x³ + x² + x + 1, initial value 0x7F
//! * CRC-8: x⁸ + x² + x + 1, initial value 0xFF
//!
//! Bits are processed LSB-first, as specified.
//!
//! [`crc3`] takes bytes. The compressor and decompressor never write a
//! header out for it: the crate's `fold` module computes a header's
//! CRC-3 from its fields and finishes it with the same seven lookups.

fn crc_generic(data: &[u8], width: u8, poly: u8, init: u8) -> u8 {
    let mask = (1u16 << width) - 1;
    let mut crc = u16::from(init) & mask;
    for &byte in data {
        crc = crc_byte(crc, byte, poly);
    }
    (crc & mask) as u8
}

const fn crc_byte(state: u16, byte: u8, poly: u8) -> u16 {
    let mut crc = state;
    let mut b = byte;
    let mut i = 0;
    while i < 8 {
        let bit = (crc ^ b as u16) & 1;
        crc >>= 1;
        if bit != 0 {
            crc ^= poly as u16;
        }
        b >>= 1;
        i += 1;
    }
    crc
}

/// CRC-3's reversed polynomial: x³+x+1, for a 3-bit LSB-first CRC.
const CRC3_POLY: u8 = 0b110;

/// CRC-3's initial state.
const CRC3_INIT: u16 = 0b111;

/// The zero-byte step of CRC-3 repeats after this many bytes.
pub(crate) const CRC3_PERIOD: usize = 7;

/// `k` zero bytes folded into CRC-3 state `s`.
const fn crc3_zeros(s: u16, k: usize) -> u16 {
    let mut s = s;
    let mut i = 0;
    while i < k {
        s = crc_byte(s, 0, CRC3_POLY);
        i += 1;
    }
    s
}

/// CRC-3 without a serial chain. Folding a byte is linear over GF(2):
/// `step(s, b) = L(s) ^ T(b)`, with `L(s) = step(s, 0)` and
/// `T(b) = step(0, b)`. So the CRC of `d[0..n]` is
/// `L^n(init) ^ XOR_i L^(n-1-i)(T(d[i]))`. The polynomial is primitive
/// of degree 3, so seven zero-bit steps are the identity, and `L`,
/// eight of them, is one: `L` has order 7. The bytes whose distance from
/// the end agrees mod 7 can therefore be XORed together first, and
/// `CRC3_FOLD[r][a] = L^r(T(a))` maps each of those seven sums to its
/// share of the CRC in one independent lookup.
const CRC3_FOLD: [[u8; 256]; CRC3_PERIOD] = {
    let mut t = [[0u8; 256]; CRC3_PERIOD];
    let mut r = 0;
    while r < CRC3_PERIOD {
        let mut b = 0;
        while b < 256 {
            t[r][b] = crc3_zeros(crc_byte(0, b as u8, CRC3_POLY), r) as u8;
            b += 1;
        }
        r += 1;
    }
    t
};

/// `CRC3_INIT_AFTER[k] = L^k(init)`: the initial state's share of the
/// CRC of an input whose length is `k` mod 7.
const CRC3_INIT_AFTER: [u8; CRC3_PERIOD] = {
    let mut t = [0u8; CRC3_PERIOD];
    let mut k = 0;
    while k < CRC3_PERIOD {
        t[k] = crc3_zeros(CRC3_INIT, k) as u8;
        k += 1;
    }
    t
};

/// The low seven bytes of a `u64`: one fold word.
pub(crate) const CRC3_WORD_MASK: u64 = (1 << (8 * CRC3_PERIOD)) - 1;

/// ROHC CRC-3 (values 0–7).
///
/// The input is cut into 7-byte blocks from its start and the blocks
/// are XORed into one word, the last and shorter one included: byte `o`
/// of the word holds every byte at an offset congruent to `o` mod 7.
/// `crc3_of_word` finishes the CRC from that word, so no byte waits on
/// the lookup of the byte before it.
pub fn crc3(data: &[u8]) -> u8 {
    let blocks = data.chunks_exact(CRC3_PERIOD);
    let tail = blocks.remainder();
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    let mut sum = u64::from_le_bytes(word);
    for block in blocks {
        let mut word = [0u8; 8];
        word[..CRC3_PERIOD].copy_from_slice(block);
        sum ^= u64::from_le_bytes(word);
    }
    crc3_of_word(sum, data.len())
}

/// The CRC-3 of a `len`-byte input whose bytes at offsets congruent to
/// `o` mod 7 XOR to byte `o` of `word` (whatever built the word: the
/// input's bytes in [`crc3`], a header's fields in the `fold` module).
/// Rotating the word right by `len` mod 7 bytes lines each byte up with
/// its distance from the end; seven independent lookups in `CRC3_FOLD`
/// then give the CRC.
pub(crate) fn crc3_of_word(word: u64, len: usize) -> u8 {
    let r = 8 * (len % CRC3_PERIOD);
    let by_distance = ((word >> r) | (word << (8 * CRC3_PERIOD - r))) & CRC3_WORD_MASK;
    let mut crc = CRC3_INIT_AFTER[len % CRC3_PERIOD];
    for (o, fold) in CRC3_FOLD.iter().rev().enumerate() {
        crc ^= fold[usize::from((by_distance >> (8 * o)) as u8)];
    }
    crc
}

/// ROHC CRC-7 (values 0–127).
pub fn crc7(data: &[u8]) -> u8 {
    // x⁷+x⁶+x³+x²+x+1 => reversed representation 0x79.
    crc_generic(data, 7, 0x79, 0x7F)
}

/// ROHC CRC-8 (values 0–255).
pub fn crc8(data: &[u8]) -> u8 {
    // x⁸+x²+x+1 => reversed representation 0xE0.
    crc_generic(data, 8, 0xE0, 0xFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial definition of CRC-3, byte by byte.
    fn crc3_serial(data: &[u8]) -> u8 {
        crc_generic(data, 3, CRC3_POLY, CRC3_INIT as u8)
    }

    /// Deterministic filler bytes (a 64-bit LCG's high byte).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn zero_byte_step_has_order_seven() {
        for s in 0..8u16 {
            assert_eq!(crc3_zeros(s, CRC3_PERIOD), s, "state {s}");
        }
        for k in 1..CRC3_PERIOD {
            assert!(
                (0..8u16).any(|s| crc3_zeros(s, k) != s),
                "order divides {k}"
            );
        }
    }

    #[test]
    fn crc3_table_matches_bitwise_reference_exhaustively() {
        // Every entry of the fold table is what the bit-serial algorithm
        // makes of byte `b` followed by `r` zero bytes from state 0, and
        // every initial share is `k` zero bytes from the initial state.
        for r in 0..CRC3_PERIOD {
            for b in 0..=255u8 {
                let mut d = vec![b];
                d.resize(r + 1, 0);
                assert_eq!(
                    CRC3_FOLD[r][usize::from(b)],
                    crc_generic(&d, 3, CRC3_POLY, 0),
                    "residue {r} byte {b}"
                );
            }
            assert_eq!(
                CRC3_INIT_AFTER[r],
                crc3_serial(&vec![0; r]),
                "initial share after {r} bytes"
            );
        }
        // And end-to-end on a multi-byte input.
        for len in 0..64usize {
            let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            assert_eq!(crc3(&data), crc3_serial(&data));
        }
    }

    #[test]
    fn folded_crc3_matches_bit_serial_on_random_bytes_at_every_length() {
        for len in 0..=128usize {
            for seed in 0..8 {
                let data = noise(seed * 1000 + len as u64, len);
                assert_eq!(crc3(&data), crc3_serial(&data), "len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn folded_crc3_matches_bit_serial_for_every_byte_at_every_residue() {
        // Byte `b` at distance `r` from the end, over inputs whose
        // lengths cover every residue of the head block too.
        for r in 0..CRC3_PERIOD {
            for b in 0..=255u8 {
                for len in r + 1..r + 1 + 2 * CRC3_PERIOD {
                    let mut data = noise(u64::from(b) ^ ((len as u64) << 8), len);
                    data[len - 1 - r] = b;
                    assert_eq!(
                        crc3(&data),
                        crc3_serial(&data),
                        "byte {b} at distance {r} from the end of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_yields_init() {
        assert_eq!(crc3(&[]), 0b111);
        assert_eq!(crc7(&[]), 0x7F);
        assert_eq!(crc8(&[]), 0xFF);
    }

    #[test]
    fn deterministic_and_length_sensitive() {
        let a = b"hierarchical acks";
        assert_eq!(crc8(a), crc8(a));
        assert_ne!(crc8(a), crc8(&a[..a.len() - 1]));
        assert_eq!(crc7(a), crc7(a));
        assert_eq!(crc3(a), crc3(a));
    }

    #[test]
    fn values_fit_width() {
        for i in 0..=255u8 {
            let d = [i, i.wrapping_mul(31), 0x5A];
            assert!(crc3(&d) < 8);
            assert!(crc7(&d) < 128);
        }
    }

    #[test]
    fn single_bit_flips_detected_by_crc8() {
        let data = vec![0xA5u8; 52];
        let base = crc8(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc8(&d), base, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn crc3_catches_most_flips() {
        // CRC-3 detects every single-bit error: x³+x+1 has more than one
        // term. It does not detect every odd-weight error, which takes
        // x+1 as a factor: x³+x+1 is primitive, so irreducible, and the
        // three-bit error equal to the generator (bits 0, 2 and 3 of a
        // byte, in LSB-first order) goes undetected.
        let data = vec![0x3Cu8; 52];
        let base = crc3(&data);
        let mut caught = 0;
        let mut total = 0;
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                total += 1;
                if crc3(&d) != base {
                    caught += 1;
                }
            }
        }
        assert_eq!(caught, total, "CRC-3 must catch all single-bit errors");
        let mut d = data.clone();
        d[10] ^= 0b1101;
        assert_eq!(crc3(&d), base, "the generator's own pattern is invisible");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut counts3 = [0u32; 8];
        for i in 0..4096u32 {
            counts3[usize::from(crc3(&i.to_be_bytes()))] += 1;
        }
        for &c in &counts3 {
            assert!((312..712).contains(&c), "skewed CRC-3 bucket: {c}");
        }
    }
}
