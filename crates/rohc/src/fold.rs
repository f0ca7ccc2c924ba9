//! CRC-3 of a pure ACK's IP+TCP header from its fields.
//!
//! Every compressed ACK carries a CRC-3 over its original header, so
//! both ends of a link compute one per ACK. CRC-3 is linear over GF(2):
//! [`crc3`] XORs each byte into one 7-byte word at its offset mod 7 and
//! finishes the CRC from that word ([`crc3_of_word`]). The header's two
//! checksums are RFC 1071 ones'-complement sums of its 16-bit words. So
//! each field can be XORed into the word and added to its checksum's sum
//! straight from its value, in any order, and no header byte is written.
//!
//! A flow's context fixes most of the header of its pure ACKs: version,
//! header and total length, TOS, DF, TTL and protocol; addresses and
//! ports; data offset and flags (a bare ACK); the urgent pointer; and
//! the option layout, timestamps or none, with its NOP padding.
//! [`HeaderFold::of_flow`] folds those bytes once per context, with the
//! dynamic ones at zero. Per ACK only ident, seq, ack, window and the
//! timestamps are placed, and both checksums are finished from their
//! sums ([`HeaderFold::ack_crc3`]). A SACK-bearing ACK has a longer
//! header, which moves every byte to another place mod 7: it takes the
//! byte path, [`byte_crc3`], which serializes the header and runs
//! [`crc3`] over it.

use hack_inline::InlineVec;
use hack_tcp::{flags, FiveTuple, Ipv4Packet};

use crate::context::FieldRefs;
use crate::crc::{crc3, crc3_of_word, CRC3_PERIOD, CRC3_WORD_MASK};

/// Length of the IP header, and of the TCP header without options.
const BASE_LEN: u32 = 20;

/// A pure ACK's header folded for CRC-3 and its two checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeaderFold {
    /// Byte `o` is the XOR of the header bytes at offsets congruent to
    /// `o` mod 7: the word [`crc3_of_word`] finishes.
    word: u64,
    /// Raw sum of the IP header's 16-bit words, its checksum left out.
    ip_sum: u32,
    /// Raw sum of the 16-bit words of the TCP pseudo-header and header,
    /// the checksum left out.
    tcp_sum: u32,
    /// Header length in bytes, IP and TCP.
    len: u32,
    /// Whether the header carries the timestamps option.
    has_ts: bool,
}

impl HeaderFold {
    /// The bytes a flow's context fixes (see the module docs): the
    /// header of a pure ACK on `tuple` with TTL `ttl`, with timestamps
    /// if `has_ts` and no other option, and with ident, seq, ack,
    /// window, the timestamps and both checksums at zero.
    pub(crate) fn of_flow(tuple: &FiveTuple, ttl: u8, has_ts: bool) -> HeaderFold {
        // Timestamps take 10 bytes, padded to 12 by two NOPs.
        let tcp_len = if has_ts { BASE_LEN + 12 } else { BASE_LEN };
        let mut f = HeaderFold {
            word: 0,
            ip_sum: 0,
            // The pseudo-header: addresses, protocol and TCP length.
            tcp_sum: halves(tuple.src_ip.0) + halves(tuple.dst_ip.0) + 6 + tcp_len,
            len: BASE_LEN + tcp_len,
            has_ts,
        };
        f.put16(0, 0x4500); // version 4, IHL 5; TOS 0
        f.put16(2, f.len); // total length: no payload
        f.put16(6, 0x4000); // DF, no fragment offset
        f.put16(8, u32::from(ttl) << 8 | 6); // TTL, TCP
        f.put32(12, tuple.src_ip.0);
        f.put32(16, tuple.dst_ip.0);
        f.put16(20, u32::from(tuple.src_port));
        f.put16(22, u32::from(tuple.dst_port));
        f.put16(32, (tcp_len / 4) << 12 | u32::from(flags::ACK));
        // The urgent pointer, at 38, is zero.
        if has_ts {
            f.put16(40, 0x080A); // kind 8, length 10
            f.put16(50, 0x0101); // two NOPs
        }
        f
    }

    /// CRC-3 of the header of the pure ACK on this fold's flow with
    /// `refs`' ident, seq, ack and window, and with `refs`' timestamps
    /// if the flow has them. The caller sends an ACK with any other
    /// option list to [`byte_crc3`].
    pub(crate) fn ack_crc3(&self, refs: &FieldRefs) -> u8 {
        let mut f = self.ack(refs);
        let (ip, tcp) = f.checksums();
        f.xor(10, u32::from(ip), 2);
        f.xor(36, u32::from(tcp), 2);
        crc3_of_word(f.word, f.len as usize)
    }

    /// [`HeaderFold::ack_crc3`]'s header with every field placed but the
    /// two checksums.
    fn ack(&self, refs: &FieldRefs) -> HeaderFold {
        let mut f = *self;
        if f.has_ts {
            f.put32(42, refs.tsval);
            f.put32(46, refs.tsecr);
        }
        f.put16(4, u32::from(refs.ident));
        f.put32(24, refs.seq.0);
        f.put32(28, refs.ack.0);
        f.put16(34, u32::from(refs.window));
        f
    }

    /// The IP and TCP checksums: each sum with its carries added back in
    /// until it fits 16 bits, then complemented, as `hack_tcp`'s
    /// serializer computes them. A nonzero sum congruent to 0 mod 0xFFFF
    /// folds to 0xFFFF, so its checksum is 0, never 0xFFFF.
    fn checksums(&self) -> (u16, u16) {
        (complement(self.ip_sum), complement(self.tcp_sum))
    }

    /// Place the 16-bit field `v` at header offset `at` (even).
    fn put16(&mut self, at: u32, v: u32) {
        debug_assert!(v <= 0xFFFF && at.is_multiple_of(2));
        self.put(at, v, 2);
    }

    /// Place the 32-bit field `v` at header offset `at` (even).
    fn put32(&mut self, at: u32, v: u32) {
        debug_assert!(at.is_multiple_of(2));
        self.put(at, v, 4);
    }

    /// XOR a field into the word and add it to the sum of the header it
    /// lies in.
    fn put(&mut self, at: u32, v: u32, width: u32) {
        self.xor(at, v, width);
        if at < BASE_LEN {
            self.ip_sum += halves(v);
        } else {
            self.tcp_sum += halves(v);
        }
    }

    /// XOR the `width` big-endian bytes of `v` into the word: the first
    /// at byte `at` mod 7, each next one a byte further, wrapping from
    /// byte 6 to byte 0.
    fn xor(&mut self, at: u32, v: u32, width: u32) {
        let bytes = u64::from(v.swap_bytes() >> (32 - 8 * width));
        let s = 8 * (at as usize % CRC3_PERIOD);
        self.word ^= ((bytes << s) | (bytes >> (8 * CRC3_PERIOD - s))) & CRC3_WORD_MASK;
    }
}

/// The sum of a 32-bit value's two 16-bit words.
fn halves(v: u32) -> u32 {
    (v >> 16) + (v & 0xFFFF)
}

/// RFC 1071's end-around carry and complement of a raw sum.
fn complement(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// CRC-3 of `pkt`'s serialized header: the byte path, and in debug
/// builds the reference every field CRC-3 is checked against. The header
/// is written on the stack, sized for the longest IP+TCP header, so
/// neither use allocates: a debug-only allocation per ACK would move
/// the exact allocation counts that tests hold in debug builds. Only a
/// corrupted segment can rebuild a longer header, which spills to the
/// heap.
pub(crate) fn byte_crc3(pkt: &Ipv4Packet) -> u8 {
    let mut header = InlineVec::<u8, 80>::new();
    pkt.header_bytes_into(&mut header);
    crc3(&header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{Ipv4Addr, TcpOption, TcpSegment, TcpSeq, Transport};

    fn pkt(ident: u16, window: u16, has_ts: bool) -> Ipv4Packet {
        let ts = TcpOption::Timestamps {
            tsval: 0xDEAD_BEEF,
            tsecr: 0x0BAD_F00D,
        };
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            ident,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 40000,
                dst_port: 5001,
                seq: TcpSeq(7777),
                ack: TcpSeq(123_456_789),
                flags: flags::ACK,
                window,
                options: if has_ts { vec![ts] } else { vec![] }.into(),
                payload_len: 0,
            }),
        }
    }

    /// The fold of `p`'s flow, and `p`'s dynamic fields.
    fn flow(p: &Ipv4Packet) -> (HeaderFold, FieldRefs) {
        let Transport::Tcp(seg) = &p.transport else {
            unreachable!()
        };
        let has_ts = seg.timestamps().is_some();
        let fold = HeaderFold::of_flow(&p.five_tuple(), p.ttl, has_ts);
        (fold, FieldRefs::of(p, seg))
    }

    /// `p`'s header with every field but the checksums placed.
    fn fold(p: &Ipv4Packet) -> HeaderFold {
        let (fold, refs) = flow(p);
        fold.ack(&refs)
    }

    /// Field CRC-3 of `p`.
    fn field_crc3(p: &Ipv4Packet) -> u8 {
        let (fold, refs) = flow(p);
        fold.ack_crc3(&refs)
    }

    /// Both checksums of `p` through the fold, and as serialized.
    fn checksums(p: &Ipv4Packet) -> ((u16, u16), (u16, u16)) {
        let bytes = p.header_bytes();
        let at = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        (fold(p).checksums(), (at(10), at(36)))
    }

    #[test]
    fn field_crc3_matches_the_bytes_with_and_without_timestamps() {
        for has_ts in [false, true] {
            for ident in [0, 1, 0x8000, 0xFFFF] {
                for window in [0, 1024, 0xFFFF] {
                    let p = pkt(ident, window, has_ts);
                    assert_eq!(field_crc3(&p), byte_crc3(&p), "{p:?}");
                    let (fold, bytes) = checksums(&p);
                    assert_eq!(fold, bytes, "{p:?}");
                }
            }
        }
    }

    /// The first `v` for which `p(v)`'s fold satisfies `want`.
    fn craft(p: impl Fn(u16) -> Ipv4Packet, want: impl Fn(&HeaderFold) -> bool) -> Ipv4Packet {
        let v = (0..=u16::MAX)
            .find(|&v| want(&fold(&p(v))))
            .expect("some value crafts it");
        p(v)
    }

    /// Does folding `sum`'s carries take more than one round?
    fn carries_twice(sum: u32) -> bool {
        (sum & 0xFFFF) + (sum >> 16) > 0xFFFF
    }

    #[test]
    fn a_sum_of_all_ones_checksums_to_zero() {
        // Ident moves only the IP sum, window only the TCP sum; some
        // value of each makes its sum fold to 0xFFFF.
        let ip = craft(|v| pkt(v, 1024, true), |f| f.checksums().0 == 0);
        let tcp = craft(|v| pkt(7, v, true), |f| f.checksums().1 == 0);
        for p in [ip, tcp] {
            let (fold, bytes) = checksums(&p);
            assert_eq!(fold, bytes, "{p:?}");
            assert!(fold.0 == 0 || fold.1 == 0);
            assert_eq!(field_crc3(&p), byte_crc3(&p));
        }
    }

    #[test]
    fn a_sum_that_carries_twice_checksums_like_the_bytes() {
        // All-ones addresses and ports push both sums up to where one
        // round of carries leaves another.
        let wide = |ident: u16, window: u16| {
            let mut p = pkt(ident, window, true);
            p.src = Ipv4Addr(u32::MAX);
            p.dst = Ipv4Addr(u32::MAX);
            p.ttl = 255;
            if let Transport::Tcp(t) = &mut p.transport {
                t.src_port = u16::MAX;
                t.dst_port = u16::MAX;
            }
            p
        };
        let ip = craft(|v| wide(v, 1024), |f| carries_twice(f.ip_sum));
        let tcp = craft(|v| wide(7, v), |f| carries_twice(f.tcp_sum));
        for p in [ip, tcp] {
            let (fold, bytes) = checksums(&p);
            assert_eq!(fold, bytes, "{p:?}");
            assert_eq!(field_crc3(&p), byte_crc3(&p));
        }
    }
}
