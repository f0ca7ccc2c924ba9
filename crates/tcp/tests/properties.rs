//! Property-based tests: wire-format roundtrips and sequence arithmetic.

use hack_tcp::{flags, Ipv4Addr, Ipv4Packet, TcpOption, TcpSegment, TcpSeq, Transport};
use proptest::prelude::*;

fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of((any::<u32>(), any::<u32>())),
        proptest::collection::vec((any::<u32>(), 1u32..100_000), 0..3),
    )
        .prop_map(|(mss, ws, sackp, ts, sacks)| {
            let mut o = Vec::new();
            if mss {
                o.push(TcpOption::Mss(1460));
            }
            if ws {
                o.push(TcpOption::WindowScale(6));
            }
            if sackp {
                o.push(TcpOption::SackPermitted);
            }
            if let Some((v, e)) = ts {
                o.push(TcpOption::Timestamps { tsval: v, tsecr: e });
            }
            if !sacks.is_empty() {
                o.push(TcpOption::Sack(
                    sacks
                        .into_iter()
                        .map(|(s, l)| (TcpSeq(s), TcpSeq(s.wrapping_add(l))))
                        .collect(),
                ));
            }
            o
        })
}

fn arb_packet() -> impl Strategy<Value = Ipv4Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u32..20_000,
        any::<u16>(),
        arb_options(),
        prop_oneof![
            Just(flags::ACK),
            Just(flags::ACK | flags::PSH),
            Just(flags::SYN),
            Just(flags::SYN | flags::ACK),
            Just(flags::ACK | flags::FIN),
        ],
    )
        .prop_map(
            |(src, dst, ident, sp, dp, seq, ack, plen, window, options, fl)| Ipv4Packet {
                src: Ipv4Addr(src),
                dst: Ipv4Addr(dst),
                ident,
                ttl: 64,
                transport: Transport::Tcp(TcpSegment {
                    src_port: sp,
                    dst_port: dp,
                    seq: TcpSeq(seq),
                    ack: TcpSeq(ack),
                    flags: fl,
                    window,
                    // Five options are possible here: exercises the
                    // InlineVec spill path too.
                    options: options.into(),
                    payload_len: plen,
                }),
            },
        )
}

proptest! {
    /// Serialization roundtrips exactly for any packet shape.
    #[test]
    fn header_roundtrip(p in arb_packet()) {
        let bytes = p.header_bytes();
        let q = Ipv4Packet::from_header_bytes(&bytes).unwrap();
        prop_assert_eq!(p, q);
    }

    /// An ACK carrying 0–4 SACK blocks (timestamps beside up to three; a
    /// fourth fills the option space) survives the wire block for block.
    #[test]
    fn sack_ack_roundtrip(
        ack in any::<u32>(),
        ts in proptest::option::of((any::<u32>(), any::<u32>())),
        sacks in proptest::collection::vec((any::<u32>(), 1u32..100_000), 0..5),
    ) {
        let blocks: Vec<(TcpSeq, TcpSeq)> =
            sacks.iter().map(|&(s, l)| (TcpSeq(s), TcpSeq(s) + l)).collect();
        let mut options = Vec::new();
        if let Some((tsval, tsecr)) = ts.filter(|_| blocks.len() < 4) {
            options.push(TcpOption::Timestamps { tsval, tsecr });
        }
        if !blocks.is_empty() {
            options.push(TcpOption::Sack(blocks.iter().copied().collect()));
        }
        let p = Ipv4Packet {
            src: Ipv4Addr(0x0a00_0001),
            dst: Ipv4Addr(0x0a00_0002),
            ident: 7,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 40000,
                dst_port: 5001,
                seq: TcpSeq(1),
                ack: TcpSeq(ack),
                flags: flags::ACK,
                window: 1024,
                options: options.into(),
                payload_len: 0,
            }),
        };
        let q = Ipv4Packet::from_header_bytes(&p.header_bytes()).unwrap();
        prop_assert_eq!(&p, &q);
        let Transport::Tcp(seg) = &q.transport else { unreachable!() };
        let want = (!blocks.is_empty()).then_some(&blocks[..]);
        prop_assert_eq!(seg.sack_blocks(), want);
        let cloned = seg.clone();
        prop_assert_eq!(cloned.sack_blocks(), want);
    }

    /// Any single-bit corruption of the header is caught by a checksum.
    #[test]
    fn bitflip_detected(p in arb_packet(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = p.header_bytes();
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= 1 << bit;
        // Either a checksum error or (for length/offset bytes) a
        // structural error; never a silent wrong parse equal to nothing.
        match Ipv4Packet::from_header_bytes(&corrupted) {
            Err(_) => {}
            Ok(q) => {
                // A flip in the payload-length region of a data-offset
                // nibble can still parse; it must at least differ.
                prop_assert_ne!(p, q);
            }
        }
    }

    /// Sequence comparison is a strict total order on any window < 2^31.
    #[test]
    fn seq_order_antisymmetric(a in any::<u32>(), d in 1u32..0x7FFF_FFFF) {
        let x = TcpSeq(a);
        let y = x + d;
        prop_assert!(x.lt(y));
        prop_assert!(!y.lt(x));
        prop_assert!(y.gt(x));
        prop_assert_eq!(y - x, d);
    }

    /// in_window agrees with distance arithmetic.
    #[test]
    fn window_membership(lo in any::<u32>(), len in 1u32..1_000_000, off in 0u32..2_000_000) {
        let lo = TcpSeq(lo);
        let hi = lo + len;
        let x = lo + off;
        prop_assert_eq!(x.in_window(lo, hi), off < len);
    }
}
