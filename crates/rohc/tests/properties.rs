//! Property-based tests: compression roundtrips over arbitrary ACK
//! streams, duplicate discard, CRC coverage, and the decoder's outcome
//! accounting.

use hack_rohc::crc::crc3;
use hack_rohc::{build_blob, BlobItem, Compressor, DecompressError, DecompressStats, Decompressor};
use hack_tcp::{flags as tf, Ipv4Addr, Ipv4Packet, TcpOption, TcpSegment, TcpSeq, Transport};
use proptest::prelude::*;

fn ack_pkt(ackno: u32, ident: u16, tsval: u32, window: u16) -> Ipv4Packet {
    Ipv4Packet {
        src: Ipv4Addr::new(192, 168, 0, 2),
        dst: Ipv4Addr::new(10, 0, 0, 1),
        ident,
        ttl: 64,
        transport: Transport::Tcp(TcpSegment {
            src_port: 40000,
            dst_port: 5001,
            seq: TcpSeq(7777),
            ack: TcpSeq(ackno),
            flags: tf::ACK,
            window,
            options: vec![TcpOption::Timestamps {
                tsval,
                tsecr: tsval.wrapping_sub(3),
            }]
            .into(),
            payload_len: 0,
        }),
    }
}

/// What one blob decoded to.
#[derive(Debug, Default)]
struct Decoded {
    packets: Vec<Ipv4Packet>,
    duplicates: usize,
    errors: Vec<DecompressError>,
}

/// The decompressor's counters, in a fixed order.
fn counters(s: &DecompressStats) -> [u64; 5] {
    [
        s.decompressed,
        s.duplicates,
        s.crc_failures,
        s.no_context,
        s.malformed,
    ]
}

/// Index into [`counters`] of the one counter `item` must move.
fn counter_of(item: &BlobItem) -> usize {
    match item {
        BlobItem::Packet(_) => 0,
        BlobItem::Duplicate => 1,
        BlobItem::Fail(DecompressError::BadCrc) => 2,
        BlobItem::Fail(DecompressError::NoContext) => 3,
        BlobItem::Fail(DecompressError::Malformed) => 4,
    }
}

/// Decode `blob` item by item and hold the accounting law on the way:
/// each item the cursor yields moves exactly its own counter, by one.
fn decode(d: &mut Decompressor, blob: &[u8]) -> Result<Decoded, String> {
    let mut out = Decoded::default();
    let mut cursor = d.decode(blob);
    let mut before = counters(cursor.stats());
    while let Some(item) = cursor.next() {
        let after = counters(cursor.stats());
        let mut want = before;
        want[counter_of(&item)] += 1;
        prop_assert_eq!(after, want, "after {:?}", item);
        before = after;
        match item {
            BlobItem::Packet(p) => out.packets.push(p),
            BlobItem::Duplicate => out.duplicates += 1,
            BlobItem::Fail(e) => out.errors.push(e),
        }
    }
    Ok(out)
}

proptest! {
    /// Any monotone ACK stream (arbitrary deltas, windows, timestamps)
    /// compresses and reconstitutes byte-exactly when no losses occur.
    #[test]
    fn lossless_chain_roundtrips(
        start in any::<u32>(),
        deltas in proptest::collection::vec((0u32..100_000, 0u32..50, any::<u16>()), 1..60),
    ) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack_pkt(start, 1, 100, 1024);
        c.observe_native(&seed);
        d.observe_native(&seed);

        let mut ackno = start;
        let mut ts = 100u32;
        let mut ident = 1u16;
        for (i, &(da, dt, w)) in deltas.iter().enumerate() {
            ackno = ackno.wrapping_add(da);
            ts = ts.wrapping_add(dt);
            ident = ident.wrapping_add(1);
            let p = ack_pkt(ackno, ident, ts, w);
            let seg = c.compress(&p).expect("in-profile packet");
            let res = decode(&mut d, &build_blob(&[seg]))?;
            prop_assert!(res.errors.is_empty(), "i={i}: {:?}", res.errors);
            prop_assert_eq!(res.packets.len(), 1);
            prop_assert_eq!(&res.packets[0], &p, "i={}", i);
        }
    }

    /// Duplicate and advancing ACKs carrying 0–4 SACK blocks (starts
    /// ahead of the ACK by anything up to a large window, wrap-around
    /// included; a fourth block only on a flow without timestamps, as on
    /// the wire) compress, ride a blob together and come out block for
    /// block.
    #[test]
    fn sack_bearing_acks_roundtrip(
        start in prop_oneof![any::<u32>(), (u32::MAX - 200_000)..=u32::MAX],
        timestamps in any::<bool>(),
        steps in proptest::collection::vec(
            (
                0u32..3_000,
                proptest::collection::vec((1u32..4_000_000, 1u32..70_000), 0..5),
            ),
            1..30,
        ),
    ) {
        let pkt = |ackno, i: usize, sacks: &[(u32, u32)]| {
            let mut p = ack_pkt(ackno, 1 + i as u16, 100 + i as u32, 1024);
            if let Transport::Tcp(t) = &mut p.transport {
                if !timestamps {
                    t.options.clear();
                }
                let room = if timestamps { 3 } else { 4 };
                let blocks = sacks.iter().take(room).map(|&(ahead, len)| {
                    let s = TcpSeq(ackno) + ahead;
                    (s, s + len)
                });
                if !sacks.is_empty() {
                    t.options.push(TcpOption::Sack(blocks.collect()));
                }
            }
            p
        };
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = pkt(start, 0, &[]);
        c.observe_native(&seed);
        d.observe_native(&seed);

        let (mut ackno, mut sent, mut segments) = (start, Vec::new(), Vec::new());
        for (i, (da, sacks)) in steps.iter().enumerate() {
            ackno = ackno.wrapping_add(*da);
            let p = pkt(ackno, 1 + i, sacks);
            segments.push(c.compress(&p).expect("in-profile packet"));
            sent.push(p);
        }
        let res = decode(&mut d, &build_blob(&segments))?;
        prop_assert!(res.errors.is_empty(), "{:?}", res.errors);
        prop_assert_eq!(res.packets, sent);
    }

    /// The CRC-3 a compressed ACK carries, which both ends compute from
    /// the header's fields (or, with SACK blocks, from its bytes), is
    /// the CRC-3 of the header's bytes: for any flow (addresses, ports,
    /// TTL), any ident, seq, ack and window, with and without timestamps
    /// and SACK blocks. Each ACK seeds its own context, so every field
    /// is at distance 0 and it compresses, and it decodes whole, so the
    /// decompressor's CRC-3 agrees as well. An option list the
    /// decompressor does not rebuild (SACK before timestamps, another
    /// option) is declined.
    #[test]
    fn field_crc3_is_the_header_bytes_crc3(
        addrs in (any::<u32>(), any::<u32>()),
        ports in (any::<u16>(), any::<u16>()),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        seq_ack in (any::<u32>(), any::<u32>()),
        window in any::<u16>(),
        ts in proptest::option::of((any::<u32>(), any::<u32>())),
        sacks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..4),
        odd in 0u8..4,
    ) {
        let mut options = Vec::new();
        if let Some((tsval, tsecr)) = ts {
            options.push(TcpOption::Timestamps { tsval, tsecr });
        }
        if !sacks.is_empty() {
            let blocks = sacks.iter().map(|&(l, r)| (TcpSeq(l), TcpSeq(r)));
            options.push(TcpOption::Sack(blocks.collect()));
        }
        let rebuilt = match odd {
            1 => {
                options.reverse();
                options.len() < 2
            }
            2 => {
                options.push(TcpOption::Mss(1460));
                false
            }
            3 => {
                options.push(TcpOption::WindowScale(7));
                false
            }
            _ => true,
        };
        let p = Ipv4Packet {
            src: Ipv4Addr(addrs.0),
            dst: Ipv4Addr(addrs.1),
            ident,
            ttl,
            transport: Transport::Tcp(TcpSegment {
                src_port: ports.0,
                dst_port: ports.1,
                seq: TcpSeq(seq_ack.0),
                ack: TcpSeq(seq_ack.1),
                flags: tf::ACK,
                window,
                options: options.into(),
                payload_len: 0,
            }),
        };
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        c.observe_native(&p);
        d.observe_native(&p);
        let Some(seg) = c.compress(&p) else {
            prop_assert!(!rebuilt, "an ACK at its own floor compresses: {:?}", p);
            return Ok(());
        };
        prop_assert!(rebuilt, "an option list the decompressor cannot rebuild: {:?}", p);
        prop_assert_eq!(seg[1] & 0x07, crc3(&p.header_bytes()), "{:?}", p);
        let res = decode(&mut d, &build_blob(&[seg]))?;
        prop_assert_eq!(res.packets, vec![p]);
    }

    /// Re-delivering any prefix of already-applied segments (blob
    /// retention) never duplicates packets upstream.
    #[test]
    fn retention_replay_is_idempotent(
        n in 2usize..20,
        replay_at in 0usize..18,
    ) {
        let replay_at = replay_at.min(n - 1);
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack_pkt(1000, 1, 100, 1024);
        c.observe_native(&seed);
        d.observe_native(&seed);
        let mut segs = Vec::new();
        for i in 0..n {
            let p = ack_pkt(1000 + (i as u32 + 1) * 2920, 2 + i as u16, 100 + i as u32, 1024);
            segs.push(c.compress(&p).unwrap());
        }
        // Deliver everything once.
        let res = decode(&mut d, &build_blob(&segs))?;
        prop_assert_eq!(res.packets.len(), n);
        // Replay a suffix (what retention does): all duplicates.
        let replay = &segs[replay_at..];
        let res2 = decode(&mut d, &build_blob(replay))?;
        prop_assert_eq!(res2.packets.len(), 0);
        prop_assert_eq!(res2.duplicates, replay.len());
        prop_assert!(res2.errors.is_empty());
    }

    /// Single-bit corruption of a compressed segment is overwhelmingly
    /// either rejected (parse error, duplicate-MSN discard, CRC-3) or
    /// decodes to the identical packet (an MSN-only flip). Undetected
    /// *wrong* packets are bounded by CRC-3's residual (≈1/8 of the
    /// corrupted field space).
    #[test]
    fn corruption_rarely_yields_wrong_packets(ackno in 2000u32..1_000_000) {
        let mut base_c = Compressor::new();
        let seed = ack_pkt(1000, 1, 100, 1024);
        base_c.observe_native(&seed);
        let p = ack_pkt(ackno, 2, 101, 1024);
        let seg = base_c.compress(&p).unwrap();

        let mut wrong = 0u32;
        let mut total = 0u32;
        for idx in 0..seg.len() {
            for bit in 0..8 {
                let mut d = Decompressor::new();
                d.observe_native(&seed);
                let mut bad = seg.clone();
                bad[idx] ^= 1 << bit;
                total += 1;
                let res = decode(&mut d, &build_blob(&[bad]))?;
                if res.packets.iter().any(|got| got != &p) {
                    wrong += 1;
                }
            }
        }
        // CRC-3 residual bound with margin: well under a quarter of all
        // single-bit flips may slip through as wrong packets.
        prop_assert!(
            f64::from(wrong) / f64::from(total) < 0.25,
            "{wrong}/{total} undetected wrong decodes"
        );
    }

    /// Arbitrary garbage fed to the decompressor never panics and never
    /// hangs — every byte string terminates with bounded work, each item
    /// it yields is counted once, in its own counter — and a subsequent
    /// native ACK always re-syncs the context so the next compressed ACK
    /// decodes byte-exactly.
    #[test]
    fn arbitrary_bytes_never_panic_and_native_resyncs(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack_pkt(1000, 1, 100, 1024);
        c.observe_native(&seed);
        d.observe_native(&seed);
        decode(&mut d, &garbage)?; // must not panic or loop
        // Whatever state the garbage left behind, a native ACK repairs
        // the context (§3.3.2's last line of defense)…
        let native = ack_pkt(500_000, 7, 200, 2048);
        c.observe_native(&native);
        d.observe_native(&native);
        // …and the chain continues byte-exactly from there.
        let next = ack_pkt(502_920, 8, 201, 2048);
        let seg = c.compress(&next).expect("in-profile packet");
        let res = decode(&mut d, &build_blob(&[seg]))?;
        prop_assert!(res.errors.is_empty(), "{:?}", res.errors);
        prop_assert_eq!(res.packets, vec![next]);
    }

    /// A valid blob with any single bit flipped never panics, counts each
    /// item it yields once, in its own counter, and the native-ACK
    /// repair path restores byte-exact decoding afterwards.
    #[test]
    fn bit_flipped_blob_never_panics_and_recovers(
        ackno in 2000u32..1_000_000,
        flip in any::<u16>(),
    ) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack_pkt(1000, 1, 100, 1024);
        c.observe_native(&seed);
        d.observe_native(&seed);
        let p = ack_pkt(ackno, 2, 101, 1024);
        let seg = c.compress(&p).unwrap();
        let mut blob = build_blob(&[seg]);
        let bit = usize::from(flip) % (blob.len() * 8);
        blob[bit / 8] ^= 1 << (bit % 8);
        decode(&mut d, &blob)?; // must not panic
        // Native repair, then the chain resumes byte-exactly.
        let native = ack_pkt(ackno.wrapping_add(2920), 3, 102, 1024);
        c.observe_native(&native);
        d.observe_native(&native);
        let next = ack_pkt(ackno.wrapping_add(5840), 4, 103, 1024);
        let seg = c.compress(&next).expect("in-profile packet");
        let res = decode(&mut d, &build_blob(&[seg]))?;
        prop_assert!(res.errors.is_empty(), "{:?}", res.errors);
        prop_assert_eq!(res.packets, vec![next]);
    }

    /// Compression always shrinks a pure ACK substantially.
    #[test]
    fn always_smaller_than_original(deltas in proptest::collection::vec(0u32..10_000, 1..30)) {
        let mut c = Compressor::new();
        let seed = ack_pkt(5, 1, 100, 1024);
        c.observe_native(&seed);
        let mut ackno = 5u32;
        for (i, &da) in deltas.iter().enumerate() {
            ackno = ackno.wrapping_add(da);
            let p = ack_pkt(ackno, 2 + i as u16, 100 + i as u32, 1024);
            let seg = c.compress(&p).unwrap();
            prop_assert!(seg.len() as u32 <= p.wire_len() / 4,
                "segment {} bytes vs original {}", seg.len(), p.wire_len());
        }
        prop_assert!(c.stats().ratio() >= 4.0);
    }

    /// Abandoning the streaming cursor mid-blob (the MAC dropping the
    /// rest of a frame) leaves the decompressor in a state a native
    /// refresh fully repairs: the next compressed segment decodes
    /// byte-exactly.
    #[test]
    fn partial_cursor_drop_then_native_resync(
        n in 2usize..20,
        take in 0usize..20,
    ) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack_pkt(1000, 1, 100, 1024);
        c.observe_native(&seed);
        d.observe_native(&seed);
        let segs: Vec<_> = (0..n)
            .map(|i| {
                let p = ack_pkt(
                    1000 + (i as u32 + 1) * 2920,
                    2 + i as u16,
                    100 + i as u32,
                    1024,
                );
                c.compress(&p).unwrap()
            })
            .collect();
        let blob = build_blob(&segs);
        // Consume only a prefix of the cursor, then drop it.
        for item in d.decode(&blob).take(take.min(n)) {
            prop_assert!(matches!(item, BlobItem::Packet(_)), "{item:?}");
        }
        // Native repair, then the chain resumes byte-exactly.
        let native = ack_pkt(90_000, 100, 500, 2048);
        c.observe_native(&native);
        d.observe_native(&native);
        let next = ack_pkt(92_920, 101, 501, 2048);
        let seg = c.compress(&next).expect("in-profile packet");
        let res = decode(&mut d, &build_blob(&[seg]))?;
        prop_assert!(res.errors.is_empty(), "{:?}", res.errors);
        prop_assert_eq!(res.packets, vec![next]);
    }
}
