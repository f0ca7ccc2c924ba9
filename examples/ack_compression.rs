//! A bare look at the ROHC-style codec from §3.3.2: compress a stream of
//! TCP ACKs, show the bytes, replay a retained blob, and watch the
//! master-sequence-number dedup absorb it.
//!
//! ```sh
//! cargo run --release --example ack_compression
//! ```

use tcp_hack::rohc::{build_blob, BlobItem, Compressor, Decompressor};
use tcp_hack::tcp::{flags, Ipv4Addr, Ipv4Packet, TcpOption, TcpSegment, TcpSeq, Transport};

fn ack(ackno: u32, ident: u16, ts: u32) -> Ipv4Packet {
    Ipv4Packet {
        src: Ipv4Addr::new(192, 168, 0, 10),
        dst: Ipv4Addr::new(10, 0, 0, 1),
        ident,
        ttl: 64,
        transport: Transport::Tcp(TcpSegment {
            src_port: 40_000,
            dst_port: 5_001,
            seq: TcpSeq(4242),
            ack: TcpSeq(ackno),
            flags: flags::ACK,
            window: 2048,
            options: vec![TcpOption::Timestamps {
                tsval: ts,
                tsecr: ts - 2,
            }]
            .into(),
            payload_len: 0,
        }),
    }
}

fn main() {
    let mut client = Compressor::new();
    let mut ap = Decompressor::new();

    // A flow starts with a natively transmitted ACK — that *is* the
    // context-establishment mechanism (no ROHC IR packets).
    let first = ack(10_000, 1, 100);
    println!(
        "native ACK ({} bytes on the wire) seeds CID {}",
        first.wire_len(),
        tcp_hack::rohc::cid_for_tuple(&first.five_tuple().bytes()),
    );
    client.observe_native(&first);
    ap.observe_native(&first);

    // A burst of delayed ACKs (one per two 1460-byte segments).
    let mut segments = Vec::new();
    for i in 1..=6u32 {
        let p = ack(10_000 + i * 2920, 1 + i as u16, 100 + i);
        let seg = client.compress(&p).expect("in-profile ACK");
        println!(
            "  ACK {:>6}  →  {:2} bytes: {:02x?}",
            10_000 + i * 2920,
            seg.len(),
            seg
        );
        segments.push(seg);
    }

    let blob = build_blob(&segments);
    println!(
        "\nblob riding the Block ACK: {} bytes for {} ACKs ({} bytes natively)",
        blob.len(),
        segments.len(),
        segments.len() as u32 * first.wire_len()
    );

    let items: Vec<BlobItem> = ap.decode(&blob).collect();
    println!(
        "AP reconstitutes {} ACKs byte-exactly, {} errors",
        ap.stats().decompressed,
        items
            .iter()
            .filter(|i| matches!(i, BlobItem::Fail(_)))
            .count()
    );
    assert_eq!(ap.stats().decompressed, 6);
    assert_eq!(items[5], BlobItem::Packet(ack(10_000 + 6 * 2920, 7, 106)));

    // The client retains the blob until §3.4 confirms delivery; a lost
    // Block ACK means the same bytes ride again — and must not re-apply.
    let replayed: Vec<BlobItem> = ap.decode(&blob).collect();
    println!(
        "replayed blob: {} new packets, {} duplicates discarded by MSN",
        ap.stats().decompressed - 6,
        ap.stats().duplicates
    );
    assert_eq!(replayed, vec![BlobItem::Duplicate; 6]);

    println!(
        "\ncompression ratio so far: {:.1}:1 (the paper's full ROHC-TCP reaches ~12:1)",
        client.stats().ratio()
    );
}
