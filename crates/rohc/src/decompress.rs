//! The HACK-profile decompressor (the receiving end's driver component:
//! the AP's on a download, the client's on an upload).
//!
//! [`Decompressor::decode`] walks the blob extracted from an augmented
//! LL ACK one segment at a time, reconstitutes full IP+TCP ACK packets
//! byte-exactly via forward W-LSB decoding, validates them with the
//! ROHC CRC-3 carried in the flags octet, and discards duplicates by
//! master sequence number — the mechanism that makes the client's blob
//! retention (§3.4, Figure 6) safe. Each segment's outcome is decided
//! in one place and counted in one place: every item the cursor yields
//! moves exactly one [`DecompressStats`] counter by one.
//!
//! A SACK-free segment's CRC-3 is checked from the decoded fields (the
//! crate's `fold` module), on top of the part of the header the flow's
//! context fixes; a SACK-bearing one's from the serialized header of
//! the packet it rebuilds. A segment that passes moves the context's
//! references to the decoded fields as they are.
//!
//! Every segment is encoded against the compressor's floor, a value
//! not newer than any reference this side could hold, so a blob that
//! overtakes queued native ACKs, arrives duplicated, or skips lost
//! predecessors decodes correctly. Two races break that premise. A
//! native sent *after* a held segment that arrives first moves the
//! references past the segment, and the forward-only decode wraps by
//! 2^k; the client driver withdraws held segments up to each native its
//! link layer reports delivered. A native that arrives *after* newer
//! values were decoded moves the references back below the floor
//! ([`DecompContext::refresh_native`] takes every native as it comes),
//! where the next segment's LSBs may not reach its values. A segment
//! that decodes against the wrong references fails CRC-3, or passes it
//! one time in eight. A genuine desynchronization (e.g. a dropped
//! native the compressor folded into its floor, or a false CRC-3 pass)
//! likewise surfaces as a CRC failure and heals on the next native ACK,
//! satisfying the paper's "must not be persistent" requirement.

use hack_tcp::{
    flags as tcpflags, FiveTuple, Ipv4Packet, SackBlocks, TcpOption, TcpOptions, TcpSegment,
    TcpSeq, Transport,
};
use hack_trace::{Event, TraceHandle};

use crate::cidmap::{FlowTable, Observed};
use crate::compress::flagbits;
use crate::context::{compressible_ack, wlsb_decode, DecompContext, FieldRefs};
use crate::fold::byte_crc3;
use crate::varint::{read_ivarint, read_uvarint};

/// Why one segment failed to decompress. The discriminant is the
/// failure's stable wire code (the `reason` of
/// [`Event::RohcDecompressFail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// Byte-level parse failure (truncated field, bad count).
    Malformed = 0,
    /// No context for the CID.
    NoContext = 1,
    /// The reconstructed header failed CRC validation (context desync).
    BadCrc = 2,
}

/// Decompressor statistics: one counter per [`BlobItem`] outcome.
#[derive(Debug, Default, Clone)]
pub struct DecompressStats {
    /// Packets reconstituted.
    pub decompressed: u64,
    /// Duplicate segments discarded (retention + MSN working as designed).
    pub duplicates: u64,
    /// CRC failures observed.
    pub crc_failures: u64,
    /// Segments with no matching context.
    pub no_context: u64,
    /// Malformed segments.
    pub malformed: u64,
}

impl DecompressStats {
    /// Fold another decompressor's counters into this one — aggregation
    /// across the ends of every link of a world.
    pub fn merge(&mut self, other: &DecompressStats) {
        self.decompressed += other.decompressed;
        self.duplicates += other.duplicates;
        self.crc_failures += other.crc_failures;
        self.no_context += other.no_context;
        self.malformed += other.malformed;
    }
}

/// The decompressor of one end of a link.
#[derive(Debug, Default)]
pub struct Decompressor {
    flows: FlowTable<DecompContext>,
    stats: DecompressStats,
    trace: TraceHandle,
    trace_node: u32,
    trace_now: u64,
}

impl Decompressor {
    /// A decompressor with no contexts.
    pub fn new() -> Self {
        Decompressor::default()
    }

    /// Install the structured-event trace handle; `node` is the station
    /// this decompressor runs on.
    pub fn set_trace(&mut self, trace: TraceHandle, node: u32) {
        self.trace = trace;
        self.trace_node = node;
    }

    /// Stamp the simulation time (nanoseconds) used for subsequent trace
    /// events (the decompressor is sans-IO; the driver owns the clock).
    pub fn set_trace_clock(&mut self, now_nanos: u64) {
        self.trace_now = now_nanos;
    }

    /// Statistics.
    pub fn stats(&self) -> &DecompressStats {
        &self.stats
    }

    /// Number of live contexts.
    pub fn context_count(&self) -> usize {
        self.flows.len()
    }

    /// Drop the flow's context entirely (supervisor-driven refresh); the
    /// next native ACK from the flow re-seeds it. Returns whether a
    /// context was dropped. Other flows sharing this decompressor are
    /// untouched.
    pub fn drop_context(&mut self, tuple: &FiveTuple) -> bool {
        self.flows.drop(tuple)
    }

    /// A native TCP ACK arrived from the peer: create or refresh its
    /// context (the AP "stores the necessary state for the new context
    /// and assigns it the correct CID", §3.3.2).
    pub fn observe_native(&mut self, pkt: &Ipv4Packet) {
        let Some(seg) = compressible_ack(pkt) else {
            return;
        };
        let Some(fresh) = DecompContext::from_native(pkt) else {
            return;
        };
        match self.flows.observe(fresh) {
            Observed::Live(ctx) => ctx.refresh_native(pkt, seg),
            Observed::Taken => {}
            Observed::Created(cid) => {
                hack_trace::trace_ev!(
                    self.trace,
                    self.trace_now,
                    self.trace_node,
                    Event::RohcContextInit {
                        cid: u64::from(cid)
                    }
                );
            }
        }
    }

    /// Decode a full blob (`count` + segments): a cursor that yields one
    /// [`BlobItem`] per segment, parsing W-LSB/varint fields straight
    /// out of `blob` (the delivered MPDU buffer). No intermediate
    /// segment buffers, no packet `Vec` — each reconstructed ACK is
    /// handed to the caller as it decodes.
    pub fn decode<'a, 'd>(&'d mut self, blob: &'a [u8]) -> BlobDecoder<'a, 'd> {
        // A blob without even its count byte reads as one segment that
        // is missing: the cursor yields a single `Malformed`.
        let (remaining, rest) = match blob.split_first() {
            Some((&count, rest)) => (u32::from(count), rest),
            None => (1, blob),
        };
        BlobDecoder {
            d: self,
            rest,
            remaining,
            errored: false,
            done: false,
        }
    }

    /// Decide the outcome of the segment at the head of `data`, and how
    /// many bytes it spans: 0 when the rest of the blob cannot be parsed
    /// (a count byte that overshoots leaves `data` empty). Counts
    /// nothing — [`BlobDecoder`] does.
    fn decompress_one(&mut self, data: &[u8]) -> (BlobItem, usize) {
        use DecompressError::{BadCrc, Malformed, NoContext};
        // Structural parse first — we need TS presence, which is context
        // state, so look the context up before the variable-length tail.
        if data.len() < 5 {
            return (BlobItem::Fail(Malformed), 0);
        }
        let cid = data[0];
        let Some(ctx) = self.flows.by_cid_mut(cid) else {
            // Without the context we cannot even size the segment
            // (timestamp presence is per-flow), so the rest of the blob
            // is unparseable.
            return (BlobItem::Fail(NoContext), 0);
        };
        let has_ts = ctx.has_ts;
        let Some(parsed) = parse_segment(data, has_ts) else {
            return (BlobItem::Fail(Malformed), 0);
        };

        // Duplicate discard by master sequence number — but only while
        // the MSN anchor is trusted. A native refresh clears the anchor
        // (see `DecompContext::msn_valid`), so the first segment after a
        // native is always decoded rather than risk a corruption-planted
        // MSN discarding valid traffic; the CRC-3 check below still
        // gates what gets forwarded.
        let msn_dist = parsed.msn.wrapping_sub(ctx.msn);
        if ctx.msn_valid && (msn_dist == 0 || msn_dist > 128) {
            return (BlobItem::Duplicate, parsed.consumed);
        }

        // Forward W-LSB reconstruction against our current references.
        let ack = TcpSeq(wlsb_decode(
            u64::from(ctx.refs.ack.0),
            u64::from(parsed.ack_lsbs),
            parsed.ack_k,
        ) as u32);
        let ts = parsed.ts.map(|(v_lsb, e_lsb, k)| {
            (
                wlsb_decode(u64::from(ctx.refs.tsval), u64::from(v_lsb), k) as u32,
                wlsb_decode(u64::from(ctx.refs.tsecr), u64::from(e_lsb), k) as u32,
            )
        });
        let (tsval, tsecr) = ts.unwrap_or((0, 0));
        let refs = FieldRefs {
            ack,
            seq: ctx.refs.seq,
            window: parsed.window.unwrap_or(ctx.refs.window),
            tsval,
            tsecr,
            ident: wlsb_decode(u64::from(ctx.refs.ident), u64::from(parsed.ident_lsb), 8) as u16,
        };

        let sack = parsed.sack.map(|(blocks, n)| {
            blocks[..usize::from(n)]
                .iter()
                .map(|&(start_rel, len)| {
                    let start = ack + (start_rel as u32);
                    (start, start + len)
                })
                .collect::<SackBlocks>()
        });

        // CRC validation: from the reconstructed fields, before any
        // packet is built; a SACK block moves every byte of the
        // context's fold, so a SACK-bearing packet is rebuilt first and
        // its header serialized.
        let rebuilt = sack.map(|blocks| rebuild(ctx, &refs, Some(blocks)));
        let crc = match &rebuilt {
            None => ctx.fold.ack_crc3(&refs),
            Some(pkt) => byte_crc3(pkt),
        };
        if crc & flagbits::CRC_MASK != parsed.crc {
            return (BlobItem::Fail(BadCrc), parsed.consumed);
        }

        // Commit: our references move to the decoded fields.
        ctx.refs = refs;
        ctx.msn = parsed.msn;
        ctx.msn_valid = true;
        hack_trace::trace_ev!(
            self.trace,
            self.trace_now,
            self.trace_node,
            Event::RohcContextUpdate {
                cid: u64::from(cid),
                msn: u32::from(parsed.msn)
            }
        );
        let pkt = rebuilt.unwrap_or_else(|| rebuild(ctx, &refs, None));
        debug_assert_eq!(crc, byte_crc3(&pkt), "field CRC-3 of {pkt:?}");
        (BlobItem::Packet(pkt), parsed.consumed)
    }
}

/// The pure ACK on `ctx`'s flow with `refs`' fields: the timestamps if
/// the flow has them, then `sack`'s blocks if any.
fn rebuild(ctx: &DecompContext, refs: &FieldRefs, sack: Option<SackBlocks>) -> Ipv4Packet {
    let mut options = TcpOptions::new();
    if ctx.has_ts {
        options.push(TcpOption::Timestamps {
            tsval: refs.tsval,
            tsecr: refs.tsecr,
        });
    }
    if let Some(blocks) = sack {
        options.push(TcpOption::Sack(blocks));
    }
    Ipv4Packet {
        src: ctx.tuple.src_ip,
        dst: ctx.tuple.dst_ip,
        ident: refs.ident,
        ttl: ctx.ttl,
        transport: Transport::Tcp(TcpSegment {
            src_port: ctx.tuple.src_port,
            dst_port: ctx.tuple.dst_port,
            seq: refs.seq,
            ack: refs.ack,
            flags: tcpflags::ACK,
            window: refs.window,
            options,
            payload_len: 0,
        }),
    }
}

/// One decoded item yielded by a [`BlobDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobItem {
    /// A successfully reconstituted ACK packet.
    Packet(Ipv4Packet),
    /// A segment discarded as a duplicate by master sequence number.
    Duplicate,
    /// A segment that failed to decompress.
    Fail(DecompressError),
}

/// Streaming cursor over one blob: decodes straight out of the borrowed
/// byte slice, one segment per [`Iterator::next`] call. Created by
/// [`Decompressor::decode`].
#[derive(Debug)]
pub struct BlobDecoder<'a, 'd> {
    d: &'d mut Decompressor,
    rest: &'a [u8],
    remaining: u32,
    /// Whether any segment failed (suppresses the trailing-bytes check:
    /// after a failure the leftover bytes are expected).
    errored: bool,
    done: bool,
}

impl BlobDecoder<'_, '_> {
    /// The decompressor's statistics, including every item yielded so
    /// far.
    pub fn stats(&self) -> &DecompressStats {
        &self.d.stats
    }

    /// Count `item` in exactly one [`DecompressStats`] field, and trace
    /// it if it is a failure: the one site every outcome passes.
    fn tally(&mut self, item: BlobItem) -> BlobItem {
        let stats = &mut self.d.stats;
        match item {
            BlobItem::Packet(_) => stats.decompressed += 1,
            BlobItem::Duplicate => stats.duplicates += 1,
            BlobItem::Fail(e) => {
                self.errored = true;
                *match e {
                    DecompressError::Malformed => &mut stats.malformed,
                    DecompressError::NoContext => &mut stats.no_context,
                    DecompressError::BadCrc => &mut stats.crc_failures,
                } += 1;
                hack_trace::trace_ev!(
                    self.d.trace,
                    self.d.trace_now,
                    self.d.trace_node,
                    Event::RohcDecompressFail { reason: e as u32 }
                );
            }
        }
        item
    }
}

impl Iterator for BlobDecoder<'_, '_> {
    type Item = BlobItem;

    fn next(&mut self) -> Option<BlobItem> {
        if self.done {
            return None;
        }
        let item = if self.remaining > 0 {
            self.remaining -= 1;
            let (item, used) = self.d.decompress_one(self.rest);
            if used == 0 {
                self.done = true; // cannot even skip: stop parsing
            } else {
                self.rest = &self.rest[used..];
            }
            item
        } else {
            self.done = true;
            // Every segment parsed cleanly yet bytes remain: the count
            // byte undershot the payload (a corrupted count), and whatever
            // those trailing bytes encode was never applied. Surface it
            // instead of silently swallowing data.
            if self.errored || self.rest.is_empty() {
                return None;
            }
            BlobItem::Fail(DecompressError::Malformed)
        };
        Some(self.tally(item))
    }
}

struct ParsedSegment {
    msn: u8,
    crc: u8,
    ident_lsb: u8,
    ack_lsbs: u32,
    ack_k: u32,
    window: Option<u16>,
    /// (tsval LSBs, tsecr LSBs, k)
    ts: Option<(u32, u32, u32)>,
    /// Up to four (start_rel, len) SACK blocks, inline — no heap.
    sack: Option<([(i64, u32); 4], u8)>,
    consumed: usize,
}

/// Structurally parse one segment given the flow's timestamp presence.
fn parse_segment(data: &[u8], has_ts: bool) -> Option<ParsedSegment> {
    if data.len() < 5 {
        return None;
    }
    let flags = data[1];
    let msn = data[2];
    let ident_lsb = data[3];
    let mut off = 4;
    let ack_k = match (flags & flagbits::ACK_K_MASK) >> flagbits::ACK_K_SHIFT {
        0 => 8u32,
        1 => 16,
        2 => 24,
        _ => 32,
    };
    let ack_bytes = (ack_k / 8) as usize;
    if data.len() < off + ack_bytes {
        return None;
    }
    let mut ack_lsbs = 0u32;
    for &b in &data[off..off + ack_bytes] {
        ack_lsbs = (ack_lsbs << 8) | u32::from(b);
    }
    off += ack_bytes;

    let window = if flags & flagbits::W != 0 {
        if data.len() < off + 2 {
            return None;
        }
        let w = u16::from_be_bytes([data[off], data[off + 1]]);
        off += 2;
        Some(w)
    } else {
        None
    };

    let ts = if has_ts {
        let k = if flags & flagbits::TS_K != 0 {
            16u32
        } else {
            8
        };
        let n = (k / 8) as usize;
        if data.len() < off + 2 * n {
            return None;
        }
        let mut v = 0u32;
        for &b in &data[off..off + n] {
            v = (v << 8) | u32::from(b);
        }
        off += n;
        let mut e = 0u32;
        for &b in &data[off..off + n] {
            e = (e << 8) | u32::from(b);
        }
        off += n;
        Some((v, e, k))
    } else {
        None
    };

    let sack = if flags & flagbits::S != 0 {
        let &count = data.get(off)?;
        off += 1;
        if count > 4 {
            return None;
        }
        let mut blocks = [(0i64, 0u32); 4];
        for b in blocks.iter_mut().take(usize::from(count)) {
            let (start_rel, n1) = read_ivarint(&data[off..])?;
            off += n1;
            let (len, n2) = read_uvarint(&data[off..])?;
            off += n2;
            *b = (start_rel, u32::try_from(len).ok()?);
        }
        Some((blocks, count))
    } else {
        None
    };

    Some(ParsedSegment {
        msn,
        crc: flags & flagbits::CRC_MASK,
        ident_lsb,
        ack_lsbs,
        ack_k,
        window,
        ts,
        sack,
        consumed: off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{build_blob, Compressor};
    use crate::md5::cid_for_tuple;
    use crate::varint::{write_ivarint, write_uvarint};
    use hack_tcp::{flags as tf, Ipv4Addr};
    use BlobItem::{Duplicate, Fail, Packet};

    fn ack(ackno: u32, ident: u16, ts: u32) -> Ipv4Packet {
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
                window: 1024,
                options: vec![TcpOption::Timestamps {
                    tsval: ts,
                    tsecr: ts.wrapping_sub(3),
                }]
                .into(),
                payload_len: 0,
            }),
        }
    }

    fn pair() -> (Compressor, Decompressor) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        let seed = ack(1000, 1, 10);
        c.observe_native(&seed);
        d.observe_native(&seed);
        (c, d)
    }

    /// Every item `d` yields for the blob of `segments`.
    fn decode<S: AsRef<[u8]>>(d: &mut Decompressor, segments: &[S]) -> Vec<BlobItem> {
        d.decode(&build_blob(segments)).collect()
    }

    #[test]
    fn roundtrip_chain_is_byte_exact() {
        let (mut c, mut d) = pair();
        for i in 1..=50u32 {
            let p = ack(1000 + i * 2920, 1 + i as u16, 10 + i);
            let seg = c.compress(&p).expect("compressible");
            let items = decode(&mut d, &[seg]);
            assert_eq!(
                items,
                [Packet(p.clone())],
                "i={i}: byte-exact reconstruction"
            );
        }
        assert_eq!(d.stats().decompressed, 50);
        assert_eq!(d.stats().crc_failures, 0);
    }

    #[test]
    fn trailing_bytes_after_count_are_malformed() {
        // A corrupted count byte that undershoots the payload must not
        // silently swallow the unparsed segments.
        let (mut c, mut d) = pair();
        let p = ack(3920, 2, 11);
        let seg = c.compress(&p).unwrap();
        let mut blob = build_blob(&[seg]);
        blob[0] = 0; // claims zero segments while one follows
        let before = d.stats().malformed;
        let items: Vec<_> = d.decode(&blob).collect();
        assert_eq!(items, [Fail(DecompressError::Malformed)]);
        assert_eq!(d.stats().malformed, before + 1);
    }

    #[test]
    fn multi_ack_blob() {
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let p2 = ack(6840, 3, 12);
        let s1 = c.compress(&p1).unwrap();
        let s2 = c.compress(&p2).unwrap();
        assert_eq!(decode(&mut d, &[s1, s2]), [Packet(p1), Packet(p2)]);
    }

    #[test]
    fn retained_blob_duplicates_are_discarded() {
        // The client re-attaches the same compressed ACKs to several LL
        // ACKs (retention, Figure 6). The AP must apply them once.
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let s1 = c.compress(&p1).unwrap();
        assert_eq!(decode(&mut d, std::slice::from_ref(&s1)), [Packet(p1)]);
        // Same blob again, now extended with a new ACK: the first
        // segment was already applied.
        let p2 = ack(6840, 3, 12);
        let s2 = c.compress(&p2).unwrap();
        assert_eq!(decode(&mut d, &[s1, s2]), [Duplicate, Packet(p2)]);
    }

    #[test]
    fn blob_overtaking_queued_natives_still_decodes() {
        // The core robustness property that forced W-LSB: native ACKs
        // N2, N3 are *enqueued* (compressor outstanding) but have not
        // reached the AP when a compressed ACK rides a Block ACK past
        // them.
        let (mut c, mut d) = pair();
        let n2 = ack(3920, 2, 11);
        let n3 = ack(6840, 3, 12);
        c.observe_native(&n2);
        c.observe_native(&n3);
        // AP has seen neither native. The compressed ACK must still
        // decode against the AP's older reference (the seed).
        let p4 = ack(9760, 4, 13);
        let seg = c.compress(&p4).expect("floor covers the seed");
        assert_eq!(decode(&mut d, &[seg]), [Packet(p4)]);
        // The stale natives now arrive late…
        d.observe_native(&n2);
        d.observe_native(&n3);
        // …and the next compressed ACK still decodes (floor still the
        // seed until confirmations).
        let p5 = ack(12680, 5, 14);
        let seg = c.compress(&p5).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p5)]);
    }

    #[test]
    fn lost_segments_do_not_poison_the_chain() {
        // Segments are floor-relative, not chained: dropping any prefix
        // leaves the rest decodable.
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let p2 = ack(6840, 3, 12);
        let p3 = ack(9760, 4, 13);
        let _lost1 = c.compress(&p1).unwrap();
        let _lost2 = c.compress(&p2).unwrap();
        let s3 = c.compress(&p3).unwrap();
        assert_eq!(decode(&mut d, &[s3]), [Packet(p3)]);
    }

    #[test]
    fn unknown_cid_reports_no_context() {
        let mut d = Decompressor::new();
        let (mut c, _) = pair();
        let seg = c.compress(&ack(3920, 2, 11)).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Fail(DecompressError::NoContext)]);
        assert_eq!(d.stats().no_context, 1);
    }

    #[test]
    fn malformed_blob_reports_error() {
        let mut d = Decompressor::new();
        let items: Vec<_> = d.decode(&[]).collect();
        assert_eq!(items, [Fail(DecompressError::Malformed)]);
        let items: Vec<_> = d.decode(&[3, 0x01]).collect();
        assert_eq!(items, [Fail(DecompressError::Malformed)]);
        assert_eq!(d.stats().malformed, 2);
    }

    #[test]
    fn drop_context_forces_native_reseed() {
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let seg = c.compress(&p1).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p1.clone())]);
        // Supervisor refresh on both sides.
        let tuple = p1.five_tuple();
        assert!(c.drop_context(&tuple));
        assert!(d.drop_context(&tuple));
        assert!(!c.drop_context(&tuple), "already dropped");
        assert_eq!(c.context_count(), 0);
        assert_eq!(d.context_count(), 0);
        // Compression now declines (no context) — the driver would send
        // natively, which re-seeds both ends.
        let p2 = ack(6840, 3, 12);
        assert!(c.compress(&p2).is_none());
        c.observe_native(&p2);
        d.observe_native(&p2);
        let p3 = ack(9760, 4, 13);
        let seg = c.compress(&p3).expect("re-seeded");
        assert_eq!(decode(&mut d, &[seg]), [Packet(p3)]);
    }

    #[test]
    fn drop_context_leaves_other_flows_alone() {
        let (mut c, mut d) = pair();
        // A second flow on different ports.
        let mut other = ack(1000, 1, 10);
        if let Transport::Tcp(t) = &mut other.transport {
            t.src_port = 40001;
        }
        c.observe_native(&other);
        d.observe_native(&other);
        assert_eq!(d.context_count(), 2);
        assert!(d.drop_context(&ack(1000, 1, 10).five_tuple()));
        assert_eq!(d.context_count(), 1);
        // The surviving flow still decodes.
        let mut o2 = ack(3920, 2, 11);
        if let Transport::Tcp(t) = &mut o2.transport {
            t.src_port = 40001;
        }
        let seg = c.compress(&o2).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(o2)]);
    }

    /// `ack` on the flow from source port `port`.
    fn ack_from(port: u16, ackno: u32, ident: u16, ts: u32) -> Ipv4Packet {
        let mut p = ack(ackno, ident, ts);
        if let Transport::Tcp(t) = &mut p.transport {
            t.src_port = port;
        }
        p
    }

    #[test]
    fn cid_collision_leaves_the_second_flow_native_only() {
        // Two source ports whose 5-tuples share a CID (§3.3.2 derives
        // it from MD5 with no coordination, so this happens to about a
        // third of 16-flow cells).
        let cid = |port| cid_for_tuple(&ack_from(port, 0, 0, 0).five_tuple().bytes());
        let second = (40_001..)
            .find(|&port| cid(port) == cid(40_000))
            .expect("some port collides");
        let (mut c, mut d) = pair();
        let first = ack(1000, 1, 10).five_tuple();
        let native = ack_from(second, 5000, 1, 10);
        c.observe_native(&native);
        d.observe_native(&native);
        // The second flow got no context at either end…
        assert_eq!((c.context_count(), d.context_count()), (1, 1));
        assert!(c.compress(&ack_from(second, 7920, 2, 11)).is_none());
        assert!(!c.drop_context(&native.five_tuple()));
        assert!(!d.drop_context(&native.five_tuple()));
        // …and the first is untouched: it still compresses and decodes,
        // and its context is still there to drop.
        let p = ack(3920, 2, 11);
        let seg = c.compress(&p).expect("first flow compresses");
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
        assert!(c.drop_context(&first));
        assert!(d.drop_context(&first));
    }

    #[test]
    fn window_change_roundtrips() {
        let (mut c, mut d) = pair();
        let mut p = ack(3920, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.window = 4096;
        }
        let seg = c.compress(&p).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
    }

    #[test]
    fn sack_blocks_roundtrip() {
        let (mut c, mut d) = pair();
        let mut p = ack(1000, 2, 11); // dup ACK
        if let Transport::Tcp(t) = &mut p.transport {
            t.options.push(TcpOption::Sack(
                [(TcpSeq(2460), TcpSeq(3920)), (TcpSeq(6840), TcpSeq(8300))]
                    .into_iter()
                    .collect(),
            ));
        }
        let seg = c.compress(&p).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
    }

    /// `ack` without the timestamps option.
    fn bare(ackno: u32, ident: u16) -> Ipv4Packet {
        let mut p = ack(ackno, ident, 0);
        if let Transport::Tcp(t) = &mut p.transport {
            t.options.clear();
        }
        p
    }

    #[test]
    fn timestamps_appearing_on_a_native_keep_both_folds_in_step() {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        c.observe_native(&bare(1000, 1));
        d.observe_native(&bare(1000, 1));
        let p = bare(2000, 2);
        let seg = c.compress(&p).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
        // The next native carries timestamps: the compressor's context
        // takes them on enqueue, the decompressor's on refresh.
        let native = ack(3000, 3, 10);
        c.observe_native(&native);
        d.observe_native(&native);
        for i in 1..=3 {
            let p = ack(3000 + 1000 * i, 3 + i as u16, 10 + i);
            let seg = c.compress(&p).expect("timestamps are the flow's now");
            assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
        }
        assert_eq!(d.stats().crc_failures, 0);
    }

    #[test]
    fn a_refresh_with_a_new_ttl_keeps_the_fold_in_step() {
        // The path to the peer changed length: ACKs now carry TTL 60.
        // The compressor declines them until a TTL-60 native is
        // confirmed; the decompressor refreshes its live context from
        // that native when it arrives.
        let (mut c, mut d) = pair();
        let shorter = |ackno, ident, ts| {
            let mut p = ack(ackno, ident, ts);
            p.ttl = 60;
            p
        };
        let native = shorter(3920, 2, 11);
        assert!(c.compress(&native).is_none());
        c.observe_native(&native);
        assert!(c.compress(&shorter(5380, 3, 12)).is_none(), "unconfirmed");
        d.observe_native(&native);
        c.confirm(&native);
        let p = shorter(6840, 4, 13);
        let seg = c.compress(&p).expect("the confirmed native's TTL");
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
        assert_eq!(d.stats().crc_failures, 0);
    }

    #[test]
    fn four_sack_blocks_beside_timestamps_decode_without_panicking() {
        // No compressor emits this, but a bit flip that sets S can:
        // 10 + 34 bytes of options, more than a TCP header holds. The
        // header is serialized for its CRC-3 as any SACK-bearing one.
        let (_, mut d) = pair();
        let blocks: SackBlocks = (0..4u32)
            .map(|i| (TcpSeq(2460 + 2920 * i), TcpSeq(3920 + 2920 * i)))
            .collect();
        let mut p = ack(1000, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.options.push(TcpOption::Sack(blocks));
        }
        let cid = cid_for_tuple(&p.five_tuple().bytes());
        let segment = |crc: u8| {
            let mut seg = vec![cid, flagbits::S | crc, 1, 2, 1000u32 as u8, 11, 8, 4];
            for &(start, end) in blocks.iter() {
                write_ivarint(&mut seg, i64::from(start - TcpSeq(1000)));
                write_uvarint(&mut seg, u64::from(end - start));
            }
            seg
        };
        let crc = crate::fold::byte_crc3(&p);
        assert_eq!(
            decode(&mut d, &[segment(crc ^ 1)]),
            [Fail(DecompressError::BadCrc)]
        );
        assert_eq!(decode(&mut d, &[segment(crc)]), [Packet(p)]);
    }

    #[test]
    fn large_timestamp_gap_uses_wide_field_and_roundtrips() {
        let (mut c, mut d) = pair();
        // 40 s of timestamp progress (e.g. an idle period): 16-bit TS.
        let p = ack(3920, 2, 40_000);
        let seg = c.compress(&p).unwrap();
        assert_eq!(decode(&mut d, &[seg]), [Packet(p)]);
    }
}
