//! The HACK-profile decompressor (AP-side driver component).
//!
//! Parses the blob extracted from an augmented LL ACK, reconstitutes
//! full IP+TCP ACK packets byte-exactly via forward W-LSB decoding,
//! validates them with the ROHC CRC-3 carried in the flags octet, and
//! discards duplicates by master sequence number — the mechanism that
//! makes the client's blob retention (§3.4, Figure 6) safe.
//!
//! Every segment is encoded against the compressor's floor, a value
//! not newer than any reference this side could hold, so a blob that
//! overtakes queued native ACKs, arrives duplicated, or skips lost
//! predecessors decodes correctly. A native sent *after* a held segment
//! that arrives first is the exception: it moves the references past
//! the segment, and the forward-only decode wraps by 2^k. The client
//! driver withdraws held segments up to each native its link layer
//! reports delivered; while that report is missing (the native's LL ACK
//! was lost), such a segment fails CRC-3, or passes it one time in
//! eight. A genuine desynchronization (e.g. a dropped native the
//! compressor folded into its floor) likewise surfaces as a CRC failure
//! and heals on the next native ACK, satisfying the paper's "must not
//! be persistent" requirement.

use hack_tcp::{flags as tcpflags, Ipv4Packet, TcpOption, TcpSegment, TcpSeq, Transport};
use hack_trace::{Event, TraceHandle};

use crate::cidmap::{CidMap, CtxTable};
use crate::compress::flagbits;
use crate::context::{compressible_ack, wlsb_decode, DecompContext, FieldRefs};
use crate::crc::crc3;
use crate::varint::{read_ivarint, read_uvarint};

/// Why one segment failed to decompress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// Byte-level parse failure (truncated field, bad count).
    Malformed,
    /// No context for the CID.
    NoContext,
    /// The reconstructed header failed CRC validation (context desync).
    BadCrc,
}

/// Result of decompressing one blob.
#[derive(Debug, Default)]
pub struct BlobResult {
    /// Successfully reconstituted ACK packets, in blob order.
    pub packets: Vec<Ipv4Packet>,
    /// Segments discarded as duplicates by master sequence number.
    pub duplicates: u32,
    /// Segments that failed (see [`DecompressError`]).
    pub errors: Vec<DecompressError>,
}

/// Decompressor statistics.
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
    /// across the per-AP decompressors of a multi-BSS world.
    pub fn merge(&mut self, other: &DecompressStats) {
        self.decompressed += other.decompressed;
        self.duplicates += other.duplicates;
        self.crc_failures += other.crc_failures;
        self.no_context += other.no_context;
        self.malformed += other.malformed;
    }
}

/// The AP-side decompressor.
#[derive(Debug, Default)]
pub struct Decompressor {
    contexts: CtxTable<DecompContext>,
    /// Per-flow CID cache — MD5 once per flow, not per native ACK (the
    /// compressed path carries the CID on the wire already); lookups go
    /// through the open-addressed [`CidMap`].
    cid_cache: CidMap,
    /// Reused header-serialization buffer for CRC-3 validation: one
    /// warm buffer per decompressor instead of a fresh `Vec` per
    /// reconstructed segment.
    scratch: Vec<u8>,
    stats: DecompressStats,
    trace: TraceHandle,
    trace_node: u32,
    trace_now: u64,
}

/// Stable wire code for a failure class (the `reason` payload of
/// [`Event::RohcDecompressFail`]).
pub fn decompress_error_code(e: DecompressError) -> u32 {
    match e {
        DecompressError::Malformed => 0,
        DecompressError::NoContext => 1,
        DecompressError::BadCrc => 2,
    }
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
        self.contexts.len()
    }

    /// Drop the flow's context entirely (supervisor-driven refresh); the
    /// next native ACK from the flow re-seeds it. Returns whether a
    /// context was dropped. Other flows sharing this decompressor are
    /// untouched.
    pub fn drop_context(&mut self, tuple: &hack_tcp::FiveTuple) -> bool {
        let cid = self
            .cid_cache
            .get(tuple)
            .unwrap_or_else(|| crate::md5::cid_for_tuple(&tuple.bytes()));
        match self.contexts.get(cid) {
            Some(ctx) if &ctx.tuple == tuple => {
                self.contexts.remove(cid);
                true
            }
            _ => false,
        }
    }

    /// A native TCP ACK arrived from the client: create or refresh its
    /// context (the AP "stores the necessary state for the new context
    /// and assigns it the correct CID", §3.3.2).
    pub fn observe_native(&mut self, pkt: &Ipv4Packet) {
        let Some(seg) = compressible_ack(pkt) else {
            return;
        };
        let Some(fresh) = DecompContext::from_native(pkt) else {
            return;
        };
        let cid = match self.cid_cache.get(&fresh.tuple) {
            Some(cid) => cid,
            None => {
                let cid = fresh.cid();
                self.cid_cache.insert(fresh.tuple, cid);
                cid
            }
        };
        match self.contexts.get_mut(cid) {
            Some(ctx) if ctx.tuple == pkt.five_tuple() => ctx.refresh_native(pkt, seg),
            Some(_) => {}
            None => {
                self.contexts.insert(cid, fresh);
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

    /// Decompress a full blob (`count` + segments) into an owned
    /// [`BlobResult`]. Convenience wrapper over [`Decompressor::decode`]
    /// — the hot path (the simulator's AP driver) iterates the cursor
    /// directly and never materializes the packet `Vec`.
    pub fn decompress_blob(&mut self, blob: &[u8]) -> BlobResult {
        let mut res = BlobResult::default();
        for item in self.decode(blob) {
            match item {
                BlobItem::Packet(p) => res.packets.push(p),
                BlobItem::Duplicate => res.duplicates += 1,
                BlobItem::Fail(e) => res.errors.push(e),
            }
        }
        res
    }

    /// Streaming zero-copy decode: a cursor that yields one
    /// [`BlobItem`] at a time, parsing W-LSB/varint fields straight out
    /// of `blob` (the delivered MPDU buffer). No intermediate segment
    /// buffers, no packet `Vec` — each reconstructed ACK is handed to
    /// the caller as it decodes. Stats and trace events are identical
    /// to [`Decompressor::decompress_blob`].
    pub fn decode<'a, 'd>(&'d mut self, blob: &'a [u8]) -> BlobDecoder<'a, 'd> {
        match blob.split_first() {
            Some((&count, rest)) => BlobDecoder {
                d: self,
                rest,
                remaining: u32::from(count),
                start_failed: false,
                errored: false,
                done: false,
            },
            None => BlobDecoder {
                d: self,
                rest: blob,
                remaining: 0,
                start_failed: true,
                errored: false,
                done: false,
            },
        }
    }

    fn trace_fail(&self, e: DecompressError) {
        hack_trace::trace_ev!(
            self.trace,
            self.trace_now,
            self.trace_node,
            Event::RohcDecompressFail {
                reason: decompress_error_code(e)
            }
        );
    }

    /// Decompress one segment. `Ok((None, n))` = duplicate (skipped).
    fn decompress_one(
        &mut self,
        data: &[u8],
    ) -> Result<(Option<Ipv4Packet>, usize), (DecompressError, usize)> {
        // Structural parse first — we need TS presence, which is context
        // state, so look the context up before the variable-length tail.
        if data.len() < 5 {
            self.stats.malformed += 1;
            return Err((DecompressError::Malformed, 0));
        }
        let cid = data[0];
        let Some(ctx) = self.contexts.get(cid) else {
            // Without the context we cannot even size the segment
            // (timestamp presence is per-flow), so the rest of the blob
            // is unparseable.
            self.stats.no_context += 1;
            return Err((DecompressError::NoContext, 0));
        };
        let has_ts = ctx.has_ts;
        let parsed = match parse_segment(data, has_ts) {
            Some(p) => p,
            None => {
                self.stats.malformed += 1;
                return Err((DecompressError::Malformed, 0));
            }
        };

        // Duplicate discard by master sequence number — but only while
        // the MSN anchor is trusted. A native refresh clears the anchor
        // (see `DecompContext::msn_valid`), so the first segment after a
        // native is always decoded rather than risk a corruption-planted
        // MSN discarding valid traffic; the CRC-3 check below still
        // gates what gets forwarded.
        let ctx = self.contexts.get_mut(cid).expect("looked up above");
        let msn_dist = parsed.msn.wrapping_sub(ctx.msn);
        if ctx.msn_valid && (msn_dist == 0 || msn_dist > 128) {
            self.stats.duplicates += 1;
            return Ok((None, parsed.consumed));
        }

        // Forward W-LSB reconstruction against our current references.
        let refs = ctx.refs;
        let ack = TcpSeq(wlsb_decode(
            u64::from(refs.ack.0),
            u64::from(parsed.ack_lsbs),
            parsed.ack_k,
        ) as u32);
        let ident = wlsb_decode(u64::from(refs.ident), u64::from(parsed.ident_lsb), 8) as u16;
        let window = parsed.window.unwrap_or(refs.window);
        let ts = if has_ts {
            let (v_lsb, e_lsb, k) = parsed.ts.expect("parsed with has_ts");
            Some((
                wlsb_decode(u64::from(refs.tsval), u64::from(v_lsb), k) as u32,
                wlsb_decode(u64::from(refs.tsecr), u64::from(e_lsb), k) as u32,
            ))
        } else {
            None
        };

        let mut options = hack_tcp::TcpOptions::new();
        if let Some((tsval, tsecr)) = ts {
            options.push(TcpOption::Timestamps { tsval, tsecr });
        }
        if let Some((blocks, n)) = &parsed.sack {
            options.push(TcpOption::Sack(
                blocks[..usize::from(*n)]
                    .iter()
                    .map(|&(start_rel, len)| {
                        let start = ack + (start_rel as u32);
                        (start, start + len)
                    })
                    .collect(),
            ));
        }

        let pkt = Ipv4Packet {
            src: ctx.tuple.src_ip,
            dst: ctx.tuple.dst_ip,
            ident,
            ttl: ctx.ttl,
            transport: Transport::Tcp(TcpSegment {
                src_port: ctx.tuple.src_port,
                dst_port: ctx.tuple.dst_port,
                seq: refs.seq,
                ack,
                flags: tcpflags::ACK,
                window,
                options,
                payload_len: 0,
            }),
        };

        // CRC validation over the reconstructed original header,
        // serialized into the reused scratch buffer (no per-segment Vec).
        pkt.header_bytes_into(&mut self.scratch);
        if crc3(&self.scratch) & flagbits::CRC_MASK != parsed.crc {
            self.stats.crc_failures += 1;
            return Err((DecompressError::BadCrc, parsed.consumed));
        }

        // Commit: our references move to the decoded packet.
        let seg = compressible_ack(&pkt).expect("constructed as pure ACK");
        ctx.refs = FieldRefs::of(&pkt, seg);
        ctx.msn = parsed.msn;
        ctx.msn_valid = true;
        self.stats.decompressed += 1;
        hack_trace::trace_ev!(
            self.trace,
            self.trace_now,
            self.trace_node,
            Event::RohcContextUpdate {
                cid: u64::from(cid),
                msn: u32::from(parsed.msn)
            }
        );
        Ok((Some(pkt), parsed.consumed))
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
/// [`Decompressor::decode`]; item order, statistics, and trace events
/// match the batch [`Decompressor::decompress_blob`] exactly.
#[derive(Debug)]
pub struct BlobDecoder<'a, 'd> {
    d: &'d mut Decompressor,
    rest: &'a [u8],
    remaining: u32,
    /// The blob had no count byte at all (empty input).
    start_failed: bool,
    /// Whether any segment error was emitted (suppresses the trailing-
    /// bytes check, matching the batch decoder).
    errored: bool,
    done: bool,
}

impl Iterator for BlobDecoder<'_, '_> {
    type Item = BlobItem;

    fn next(&mut self) -> Option<BlobItem> {
        if self.done {
            return None;
        }
        if self.start_failed {
            self.done = true;
            self.d.stats.malformed += 1;
            self.d.trace_fail(DecompressError::Malformed);
            return Some(BlobItem::Fail(DecompressError::Malformed));
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            if self.rest.is_empty() {
                self.done = true;
                self.d.stats.malformed += 1;
                self.d.trace_fail(DecompressError::Malformed);
                return Some(BlobItem::Fail(DecompressError::Malformed));
            }
            return Some(match self.d.decompress_one(self.rest) {
                Ok((pkt, used)) => {
                    self.rest = &self.rest[used..];
                    match pkt {
                        Some(p) => BlobItem::Packet(p),
                        None => BlobItem::Duplicate,
                    }
                }
                Err((e, used)) => {
                    self.errored = true;
                    self.d.trace_fail(e);
                    if used == 0 {
                        self.done = true; // cannot even skip: stop parsing
                    } else {
                        self.rest = &self.rest[used..];
                    }
                    BlobItem::Fail(e)
                }
            });
        }
        self.done = true;
        // Every segment parsed cleanly yet bytes remain: the count byte
        // undershot the payload (a corrupted count), and whatever those
        // trailing bytes encode was never applied. Surface it instead of
        // silently swallowing data.
        if !self.errored && !self.rest.is_empty() {
            self.d.stats.malformed += 1;
            self.d.trace_fail(DecompressError::Malformed);
            return Some(BlobItem::Fail(DecompressError::Malformed));
        }
        None
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
    use hack_tcp::{flags as tf, Ipv4Addr, TcpOption};

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

    #[test]
    fn roundtrip_chain_is_byte_exact() {
        let (mut c, mut d) = pair();
        for i in 1..=50u32 {
            let p = ack(1000 + i * 2920, 1 + i as u16, 10 + i);
            let seg = c.compress(&p).expect("compressible");
            let blob = build_blob(&[seg]);
            let res = d.decompress_blob(&blob);
            assert!(res.errors.is_empty(), "i={i}: {:?}", res.errors);
            assert_eq!(res.packets.len(), 1);
            assert_eq!(&res.packets[0], &p, "byte-exact reconstruction");
            assert_eq!(res.packets[0].header_bytes(), p.header_bytes());
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
        let res = d.decompress_blob(&blob);
        assert!(res.packets.is_empty());
        assert_eq!(res.errors, vec![DecompressError::Malformed]);
        assert_eq!(d.stats().malformed, before + 1);
    }

    #[test]
    fn multi_ack_blob() {
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let p2 = ack(6840, 3, 12);
        let s1 = c.compress(&p1).unwrap();
        let s2 = c.compress(&p2).unwrap();
        let blob = build_blob(&[s1, s2]);
        let res = d.decompress_blob(&blob);
        assert_eq!(res.packets, vec![p1, p2]);
    }

    #[test]
    fn retained_blob_duplicates_are_discarded() {
        // The client re-attaches the same compressed ACKs to several LL
        // ACKs (retention, Figure 6). The AP must apply them once.
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let s1 = c.compress(&p1).unwrap();
        let blob = build_blob(std::slice::from_ref(&s1));
        let res = d.decompress_blob(&blob);
        assert_eq!(res.packets.len(), 1);
        // Same blob again, now extended with a new ACK.
        let p2 = ack(6840, 3, 12);
        let s2 = c.compress(&p2).unwrap();
        let blob2 = build_blob(&[s1, s2]);
        let res2 = d.decompress_blob(&blob2);
        assert_eq!(res2.duplicates, 1, "first segment already applied");
        assert_eq!(res2.packets, vec![p2]);
        assert!(res2.errors.is_empty());
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
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(res.packets, vec![p4.clone()]);
        // The stale natives now arrive late: refs regress harmlessly…
        d.observe_native(&n2);
        d.observe_native(&n3);
        // …and the next compressed ACK still decodes (floor still the
        // seed until confirmations).
        let p5 = ack(12680, 5, 14);
        let seg = c.compress(&p5).unwrap();
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(res.packets, vec![p5]);
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
        let res = d.decompress_blob(&build_blob(&[s3]));
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(res.packets, vec![p3]);
    }

    #[test]
    fn unknown_cid_reports_no_context() {
        let mut d = Decompressor::new();
        let (mut c, _) = pair();
        let seg = c.compress(&ack(3920, 2, 11)).unwrap();
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert_eq!(res.errors, vec![DecompressError::NoContext]);
        assert_eq!(d.stats().no_context, 1);
    }

    #[test]
    fn malformed_blob_reports_error() {
        let mut d = Decompressor::new();
        let res = d.decompress_blob(&[]);
        assert_eq!(res.errors, vec![DecompressError::Malformed]);
        let res = d.decompress_blob(&[3, 0x01]);
        assert!(
            res.errors.contains(&DecompressError::Malformed)
                || res.errors.contains(&DecompressError::NoContext)
        );
    }

    #[test]
    fn drop_context_forces_native_reseed() {
        let (mut c, mut d) = pair();
        let p1 = ack(3920, 2, 11);
        let seg = c.compress(&p1).unwrap();
        assert_eq!(d.decompress_blob(&build_blob(&[seg])).packets.len(), 1);
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
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(res.packets, vec![p3]);
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
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert_eq!(res.packets, vec![o2]);
    }

    #[test]
    fn window_change_roundtrips() {
        let (mut c, mut d) = pair();
        let mut p = ack(3920, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.window = 4096;
        }
        let seg = c.compress(&p).unwrap();
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert_eq!(res.packets, vec![p]);
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
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(res.packets, vec![p]);
    }

    #[test]
    fn large_timestamp_gap_uses_wide_field_and_roundtrips() {
        let (mut c, mut d) = pair();
        // 40 s of timestamp progress (e.g. an idle period): 16-bit TS.
        let p = ack(3920, 2, 40_000);
        let seg = c.compress(&p).unwrap();
        let res = d.decompress_blob(&build_blob(&[seg]));
        assert_eq!(res.packets, vec![p]);
    }
}
