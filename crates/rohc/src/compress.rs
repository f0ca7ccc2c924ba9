//! The HACK-profile header compressor (client-side driver component).
//!
//! Produces one compact, **self-contained** byte segment per pure TCP
//! ACK: every dynamic field is W-LSB encoded against the flow context's
//! floor (see [`crate::context`]), so segments decode correctly no
//! matter how blobs, retained duplicates, and native ACKs interleave or
//! get lost — the property §3.4 of the paper demands.
//!
//! The compressor is deliberately conservative: any packet shape it
//! cannot encode byte-exactly (flags other than a bare ACK, options
//! other than the flow's timestamps and one SACK option, a
//! sequence-number change, fields too far from the floor) makes
//! [`Compressor::compress`] return `None` and the driver falls back to
//! sending the ACK natively — which is also how contexts are created
//! and refreshed, since HACK never sends ROHC IR packets (§3.3.2).
//!
//! ## Wire format (one segment)
//!
//! ```text
//! CID:1  FLAGS:1  MSN:1  IDENT_LSB8:1  ACK_LSB:(1|2|3|4)
//! [WINDOW:2BE if W]  [TSVAL_LSB, TSECR_LSB:(1|2 each) if flow has TS]
//! [count:1 (start_rel:ivarint len:uvarint)* if S]
//!
//! FLAGS = [W][S][ack_k:2][ts_k:1][crc3:3]
//!          ack_k: 00=8 01=16 10=24 11=32 bits; ts_k: 0=8, 1=16 bits
//! ```
//!
//! `crc3` is the ROHC CRC-3 over the *original* IP+TCP header, and the
//! decompressor recomputes it over the reconstructed one. Neither end
//! writes a SACK-free ACK's header out: both compute its CRC from its
//! fields (the crate's `fold` module), on top of the part of the header
//! the flow's context fixes. A SACK-bearing ACK takes the byte path: its
//! header is serialized on the stack and `crc3` runs over it. The 8-bit
//! MSN implements the paper's extended master sequence number for
//! duplicate discard after Block ACK retransmission (§3.4, Figure 6).

use hack_inline::InlineVec;
use hack_tcp::{flags as tcpflags, FiveTuple, Ipv4Packet, TcpOption};
use hack_trace::{Event, TraceHandle};

use crate::cidmap::{FlowTable, Observed};
use crate::context::{compressible_ack, wlsb_k, CompContext, FieldRefs};
use crate::fold::byte_crc3;
use crate::varint::{write_ivarint, write_uvarint};

/// One compressed ACK segment. Inline capacity of 32 bytes covers every
/// SACK-free encoding (worst case 4 fixed + 4 ACK + 2 window + 4
/// timestamp LSBs = 14 bytes) and a timestamped dup-ACK with three SACK
/// blocks (typically 4 + 2 + 2 + 1 + 3 × 5 = 24 bytes).
pub type RohcSegment = InlineVec<u8, 32>;

/// Flag bit layout of the FLAGS octet.
pub(crate) mod flagbits {
    /// Explicit window field present.
    pub const W: u8 = 0x80;
    /// SACK blocks present.
    pub const S: u8 = 0x40;
    /// Two-bit ACK LSB width selector (shift).
    pub const ACK_K_SHIFT: u8 = 4;
    /// Mask for the ACK width selector.
    pub const ACK_K_MASK: u8 = 0x30;
    /// Timestamp LSB width selector (0 = 8 bits, 1 = 16 bits).
    pub const TS_K: u8 = 0x08;
    /// Low three bits: CRC-3 of the original header.
    pub const CRC_MASK: u8 = 0x07;
}

/// Byte widths selectable for the ACK field.
const ACK_K_CHOICES: [u32; 4] = [8, 16, 24, 32];

/// Compressor statistics.
#[derive(Debug, Default, Clone)]
pub struct CompressStats {
    /// ACKs successfully compressed.
    pub compressed: u64,
    /// Total compressed output bytes.
    pub compressed_bytes: u64,
    /// Total original header bytes of the ACKs that were compressed.
    pub original_bytes: u64,
    /// Packets declined (context missing or shape not encodable).
    pub declined: u64,
}

impl CompressStats {
    /// Achieved compression ratio (original / compressed), or 0 when
    /// nothing has been compressed.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// The client-side compressor.
#[derive(Debug, Default)]
pub struct Compressor {
    flows: FlowTable<CompContext>,
    stats: CompressStats,
    trace: TraceHandle,
    trace_node: u32,
    trace_now: u64,
}

impl Compressor {
    /// A compressor with no contexts.
    pub fn new() -> Self {
        Compressor::default()
    }

    /// Install the structured-event trace handle; `node` is the station
    /// this compressor runs on.
    pub fn set_trace(&mut self, trace: TraceHandle, node: u32) {
        self.trace = trace;
        self.trace_node = node;
    }

    /// Stamp the simulation time (nanoseconds) used for subsequent trace
    /// events. The compressor is sans-IO and has no clock of its own;
    /// the owning driver calls this on entry to each of its handlers.
    pub fn set_trace_clock(&mut self, now_nanos: u64) {
        self.trace_now = now_nanos;
    }

    /// Statistics.
    pub fn stats(&self) -> &CompressStats {
        &self.stats
    }

    /// Number of live contexts.
    pub fn context_count(&self) -> usize {
        self.flows.len()
    }

    /// Drop the flow's context entirely (supervisor-driven refresh): the
    /// next ACK for this tuple declines compression, goes out natively,
    /// and re-seeds a fresh context — the only refresh mechanism HACK
    /// has, since it never sends IR packets (§3.3.2). Returns whether a
    /// context was dropped. Other flows (including a CID-colliding one)
    /// are untouched.
    pub fn drop_context(&mut self, tuple: &FiveTuple) -> bool {
        self.flows.drop(tuple)
    }

    /// A native ACK was *enqueued* for transmission: create the flow's
    /// context if needed, or register the packet as an outstanding
    /// (unconfirmed) reference.
    pub fn observe_native(&mut self, pkt: &Ipv4Packet) {
        let Some(seg) = compressible_ack(pkt) else {
            return;
        };
        let Some(fresh) = CompContext::from_native(pkt) else {
            return;
        };
        match self.flows.observe(fresh) {
            Observed::Live(ctx) => ctx.native_enqueued(pkt, seg),
            Observed::Taken => {}
            Observed::Created(cid) => {
                hack_trace::trace_ev!(
                    self.trace,
                    self.trace_now,
                    self.trace_node,
                    Event::RohcCidAlloc {
                        cid: u64::from(cid)
                    }
                );
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

    /// The driver learned that `pkt` (native or previously compressed)
    /// reached the peer: advance the flow's floor, and take the TTL of a
    /// native that changed it.
    pub fn confirm(&mut self, pkt: &Ipv4Packet) {
        let Some(seg) = compressible_ack(pkt) else {
            return;
        };
        if let Some((_, ctx)) = self.flows.get_mut(&pkt.five_tuple()) {
            ctx.confirmed(pkt.ttl, &FieldRefs::of(pkt, seg));
        }
    }

    /// Try to compress `pkt`. Returns the encoded segment, or `None`
    /// when the packet must be sent natively.
    pub fn compress(&mut self, pkt: &Ipv4Packet) -> Option<RohcSegment> {
        let Some(seg) = compressible_ack(pkt) else {
            self.stats.declined += 1;
            return None;
        };
        let Some((cid, ctx)) = self.flows.get_mut(&pkt.five_tuple()) else {
            self.stats.declined += 1;
            return None;
        };
        let floor = ctx.effective_floor();
        let ts = seg.timestamps();
        // Shape checks: static chain, monotone distances within range.
        let ident_dist = pkt.ident.wrapping_sub(floor.ident);
        let ack_dist = seg.ack - floor.ack;
        let encodable = seg.flags == tcpflags::ACK
            && pkt.ttl == ctx.ttl
            && seg.seq == floor.seq
            && rebuilt_as_sent(&seg.options, ctx.has_ts)
            && ident_dist < 256
            && ack_dist < 0x8000_0000;
        if !encodable {
            self.stats.declined += 1;
            return None;
        }
        let ack_k = wlsb_k(u64::from(ack_dist), 0, &ACK_K_CHOICES).expect("32 always fits");

        let (ts_k, tsval, tsecr) = match ts {
            Some((v, e)) => {
                let dv = v.wrapping_sub(floor.tsval);
                let de = e.wrapping_sub(floor.tsecr);
                if dv >= 0x8000_0000 || de >= 0x8000_0000 {
                    self.stats.declined += 1;
                    return None;
                }
                if dv < 256 && de < 256 {
                    (8u32, v, e)
                } else if dv < 65_536 && de < 65_536 {
                    (16, v, e)
                } else {
                    self.stats.declined += 1;
                    return None;
                }
            }
            None => (8, 0, 0),
        };

        let window_explicit = !ctx.window_omittable(seg.window);
        ctx.last_emitted_window = Some(seg.window);
        let sack = seg.sack_blocks();

        let mut flags = 0u8;
        if window_explicit {
            flags |= flagbits::W;
        }
        if sack.is_some() {
            flags |= flagbits::S;
        }
        let ack_k_bits = match ack_k {
            8 => 0u8,
            16 => 1,
            24 => 2,
            _ => 3,
        };
        flags |= ack_k_bits << flagbits::ACK_K_SHIFT;
        if ts_k == 16 {
            flags |= flagbits::TS_K;
        }
        let refs = FieldRefs {
            ack: seg.ack,
            seq: seg.seq,
            window: seg.window,
            tsval,
            tsecr,
            ident: pkt.ident,
        };
        let crc = match sack {
            None => ctx.fold.ack_crc3(&refs),
            Some(_) => byte_crc3(pkt),
        };
        debug_assert_eq!(crc, byte_crc3(pkt), "field CRC-3 of {pkt:?}");
        flags |= crc & flagbits::CRC_MASK;

        let msn = ctx.msn.wrapping_add(1);
        ctx.msn = msn;
        hack_trace::trace_ev!(
            self.trace,
            self.trace_now,
            self.trace_node,
            Event::RohcContextUpdate {
                cid: u64::from(cid),
                msn: u32::from(msn),
            }
        );

        let mut out = RohcSegment::new();
        out.push(cid);
        out.push(flags);
        out.push(msn);
        out.push(pkt.ident as u8);
        // ACK LSBs, big-endian, ack_k/8 bytes.
        let ack_bytes = (ack_k / 8) as usize;
        out.extend_from_slice(&seg.ack.0.to_be_bytes()[4 - ack_bytes..]);
        if window_explicit {
            out.extend_from_slice(&seg.window.to_be_bytes());
        }
        if ctx.has_ts {
            let ts_bytes = (ts_k / 8) as usize;
            out.extend_from_slice(&tsval.to_be_bytes()[4 - ts_bytes..]);
            out.extend_from_slice(&tsecr.to_be_bytes()[4 - ts_bytes..]);
        }
        if let Some(blocks) = sack {
            out.push(u8::try_from(blocks.len().min(4)).expect("≤4"));
            for &(start, end) in blocks.iter().take(4) {
                write_ivarint(&mut out, i64::from(start.dist_from(seg.ack) as i32));
                write_uvarint(&mut out, u64::from(end - start));
            }
        }

        self.stats.compressed += 1;
        self.stats.compressed_bytes += out.len() as u64;
        self.stats.original_bytes += u64::from(pkt.wire_len());
        Some(out)
    }
}

/// Whether the decompressor rebuilds `options` exactly: the timestamps
/// if the flow has them, then at most one SACK option, within the 40
/// bytes of options a TCP header has room for. Any other list (another
/// option, SACK before the timestamps, timestamps on a flow without
/// them) would decode to a different header and fail CRC-3, or pass it
/// one time in eight and forge the ACK.
fn rebuilt_as_sent(options: &[TcpOption], has_ts: bool) -> bool {
    let rest = match options {
        [TcpOption::Timestamps { .. }, rest @ ..] if has_ts => rest,
        _ if has_ts => return false,
        _ => options,
    };
    match rest {
        [] => true,
        [TcpOption::Sack(_)] => options.iter().map(TcpOption::wire_len).sum::<usize>() <= 40,
        _ => false,
    }
}

/// Assemble compressed segments into a blob: `count` followed by the
/// concatenated segments (the frame the NIC appends to an LL ACK).
/// Generic over the segment representation so both `Vec<u8>` and
/// [`RohcSegment`] slices work.
pub fn build_blob<S: AsRef<[u8]>>(segments: &[S]) -> Vec<u8> {
    assert!(segments.len() <= 255, "blob segment count overflow");
    let mut out = Vec::with_capacity(1 + segments.iter().map(|s| s.as_ref().len()).sum::<usize>());
    out.push(segments.len() as u8);
    for s in segments {
        out.extend_from_slice(s.as_ref());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{flags as tf, Ipv4Addr, TcpOption, TcpSegment, TcpSeq, Transport};

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

    #[test]
    fn no_context_declines() {
        let mut c = Compressor::new();
        assert!(c.compress(&ack(1000, 1, 10)).is_none());
        assert_eq!(c.stats().declined, 1);
    }

    #[test]
    fn near_floor_acks_are_compact() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        // 2920 ahead of the floor: 16-bit ACK LSBs, 8-bit timestamps.
        let s = c.compress(&ack(3920, 2, 11)).unwrap();
        // CID+FLAGS+MSN+IDENT + ACK(2) + TSV(1)+TSE(1) = 8 bytes.
        assert_eq!(s.len(), 8, "{s:?}");
        assert!(c.stats().ratio() > 6.0);
    }

    #[test]
    fn segments_do_not_chain() {
        // Each segment is floor-relative: compressing N packets without
        // confirmations keeps working (k grows as distance grows).
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        for i in 1..=100u32 {
            let s = c
                .compress(&ack(1000 + i * 2920, 1 + i as u16, 10 + i))
                .expect("in-profile");
            assert!(s.len() <= 12);
        }
        assert_eq!(c.stats().compressed, 100);
    }

    #[test]
    fn confirmation_shrinks_encoding() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        // Push the distance out: needs 24-bit ACK LSBs.
        let far = ack(1000 + 5_000_000, 2, 11);
        let s_far = c.compress(&far).unwrap();
        // Confirm it: the floor advances, and the next nearby ACK is
        // compact again.
        c.confirm(&far);
        let s_near = c.compress(&ack(1000 + 5_002_920, 3, 12)).unwrap();
        assert!(s_near.len() < s_far.len());
    }

    #[test]
    fn ident_jump_declines_until_refresh() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        // ident jumped by 300: outside the 8-bit ident window.
        assert!(c.compress(&ack(3920, 301, 11)).is_none());
        // A native refresh (new outstanding ref) resynchronizes.
        c.observe_native(&ack(3920, 301, 11));
        assert!(c.compress(&ack(6840, 302, 12)).is_some());
    }

    #[test]
    fn seq_change_declines() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        let mut p = ack(3920, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.seq = TcpSeq(8888); // client sent data meanwhile
        }
        assert!(c.compress(&p).is_none());
    }

    #[test]
    fn non_bare_ack_flags_decline() {
        // The decompressor rebuilds a bare ACK's flags, so any other flag
        // would fail CRC-3 seven times in eight and forge the ACK the
        // eighth.
        const ECE: u8 = 0x40; // RFC 3168
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        for extra in [ECE, tf::PSH] {
            let mut p = ack(3920, 2, 11);
            if let Transport::Tcp(t) = &mut p.transport {
                t.flags |= extra;
            }
            assert!(c.compress(&p).is_none(), "flags {extra:#x}");
        }
        assert_eq!(c.stats().declined, 2);
        assert!(c.compress(&ack(3920, 2, 11)).is_some());
    }

    #[test]
    fn option_lists_the_decompressor_cannot_rebuild_decline() {
        let ts = TcpOption::Timestamps {
            tsval: 11,
            tsecr: 8,
        };
        let sack = |n: u32| {
            TcpOption::Sack(
                (0..n)
                    .map(|i| (TcpSeq(2460 + 2920 * i), TcpSeq(3920 + 2920 * i)))
                    .collect(),
            )
        };
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        for options in [
            vec![sack(1), ts.clone()],
            vec![ts.clone(), TcpOption::Mss(1460)],
            vec![ts.clone(), TcpOption::WindowScale(7)],
            vec![ts.clone(), TcpOption::SackPermitted],
            vec![ts.clone(), ts.clone()],
            vec![sack(1)],
            // 44 bytes of options: more than a TCP header holds.
            vec![ts.clone(), sack(4)],
        ] {
            let mut p = ack(1000, 2, 11);
            if let Transport::Tcp(t) = &mut p.transport {
                t.options = options.clone().into();
            }
            assert!(c.compress(&p).is_none(), "{options:?}");
        }
        assert_eq!(c.stats().declined, 7);
        for n in 0..=3 {
            let mut p = ack(1000, 2, 11);
            if let Transport::Tcp(t) = &mut p.transport {
                t.options = vec![ts.clone(), sack(n)].into();
            }
            assert!(c.compress(&p).is_some(), "{n} SACK blocks");
        }
    }

    #[test]
    fn data_packet_declines() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        let mut p = ack(3920, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.payload_len = 100;
        }
        assert!(c.compress(&p).is_none());
    }

    #[test]
    fn msn_increments_per_segment() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        let s1 = c.compress(&ack(2000, 2, 11)).unwrap();
        let s2 = c.compress(&ack(3000, 3, 12)).unwrap();
        assert_eq!(s1[2], 1);
        assert_eq!(s2[2], 2);
    }

    #[test]
    fn window_change_sets_flag() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        let mut p = ack(2000, 2, 11);
        if let Transport::Tcp(t) = &mut p.transport {
            t.window = 2048;
        }
        let s = c.compress(&p).unwrap();
        assert!(s[1] & flagbits::W != 0);
        // The next ACK reverts to the floor's window, but the previous
        // *emission* carried 2048 — the peer might hold either, so the
        // window must stay explicit.
        let s2 = c.compress(&ack(3000, 3, 12)).unwrap();
        assert!(s2[1] & flagbits::W != 0);
        // Once emissions and floor agree, the field is omitted.
        let steady = ack(4000, 4, 13);
        c.confirm(&steady);
        let s3 = c.compress(&ack(5000, 5, 14)).unwrap();
        assert!(s3[1] & flagbits::W == 0);
    }

    #[test]
    fn dup_ack_with_sack_compresses() {
        let mut c = Compressor::new();
        c.observe_native(&ack(1000, 1, 10));
        let mut p = ack(1000, 2, 11); // delta 0: duplicate ACK
        if let Transport::Tcp(t) = &mut p.transport {
            t.options.push(TcpOption::Sack(
                [(TcpSeq(2460), TcpSeq(3920))].into_iter().collect(),
            ));
        }
        let s = c.compress(&p).expect("dup ACKs must be expressible");
        assert!(s[1] & flagbits::S != 0);
    }

    #[test]
    fn blob_assembly() {
        let blob = build_blob(&[vec![1, 2], vec![3]]);
        assert_eq!(blob, vec![2, 1, 2, 3]);
        assert_eq!(build_blob::<Vec<u8>>(&[]), vec![0]);
    }
}
