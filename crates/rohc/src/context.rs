//! Compression contexts: the per-flow state shared (by construction,
//! never by communication) between compressor and decompressor.
//!
//! ## Why W-LSB and not delta chains
//!
//! Compressed ACKs ride link-layer acknowledgments, which can *overtake*
//! native ACKs still queued at the MAC — and blobs or natives can be
//! lost independently. The decompressor's reference for each field is
//! therefore only known to be no older than the compressor's **floor**
//! (the oldest value that could still be the peer's reference). ROHC's
//! window-based LSB encoding handles this: transmit enough low-order
//! bits of the *value* that any reference in `[floor, value]` decodes
//! it unambiguously. All the dynamic fields HACK compresses (ACK number,
//! timestamps, IP ident) are monotone non-decreasing, so decoding is
//! forward-only: `v = ref + ((lsbs − ref) mod 2^k)`.
//!
//! The window ends at the value being encoded: a native sent after a
//! held segment can reach the peer first and leave its reference above
//! the segment's values, where no `k` decodes them. The client driver
//! therefore withdraws held segments up to each native reported
//! delivered; while a report is missing, the race stays open. The
//! window also starts at the floor, which assumes the peer's references
//! never move back; a native that reaches the decompressor after newer
//! values were decoded moves them back all the same
//! ([`DecompContext::refresh_native`]).
//!
//! The compressor maintains the floor from the driver's confirmation
//! signals: a native ACK is outstanding from enqueue until the MAC
//! reports it delivered; a compressed ACK is outstanding until a §3.4
//! confirmation. The floor is the oldest outstanding snapshot.

use std::collections::VecDeque;

use hack_tcp::{FiveTuple, Ipv4Packet, TcpSegment, TcpSeq, Transport};

use crate::cidmap::FlowContext;
use crate::fold::HeaderFold;

/// A snapshot of the dynamic header fields of one ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRefs {
    /// TCP acknowledgment number.
    pub ack: TcpSeq,
    /// TCP sequence number (effectively static for a pure receiver).
    pub seq: TcpSeq,
    /// On-wire window field.
    pub window: u16,
    /// Timestamp value (0 when the flow has no timestamps).
    pub tsval: u32,
    /// Timestamp echo.
    pub tsecr: u32,
    /// IP identification.
    pub ident: u16,
}

impl FieldRefs {
    /// Extract from a pure-ACK packet.
    pub fn of(pkt: &Ipv4Packet, seg: &TcpSegment) -> FieldRefs {
        let (tsval, tsecr) = seg.timestamps().unwrap_or((0, 0));
        FieldRefs {
            ack: seg.ack,
            seq: seg.seq,
            window: seg.window,
            tsval,
            tsecr,
            ident: pkt.ident,
        }
    }

    /// Component-wise forward max (fields are monotone, so this is the
    /// newer snapshot per field).
    pub fn max_with(&mut self, other: &FieldRefs) {
        if other.ack.ge(self.ack) {
            self.ack = other.ack;
        }
        if other.seq.ge(self.seq) {
            self.seq = other.seq;
        }
        if other.tsval.wrapping_sub(self.tsval) < 0x8000_0000 {
            self.tsval = other.tsval;
        }
        if other.tsecr.wrapping_sub(self.tsecr) < 0x8000_0000 {
            self.tsecr = other.tsecr;
        }
        if other.ident.wrapping_sub(self.ident) < 0x8000 {
            self.ident = other.ident;
        }
        self.window = other.window;
    }
}

/// Shared static context plus the compressor-side window state.
#[derive(Debug, Clone)]
pub struct CompContext {
    /// The flow (ACK direction).
    pub tuple: FiveTuple,
    /// Cached TTL (static chain).
    pub ttl: u8,
    /// Whether the flow carries the timestamps option.
    pub has_ts: bool,
    /// Oldest reference the decompressor could still hold.
    pub floor: FieldRefs,
    /// Snapshots of natives enqueued but not yet confirmed delivered.
    pub outstanding: VecDeque<FieldRefs>,
    /// Window value of the most recent compressed emission (unlike the
    /// other fields, the window is not monotone, so omitting it is only
    /// safe when every reference the peer could hold equals the current
    /// value).
    pub last_emitted_window: Option<u16>,
    /// Master sequence number of the last compressed packet.
    pub msn: u8,
    /// The header bytes `tuple`, `ttl` and `has_ts` fix, folded for
    /// CRC-3 ([`HeaderFold::of_flow`]).
    pub(crate) fold: HeaderFold,
}

/// Cap on tracked outstanding natives; beyond this the oldest are folded
/// into the floor (conservatively assuming delivery — a wrong assumption
/// surfaces as a CRC failure and heals on the next native).
const OUTSTANDING_CAP: usize = 64;

impl CompContext {
    /// Seed a context from a natively transmitted pure ACK.
    pub fn from_native(pkt: &Ipv4Packet) -> Option<CompContext> {
        let Transport::Tcp(seg) = &pkt.transport else {
            return None;
        };
        if !seg.is_pure_ack() {
            return None;
        }
        let tuple = pkt.five_tuple();
        let has_ts = seg.timestamps().is_some();
        Some(CompContext {
            tuple,
            ttl: pkt.ttl,
            has_ts,
            floor: FieldRefs::of(pkt, seg),
            outstanding: VecDeque::new(),
            last_emitted_window: None,
            msn: 0,
            fold: HeaderFold::of_flow(&tuple, pkt.ttl, has_ts),
        })
    }

    /// Is it safe to omit the explicit window field for `window`? Only
    /// when every reference the decompressor could hold carries the same
    /// value.
    pub fn window_omittable(&self, window: u16) -> bool {
        self.floor.window == window
            && self.outstanding.iter().all(|o| o.window == window)
            && self.last_emitted_window.is_none_or(|w| w == window)
    }

    /// A native ACK was enqueued for transmission: it becomes an
    /// outstanding (unconfirmed) reference.
    pub fn native_enqueued(&mut self, pkt: &Ipv4Packet, seg: &TcpSegment) {
        if self.outstanding.len() == OUTSTANDING_CAP {
            if let Some(old) = self.outstanding.pop_front() {
                self.floor.max_with(&old);
            }
        }
        self.outstanding.push_back(FieldRefs::of(pkt, seg));
        if !self.has_ts && seg.timestamps().is_some() {
            self.has_ts = true;
            self.fold = HeaderFold::of_flow(&self.tuple, self.ttl, true);
        }
    }

    /// A previously enqueued native (or a compressed ACK, per §3.4
    /// confirmation) with IP TTL `ttl` is now known to have reached the
    /// peer: advance the floor and drop confirmed outstanding entries.
    ///
    /// The peer's context took the TTL of that packet when it arrived
    /// ([`DecompContext::refresh_native`]), so a packet no older than
    /// the floor moves this context to its TTL too. Adopting it when the
    /// native is enqueued instead would compress against a TTL the peer
    /// may not have yet.
    pub fn confirmed(&mut self, ttl: u8, refs: &FieldRefs) {
        let newest = refs.ident.wrapping_sub(self.floor.ident) < 0x8000;
        if newest && ttl != self.ttl {
            self.ttl = ttl;
            self.fold = HeaderFold::of_flow(&self.tuple, ttl, self.has_ts);
        }
        self.floor.max_with(refs);
        // Outstanding entries are FIFO in transmission order; everything
        // sent up to (and including) the confirmed packet is no longer a
        // possible stale reference. IP ident is the per-packet serial.
        while let Some(front) = self.outstanding.front() {
            let sent_no_later = refs.ident.wrapping_sub(front.ident) < 0x8000;
            if sent_no_later {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
    }

    /// The oldest reference the peer might still hold — the window base
    /// for k-selection.
    pub fn effective_floor(&self) -> FieldRefs {
        self.outstanding.front().copied().unwrap_or(self.floor)
    }
}

/// Decompressor-side context: the current reference values.
#[derive(Debug, Clone)]
pub struct DecompContext {
    /// The flow.
    pub tuple: FiveTuple,
    /// Cached TTL.
    pub ttl: u8,
    /// Whether the flow carries timestamps.
    pub has_ts: bool,
    /// Current reference values.
    pub refs: FieldRefs,
    /// Master sequence number of the last accepted packet.
    pub msn: u8,
    /// Whether `msn` anchors the duplicate-discard window. Cleared by
    /// every native refresh: a corrupted segment that slips past CRC-3
    /// can plant a bogus MSN, and without this reset the window would
    /// discard valid segments for up to 128 MSNs. A native ACK is ground
    /// truth, so it re-syncs MSN tracking along with the field refs.
    pub msn_valid: bool,
    /// The header bytes `tuple`, `ttl` and `has_ts` fix, folded for
    /// CRC-3 ([`HeaderFold::of_flow`]).
    pub(crate) fold: HeaderFold,
}

impl DecompContext {
    /// Seed from a natively received pure ACK.
    pub fn from_native(pkt: &Ipv4Packet) -> Option<DecompContext> {
        let Transport::Tcp(seg) = &pkt.transport else {
            return None;
        };
        if !seg.is_pure_ack() {
            return None;
        }
        let tuple = pkt.five_tuple();
        let has_ts = seg.timestamps().is_some();
        Some(DecompContext {
            tuple,
            ttl: pkt.ttl,
            has_ts,
            refs: FieldRefs::of(pkt, seg),
            msn: 0,
            msn_valid: false,
            fold: HeaderFold::of_flow(&tuple, pkt.ttl, has_ts),
        })
    }

    /// Refresh from a natively received ACK, taken as ground truth in
    /// arrival order: this is how any desynchronization heals. The
    /// references move back when the native arrived after newer values
    /// were decoded, and that is not covered: the compressor's windows
    /// start at its floor, which assumes the references never move
    /// back, so the next segment's LSBs may not reach its values
    /// (RFC 3095 §4.5.1) and it fails CRC-3, or passes it one time in
    /// eight.
    pub fn refresh_native(&mut self, pkt: &Ipv4Packet, seg: &TcpSegment) {
        self.refs = FieldRefs::of(pkt, seg);
        let has_ts = self.has_ts || seg.timestamps().is_some();
        if (pkt.ttl, has_ts) != (self.ttl, self.has_ts) {
            self.ttl = pkt.ttl;
            self.has_ts = has_ts;
            self.fold = HeaderFold::of_flow(&self.tuple, self.ttl, has_ts);
        }
        self.msn_valid = false;
    }
}

impl FlowContext for CompContext {
    fn tuple(&self) -> &FiveTuple {
        &self.tuple
    }
}

impl FlowContext for DecompContext {
    fn tuple(&self) -> &FiveTuple {
        &self.tuple
    }
}

/// Extract the TCP segment from a packet, if it is a compressible pure
/// ACK.
pub fn compressible_ack(pkt: &Ipv4Packet) -> Option<&TcpSegment> {
    match &pkt.transport {
        Transport::Tcp(t) if t.is_pure_ack() => Some(t),
        _ => None,
    }
}

/// Forward-only W-LSB decode: the smallest `v ≥ ref` whose low `k` bits
/// equal `lsbs`.
pub fn wlsb_decode(reference: u64, lsbs: u64, k: u32) -> u64 {
    debug_assert!(k <= 64);
    if k == 64 {
        return lsbs;
    }
    let modulus = 1u64 << k;
    let delta = lsbs.wrapping_sub(reference) & (modulus - 1);
    reference.wrapping_add(delta)
}

/// The number of bits needed so any reference in `[floor, value]`
/// decodes `value`: `value − floor < 2^k`.
pub fn wlsb_k(value: u64, floor: u64, choices: &[u32]) -> Option<u32> {
    let dist = value.wrapping_sub(floor);
    choices
        .iter()
        .copied()
        .find(|&k| k == 64 || dist < (1u64 << k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cidmap::{FlowTable, Observed};
    use crate::fold::byte_crc3;
    use crate::md5::cid_for_tuple;
    use hack_tcp::{flags, Ipv4Addr, TcpOption};

    fn ack_packet(ack: u32, ident: u16, tsval: u32) -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            ident,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 40000,
                dst_port: 5001,
                seq: TcpSeq(7777),
                ack: TcpSeq(ack),
                flags: flags::ACK,
                window: 1024,
                options: vec![TcpOption::Timestamps {
                    tsval,
                    tsecr: tsval.wrapping_sub(3),
                }]
                .into(),
                payload_len: 0,
            }),
        }
    }

    #[test]
    fn wlsb_decode_exact_when_in_window() {
        for (reference, value, k) in [
            (100u64, 100u64, 8u32),
            (100, 355, 8),
            (100, 100 + 255, 8),
            (0, 65_535, 16),
            (1_000_000, 1_093_440, 24),
            (u64::from(u32::MAX) - 5, u64::from(u32::MAX) + 10, 8),
        ] {
            let lsbs = value & ((1u64 << k) - 1);
            assert_eq!(
                wlsb_decode(reference, lsbs, k),
                value,
                "ref={reference} v={value} k={k}"
            );
        }
    }

    #[test]
    fn wlsb_decode_any_ref_in_window() {
        // Every reference in [floor, value] must decode correctly when k
        // covers value − floor.
        let value = 1_234_567u64;
        let floor = value - 60_000;
        let k = wlsb_k(value, floor, &[8, 16, 24, 32]).unwrap();
        assert_eq!(k, 16);
        for reference in (floor..=value).step_by(777) {
            let lsbs = value & ((1u64 << k) - 1);
            assert_eq!(wlsb_decode(reference, lsbs, k), value);
        }
    }

    #[test]
    fn wlsb_k_picks_minimal() {
        assert_eq!(wlsb_k(100, 100, &[8, 16, 24, 32]), Some(8));
        assert_eq!(wlsb_k(400, 100, &[8, 16, 24, 32]), Some(16));
        assert_eq!(wlsb_k(100_000, 100, &[8, 16, 24, 32]), Some(24));
        assert_eq!(wlsb_k(u64::from(u32::MAX), 0, &[8, 16, 24, 32]), Some(32));
        assert_eq!(wlsb_k(1 << 40, 0, &[8, 16]), None);
    }

    #[test]
    fn context_floor_tracks_outstanding() {
        let p0 = ack_packet(1000, 1, 10);
        let mut ctx = CompContext::from_native(&p0).unwrap();
        assert_eq!(ctx.effective_floor().ack, TcpSeq(1000));

        // Two natives enqueued: the floor is the oldest outstanding.
        let p1 = ack_packet(2000, 2, 11);
        let p2 = ack_packet(3000, 3, 12);
        let (s1, s2) = (
            compressible_ack(&p1).unwrap().clone(),
            compressible_ack(&p2).unwrap().clone(),
        );
        ctx.native_enqueued(&p1, &s1);
        ctx.native_enqueued(&p2, &s2);
        assert_eq!(ctx.effective_floor().ack, TcpSeq(2000));

        // Confirming the first advances the floor to it and drops it.
        ctx.confirmed(p1.ttl, &FieldRefs::of(&p1, &s1));
        assert_eq!(ctx.effective_floor().ack, TcpSeq(3000));
        ctx.confirmed(p2.ttl, &FieldRefs::of(&p2, &s2));
        assert_eq!(ctx.effective_floor().ack, TcpSeq(3000));
        assert!(ctx.outstanding.is_empty());
    }

    #[test]
    fn overflow_folds_into_floor() {
        let p0 = ack_packet(0, 0, 0);
        let mut ctx = CompContext::from_native(&p0).unwrap();
        for i in 0..80u32 {
            let p = ack_packet(1000 + i * 10, 1 + i as u16, i);
            let s = compressible_ack(&p).unwrap().clone();
            ctx.native_enqueued(&p, &s);
        }
        assert_eq!(ctx.outstanding.len(), OUTSTANDING_CAP);
        assert!(ctx.floor.ack.gt(TcpSeq(0)), "floor advanced by folding");
    }

    #[test]
    fn field_refs_max_is_forward() {
        let p1 = ack_packet(1000, 5, 10);
        let p2 = ack_packet(3000, 7, 12);
        let s1 = compressible_ack(&p1).unwrap().clone();
        let s2 = compressible_ack(&p2).unwrap().clone();
        let mut a = FieldRefs::of(&p1, &s1);
        let b = FieldRefs::of(&p2, &s2);
        a.max_with(&b);
        assert_eq!(a.ack, TcpSeq(3000));
        assert_eq!(a.ident, 7);
        // Maxing with an older snapshot is a no-op for monotone fields.
        let c = FieldRefs::of(&p1, &s1);
        a.max_with(&c);
        assert_eq!(a.ack, TcpSeq(3000));
        assert_eq!(a.ident, 7);
    }

    #[test]
    fn the_static_fold_follows_timestamps_and_ttl() {
        // Each context's field CRC-3 of `p` is the byte path's.
        let check = |comp: &CompContext, decomp: &DecompContext, p: &Ipv4Packet| {
            let seg = compressible_ack(p).unwrap();
            let refs = FieldRefs::of(p, seg);
            assert_eq!(comp.fold.ack_crc3(&refs), byte_crc3(p));
            assert_eq!(decomp.fold.ack_crc3(&refs), byte_crc3(p));
        };
        let bare = |ack, ident| {
            let mut p = ack_packet(ack, ident, 0);
            if let Transport::Tcp(t) = &mut p.transport {
                t.options.clear();
            }
            p
        };
        let seed = bare(1000, 1);
        let mut comp = CompContext::from_native(&seed).unwrap();
        let mut decomp = DecompContext::from_native(&seed).unwrap();
        check(&comp, &decomp, &bare(2000, 2));

        // Timestamps appear on a native: the compressor sees it enqueued,
        // the decompressor refreshes from it.
        let native = ack_packet(3000, 3, 50);
        let seg = compressible_ack(&native).unwrap();
        comp.native_enqueued(&native, seg);
        decomp.refresh_native(&native, seg);
        assert!(comp.has_ts && decomp.has_ts);
        check(&comp, &decomp, &ack_packet(4000, 4, 51));

        // A native with another TTL: the decompressor refreshes from it
        // on arrival, the compressor takes it once it is confirmed.
        let mut native = ack_packet(5000, 5, 52);
        native.ttl = 32;
        let seg = compressible_ack(&native).unwrap();
        comp.native_enqueued(&native, seg);
        assert_eq!(comp.ttl, 64, "enqueued, not yet confirmed");
        decomp.refresh_native(&native, seg);
        comp.confirmed(native.ttl, &FieldRefs::of(&native, seg));
        let mut p = ack_packet(6000, 6, 53);
        p.ttl = 32;
        check(&comp, &decomp, &p);
    }

    #[test]
    fn only_the_newest_confirmed_packet_moves_the_ttl() {
        let p0 = ack_packet(1000, 1, 10);
        let mut ctx = CompContext::from_native(&p0).unwrap();
        let (old, mut new) = (ack_packet(2000, 2, 11), ack_packet(3000, 3, 12));
        new.ttl = 60;
        let refs = |p: &Ipv4Packet| FieldRefs::of(p, compressible_ack(p).unwrap());
        ctx.confirmed(new.ttl, &refs(&new));
        assert_eq!(ctx.ttl, 60);
        // A packet sent before it, confirmed late, leaves the TTL alone.
        ctx.confirmed(old.ttl, &refs(&old));
        assert_eq!(ctx.ttl, 60);
        assert_eq!(ctx.fold, HeaderFold::of_flow(&ctx.tuple, 60, ctx.has_ts));
    }

    #[test]
    fn cid_is_stable() {
        // Both ends place a flow's context at the CID of its 5-tuple
        // (§3.3.2), each on its own.
        let p = ack_packet(1, 1, 1);
        let cid = cid_for_tuple(&p.five_tuple().bytes());
        let mut comp = FlowTable::default();
        let created = comp.observe(CompContext::from_native(&p).unwrap());
        assert!(matches!(created, Observed::Created(c) if c == cid));
        let mut decomp = FlowTable::default();
        let created = decomp.observe(DecompContext::from_native(&p).unwrap());
        assert!(matches!(created, Observed::Created(c) if c == cid));
    }
}
