//! Property-based checks of the client driver over arbitrary operation
//! sequences — holds, spills past the cap, ridden/unridden response
//! cycles, data confirmations, flush timers, delivered natives, and the
//! supervisor forcing native mode and resuming — in every `HackMode`.
//! After every step:
//! - `CompressSide::current_blob()` (the patched cache) equals
//!   `rebuild_blob_from_scratch()` (re-encoding every held segment), the
//!   safety net under the zero-copy hot path: the simulator only ever
//!   ships the cached bytes;
//! - no ACK has left the driver natively twice;
//! - no held ACK was sent no later than a delivered native on its
//!   five-tuple: the peer's references have moved past such a segment,
//!   so it must not ride again.
//!
//! A scripted test drives both driver halves through the interleaving
//! that once let such a segment ride and decode into a forged ACK.

use hack_core::{CompressSide, DecompressSide, DriverAction, HackMode, NetPacket};
use hack_mac::RxDataInfo;
use hack_phy::StationId;
use hack_sim::{SimDuration, SimTime};
use hack_tcp::{
    flags as tf, Ipv4Addr, Ipv4Packet, TcpOption, TcpOptions, TcpSegment, TcpSeq, Transport,
};
use proptest::prelude::*;

fn ack_pkt(ackno: u32, ident: u16, tsval: u32, window: u16) -> Ipv4Packet {
    let mut options = TcpOptions::new();
    options.push(TcpOption::Timestamps {
        tsval,
        tsecr: tsval.wrapping_sub(3),
    });
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
            options,
            payload_len: 0,
        }),
    }
}

/// One generated driver operation. Encoded as plain tuples so the
/// vendored proptest's built-in strategies cover it.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// TCP stack emits an ACK (delta advances the ack number).
    AckOut { delta: u32, window: u16 },
    /// Data PPDU from the peer; may confirm ridden holds and drives the
    /// MORE DATA latch.
    DataReceived {
        more_data: bool,
        sync: bool,
        advances_seq: bool,
        is_aggregate: bool,
    },
    /// MAC sent a response; `attached` = our blob rode it.
    ResponseSent { attached: bool },
    /// Explicit flush timer fired.
    FlushTimer,
    /// The peer's link layer acknowledged the oldest `count` natives not
    /// yet delivered.
    NativesDelivered { count: u32 },
    /// The supervisor forces the native path (`true`) or resumes HACK.
    Supervise { force: bool },
}

fn decode_op(sel: u8, a: u32, b: u16, f: (bool, bool, bool, bool)) -> Op {
    match sel % 6 {
        0 => Op::AckOut {
            delta: a % 100_000,
            window: b,
        },
        1 => Op::DataReceived {
            more_data: f.0,
            sync: f.1,
            advances_seq: f.2,
            is_aggregate: f.3,
        },
        2 => Op::ResponseSent { attached: f.0 },
        3 => Op::FlushTimer,
        4 => Op::NativesDelivered { count: a % 8 },
        _ => Op::Supervise { force: f.0 },
    }
}

fn run_ops(mode: HackMode, held_cap: usize, ops: &[Op]) {
    let mut d = CompressSide::new(mode);
    d.set_held_cap(held_cap);
    let mut ackno = 1000u32;
    let mut ident = 1u16;
    let mut ts = 100u32;
    let mut now = SimTime::from_millis(1);
    // Natives the driver emitted and the link has not delivered yet,
    // oldest first; every ident the driver ever emitted natively; the
    // newest native delivered (one five-tuple throughout).
    let mut in_flight: Vec<NetPacket> = Vec::new();
    let mut sent_natively: Vec<u16> = Vec::new();
    let mut newest_delivered: Option<u16> = None;
    for (i, op) in ops.iter().enumerate() {
        now += SimDuration::from_micros(137);
        let actions = match *op {
            Op::AckOut { delta, window } => {
                ackno = ackno.wrapping_add(delta);
                ident = ident.wrapping_add(1);
                ts = ts.wrapping_add(1);
                d.on_ack_out(ack_pkt(ackno, ident, ts, window), now)
            }
            Op::DataReceived {
                more_data,
                sync,
                advances_seq,
                is_aggregate,
            } => {
                let info = RxDataInfo {
                    from: StationId(0),
                    mpdus_ok: 2,
                    more_data,
                    sync,
                    advances_seq,
                    is_aggregate,
                };
                d.on_data_received(&info, now)
            }
            Op::ResponseSent { attached } => d.on_response_sent(attached, now),
            Op::FlushTimer => d.on_flush_timer(now),
            Op::NativesDelivered { count } => {
                let n = in_flight.len().min(count as usize);
                let delivered: Vec<NetPacket> = in_flight.drain(..n).collect();
                for id in delivered.iter().map(|p| p.ip().ident) {
                    // Re-enqueued natives leave after newer ones: keep
                    // the newest by the ident serial compare.
                    if newest_delivered.is_none_or(|m| id.wrapping_sub(m) < 0x8000) {
                        newest_delivered = Some(id);
                    }
                }
                d.on_natives_delivered(&delivered)
            }
            Op::Supervise { force: true } => d.force_native(now),
            Op::Supervise { force: false } => {
                d.resume_hack();
                Vec::new()
            }
        };
        for a in actions {
            if let DriverAction::SendNative(p) = a {
                assert!(
                    !sent_natively.contains(&p.ident),
                    "ident {} left natively twice, at op {i} ({op:?})",
                    p.ident
                );
                sent_natively.push(p.ident);
                in_flight.push(NetPacket(p));
            }
        }
        assert_eq!(
            d.current_blob(),
            d.rebuild_blob_from_scratch(),
            "cache diverged after op {i} ({op:?}); held={}",
            d.held_count()
        );
        if let Some(native) = newest_delivered {
            for h in d.held_acks() {
                assert!(
                    native.wrapping_sub(h.ident) >= 0x8000,
                    "held ident {} is no newer than delivered native {native}, after op {i} ({op:?})",
                    h.ident
                );
            }
        }
    }
}

proptest! {
    /// MORE DATA mode: the checks hold after every operation of an
    /// arbitrary driver history.
    #[test]
    fn incremental_blob_matches_scratch_more_data(
        held_cap in 1usize..12,
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u16>(),
             (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>())),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&(s, a, b, f)| decode_op(s, a, b, f)).collect();
        run_ops(HackMode::MoreData, held_cap, &ops);
    }

    /// Explicit-timer mode exercises the flush path (drain-all +
    /// SendNative spill) under the same checks.
    #[test]
    fn incremental_blob_matches_scratch_explicit_timer(
        held_cap in 1usize..12,
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u16>(),
             (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>())),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&(s, a, b, f)| decode_op(s, a, b, f)).collect();
        run_ops(HackMode::ExplicitTimer(SimDuration::from_millis(5)), held_cap, &ops);
    }

    /// Opportunistic mode: every held ACK also has a native twin, so a
    /// flush or spill must not send it natively again.
    #[test]
    fn incremental_blob_matches_scratch_opportunistic(
        held_cap in 1usize..12,
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u16>(),
             (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>())),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&(s, a, b, f)| decode_op(s, a, b, f)).collect();
        run_ops(HackMode::Opportunistic, held_cap, &ops);
    }

    /// Stock mode: nothing is ever held, whatever the driver is told.
    #[test]
    fn incremental_blob_matches_scratch_disabled(
        held_cap in 1usize..12,
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u16>(),
             (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>())),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&(s, a, b, f)| decode_op(s, a, b, f)).collect();
        run_ops(HackMode::Disabled, held_cap, &ops);
    }
}

/// One client driver and one AP driver joined by the client's NIC blob
/// slot, recording what the client emitted and what the AP forwarded.
struct Link {
    client: CompressSide,
    ap: DecompressSide,
    nic: Vec<u8>,
    emitted: Vec<Ipv4Packet>,
    forwarded: Vec<Ipv4Packet>,
}

impl Link {
    fn apply(&mut self, actions: Vec<DriverAction>) {
        for a in actions {
            match a {
                DriverAction::InstallBlob { bytes, .. } => self.nic = bytes,
                DriverAction::ClearBlob => self.nic.clear(),
                _ => {}
            }
        }
    }

    fn ack_out(&mut self, pkt: Ipv4Packet, now: SimTime) {
        self.emitted.push(pkt.clone());
        let actions = self.client.on_ack_out(pkt, now);
        self.apply(actions);
    }

    fn native_delivered(&mut self, pkt: Ipv4Packet, now: SimTime) {
        self.ap.on_native_ack(&pkt, now);
        let actions = self.client.on_natives_delivered(&[NetPacket(pkt)]);
        self.apply(actions);
    }

    /// A response goes out carrying whatever blob the NIC holds.
    fn response(&mut self, now: SimTime) {
        let forwarded = &mut self.forwarded;
        self.ap.on_blob_with(&self.nic, now, |p| forwarded.push(p));
        let actions = self.client.on_response_sent(!self.nic.is_empty(), now);
        self.apply(actions);
    }
}

/// The interleaving behind forged ACKs, scripted sans-IO through both
/// driver halves: ACK N−1 rides a response and waits for confirmation,
/// ACK N is held, N's native twin reaches the AP first (moving its
/// references to N), and the next response carries the blob again.
/// Every ACK the AP forwards must be one the client emitted, and no
/// segment may fail to decode. Run over a spread of ACK-number steps,
/// so a wrong decode that slips past CRC-3 would show too.
#[test]
fn native_overtaking_a_held_segment_forges_nothing() {
    let now = SimTime::from_millis(1);
    for step in 1..=24u32 {
        let ack = |n: u16| {
            ack_pkt(
                1000 + u32::from(n) * step * 1460,
                n,
                100 + u32::from(n),
                1024,
            )
        };
        let mut link = Link {
            client: CompressSide::new(HackMode::Opportunistic),
            ap: DecompressSide::new(),
            nic: Vec::new(),
            emitted: Vec::new(),
            forwarded: Vec::new(),
        };
        link.ack_out(ack(1), now); // native only: seeds the context
        link.native_delivered(ack(1), now);
        link.ack_out(ack(2), now); // N−1: held, its twin queued
        link.response(now); // N−1 rides, unconfirmed
        link.ack_out(ack(3), now); // N: held
        link.native_delivered(ack(3), now); // N's twin reaches the AP first
        link.ack_out(ack(4), now);
        link.response(now); // the blob rides again
        for p in &link.forwarded {
            assert!(link.emitted.contains(p), "step {step}: forged {p:?}");
        }
        let stats = link.ap.stats();
        assert_eq!(stats.crc_failures, 0, "step {step}: {stats:?}");
        assert!(stats.decompressed >= 2, "step {step}: {stats:?}");
    }
}
