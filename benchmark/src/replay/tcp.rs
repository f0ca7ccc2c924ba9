//! `hack-tcp`: a back-to-back `Connection` pair with nothing between
//! the two but a function call, the handshake, the retransmission
//! timer, header serialisation and the four congestion controllers.

use hack_sim::{SimDuration, SimRng, SimTime};
use hack_tcp::{
    AckContext, CcKind, Connection, FiveTuple, Ipv4Addr, Ipv4Packet, RateSample, SendBudget,
    TcpConfig, TcpState, Transport,
};

use super::{Ctx, Pool};

const MSS: u64 = 1460;

fn tuple(seed: u64) -> FiveTuple {
    FiveTuple {
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(192, 168, 0, 2),
        src_port: 5001,
        dst_port: 40_000 + (seed % 20_000) as u16,
        protocol: 6,
    }
}

/// A sender and a receiver, handshake done.
fn connected(seed: u64, now: SimTime) -> (Connection, Connection) {
    let cfg = TcpConfig::default();
    let iss = (seed as u32).wrapping_mul(2_654_435_761);
    let (mut tx, syn) = Connection::client(cfg.clone(), tuple(seed), iss, now);
    let mut rx = Connection::server(cfg, tuple(seed).reversed(), !iss);
    let synack = rx.on_packet(&syn[0], now);
    let ack = tx.on_packet(&synack[0], now);
    rx.on_packet(&ack[0], now);
    (tx, rx)
}

fn is_data(p: &Ipv4Packet) -> bool {
    matches!(&p.transport, Transport::Tcp(t) if t.payload_len > 0)
}

/// What one transfer cost and did.
struct Transfer {
    data: Pool,
    acks: Pool,
    dropped: u64,
    in_order: bool,
}

/// Move `bytes` from `tx` to `rx`, half a millisecond each way, losing
/// each data segment with probability `loss`. Data-path time (sender
/// `poll_send` plus receiver `on_packet`) and ACK-path time (sender
/// `on_packet`) are pooled apart.
fn transfer(
    cx: &mut Ctx<'_>,
    bytes: u64,
    loss: f64,
    names: (&'static str, &'static str),
) -> Transfer {
    let half_rtt = SimDuration::from_micros(500);
    let mut now = SimTime::from_millis(10);
    let (mut tx, mut rx) = connected(cx.seed, now);
    let mut rng = SimRng::new(cx.seed).fork(0x7c9);
    let mut t = Transfer {
        data: Pool::new(names.0),
        acks: Pool::new(names.1),
        dropped: 0,
        in_order: true,
    };
    tx.set_budget(SendBudget::Bytes(bytes));

    // Packets the sender emitted outside `poll_send` (answers to ACKs,
    // timer retransmissions) and still owes the receiver.
    let mut owed: Vec<Ipv4Packet> = Vec::new();
    let mut delivered_before = 0;
    while !tx.send_complete() {
        // More draws than a 1 MB window holds segments.
        let lost: Vec<bool> = (0..owed.len() + 1024).map(|_| rng.chance(loss)).collect();
        let (acks, sent, dropped) = t.data.time(
            cx,
            || {
                let mut segs = std::mem::take(&mut owed);
                segs.extend(tx.poll_send(now));
                let (mut acks, mut dropped) = (Vec::new(), 0);
                for (seg, lost) in segs.iter().zip(&lost) {
                    if *lost && is_data(seg) {
                        dropped += 1;
                    } else {
                        acks.extend(rx.on_packet(seg, now + half_rtt));
                    }
                }
                (acks, segs.len(), dropped)
            },
            |(_, sent, _)| *sent,
        );
        t.dropped += dropped;
        now = now + half_rtt + half_rtt;

        t.in_order &= rx.bytes_delivered() >= delivered_before;
        delivered_before = rx.bytes_delivered();

        owed = t.acks.time(
            cx,
            || {
                let mut out = Vec::new();
                for a in &acks {
                    out.extend(tx.on_packet(a, now));
                }
                out
            },
            |_| acks.len(),
        );

        // Nothing moving: let the earliest timer on either side fire
        // (the receiver's delayed ACK, the sender's RTO).
        if acks.is_empty() && owed.is_empty() && sent == 0 {
            match (rx.next_timer(), tx.next_timer()) {
                (Some(r), s) if s.is_none_or(|s| r <= s) => {
                    now = now.max(r);
                    for a in rx.on_timer(now) {
                        owed.extend(tx.on_packet(&a, now));
                    }
                }
                (_, Some(s)) => {
                    now = now.max(s);
                    owed = tx.on_timer(now);
                }
                // Stuck: the check after the loop reports it.
                (_, None) => break,
            }
        }
    }
    cx.check(
        tx.send_complete() && tx.bytes_acked() == bytes && rx.bytes_delivered() == bytes,
        "the TCP pair did not deliver exactly the bytes written",
    );
    cx.check(
        t.in_order,
        "the TCP receiver's delivered count went backwards",
    );
    t
}

/// `(tcp.data_path_ns, tcp.ack_path_ns, tcp.loss_recovery_ns)`: the
/// first two per segment and per ACK on a lossless path with delayed
/// ACKs; the third is what a 1 % loss adds to the same transfer, per
/// segment lost (dupACKs, SACK blocks, fast retransmit, the odd RTO).
pub fn data_ack_loss(cx: &mut Ctx<'_>) -> (f64, f64, f64) {
    const BYTES: u64 = 24_000 * MSS;
    let clean = transfer(cx, BYTES, 0.0, ("tcp.data_path", "tcp.ack_path"));
    let lossy = transfer(cx, BYTES, 0.01, ("tcp.loss_recovery", "tcp.loss_recovery"));
    cx.check(
        clean.dropped == 0 && lossy.dropped > 0,
        "the loss knob did not lose",
    );
    let clean_ns = (clean.data.total_ns + clean.acks.total_ns) as f64;
    let lossy_ns = (lossy.data.total_ns + lossy.acks.total_ns) as f64;
    (
        clean.data.ns_per_call(),
        clean.acks.ns_per_call(),
        (lossy_ns - clean_ns) / lossy.dropped as f64,
    )
}

/// SYN, SYN-ACK, ACK between a fresh client and a fresh server.
pub fn handshake(cx: &mut Ctx<'_>) -> f64 {
    let (mut n, mut ok) = (cx.seed, true);
    let ns = cx.batches("tcp.handshake", || {
        n += 1;
        let (a, b) = connected(n, SimTime::from_millis(10));
        ok &= a.state() == TcpState::Established && b.state() == TcpState::Established;
    });
    cx.check(ok, "a handshake did not reach Established on both sides");
    ns
}

/// `next_timer` + `on_timer` on a sender whose flight is never
/// acknowledged: each call is one retransmission timeout.
pub fn timer_path(cx: &mut Ctx<'_>) -> f64 {
    let now = SimTime::from_millis(10);
    let (mut tx, _rx) = connected(cx.seed, now);
    tx.set_budget(SendBudget::Unlimited);
    let flight = tx.poll_send(now).len();
    let (mut ok, mut calls) = (flight > 0, 0u64);
    let ns = cx.batches("tcp.timer_path", || {
        let deadline = tx
            .next_timer()
            .expect("an unacknowledged flight arms the RTO");
        ok &= tx.on_timer(deadline).iter().any(is_data);
        calls += 1;
    });
    cx.check(ok, "an RTO retransmitted nothing");
    cx.check(tx.stats().timeouts == calls, "RTOs miscounted");
    ns
}

/// `Ipv4Packet::header_bytes` of a data segment with timestamps.
pub fn header_bytes(cx: &mut Ctx<'_>) -> f64 {
    let now = SimTime::from_millis(10);
    let (mut tx, _rx) = connected(cx.seed, now);
    tx.set_budget(SendBudget::Unlimited);
    let seg = tx.poll_send(now).remove(0);
    let mut len = 0;
    let ns = cx.batches("tcp.header_bytes", || {
        len = std::hint::black_box(std::hint::black_box(&seg).header_bytes()).len();
    });
    let parsed = Ipv4Packet::from_header_bytes(&seg.header_bytes());
    cx.check(
        len > 0 && parsed.is_ok_and(|p| p == seg),
        "a header did not parse back",
    );
    ns
}

/// `on_ack(&AckContext)` of one controller, past its first loss, with a
/// delivery-rate sample on every ACK.
pub fn cc_on_ack(cx: &mut Ctx<'_>, name: &'static str, kind: CcKind) -> f64 {
    let mut cc = kind.build(MSS as u32, 3);
    cc.set_cwnd_cap(2 << 20);
    let srtt = SimDuration::from_millis(20);
    let mut now = SimTime::from_millis(10 + cx.seed % 10);
    // Leave slow start the way a real flow does.
    for _ in 0..64 {
        now += SimDuration::from_micros(100);
        let flight = cc.cwnd();
        cc.on_ack(&ack_context(now, flight, srtt));
    }
    let flight = cc.cwnd();
    cc.on_triple_dupack(flight, now);
    cc.on_full_ack(now);
    let ns = cx.batches(name, || {
        now += SimDuration::from_micros(100);
        let ctx = ack_context(now, cc.cwnd(), srtt);
        cc.on_ack(std::hint::black_box(&ctx));
    });
    cx.check(
        cc.cwnd() >= MSS && cc.cwnd() <= 2 << 20 && !cc.in_recovery(),
        "a controller's window left [1 MSS, cap]",
    );
    ns
}

fn ack_context(now: SimTime, flight: u64, srtt: SimDuration) -> AckContext {
    AckContext {
        now,
        acked_bytes: MSS,
        flight,
        srtt: Some(srtt),
        sample: Some(RateSample {
            delivered: MSS,
            // 1460 B per 100 µs: a 117 Mbit/s bottleneck.
            interval: SimDuration::from_micros(100),
            rtt: srtt,
        }),
    }
}
