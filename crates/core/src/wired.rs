//! The wired backhaul between the AP and the remote server.
//!
//! The paper's §4.3 setup: *"The wired link between the server and the
//! AP has a latency of one millisecond and a bit-rate of 500 Mbps."*
//! Modelled as two independent FIFO serializers (one per direction) with
//! a fixed propagation delay and no loss. A [`WiredLink`] only computes
//! when a packet arrives; the event loop carries the packets in flight
//! (toward an AP, they wait in the link until their AP can act on them).

use hack_sim::{SimDuration, SimTime};
use hack_tcp::Ipv4Packet;

/// One direction of the full-duplex wired link.
#[derive(Debug, Clone)]
struct Direction {
    /// When the serializer becomes free.
    busy_until: SimTime,
}

/// A full-duplex point-to-point wired link.
#[derive(Debug, Clone)]
pub struct WiredLink {
    rate_bps: u64,
    prop_delay: SimDuration,
    to_ap: Direction,
    to_server: Direction,
}

impl WiredLink {
    /// A link at `rate_bps` with propagation delay `prop_delay`.
    pub fn new(rate_bps: u64, prop_delay: SimDuration) -> Self {
        assert!(rate_bps > 0);
        WiredLink {
            rate_bps,
            prop_delay,
            to_ap: Direction {
                busy_until: SimTime::ZERO,
            },
            to_server: Direction {
                busy_until: SimTime::ZERO,
            },
        }
    }

    /// The paper's 500 Mbps / 1 ms backhaul.
    pub fn paper_backhaul() -> Self {
        WiredLink::new(500_000_000, SimDuration::from_millis(1))
    }

    /// Transmit `pkt` toward the AP (`to_ap = true`) or the server.
    /// Returns the delivery time at the far end.
    pub fn send(&mut self, to_ap: bool, pkt: &Ipv4Packet, now: SimTime) -> SimTime {
        let dir = if to_ap {
            &mut self.to_ap
        } else {
            &mut self.to_server
        };
        let start = now.max(dir.busy_until);
        let ser = SimDuration::for_bits(u64::from(pkt.wire_len()) * 8, self.rate_bps);
        dir.busy_until = start + ser;
        dir.busy_until + self.prop_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{Ipv4Addr, Transport};

    fn pkt(len: u32) -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            ident: 0,
            ttl: 64,
            transport: Transport::Udp {
                src_port: 1,
                dst_port: 2,
                payload_len: len - 28,
            },
        }
    }

    #[test]
    fn single_packet_latency() {
        let mut l = WiredLink::paper_backhaul();
        let t0 = SimTime::from_millis(10);
        let arrive = l.send(true, &pkt(1500), t0);
        // 1500 B at 500 Mbps = 24 µs serialization + 1 ms propagation.
        assert_eq!(
            arrive,
            t0 + SimDuration::from_micros(24) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn serialization_queues_back_to_back() {
        let mut l = WiredLink::paper_backhaul();
        let t0 = SimTime::from_millis(10);
        let a1 = l.send(true, &pkt(1500), t0);
        let a2 = l.send(true, &pkt(1500), t0);
        assert_eq!(a2.duration_since(a1), SimDuration::from_micros(24));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = WiredLink::paper_backhaul();
        let t0 = SimTime::from_millis(10);
        let a1 = l.send(true, &pkt(1500), t0);
        let a2 = l.send(false, &pkt(1500), t0);
        assert_eq!(a1, a2, "no cross-direction contention");
    }

    #[test]
    fn idle_gap_resets_serializer() {
        let mut l = WiredLink::paper_backhaul();
        let t0 = SimTime::from_millis(10);
        l.send(true, &pkt(1500), t0);
        let later = t0 + SimDuration::from_millis(5);
        let a = l.send(true, &pkt(1500), later);
        assert_eq!(
            a,
            later + SimDuration::from_micros(24) + SimDuration::from_millis(1)
        );
    }
}
