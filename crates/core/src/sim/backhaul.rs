//! Wired packets on their way to an AP, held in the link until they can
//! matter.
//!
//! Most toward-AP packets reach an AP that is already contending,
//! transmitting or waiting for a response. Handing such a packet to the
//! AP only appends it to a queue: `Station::enqueue` returns no action
//! while `Station::enqueue_is_silent` holds, and nothing reads that queue
//! until an event touches the AP again. So each cell keeps its toward-AP
//! packets in a FIFO, each with the scheduler [`Ticket`] its arrival
//! event would have had, and an event is dispatched for one only when
//! it can act at its own instant:
//!
//! * a packet that must act (a pure TCP ACK, which runs the AP's HACK
//!   driver, or any packet in a world that can roam, where a blackout
//!   changes without touching the AP) is scheduled at its ticket when
//!   it is sent;
//! * the FIFO head gets a wake at its ticket if and only if its AP is
//!   not silent, re-checked after every event that touched an AP with
//!   packets pending and after every send toward it.
//!
//! Every other packet is applied, in order and at its own arrival time,
//! when the event loop next reaches its AP through `World::station`, or
//! when a run stops. Arrivals toward the server stay ordinary events:
//! the server's TCP reacts, and traces, at the arrival instant.

use std::collections::VecDeque;

use hack_mac::Station;
use hack_phy::StationId;
use hack_sim::{EventHandle, SimTime, Ticket};
use hack_tcp::{Ipv4Packet, Transport};

use super::{Event, World};
use crate::packet::NetPacket;

/// One packet in flight toward an AP.
struct Arrival {
    /// Its place in the dispatch order.
    ticket: Ticket,
    /// It has its own event: it must act at its own instant.
    eager: bool,
    pkt: Ipv4Packet,
}

/// One cell's toward-AP packets, in ticket order.
#[derive(Default)]
struct Lane {
    fifo: VecDeque<Arrival>,
    /// The wake armed for the head, which then waits for a busy AP.
    wake: Option<EventHandle>,
    /// Its wake must be re-checked after the current event.
    dirty: bool,
}

/// Every cell's packets in flight toward its AP.
#[derive(Default)]
pub(super) struct Backhaul {
    /// Per cell; empty until the first packet is sent, so a world whose
    /// server sits on the AP allocates nothing here.
    lanes: Vec<Lane>,
    /// Packets in all lanes.
    pending: usize,
    /// Lanes marked dirty.
    dirty: usize,
    /// Set while arrivals are being applied: their AP is reached
    /// without draining again.
    draining: bool,
    /// Every arrival gets its own event, as before packets waited in
    /// the link: the reference the unit tests hold the lazy lanes to.
    #[cfg(test)]
    all_eager: bool,
}

impl Backhaul {
    /// Whether a station access may have arrivals to apply first.
    #[inline]
    fn waiting(&self) -> bool {
        self.pending > 0 && !self.draining
    }

    /// Whether arrivals are being applied late, each of which must find
    /// its AP silent.
    pub(super) fn draining(&self) -> bool {
        self.draining
    }

    /// Have `cell`'s wake re-checked after the current event.
    fn mark(&mut self, cell: usize) {
        let lane = &mut self.lanes[cell];
        if !lane.dirty {
            lane.dirty = true;
            self.dirty += 1;
        }
    }

    /// The head of `cell`'s lane if its ticket sorts before `bound`.
    fn pop_before(&mut self, cell: usize, bound: Ticket) -> Option<(SimTime, Ipv4Packet)> {
        let lane = self.lanes.get_mut(cell)?;
        if lane.fifo.front()?.ticket >= bound {
            return None;
        }
        let a = lane.fifo.pop_front().expect("checked");
        debug_assert!(!a.eager, "an arrival with its own event was drained");
        self.pending -= 1;
        Some((a.ticket.at(), a.pkt))
    }

    /// The earliest arrival time in any lane.
    pub(super) fn next_at(&self) -> Option<SimTime> {
        let heads = self.lanes.iter().filter_map(|l| l.fifo.front());
        heads.map(|a| a.ticket.at()).min()
    }
}

impl World {
    /// The one way to reach a station. An AP first takes in, in order,
    /// the wired packets that reached it before the event being
    /// dispatched.
    #[inline]
    pub(super) fn station(&mut self, sid: StationId) -> &mut Station<NetPacket> {
        if self.backhaul.waiting() {
            self.settle(sid);
        }
        &mut self.stations[sid.0 as usize]
    }

    /// Apply what reached `sid` (if it is an AP) before the current
    /// event, and have its wake re-checked once the event is done.
    fn settle(&mut self, sid: StationId) {
        let cell = self.layout.cell(sid);
        let pending = self
            .backhaul
            .lanes
            .get(cell)
            .is_some_and(|l| !l.fifo.is_empty());
        if !pending || self.layout.cells[cell].ap != sid {
            return;
        }
        self.drain_lane(cell, self.sched.current());
        if !self.backhaul.lanes[cell].fifo.is_empty() {
            self.backhaul.mark(cell);
        }
    }

    /// Apply `cell`'s arrivals whose tickets sort before `bound`, each
    /// at its own arrival time, as their events would have.
    fn drain_lane(&mut self, cell: usize, bound: Ticket) {
        let ap = self.layout.cells[cell].ap;
        self.backhaul.draining = true;
        while let Some((at, pkt)) = self.backhaul.pop_before(cell, bound) {
            self.ap_downstream(ap, pkt, at);
        }
        self.backhaul.draining = false;
    }

    /// Apply every cell's arrivals that sort before `bound`: where a run
    /// stops, what eager dispatch would have reached by then.
    pub(super) fn drain_backhaul(&mut self, bound: Ticket) {
        for cell in 0..self.backhaul.lanes.len() {
            self.drain_lane(cell, bound);
        }
    }

    /// Whether an AP applying this arrival at once must be able to act:
    /// see the module doc.
    fn must_act(&self, pkt: &Ipv4Packet) -> bool {
        #[cfg(test)]
        if self.backhaul.all_eager {
            return true;
        }
        self.roam.is_some() || matches!(&pkt.transport, Transport::Tcp(t) if t.is_pure_ack())
    }

    /// Send `pkt` over `cell`'s backhaul toward its AP, to arrive at `at`.
    pub(super) fn send_to_ap(&mut self, cell: usize, pkt: Ipv4Packet, at: SimTime) {
        let ticket = self.sched.reserve(at);
        let eager = self.must_act(&pkt);
        if eager {
            self.sched.schedule_reserved(ticket, Event::WiredToAp(cell));
        }
        let b = &mut self.backhaul;
        if b.lanes.is_empty() {
            b.lanes.resize_with(self.layout.cells.len(), Lane::default);
        }
        b.lanes[cell].fifo.push_back(Arrival { ticket, eager, pkt });
        b.pending += 1;
        b.mark(cell);
    }

    /// A wired packet's event: apply what reached `cell`'s AP before it,
    /// then the packet itself, which may act.
    pub(super) fn on_wired_to_ap(&mut self, cell: usize, now: SimTime) {
        let me = self.sched.current();
        self.drain_lane(cell, me);
        let lane = &mut self.backhaul.lanes[cell];
        let a = lane.fifo.pop_front().expect("a wired event has its packet");
        debug_assert_eq!(a.ticket, me, "the head's event fired out of order");
        lane.wake = None;
        self.backhaul.pending -= 1;
        self.backhaul.mark(cell);
        let ap = self.layout.cells[cell].ap;
        self.ap_downstream(ap, a.pkt, now);
    }

    /// After an event: each lane it touched has a wake armed for its head
    /// if and only if the head waits on an AP that is not silent.
    #[inline]
    pub(super) fn rearm_backhaul(&mut self) {
        if self.backhaul.dirty > 0 {
            self.rearm_dirty_lanes();
        }
    }

    fn rearm_dirty_lanes(&mut self) {
        for cell in 0..self.backhaul.lanes.len() {
            if !self.backhaul.lanes[cell].dirty {
                continue;
            }
            let ap = self.layout.cells[cell].ap;
            // The lane stays marked until this read, so the access does
            // not mark it again.
            let silent = self.station(ap).enqueue_is_silent();
            self.backhaul.dirty -= 1;
            let lane = &mut self.backhaul.lanes[cell];
            lane.dirty = false;
            let want = match lane.fifo.front() {
                Some(head) if !head.eager && !silent => Some(head.ticket),
                _ => None,
            };
            match (want, lane.wake) {
                (Some(ticket), None) => {
                    let wake = self.sched.schedule_reserved(ticket, Event::WiredToAp(cell));
                    lane.wake = Some(wake);
                }
                (None, Some(wake)) => {
                    self.sched.cancel(wake);
                    lane.wake = None;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use hack_sim::SimDuration;
    use hack_trace::TraceHandle;

    use super::*;
    use crate::codec::encode_run_result;
    use crate::scenario::{BssSpec, LossConfig, ScenarioBuilder, ScenarioConfig};
    use crate::traffic::{CbrConfig, TrafficModel};
    use crate::HackMode;

    /// Run `cfg` traced, in `slice`-long steps if given, with every
    /// arrival dispatched as its own event if `all_eager`: its trace
    /// digest, its encoded result with `events_dispatched` zeroed, and
    /// that count.
    fn run(cfg: &ScenarioConfig, all_eager: bool, slice: Option<u64>) -> (Vec<u8>, Vec<u8>, u64) {
        let (handle, ring) = TraceHandle::ring(1 << 20);
        let mut world = World::builder(cfg.clone()).trace(handle).build();
        world.backhaul.all_eager = all_eager;
        match slice {
            Some(ms) => {
                let mut until = SimTime::ZERO;
                loop {
                    until += SimDuration::from_millis(ms);
                    let more = world.run_until(until);
                    assert!(settled(&world, until), "a slice ended before {until:?}");
                    if !more {
                        break;
                    }
                }
            }
            None => {
                world.run_until(world.end_time());
                assert!(settled(&world, world.end_time()), "the run ended");
            }
        }
        let mut result = world.finish();
        let events = std::mem::take(&mut result.events_dispatched);
        (
            ring.digest().to_bytes().to_vec(),
            encode_run_result(&result),
            events,
        )
    }

    /// Whether `world`, stopped by `run_until(until)`, holds only the
    /// arrivals eager dispatch would not have reached: none keyed before
    /// the event that completed the run or, if none did, due by `until`.
    fn settled(world: &World, until: SimTime) -> bool {
        let reached = match world.completion {
            Some(_) => world.sched.current(),
            None => Ticket::end_of(until.min(world.end_time())),
        };
        let mut heads = world.backhaul.lanes.iter().filter_map(|l| l.fifo.front());
        heads.all(|a| a.ticket >= reached)
    }

    /// The law that makes holding packets in the link exact: against a
    /// world that dispatches every toward-AP packet as its own event,
    /// the trace and every result field but `events_dispatched` are
    /// bit-identical, whole and sliced, through tail drops, early
    /// completions, paced datagrams, several cells and staggered clients.
    #[test]
    fn held_arrivals_change_nothing_but_the_event_count() {
        let ms = SimDuration::from_millis;
        let capped_budget = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
            .ap_queue_cap(12)
            .transfer_bytes(400_000)
            .duration(ms(1500))
            .warmup(ms(50))
            .stagger(ms(3))
            .seed(21)
            .build();
        let paced_mix = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
            .traffic_mix(vec![
                TrafficModel::Cbr(CbrConfig::default()),
                TrafficModel::BulkDownload,
            ])
            .duration(ms(500))
            .warmup(ms(50))
            .stagger(ms(2))
            .seed(22)
            .build();
        let two_cells = ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData)
            .bss(BssSpec::enterprise_floor(2, 2))
            .ap_queue_cap(20)
            .duration(ms(400))
            .warmup(ms(50))
            .stagger(ms(30))
            .seed(23)
            .build();
        let stock_staggered = ScenarioBuilder::sora_testbed(3, HackMode::Disabled)
            .server_at_ap(false)
            .duration(ms(900))
            .warmup(ms(50))
            .stagger(ms(150))
            .seed(24)
            .build();
        // Completes with a stock TCP retransmission held at a full AP
        // queue: the one arrival only the completion drain applies.
        let lossy_both_ways = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled)
            .traffic(TrafficModel::Bidirectional)
            .loss(LossConfig::PerClient(vec![0.3]))
            .ap_queue_cap(5)
            .transfer_bytes(411_000)
            .duration(ms(3000))
            .warmup(ms(50))
            .stagger(ms(1))
            .seed(53)
            .build();
        for (name, cfg) in [
            ("capped queue, byte budget", capped_budget),
            ("lossy bidirectional, byte budget", lossy_both_ways),
            ("CBR beside bulk", paced_mix),
            ("two cells", two_cells),
            ("stock TCP, staggered", stock_staggered),
        ] {
            let (digest, result, eager_events) = run(&cfg, true, None);
            for slice in [None, Some(7)] {
                let (lazy_digest, lazy_result, events) = run(&cfg, false, slice);
                assert_eq!(lazy_digest, digest, "{name}, slice {slice:?}: trace");
                assert!(lazy_result == result, "{name}, slice {slice:?}: result");
                assert!(
                    events < eager_events,
                    "{name}: {events} events held back nothing of {eager_events}"
                );
            }
        }
    }
}
