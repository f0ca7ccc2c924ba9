//! Same-instant host deliveries, batched: a burst of MSDUs from one
//! A-MPDU, or of ACKs decoded from one blob, reaches its host stack as
//! one `HostRx` event instead of one event per packet.
//!
//! A delivery joins the pending batch only when it is for the same
//! station, due at the same instant, and nothing else has been pushed
//! on the scheduler since that batch. Its event would then have had the
//! next sequence number at the batch's timestamp, so it would have been
//! dispatched right after the batch's last packet anyway: batching
//! moves no packet in the dispatch order. The batches live here rather
//! than in the event, keyed by the scheduler's push counter, so they
//! work on every queue kind.
//!
//! ## What settles at the end of a batch
//!
//! Each packet of a batch may make its station hold one more TCP ACK,
//! and each hold rebuilds the blob and asks for an `InstallBlob` that
//! supersedes the one the packet before asked for. While a batch is
//! handled, the latest install waits in [`BatchEffects`]: a newer one
//! for the same (station, peer) replaces it without touching the
//! queue, one for another pair pushes it first, and the end of the
//! batch pushes what is left. A superseded install is never pushed.
//!
//! That is exact. The waiting install holds the [`Ticket`] that
//! [`Scheduler::reserve`] gave it when it was asked for, so it pops
//! where it would have popped if pushed at once, and every request
//! still takes one place in the order, so `Scheduler::pushes` (and with
//! it the batching rule above) reads the same. Nothing in between reads
//! it: it fires no earlier than the batch's own instant, and a clear or
//! rebuild that cancels it goes through the slot (`World::cancel_install`).
//! A TCP timer needs no slot: a deadline that moves later or goes away
//! pushes nothing (`World::resched_tcp`).

use hack_phy::StationId;
use hack_sim::{Scheduler, SimTime, Ticket};
use hack_tcp::Ipv4Packet;

use super::{Event, World};

/// One packet bound for a host stack, and whether it arrived natively
/// (not decoded from a HACK blob).
type Delivery = (Ipv4Packet, bool);

/// The batch a delivery may still join.
#[derive(Clone, Copy)]
struct Open {
    batch: u32,
    station: StationId,
    at: SimTime,
    /// The scheduler's push count right after the batch was pushed.
    pushes: u64,
}

/// Pending `HostRx` batches, by slot. A handled batch's list keeps its
/// capacity for the next batch in that slot, so steady-state batching
/// allocates nothing.
#[derive(Default)]
pub(super) struct HostRxBatches {
    batches: Vec<Vec<Delivery>>,
    free: Vec<u32>,
    open: Option<Open>,
}

impl HostRxBatches {
    /// Deliver `pkt` to `station`'s host stack at `at`: join the open
    /// batch if the rules allow, else push a new `HostRx` event.
    #[inline]
    pub(super) fn push(
        &mut self,
        sched: &mut Scheduler<Event>,
        station: StationId,
        at: SimTime,
        pkt: Ipv4Packet,
        native: bool,
    ) {
        if let Some(open) = self.open {
            if open.pushes == sched.pushes() && open.station == station && open.at == at {
                self.batches[open.batch as usize].push((pkt, native));
                return;
            }
        }
        let batch = self.free.pop().unwrap_or_else(|| {
            self.batches.push(Vec::new());
            u32::try_from(self.batches.len() - 1).expect("batch index fits u32")
        });
        self.batches[batch as usize].push((pkt, native));
        sched.schedule_at(at, Event::HostRx { station, batch });
        self.open = Some(Open {
            batch,
            station,
            at,
            pushes: sched.pushes(),
        });
    }

    /// The packets of `batch`, whose event is being dispatched, in push
    /// order. The batch is closed: a delivery pushed while it is being
    /// handled starts a new one.
    #[inline]
    pub(super) fn take(&mut self, batch: u32) -> Vec<Delivery> {
        if self.open.is_some_and(|o| o.batch == batch) {
            self.open = None;
        }
        std::mem::take(&mut self.batches[batch as usize])
    }

    /// Hand back the list [`HostRxBatches::take`] returned, emptying
    /// it, and free its slot.
    #[inline]
    pub(super) fn put_back(&mut self, batch: u32, mut deliveries: Vec<Delivery>) {
        deliveries.clear();
        self.batches[batch as usize] = deliveries;
        self.free.push(batch);
    }
}

/// A blob install asked for inside a batch and not pushed yet: its
/// `(station, peer)` key, its place in the order and its event.
struct HeldInstall {
    key: (u32, u32),
    ticket: Ticket,
    event: Event,
}

/// The install of the batch being handled that a later packet of it
/// may supersede (see the module doc); empty outside a batch.
#[derive(Default)]
pub(super) struct BatchEffects {
    /// Whether a `HostRx` batch is being handled.
    open: bool,
    install: Option<HeldInstall>,
}

impl World {
    /// Hand the packets of `batch` to `station`'s host stack in push
    /// order, then push the install they left.
    pub(super) fn on_host_rx_batch(&mut self, station: StationId, batch: u32, now: SimTime) {
        let mut pkts = self.host_rx.take(batch);
        self.effects.open = true;
        for (pkt, native) in pkts.drain(..) {
            self.on_host_rx(station, pkt, native, now);
            // The packet that completes the run ends it, as it would
            // between two events.
            if self.completion.is_some() {
                break;
            }
        }
        self.effects.open = false;
        if let Some(held) = self.effects.install.take() {
            self.push_install(held);
        }
        self.host_rx.put_back(batch, pkts);
    }

    /// Install `bytes` as `sid`'s blob toward `peer` after the DMA
    /// delay, superseding the install pending for that pair.
    pub(super) fn install_blob(
        &mut self,
        sid: StationId,
        peer: StationId,
        bytes: Vec<u8>,
        generation: u64,
        now: SimTime,
    ) {
        let held = HeldInstall {
            key: (sid.0, peer.0),
            ticket: self.sched.reserve(now + self.cfg.dma_delay),
            event: Event::InstallBlob {
                station: sid,
                peer,
                bytes,
                generation,
            },
        };
        match self.effects.install.take() {
            // Superseded by a later packet of its batch: never pushed.
            Some(old) if old.key == held.key => self.recycle_install(sid, peer, old.event),
            other => {
                if let Some(old) = other {
                    self.push_install(old);
                }
                self.cancel_install(sid, peer);
            }
        }
        if self.effects.open {
            self.effects.install = Some(held);
        } else {
            self.push_install(held);
        }
    }

    fn push_install(&mut self, held: HeldInstall) {
        let HeldInstall { key, ticket, event } = held;
        self.installs
            .schedule_reserved(&mut self.sched, key, ticket, |_| event);
    }

    /// Take `sid`'s pending blob install toward `peer`, which a rebuild
    /// or clear for the same pair supersedes, out of the batch's slot or
    /// the queue. Its bytes go back to the driver's pool now rather than
    /// when it would have fired.
    pub(super) fn cancel_install(&mut self, sid: StationId, peer: StationId) {
        let key = (sid.0, peer.0);
        if let Some(held) = self.effects.install.take_if(|h| h.key == key) {
            self.recycle_install(sid, peer, held.event);
        }
        if let Some(pending) = self.installs.unschedule(&mut self.sched, key) {
            self.recycle_install(sid, peer, pending);
        }
    }

    fn recycle_install(&mut self, sid: StationId, peer: StationId, install: Event) {
        if let (Event::InstallBlob { bytes, .. }, Some((flow, side))) =
            (install, self.driver_slot(sid, peer))
        {
            self.compress[flow][side].recycle_blob(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{Ipv4Addr, Transport};

    fn pkt(ident: u16) -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 1, 0, 2),
            ident,
            ttl: 64,
            transport: Transport::Udp {
                src_port: 1,
                dst_port: 2,
                payload_len: 100,
            },
        }
    }

    /// Pop every event; for each `HostRx`, its station and packet idents.
    fn drain(sched: &mut Scheduler<Event>, b: &mut HostRxBatches) -> Vec<(u32, Vec<u16>)> {
        let mut out = Vec::new();
        while let Some((_, ev)) = sched.pop() {
            if let Event::HostRx { station, batch } = ev {
                let pkts = b.take(batch);
                out.push((station.0, pkts.iter().map(|(p, _)| p.ident).collect()));
                b.put_back(batch, pkts);
            }
        }
        out
    }

    #[test]
    fn any_other_push_at_the_same_instant_splits_a_batch() {
        let mut sched = Scheduler::new();
        let mut b = HostRxBatches::default();
        let (t, a, c) = (SimTime::from_micros(5), StationId(1), StationId(2));
        b.push(&mut sched, a, t, pkt(1), true);
        b.push(&mut sched, a, t, pkt(2), false);
        // Any other event, here one due at the same instant, closes it.
        sched.schedule_at(t, Event::FlowStart(0));
        b.push(&mut sched, a, t, pkt(3), true);
        // So do another station and another instant.
        b.push(&mut sched, c, t, pkt(4), true);
        b.push(&mut sched, c, SimTime::from_micros(6), pkt(5), true);
        b.push(&mut sched, c, SimTime::from_micros(6), pkt(6), true);
        assert_eq!(sched.pending(), 5);
        assert_eq!(
            drain(&mut sched, &mut b),
            [(1, vec![1, 2]), (1, vec![3]), (2, vec![4]), (2, vec![5, 6])]
        );
        // Handled slots are reused, and a batch being handled is closed.
        let t = SimTime::from_micros(7);
        b.push(&mut sched, a, t, pkt(7), true);
        let (_, Event::HostRx { batch, .. }) = sched.pop().expect("pushed") else {
            unreachable!()
        };
        let pkts = b.take(batch);
        b.push(&mut sched, a, t, pkt(8), true);
        b.put_back(batch, pkts);
        assert_eq!(drain(&mut sched, &mut b), [(1, vec![8])]);
        assert!(b.batches.len() <= 4);
    }
}
