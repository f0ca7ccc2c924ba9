//! What the flow supervisor hears, and why: the per-endpoint watch
//! that turns TCP counters into stall and estimator-divergence reports,
//! the blob post-mortem, and the `World` glue that feeds the
//! supervisors and carries out what they ask for.

use hack_phy::StationId;
use hack_rohc::DecompressStats;
use hack_sim::{SimDuration, SimTime};

use super::{Event, World};
use crate::supervisor::{HealthSignal, SupervisorAction};

/// Held-ACK age past which the compress side raises a staleness health
/// signal (supervised runs only). Generous against ordinary flush-timer
/// latency — only a wedged HACK path trips it.
pub(super) const HELD_STALE_LIMIT: SimDuration = SimDuration::from_millis(50);

/// Window length for the estimator-divergence check.
const EST_WINDOW: SimDuration = SimDuration::from_millis(250);
/// Minimum per-window byte volume before divergence is judged.
const EST_MIN_BYTES: u64 = 64 * 1024;
/// Ratio between acked and sampler-delivered bytes that counts as
/// divergent (either direction).
const EST_RATIO: u64 = 4;
/// Consecutive divergent windows before the supervisor hears it.
const EST_STRIKES: u32 = 2;

/// What the supervisor has already been told about one TCP endpoint.
#[derive(Default)]
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub(super) struct EndpointWatch {
    /// TCP timeouts already reported.
    timeouts_seen: u64,
    /// Estimator-divergence window (senders only): window start plus
    /// the sampler-delivered and cumulative-acked byte counters at that
    /// instant.
    est_win: Option<(SimTime, u64, u64)>,
    /// Consecutive divergent windows seen so far.
    est_bad_windows: u32,
}

impl EndpointWatch {
    /// The connection's retransmit timer fired and its counters now
    /// read `timeouts` / `rto_streak`. True on an RTO stall: a fresh
    /// timeout that is (at least) the second in a row with no ACK
    /// progress, i.e. the ACK clock itself died.
    pub(super) fn on_timeout(&mut self, timeouts: u64, rto_streak: u32) -> bool {
        if timeouts <= self.timeouts_seen {
            return false;
        }
        self.timeouts_seen = timeouts;
        rto_streak >= 2
    }

    /// The congestion controller's delivery-rate sampler (`delivered`)
    /// and the ACK clock (`acked`) must agree about how many bytes the
    /// network delivered. True when they have disagreed by
    /// [`EST_RATIO`]× over [`EST_STRIKES`] consecutive windows that
    /// each moved at least [`EST_MIN_BYTES`] — the estimator feeding
    /// cwnd decisions has come unglued.
    pub(super) fn on_progress(&mut self, now: SimTime, delivered: u64, acked: u64) -> bool {
        let Some((start, d0, a0)) = self.est_win else {
            self.est_win = Some((now, delivered, acked));
            return false;
        };
        if now < start + EST_WINDOW {
            return false;
        }
        let d_delta = delivered.saturating_sub(d0);
        let a_delta = acked.saturating_sub(a0);
        self.est_win = Some((now, delivered, acked));
        let divergent = (a_delta >= EST_MIN_BYTES && d_delta.saturating_mul(EST_RATIO) < a_delta)
            || (d_delta >= EST_MIN_BYTES && a_delta.saturating_mul(EST_RATIO) < d_delta);
        self.est_bad_windows = if divergent {
            self.est_bad_windows + 1
        } else {
            0
        };
        let strike_out = self.est_bad_windows >= EST_STRIKES;
        if strike_out {
            self.est_bad_windows = 0;
        }
        strike_out
    }

    /// The endpoint moved to a fresh connection whose timeout counter
    /// restarts at zero. (The divergence window needs no reset: its
    /// deltas saturate.)
    pub(super) fn on_rekey(&mut self) {
        self.timeouts_seen = 0;
    }
}

/// Blob post-mortem: how often each signal fires for one decoded blob,
/// from the decompressor's counters before and after it — CRC hits,
/// context damage (missing context or malformed segment), and clean
/// decodes, in the order they are reported.
pub(super) fn signals(
    before: &DecompressStats,
    after: &DecompressStats,
) -> [(HealthSignal, u64); 3] {
    let repair = (after.no_context + after.malformed) - (before.no_context + before.malformed);
    [
        (
            HealthSignal::RohcCrcFailure,
            after.crc_failures - before.crc_failures,
        ),
        (HealthSignal::RohcContextRepair, repair),
        (
            HealthSignal::BlobDecoded,
            after.decompressed - before.decompressed,
        ),
    ]
}

impl World {
    /// The flow a (station, peer) pair belongs to: whichever end is a
    /// client identifies it.
    pub(super) fn sup_flow(&self, a: StationId, b: StationId) -> Option<usize> {
        self.layout
            .flow_of_client(a)
            .or_else(|| self.layout.flow_of_client(b))
    }

    /// Feed one health observation to a flow's supervisor and carry out
    /// whatever it asks for.
    pub(super) fn sup_signal(&mut self, flow: usize, sig: HealthSignal, now: SimTime) {
        if flow >= self.supervisors.len() {
            return;
        }
        let acts = self.supervisors[flow].on_signal(sig, now);
        if !acts.is_empty() {
            self.apply_supervisor(flow, acts, now);
        }
    }

    /// Endpoint `ep`'s retransmit timer just fired: report an RTO stall.
    pub(super) fn check_rto_stall(&mut self, ep: usize, now: SimTime) {
        if self.supervisors.is_empty() {
            return;
        }
        let e = &mut self.endpoints[ep];
        let Some(conn) = &e.conn else { return };
        if e.watch.on_timeout(conn.stats().timeouts, conn.rto_streak()) {
            let flow = e.flow;
            self.sup_signal(flow, HealthSignal::RtoStall, now);
        }
    }

    /// Sender `ep` made progress: report sustained estimator divergence
    /// (required to stay silent across the ordinary fault matrix).
    #[inline]
    pub(super) fn check_estimator(&mut self, ep: usize, now: SimTime) {
        let e = &mut self.endpoints[ep];
        if self.supervisors.is_empty() || !e.is_sender {
            return;
        }
        let Some(conn) = e.conn.as_ref() else { return };
        if e.watch
            .on_progress(now, conn.delivered(), conn.bytes_acked())
        {
            let flow = e.flow;
            self.sup_signal(flow, HealthSignal::EstimatorDivergence, now);
        }
    }

    /// Report any health incidents the compress side recorded since the
    /// last drain (held-queue spills, stale holds).
    #[inline]
    pub(super) fn drain_driver_health(&mut self, sid: StationId, peer: StationId, now: SimTime) {
        if self.supervisors.is_empty() {
            return;
        }
        let Some((flow, side)) = self.driver_slot(sid, peer) else {
            return;
        };
        let health = self.compress[flow][side].drain_health();
        for _ in 0..health.spills {
            self.sup_signal(flow, HealthSignal::HeldSpill, now);
        }
        for _ in 0..health.stale_holds {
            self.sup_signal(flow, HealthSignal::HeldAckStale, now);
        }
    }

    /// Materialize supervisor actions for one flow: force/resume the
    /// native path on both compress sides, refresh ROHC contexts, arm
    /// probe timers, and emit the transition trace events.
    pub(super) fn apply_supervisor(
        &mut self,
        flow: usize,
        actions: Vec<SupervisorAction>,
        now: SimTime,
    ) {
        let client = self.layout.client(flow);
        let ap = self.cur_ap_of_flow(flow);
        let flow_id = flow as u32;
        for act in actions {
            let note = match act {
                SupervisorAction::ForceNative => {
                    self.force_flow_native(flow, ap, now);
                    continue;
                }
                SupervisorAction::ReenableHack => {
                    for side in &mut self.compress[flow] {
                        side.resume_hack();
                    }
                    continue;
                }
                // Every ROHC party forgets the flow, so the next native
                // ACK re-seeds the contexts from scratch.
                SupervisorAction::RefreshContexts => {
                    self.drop_flow_contexts(flow);
                    continue;
                }
                SupervisorAction::ScheduleProbe(at) => {
                    self.sup_timers
                        .schedule(&mut self.sched, flow_id, at.max(now), |token| {
                            Event::SupProbe(flow, token)
                        });
                    continue;
                }
                SupervisorAction::NoteDegraded { score } => hack_trace::Event::SupFlowDegraded {
                    flow: flow_id,
                    score,
                },
                SupervisorAction::NoteFallback { reason, backoff } => {
                    hack_trace::Event::SupFallback {
                        flow: flow_id,
                        reason,
                        backoff_us: backoff.as_micros(),
                    }
                }
                SupervisorAction::NoteProbation { attempt } => hack_trace::Event::SupProbation {
                    flow: flow_id,
                    attempt,
                },
                SupervisorAction::NoteRecovered { from } => hack_trace::Event::SupRecovered {
                    flow: flow_id,
                    from,
                },
            };
            hack_trace::trace_ev!(self.trace, now.as_nanos(), client.0, note);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    /// Feed one 250 ms window in which the sampler saw `d` new bytes
    /// and the ACK clock `a`.
    fn window(w: &mut EndpointWatch, t: &mut (SimTime, u64, u64), d: u64, a: u64) -> bool {
        *t = (t.0 + EST_WINDOW, t.1 + d, t.2 + a);
        w.on_progress(t.0, t.1, t.2)
    }

    #[test]
    fn estimator_watch_needs_volume_and_two_strikes_in_a_row() {
        let mut w = EndpointWatch::default();
        let mut t = (SimTime::from_millis(10), 0, 0);
        assert!(!w.on_progress(t.0, 0, 0), "first call opens the window");
        assert!(
            !w.on_progress(t.0 + EST_WINDOW / 2, 0, 900 * KB),
            "mid-window"
        );
        // Silent under 64 KB per window, however lopsided.
        for _ in 0..4 {
            assert!(!window(&mut w, &mut t, 0, 63 * KB));
        }
        // Divergent either way round: fires on the second strike only.
        assert!(!window(&mut w, &mut t, 10 * KB, 100 * KB));
        assert!(window(&mut w, &mut t, 100 * KB, 10 * KB));
        // An agreeing window in between resets the count.
        assert!(!window(&mut w, &mut t, 10 * KB, 100 * KB));
        assert!(!window(&mut w, &mut t, 100 * KB, 90 * KB));
        assert!(!window(&mut w, &mut t, 10 * KB, 100 * KB));
        assert!(window(&mut w, &mut t, 10 * KB, 100 * KB));
    }

    #[test]
    fn rto_stall_is_a_fresh_timeout_with_a_streak() {
        let mut w = EndpointWatch::default();
        assert!(!w.on_timeout(1, 1), "first timeout of a streak");
        assert!(w.on_timeout(2, 2));
        assert!(!w.on_timeout(2, 2), "pacing-timer fire, no new timeout");
        assert!(w.on_timeout(3, 3));
        w.on_rekey();
        assert!(w.on_timeout(1, 2), "a fresh connection counts from zero");
    }

    #[test]
    fn blob_post_mortem_counts_each_signal() {
        let before = DecompressStats {
            decompressed: 10,
            duplicates: 1,
            crc_failures: 2,
            no_context: 3,
            malformed: 4,
        };
        let after = DecompressStats {
            decompressed: 15,
            duplicates: 9,
            crc_failures: 3,
            no_context: 5,
            malformed: 5,
        };
        assert_eq!(
            signals(&before, &after),
            [
                (HealthSignal::RohcCrcFailure, 1),
                (HealthSignal::RohcContextRepair, 3),
                (HealthSignal::BlobDecoded, 5),
            ]
        );
    }
}
