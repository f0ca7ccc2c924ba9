//! End of run: fold the world's meters, counters and per-layer stats
//! into a [`RunResult`].

use hack_rohc::DecompressStats;
use hack_sim::{SimDuration, SimTime};

use super::flows::{ClassAcc, FlowRt};
use super::World;
use crate::scenario::{blob_within_aifs, ClassReport, RunResult};
use crate::supervisor::FlowSupervisor;
use crate::traffic::{TrafficClass, TrafficModel};

/// Start of the final-window goodput measurement — the stall detector.
/// The window is 500 ms, short enough to catch a flow that died
/// mid-run, clamped to half the configured duration so it still spans
/// several RTTs on sub-second runs, and never reaches back before the
/// first flow started.
fn final_window_start(first_start: SimTime, end: SimTime, duration: SimDuration) -> SimTime {
    let window = SimDuration::from_millis(500).min(duration / 2);
    end - end.saturating_duration_since(first_start).min(window)
}

/// One [`ClassReport`] per traffic class with at least one flow, in
/// class-code order. `models` and `goodput_mbps` are indexed by flow;
/// `acc` by class code.
fn class_reports(
    models: &[TrafficModel],
    goodput_mbps: &[f64],
    mut acc: Vec<ClassAcc>,
) -> Vec<ClassReport> {
    let mut classes = Vec::new();
    for class in TrafficClass::ALL {
        let (mut flows, mut goodput) = (0, 0.0);
        for (m, g) in models.iter().zip(goodput_mbps) {
            if m.class() == class {
                flows += 1;
                goodput += g;
            }
        }
        if flows == 0 {
            continue;
        }
        let acc = std::mem::take(&mut acc[class.code() as usize]);
        classes.push(ClassReport {
            class,
            flows,
            transfers: acc.transfers,
            goodput_mbps: goodput,
            fct: acc.fct,
            latency: acc.latency,
            jitter: acc.jitter,
        });
    }
    classes
}

#[cfg(feature = "evprof")]
impl super::Event {
    /// Slot and name of this event's kind in `World::evprof`.
    pub(super) fn kind(&self) -> (usize, &'static str) {
        use super::Event;
        match self {
            Event::FlowStart(_) => (0, "FlowStart"),
            Event::MacTimer(..) => (1, "MacTimer"),
            Event::TxEnd(..) => (2, "TxEnd"),
            Event::HostRx { .. } => (3, "HostRx"),
            Event::WiredDeliver { .. } => (4, "WiredDeliver"),
            Event::TcpTimer(..) => (5, "TcpTimer"),
            Event::InstallBlob { .. } => (6, "InstallBlob"),
            Event::HackFlush(..) => (7, "HackFlush"),
            Event::ChannelDynamics(_) => (8, "ChannelDynamics"),
            Event::SupProbe(..) => (9, "SupProbe"),
            Event::MobilityTick => (10, "MobilityTick"),
            Event::RoamCmd(_) => (11, "RoamCmd"),
            Event::RoamStep { .. } => (12, "RoamStep"),
            Event::FlowRestart(_) => (13, "FlowRestart"),
            Event::PaceTick { .. } => (14, "PaceTick"),
            Event::PaceToggle(_) => (15, "PaceToggle"),
        }
    }
}

impl World {
    /// Collect results after driving the world with [`World::run_until`].
    pub fn finish(self) -> RunResult {
        #[cfg(feature = "evprof")]
        for (name, n, ns) in self.evprof.into_iter().filter(|e| e.1 > 0) {
            eprintln!(
                "evprof {name:<16} {n:>9} events  {:>8.1} ns/event  {:>7.1} ms total",
                ns as f64 / n as f64,
                ns as f64 / 1e6,
            );
        }
        let first_start = self.flow_start_at.first().copied().unwrap_or(SimTime::ZERO);
        let last_start = self.flow_start_at.iter().copied().max();
        let measure_from = last_start.unwrap_or(SimTime::ZERO) + self.cfg.warmup;
        let end = self.completion.unwrap_or(self.end);
        let final_from = final_window_start(first_start, end, self.cfg.duration);
        let goodput_from = |from: SimTime| -> Vec<f64> {
            self.meters
                .iter()
                .map(|m| m.mbps_between(from, end))
                .collect()
        };
        let flow_goodput_mbps = goodput_from(measure_from);
        let flow_goodput_full_mbps = goodput_from(first_start);
        let flow_goodput_final_mbps = goodput_from(final_from);

        let mac: Vec<_> = self.stations.iter().map(|s| s.stats().clone()).collect();

        // Per-flow primary-direction TCP stats: the first sender /
        // receiver endpoint of the flow's range (defaults for
        // endpoint-less UDP-class flows in mixed worlds; nothing at all
        // in a world without TCP).
        let tcp_stats = |sender: bool| -> Vec<_> {
            if self.endpoints.is_empty() {
                return Vec::new();
            }
            let of_flow = |f: &FlowRt| {
                f.ep_range()
                    .find(|&e| self.endpoints[e].is_sender == sender)
                    .and_then(|e| self.endpoints[e].conn.as_ref())
                    .map(|c| c.stats().clone())
                    .unwrap_or_default()
            };
            self.flows.iter().map(of_flow).collect()
        };
        let models: Vec<TrafficModel> = self.flows.iter().map(|f| f.model).collect();

        RunResult {
            events_dispatched: self.sched.dispatched(),
            aggregate_goodput_mbps: flow_goodput_mbps.iter().sum(),
            flow_goodput_full_mbps,
            flow_completion: self.flows.iter().map(|f| f.done_at).collect(),
            sender_tcp: tcp_stats(true),
            receiver_tcp: tcp_stats(false),
            classes: class_reports(&models, &flow_goodput_mbps, self.classes),
            flow_goodput_mbps,
            // Roam-aware: a flow's drivers are keyed to whichever AP it
            // ended the run associated with. The client side holds the
            // download ACKs, the AP side of the same association the
            // upload/bidirectional reverse-path ones.
            driver: self.compress.iter().map(|c| c[0].stats().clone()).collect(),
            driver_ap: self.compress.iter().map(|c| c[1].stats().clone()).collect(),
            compressor: self
                .compress
                .iter()
                .map(|c| c[0].compressor_stats().clone())
                .collect(),
            decompressor: {
                // Aggregate across every AP's decompressor (the single
                // AP's stats, verbatim, on legacy worlds).
                let mut dec = DecompressStats::default();
                for c in &self.layout.cells {
                    dec.merge(self.decompress[c.ap.0 as usize].stats());
                }
                dec
            },
            ppdus: self.medium.completed(),
            collisions: self.medium.collisions(),
            ap_queue_drops: self.ap_queue_drops,
            blob_within_aifs: blob_within_aifs(&mac),
            mac,
            supervisor: self
                .supervisors
                .iter()
                .map(FlowSupervisor::report)
                .collect(),
            flow_goodput_final_mbps,
            roams: self.roam.as_ref().map_or(0, |r| r.roams),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::CbrConfig;

    #[test]
    fn final_window_clamps_to_half_a_short_run() {
        let (ms, at) = (SimDuration::from_millis, SimTime::from_millis);
        assert_eq!(
            final_window_start(at(10), at(10_000), ms(10_000)),
            at(9_500)
        );
        // Sub-second run: half the configured duration, not 500 ms.
        assert_eq!(final_window_start(at(10), at(600), ms(600)), at(300));
        // Early completion right after the first start: back to it, no
        // further.
        assert_eq!(final_window_start(at(10), at(110), ms(10_000)), at(10));
    }

    #[test]
    fn absent_classes_produce_no_report() {
        let models = [
            TrafficModel::Cbr(CbrConfig::default()),
            TrafficModel::BulkDownload,
            TrafficModel::BulkUpload,
        ];
        let mut acc = vec![ClassAcc::default(); TrafficClass::ALL.len()];
        acc[TrafficClass::Bulk.code() as usize].transfers = 2;
        acc[TrafficClass::Short.code() as usize].transfers = 9;
        let reports = class_reports(&models, &[0.5, 10.0, 20.0], acc);
        let seen: Vec<_> = reports
            .iter()
            .map(|r| (r.class, r.flows, r.transfers, r.goodput_mbps))
            .collect();
        assert_eq!(
            seen,
            [
                (TrafficClass::Bulk, 2, 2, 30.0),
                (TrafficClass::Cbr, 1, 0, 0.5)
            ]
        );
    }
}
