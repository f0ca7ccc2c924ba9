//! Mid-flow AP handoff: which cell serves each flow, the association
//! machines and their step-token guard, the blackout parking lot, client
//! mobility — and the `World` orchestration of a handoff around them.

use hack_mac::{AssocMachine, AssocState, AssocStep};
use hack_phy::{RoamMonitor, StationId, Trajectory};
use hack_sim::{SimDuration, SimRng, SimTime};
use hack_tcp::Ipv4Packet;

use super::{Event, World};
use crate::scenario::RoamConfig;

/// Per-world roaming state. Present only when `cfg.roam.is_active()`, so
/// roam-free worlds allocate nothing, draw nothing, and keep their
/// same-seed trace digests bit for bit.
pub(super) struct RoamRuntime {
    /// flow → cell currently serving it (starts at the layout cell).
    cur_cell: Vec<usize>,
    /// Association machine per flow.
    machines: Vec<AssocMachine>,
    /// SNR roam monitor per flow (present when a trigger is configured).
    monitors: Vec<Option<RoamMonitor>>,
    /// Waypoint trajectory per flow's client, if one was scheduled.
    trajectories: Vec<Option<Trajectory>>,
    /// Packets parked while their flow is between associations:
    /// `(upstream, packet)` where upstream = client → AP.
    parked: Vec<Vec<(bool, Ipv4Packet)>>,
    /// Stale-token guard for [`Event::RoamStep`].
    step_token: Vec<u32>,
    /// Association-attempt randomness, forked off the world seed so
    /// roam-free draws are untouched.
    rng: SimRng,
    /// Completed re-associations (including give-up returns).
    pub(super) roams: u64,
}

impl RoamRuntime {
    /// Roaming state for flows that start in `home_cells[flow]`.
    pub(super) fn new(cfg: &RoamConfig, home_cells: Vec<usize>, rng: SimRng) -> RoamRuntime {
        let n = home_cells.len();
        let mut trajectories: Vec<Option<Trajectory>> = vec![None; n];
        for p in &cfg.paths {
            if p.client < n {
                trajectories[p.client] = Some(Trajectory::new(p.waypoints.clone()));
            }
        }
        RoamRuntime {
            machines: home_cells
                .iter()
                .map(|&home| AssocMachine::new(cfg.assoc, home))
                .collect(),
            cur_cell: home_cells,
            monitors: vec![cfg.trigger.map(|t| RoamMonitor::new(t, SimTime::ZERO)); n],
            trajectories,
            parked: vec![Vec::new(); n],
            step_token: vec![0; n],
            rng,
            roams: 0,
        }
    }

    /// The cell currently serving `flow`. Moves only in
    /// [`RoamRuntime::complete`].
    #[inline]
    pub(super) fn cur_cell(&self, flow: usize) -> usize {
        self.cur_cell[flow]
    }

    /// Is `flow` between associations (scanning or reassociating)?
    #[inline]
    pub(super) fn in_blackout(&self, flow: usize) -> bool {
        self.machines[flow].roaming()
    }

    /// Hold a packet for a flow in handoff blackout, to be re-injected
    /// through the new association. False when the lot already holds
    /// `cap` packets: the new packet is refused (tail drop — TCP
    /// retransmits).
    pub(super) fn park(
        &mut self,
        flow: usize,
        upstream: bool,
        pkt: Ipv4Packet,
        cap: usize,
    ) -> bool {
        let lot = &mut self.parked[flow];
        if lot.len() >= cap {
            return false;
        }
        lot.push((upstream, pkt));
        true
    }

    /// Where each client with a trajectory stands at `t`: `(flow,
    /// position if the path has an opinion, still en route after t?)`.
    pub(super) fn positions_at(
        &self,
        t: SimDuration,
    ) -> impl Iterator<Item = (usize, Option<(f64, f64)>, bool)> + '_ {
        self.trajectories
            .iter()
            .enumerate()
            .filter_map(move |(flow, traj)| {
                let traj = traj.as_ref()?;
                let en_route = traj.end().is_some_and(|e| e > t);
                Some((flow, traj.position_at(t), en_route))
            })
    }

    /// Leave the serving cell for `target`: the blackout begins. `None`
    /// if the machine refuses (already roaming, or `target` serves the
    /// flow now).
    pub(super) fn begin(&mut self, flow: usize, target: usize, now: SimTime) -> Option<AssocStep> {
        self.machines[flow].start_roam(target, now)
    }

    /// The token for a fresh [`Event::RoamStep`] wait; every earlier
    /// token of the flow goes stale.
    pub(super) fn wait_token(&mut self, flow: usize) -> u32 {
        self.step_token[flow] = self.step_token[flow].wrapping_add(1);
        self.step_token[flow]
    }

    /// A [`Event::RoamStep`] timer fired: move the machine past its
    /// current wait. `None` for a stale token or a settled machine.
    pub(super) fn advance(&mut self, flow: usize, token: u32) -> Option<AssocStep> {
        if self.step_token[flow] != token {
            return None;
        }
        let m = &mut self.machines[flow];
        match m.state() {
            AssocState::Associated => None,
            AssocState::Scanning => Some(m.on_scan_done()),
            AssocState::Reassociating => Some(m.on_retry_timer()),
        }
    }

    /// Carry out one association attempt, failing with probability
    /// `fail_prob`. `None` = associated with the target; otherwise the
    /// retry wait, or — retries exhausted, the machine already settled
    /// back on the cell it left — the give-up step.
    pub(super) fn attempt(
        &mut self,
        flow: usize,
        fail_prob: f64,
        now: SimTime,
    ) -> Option<AssocStep> {
        let ok = fail_prob <= 0.0 || !self.rng.chance(fail_prob);
        let m = &mut self.machines[flow];
        let next = m.on_assoc_result(ok, now);
        if let Some(AssocStep::GiveUp { .. }) = next {
            m.on_gave_up();
        }
        next
    }

    /// The (re-)association onto `cell` is done: the flow is served
    /// there from now on. Returns what was parked during the blackout,
    /// in arrival order.
    pub(super) fn complete(
        &mut self,
        flow: usize,
        cell: usize,
        now: SimTime,
    ) -> Vec<(bool, Ipv4Packet)> {
        self.cur_cell[flow] = cell;
        self.roams += 1;
        if let Some(mon) = self.monitors[flow].as_mut() {
            mon.on_associated(now);
        }
        std::mem::take(&mut self.parked[flow])
    }
}

impl World {
    /// The association-time capability handshake between `client` and
    /// `ap`: whether the pair may use HACK, as the client's MAC sees it
    /// afterwards.
    pub(super) fn negotiate_hack(&mut self, client: StationId, ap: StationId) -> Option<bool> {
        let req = self.station(client).assoc_request();
        let resp = self.station(ap).on_assoc_request(&req);
        let client = self.station(client);
        client.on_assoc_response(&resp);
        client.hack_negotiated(ap)
    }

    /// Park a packet of a flow in blackout; a full lot counts as an AP
    /// queue drop.
    pub(super) fn park(&mut self, flow: usize, upstream: bool, pkt: Ipv4Packet) {
        let Some(r) = self.roam.as_mut() else { return };
        if !r.park(flow, upstream, pkt, self.cfg.roam.park_cap) {
            self.ap_queue_drops += 1;
        }
    }

    /// Advance every scheduled trajectory and re-evaluate the SNR roam
    /// trigger. Self-rescheduling while any client is still moving or a
    /// trigger is configured.
    pub(super) fn on_mobility_tick(&mut self, now: SimTime) {
        let Some(r) = self.roam.as_ref() else { return };
        let mut still_moving = false;
        for (flow, pos, en_route) in r.positions_at(SimDuration::from_nanos(now.as_nanos())) {
            still_moving |= en_route;
            if let Some((x, y)) = pos {
                self.medium.place_station(self.layout.client(flow), x, y);
            }
        }
        if self.cfg.roam.trigger.is_some() {
            for flow in 0..self.layout.n_flows() {
                self.maybe_roam_on_snr(flow, now);
            }
            // Triggered roams stay possible as long as the clock runs.
            still_moving = true;
        }
        if still_moving {
            let at = now + self.cfg.roam.mobility_tick;
            if at <= self.end {
                self.sched.schedule_at(at, Event::MobilityTick);
            }
        }
    }

    /// Evaluate the SNR roam trigger for `flow` (mobility ticks and
    /// mid-run `MoveClient` dynamics both land here).
    pub(super) fn maybe_roam_on_snr(&mut self, flow: usize, now: SimTime) {
        let Some(r) = self.roam.as_ref() else { return };
        if flow >= self.layout.n_flows() || r.in_blackout(flow) {
            return;
        }
        let Some(mon) = r.monitors[flow].as_ref() else {
            return;
        };
        let client = self.layout.client(flow);
        let cur = r.cur_cell(flow);
        let serving = self.medium.snr_db(self.layout.cells[cur].ap, client);
        let candidates: Vec<(usize, f64)> = (0..self.layout.cells.len())
            .filter(|&c| c != cur)
            .map(|c| (c, self.medium.snr_db(self.layout.cells[c].ap, client)))
            .collect();
        if let Some(target) = mon.evaluate(serving, &candidates, now) {
            self.start_roam(flow, target, now);
        }
    }

    /// Begin a handoff: flush and tear down the old association, enter
    /// the blackout, and hand control to the association machine.
    pub(super) fn start_roam(&mut self, flow: usize, target: usize, now: SimTime) {
        let Some(r) = self.roam.as_ref() else { return };
        if flow >= self.layout.n_flows() || target >= self.layout.cells.len() {
            return;
        }
        let from_cell = r.cur_cell(flow);
        if r.in_blackout(flow) || target == from_cell {
            return;
        }
        let client = self.layout.client(flow);
        let old_ap = self.layout.cells[from_cell].ap;
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacRoamTriggered {
                flow: flow as u32,
                from_cell: from_cell as u32,
                to_cell: target as u32
            }
        );
        // 1) Flush held ACKs on both driver sides before the link dies:
        //    unridden holds are released as native sends (parked below,
        //    re-injected post-roam) — never silently dropped, and holds
        //    that already rode a response were delivered, so no ACK is
        //    ever delivered twice either.
        self.force_flow_native(flow, old_ap, now);
        // 2) The old association's ROHC contexts die with it: decoding
        //    against a stale context across a handoff is never legal, so
        //    every party forgets the flow and the first post-roam native
        //    ACK re-seeds from scratch.
        self.drop_flow_contexts(flow);
        // 3) MAC teardown: negotiated capability and blob state toward
        //    the old peer go away; unsent MSDUs are parked for the new
        //    association. Frames already committed to the air finish
        //    through the old path.
        let up = self.station(client).disassociate(old_ap);
        let down = self.station(old_ap).disassociate(client);
        for m in up {
            self.park(flow, true, m.0);
        }
        for m in down {
            self.park(flow, false, m.0);
        }
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacDisassociated {
                flow: flow as u32,
                ap: old_ap.0
            }
        );
        // 4) Supervisor blackout + RTO clamp: HACK drops to native for
        //    the handoff, probes are suppressed, and Karn doubling is
        //    pinned so the transport neither probes a dead link nor
        //    backs off into next week while the link is simply absent.
        if flow < self.supervisors.len() {
            let acts = self.supervisors[flow].on_handoff(now);
            self.apply_supervisor(flow, acts, now);
            hack_trace::trace_ev!(
                self.trace,
                now.as_nanos(),
                client.0,
                hack_trace::Event::SupHandoffBlackout {
                    flow: flow as u32,
                    to_cell: target as u32
                }
            );
        }
        let shift = self.cfg.roam.rto_clamp_shift;
        for ep in self.flows[flow].ep_range() {
            if let Some(conn) = self.endpoints[ep].conn.as_mut() {
                conn.clamp_rto_backoff(shift);
            }
        }
        // 5) The association machine takes over.
        let step = self.roam.as_mut().and_then(|r| r.begin(flow, target, now));
        if let Some(step) = step {
            self.exec_assoc_step(flow, step, now);
        }
    }

    /// A [`Event::RoamStep`] timer fired: advance the flow's association
    /// machine past its current wait.
    pub(super) fn on_roam_step(&mut self, flow: usize, token: u32, now: SimTime) {
        if let Some(step) = self.roam.as_mut().and_then(|r| r.advance(flow, token)) {
            self.exec_assoc_step(flow, step, now);
        }
    }

    /// Carry out association-machine steps until the machine wants to
    /// wait or settles back into `Associated`.
    fn exec_assoc_step(&mut self, flow: usize, mut step: AssocStep, now: SimTime) {
        let fail_prob = self.cfg.roam.assoc_fail_prob;
        loop {
            let Some(r) = self.roam.as_mut() else { return };
            match step {
                AssocStep::Wait(at) => {
                    let token = r.wait_token(flow);
                    self.sched
                        .schedule_at(at.max(now), Event::RoamStep { flow, token });
                    return;
                }
                AssocStep::Attempt { cell, .. } => match r.attempt(flow, fail_prob, now) {
                    Some(next) => step = next,
                    None => return self.complete_reassociation(flow, cell, now),
                },
                AssocStep::GiveUp { back_to } => {
                    return self.complete_reassociation(flow, back_to, now)
                }
            }
        }
    }

    /// Finish a handoff onto `cell`: re-key the drivers, renegotiate the
    /// HACK capability with the new AP, lift the blackout, and re-inject
    /// parked traffic.
    fn complete_reassociation(&mut self, flow: usize, cell: usize, now: SimTime) {
        let client = self.layout.client(flow);
        let old_ap = self.cur_ap_of_flow(flow);
        let new_ap = self.layout.cells[cell].ap;
        // Driver state follows the association: the flow's AP-end
        // drivers answer to the new AP once `cur_cell` moves below.
        // Stats survive the move. The ROHC contexts were dropped at
        // disassociation; the decompress end drops them again, since a
        // native that landed on the old AP during the blackout must not
        // seed the new association.
        if new_ap != old_ap {
            self.compress[flow][1].set_trace(self.trace.clone(), new_ap.0);
            self.decompress[flow][1].set_trace(self.trace.clone(), new_ap.0);
            for ep in self.flows[flow].ep_range() {
                for tuple in self.ack_tuples(ep).into_iter().flatten() {
                    self.decompress[flow][1].drop_context(&tuple);
                }
            }
        }
        // Retune the radio: the client joins the new cell's interference
        // domain (channel) — without this, the new AP's frames would
        // never reach it.
        self.medium.retune_station(client, cell as u32);
        // Fresh capability handshake, in band with the re-association:
        // HACK may legally flip off (incapable AP) and back on here.
        let negotiated = self.negotiate_hack(client, new_ap) == Some(true);
        let Some(r) = self.roam.as_mut() else { return };
        let parked = r.complete(flow, cell, now);
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacReassociated {
                flow: flow as u32,
                ap: new_ap.0,
                hack: negotiated
            }
        );
        if !negotiated {
            // Incapable new AP: the drivers must never hold an ACK
            // against a peer that cannot decode it.
            self.force_flow_native(flow, new_ap, now);
        }
        if flow < self.supervisors.len() {
            let acts = self.supervisors[flow].on_reassociated(negotiated, now);
            self.apply_supervisor(flow, acts, now);
        }
        for ep in self.flows[flow].ep_range() {
            if let Some(conn) = self.endpoints[ep].conn.as_mut() {
                conn.unclamp_rto_backoff();
            }
        }
        // Lift the blackout: parked traffic flows through the new
        // association (ACKs back through the re-keyed drivers).
        for (upstream, pkt) in parked {
            if upstream {
                self.wireless_out(client, new_ap, pkt, now);
            } else {
                self.ap_downstream(new_ap, pkt, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{Ipv4Addr, Transport};

    fn runtime(flows: usize) -> RoamRuntime {
        RoamRuntime::new(&RoamConfig::default(), vec![0; flows], SimRng::new(1))
    }

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

    #[test]
    fn park_refuses_the_packet_past_the_cap_and_says_so() {
        let mut r = runtime(2);
        for i in 0..3 {
            assert!(r.park(1, i % 2 == 0, pkt(i), 3));
        }
        assert!(!r.park(1, true, pkt(3), 3), "tail drop: the new packet");
        assert!(r.park(0, true, pkt(9), 3), "lots are per flow");
        let parked = r.complete(1, 0, SimTime::ZERO);
        let kept: Vec<(bool, u16)> = parked.iter().map(|(up, p)| (*up, p.ident)).collect();
        assert_eq!(kept, [(true, 0), (false, 1), (true, 2)]);
        assert!(r.complete(1, 0, SimTime::ZERO).is_empty());
    }

    #[test]
    fn stale_step_token_is_ignored() {
        let mut r = runtime(1);
        let now = SimTime::from_millis(100);
        assert!(matches!(r.begin(0, 1, now), Some(AssocStep::Wait(_))));
        let stale = r.wait_token(0);
        let live = r.wait_token(0);
        assert_eq!(r.advance(0, stale), None);
        assert!(matches!(
            r.advance(0, live),
            Some(AssocStep::Attempt { cell: 1, .. })
        ));
    }

    #[test]
    fn blackout_spans_begin_to_association_and_cur_cell_moves_on_complete() {
        let mut r = runtime(2);
        let now = SimTime::from_millis(100);
        assert!(!r.in_blackout(0));
        assert_eq!(r.begin(0, 0, now), None, "already served by cell 0");
        assert!(r.begin(0, 1, now).is_some());
        assert_eq!(r.begin(0, 1, now), None, "already roaming");
        let token = r.wait_token(0);
        assert!(r.in_blackout(0) && !r.in_blackout(1));
        assert!(r.advance(0, token).is_some());
        assert!(r.in_blackout(0));
        assert_eq!(r.attempt(0, 0.0, now), None, "associated");
        assert!(!r.in_blackout(0));
        assert_eq!((r.cur_cell(0), r.roams), (0, 0));
        assert!(r.complete(0, 1, now).is_empty());
        assert_eq!((r.cur_cell(0), r.cur_cell(1), r.roams), (1, 0, 1));
        assert_eq!(r.advance(0, token), None, "settled machine");
    }
}
