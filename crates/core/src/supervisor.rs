//! The HACK supervisor — per-flow health monitoring and graceful
//! degradation.
//!
//! PR 3 gave the stack a deterministic fault injector, but a flow whose
//! HACK path is persistently damaged (corrupted blobs, LL-ACK loss
//! streaks, ACK-clock stalls) kept riding LL ACKs and bleeding goodput:
//! nothing above the ROHC CRC reacted to *sustained* pathology. The
//! supervisor closes that loop. It is a per-flow state machine
//!
//! ```text
//! Healthy → Degraded → NativeFallback → Probation → Healthy
//!                         ↑__________________|  (re-fallback, backoff ×2)
//! ```
//!
//! fed by [`HealthSignal`]s the event loop already observes across the
//! stack (ROHC CRC-3 failures, context repairs, LL-ACK timeouts,
//! held-ACK staleness and spills, FCS-bad receptions, RTO stalls), and
//! it answers with [`SupervisorAction`]s the event loop materializes:
//! force the flow onto the native-ACK path (the runtime equivalent of
//! [`HackMode::Disabled`](crate::HackMode::Disabled) without touching
//! the connection), refresh the ROHC contexts, and re-enable HACK after
//! an exponential-backoff probation window.
//!
//! A peer that never negotiated the HACK capability bit (see
//! `hack_mac::capability`) is a *permanent*, clean fallback:
//! [`FlowHealth::PeerIncapable`] is absorbing and schedules no probes.
//!
//! Like every other component in this workspace the supervisor is
//! sans-IO and consumes no randomness: transitions are a pure function
//! of the signal sequence, so the same-seed trace digest stays
//! byte-identical.

use hack_sim::{SimDuration, SimTime};

/// Why a flow fell back to the native-ACK path (the `reason` field of
/// the `SupFallback` trace event).
pub mod fallback_reason {
    /// Accumulated fault score crossed the fallback threshold.
    pub const FAULTS: u32 = 0;
    /// The peer never negotiated the HACK capability bit; the fallback
    /// is permanent (until a roam lands on a capable AP).
    pub const PEER_INCAPABLE: u32 = 1;
    /// An AP handoff blacked out the link: forced native for the
    /// blackout, probation on the new association.
    pub const HANDOFF: u32 = 2;
}

/// Health state of one flow's HACK path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowHealth {
    /// HACK fully operational.
    Healthy,
    /// Faults are accumulating but HACK is still on; recovers to
    /// [`FlowHealth::Healthy`] if good signals decay the score to zero.
    Degraded,
    /// The supervisor forced native ACKs; a probe timer is pending.
    NativeFallback,
    /// HACK re-enabled on trial after a context refresh; a configurable
    /// number of successful blob decodes promotes back to healthy.
    Probation,
    /// The peer is not HACK-capable: permanent clean fallback, no
    /// probes are ever scheduled.
    PeerIncapable,
}

impl FlowHealth {
    /// Every state with its report name, in wire-code order: a state's
    /// code is its index here, which is also its declaration order.
    const TABLE: [(FlowHealth, &'static str); 5] = [
        (FlowHealth::Healthy, "healthy"),
        (FlowHealth::Degraded, "degraded"),
        (FlowHealth::NativeFallback, "native_fallback"),
        (FlowHealth::Probation, "probation"),
        (FlowHealth::PeerIncapable, "peer_incapable"),
    ];

    /// Short lowercase name for reports and JSON output.
    pub fn name(self) -> &'static str {
        Self::TABLE[usize::from(self.code())].1
    }

    /// Stable wire code for result serialization (the campaign cache).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FlowHealth::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::TABLE.get(usize::from(code)).map(|&(state, _)| state)
    }
}

/// One observation about a flow's HACK path, reported by the event loop
/// from signals the stack already produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// A blob segment failed the ROHC CRC-3 on the decompress side.
    RohcCrcFailure,
    /// The decompressor hit a missing/mismatched context or a malformed
    /// blob (context damage needing a native re-sync).
    RohcContextRepair,
    /// The MAC's ACK timer expired while awaiting the peer's response.
    LlAckTimeout,
    /// A held ACK exceeded the staleness limit on the compress side.
    HeldAckStale,
    /// The bounded held queue spilled its oldest ACK to the native path.
    HeldSpill,
    /// A frame from the peer arrived with a bad FCS.
    FcsBad,
    /// The TCP sender's retransmission timer fired with the connection
    /// established — the ACK clock stalled.
    RtoStall,
    /// The CC delivery-rate sampler and the actually observed goodput
    /// disagreed for a sustained window: the estimator the controller
    /// steers by has diverged from reality (ROADMAP item 3).
    EstimatorDivergence,
    /// A blob decoded cleanly end to end (good signal).
    BlobDecoded,
    /// An LL ACK exchange with the peer completed normally (good
    /// signal).
    LlAckOk,
}

impl HealthSignal {
    /// Fault weight added to the health score (0 for good signals).
    pub fn fault_weight(self) -> u32 {
        match self {
            HealthSignal::RohcCrcFailure => 3,
            HealthSignal::RohcContextRepair => 2,
            HealthSignal::LlAckTimeout => 2,
            HealthSignal::HeldAckStale => 2,
            HealthSignal::HeldSpill => 1,
            HealthSignal::FcsBad => 1,
            HealthSignal::RtoStall => 4,
            HealthSignal::EstimatorDivergence => 2,
            HealthSignal::BlobDecoded | HealthSignal::LlAckOk => 0,
        }
    }

    /// Whether this signal indicates the HACK path is working.
    pub fn is_good(self) -> bool {
        matches!(self, HealthSignal::BlobDecoded | HealthSignal::LlAckOk)
    }
}

/// Supervisor thresholds and timing.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Fault score at which a healthy flow is declared degraded.
    pub degrade_score: u32,
    /// Fault score at which a degraded flow is forced native.
    pub fallback_score: u32,
    /// First probation backoff after a fallback.
    pub probation_initial: SimDuration,
    /// Backoff ceiling for repeated fallbacks (exponential doubling
    /// stops here).
    pub probation_max: SimDuration,
    /// Clean blob decodes required during probation to re-enter
    /// healthy.
    pub probation_success: u32,
    /// Score decay per good signal while healthy or degraded.
    pub decay_good: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        // Tuned against the PR 3 fault matrix: high enough that one
        // Gilbert–Elliott loss burst (≈6 frames of LL-ACK timeouts and
        // FCS hits) does not trip a fallback — HACK's own §3.4
        // retention absorbs those — while a sustained storm, where
        // good signals dry up and faults keep arriving, still does.
        SupervisorConfig {
            degrade_score: 16,
            fallback_score: 32,
            probation_initial: SimDuration::from_millis(200),
            probation_max: SimDuration::from_secs(5),
            probation_success: 16,
            decay_good: 3,
        }
    }
}

/// What the supervisor asks the event loop to do. `Note*` variants are
/// pure trace emissions (the supervisor itself holds no trace handle,
/// keeping it sans-IO like the drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorAction {
    /// Force the flow's compress sides onto the native-ACK path.
    ForceNative,
    /// Resume HACK operation on the flow's compress sides.
    ReenableHack,
    /// Drop the flow's ROHC contexts on all four components so the next
    /// native ACK re-seeds them cleanly.
    RefreshContexts,
    /// Arm the probation probe timer at the given time.
    ScheduleProbe(SimTime),
    /// Emit `SupFlowDegraded` with the score at the transition.
    NoteDegraded {
        /// Fault score when the degrade threshold was crossed.
        score: u32,
    },
    /// Emit `SupFallback`.
    NoteFallback {
        /// See [`fallback_reason`].
        reason: u32,
        /// The probation backoff armed at this fallback (zero when
        /// permanent).
        backoff: SimDuration,
    },
    /// Emit `SupProbation`.
    NoteProbation {
        /// 1-based cumulative probation attempt number.
        attempt: u64,
    },
    /// Emit `SupRecovered`.
    NoteRecovered {
        /// 0 = recovered from Degraded, 1 = from Probation.
        from: u32,
    },
}

/// Per-flow supervisor counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SupervisorStats {
    /// Healthy → Degraded transitions.
    pub degraded: u64,
    /// Forced fallbacks to the native path (incl. peer-incapable).
    pub fallbacks: u64,
    /// Probation windows opened.
    pub probations: u64,
    /// Returns to Healthy (from Degraded or Probation).
    pub recoveries: u64,
    /// Full ROHC context refreshes requested.
    pub refreshes: u64,
    /// AP-handoff blackouts reported.
    pub handoffs: u64,
    /// Estimator-divergence signals received (any state). Zero on the
    /// whole PR 3 fault matrix — pinned by a regression test.
    pub est_divergence: u64,
}

/// Final per-flow supervisor outcome, surfaced in
/// [`RunResult`](crate::RunResult).
#[derive(Debug, Clone, Copy)]
pub struct SupervisorReport {
    /// State the flow ended the run in.
    pub final_state: FlowHealth,
    /// Transition counters.
    pub stats: SupervisorStats,
}

/// The per-flow health state machine.
#[derive(Debug)]
pub struct FlowSupervisor {
    cfg: SupervisorConfig,
    state: FlowHealth,
    /// Accumulated fault score (decayed by good signals).
    score: u32,
    /// Clean blob decodes seen so far in the current probation window.
    successes: u32,
    /// Backoff to use for the *next* fallback.
    backoff: SimDuration,
    /// Cumulative probation attempts (the trace event's 1-based
    /// `attempt`).
    attempts: u64,
    /// Whether a probe timer is currently outstanding.
    probe_armed: bool,
    /// A handoff blackout is in progress: probes are suppressed until
    /// re-association (which always arms a fresh one).
    blackout: bool,
    stats: SupervisorStats,
}

impl FlowSupervisor {
    /// A supervisor for one flow, starting healthy.
    pub fn new(cfg: SupervisorConfig) -> Self {
        FlowSupervisor {
            cfg,
            state: FlowHealth::Healthy,
            score: 0,
            successes: 0,
            backoff: cfg.probation_initial,
            attempts: 0,
            probe_armed: false,
            blackout: false,
            stats: SupervisorStats::default(),
        }
    }

    /// Current health state.
    pub fn state(&self) -> FlowHealth {
        self.state
    }

    /// Current fault score.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Transition counters.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// Whether a probe timer is outstanding (every `NativeFallback`
    /// rest state must have one — pinned by the liveness proptest).
    pub fn probe_armed(&self) -> bool {
        self.probe_armed
    }

    /// Whether a handoff blackout is in progress (disassociated, not
    /// yet re-associated).
    pub fn in_blackout(&self) -> bool {
        self.blackout
    }

    /// Final report for [`RunResult`](crate::RunResult).
    pub fn report(&self) -> SupervisorReport {
        SupervisorReport {
            final_state: self.state,
            stats: self.stats,
        }
    }

    /// The peer turned out not to be HACK-capable: permanent clean
    /// fallback. Absorbing — all later signals and probes are ignored.
    pub fn mark_peer_incapable(&mut self) -> Vec<SupervisorAction> {
        if self.state == FlowHealth::PeerIncapable {
            return Vec::new();
        }
        self.state = FlowHealth::PeerIncapable;
        self.probe_armed = false;
        self.stats.fallbacks += 1;
        vec![
            SupervisorAction::ForceNative,
            SupervisorAction::NoteFallback {
                reason: fallback_reason::PEER_INCAPABLE,
                backoff: SimDuration::ZERO,
            },
        ]
    }

    /// The station disassociated for a roam: the link is black until
    /// re-association. Forces native (held ACKs were already flushed by
    /// the driver) and suppresses probes for the blackout's duration;
    /// [`FlowSupervisor::on_reassociated`] re-arms them. The flow will
    /// pass through probation on the new association rather than
    /// resuming HACK blind.
    pub fn on_handoff(&mut self, _now: SimTime) -> Vec<SupervisorAction> {
        self.stats.handoffs += 1;
        self.blackout = true;
        self.probe_armed = false;
        if self.state == FlowHealth::PeerIncapable {
            // Already native and permanent; re-association decides
            // whether the new peer lifts it.
            return Vec::new();
        }
        let was_fallback = self.state == FlowHealth::NativeFallback;
        self.state = FlowHealth::NativeFallback;
        self.score = 0;
        self.successes = 0;
        if was_fallback {
            // Already on the native path; no new fallback to report.
            return Vec::new();
        }
        self.stats.fallbacks += 1;
        vec![
            SupervisorAction::ForceNative,
            SupervisorAction::NoteFallback {
                reason: fallback_reason::HANDOFF,
                backoff: self.backoff,
            },
        ]
    }

    /// Re-association completed; `capable` is the freshly negotiated
    /// HACK capability bit. A capable AP ends even a
    /// [`FlowHealth::PeerIncapable`] rest (the peer changed!) and arms
    /// the probation probe; an incapable one parks the flow in the
    /// permanent fallback until the next roam.
    pub fn on_reassociated(&mut self, capable: bool, now: SimTime) -> Vec<SupervisorAction> {
        self.blackout = false;
        if !capable {
            if self.state == FlowHealth::PeerIncapable {
                return Vec::new();
            }
            self.state = FlowHealth::PeerIncapable;
            self.probe_armed = false;
            self.stats.fallbacks += 1;
            return vec![
                SupervisorAction::ForceNative,
                SupervisorAction::NoteFallback {
                    reason: fallback_reason::PEER_INCAPABLE,
                    backoff: SimDuration::ZERO,
                },
            ];
        }
        // Capable AP: leave the absorbing state if we were in it, and
        // always arm a fresh probe — any pre-blackout timer was
        // suppressed, so this is the only way back to probation. The
        // backoff ladder is NOT doubled here: a roam is topology, not
        // evidence of HACK pathology.
        self.state = FlowHealth::NativeFallback;
        self.score = 0;
        self.successes = 0;
        self.probe_armed = true;
        vec![SupervisorAction::ScheduleProbe(now + self.backoff)]
    }

    /// Feed one observation; returns the actions it provokes.
    pub fn on_signal(&mut self, sig: HealthSignal, now: SimTime) -> Vec<SupervisorAction> {
        if sig == HealthSignal::EstimatorDivergence {
            self.stats.est_divergence += 1;
        }
        let mut out = Vec::new();
        match self.state {
            FlowHealth::PeerIncapable | FlowHealth::NativeFallback => {
                // Resting: native path active, nothing to score. The
                // fallback state wakes only via its probe timer.
            }
            FlowHealth::Healthy => {
                self.apply_score(sig);
                if self.score >= self.cfg.fallback_score {
                    // A single catastrophic burst can blow straight
                    // through both thresholds.
                    self.stats.degraded += 1;
                    out.push(SupervisorAction::NoteDegraded { score: self.score });
                    self.enter_fallback(now, &mut out);
                } else if self.score >= self.cfg.degrade_score {
                    self.state = FlowHealth::Degraded;
                    self.stats.degraded += 1;
                    out.push(SupervisorAction::NoteDegraded { score: self.score });
                }
            }
            FlowHealth::Degraded => {
                self.apply_score(sig);
                if self.score >= self.cfg.fallback_score {
                    self.enter_fallback(now, &mut out);
                } else if self.score == 0 {
                    self.state = FlowHealth::Healthy;
                    self.stats.recoveries += 1;
                    out.push(SupervisorAction::NoteRecovered { from: 0 });
                }
            }
            FlowHealth::Probation => {
                if sig == HealthSignal::BlobDecoded {
                    self.successes += 1;
                    if self.successes >= self.cfg.probation_success {
                        self.state = FlowHealth::Healthy;
                        self.score = 0;
                        self.backoff = self.cfg.probation_initial;
                        self.stats.recoveries += 1;
                        out.push(SupervisorAction::NoteRecovered { from: 1 });
                    }
                } else if !sig.is_good() {
                    self.score = self.score.saturating_add(sig.fault_weight());
                    // Probation is on a short leash: the degrade
                    // threshold (not the full fallback budget) sends it
                    // back, with the backoff doubled.
                    if self.score >= self.cfg.degrade_score {
                        self.enter_fallback(now, &mut out);
                    }
                }
            }
        }
        out
    }

    /// The probation probe timer fired.
    pub fn on_probe_timer(&mut self, _now: SimTime) -> Vec<SupervisorAction> {
        if self.state != FlowHealth::NativeFallback || self.blackout {
            // A stale probe (the flow was marked peer-incapable after
            // scheduling, the timer raced a transition, or a handoff
            // blackout is in progress — re-association will arm a fresh
            // probe): ignore.
            return Vec::new();
        }
        self.probe_armed = false;
        self.state = FlowHealth::Probation;
        self.score = 0;
        self.successes = 0;
        self.attempts += 1;
        self.stats.probations += 1;
        self.stats.refreshes += 1;
        vec![
            SupervisorAction::RefreshContexts,
            SupervisorAction::ReenableHack,
            SupervisorAction::NoteProbation {
                attempt: self.attempts,
            },
        ]
    }

    fn apply_score(&mut self, sig: HealthSignal) {
        if sig.is_good() {
            self.score = self.score.saturating_sub(self.cfg.decay_good);
        } else {
            self.score = self.score.saturating_add(sig.fault_weight());
        }
    }

    fn enter_fallback(&mut self, now: SimTime, out: &mut Vec<SupervisorAction>) {
        self.state = FlowHealth::NativeFallback;
        self.score = 0;
        self.successes = 0;
        self.stats.fallbacks += 1;
        let backoff = self.backoff;
        // Exponential doubling for the next fallback, capped.
        self.backoff = (self.backoff + self.backoff).min(self.cfg.probation_max);
        self.probe_armed = true;
        out.push(SupervisorAction::ForceNative);
        out.push(SupervisorAction::NoteFallback {
            reason: fallback_reason::FAULTS,
            backoff,
        });
        out.push(SupervisorAction::ScheduleProbe(now + backoff));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn cfg() -> SupervisorConfig {
        SupervisorConfig::default()
    }

    #[test]
    fn health_codes_are_table_indices() {
        for code in 0..5 {
            let state = FlowHealth::from_code(code).expect("known code");
            assert_eq!(state.code(), code);
        }
        assert_eq!(FlowHealth::from_code(5), None);
        assert_eq!(FlowHealth::NativeFallback.name(), "native_fallback");
    }

    #[test]
    fn faults_degrade_then_fall_back() {
        let mut s = FlowSupervisor::new(cfg());
        // FcsBad (weight 1) signals reach the degrade threshold exactly.
        let deg = u64::from(cfg().degrade_score);
        for i in 0..deg - 1 {
            assert!(s.on_signal(HealthSignal::FcsBad, t(i)).is_empty());
        }
        let acts = s.on_signal(HealthSignal::FcsBad, t(deg));
        assert_eq!(
            acts,
            vec![SupervisorAction::NoteDegraded {
                score: cfg().degrade_score
            }]
        );
        assert_eq!(s.state(), FlowHealth::Degraded);
        // RTO stalls (weight 4) push it over the fallback line.
        let stalls = (cfg().fallback_score - cfg().degrade_score).div_ceil(4);
        let mut acts = Vec::new();
        for i in 0..u64::from(stalls) {
            acts = s.on_signal(HealthSignal::RtoStall, t(deg + 1 + i));
        }
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        assert!(acts.contains(&SupervisorAction::ForceNative));
        assert!(acts.contains(&SupervisorAction::ScheduleProbe(
            t(deg + u64::from(stalls)) + cfg().probation_initial
        )));
        assert!(s.probe_armed());
        assert_eq!(s.stats().fallbacks, 1);
    }

    #[test]
    fn good_signals_decay_degraded_back_to_healthy() {
        let mut s = FlowSupervisor::new(cfg());
        let deg = u64::from(cfg().degrade_score);
        for i in 0..deg {
            s.on_signal(HealthSignal::FcsBad, t(i));
        }
        assert_eq!(s.state(), FlowHealth::Degraded);
        let goods = cfg().degrade_score.div_ceil(cfg().decay_good);
        let mut recovered = Vec::new();
        for i in 0..u64::from(goods) {
            recovered = s.on_signal(HealthSignal::BlobDecoded, t(100 + i));
        }
        assert_eq!(s.state(), FlowHealth::Healthy);
        assert_eq!(recovered, vec![SupervisorAction::NoteRecovered { from: 0 }]);
        assert_eq!(s.stats().recoveries, 1);
    }

    #[test]
    fn catastrophic_burst_skips_straight_to_fallback() {
        // One RTO stall (weight 4) blows through both thresholds at
        // once: the degrade note and the fallback sequence fire
        // together.
        let mut s = FlowSupervisor::new(SupervisorConfig {
            degrade_score: 3,
            fallback_score: 4,
            ..cfg()
        });
        let acts = s.on_signal(HealthSignal::RtoStall, t(1));
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        assert!(acts
            .iter()
            .any(|a| matches!(a, SupervisorAction::NoteDegraded { .. })));
        assert!(acts.contains(&SupervisorAction::ForceNative));
        assert_eq!(s.stats().degraded, 1);
        assert_eq!(s.stats().fallbacks, 1);
    }

    /// RtoStall (weight 4) signals enough to blow from Healthy straight
    /// through the fallback threshold.
    fn stall_into_fallback(s: &mut FlowSupervisor, base_ms: u64) {
        let stalls = cfg().fallback_score.div_ceil(4);
        for i in 0..u64::from(stalls) {
            s.on_signal(HealthSignal::RtoStall, t(base_ms + i));
        }
        assert_eq!(s.state(), FlowHealth::NativeFallback);
    }

    #[test]
    fn probation_success_recovers_and_resets_backoff() {
        let mut s = FlowSupervisor::new(cfg());
        stall_into_fallback(&mut s, 0);
        let acts = s.on_probe_timer(t(500));
        assert_eq!(s.state(), FlowHealth::Probation);
        assert!(acts.contains(&SupervisorAction::RefreshContexts));
        assert!(acts.contains(&SupervisorAction::ReenableHack));
        assert!(acts.contains(&SupervisorAction::NoteProbation { attempt: 1 }));
        for i in 0..cfg().probation_success {
            s.on_signal(HealthSignal::BlobDecoded, t(600 + u64::from(i)));
        }
        assert_eq!(s.state(), FlowHealth::Healthy);
        // Backoff reset: a second fallback schedules at the initial
        // delay again.
        stall_into_fallback(&mut s, 700);
        assert!(s
            .on_probe_timer(t(1000))
            .contains(&SupervisorAction::ReenableHack));
    }

    #[test]
    fn probation_failure_doubles_backoff() {
        let mut s = FlowSupervisor::new(cfg());
        stall_into_fallback(&mut s, 0);
        s.on_probe_timer(t(500));
        // Faults during probation: the degrade threshold (not the full
        // fallback budget) sends it back with a doubled backoff.
        let crcs = cfg().degrade_score.div_ceil(3);
        let mut acts = Vec::new();
        for i in 0..u64::from(crcs) {
            acts = s.on_signal(HealthSignal::RohcCrcFailure, t(501 + i));
        }
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        let doubled = cfg().probation_initial + cfg().probation_initial;
        assert!(acts.contains(&SupervisorAction::NoteFallback {
            reason: fallback_reason::FAULTS,
            backoff: doubled,
        }));
        assert_eq!(s.stats().fallbacks, 2);
    }

    #[test]
    fn backoff_is_capped() {
        let mut s = FlowSupervisor::new(cfg());
        let mut backoffs = Vec::new();
        for round in 0..20u64 {
            let base = round * 1000;
            if round > 0 {
                s.on_probe_timer(t(base));
            }
            // Stall until the round's fallback fires (extra stalls after
            // it are ignored in NativeFallback, so exactly one fallback
            // fires per round either way).
            for i in 0..u64::from(cfg().fallback_score.div_ceil(4)) {
                for a in s.on_signal(HealthSignal::RtoStall, t(base + 1 + i)) {
                    if let SupervisorAction::NoteFallback { backoff, .. } = a {
                        backoffs.push(backoff);
                    }
                }
            }
            assert_eq!(s.state(), FlowHealth::NativeFallback);
        }
        assert_eq!(backoffs.len(), 20, "one fallback per round");
        assert!(backoffs.iter().all(|b| *b <= cfg().probation_max));
        assert_eq!(*backoffs.last().unwrap(), cfg().probation_max);
        // Strictly doubling until the cap.
        assert_eq!(backoffs[1], backoffs[0] + backoffs[0]);
    }

    #[test]
    fn peer_incapable_is_absorbing() {
        let mut s = FlowSupervisor::new(cfg());
        let acts = s.mark_peer_incapable();
        assert!(acts.contains(&SupervisorAction::ForceNative));
        assert!(acts.contains(&SupervisorAction::NoteFallback {
            reason: fallback_reason::PEER_INCAPABLE,
            backoff: SimDuration::ZERO,
        }));
        // No signal or probe ever moves it again.
        assert!(s.on_signal(HealthSignal::RtoStall, t(1)).is_empty());
        assert!(s.on_probe_timer(t(2)).is_empty());
        assert!(s.mark_peer_incapable().is_empty());
        assert_eq!(s.state(), FlowHealth::PeerIncapable);
        assert!(!s.probe_armed());
    }

    #[test]
    fn handoff_blackout_then_capable_reassociation_probes() {
        let mut s = FlowSupervisor::new(cfg());
        let acts = s.on_handoff(t(10));
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        assert!(s.in_blackout());
        assert!(!s.probe_armed());
        assert!(acts.contains(&SupervisorAction::ForceNative));
        assert!(acts.contains(&SupervisorAction::NoteFallback {
            reason: fallback_reason::HANDOFF,
            backoff: cfg().probation_initial,
        }));
        assert_eq!(s.stats().handoffs, 1);
        // Probes are suppressed during the blackout, even stale ones.
        assert!(s.on_probe_timer(t(20)).is_empty());
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        // Re-association with a capable AP arms a fresh probe (backoff
        // ladder NOT doubled — a roam is not HACK pathology).
        let acts = s.on_reassociated(true, t(30));
        assert!(!s.in_blackout());
        assert!(s.probe_armed());
        assert_eq!(
            acts,
            vec![SupervisorAction::ScheduleProbe(
                t(30) + cfg().probation_initial
            )]
        );
        // The probe then opens probation and recovery proceeds normally.
        let acts = s.on_probe_timer(t(30) + cfg().probation_initial);
        assert!(acts.contains(&SupervisorAction::ReenableHack));
        assert_eq!(s.state(), FlowHealth::Probation);
    }

    #[test]
    fn handoff_to_incapable_ap_parks_until_capable_roam() {
        let mut s = FlowSupervisor::new(cfg());
        s.on_handoff(t(10));
        let acts = s.on_reassociated(false, t(30));
        assert_eq!(s.state(), FlowHealth::PeerIncapable);
        assert!(acts.contains(&SupervisorAction::NoteFallback {
            reason: fallback_reason::PEER_INCAPABLE,
            backoff: SimDuration::ZERO,
        }));
        // Parked: no probes, signals ignored.
        assert!(s.on_probe_timer(t(40)).is_empty());
        // A later roam to a *capable* AP lifts the permanent fallback —
        // the absorbing state is only absorbing per-association.
        s.on_handoff(t(50));
        let acts = s.on_reassociated(true, t(60));
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        assert!(matches!(acts[0], SupervisorAction::ScheduleProbe(_)));
        assert_eq!(s.stats().handoffs, 2);
    }

    #[test]
    fn handoff_while_already_fallen_back_reports_no_new_fallback() {
        let mut s = FlowSupervisor::new(cfg());
        stall_into_fallback(&mut s, 0);
        assert_eq!(s.stats().fallbacks, 1);
        let acts = s.on_handoff(t(100));
        assert!(acts.is_empty(), "already native: {acts:?}");
        assert_eq!(s.stats().fallbacks, 1);
        assert!(!s.on_reassociated(true, t(120)).is_empty());
    }

    #[test]
    fn estimator_divergence_scores_and_counts() {
        let mut s = FlowSupervisor::new(cfg());
        let n = cfg().fallback_score.div_ceil(2);
        for i in 0..u64::from(n) {
            s.on_signal(HealthSignal::EstimatorDivergence, t(i));
        }
        assert_eq!(s.state(), FlowHealth::NativeFallback);
        assert_eq!(s.stats().est_divergence, u64::from(n));
    }

    #[test]
    fn fallback_ignores_signals_until_probe() {
        let mut s = FlowSupervisor::new(cfg());
        stall_into_fallback(&mut s, 0);
        assert!(s.on_signal(HealthSignal::RohcCrcFailure, t(50)).is_empty());
        assert!(s.on_signal(HealthSignal::BlobDecoded, t(51)).is_empty());
        assert_eq!(s.state(), FlowHealth::NativeFallback);
    }

    // ---- liveness proptest (satellite 4) -------------------------------

    /// One step of an arbitrary history: a signal, (when due) a probe
    /// firing, or a handoff blackout / re-association pair interleaved
    /// arbitrarily.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Sig(HealthSignal),
        Probe,
        Handoff,
        Reassoc(bool),
    }

    fn arb_signal() -> impl Strategy<Value = HealthSignal> {
        prop_oneof![
            Just(HealthSignal::RohcCrcFailure),
            Just(HealthSignal::RohcContextRepair),
            Just(HealthSignal::LlAckTimeout),
            Just(HealthSignal::HeldAckStale),
            Just(HealthSignal::HeldSpill),
            Just(HealthSignal::FcsBad),
            Just(HealthSignal::RtoStall),
            Just(HealthSignal::EstimatorDivergence),
            Just(HealthSignal::BlobDecoded),
            Just(HealthSignal::LlAckOk),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            arb_signal().prop_map(Step::Sig),
            arb_signal().prop_map(Step::Sig),
            arb_signal().prop_map(Step::Sig),
            arb_signal().prop_map(Step::Sig),
            Just(Step::Probe),
            Just(Step::Handoff),
            Just(Step::Reassoc(true)),
            Just(Step::Reassoc(false)),
        ]
    }

    proptest! {
        /// From any reachable state, a healthy tail (due probes fire,
        /// blobs decode cleanly) always re-enters `Healthy` — or the
        /// flow rests in the clean permanent `PeerIncapable` fallback.
        /// No livelock, no deadlock.
        #[test]
        fn always_eventually_healthy(
            steps in proptest::collection::vec(arb_step(), 0..200),
            incapable_at in proptest::option::of(0usize..200),
        ) {
            let mut s = FlowSupervisor::new(cfg());
            let mut now = SimTime::ZERO;
            let tick = SimDuration::from_millis(1);
            for (i, step) in steps.iter().enumerate() {
                now += tick;
                if incapable_at == Some(i) {
                    s.mark_peer_incapable();
                }
                match step {
                    Step::Sig(sig) => { s.on_signal(*sig, now); }
                    Step::Probe => { s.on_probe_timer(now); }
                    Step::Handoff => if !s.in_blackout() { let _ = s.on_handoff(now); }
                    Step::Reassoc(cap) => if s.in_blackout() {
                        let _ = s.on_reassociated(*cap, now);
                    }
                }
                // Invariant: outside a handoff blackout, a fault-driven
                // fallback always has a probe outstanding — it can
                // never sleep forever. During a blackout probes are
                // deliberately suppressed; re-association re-arms.
                if s.state() == FlowHealth::NativeFallback && !s.in_blackout() {
                    prop_assert!(s.probe_armed());
                }
            }
            // Healthy tail: complete any in-flight handoff onto a
            // capable AP, fire due probes, then feed clean decodes.
            // Bounded steps must suffice — that's the liveness claim.
            if s.in_blackout() {
                now += tick;
                s.on_reassociated(true, now);
            }
            if s.state() == FlowHealth::PeerIncapable {
                prop_assert!(!s.probe_armed());
                return Ok(());
            }
            let mut budget = 4 * (cfg().fallback_score + cfg().probation_success);
            while s.state() != FlowHealth::Healthy {
                prop_assert!(budget > 0, "no convergence; stuck in {:?}", s.state());
                budget -= 1;
                now += tick;
                if s.state() == FlowHealth::NativeFallback {
                    s.on_probe_timer(now);
                } else {
                    s.on_signal(HealthSignal::BlobDecoded, now);
                }
            }
            prop_assert_eq!(s.state(), FlowHealth::Healthy);
        }
    }
}
