//! The shared broadcast medium: who is transmitting, who collides, what
//! each receiver decodes.
//!
//! The medium is payload-agnostic — it deals only in [`PpduMeta`]
//! (source, destination, rate, per-MPDU lengths, airtime). The event loop
//! in `hack-core` stores the actual frames keyed by the returned [`TxId`]
//! and calls [`Medium::end_tx`] when the scheduled airtime elapses.
//!
//! ## Collision model
//!
//! Within one interference domain, every station is within carrier-sense
//! range of every other (the paper's scenarios are a single 10 m cell
//! with no hidden terminals), so any two transmissions that overlap in
//! time corrupt each other completely — no capture effect. This is the
//! conservative model; it is what makes vanilla TCP's ACK/data
//! collisions visible, the effect TCP/HACK exploits (§4.2, Table 1).
//!
//! Dense multi-BSS worlds partition stations into *interference domains*
//! (one per BSS) related by an [`InterferenceGraph`]: overlapping
//! transmissions corrupt each other only when their domains interfere,
//! and a PPDU is received (or even heard as energy) only by stations in
//! domains that hear the transmitter's. Legacy single-cell worlds get
//! the single-domain graph, which reproduces the historical behaviour
//! bit for bit — same reception iteration order, same RNG draws, same
//! trace digests.
//!
//! ## Loss model
//!
//! For non-collided PPDUs, the preamble may be missed (SNR mode only) and
//! then each MPDU inside the aggregate is lost independently per
//! [`LossModel::mpdu_loss_prob`], matching per-MPDU CRCs in 802.11n.
//! [`LossModel::Burst`] instead advances a per-link Gilbert–Elliott state
//! machine one step per MPDU, so losses cluster the way fading does.
//!
//! ## Fault injection
//!
//! With a [`CorruptModel`] installed the medium can *deliver* a faulted
//! MPDU with flipped bits instead of silently dropping it, reported as
//! [`MpduStatus::Corrupt`]. `fcs_ok: false` means the MAC FCS catches the
//! damage (the receiver sees garbage and defers EIFS); `fcs_ok: true`
//! models the rare flip the FCS check cannot see — in this codebase that
//! is the HACK blob extension of a control frame, which is exactly the
//! input the ROHC CRC-3 / context-repair path (§3.3.2) exists to absorb.

use hack_sim::{FastMap, SimRng, SimTime};
use hack_trace::{Event, TraceHandle};

use crate::channel::Channel;
use crate::error::LossModel;
use crate::interference::InterferenceGraph;
use crate::rates::PhyRate;
use crate::StationId;
use hack_sim::SimDuration;

/// Identifies one in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

/// Payload-agnostic description of a PPDU on the air.
#[derive(Debug, Clone)]
pub struct PpduMeta {
    /// Transmitting station.
    pub src: StationId,
    /// Intended receiver (`None` = broadcast; every station decodes).
    pub dst: Option<StationId>,
    /// Data rate of the PSDU.
    pub rate: PhyRate,
    /// Length in bytes of each MPDU in the (possibly singleton) aggregate.
    pub mpdu_lens: Vec<u32>,
    /// Whether this PPDU is a control response (ACK / Block ACK / BAR).
    /// The fixed-loss model exempts control frames: measured
    /// "packet loss rates" (the paper's 12 % / 2 %) describe data
    /// frames, and short basic-rate control frames are far more robust.
    /// The SNR model still applies to them (at their own rate).
    pub control: bool,
    /// Total airtime including preamble.
    pub duration: SimDuration,
}

/// What happened to one MPDU of an aggregate at one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpduStatus {
    /// Decoded cleanly.
    Ok,
    /// Channel ate it; the receiver saw nothing of this MPDU.
    Lost,
    /// Delivered with flipped bits (fault injection).
    Corrupt {
        /// `false`: the MAC FCS catches the damage — the frame body is
        /// discarded and the receiver defers EIFS. `true`: the flip
        /// escaped the FCS-protected region (HACK blob extension), so
        /// the MAC accepts the frame and hands corrupted blob bytes up
        /// to the ROHC decompressor.
        fcs_ok: bool,
    },
}

impl MpduStatus {
    /// Whether the MPDU was decoded cleanly.
    pub fn is_ok(self) -> bool {
        self == MpduStatus::Ok
    }
}

/// Probability knobs for corrupted delivery. All zero ⇒ identical to the
/// plain drop model.
///
/// `fcs_miss` is deliberately exaggerated relative to a real CRC-32
/// residual (~2⁻³²): it is a fault-injection knob for driving the ROHC
/// CRC-3 repair path under load, not a claim about FCS strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptModel {
    /// Fraction of *lost* data MPDUs that arrive corrupted (and are
    /// always FCS-caught) instead of vanishing.
    pub data_frac: f64,
    /// Independent per-MPDU corruption probability for control frames,
    /// applied even where the loss model exempts them from drops.
    pub control_per: f64,
    /// Probability a corrupted control MPDU's bit flip lands beyond the
    /// FCS-checked region, i.e. inside the HACK blob extension.
    pub fcs_miss: f64,
}

impl Default for CorruptModel {
    fn default() -> Self {
        CorruptModel {
            data_frac: 0.5,
            control_per: 0.01,
            fcs_miss: 0.1,
        }
    }
}

/// What one station heard of one PPDU.
#[derive(Debug, Clone)]
pub struct Reception {
    /// The listening station.
    pub station: StationId,
    /// Whether the preamble was detected and the PPDU did not collide.
    /// When false, the station saw only energy (it still defers).
    pub detected: bool,
    /// Per-MPDU decode results (empty when `detected` is false).
    pub mpdus: Vec<MpduStatus>,
    /// Link SNR in dB (`f64::INFINITY` when no channel model is active).
    pub snr_db: f64,
}

impl Reception {
    /// Whether MPDU `i` was decoded cleanly.
    pub fn mpdu_ok(&self, i: usize) -> bool {
        self.mpdus.get(i).copied().is_some_and(MpduStatus::is_ok)
    }
}

/// The result of a completed transmission.
#[derive(Debug, Clone)]
pub struct TxOutcome {
    /// The transmission's metadata, returned to the caller.
    pub meta: PpduMeta,
    /// Whether another transmission overlapped this one.
    pub collided: bool,
    /// One entry per listening station other than the source — every
    /// station whose interference domain hears the transmitter's (all
    /// other stations on a legacy single-domain medium).
    pub receptions: Vec<Reception>,
}

#[derive(Debug)]
struct ActiveTx {
    id: TxId,
    meta: PpduMeta,
    start: SimTime,
    end: SimTime,
    collided: bool,
    /// Interference domain of the transmitter.
    domain: u32,
}

/// The broadcast medium.
#[derive(Debug)]
pub struct Medium {
    stations: Vec<StationId>,
    /// Interference domain of each station, indexed by station id (small
    /// dense integers); [`UNREGISTERED`] for ids not on the medium.
    domain_of: Vec<u32>,
    /// Which domains can corrupt / hear each other.
    graph: InterferenceGraph,
    /// Per domain `d`: the stations (in `stations` order) whose domain
    /// hears `d` — the only candidates `end_tx` computes receptions for.
    listeners: Vec<Vec<StationId>>,
    loss: LossModel,
    channel: Option<Channel>,
    active: Vec<ActiveTx>,
    next_id: u64,
    /// Number of transmissions that ended collided.
    collisions: u64,
    /// Total transmissions completed.
    completed: u64,
    /// Gilbert–Elliott bad-state flags, one per unordered link, advanced
    /// one step per MPDU heard on that link (absent = good).
    ge: FastMap<(u32, u32), bool>,
    /// Per-station loss overrides *composed* on top of the burst/SNR
    /// models by mid-run [`Medium::set_station_loss`] steps (the fixed
    /// models mutate their own table instead).
    extra_loss: FastMap<StationId, f64>,
    /// Mid-run loss steps applied (fixed mutations and compositions).
    loss_overrides: u64,
    /// Corrupted-delivery knobs (`None` = plain drops).
    corrupt: Option<CorruptModel>,
    /// Global SNR offset in dB applied on top of the channel model —
    /// the handle mid-run channel dynamics use to fade the whole cell.
    snr_offset_db: f64,
    /// Lists handed back through [`Medium::recycle`].
    spare_receptions: Vec<Vec<Reception>>,
    spare_lens: Vec<Vec<u32>>,
    trace: TraceHandle,
}

/// `domain_of` entry of a station id that is not on the medium.
const UNREGISTERED: u32 = u32::MAX;

/// Spare lists of each kind kept: one per plausibly concurrent PPDU.
const SPARE_LISTS: usize = 8;

/// Unordered link key for per-link channel state.
fn link_key(a: StationId, b: StationId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl Medium {
    /// Create a medium over the given stations with a loss model and an
    /// optional propagation channel (required for [`LossModel::Snr`]).
    ///
    /// Every station lands in a single interference domain — the legacy
    /// "any overlap anywhere corrupts everyone" broadcast cell.
    ///
    /// # Panics
    /// Panics if `loss` is SNR-driven but no channel is supplied.
    pub fn new(stations: Vec<StationId>, loss: LossModel, channel: Option<Channel>) -> Self {
        let domains = vec![0; stations.len()];
        Medium::with_domains(
            stations,
            domains,
            InterferenceGraph::single(),
            loss,
            channel,
        )
    }

    /// Create a medium whose stations are partitioned into interference
    /// domains (`domains[i]` is the domain of `stations[i]`) related by
    /// `graph`. Overlapping transmissions corrupt each other only when
    /// their domains interfere, and receptions are computed only for
    /// stations whose domain hears the transmitter's.
    ///
    /// # Panics
    /// Panics if `loss` is SNR-driven but no channel is supplied, if
    /// `domains` is not parallel to `stations`, or if a domain index is
    /// out of range for `graph`.
    pub fn with_domains(
        stations: Vec<StationId>,
        domains: Vec<u32>,
        graph: InterferenceGraph,
        loss: LossModel,
        channel: Option<Channel>,
    ) -> Self {
        if matches!(loss, LossModel::Snr) {
            assert!(
                channel.is_some(),
                "SNR loss model requires a propagation channel"
            );
        }
        assert_eq!(
            stations.len(),
            domains.len(),
            "one interference domain per station"
        );
        assert!(
            domains.iter().all(|&d| (d as usize) < graph.len()),
            "station domain out of range for the interference graph"
        );
        let slots = stations.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
        let mut domain_of = vec![UNREGISTERED; slots];
        for (s, &d) in stations.iter().zip(&domains) {
            domain_of[s.0 as usize] = d;
        }
        let mut medium = Medium {
            stations,
            domain_of,
            graph,
            listeners: Vec::new(),
            loss,
            channel,
            active: Vec::new(),
            next_id: 0,
            collisions: 0,
            completed: 0,
            ge: FastMap::default(),
            extra_loss: FastMap::default(),
            loss_overrides: 0,
            corrupt: None,
            snr_offset_db: 0.0,
            spare_receptions: Vec::new(),
            spare_lens: Vec::new(),
            trace: TraceHandle::off(),
        };
        medium.rebuild_listeners();
        medium
    }

    /// Per domain `d`, the stations (in registration order) whose domain
    /// hears `d`: the legacy single-domain graph makes listeners[0] ==
    /// stations, so `end_tx` walks the historical iteration order. Rebuilt
    /// whole (handoffs are rare, fleets are small).
    fn rebuild_listeners(&mut self) {
        let hears = |d, s: &StationId| self.graph.interferes(self.domain_of(*s), d);
        let audience = |d| self.stations.iter().copied().filter(move |s| hears(d, s));
        let domains = 0..self.graph.len() as u32;
        self.listeners = domains.map(|d| audience(d).collect()).collect();
    }

    /// Install the structured-event trace handle (off by default).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Install (or clear) the corrupted-delivery model.
    pub fn set_corruption(&mut self, corrupt: Option<CorruptModel>) {
        self.corrupt = corrupt;
    }

    /// Set the global SNR offset in dB (mid-run fade/ramp dynamics).
    pub fn set_snr_offset_db(&mut self, offset_db: f64) {
        self.snr_offset_db = offset_db;
    }

    /// Move a station on the propagation channel (no geometric effect in
    /// the fixed-loss regimes, which ignore geometry) and reset the
    /// station's per-link Gilbert–Elliott burst state: the bad-state flag
    /// is a property of the old geometry's fade, and carrying it across a
    /// move would glue the old position's burst onto every link the
    /// station forms at the new one.
    pub fn place_station(&mut self, station: StationId, x: f64, y: f64) {
        if let Some(ch) = self.channel.as_mut() {
            ch.place(station, x, y);
        }
        self.ge
            .retain(|&(a, b), _| a != station.0 && b != station.0);
    }

    /// Re-home a station to a new interference `domain` mid-run — the
    /// PHY half of an AP handoff. Carrier sense, reception audience,
    /// and collision accounting all follow the new cell's channel from
    /// the next transmission on; per-link Gilbert–Elliott state for the
    /// station is reset like a move, since the burst fade belonged to
    /// the links of the old cell.
    ///
    /// # Panics
    ///
    /// Panics if `station` was never registered or `domain` is out of
    /// range for the interference graph.
    pub fn retune_station(&mut self, station: StationId, domain: u32) {
        assert!(
            (domain as usize) < self.graph.len(),
            "station domain out of range for the interference graph"
        );
        if self.domain_of(station) == domain {
            return;
        }
        self.domain_of[station.0 as usize] = domain;
        self.ge
            .retain(|&(a, b), _| a != station.0 && b != station.0);
        self.rebuild_listeners();
    }

    /// Change one station's per-MPDU loss rate mid-run.
    ///
    /// Under the fixed regimes this mutates the loss table ([`LossModel::Ideal`]
    /// converts to fixed-loss on first use). Under [`LossModel::Burst`]
    /// and [`LossModel::Snr`] — whose baseline loss comes from elsewhere —
    /// the step *composes*: an independent per-MPDU loss override drawn
    /// on top of the model (`per = 0` clears it). Either way the step is
    /// counted and traced as [`Event::PhyLossOverride`]; before this it
    /// silently vanished on burst/SNR media.
    pub fn set_station_loss(&mut self, station: StationId, per: f64, now: SimTime) {
        self.loss_overrides += 1;
        let composed = match &mut self.loss {
            LossModel::FixedPer(map) => {
                map.insert(station, per);
                false
            }
            LossModel::Ideal => {
                self.loss = LossModel::fixed([(station, per)]);
                false
            }
            LossModel::Burst(_) | LossModel::Snr => {
                if per > 0.0 {
                    self.extra_loss.insert(station, per);
                } else {
                    self.extra_loss.remove(&station);
                }
                true
            }
        };
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            station.0,
            Event::PhyLossOverride {
                station: station.0,
                per_bits: per.to_bits(),
                composed,
            }
        );
    }

    /// Number of mid-run loss steps applied so far (both fixed-table
    /// mutations and burst/SNR compositions).
    pub fn loss_overrides(&self) -> u64 {
        self.loss_overrides
    }

    /// The stations on this medium.
    pub fn stations(&self) -> &[StationId] {
        &self.stations
    }

    /// Whether any transmission is currently on the air, anywhere.
    pub fn busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// Whether `station` hears any in-flight transmission — the
    /// carrier-sense question, scoped to the station's interference
    /// domain. Equals [`Medium::busy`] on a single-domain medium.
    pub fn busy_for(&self, station: StationId) -> bool {
        let d = self.domain_of(station);
        self.active
            .iter()
            .any(|t| self.graph.interferes(t.domain, d))
    }

    /// Interference domain of `station`.
    ///
    /// # Panics
    /// Panics if `station` is not registered.
    pub fn domain_of(&self, station: StationId) -> u32 {
        match self.domain_of.get(station.0 as usize) {
            Some(&d) if d != UNREGISTERED => d,
            _ => panic!("unknown station {station:?}"),
        }
    }

    /// The stations (in registration order) that hear transmissions from
    /// `domain`, including the domain's own members.
    pub fn listeners(&self, domain: u32) -> &[StationId] {
        &self.listeners[domain as usize]
    }

    /// The interference graph relating the domains.
    pub fn graph(&self) -> &InterferenceGraph {
        &self.graph
    }

    /// Number of concurrent transmissions (>1 implies a collision in
    /// progress).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Completed transmissions so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completed transmissions that were corrupted by overlap.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Link SNR for `tx → rx` under the configured channel, or +∞ when no
    /// channel is modelled.
    pub fn snr_db(&self, tx: StationId, rx: StationId) -> f64 {
        self.channel
            .as_ref()
            .map_or(f64::INFINITY, |c| c.snr_db(tx, rx) + self.snr_offset_db)
    }

    /// Begin a transmission at `now`. Any overlap with an in-flight
    /// transmission in an interfering domain corrupts both.
    ///
    /// # Panics
    /// Panics if `src` is already transmitting (a MAC bug) or is not a
    /// registered station.
    pub fn begin_tx(&mut self, meta: PpduMeta, now: SimTime) -> TxId {
        let domain = self.domain_of(meta.src);
        assert!(
            self.active.iter().all(|t| t.meta.src != meta.src),
            "station {:?} started a second concurrent transmission",
            meta.src
        );
        let id = TxId(self.next_id);
        self.next_id += 1;
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            meta.src.0,
            Event::PhyTxStart {
                tx: id.0,
                dst: meta.dst.map_or(u32::MAX, |d| d.0),
                mpdus: meta.mpdu_lens.len() as u32,
            }
        );
        let mut collided = false;
        for t in &mut self.active {
            if self.graph.interferes(t.domain, domain) {
                t.collided = true;
                collided = true;
            }
        }
        self.active.push(ActiveTx {
            id,
            end: now + meta.duration,
            meta,
            start: now,
            collided,
            domain,
        });
        id
    }

    /// Complete transmission `id` at `now` (which must equal its scheduled
    /// end) and compute what every listening station received.
    ///
    /// # Panics
    /// Panics if `id` is unknown or `now` differs from the scheduled end.
    pub fn end_tx(&mut self, id: TxId, now: SimTime, rng: &mut SimRng) -> TxOutcome {
        let idx = self
            .active
            .iter()
            .position(|t| t.id == id)
            .expect("end_tx for unknown or already-ended transmission");
        let tx = self.active.swap_remove(idx);
        assert_eq!(tx.end, now, "end_tx at wrong time");
        debug_assert!(tx.start <= now);
        self.completed += 1;
        if tx.collided {
            self.collisions += 1;
        }

        // Only stations whose domain hears the transmitter's get a
        // reception — on a legacy single-domain medium that is every
        // station, in registration order. A recycled list's records are
        // overwritten in place, so their status lists keep their memory.
        // Capacity saturates for degenerate (≤ 1 listener) worlds.
        let d = tx.domain as usize;
        let audience = self.listeners[d].len();
        let mut receptions = self
            .spare_receptions
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(audience.saturating_sub(1)));
        let mut heard = 0;
        for i in 0..audience {
            let station = self.listeners[d][i];
            if station == tx.meta.src {
                continue;
            }
            if heard == receptions.len() {
                receptions.push(Reception {
                    station,
                    detected: false,
                    mpdus: Vec::new(),
                    snr_db: 0.0,
                });
            }
            receptions[heard].station = station;
            self.receive_at(&tx, rng, &mut receptions[heard]);
            heard += 1;
        }
        receptions.truncate(heard);

        if self.trace.enabled() {
            self.trace_tx_outcome(&tx, &receptions, now);
        }

        TxOutcome {
            collided: tx.collided,
            meta: tx.meta,
            receptions,
        }
    }

    /// Hand back a dispatched outcome (optional): its records serve the
    /// next PPDU to end, its [`Medium::spare_lens`] the next to begin.
    pub fn recycle(&mut self, mut outcome: TxOutcome) {
        if self.spare_receptions.len() < SPARE_LISTS {
            self.spare_receptions.push(outcome.receptions);
        }
        if self.spare_lens.len() < SPARE_LISTS {
            outcome.meta.mpdu_lens.clear();
            self.spare_lens.push(outcome.meta.mpdu_lens);
        }
    }

    /// An empty MPDU-length list, recycled when one is spare.
    pub fn spare_lens(&mut self) -> Vec<u32> {
        self.spare_lens.pop().unwrap_or_default()
    }

    /// Emit the PHY trace events describing one completed transmission,
    /// judged at the intended receiver (or across every listener for
    /// broadcast PPDUs).
    fn trace_tx_outcome(&self, tx: &ActiveTx, receptions: &[Reception], now: SimTime) {
        let t = now.as_nanos();
        let src = tx.meta.src.0;
        if tx.collided {
            self.trace.emit(t, src, Event::PhyCollision { tx: tx.id.0 });
        }
        let judged = || {
            receptions
                .iter()
                .filter(|r| tx.meta.dst.is_none_or(|d| d == r.station))
        };
        let mut delivered = 0u32;
        for r in judged() {
            if !r.detected {
                if !tx.collided {
                    self.trace
                        .emit(t, r.station.0, Event::PhyPreambleMiss { tx: tx.id.0 });
                }
                continue;
            }
            for (i, &st) in r.mpdus.iter().enumerate() {
                match st {
                    MpduStatus::Ok => delivered += 1,
                    MpduStatus::Lost => {
                        self.trace.emit(
                            t,
                            r.station.0,
                            Event::PhyPerDrop {
                                tx: tx.id.0,
                                mpdu: i as u32,
                            },
                        );
                    }
                    MpduStatus::Corrupt { fcs_ok } => {
                        self.trace.emit(
                            t,
                            r.station.0,
                            Event::PhyFaultInjected {
                                tx: tx.id.0,
                                mpdu: i as u32,
                                fcs_ok,
                            },
                        );
                    }
                }
            }
        }
        let offered = (judged().count() * tx.meta.mpdu_lens.len()) as u32;
        self.trace.emit(
            t,
            src,
            Event::PhyTxEnd {
                tx: tx.id.0,
                delivered,
                lost: offered.saturating_sub(delivered),
            },
        );
    }

    /// Fill `rec` with what `rec.station` heard of `tx`.
    fn receive_at(&mut self, tx: &ActiveTx, rng: &mut SimRng, rec: &mut Reception) {
        let station = rec.station;
        let snr_db = self.snr_db(tx.meta.src, station);
        rec.snr_db = snr_db;
        rec.mpdus.clear();
        rec.detected = !tx.collided && !rng.chance(self.loss.preamble_loss_prob(snr_db));
        if !rec.detected {
            return;
        }
        rec.mpdus.reserve(tx.meta.mpdu_lens.len());
        // Control-frame exemption covers both fixed-rate regimes: the
        // measured loss rates describe data frames, and short basic-rate
        // control frames are far more robust. Exempt frames also leave
        // the Gilbert–Elliott link state untouched, keeping the RNG draw
        // sequence a pure function of the data MPDU stream.
        let exempt =
            tx.meta.control && matches!(self.loss, LossModel::FixedPer(_) | LossModel::Burst(_));
        // The link's burst state, looked up once and stored back after
        // the last MPDU (a link first heard of starts good).
        let link = link_key(tx.meta.src, station);
        let mut burst = match self.loss {
            LossModel::Burst(params) if !exempt => {
                Some((params, self.ge.get(&link).copied().unwrap_or(false)))
            }
            _ => None,
        };
        // The fixed models' loss probability does not depend on the MPDU.
        let flat = matches!(self.loss, LossModel::Ideal | LossModel::FixedPer(_)).then(|| {
            self.loss
                .mpdu_loss_prob(tx.meta.src, station, tx.meta.rate, 0, snr_db)
        });
        // Mid-run loss override composed on top of the burst/SNR model.
        // The extra draw happens only when an override exists on the
        // link, so override-free runs keep their exact RNG draw sequence
        // (and therefore their trace digests).
        let extra = if self.extra_loss.is_empty() || exempt {
            None
        } else {
            let pa = self.extra_loss.get(&tx.meta.src).copied().unwrap_or(0.0);
            let pb = self.extra_loss.get(&station).copied().unwrap_or(0.0);
            let p = 1.0 - (1.0 - pa) * (1.0 - pb);
            (p > 0.0).then_some(p)
        };
        for &len in &tx.meta.mpdu_lens {
            // Fixed draw order per MPDU — loss first, then corruption —
            // so the trace digest is reproducible from the seed alone.
            let mut lost = if exempt {
                false
            } else if let Some((params, bad)) = &mut burst {
                params.step(bad, rng)
            } else {
                let p = flat.unwrap_or_else(|| {
                    self.loss
                        .mpdu_loss_prob(tx.meta.src, station, tx.meta.rate, len, snr_db)
                });
                rng.chance(p)
            };
            if let Some(p) = extra {
                // Non-short-circuiting on purpose: one draw per MPDU
                // regardless of the base model's verdict.
                lost |= rng.chance(p);
            }
            let status = match (self.corrupt, tx.meta.control, lost) {
                // Control frames: an independent corruption draw, then a
                // draw for whether the flip escapes the FCS region.
                (Some(c), true, _) if rng.chance(c.control_per) => MpduStatus::Corrupt {
                    fcs_ok: rng.chance(c.fcs_miss),
                },
                // Data frames: a faulted MPDU arrives corrupted (always
                // FCS-caught) instead of vanishing.
                (Some(c), false, true) if rng.chance(c.data_frac) => {
                    MpduStatus::Corrupt { fcs_ok: false }
                }
                (_, _, true) => MpduStatus::Lost,
                _ => MpduStatus::Ok,
            };
            rec.mpdus.push(status);
        }
        if let Some((_, bad)) = burst {
            self.ge.insert(link, bad);
        }
    }
}

#[cfg(test)]
/// The medium as it computed receptions before hot-path round 4:
/// SipHash `HashMap`s for the station index, the Gilbert–Elliott flags
/// and the loss overrides, both looked up per MPDU, and a fresh
/// `Vec<Reception>` of fresh status lists per PPDU. Kept as the model
/// the equivalence proptest holds [`Medium`] to.
mod reference {
    use std::collections::hash_map::HashMap;

    use super::*;

    pub struct RefMedium {
        stations: Vec<StationId>,
        domains: Vec<u32>,
        graph: InterferenceGraph,
        pub listeners: Vec<Vec<StationId>>,
        index: HashMap<u32, usize>,
        loss: LossModel,
        pub channel: Option<Channel>,
        active: Vec<ActiveTx>,
        next_id: u64,
        ge: HashMap<(u32, u32), bool>,
        extra_loss: HashMap<StationId, f64>,
        pub corrupt: Option<CorruptModel>,
        pub snr_offset_db: f64,
    }

    impl RefMedium {
        pub fn with_domains(
            stations: Vec<StationId>,
            domains: Vec<u32>,
            graph: InterferenceGraph,
            loss: LossModel,
            channel: Option<Channel>,
        ) -> Self {
            let index = stations.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
            let mut m = RefMedium {
                stations,
                domains,
                graph,
                listeners: Vec::new(),
                index,
                loss,
                channel,
                active: Vec::new(),
                next_id: 0,
                ge: HashMap::new(),
                extra_loss: HashMap::new(),
                corrupt: None,
                snr_offset_db: 0.0,
            };
            m.rebuild_listeners();
            m
        }

        fn rebuild_listeners(&mut self) {
            self.listeners = (0..self.graph.len() as u32)
                .map(|d| {
                    self.stations
                        .iter()
                        .zip(&self.domains)
                        .filter(|&(_, &sd)| self.graph.interferes(sd, d))
                        .map(|(&s, _)| s)
                        .collect()
                })
                .collect();
        }

        pub fn place_station(&mut self, station: StationId, x: f64, y: f64) {
            if let Some(ch) = self.channel.as_mut() {
                ch.place(station, x, y);
            }
            self.ge
                .retain(|&(a, b), _| a != station.0 && b != station.0);
        }

        pub fn retune_station(&mut self, station: StationId, domain: u32) {
            let i = self.index[&station.0];
            if self.domains[i] == domain {
                return;
            }
            self.domains[i] = domain;
            self.ge
                .retain(|&(a, b), _| a != station.0 && b != station.0);
            self.rebuild_listeners();
        }

        pub fn set_station_loss(&mut self, station: StationId, per: f64) {
            match &mut self.loss {
                LossModel::FixedPer(map) => {
                    map.insert(station, per);
                }
                LossModel::Ideal => self.loss = LossModel::fixed([(station, per)]),
                LossModel::Burst(_) | LossModel::Snr => {
                    if per > 0.0 {
                        self.extra_loss.insert(station, per);
                    } else {
                        self.extra_loss.remove(&station);
                    }
                }
            }
        }

        pub fn busy_for(&self, station: StationId) -> bool {
            let d = self.domains[self.index[&station.0]];
            self.active
                .iter()
                .any(|t| self.graph.interferes(t.domain, d))
        }

        fn snr_db(&self, tx: StationId, rx: StationId) -> f64 {
            self.channel
                .as_ref()
                .map_or(f64::INFINITY, |c| c.snr_db(tx, rx) + self.snr_offset_db)
        }

        pub fn begin_tx(&mut self, meta: PpduMeta, now: SimTime) -> TxId {
            let domain = self.domains[self.index[&meta.src.0]];
            let id = TxId(self.next_id);
            self.next_id += 1;
            let mut collided = false;
            for t in &mut self.active {
                if self.graph.interferes(t.domain, domain) {
                    t.collided = true;
                    collided = true;
                }
            }
            self.active.push(ActiveTx {
                id,
                end: now + meta.duration,
                meta,
                start: now,
                collided,
                domain,
            });
            id
        }

        pub fn end_tx(&mut self, id: TxId, rng: &mut SimRng) -> TxOutcome {
            let idx = self.active.iter().position(|t| t.id == id).unwrap();
            let tx = self.active.swap_remove(idx);
            let d = tx.domain as usize;
            let mut receptions = Vec::new();
            for i in 0..self.listeners[d].len() {
                let station = self.listeners[d][i];
                if station != tx.meta.src {
                    receptions.push(self.receive_at(station, &tx, rng));
                }
            }
            TxOutcome {
                collided: tx.collided,
                meta: tx.meta,
                receptions,
            }
        }

        fn receive_at(&mut self, station: StationId, tx: &ActiveTx, rng: &mut SimRng) -> Reception {
            let snr_db = self.snr_db(tx.meta.src, station);
            let undetected = Reception {
                station,
                detected: false,
                mpdus: Vec::new(),
                snr_db,
            };
            if tx.collided {
                return undetected;
            }
            if rng.chance(self.loss.preamble_loss_prob(snr_db)) {
                return undetected;
            }
            let exempt = tx.meta.control
                && matches!(self.loss, LossModel::FixedPer(_) | LossModel::Burst(_));
            let burst = match self.loss {
                LossModel::Burst(params) => Some(params),
                _ => None,
            };
            let link = link_key(tx.meta.src, station);
            let extra = if self.extra_loss.is_empty() || exempt {
                None
            } else {
                let pa = self.extra_loss.get(&tx.meta.src).copied().unwrap_or(0.0);
                let pb = self.extra_loss.get(&station).copied().unwrap_or(0.0);
                let p = 1.0 - (1.0 - pa) * (1.0 - pb);
                (p > 0.0).then_some(p)
            };
            let mut mpdus = Vec::with_capacity(tx.meta.mpdu_lens.len());
            for &len in &tx.meta.mpdu_lens {
                let mut lost = if exempt {
                    false
                } else if let Some(params) = burst {
                    let bad = self.ge.entry(link).or_insert(false);
                    params.step(bad, rng)
                } else {
                    let p =
                        self.loss
                            .mpdu_loss_prob(tx.meta.src, station, tx.meta.rate, len, snr_db);
                    rng.chance(p)
                };
                if let Some(p) = extra {
                    lost |= rng.chance(p);
                }
                let status = match (self.corrupt, tx.meta.control, lost) {
                    (Some(c), true, _) if rng.chance(c.control_per) => MpduStatus::Corrupt {
                        fcs_ok: rng.chance(c.fcs_miss),
                    },
                    (Some(c), false, true) if rng.chance(c.data_frac) => {
                        MpduStatus::Corrupt { fcs_ok: false }
                    }
                    (_, _, true) => MpduStatus::Lost,
                    _ => MpduStatus::Ok,
                };
                mpdus.push(status);
            }
            Reception {
                station,
                detected: true,
                mpdus,
                snr_db,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GeParams;
    use hack_sim::SimDuration;
    use proptest::prelude::*;

    /// One step of the equivalence script; station and transmission
    /// operands are reduced modulo what exists when the step runs.
    #[derive(Debug, Clone)]
    enum Step {
        Begin {
            src: usize,
            dst: Option<usize>,
            mpdus: usize,
            control: bool,
        },
        End {
            which: usize,
            recycle: bool,
        },
        Loss {
            station: usize,
            per: f64,
        },
        Place {
            station: usize,
            x: f64,
            y: f64,
        },
        Retune {
            station: usize,
            domain: u32,
        },
        Fade(f64),
    }

    fn step() -> impl Strategy<Value = Step> {
        let begin = (
            0usize..64,
            proptest::option::of(0usize..64),
            0usize..7,
            any::<bool>(),
        )
            .prop_map(|(src, dst, mpdus, control)| Step::Begin {
                src,
                dst,
                mpdus,
                control,
            });
        prop_oneof![
            begin.clone(),
            begin,
            (0usize..64, any::<bool>()).prop_map(|(which, recycle)| Step::End { which, recycle }),
            (0usize..64, any::<bool>()).prop_map(|(which, recycle)| Step::End { which, recycle }),
            (0usize..64, prop_oneof![Just(0.0), 0.05f64..0.7])
                .prop_map(|(station, per)| Step::Loss { station, per }),
            (0usize..64, 0.0f64..60.0, 0.0f64..60.0).prop_map(|(station, x, y)| Step::Place {
                station,
                x,
                y
            }),
            (0usize..64, 0u32..4).prop_map(|(station, domain)| Step::Retune { station, domain }),
            (-6.0f64..3.0).prop_map(Step::Fade),
        ]
    }

    proptest! {
        /// The medium is the medium it was before its tables went
        /// direct-indexed and its reception records were recycled: the
        /// same receptions (stations in the same order, `detected`,
        /// statuses, `snr_db` to the bit), the same collision verdicts,
        /// carrier sense and audiences, and the same RNG state after
        /// every step of any interleaving of transmissions, loss steps,
        /// moves, retunes and fades, on 1–4 domains under every loss
        /// model with and without corrupted delivery.
        #[test]
        fn receptions_match_the_hashmap_medium(
            seed in any::<u64>(),
            homes in proptest::collection::vec(0u32..4, 2..9),
            ndomains in 1u32..5,
            edges in proptest::collection::vec((0usize..4, 0usize..4), 0..5),
            model in 0u8..4,
            corrupt in any::<bool>(),
            steps in proptest::collection::vec(step(), 1..80),
        ) {
            // Sparse, unordered ids: the direct-indexed tables must not
            // assume registration order or density.
            let stations: Vec<StationId> =
                (0..homes.len() as u32).map(|i| StationId((i * 7 + 3) % 23)).collect();
            let domains: Vec<u32> = homes.iter().map(|h| h % ndomains).collect();
            let n = ndomains as usize;
            let edges: Vec<(usize, usize)> = edges.iter().map(|&(a, b)| (a % n, b % n)).collect();
            let graph = InterferenceGraph::new(n, &edges);
            let mut channel = Channel::indoor();
            for (i, &s) in stations.iter().enumerate() {
                channel.place(s, 4.0 * i as f64, 3.0);
            }
            let loss = match model {
                0 => LossModel::Ideal,
                1 => LossModel::fixed([(stations[0], 0.3), (stations[1], 0.1)]),
                2 => LossModel::Burst(GeParams::bursty(0.2, 4.0)),
                _ => LossModel::Snr,
            };
            let corrupt = corrupt.then(CorruptModel::default);
            let mut new = Medium::with_domains(
                stations.clone(), domains.clone(), graph.clone(), loss.clone(), Some(channel.clone()),
            );
            let mut old = reference::RefMedium::with_domains(
                stations.clone(), domains, graph, loss, Some(channel),
            );
            new.set_corruption(corrupt);
            old.corrupt = corrupt;
            let (mut rng_new, mut rng_old) = (SimRng::new(seed), SimRng::new(seed));
            let mut now = SimTime::ZERO;
            let mut on_air: Vec<(TxId, TxId, SimTime)> = Vec::new();
            let who = |i: usize| stations[i % stations.len()];
            for s in steps {
                now += SimDuration::from_micros(9);
                match s {
                    Step::Begin { src, dst, mpdus, control } => {
                        let src = who(src);
                        if new.active.iter().any(|t| t.meta.src == src) {
                            continue;
                        }
                        let mut mpdu_lens = new.spare_lens();
                        prop_assert!(mpdu_lens.is_empty());
                        mpdu_lens.extend((0..mpdus).map(|i| 200 + 300 * i as u32));
                        let meta = PpduMeta {
                            src,
                            dst: dst.map(who).filter(|&d| d != src),
                            rate: PhyRate::dot11a(54),
                            mpdu_lens,
                            control,
                            duration: SimDuration::from_micros(40 + 30 * mpdus as u64),
                        };
                        let end = now + meta.duration;
                        on_air.push((new.begin_tx(meta.clone(), now), old.begin_tx(meta, now), end));
                    }
                    Step::End { which, recycle } => {
                        if on_air.is_empty() {
                            continue;
                        }
                        let (id_new, id_old, end) = on_air.swap_remove(which % on_air.len());
                        let got = new.end_tx(id_new, end, &mut rng_new);
                        let want = old.end_tx(id_old, &mut rng_old);
                        prop_assert_eq!(got.collided, want.collided);
                        prop_assert_eq!(&got.meta.mpdu_lens, &want.meta.mpdu_lens);
                        let flat = |o: &TxOutcome| -> Vec<_> {
                            o.receptions
                                .iter()
                                .map(|r| (r.station, r.detected, r.mpdus.clone(), r.snr_db.to_bits()))
                                .collect()
                        };
                        prop_assert_eq!(flat(&got), flat(&want));
                        if recycle {
                            new.recycle(got);
                        }
                    }
                    Step::Loss { station, per } => {
                        new.set_station_loss(who(station), per, now);
                        old.set_station_loss(who(station), per);
                    }
                    Step::Place { station, x, y } => {
                        new.place_station(who(station), x, y);
                        old.place_station(who(station), x, y);
                    }
                    Step::Retune { station, domain } => {
                        new.retune_station(who(station), domain % ndomains);
                        old.retune_station(who(station), domain % ndomains);
                    }
                    Step::Fade(db) => {
                        new.set_snr_offset_db(db);
                        old.snr_offset_db = db;
                    }
                }
                prop_assert_eq!(rng_new.clone().unit().to_bits(), rng_old.clone().unit().to_bits());
                prop_assert_eq!(&new.listeners, &old.listeners);
                for &s in &stations {
                    prop_assert_eq!(new.busy_for(s), old.busy_for(s));
                }
            }
        }
    }

    const AP: StationId = StationId(0);
    const C1: StationId = StationId(1);
    const C2: StationId = StationId(2);

    fn meta(src: StationId, dst: StationId, n_mpdus: usize) -> PpduMeta {
        PpduMeta {
            src,
            dst: Some(dst),
            rate: PhyRate::dot11a(54),
            mpdu_lens: vec![1500; n_mpdus],
            control: false,
            duration: SimDuration::from_micros(244),
        }
    }

    fn ideal_medium() -> Medium {
        Medium::new(vec![AP, C1, C2], LossModel::Ideal, None)
    }

    #[test]
    fn clean_tx_delivers_to_all_listeners() {
        let mut m = ideal_medium();
        let mut rng = SimRng::new(1);
        let t0 = SimTime::ZERO;
        let id = m.begin_tx(meta(AP, C1, 3), t0);
        assert!(m.busy());
        let out = m.end_tx(id, t0 + SimDuration::from_micros(244), &mut rng);
        assert!(!m.busy());
        assert!(!out.collided);
        assert_eq!(out.receptions.len(), 2); // C1 and C2, not AP
        for r in &out.receptions {
            assert!(r.detected);
            assert_eq!(r.mpdus, vec![MpduStatus::Ok; 3]);
            assert!((0..3).all(|i| r.mpdu_ok(i)));
            assert!(!r.mpdu_ok(3));
        }
        assert_eq!(m.completed(), 1);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn overlapping_txs_both_collide() {
        let mut m = ideal_medium();
        let mut rng = SimRng::new(1);
        let t0 = SimTime::ZERO;
        let a = m.begin_tx(meta(AP, C1, 1), t0);
        // C2 starts while AP is still on the air.
        let later = t0 + SimDuration::from_micros(100);
        let b = m.begin_tx(meta(C2, AP, 1), later);
        assert_eq!(m.active_count(), 2);

        let out_a = m.end_tx(a, t0 + SimDuration::from_micros(244), &mut rng);
        assert!(out_a.collided);
        assert!(out_a.receptions.iter().all(|r| !r.detected));

        let out_b = m.end_tx(b, later + SimDuration::from_micros(244), &mut rng);
        assert!(out_b.collided);
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn back_to_back_txs_do_not_collide() {
        let mut m = ideal_medium();
        let mut rng = SimRng::new(1);
        let t0 = SimTime::ZERO;
        let d = SimDuration::from_micros(244);
        let a = m.begin_tx(meta(AP, C1, 1), t0);
        let out = m.end_tx(a, t0 + d, &mut rng);
        assert!(!out.collided);
        // Next transmission starts exactly when the first ended: clean.
        let b = m.begin_tx(meta(C1, AP, 1), t0 + d);
        let out = m.end_tx(b, t0 + d + d, &mut rng);
        assert!(!out.collided);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    #[should_panic(expected = "second concurrent transmission")]
    fn double_tx_from_same_station_panics() {
        let mut m = ideal_medium();
        let t0 = SimTime::ZERO;
        m.begin_tx(meta(AP, C1, 1), t0);
        m.begin_tx(meta(AP, C2, 1), t0);
    }

    #[test]
    fn fixed_per_loss_applies_per_mpdu() {
        let loss = LossModel::fixed([(C1, 0.5)]);
        let mut m = Medium::new(vec![AP, C1], loss, None);
        let mut rng = SimRng::new(7);
        let mut lost = 0u32;
        let mut total = 0u32;
        let d = SimDuration::from_micros(244);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let id = m.begin_tx(meta(AP, C1, 8), now);
            now += d;
            let out = m.end_tx(id, now, &mut rng);
            let r = &out.receptions[0];
            assert!(r.detected, "fixed-loss mode never loses preambles");
            for &st in &r.mpdus {
                total += 1;
                if !st.is_ok() {
                    lost += 1;
                }
            }
            now += SimDuration::from_micros(50);
        }
        let frac = f64::from(lost) / f64::from(total);
        assert!((frac - 0.5).abs() < 0.05, "loss fraction {frac}");
    }

    #[test]
    fn snr_mode_needs_channel() {
        let mut ch = Channel::indoor();
        ch.place(AP, 0.0, 0.0);
        ch.place(C1, 2.0, 0.0);
        let m = Medium::new(vec![AP, C1], LossModel::Snr, Some(ch));
        assert!(m.snr_db(AP, C1) > 24.0);
    }

    #[test]
    #[should_panic(expected = "requires a propagation channel")]
    fn snr_mode_without_channel_panics() {
        let _ = Medium::new(vec![AP, C1], LossModel::Snr, None);
    }

    #[test]
    fn snr_mode_close_link_is_clean_far_link_is_dead() {
        let mut ch = Channel::indoor();
        ch.place(AP, 0.0, 0.0);
        ch.place(C1, 2.0, 0.0);
        // Far beyond any 802.11a sensitivity.
        ch.place(C2, 2000.0, 0.0);
        let mut m = Medium::new(vec![AP, C1, C2], LossModel::Snr, Some(ch));
        let mut rng = SimRng::new(5);
        let mut now = SimTime::ZERO;
        let d = SimDuration::from_micros(244);
        let mut c1_ok = 0;
        let mut c2_ok = 0;
        for _ in 0..100 {
            let id = m.begin_tx(meta(AP, C1, 1), now);
            now += d;
            let out = m.end_tx(id, now, &mut rng);
            for r in &out.receptions {
                let ok = r.detected && r.mpdus.iter().all(|&s| s.is_ok());
                if r.station == C1 && ok {
                    c1_ok += 1;
                }
                if r.station == C2 && ok {
                    c2_ok += 1;
                }
            }
            now += SimDuration::from_micros(50);
        }
        assert!(c1_ok >= 99, "close link should be clean, got {c1_ok}/100");
        assert_eq!(c2_ok, 0, "2 km link must be dead");
    }

    #[test]
    #[should_panic(expected = "end_tx at wrong time")]
    fn end_tx_at_wrong_time_panics() {
        let mut m = ideal_medium();
        let mut rng = SimRng::new(1);
        let id = m.begin_tx(meta(AP, C1, 1), SimTime::ZERO);
        let _ = m.end_tx(id, SimTime::from_micros(1), &mut rng);
    }

    /// Run `rounds` single-MPDU data transmissions AP→C1 and return the
    /// per-MPDU statuses C1 saw.
    fn run_rounds(m: &mut Medium, rng: &mut SimRng, rounds: usize) -> Vec<MpduStatus> {
        let d = SimDuration::from_micros(244);
        let mut now = SimTime::ZERO;
        let mut statuses = Vec::new();
        for _ in 0..rounds {
            let id = m.begin_tx(meta(AP, C1, 1), now);
            now += d;
            let out = m.end_tx(id, now, rng);
            let r = out.receptions.iter().find(|r| r.station == C1).unwrap();
            statuses.push(r.mpdus[0]);
            now += SimDuration::from_micros(50);
        }
        statuses
    }

    #[test]
    fn burst_model_clusters_losses() {
        let ge = GeParams::bursty(0.15, 10.0);
        let mut m = Medium::new(vec![AP, C1], LossModel::Burst(ge), None);
        let mut rng = SimRng::new(42);
        let statuses = run_rounds(&mut m, &mut rng, 20_000);
        let losses = statuses.iter().filter(|s| !s.is_ok()).count();
        let runs = statuses
            .windows(2)
            .filter(|w| !w[1].is_ok() && w[0].is_ok())
            .count()
            + usize::from(!statuses[0].is_ok());
        let rate = losses as f64 / statuses.len() as f64;
        assert!((rate - 0.15).abs() < 0.02, "loss rate {rate}");
        let mean_burst = losses as f64 / runs as f64;
        assert!(
            mean_burst > 5.0,
            "bursty losses should clump, mean run {mean_burst}"
        );
    }

    #[test]
    fn corruption_converts_data_drops_to_fcs_failures() {
        let loss = LossModel::fixed([(C1, 0.3)]);
        let mut m = Medium::new(vec![AP, C1], loss, None);
        m.set_corruption(Some(CorruptModel {
            data_frac: 1.0,
            control_per: 0.0,
            fcs_miss: 0.0,
        }));
        let mut rng = SimRng::new(9);
        let statuses = run_rounds(&mut m, &mut rng, 2_000);
        let corrupt = statuses
            .iter()
            .filter(|s| matches!(s, MpduStatus::Corrupt { fcs_ok: false }))
            .count();
        let lost = statuses.iter().filter(|&&s| s == MpduStatus::Lost).count();
        assert_eq!(lost, 0, "data_frac = 1 leaves no silent drops");
        let frac = corrupt as f64 / statuses.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "corrupt fraction {frac}");
        // Data corruption is always FCS-caught.
        assert!(!statuses
            .iter()
            .any(|s| matches!(s, MpduStatus::Corrupt { fcs_ok: true })));
    }

    #[test]
    fn control_corruption_sometimes_escapes_the_fcs() {
        let mut m = Medium::new(vec![AP, C1], LossModel::fixed([(C1, 0.12)]), None);
        m.set_corruption(Some(CorruptModel {
            data_frac: 0.0,
            control_per: 0.2,
            fcs_miss: 0.25,
        }));
        let mut rng = SimRng::new(11);
        let d = SimDuration::from_micros(244);
        let mut now = SimTime::ZERO;
        let mut caught = 0usize;
        let mut escaped = 0usize;
        for _ in 0..5_000 {
            let mut pm = meta(C1, AP, 1);
            pm.control = true;
            let id = m.begin_tx(pm, now);
            now += d;
            let out = m.end_tx(id, now, &mut rng);
            let r = out.receptions.iter().find(|r| r.station == AP).unwrap();
            match r.mpdus[0] {
                MpduStatus::Corrupt { fcs_ok: false } => caught += 1,
                MpduStatus::Corrupt { fcs_ok: true } => escaped += 1,
                MpduStatus::Lost => panic!("control frames are exempt from fixed loss"),
                MpduStatus::Ok => {}
            }
            now += SimDuration::from_micros(30);
        }
        let corrupt_frac = (caught + escaped) as f64 / 5_000.0;
        assert!((corrupt_frac - 0.2).abs() < 0.03, "corrupt {corrupt_frac}");
        let escape_frac = escaped as f64 / (caught + escaped) as f64;
        assert!((escape_frac - 0.25).abs() < 0.05, "escape {escape_frac}");
    }

    #[test]
    fn dynamics_setters_reshape_the_channel() {
        // set_station_loss converts an ideal medium to fixed loss.
        let mut m = ideal_medium();
        let mut rng = SimRng::new(3);
        m.set_station_loss(C1, 1.0, SimTime::ZERO);
        let statuses = run_rounds(&mut m, &mut rng, 50);
        assert!(statuses.iter().all(|&s| s == MpduStatus::Lost));
        m.set_station_loss(C1, 0.0, SimTime::ZERO);
        let statuses = run_rounds(&mut m, &mut rng, 50);
        assert!(statuses.iter().all(|s| s.is_ok()));
        assert_eq!(m.loss_overrides(), 2);

        // A deep global fade kills an otherwise clean SNR link; moving
        // the station close again (plus clearing the fade) restores it.
        let mut ch = Channel::indoor();
        ch.place(AP, 0.0, 0.0);
        ch.place(C1, 2.0, 0.0);
        let mut m = Medium::new(vec![AP, C1], LossModel::Snr, Some(ch));
        assert!(m.snr_db(AP, C1) > 24.0);
        m.set_snr_offset_db(-60.0);
        assert!(m.snr_db(AP, C1) < 0.0);
        m.set_snr_offset_db(0.0);
        m.place_station(C1, 2000.0, 0.0);
        assert!(m.snr_db(AP, C1) < 0.0);
        m.place_station(C1, 2.0, 0.0);
        assert!(m.snr_db(AP, C1) > 24.0);
    }

    #[test]
    fn loss_step_composes_on_burst_medium() {
        let ge = GeParams::bursty(0.15, 10.0);
        let mut m = Medium::new(vec![AP, C1], LossModel::Burst(ge), None);
        let (trace, sink) = hack_trace::TraceHandle::ring(64);
        m.set_trace(trace);
        let mut rng = SimRng::new(21);

        // Used to be a silent no-op; now the override drowns the link.
        m.set_station_loss(C1, 1.0, SimTime::ZERO);
        let statuses = run_rounds(&mut m, &mut rng, 100);
        assert!(
            statuses.iter().all(|&s| s == MpduStatus::Lost),
            "per=1.0 override must lose every MPDU on a burst medium"
        );

        // Clearing the override hands loss back to the GE model alone.
        m.set_station_loss(C1, 0.0, SimTime::ZERO);
        let statuses = run_rounds(&mut m, &mut rng, 2_000);
        let rate = statuses.iter().filter(|s| !s.is_ok()).count() as f64 / statuses.len() as f64;
        assert!(
            rate < 0.5,
            "cleared override leaves only GE loss, got {rate}"
        );

        assert_eq!(m.loss_overrides(), 2);
        assert!(
            sink.digest().events >= 2,
            "each loss step must emit a PhyLossOverride trace event"
        );
    }

    #[test]
    fn loss_step_composes_on_snr_medium() {
        let mut ch = Channel::indoor();
        ch.place(AP, 0.0, 0.0);
        ch.place(C1, 2.0, 0.0);
        let mut m = Medium::new(vec![AP, C1], LossModel::Snr, Some(ch));
        let mut rng = SimRng::new(23);
        let statuses = run_rounds(&mut m, &mut rng, 50);
        assert!(statuses.iter().all(|s| s.is_ok()), "2 m SNR link is clean");

        m.set_station_loss(C1, 1.0, SimTime::ZERO);
        let statuses = run_rounds(&mut m, &mut rng, 50);
        assert!(
            statuses.iter().all(|&s| s == MpduStatus::Lost),
            "the override must compose on top of the SNR model"
        );
    }

    #[test]
    fn moving_a_station_resets_its_burst_link_state() {
        let ge = GeParams::bursty(0.5, 50.0);
        let mut m = Medium::new(vec![AP, C1, C2], LossModel::Burst(ge), None);
        let mut rng = SimRng::new(31);
        let _ = run_rounds(&mut m, &mut rng, 200);
        assert!(
            m.ge.contains_key(&link_key(AP, C1)),
            "rounds must have created per-link GE state"
        );
        // Park some unrelated state so we can check the reset is scoped.
        m.ge.insert(link_key(AP, C2), true);

        m.place_station(C1, 5.0, 0.0);
        assert!(
            m.ge.keys().all(|&(a, b)| a != C1.0 && b != C1.0),
            "a move must clear every link involving the moved station"
        );
        assert_eq!(
            m.ge.get(&link_key(AP, C2)),
            Some(&true),
            "links not involving the moved station keep their state"
        );
    }

    #[test]
    fn non_interfering_domains_do_not_collide_or_hear_each_other() {
        let s = [StationId(0), StationId(1), StationId(2), StationId(3)];
        let mk = |graph| {
            Medium::with_domains(s.to_vec(), vec![0, 0, 1, 1], graph, LossModel::Ideal, None)
        };
        let mut rng = SimRng::new(1);
        let t0 = SimTime::ZERO;
        let d = SimDuration::from_micros(244);

        // No edge between the domains: concurrent transmissions are
        // clean, carrier sense is scoped, and receptions stay local.
        let mut m = mk(InterferenceGraph::new(2, &[]));
        let a = m.begin_tx(meta(s[0], s[1], 1), t0);
        assert!(m.busy_for(s[1]));
        assert!(
            !m.busy_for(s[2]),
            "an isolated domain must not sense the other cell's carrier"
        );
        let b = m.begin_tx(meta(s[2], s[3], 1), t0);
        let out_a = m.end_tx(a, t0 + d, &mut rng);
        let out_b = m.end_tx(b, t0 + d, &mut rng);
        assert!(!out_a.collided && !out_b.collided);
        assert_eq!(out_a.receptions.len(), 1);
        assert_eq!(out_a.receptions[0].station, s[1]);
        assert_eq!(out_b.receptions.len(), 1);
        assert_eq!(out_b.receptions[0].station, s[3]);
        assert_eq!(m.collisions(), 0);
        assert_eq!(m.domain_of(s[0]), 0);
        assert_eq!(m.domain_of(s[3]), 1);
        assert_eq!(m.listeners(0), &s[..2]);
        assert_eq!(m.listeners(1), &s[2..]);

        // With the edge, the same overlap corrupts both and everyone
        // hears everyone.
        let mut m = mk(InterferenceGraph::new(2, &[(0, 1)]));
        let a = m.begin_tx(meta(s[0], s[1], 1), t0);
        assert!(m.busy_for(s[2]));
        let b = m.begin_tx(meta(s[2], s[3], 1), t0);
        let out_a = m.end_tx(a, t0 + d, &mut rng);
        let out_b = m.end_tx(b, t0 + d, &mut rng);
        assert!(out_a.collided && out_b.collided);
        assert_eq!(out_a.receptions.len(), 3);
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn degenerate_single_station_world_has_empty_receptions() {
        // `with_capacity(stations.len() - 1)` used to underflow the
        // reception capacity reasoning on worlds this small; the
        // listener-scoped loop must simply produce no receptions.
        let mut m = Medium::new(vec![AP], LossModel::Ideal, None);
        let mut rng = SimRng::new(1);
        let mut pm = meta(AP, C1, 1);
        pm.dst = None; // broadcast into an empty cell
        let id = m.begin_tx(pm, SimTime::ZERO);
        let out = m.end_tx(id, SimTime::ZERO + SimDuration::from_micros(244), &mut rng);
        assert!(!out.collided);
        assert!(out.receptions.is_empty());
    }
}
