//! Outputs of the sans-IO MAC state machine.
//!
//! [`crate::station::Station`] never performs IO: every handler returns a
//! `Vec<Action<M>>` that the event loop in `hack-core` materializes —
//! starting transmissions on the medium, arming timers, delivering MSDUs
//! upward, and feeding the HACK drivers their indications.

use hack_phy::{PhyRate, StationId};
use hack_sim::{SimDuration, SimTime};

use crate::frame::{Frame, HackBlob, SeqNum};

/// The station's one-shot timers. At most one of each kind is armed at a
/// time; re-arming cancels the previous instance (the event loop enforces
/// this through `hack_sim::TimerTable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Backoff completed — begin transmitting the pending batch.
    TxStart,
    /// The expected ACK / Block ACK never arrived.
    AckTimeout,
    /// SIFS (plus any configured extra delay) elapsed — send the response.
    SendResponse,
    /// The NAV set from an overheard frame expired.
    NavExpire,
}

/// What kind of response a station transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespKind {
    /// A single-MPDU ACK.
    Ack,
    /// A Block ACK covering an A-MPDU.
    BlockAck,
}

/// A PPDU the station wants on the air **now**.
#[derive(Debug, Clone)]
pub struct TxDescriptor<M> {
    /// The frames inside the PPDU (one for control/single data; many for
    /// an A-MPDU).
    pub frames: Vec<Frame<M>>,
    /// PSDU rate.
    pub rate: PhyRate,
    /// Total airtime including preamble (precomputed by the MAC so the
    /// event loop can schedule the end-of-transmission event).
    pub duration: SimDuration,
    /// True for SIFS responses (ACK/Block ACK), which bypass contention.
    pub is_response: bool,
    /// True when this PPDU is an A-MPDU whose receiver must answer with
    /// a Block ACK (drives the receiver's response choice).
    pub aggregated: bool,
}

/// Summary of one received data PPDU addressed to this station — the
/// client-side HACK driver's primary input (§3.3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxDataInfo {
    /// Transmitter of the data.
    pub from: StationId,
    /// How many MPDUs decoded successfully in this PPDU.
    pub mpdus_ok: usize,
    /// MORE DATA bit observed on the batch.
    pub more_data: bool,
    /// SYNC bit observed on the batch (§3.4).
    pub sync: bool,
    /// Whether any decoded MPDU carried a sequence number newer than
    /// everything previously received from `from` — the implicit
    /// ACK-of-ACK signal for single-MPDU mode (Figure 5(b)).
    pub advances_seq: bool,
    /// Whether this PPDU was an aggregate (Block-ACK exchange) or a
    /// single MPDU (plain-ACK exchange).
    pub is_aggregate: bool,
}

/// Everything a station can ask of the outside world.
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Begin a transmission immediately.
    StartTx(TxDescriptor<M>),
    /// Arm (or re-arm) a timer to fire at `at`.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Absolute firing time.
        at: SimTime,
    },
    /// Cancel a timer if armed.
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
    /// Deliver a received MSDU to the upper layer (in order, deduplicated).
    Deliver {
        /// Originating station.
        src: StationId,
        /// The MSDU.
        msdu: M,
    },
    /// A data PPDU addressed to us was received (HACK driver hook; fires
    /// even when every MSDU in it was a duplicate).
    DataReceived(RxDataInfo),
    /// We just transmitted a response. `attached_blob` reports whether a
    /// HACK blob rode on it — the "NIC interrupt indicates whether the
    /// NIC succeeded in sending the compressed ACKs" signal (§3.3.1).
    ResponseSent {
        /// Receiver of the response.
        to: StationId,
        /// ACK or Block ACK.
        kind: RespKind,
        /// Whether the HACK blob slot was attached.
        attached_blob: bool,
    },
    /// We received the response to our transmission. Carries any HACK
    /// blob for the AP-side driver to decompress (§3.3.1).
    ResponseReceived {
        /// The responding station.
        from: StationId,
        /// Compressed TCP ACKs extracted from the LL ACK, if any.
        blob: Option<HackBlob>,
        /// Data MPDUs newly acknowledged by this response.
        acked: u32,
        /// The acknowledged MSDUs themselves (for driver bookkeeping —
        /// e.g. Opportunistic HACK matching delivered native TCP ACKs
        /// against held compressed copies).
        acked_msdus: Vec<M>,
    },
    /// We received a Block ACK Request — our previous Block ACK (and any
    /// blob on it) did not reach the sender (Figure 5(a)/6).
    BarReceived {
        /// The requesting station.
        from: StationId,
        /// Window start named by the request.
        start: SeqNum,
    },
    /// An MSDU was dropped after exhausting its retry budget.
    MsduDropped {
        /// Intended receiver.
        dst: StationId,
        /// The abandoned MSDU.
        msdu: M,
    },
    /// BAR retries toward `dst` were exhausted; the MAC moved on (and
    /// will set SYNC on the next batch if configured).
    BarExhausted {
        /// The unresponsive receiver.
        dst: StationId,
    },
}
