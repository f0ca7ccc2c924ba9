//! `hack-mac`: two `Station`s shuttling PPDUs by hand, a station
//! deferring to a busy medium, and the association state machine.

use hack_mac::{
    Action, AssocConfig, AssocMachine, AssocState, AssocStep, MacConfig, Msdu, Station, TimerKind,
    TxDescriptor,
};
use hack_phy::{PhyRate, StationId};
use hack_sim::{SimDuration, SimRng, SimTime};

use super::Ctx;

const AP: StationId = StationId(0);
const CLIENT: StationId = StationId(1);

/// A 1500-byte MSDU that knows its number.
#[derive(Debug, Clone)]
struct Pkt(u64);

impl Msdu for Pkt {
    fn wire_len(&self) -> u32 {
        1500
    }
}

fn timer_at(actions: &[Action<Pkt>], kind: TimerKind) -> SimTime {
    actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { kind: k, at } if *k == kind => Some(*at),
            _ => None,
        })
        .unwrap_or_else(|| panic!("the station armed no {kind:?} timer"))
}

fn started(actions: Vec<Action<Pkt>>) -> TxDescriptor<Pkt> {
    actions
        .into_iter()
        .find_map(|a| match a {
            Action::StartTx(d) => Some(d),
            _ => None,
        })
        .expect("the station started no transmission")
}

/// What one exchange moved.
#[derive(Default)]
struct Moved {
    enqueued: u64,
    delivered: u64,
    acked: u64,
    in_order: bool,
}

/// One full exchange: enqueue `n` MSDUs at the AP, win the medium,
/// transmit, receive at the client, respond after SIFS, resolve the
/// response at the AP. Returns when the response has been resolved.
fn exchange(
    ap: &mut Station<Pkt>,
    client: &mut Station<Pkt>,
    n: usize,
    now: SimTime,
    moved: &mut Moved,
) -> SimTime {
    let mut armed = Vec::new();
    for _ in 0..n {
        armed.extend(ap.enqueue(CLIENT, Pkt(moved.enqueued), now));
        moved.enqueued += 1;
    }
    let tx_at = timer_at(&armed, TimerKind::TxStart);
    let data = started(ap.on_timer(TimerKind::TxStart, tx_at));
    let data_end = tx_at + data.duration;
    ap.on_tx_end(data_end);

    let heard = client.on_rx_ppdu(data.frames, data.aggregated, data_end);
    for a in &heard {
        if let Action::Deliver { msdu, .. } = a {
            moved.in_order &= msdu.0 == moved.delivered;
            moved.delivered += 1;
        }
    }
    let resp_at = timer_at(&heard, TimerKind::SendResponse);
    let resp = started(client.on_timer(TimerKind::SendResponse, resp_at));
    let resp_end = resp_at + resp.duration;
    client.on_tx_end(resp_end);

    for a in ap.on_rx_ppdu(resp.frames, false, resp_end) {
        if let Action::ResponseReceived { acked, .. } = a {
            moved.acked += u64::from(acked);
        }
    }
    resp_end
}

/// `per_ppdu` MSDUs per exchange between two stations configured by
/// `cfg`; nanoseconds per MPDU.
fn pair_cycle(cx: &mut Ctx<'_>, name: &'static str, cfg: MacConfig, per_ppdu: usize) -> f64 {
    let rng = SimRng::new(cx.seed).fork(0x3ac0);
    let mut ap = Station::new(AP, cfg.clone(), rng.fork(0));
    let mut client = Station::new(CLIENT, cfg, rng.fork(1));
    let mut moved = Moved {
        in_order: true,
        ..Moved::default()
    };
    let mut now = SimTime::from_millis(1);
    let ns = cx.batches(name, || {
        now = exchange(&mut ap, &mut client, per_ppdu, now, &mut moved)
            + SimDuration::from_micros(100);
    });
    cx.check(
        moved.enqueued == moved.acked && moved.enqueued == moved.delivered && moved.in_order,
        "the MAC pair left an MPDU unresolved, undelivered or out of order",
    );
    cx.check(
        ap.stats().mpdus_first_try.get() == moved.enqueued && ap.total_backlog() == 0,
        "the MAC pair retried on a lossless link",
    );
    ns / per_ppdu as f64
}

/// 802.11n: enqueue 42 → one A-MPDU → Block ACK resolved; per MPDU.
pub fn ampdu_cycle(cx: &mut Ctx<'_>) -> f64 {
    let cfg = MacConfig::dot11n(PhyRate::ht(150)).with_hack_bits();
    pair_cycle(cx, "mac.ampdu_cycle", cfg, 42)
}

/// 802.11a: one MPDU, one ACK; per MPDU.
pub fn single_cycle(cx: &mut Ctx<'_>) -> f64 {
    pair_cycle(
        cx,
        "mac.single_cycle",
        MacConfig::dot11a(PhyRate::dot11a(54)),
        1,
    )
}

/// A backlogged station deferring: the medium goes busy (the backoff
/// freezes, its timer is cancelled), then idle (the countdown resumes,
/// the timer is re-armed). Per busy/idle pair, which is what every
/// listener pays for every PPDU in its domain.
pub fn contend_cycle(cx: &mut Ctx<'_>) -> f64 {
    let rng = SimRng::new(cx.seed).fork(0xc047);
    let mut sta = Station::new(CLIENT, MacConfig::dot11a(PhyRate::dot11a(54)), rng);
    let mut now = SimTime::from_millis(1);
    let armed = sta.enqueue(AP, Pkt(0), now);
    let mut tx_at = timer_at(&armed, TimerKind::TxStart);
    let mut ok = true;
    let ns = cx.batches("mac.contend_cycle", || {
        // Busy before the countdown ends, idle one PPDU later.
        let froze = sta.on_channel_busy(now);
        ok &= tx_at > now
            && matches!(
                froze[..],
                [Action::CancelTimer {
                    kind: TimerKind::TxStart
                }]
            );
        now += SimDuration::from_micros(300);
        tx_at = timer_at(&sta.on_channel_idle(now), TimerKind::TxStart);
        now += SimDuration::from_micros(1);
    });
    cx.check(
        ok,
        "a deferring station kept its backoff timer or lost its turn",
    );
    cx.check(
        sta.stats().tx_attempts.get() == 0 && sta.total_backlog() == 1,
        "a deferring station transmitted",
    );
    ns
}

/// `AssocMachine`: scan, one refused attempt, a backed-off retry that
/// succeeds; then the same back to the first AP.
pub fn assoc_cycle(cx: &mut Ctx<'_>) -> f64 {
    let mut m = AssocMachine::new(AssocConfig::default(), 0);
    let (mut now, mut ok, mut target) = (SimTime::from_millis(cx.seed % 1000), true, 1usize);
    let ns = cx.batches("mac.assoc_cycle", || {
        ok &= m.start_roam(target, now).is_some();
        m.on_scan_done();
        ok &= matches!(m.on_assoc_result(false, now), Some(AssocStep::Wait(_)));
        m.on_retry_timer();
        now += SimDuration::from_millis(5);
        ok &= m.on_assoc_result(true, now).is_none();
        ok &= m.state() == AssocState::Associated && m.home() == target;
        target = 1 - target;
        now += SimDuration::from_millis(5);
    });
    cx.check(ok, "a roam did not end associated at its target");
    ns
}
