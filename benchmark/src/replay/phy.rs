//! `hack-phy`: one `Medium::begin_tx` + `end_tx` cycle of a 42-MPDU
//! PPDU against a growing audience.

use hack_mac::ampdu_wire_len;
use hack_phy::{InterferenceGraph, LossModel, Medium, PhyRate, PpduMeta, StationId};
use hack_sim::{SimDuration, SimRng, SimTime};

use super::Ctx;

const MPDUS: usize = 42;

fn ppdu(src: StationId, dst: StationId) -> PpduMeta {
    let rate = PhyRate::ht(150);
    let mpdu_lens = vec![1538; MPDUS];
    let duration = rate.ppdu_duration(u64::from(ampdu_wire_len(&mpdu_lens)));
    PpduMeta {
        src,
        dst: Some(dst),
        rate,
        mpdu_lens,
        control: false,
        duration,
    }
}

/// Cycle through `links`, one PPDU at a time, on `medium`; every PPDU
/// must reach `listeners` other stations intact.
fn txcycle(
    cx: &mut Ctx<'_>,
    name: &'static str,
    mut medium: Medium,
    links: &[(StationId, StationId)],
    listeners: usize,
) -> f64 {
    let templates: Vec<PpduMeta> = links.iter().map(|&(s, d)| ppdu(s, d)).collect();
    let mut rng = SimRng::new(cx.seed).fork(0x9417);
    let (mut now, mut i) = (SimTime::from_micros(1), cx.seed as usize % links.len());
    let (mut begun, mut decoded, mut collided) = (0u64, 0u64, false);
    let ns = cx.batches(name, || {
        i = (i + 1) % templates.len();
        let meta = templates[i].clone();
        let end = now + meta.duration;
        let id = medium.begin_tx(meta, now);
        let out = medium.end_tx(id, end, &mut rng);
        begun += 1;
        collided |= out.collided;
        decoded += out
            .receptions
            .iter()
            .map(|r| r.mpdus.iter().filter(|m| m.is_ok()).count() as u64)
            .sum::<u64>();
        now = end + SimDuration::from_micros(50);
    });
    cx.check(
        medium.completed() == begun,
        "completed() is not the PPDUs begun",
    );
    cx.check(
        !collided && medium.collisions() == 0,
        "a lone PPDU collided",
    );
    cx.check(
        decoded == begun * (listeners * MPDUS) as u64,
        "a listener missed MPDUs on an ideal channel",
    );
    ns
}

/// One cell, AP plus `clients` clients: each PPDU is heard by `clients`
/// listeners.
pub fn txcycle_cell(cx: &mut Ctx<'_>, name: &'static str, clients: u32) -> f64 {
    let stations: Vec<StationId> = (0..=clients).map(StationId).collect();
    let links: Vec<_> = (1..=clients)
        .map(|c| (StationId(0), StationId(c)))
        .collect();
    let medium = Medium::new(stations, LossModel::Ideal, None);
    txcycle(cx, name, medium, &links, clients as usize)
}

/// Sixteen mutually orthogonal domains of five stations: the cost must
/// follow the four listeners of the transmitter's own domain, not the
/// eighty stations on the floor.
pub fn txcycle_d16(cx: &mut Ctx<'_>) -> f64 {
    const DOMAINS: u32 = 16;
    const PER_DOMAIN: u32 = 5;
    let stations: Vec<StationId> = (0..DOMAINS * PER_DOMAIN).map(StationId).collect();
    let domains: Vec<u32> = stations.iter().map(|s| s.0 / PER_DOMAIN).collect();
    let links: Vec<_> = (0..DOMAINS)
        .map(|d| (StationId(d * PER_DOMAIN), StationId(d * PER_DOMAIN + 1)))
        .collect();
    let medium = Medium::with_domains(
        stations,
        domains,
        InterferenceGraph::new(DOMAINS as usize, &[]),
        LossModel::Ideal,
        None,
    );
    txcycle(
        cx,
        "phy.txcycle_d16",
        medium,
        &links,
        PER_DOMAIN as usize - 1,
    )
}
