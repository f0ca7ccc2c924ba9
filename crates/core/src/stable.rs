//! Stable content hashing of fully-resolved scenario configurations.
//!
//! The campaign engine's result cache is content-addressed: the cache
//! key for one job is a hash of *everything that determines the run's
//! outcome* — every [`ScenarioConfig`] field, including the seed. Two
//! requirements follow:
//!
//! 1. **Stability.** The hash must be identical across processes,
//!    platforms and runs (so a re-run of an interrupted campaign finds
//!    its cached cells). `std::hash::Hash` + `DefaultHasher` guarantee
//!    neither, so we encode every field into a canonical little-endian
//!    byte string and hash that with FNV-1a/128, both fixed here.
//! 2. **Completeness.** A field that changes behaviour but is missing
//!    from the encoding would alias two different runs onto one cache
//!    entry. The encoding therefore lists every field explicitly and
//!    starts with [`CONFIG_ENCODING_VERSION`], which must be bumped
//!    whenever a field is added, removed, or re-interpreted.
//!
//! Floats are encoded as their IEEE-754 bit patterns; enums as explicit
//! tag bytes; vectors with a length prefix. Nothing here depends on
//! wall-clock, addresses, or map iteration order.

use hack_sim::SimDuration;

use crate::driver::HackMode;
use crate::scenario::{ChannelChange, LossConfig, ScenarioConfig, Standard};
use crate::supervisor::SupervisorConfig;
use crate::traffic::{ArrivalDist, SizeDist, TrafficModel};

/// Version of the canonical [`ScenarioConfig`] encoding. Bump whenever
/// the struct (or the meaning of a field) changes so stale cache
/// entries can never alias a new configuration.
///
/// The traffic model and the per-flow mix are always written in full.
/// Version 7 dropped the event-queue byte along with the field.
pub const CONFIG_ENCODING_VERSION: u32 = 7;

/// Streaming FNV-1a over 128 bits — small, dependency-free, and stable
/// by construction (the offset basis and prime are spelled out by the
/// FNV reference).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A hasher at the FNV-1a/128 offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: FNV128_OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorb a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorb a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `usize` widened to `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Absorb an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorb a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Absorb a duration as nanoseconds.
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    /// The 128-bit digest, big-endian bytes.
    pub fn finish(&self) -> [u8; 16] {
        self.state.to_be_bytes()
    }

    /// The digest as a 32-character lowercase hex string (cache file
    /// names).
    pub fn finish_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.finish() {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

fn hash_loss(h: &mut StableHasher, loss: &LossConfig) {
    match loss {
        LossConfig::Ideal => h.u8(0),
        LossConfig::PerClient(per) => {
            h.u8(1);
            h.usize(per.len());
            for &p in per {
                h.f64(p);
            }
        }
        LossConfig::SnrDistance(d) => {
            h.u8(2);
            h.f64(*d);
        }
        LossConfig::Burst(g) => {
            h.u8(3);
            h.f64(g.p_enter_bad);
            h.f64(g.p_exit_bad);
            h.f64(g.per_good);
            h.f64(g.per_bad);
        }
    }
}

fn hash_dynamics(h: &mut StableHasher, dynamics: &[crate::scenario::ChannelEvent]) {
    h.usize(dynamics.len());
    for ev in dynamics {
        h.duration(ev.at);
        match ev.change {
            ChannelChange::SnrOffsetDb(db) => {
                h.u8(0);
                h.f64(db);
            }
            ChannelChange::ClientLoss { client, per } => {
                h.u8(1);
                h.usize(client);
                h.f64(per);
            }
            ChannelChange::MoveClient { client, x, y } => {
                h.u8(2);
                h.usize(client);
                h.f64(x);
                h.f64(y);
            }
        }
    }
}

fn hash_roam(h: &mut StableHasher, r: &crate::scenario::RoamConfig) {
    h.usize(r.schedule.len());
    for ev in &r.schedule {
        h.usize(ev.flow);
        h.duration(ev.at);
        h.usize(ev.target_bss);
    }
    match &r.trigger {
        None => h.u8(0),
        Some(t) => {
            h.u8(1);
            h.f64(t.threshold_db);
            h.f64(t.hysteresis_db);
            h.duration(t.min_dwell);
        }
    }
    h.usize(r.paths.len());
    for p in &r.paths {
        h.usize(p.client);
        h.usize(p.waypoints.len());
        for w in &p.waypoints {
            h.duration(w.at);
            h.f64(w.x);
            h.f64(w.y);
        }
    }
    h.duration(r.mobility_tick);
    h.usize(r.ap_hack_capable.len());
    for &b in &r.ap_hack_capable {
        h.bool(b);
    }
    h.duration(r.assoc.scan_delay);
    h.duration(r.assoc.retry_backoff);
    h.u32(r.assoc.max_retries);
    h.f64(r.assoc_fail_prob);
    h.u32(r.rto_clamp_shift);
    h.usize(r.park_cap);
}

fn hash_size_dist(h: &mut StableHasher, d: &SizeDist) {
    match *d {
        SizeDist::Fixed(n) => {
            h.u8(0);
            h.u64(n);
        }
        SizeDist::BoundedPareto { alpha, min, max } => {
            h.u8(1);
            h.f64(alpha);
            h.u64(min);
            h.u64(max);
        }
        SizeDist::LogNormal { mu, sigma, max } => {
            h.u8(2);
            h.f64(mu);
            h.f64(sigma);
            h.u64(max);
        }
    }
}

fn hash_arrival(h: &mut StableHasher, d: &ArrivalDist) {
    match *d {
        ArrivalDist::Fixed(gap) => {
            h.u8(0);
            h.duration(gap);
        }
        ArrivalDist::Exponential { mean } => {
            h.u8(1);
            h.duration(mean);
        }
        ArrivalDist::Uniform { lo, hi } => {
            h.u8(2);
            h.duration(lo);
            h.duration(hi);
        }
    }
}

fn hash_model(h: &mut StableHasher, m: &TrafficModel) {
    match m {
        TrafficModel::BulkDownload => h.u8(0),
        TrafficModel::BulkUpload => h.u8(1),
        TrafficModel::UdpDownload => h.u8(2),
        TrafficModel::ShortFlows(s) => {
            h.u8(3);
            hash_size_dist(h, &s.sizes);
            hash_arrival(h, &s.think);
            h.bool(s.reuse);
        }
        TrafficModel::Bidirectional => h.u8(4),
        TrafficModel::Cbr(c) => {
            h.u8(5);
            h.u64(c.rate_kbps);
            h.u32(c.payload_bytes);
        }
        TrafficModel::OnOff(o) => {
            h.u8(6);
            hash_arrival(h, &o.on);
            hash_arrival(h, &o.off);
            h.u64(o.rate_kbps);
            h.u32(o.payload_bytes);
        }
    }
}

fn hash_supervisor(h: &mut StableHasher, s: &SupervisorConfig) {
    h.u32(s.degrade_score);
    h.u32(s.fallback_score);
    h.duration(s.probation_initial);
    h.duration(s.probation_max);
    h.u32(s.probation_success);
    h.u32(s.decay_good);
}

impl ScenarioConfig {
    /// Canonical 128-bit content hash of this fully-resolved
    /// configuration (every field, seed included). Equal hashes ⇔ equal
    /// configurations, up to FNV collisions; identical across runs,
    /// processes, and platforms — the campaign cache key.
    pub fn stable_hash(&self) -> [u8; 16] {
        let mut h = StableHasher::new();
        self.stable_hash_into(&mut h);
        h.finish()
    }

    /// Hex form of [`ScenarioConfig::stable_hash`].
    pub fn stable_hash_hex(&self) -> String {
        let mut h = StableHasher::new();
        self.stable_hash_into(&mut h);
        h.finish_hex()
    }

    /// Feed the canonical field encoding into an existing hasher.
    pub fn stable_hash_into(&self, h: &mut StableHasher) {
        h.u32(CONFIG_ENCODING_VERSION);
        match self.standard {
            Standard::Dot11a { rate_mbps } => {
                h.u8(0);
                h.u64(rate_mbps);
            }
            Standard::Dot11n { rate_mbps } => {
                h.u8(1);
                h.u64(rate_mbps);
            }
        }
        h.usize(self.n_clients);
        match self.hack_mode {
            HackMode::Disabled => h.u8(0),
            HackMode::Opportunistic => h.u8(1),
            HackMode::MoreData => h.u8(2),
            HackMode::ExplicitTimer(d) => {
                h.u8(3);
                h.duration(d);
            }
        }
        hash_model(h, &self.traffic);
        h.usize(self.traffic_mix.len());
        for m in &self.traffic_mix {
            hash_model(h, m);
        }
        h.bool(self.delayed_ack);
        h.bool(self.server_at_ap);
        h.usize(self.ap_queue_cap);
        hash_loss(h, &self.loss);
        match &self.corrupt {
            None => h.u8(0),
            Some(c) => {
                h.u8(1);
                h.f64(c.data_frac);
                h.f64(c.control_per);
                h.f64(c.fcs_miss);
            }
        }
        hash_dynamics(h, &self.dynamics);
        h.duration(self.stack_delay);
        h.duration(self.dma_delay);
        h.duration(self.duration);
        match self.transfer_bytes {
            None => h.u8(0),
            Some(b) => {
                h.u8(1);
                h.u64(b);
            }
        }
        h.duration(self.stagger);
        h.duration(self.warmup);
        h.u64(self.seed);
        h.bool(self.sora_quirks);
        h.u32(self.rcv_window);
        h.bool(self.disable_sync);
        match self.txop_limit {
            None => h.u8(0),
            Some(d) => {
                h.u8(1);
                h.duration(d);
            }
        }
        match self.retry_limit {
            None => h.u8(0),
            Some(l) => {
                h.u8(1);
                h.u32(l);
            }
        }
        match &self.supervisor {
            None => h.u8(0),
            Some(s) => {
                h.u8(1);
                hash_supervisor(h, s);
            }
        }
        h.usize(self.client_hack_capable.len());
        for &b in &self.client_hack_capable {
            h.bool(b);
        }
        h.usize(self.held_cap);
        h.u8(match self.cc {
            hack_tcp::CcKind::Reno => 0,
            hack_tcp::CcKind::Cubic => 1,
            hack_tcp::CcKind::Highspeed => 2,
            hack_tcp::CcKind::Bbr => 3,
        });
        h.usize(self.bss.len());
        for b in &self.bss {
            h.f64(b.x);
            h.f64(b.y);
            h.u8(b.channel);
            h.usize(b.n_clients);
        }
        h.f64(self.interference.co_channel_range_m);
        h.f64(self.interference.adjacent_range_m);
        hash_roam(h, &self.roam);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use crate::traffic::{CbrConfig, ShortFlowConfig};

    #[test]
    fn fnv_vectors() {
        // FNV-1a/128 reference vectors.
        let mut h = StableHasher::new();
        h.write(b"");
        assert_eq!(h.finish(), FNV128_OFFSET.to_be_bytes());
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(
            h.finish_hex(),
            format!(
                "{:032x}",
                (FNV128_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV128_PRIME)
            )
        );
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let a = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData).build();
        let b = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData).build();
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash_hex().len(), 32);

        let mut c = a.clone();
        c.seed += 1;
        assert_ne!(a.stable_hash(), c.stable_hash(), "seed must key the cache");
        let mut c = a.clone();
        c.held_cap += 1;
        assert_ne!(a.stable_hash(), c.stable_hash(), "trailing fields count");
        let mut c = a.clone();
        c.loss = LossConfig::PerClient(vec![0.01, 0.02]);
        assert_ne!(a.stable_hash(), c.stable_hash());
        let mut c = a.clone();
        c.cc = hack_tcp::CcKind::Cubic;
        assert_ne!(a.stable_hash(), c.stable_hash(), "cc keys the cache");
        let mut c = a.clone();
        c.bss = crate::scenario::BssSpec::enterprise_floor(4, 2);
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "bss layout keys the cache"
        );
        let mut c = a.clone();
        c.interference.co_channel_range_m += 1.0;
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "interference ranges key the cache"
        );
        let mut c = a.clone();
        c.roam.schedule.push(crate::scenario::RoamEvent {
            flow: 0,
            at: SimDuration::from_millis(500),
            target_bss: 1,
        });
        assert_ne!(a.stable_hash(), c.stable_hash(), "roams key the cache");
        let mut c = a.clone();
        c.roam.assoc_fail_prob = 0.25;
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "roam knobs key the cache even with an empty schedule"
        );
    }

    #[test]
    fn hash_distinguishes_adjacent_variants() {
        let mut a = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
        let mut b = a.clone();
        a.loss = LossConfig::SnrDistance(8.0);
        b.loss = LossConfig::PerClient(vec![8.0]);
        assert_ne!(a.stable_hash(), b.stable_hash(), "variant tags matter");
    }

    /// Five pre-model configs, pinned so a change to the encoding cannot
    /// slip by unversioned: a mismatch means every campaign cache key
    /// changed.
    /// Re-pinned for v7: the queue byte is gone.
    #[test]
    fn legacy_hashes_pinned_to_pre_model_build() {
        let pins = [
            (
                ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build(),
                "dced111942a7f6ffeb3d47b4eb819474",
            ),
            (
                ScenarioBuilder::dot11n_download(300, 4, HackMode::Disabled).build(),
                "d7c87c833840849040997f1c275b195a",
            ),
            (
                ScenarioBuilder::sora_testbed(2, HackMode::Opportunistic).build(),
                "7017815fe624df8683a67aa5363f0a3f",
            ),
            (
                ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                    .traffic(TrafficModel::BulkUpload)
                    .build(),
                "0795eab1445794a6466fa67425694424",
            ),
            (
                ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                    .traffic(TrafficModel::UdpDownload)
                    .build(),
                "d25664112f6004d4607074cdc34e8d69",
            ),
        ];
        for (cfg, want) in pins {
            assert_eq!(cfg.stable_hash_hex(), want, "{:?}", cfg.traffic);
        }
    }

    /// Traffic models key the cache by their own parameters, and a mix
    /// keys it even when every flow runs the default.
    #[test]
    fn model_hashes_keyed_by_parameters() {
        let base = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
            .traffic(TrafficModel::ShortFlows(ShortFlowConfig::default()))
            .build();
        let mut tweaked = base.clone();
        tweaked.traffic = TrafficModel::ShortFlows(ShortFlowConfig {
            reuse: false,
            ..ShortFlowConfig::default()
        });
        assert_ne!(base.stable_hash(), tweaked.stable_hash());

        let mut cbr = base.clone();
        cbr.traffic = TrafficModel::Cbr(CbrConfig::default());
        assert_ne!(base.stable_hash(), cbr.stable_hash());
        let mut cbr2 = cbr.clone();
        cbr2.traffic = TrafficModel::Cbr(CbrConfig {
            rate_kbps: 128,
            ..CbrConfig::default()
        });
        assert_ne!(cbr.stable_hash(), cbr2.stable_hash());

        // A mix keys the cache even when the default model is bulk.
        let mut mixed = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData).build();
        mixed.traffic_mix = vec![TrafficModel::BulkDownload, TrafficModel::Bidirectional];
        assert_ne!(
            mixed.stable_hash(),
            ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                .build()
                .stable_hash()
        );
    }
}
