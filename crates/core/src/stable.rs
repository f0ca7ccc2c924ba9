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
//!    entry. The encoding is therefore the codec's field walk
//!    ([`crate::codec`]) fed into [`StableHasher`], so a field or
//!    variant missing from [`ScenarioConfig`]'s walk table is a compile
//!    error, and it starts with [`CONFIG_ENCODING_VERSION`]. Changing
//!    that table bumps the version and re-pins the tests' cache keys
//!    with a one-line reason.
//!
//! Floats are encoded as their IEEE-754 bit patterns; enums as explicit
//! code bytes; vectors with a `u64` length prefix. Nothing here depends
//! on wall-clock, addresses, or map iteration order.

use crate::codec::{Sink, Walk};
use crate::scenario::ScenarioConfig;

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

/// The cache key's encoding: the codec's binary one (little-endian
/// integers, one-byte codes and tags), except that sequence lengths are
/// `u64`, where the result codec writes `u32`.
impl Sink for StableHasher {
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }
    fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }
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
        self.walk(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::HackMode;
    use crate::scenario::{ChannelChange, LossConfig, ScenarioBuilder};
    use crate::supervisor::SupervisorConfig;
    use crate::traffic::{ArrivalDist, CbrConfig, ShortFlowConfig, SizeDist, TrafficModel};
    use hack_sim::SimDuration;

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

    /// Four configs that between them reach every variant of every enum
    /// in a [`ScenarioConfig`], the `Some` arm of every `Option` and a
    /// non-empty instance of every vector, pinned like the legacy five:
    /// a mismatch means the encoding of a payload the legacy pins never
    /// reach has changed.
    #[test]
    fn every_variant_hashes_pinned() {
        use crate::scenario::{BssSpec, ChannelEvent, ClientPath, RoamEvent};
        use crate::traffic::OnOffConfig;
        use hack_phy::{CorruptModel, GeParams, RoamTrigger, Waypoint};
        use hack_tcp::CcKind;

        let ms = SimDuration::from_millis;
        let mut a = ScenarioBuilder::sora_testbed(3, HackMode::Disabled)
            .traffic_mix(vec![
                TrafficModel::BulkUpload,
                TrafficModel::UdpDownload,
                TrafficModel::ShortFlows(ShortFlowConfig {
                    sizes: SizeDist::Fixed(64 * 1024),
                    think: ArrivalDist::Fixed(ms(50)),
                    reuse: true,
                }),
            ])
            .corrupt(CorruptModel {
                data_frac: 0.5,
                control_per: 0.01,
                fcs_miss: 0.25,
            })
            .dynamics(vec![
                ChannelEvent {
                    at: ms(300),
                    change: ChannelChange::SnrOffsetDb(-6.5),
                },
                ChannelEvent {
                    at: ms(400),
                    change: ChannelChange::ClientLoss {
                        client: 1,
                        per: 0.2,
                    },
                },
                ChannelEvent {
                    at: ms(500),
                    change: ChannelChange::MoveClient {
                        client: 2,
                        x: 3.5,
                        y: -1.25,
                    },
                },
            ])
            .transfer_bytes(1 << 20)
            .build();
        a.loss = LossConfig::Ideal;

        let b = ScenarioBuilder::dot11n_download(300, 2, HackMode::Opportunistic)
            .traffic(TrafficModel::Bidirectional)
            .traffic_mix(vec![
                TrafficModel::Cbr(CbrConfig::default()),
                TrafficModel::OnOff(OnOffConfig {
                    on: ArrivalDist::Exponential { mean: ms(120) },
                    off: ArrivalDist::Uniform {
                        lo: ms(10),
                        hi: ms(90),
                    },
                    rate_kbps: 1_500,
                    payload_bytes: 900,
                }),
                TrafficModel::ShortFlows(ShortFlowConfig::default()),
            ])
            .loss(LossConfig::PerClient(vec![0.03, 0.07]))
            .cc(CcKind::Cubic)
            .txop_limit(ms(2))
            .retry_limit(4)
            .supervisor(SupervisorConfig::default())
            .client_hack_capable(vec![true, false])
            .build();

        let mut c = ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData)
            .traffic(TrafficModel::ShortFlows(ShortFlowConfig {
                sizes: SizeDist::LogNormal {
                    mu: 11.0,
                    sigma: 1.5,
                    max: 8 << 20,
                },
                think: ArrivalDist::Uniform {
                    lo: ms(5),
                    hi: ms(25),
                },
                reuse: false,
            }))
            .loss(LossConfig::SnrDistance(12.5))
            .cc(CcKind::Highspeed)
            .bss(BssSpec::apartment_block(2, 2))
            .build();
        c.roam.schedule = vec![RoamEvent {
            flow: 1,
            at: ms(700),
            target_bss: 1,
        }];
        c.roam.trigger = Some(RoamTrigger {
            threshold_db: 18.0,
            hysteresis_db: 3.0,
            min_dwell: ms(250),
        });
        c.roam.paths = vec![ClientPath {
            client: 3,
            waypoints: vec![
                Waypoint {
                    at: ms(0),
                    x: 0.0,
                    y: 1.0,
                },
                Waypoint {
                    at: ms(900),
                    x: 12.0,
                    y: 2.5,
                },
            ],
        }];
        c.roam.ap_hack_capable = vec![true, false];

        let d = ScenarioBuilder::dot11n_download(150, 2, HackMode::ExplicitTimer(ms(2)))
            .traffic(TrafficModel::OnOff(OnOffConfig {
                on: ArrivalDist::Fixed(ms(40)),
                ..OnOffConfig::default()
            }))
            .loss(LossConfig::Burst(GeParams {
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
                per_good: 0.001,
                per_bad: 0.6,
            }))
            .cc(CcKind::Bbr)
            .build();

        let pins = [
            (a, "916e78966427f36d07b8a825fcdcab53"),
            (b, "faac20f64ba44206221ea0d2da0e116a"),
            (c, "71a182441ff37d2d99b0cca76c24507d"),
            (d, "25e79a83ff8028f47b85751240408aa4"),
        ];
        for (cfg, want) in pins {
            assert_eq!(cfg.stable_hash_hex(), want, "{:?}", cfg.hack_mode);
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
