//! First-class traffic models — the per-flow workload API.
//!
//! Every scenario before this layer ran the paper's workload: one
//! saturating bulk transfer per client. [`TrafficModel`] makes the
//! workload a per-flow property of the scenario instead:
//!
//! * [`TrafficModel::BulkDownload`] / [`TrafficModel::BulkUpload`] /
//!   [`TrafficModel::UdpDownload`] — saturating bulk TCP in one
//!   direction, and the saturating UDP capacity baseline.
//! * [`TrafficModel::ShortFlows`] — web-like request/response flows:
//!   sizes drawn per-flow from a deterministic [`SizeDist`]
//!   (bounded Pareto or lognormal), separated by think times from an
//!   [`ArrivalDist`]; the TCP connection is reused or torn down and
//!   re-established per transfer. This is where HACK's per-flow ROHC
//!   context setup cost actually bites.
//! * [`TrafficModel::Bidirectional`] — bulk transfers in *both*
//!   directions at once, so the client driver and the AP driver each
//!   hold and compress the ACK stream of the opposite data stream —
//!   the case the paper explicitly punts on.
//! * [`TrafficModel::Cbr`] — VoIP-style constant-bitrate UDP riding
//!   the same cell as HACK flows; per-packet one-way latency and
//!   jitter feed the per-class quantile sketches.
//! * [`TrafficModel::OnOff`] — bursty on/off sources (CBR during ON,
//!   silent during OFF, both period lengths drawn per-cycle).
//!
//! All randomness is drawn from a dedicated per-flow RNG fork, so any
//! mix of models is deterministic (same seed ⇒ byte-identical trace
//! digest) and adding a model to one flow never perturbs another.

use hack_sim::{SimDuration, SimRng};

/// A deterministic flow-size distribution, sampled per transfer from
/// the flow's own RNG fork. All sizes are in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every transfer is exactly this many bytes.
    Fixed(u64),
    /// Bounded Pareto: heavy-tailed web-like sizes in `[min, max]`.
    BoundedPareto {
        /// Tail index (smaller = heavier tail; web flows ≈ 1.2).
        alpha: f64,
        /// Smallest transfer (bytes).
        min: u64,
        /// Largest transfer (bytes).
        max: u64,
    },
    /// Lognormal with the given log-space mean/deviation, truncated
    /// above at `max`.
    LogNormal {
        /// Mean of `ln(size)`.
        mu: f64,
        /// Std-dev of `ln(size)`.
        sigma: f64,
        /// Truncation bound (bytes).
        max: u64,
    },
}

impl SizeDist {
    /// Draw one transfer size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::BoundedPareto { alpha, min, max } => {
                let (lo, hi) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                // Inverse-CDF of the Pareto truncated to [lo, hi]:
                // x = lo / (1 − u·(1 − (lo/hi)^α))^(1/α).
                let u = rng.unit().min(1.0 - 1e-12);
                let ratio = (lo / hi).powf(alpha);
                let x = lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x as u64).clamp(min, max)
            }
            SizeDist::LogNormal { mu, sigma, max } => {
                // Box–Muller on two unit draws (both always consumed,
                // keeping the draw count input-independent).
                let u1 = rng.unit().max(1e-12);
                let u2 = rng.unit();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let x = (mu + sigma * z).exp();
                (x as u64).min(max)
            }
        }
    }
}

/// A deterministic inter-event-time distribution (think times, ON/OFF
/// period lengths), sampled from the flow's own RNG fork. Samples are
/// clamped to ≥ 1 µs so a degenerate distribution can never schedule
/// a zero-length gap loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDist {
    /// Every gap is exactly this long.
    Fixed(SimDuration),
    /// Exponential (Poisson process) with the given mean.
    Exponential {
        /// Mean gap.
        mean: SimDuration,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Shortest gap.
        lo: SimDuration,
        /// Longest gap.
        hi: SimDuration,
    },
}

impl ArrivalDist {
    /// Draw one gap (≥ 1 µs).
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let floor = SimDuration::from_micros(1);
        match *self {
            ArrivalDist::Fixed(d) => d.max(floor),
            ArrivalDist::Exponential { mean } => {
                let u = rng.unit().min(1.0 - 1e-12);
                let ns = -(1.0 - u).ln() * mean.as_nanos() as f64;
                SimDuration::from_nanos(ns as u64).max(floor)
            }
            ArrivalDist::Uniform { lo, hi } => {
                let (a, b) = (lo.as_nanos(), hi.as_nanos().max(lo.as_nanos()));
                let ns = a + (rng.unit() * (b - a) as f64) as u64;
                SimDuration::from_nanos(ns.min(b)).max(floor)
            }
        }
    }
}

/// Web-like short-flow workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortFlowConfig {
    /// Transfer-size distribution (one draw per transfer).
    pub sizes: SizeDist,
    /// Think time between a transfer completing and the next starting.
    pub think: ArrivalDist,
    /// Reuse the TCP connection across transfers (persistent
    /// connection) instead of tearing it down and re-establishing —
    /// with `false`, every transfer pays the handshake *and* fresh
    /// ROHC context setup.
    pub reuse: bool,
}

impl Default for ShortFlowConfig {
    /// Web-ish defaults: bounded-Pareto sizes (α = 1.2, 4 KB – 2 MB),
    /// exponential 200 ms think time, persistent connections.
    fn default() -> Self {
        ShortFlowConfig {
            sizes: SizeDist::BoundedPareto {
                alpha: 1.2,
                min: 4 * 1024,
                max: 2 * 1024 * 1024,
            },
            think: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(200),
            },
            reuse: true,
        }
    }
}

/// VoIP-style constant-bitrate UDP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbrConfig {
    /// Offered rate in kbit/s (payload bytes only).
    pub rate_kbps: u64,
    /// UDP payload per packet (bytes).
    pub payload_bytes: u32,
}

impl Default for CbrConfig {
    /// G.711-ish defaults: 64 kbit/s in 160-byte frames (20 ms pacing).
    fn default() -> Self {
        CbrConfig {
            rate_kbps: 64,
            payload_bytes: 160,
        }
    }
}

/// Bursty on/off source parameters: CBR during ON periods, silence
/// during OFF, period lengths drawn per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffConfig {
    /// ON-period length distribution.
    pub on: ArrivalDist,
    /// OFF-period length distribution.
    pub off: ArrivalDist,
    /// Offered rate during ON periods, kbit/s.
    pub rate_kbps: u64,
    /// UDP payload per packet (bytes).
    pub payload_bytes: u32,
}

impl Default for OnOffConfig {
    /// Exponential 500 ms ON / 500 ms OFF bursts of 2 Mbit/s
    /// 1200-byte packets.
    fn default() -> Self {
        OnOffConfig {
            on: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(500),
            },
            off: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(500),
            },
            rate_kbps: 2_000,
            payload_bytes: 1_200,
        }
    }
}

/// The per-flow traffic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Bulk TCP download (server → client) — the paper's main case.
    BulkDownload,
    /// Bulk TCP upload (client → server) — the "wireless backup" case.
    BulkUpload,
    /// Saturating unidirectional UDP download (capacity baseline).
    UdpDownload,
    /// Web-like short TCP flows with think times between transfers.
    ShortFlows(ShortFlowConfig),
    /// Bulk TCP in both directions at once: the client uploads while
    /// it downloads, so *both* drivers hold and compress ACKs.
    Bidirectional,
    /// VoIP-style constant-bitrate UDP download.
    Cbr(CbrConfig),
    /// Bursty on/off UDP download.
    OnOff(OnOffConfig),
}

/// Coarse flow classes for the per-class metrics API. Codes are stable
/// (they appear in the result codec): Bulk=0, Udp=1, Short=2, Bidir=3,
/// Cbr=4, OnOff=5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Saturating unidirectional bulk TCP (download or upload).
    Bulk,
    /// Saturating UDP.
    Udp,
    /// Short flows.
    Short,
    /// Bidirectional bulk.
    Bidir,
    /// Constant-bitrate UDP.
    Cbr,
    /// On/off bursty UDP.
    OnOff,
}

impl TrafficClass {
    /// Stable wire code of the class.
    pub fn code(self) -> u8 {
        match self {
            TrafficClass::Bulk => 0,
            TrafficClass::Udp => 1,
            TrafficClass::Short => 2,
            TrafficClass::Bidir => 3,
            TrafficClass::Cbr => 4,
            TrafficClass::OnOff => 5,
        }
    }

    /// Class from its stable wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => TrafficClass::Bulk,
            1 => TrafficClass::Udp,
            2 => TrafficClass::Short,
            3 => TrafficClass::Bidir,
            4 => TrafficClass::Cbr,
            5 => TrafficClass::OnOff,
            _ => return None,
        })
    }

    /// Human-readable class name (report tables).
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Bulk => "bulk",
            TrafficClass::Udp => "udp",
            TrafficClass::Short => "short",
            TrafficClass::Bidir => "bidir",
            TrafficClass::Cbr => "cbr",
            TrafficClass::OnOff => "onoff",
        }
    }

    /// All classes in wire-code order.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::Bulk,
        TrafficClass::Udp,
        TrafficClass::Short,
        TrafficClass::Bidir,
        TrafficClass::Cbr,
        TrafficClass::OnOff,
    ];
}

impl TrafficModel {
    /// Coarse metrics class of the model.
    pub fn class(&self) -> TrafficClass {
        match self {
            TrafficModel::BulkDownload | TrafficModel::BulkUpload => TrafficClass::Bulk,
            TrafficModel::UdpDownload => TrafficClass::Udp,
            TrafficModel::ShortFlows(_) => TrafficClass::Short,
            TrafficModel::Bidirectional => TrafficClass::Bidir,
            TrafficModel::Cbr(_) => TrafficClass::Cbr,
            TrafficModel::OnOff(_) => TrafficClass::OnOff,
        }
    }

    /// Whether the flow runs TCP endpoints (and therefore an ACK
    /// stream HACK can compress).
    pub fn is_tcp(&self) -> bool {
        !matches!(
            self,
            TrafficModel::UdpDownload | TrafficModel::Cbr(_) | TrafficModel::OnOff(_)
        )
    }

    /// Whether the flow is UDP paced from the wired side (CBR and
    /// on/off sources).
    pub fn is_paced_udp(&self) -> bool {
        matches!(self, TrafficModel::Cbr(_) | TrafficModel::OnOff(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_round_trip() {
        for class in TrafficClass::ALL {
            assert_eq!(TrafficClass::from_code(class.code()), Some(class));
        }
        assert_eq!(TrafficClass::from_code(6), None);
    }

    #[test]
    fn pareto_samples_bounded_and_deterministic() {
        let dist = SizeDist::BoundedPareto {
            alpha: 1.2,
            min: 4_096,
            max: 2 * 1024 * 1024,
        };
        let mut a = SimRng::new(7).fork(1);
        let mut b = SimRng::new(7).fork(1);
        let mut below_64k = 0;
        for _ in 0..2_000 {
            let x = dist.sample(&mut a);
            assert_eq!(x, dist.sample(&mut b), "same fork ⇒ same draws");
            assert!((4_096..=2 * 1024 * 1024).contains(&x));
            if x < 64 * 1024 {
                below_64k += 1;
            }
        }
        // Heavy tail, light body: most flows are small.
        assert!(below_64k > 1_000, "pareto body too thin: {below_64k}");
    }

    #[test]
    fn lognormal_truncated() {
        let dist = SizeDist::LogNormal {
            mu: 10.0,
            sigma: 1.5,
            max: 100_000,
        };
        let mut rng = SimRng::new(3).fork(9);
        for _ in 0..2_000 {
            assert!(dist.sample(&mut rng) <= 100_000);
        }
    }

    #[test]
    fn arrival_samples_floor_at_one_micro() {
        let mut rng = SimRng::new(1).fork(2);
        let zero = ArrivalDist::Fixed(SimDuration::ZERO);
        assert_eq!(zero.sample(&mut rng), SimDuration::from_micros(1));
        let exp = ArrivalDist::Exponential {
            mean: SimDuration::from_nanos(1),
        };
        for _ in 0..100 {
            assert!(exp.sample(&mut rng) >= SimDuration::from_micros(1));
        }
        let uni = ArrivalDist::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(2),
        };
        for _ in 0..100 {
            let d = uni.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(1) && d <= SimDuration::from_millis(2));
        }
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mean = SimDuration::from_millis(200);
        let dist = ArrivalDist::Exponential { mean };
        let mut rng = SimRng::new(42).fork(5);
        let total: u64 = (0..4_000).map(|_| dist.sample(&mut rng).as_nanos()).sum();
        let avg = total as f64 / 4_000.0;
        let want = mean.as_nanos() as f64;
        assert!((avg - want).abs() / want < 0.1, "avg {avg} vs mean {want}");
    }
}
