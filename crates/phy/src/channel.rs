//! Radio propagation: station placement, log-distance path loss, SNR.
//!
//! The paper's simulations scatter clients "randomly within a circle of
//! 10-meter radius centered on the AP" and sweep SNR by moving a single
//! client away from the AP (Figure 11). A log-distance path-loss model
//! with an indoor exponent reproduces exactly that knob: distance ⇒ SNR.

use crate::StationId;

/// Propagation model and station positions.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Transmit power in dBm (typical consumer AP/NIC: 16 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, in dB. ~46.7 dB at
    /// 2.4 GHz free space; ~47.5 dB at 5 GHz.
    pub path_loss_1m_db: f64,
    /// Path-loss exponent (2.0 free space, ~3.0 indoor open-plan).
    pub exponent: f64,
    /// Receiver noise floor in dBm (thermal −101 dBm for 20 MHz plus a
    /// 7 dB noise figure ⇒ −94 dBm; 40 MHz is 3 dB worse).
    pub noise_floor_dbm: f64,
    /// Each station's position, indexed by station id; `None` = unplaced.
    positions: Vec<Option<(f64, f64)>>,
}

impl Channel {
    /// An indoor 2.4/5 GHz channel with typical consumer parameters.
    pub fn indoor() -> Self {
        Channel {
            tx_power_dbm: 16.0,
            path_loss_1m_db: 46.7,
            exponent: 3.0,
            noise_floor_dbm: -91.0,
            positions: Vec::new(),
        }
    }

    /// Place (or move) a station at coordinates in metres.
    pub fn place(&mut self, station: StationId, x: f64, y: f64) {
        let i = station.0 as usize;
        if i >= self.positions.len() {
            self.positions.resize(i + 1, None);
        }
        self.positions[i] = Some((x, y));
    }

    /// The position of a station, if placed.
    pub fn position(&self, station: StationId) -> Option<(f64, f64)> {
        self.positions.get(station.0 as usize).copied().flatten()
    }

    /// Euclidean distance between two placed stations, clamped below by
    /// the 1 m reference distance.
    ///
    /// # Panics
    /// Panics if either station has not been placed.
    pub fn distance(&self, a: StationId, b: StationId) -> f64 {
        let pa = self.position(a).expect("station a not placed");
        let pb = self.position(b).expect("station b not placed");
        let d = ((pa.0 - pb.0).powi(2) + (pa.1 - pb.1).powi(2)).sqrt();
        d.max(1.0)
    }

    /// Path loss in dB over `d` metres.
    pub fn path_loss_db(&self, d: f64) -> f64 {
        self.path_loss_1m_db + 10.0 * self.exponent * d.max(1.0).log10()
    }

    /// Received signal strength at `rx` for a transmission from `tx`.
    pub fn rx_power_dbm(&self, tx: StationId, rx: StationId) -> f64 {
        self.tx_power_dbm - self.path_loss_db(self.distance(tx, rx))
    }

    /// Signal-to-noise ratio in dB on the `tx → rx` link.
    pub fn snr_db(&self, tx: StationId, rx: StationId) -> f64 {
        self.rx_power_dbm(tx, rx) - self.noise_floor_dbm
    }

    /// The distance (metres) at which the link SNR equals `snr_db` —
    /// inverse of [`Channel::snr_db`], used by experiments that sweep SNR
    /// directly (Figure 11 plots goodput against SNR).
    pub fn distance_for_snr(&self, snr_db: f64) -> f64 {
        let pl = self.tx_power_dbm - self.noise_floor_dbm - snr_db;
        let d = 10f64.powf((pl - self.path_loss_1m_db) / (10.0 * self.exponent));
        d.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Channel {
        let mut c = Channel::indoor();
        c.place(StationId(0), 0.0, 0.0);
        c.place(StationId(1), 3.0, 4.0);
        c
    }

    #[test]
    fn distance_is_euclidean() {
        assert!((ch().distance(StationId(0), StationId(1)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_clamped_at_1m() {
        let mut c = Channel::indoor();
        c.place(StationId(0), 0.0, 0.0);
        c.place(StationId(1), 0.1, 0.0);
        assert_eq!(c.distance(StationId(0), StationId(1)), 1.0);
    }

    #[test]
    fn snr_decreases_with_distance() {
        let mut c = Channel::indoor();
        c.place(StationId(0), 0.0, 0.0);
        let mut last = f64::INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            c.place(StationId(1), d, 0.0);
            let snr = c.snr_db(StationId(0), StationId(1));
            assert!(snr < last);
            last = snr;
        }
    }

    #[test]
    fn snr_is_symmetric() {
        let c = ch();
        assert_eq!(
            c.snr_db(StationId(0), StationId(1)),
            c.snr_db(StationId(1), StationId(0))
        );
    }

    #[test]
    fn snr_at_close_range_supports_top_rate() {
        // At a few metres an indoor link must comfortably exceed the
        // ~24 dB needed by HT 150 Mbps, or the paper's scenarios would
        // never reach the top rate.
        let mut c = Channel::indoor();
        c.place(StationId(0), 0.0, 0.0);
        c.place(StationId(1), 3.0, 0.0);
        assert!(c.snr_db(StationId(0), StationId(1)) > 24.0);
    }

    #[test]
    fn distance_for_snr_inverts_snr() {
        let mut c = Channel::indoor();
        c.place(StationId(0), 0.0, 0.0);
        for target in [5.0, 10.0, 20.0, 30.0] {
            let d = c.distance_for_snr(target);
            c.place(StationId(1), d, 0.0);
            let snr = c.snr_db(StationId(0), StationId(1));
            assert!((snr - target).abs() < 1e-9, "target {target} got {snr}");
        }
    }

    #[test]
    fn distance_for_snr_clamps_high_targets() {
        // An SNR higher than achievable at 1 m clamps to 1 m.
        let c = Channel::indoor();
        assert_eq!(c.distance_for_snr(1000.0), 1.0);
    }
}
