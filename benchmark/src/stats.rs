//! Order statistics over rep samples.
//!
//! Every timed metric is a median over reps: on this class of machine
//! (shared KVM guest) the minimum and the lower quartile were *worse*
//! estimators than the median (README, "Timing protocol").

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// the two nearest order statistics. `xs` need not be sorted.
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let q = |q| quantile(&xs, q);
        assert_eq!(
            (q(0.25), median(&xs), q(0.75), q(0.8)),
            (3.5, 6.0, 8.5, 9.0)
        );
        // Interpolation between order statistics.
        assert_eq!(quantile(&[0.0, 10.0], 0.8), 8.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.0), 0.0);
        assert_eq!(quantile(&[0.0, 10.0], 1.0), 10.0);
    }

    #[test]
    fn order_of_input_is_irrelevant() {
        let a = [9.0, 2.0, 7.0, 4.0, 4.0, 1.0];
        let mut b = a;
        b.reverse();
        for q in [0.0, 0.25, 0.5, 0.8, 1.0] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }
}
