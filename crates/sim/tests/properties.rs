//! Property-based tests for the simulation kernel's core invariants.

use hack_sim::{EventQueue, Scheduler, SimDuration, SimRng, SimTime, TimerTable};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order regardless of
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Same-time events pop in insertion order (stable FIFO tiebreak).
    #[test]
    fn queue_fifo_on_ties(groups in proptest::collection::vec((0u64..100, 1usize..8), 1..40)) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.push(SimTime::from_nanos(t), idx);
                idx += 1;
            }
        }
        // Per firing time, payload indices must be ascending *within the
        // set of payloads inserted at that time*.
        let mut by_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        while let Some((t, p)) = q.pop() {
            by_time.entry(t.as_nanos()).or_default().push(p);
        }
        for seq in by_time.values() {
            prop_assert!(seq.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The scheduler clock is monotone non-decreasing over any run.
    #[test]
    fn scheduler_clock_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut s = Scheduler::new();
        for &d in &delays {
            s.schedule_in(SimDuration::from_nanos(d), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = s.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(s.now(), t);
            last = t;
        }
    }

    /// A timer token fires iff it is the most recent arming and was not
    /// cancelled, and at most once.
    #[test]
    fn timer_exactly_once(ops in proptest::collection::vec(0u8..3, 1..100)) {
        let mut table: TimerTable<u8> = TimerTable::new();
        let mut outstanding = Vec::new();
        let mut latest: Option<hack_sim::TimerToken<u8>> = None;
        let mut cancelled = true;
        for op in ops {
            match op {
                0 => {
                    let tok = table.arm(0);
                    outstanding.push(tok);
                    latest = Some(tok);
                    cancelled = false;
                }
                1 => {
                    table.cancel(0);
                    cancelled = true;
                }
                _ => {}
            }
        }
        let mut fired = 0;
        for tok in outstanding {
            if table.fire(tok) {
                fired += 1;
                prop_assert_eq!(Some(tok), latest);
            }
        }
        prop_assert_eq!(fired, u32::from(!cancelled && latest.is_some()));
    }

    /// RNG determinism: identical seeds yield identical streams; forks are
    /// reproducible.
    #[test]
    fn rng_deterministic(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.uniform(1 << 20), b.uniform(1 << 20));
        }
        let mut fa = SimRng::new(seed).fork(salt);
        let mut fb = SimRng::new(seed).fork(salt);
        prop_assert_eq!(fa.uniform(u32::MAX), fb.uniform(u32::MAX));
    }

    /// for_bits never under-estimates: duration * rate >= bits.
    #[test]
    fn for_bits_is_ceiling(bits in 0u64..1_000_000_000, rate in 1u64..1_000_000_000) {
        let d = SimDuration::for_bits(bits, rate);
        // d >= bits/rate seconds  <=>  d_ns * rate >= bits * 1e9
        prop_assert!((d.as_nanos() as u128) * (rate as u128) >= (bits as u128) * 1_000_000_000);
        // And tight: one ns less would be too short (when d > 0).
        if d.as_nanos() > 0 {
            prop_assert!(((d.as_nanos() - 1) as u128) * (rate as u128) < (bits as u128) * 1_000_000_000);
        }
    }
}
