//! The reference kernel: a fixed piece of work of this package's own,
//! run before and after every timed rep (on as many threads as the rep
//! uses), against which host time is expressed.
//!
//! The host this benchmark was written on (a shared KVM guest) changes
//! speed by up to 1.5× for tens of seconds at a time, so the medians of
//! two 20 s runs of one build differed by up to that much, whatever the
//! estimator (README, "Timing protocol"). What a run *can* measure
//! steadily is how long its reps take relative to a yardstick timed
//! within the same second. A pure ALU loop is no yardstick: the host's
//! slow phases barely touch it (which is why calibration loops have a
//! bad name). The simulator is hash maps, small heap blocks and
//! unpredictable branches, so the kernel is too: a hash map of small
//! heap blocks churned by insert and remove, then sorts of
//! pseudo-random words. Over ten minutes of alternating measurement the
//! spread of 20 s medians fell from 25 % to 5 % of their median.
//!
//! A later change cannot make the kernel faster (it may not edit this
//! package), so a ratio to it moves only when the product code does.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// What the kernel is deemed to take, in nanoseconds: host times are
/// reported as `measured × NOMINAL_NS / kernel time`, i.e. as they
/// would read on a host phase in which the kernel takes exactly this
/// long. (It takes 8–15 ms on the host the benchmark was written on.)
pub const NOMINAL_NS: f64 = 10e6;

const KEYS: u64 = 1 << 14;
const MAP_OPS: usize = 60_000;
const SORTS: usize = 80;
const SORT_WORDS: usize = 4096;

/// The kernel's state, kept between runs so that each run starts from
/// the same steady state (a half-full map).
pub struct Reference {
    // A fixed hasher: the default one is keyed per process, and the
    // yardstick must not depend on the luck of the key.
    blocks: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    words: Vec<u32>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A warmed-up kernel. Its inputs are fixed: it is a yardstick, not
    /// a workload, and `--seed` does not reach it.
    pub fn new() -> Self {
        let mut r = Reference {
            blocks: HashMap::default(),
            words: vec![0; SORT_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
        };
        r.run();
        r
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    /// Run the kernel once; how long it took, in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let started = Instant::now();
        let mut sum = 0u64;
        for _ in 0..MAP_OPS {
            let key = self.next() % KEYS;
            match self.blocks.remove(&key) {
                Some(block) => sum += block.len() as u64,
                None => {
                    self.blocks.insert(key, vec![0; 64 + (key % 64) as usize]);
                }
            }
        }
        for _ in 0..SORTS {
            for i in 0..SORT_WORDS {
                self.words[i] = self.next() as u32;
            }
            self.words.sort_unstable();
            sum += u64::from(self.words[SORT_WORDS / 2]);
        }
        std::hint::black_box(sum);
        started.elapsed().as_nanos() as u64
    }
}

/// The kernel on as many threads as the workload beside it: a rep that
/// keeps `T` CPUs busy meets another host than a rep that keeps one
/// busy, and a single-threaded yardstick beside `churn_campaign` was
/// off by up to 1.7× between 20 s windows where a two-threaded one
/// stayed within 1.18× (and halved the spread of their medians).
pub struct Yardstick {
    kernels: Vec<Reference>,
}

impl Yardstick {
    /// Kernels for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Yardstick {
            kernels: (0..max_threads.max(1)).map(|_| Reference::new()).collect(),
        }
    }

    /// Run one kernel on each of `threads` threads at once; the mean of
    /// their times, in nanoseconds.
    pub fn run(&mut self, threads: usize) -> f64 {
        let kernels = &mut self.kernels[..threads];
        if let [only] = kernels {
            return only.run() as f64;
        }
        let total: u64 = std::thread::scope(|s| {
            let running: Vec<_> = kernels.iter_mut().map(|k| s.spawn(|| k.run())).collect();
            running
                .into_iter()
                .map(|h| h.join().expect("a reference kernel panicked"))
                .sum()
        });
        total as f64 / threads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_run() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..3 {
            assert!(a.run() > 0 && b.run() > 0);
            assert_eq!(a.state, b.state);
            assert_eq!(a.blocks.len(), b.blocks.len());
            assert_eq!(a.words, b.words);
        }
        // Steady state: the map hovers around half of the key space.
        assert!((KEYS as usize / 4..3 * KEYS as usize / 4).contains(&a.blocks.len()));
    }

    #[test]
    fn the_yardstick_runs_on_one_thread_or_several() {
        let mut y = Yardstick::new(2);
        assert!(y.run(1) > 0.0 && y.run(2) > 0.0);
        // Both kernels ran the second time, only the first one twice.
        assert_ne!(y.kernels[0].state, y.kernels[1].state);
    }
}
