//! The five workloads and the closed loop that times them.
//!
//! Every workload is a closed loop: a rep starts when the previous one
//! ends. A workload has one or more *units* (distinct scenario shapes;
//! only `paper_anchors` has more than one) and several *slots* (seeds
//! derived from `--seed`). Rep `i` runs unit `i % units` under slot
//! `(i / units) % slots`, so every `(unit, slot)` pair recurs and its
//! simulated outputs can be checked bit for bit against its earlier
//! reps. Counts (events, allocations) are exact per pair; the reported
//! figure is the mean over slots, which is what keeps it steady from
//! one `--seed` to the next. Host time is the median over a unit's
//! reps, summed over units.

use std::path::PathBuf;
use std::time::Instant;

use hack_campaign::{campaign_csv, campaign_json, run_campaign, Axis, CampaignOptions, SweepSpec};
use hack_core::{
    run_dense, shard_configs, ArrivalDist, BssSpec, CbrConfig, DenseOptions, DenseReport, GeParams,
    HackMode, LossConfig, OnOffConfig, RunResult, ScenarioBuilder, ScenarioConfig, ShortFlowConfig,
    SizeDist, TrafficClass, TrafficModel, World,
};
use hack_sim::SimDuration;

use crate::alloc::{self, HeapDelta};
use crate::reference::{Yardstick, NOMINAL_NS};
use crate::stats::{median, quantile};

/// Seeds derived from `--seed` that each timed workload cycles through.
pub const SLOTS: usize = 8;

/// What every workload needs to know about this invocation.
#[derive(Debug, Clone)]
pub struct Env {
    /// `--seed`.
    pub seed: u64,
    /// Worker threads for the two workloads whose product code is
    /// parallel: `min(nproc, 4)`.
    pub threads: usize,
    /// Where cache directories and span files go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Env {
    /// The scenario seed of `slot`: `--seed 1` owns 1..=slots, `--seed
    /// 2` the next `slots` seeds, so no two `--seed` values share one.
    pub fn sub_seed(&self, slot: usize, slots: usize) -> u64 {
        self.seed
            .wrapping_sub(1)
            .wrapping_mul(slots as u64)
            .wrapping_add(1 + slot as u64)
    }
}

/// Operations attempted and failed: one rep, one campaign job, one
/// anchor run or one output check each.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One rep, as measured from outside.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The reference kernel around this rep, nanoseconds: the mean of
    /// the run before and the run after. Filled in by [`run_timed`].
    pub reference_ns: f64,
    /// Set-up: config or spec construction and world assembly.
    pub setup_ns: u64,
    /// The timed region.
    pub wall_ns: u64,
    /// Events dispatched by every world of the rep.
    pub events: u64,
    /// Heap traffic of the timed region.
    pub heap: HeapDelta,
    /// FNV-1a fold of the simulated outputs of every run of the rep:
    /// per-flow goodput bits and events dispatched.
    pub digest: u64,
    /// Aggregate steady-state goodput (Mbps), summed over the rep's
    /// runs.
    pub goodput_mbps: f64,
}

impl Sample {
    /// `ns` of this rep's host time as it would read on a host phase in
    /// which the reference kernel takes [`NOMINAL_NS`].
    fn at_reference(&self, ns: u64) -> f64 {
        ns as f64 * NOMINAL_NS / self.reference_ns
    }

    fn wall_at_reference_ns(&self) -> f64 {
        self.at_reference(self.wall_ns)
    }
}

/// Where a digest fold starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fold one run's simulated outputs (per-flow goodput bits, events
/// dispatched) into digest `h`, FNV-1a.
pub fn fold_result(h: u64, r: &RunResult) -> u64 {
    let h = r
        .flow_goodput_mbps
        .iter()
        .fold(h, |h, g| fold_bytes(h, &g.to_bits().to_le_bytes()));
    fold_bytes(h, &r.events_dispatched.to_le_bytes())
}

/// Every flow of `r` moved bytes.
fn flows_moved_bytes(r: &RunResult) -> bool {
    !r.flow_goodput_full_mbps.is_empty() && r.flow_goodput_full_mbps.iter().all(|&g| g > 0.0)
}

/// One closed-loop workload.
pub trait Workload {
    /// Name, as in [`crate::spec::WORKLOADS`].
    fn name(&self) -> &'static str;
    /// Distinct scenario shapes cycled through.
    fn units(&self) -> usize {
        1
    }
    /// Derived seeds per unit.
    fn slots(&self) -> usize {
        SLOTS
    }
    /// Simulated seconds one rep of `unit` covers, summed over its
    /// independent scenarios (a dense floor counts once).
    fn sim_s(&self, unit: usize) -> f64;
    /// Independent scenario runs in one rep of `unit`.
    fn runs(&self, _unit: usize) -> u64 {
        1
    }
    /// Threads the product code runs a rep on.
    fn threads(&self) -> usize {
        1
    }
    /// One rep: set up, run timed, check the outputs.
    fn rep(&self, unit: usize, slot: usize, ops: &mut Ops) -> Sample;
    /// Once per invocation, untimed: checks that need a second run
    /// (serial against parallel).
    fn verify(&self, _ops: &mut Ops) {}
    /// The single-world scenarios `(unit, slot)` is made of; the traced
    /// pass steps each through `run_until` to read its counters.
    fn world_configs(&self, unit: usize, slot: usize) -> Vec<ScenarioConfig>;
}

/// Set-ups per rep. A rep sets up this many times over and keeps the
/// last; its set-up time is the median, which is taken with warm caches
/// and so says what set-up costs, not what the previous run left in L2.
const SETUPS: usize = 8;

fn timed_setups<T>(mut set_up: impl FnMut() -> T) -> (T, u64) {
    let mut ns = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Dropped first: two worlds alive at once would be the rep's
        // heap peak.
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up());
        ns.push(t.elapsed().as_nanos() as f64);
    }
    (last.expect("SETUPS is not zero"), median(&ns) as u64)
}

/// Set up, run and check one world; the shared rep of the three
/// single-world workloads.
fn world_rep(make: impl Fn() -> ScenarioConfig, ops: &mut Ops) -> Sample {
    let live = alloc::live();
    let (world, setup_ns) = timed_setups(|| World::builder(make()).build());

    let mark = alloc::mark(live);
    let t = Instant::now();
    let r = world.run();
    let wall_ns = t.elapsed().as_nanos() as u64;
    let heap = mark.since();

    ops.check(flows_moved_bytes(&r), || "a flow moved no bytes".into());
    Sample {
        reference_ns: NOMINAL_NS,
        setup_ns,
        wall_ns,
        events: r.events_dispatched,
        heap,
        digest: fold_result(FNV_OFFSET, &r),
        goodput_mbps: r.aggregate_goodput_mbps,
    }
}

// ---------------------------------------------------------------------
// bulk1_hack
// ---------------------------------------------------------------------

/// The paper's steady state: one 802.11n client downloading with HACK.
pub struct Bulk1Hack(pub Env);

/// Simulated length of one `bulk1_hack` rep: about half a million
/// events, 0.2–0.3 host seconds. (The host's fast and slow phases
/// alternate within a second; reps much longer than that straddle
/// phases the reference kernel beside them never saw, and the spread
/// between runs doubles.)
const BULK1_SIM_MS: u64 = 10_000;

impl Bulk1Hack {
    fn cfg(&self, slot: usize) -> ScenarioConfig {
        ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
            .duration(SimDuration::from_millis(BULK1_SIM_MS))
            .seed(self.0.sub_seed(slot, SLOTS))
            .build()
    }
}

impl Workload for Bulk1Hack {
    fn name(&self) -> &'static str {
        "bulk1_hack"
    }
    fn sim_s(&self, _unit: usize) -> f64 {
        BULK1_SIM_MS as f64 / 1e3
    }
    fn rep(&self, _unit: usize, slot: usize, ops: &mut Ops) -> Sample {
        world_rep(|| self.cfg(slot), ops)
    }
    fn world_configs(&self, _unit: usize, slot: usize) -> Vec<ScenarioConfig> {
        vec![self.cfg(slot)]
    }
}

// ---------------------------------------------------------------------
// sora2_stock
// ---------------------------------------------------------------------

/// The smallest-unit regime: 802.11a, no aggregation, native TCP ACKs.
pub struct Sora2Stock(pub Env);

/// Simulated length of one `sora2_stock` rep, sized like
/// [`BULK1_SIM_MS`].
const SORA2_SIM_MS: u64 = 18_000;

impl Sora2Stock {
    fn cfg(&self, slot: usize) -> ScenarioConfig {
        ScenarioBuilder::sora_testbed(2, HackMode::Disabled)
            .duration(SimDuration::from_millis(SORA2_SIM_MS))
            .seed(self.0.sub_seed(slot, SLOTS))
            .build()
    }
}

impl Workload for Sora2Stock {
    fn name(&self) -> &'static str {
        "sora2_stock"
    }
    fn sim_s(&self, _unit: usize) -> f64 {
        SORA2_SIM_MS as f64 / 1e3
    }
    fn rep(&self, _unit: usize, slot: usize, ops: &mut Ops) -> Sample {
        world_rep(|| self.cfg(slot), ops)
    }
    fn world_configs(&self, _unit: usize, slot: usize) -> Vec<ScenarioConfig> {
        vec![self.cfg(slot)]
    }
}

// ---------------------------------------------------------------------
// dense16_hack
// ---------------------------------------------------------------------

/// Sixteen BSSs, eighty stations, through the shard engine.
pub struct Dense16Hack(pub Env);

/// Simulated length of the dense floor, sized like [`BULK1_SIM_MS`]; a
/// fifth of it is warm-up.
const DENSE16_SIM_MS: u64 = 600;

/// The dense floor of `dense16_hack` (also what the traced pass probes
/// for the `dense.*` metrics).
pub fn dense16_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig::builder()
        .hack(HackMode::MoreData)
        .bss(BssSpec::enterprise_floor(16, 4))
        .stagger(SimDuration::from_millis(2))
        .duration(SimDuration::from_millis(DENSE16_SIM_MS))
        .warmup(SimDuration::from_millis(DENSE16_SIM_MS / 5))
        .seed(seed)
        .build()
}

/// Fold a dense report shard by shard, in shard order.
pub fn dense_digest(report: &DenseReport) -> u64 {
    report
        .shards
        .iter()
        .fold(FNV_OFFSET, |h, s| fold_result(h, &s.result))
}

/// Events dispatched by all shards.
pub fn dense_events(report: &DenseReport) -> u64 {
    report
        .shards
        .iter()
        .map(|s| s.result.events_dispatched)
        .sum()
}

impl Dense16Hack {
    fn cfg(&self, slot: usize) -> ScenarioConfig {
        dense16_cfg(self.0.sub_seed(slot, SLOTS))
    }

    fn options(&self, threads: usize) -> DenseOptions {
        DenseOptions {
            threads,
            ..Default::default()
        }
    }
}

impl Workload for Dense16Hack {
    fn name(&self) -> &'static str {
        "dense16_hack"
    }
    fn sim_s(&self, _unit: usize) -> f64 {
        DENSE16_SIM_MS as f64 / 1e3
    }
    fn threads(&self) -> usize {
        self.0.threads
    }
    fn rep(&self, _unit: usize, slot: usize, ops: &mut Ops) -> Sample {
        // `run_dense` assembles its shard worlds itself, inside the
        // timed region; what a caller sets up is the floor and, to
        // know what to expect back, its projection into shards.
        let live = alloc::live();
        let ((cfg, shards_expected), setup_ns) = timed_setups(|| {
            let cfg = self.cfg(slot);
            let shards = shard_configs(&cfg).len();
            (cfg, shards)
        });

        let mark = alloc::mark(live);
        let t = Instant::now();
        let report = run_dense(&cfg, &self.options(self.0.threads));
        let wall_ns = t.elapsed().as_nanos() as u64;
        let heap = mark.since();

        ops.check(report.shards.len() == shards_expected, || {
            format!(
                "{} shards, projected {shards_expected}",
                report.shards.len()
            )
        });
        ops.check(
            report.shards.iter().all(|s| flows_moved_bytes(&s.result)),
            || "a dense flow moved no bytes".into(),
        );
        Sample {
            reference_ns: NOMINAL_NS,
            setup_ns,
            wall_ns,
            events: dense_events(&report),
            heap,
            digest: dense_digest(&report),
            goodput_mbps: report.aggregate_goodput_mbps,
        }
    }

    fn verify(&self, ops: &mut Ops) {
        let cfg = self.cfg(0);
        let serial = run_dense(&cfg, &self.options(1));
        let parallel = run_dense(&cfg, &self.options(self.0.threads));
        let same = serial.shards.len() == parallel.shards.len()
            && serial.shards.iter().zip(&parallel.shards).all(|(a, b)| {
                fold_result(FNV_OFFSET, &a.result) == fold_result(FNV_OFFSET, &b.result)
            });
        ops.check(same, || {
            format!("serial and {}-thread shard results differ", self.0.threads)
        });
    }

    fn world_configs(&self, _unit: usize, slot: usize) -> Vec<ScenarioConfig> {
        shard_configs(&self.cfg(slot))
            .into_iter()
            .map(|(cfg, _flows)| cfg)
            .collect()
    }
}

// ---------------------------------------------------------------------
// churn_campaign
// ---------------------------------------------------------------------

/// What experiment users run: a 60-job sweep with a cold result cache.
pub struct ChurnCampaign(pub Env);

/// Jobs in the churn sweep: 5 scenarios × 2 modes × 2 channels × 3
/// seeds.
pub const CHURN_JOBS: usize = 60;

/// Simulated length of one churn job, a fifth of it warm-up. Sixty of
/// them make a rep twice the size of the others': at half this length
/// the heavy-tailed web cells made `events_per_sim_s` twice as
/// dependent on the seed, and the host time no steadier.
const CHURN_JOB_SIM_MS: u64 = 1_000;

/// The churn sweep over seeds `seed .. seed + 3`.
pub fn churn_spec(seed: u64) -> SweepSpec {
    let base = ScenarioBuilder::dot11n_download(150, 2, HackMode::Disabled)
        .duration(SimDuration::from_millis(CHURN_JOB_SIM_MS))
        .warmup(SimDuration::from_millis(CHURN_JOB_SIM_MS / 5))
        .build();
    let web = |reuse| {
        TrafficModel::ShortFlows(ShortFlowConfig {
            sizes: SizeDist::BoundedPareto {
                alpha: 1.2,
                min: 4 * 1024,
                max: 1024 * 1024,
            },
            think: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(5),
            },
            reuse,
        })
    };
    SweepSpec::new("churn", base)
        .axis(
            Axis::new("scenario")
                .point("web_fresh", move |c| c.traffic = web(false))
                .point("web_reuse", move |c| c.traffic = web(true))
                .point("bidir", |c| c.traffic = TrafficModel::Bidirectional)
                .point("rt_mix", |c| {
                    c.traffic_mix = vec![
                        TrafficModel::Cbr(CbrConfig::default()),
                        TrafficModel::OnOff(OnOffConfig::default()),
                    ];
                })
                .point("bulk", |c| c.traffic = TrafficModel::BulkDownload),
        )
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .axis(
            Axis::new("chan")
                .point("ideal", |c| c.loss = LossConfig::Ideal)
                .point("bursty", |c| {
                    c.loss = LossConfig::Burst(GeParams::bursty(0.02, 4.0));
                }),
        )
        .seed_bank(seed, 3)
}

impl ChurnCampaign {
    /// Slot `slot`'s seed bank: three seeds no other slot uses.
    fn spec(&self, slot: usize) -> SweepSpec {
        churn_spec(self.0.sub_seed(slot, SLOTS).wrapping_mul(3).wrapping_sub(2))
    }

    fn options(&self, threads: usize, cache_dir: Option<PathBuf>) -> CampaignOptions {
        CampaignOptions {
            threads,
            cache_dir,
            ..Default::default()
        }
    }
}

impl Workload for ChurnCampaign {
    fn name(&self) -> &'static str {
        "churn_campaign"
    }
    fn sim_s(&self, _unit: usize) -> f64 {
        (CHURN_JOBS as u64 * CHURN_JOB_SIM_MS) as f64 / 1e3
    }
    fn runs(&self, _unit: usize) -> u64 {
        CHURN_JOBS as u64
    }
    fn threads(&self) -> usize {
        self.0.threads
    }

    fn rep(&self, _unit: usize, slot: usize, ops: &mut Ops) -> Sample {
        let dir = self.0.out_dir.join(format!("cache-{}", std::process::id()));

        // What a campaign user sets up: the spec, and its expansion to
        // know what is coming (`run_campaign` expands again, timed).
        let live = alloc::live();
        let ((spec, jobs), setup_ns) = timed_setups(|| {
            let spec = self.spec(slot);
            let jobs = spec.expand().len();
            (spec, jobs)
        });
        ops.check(jobs == CHURN_JOBS, || {
            format!("{jobs} jobs, not {CHURN_JOBS}")
        });
        // A fresh cache per rep: leftovers would turn the cold pass
        // warm. Untimed: making a directory takes 0.2–0.5 ms here
        // depending on the file system's mood, which says nothing
        // about the campaign engine (its own `create_dir_all` is inside
        // the timed region).
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create the campaign cache directory");
        let opts = self.options(self.0.threads, Some(dir.clone()));

        let mark = alloc::mark(live);
        let t = Instant::now();
        let cold = run_campaign(&spec, &opts);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let heap = mark.since();

        ops.check(
            cold.complete && cold.jobs_executed == CHURN_JOBS && cold.cache_hits == 0,
            || {
                format!(
                    "cold pass: complete={} executed={} hits={}",
                    cold.complete, cold.jobs_executed, cold.cache_hits
                )
            },
        );
        let mut events = 0;
        let mut goodput_mbps = 0.0;
        let mut digest = FNV_OFFSET;
        for cell in &cold.cells {
            let (mut moved_mbps, mut transfers) = (0.0, 0);
            for r in &cell.runs {
                digest = fold_result(digest, r);
                events += r.events_dispatched;
                goodput_mbps += r.aggregate_goodput_mbps;
                moved_mbps += r.flow_goodput_full_mbps.iter().sum::<f64>();
                transfers += r.class(TrafficClass::Short).map_or(0, |c| c.transfers);
                // One operation per campaign job.
                ops.check(r.events_dispatched > 0, || {
                    format!("cell {:?}: a job dispatched nothing", cell.labels)
                });
            }
            // Bytes and transfers are judged per cell, not per flow: in
            // one simulated second on the bursty channel a flow whose
            // SYN meets a fade legitimately moves nothing.
            ops.check(moved_mbps > 0.0, || {
                format!("cell {:?} moved no bytes", cell.labels)
            });
            if cell.labels[0].starts_with("web_") {
                ops.check(transfers >= 10 * cell.runs.len() as u64, || {
                    format!("cell {:?}: {transfers} transfers", cell.labels)
                });
            }
        }
        // One warm pass: every job a cache hit, the report unchanged
        // (the CSV: the JSON carries the executed/hit counts).
        let warm = run_campaign(&spec, &opts);
        ops.check(
            warm.cache_hits == CHURN_JOBS && warm.jobs_executed == 0,
            || {
                format!(
                    "warm pass: {} hits, {} executed",
                    warm.cache_hits, warm.jobs_executed
                )
            },
        );
        ops.check(campaign_csv(&warm) == campaign_csv(&cold), || {
            "warm report differs from the cold one".into()
        });
        let _ = std::fs::remove_dir_all(&dir);

        Sample {
            reference_ns: NOMINAL_NS,
            setup_ns,
            wall_ns,
            events,
            heap,
            digest,
            goodput_mbps,
        }
    }

    fn verify(&self, ops: &mut Ops) {
        let spec = self.spec(0);
        let serial = campaign_json(&run_campaign(&spec, &self.options(1, None)));
        let parallel = campaign_json(&run_campaign(&spec, &self.options(self.0.threads, None)));
        ops.check(serial == parallel, || {
            format!("campaign JSON differs at 1 and {} threads", self.0.threads)
        });
    }

    fn world_configs(&self, _unit: usize, slot: usize) -> Vec<ScenarioConfig> {
        self.spec(slot)
            .expand()
            .into_iter()
            .map(|j| j.cfg)
            .collect()
    }
}

// ---------------------------------------------------------------------
// paper_anchors
// ---------------------------------------------------------------------

/// The four published gains the model is validated against: Fig 9 with
/// one client and with both, Fig 10 at one and at ten clients.
pub const PAPER_GAINS_PCT: [f64; 4] = [28.9, 32.2, 15.0, 22.0];

/// Anchor `anchor`'s scenario, as `experiments fig9` / `fig10` build
/// it, with a 10 s measurement window.
pub fn anchor_cfg(anchor: usize, mode: HackMode, seed: u64) -> ScenarioConfig {
    let window = SimDuration::from_secs(10);
    let builder = match anchor {
        0 => ScenarioBuilder::sora_testbed(1, mode).duration(window),
        1 => ScenarioBuilder::sora_testbed(2, mode).duration(window),
        _ => {
            let n = if anchor == 2 { 1 } else { 10 };
            let stagger = SimDuration::from_millis(200);
            let warmup = SimDuration::from_secs(1);
            ScenarioBuilder::dot11n_download(150, n, mode)
                .stagger(stagger)
                .warmup(warmup)
                .duration(stagger * (n as u64) + warmup + window)
        }
    };
    builder.seed(seed).build()
}

/// Mean over `gains_pct` of |simulated gain − paper gain|, in
/// percentage points. `gains_pct[i]` belongs to anchor `i`.
pub fn paper_gain_err_pp(gains_pct: &[f64]) -> f64 {
    let sum: f64 = gains_pct
        .iter()
        .zip(PAPER_GAINS_PCT)
        .map(|(g, p)| (g - p).abs())
        .sum();
    sum / gains_pct.len() as f64
}

/// The fidelity check every timed workload carries: the Fig 9
/// one-client anchor alone, three seeds, HACK on and off (one simulated
/// minute, under a host second). Six anchor runs, six operations.
pub fn fidelity_canary(env: &Env, ops: &mut Ops) -> f64 {
    let goodput: Vec<Vec<f64>> = [HackMode::MoreData, HackMode::Disabled]
        .into_iter()
        .map(|mode| {
            (0..3)
                .map(|slot| {
                    world_rep(|| anchor_cfg(0, mode, env.sub_seed(slot, 3)), ops).goodput_mbps
                })
                .collect()
        })
        .collect();
    paper_gain_err_pp(&PaperAnchors::gains_pct(&goodput))
}

/// The fidelity workload: units are `anchor × {HACK, stock}`, slots the
/// seed bank.
pub struct PaperAnchors {
    env: Env,
    seeds: usize,
}

impl PaperAnchors {
    /// Three seeds per five `--seconds`: `--seconds 5 --seed 1` is the
    /// seeds 1–3 bank `experiments fig9`/`fig10 --seeds 3` uses. The
    /// bank is a function of the arguments, never of how fast the host
    /// is, so the simulated figures repeat exactly.
    pub fn new(env: Env, seconds: u64) -> Self {
        PaperAnchors {
            env,
            seeds: (seconds * 3 / 5).max(1) as usize,
        }
    }

    fn split(unit: usize) -> (usize, HackMode) {
        let mode = if unit.is_multiple_of(2) {
            HackMode::MoreData
        } else {
            HackMode::Disabled
        };
        (unit / 2, mode)
    }

    fn cfg(&self, unit: usize, slot: usize) -> ScenarioConfig {
        let (anchor, mode) = Self::split(unit);
        anchor_cfg(anchor, mode, self.env.sub_seed(slot, self.seeds))
    }

    /// Simulated HACK gain (%) per anchor from the goodput of each
    /// `(unit, slot)` pair, a unit's seed bank averaged as `experiments`
    /// averages it.
    pub fn gains_pct(goodput: &[Vec<f64>]) -> Vec<f64> {
        goodput
            .chunks(2)
            .map(|pair| {
                let (hack, stock): (f64, f64) = (pair[0].iter().sum(), pair[1].iter().sum());
                (hack / stock - 1.0) * 100.0
            })
            .collect()
    }
}

impl Workload for PaperAnchors {
    fn name(&self) -> &'static str {
        "paper_anchors"
    }
    fn units(&self) -> usize {
        2 * PAPER_GAINS_PCT.len()
    }
    fn slots(&self) -> usize {
        self.seeds
    }
    fn sim_s(&self, unit: usize) -> f64 {
        self.cfg(unit, 0).duration.as_secs_f64()
    }
    fn rep(&self, unit: usize, slot: usize, ops: &mut Ops) -> Sample {
        world_rep(|| self.cfg(unit, slot), ops)
    }
    fn world_configs(&self, unit: usize, slot: usize) -> Vec<ScenarioConfig> {
        vec![self.cfg(unit, slot)]
    }
}

/// All five workloads, in [`crate::spec::WORKLOADS`] order.
pub fn all(env: &Env, anchor_seconds: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Bulk1Hack(env.clone())),
        Box::new(Sora2Stock(env.clone())),
        Box::new(Dense16Hack(env.clone())),
        Box::new(ChurnCampaign(env.clone())),
        Box::new(PaperAnchors::new(env.clone(), anchor_seconds)),
    ]
}

// ---------------------------------------------------------------------
// The closed loop and what it adds up to
// ---------------------------------------------------------------------

/// Every sample of one workload, keyed by `(unit, slot)`.
#[derive(Debug)]
pub struct Tally {
    /// Workload name.
    pub name: &'static str,
    /// Threads the product code ran a rep on.
    pub threads: usize,
    sim_s: Vec<f64>,
    runs: Vec<u64>,
    /// `samples[unit][slot]` in rep order.
    samples: Vec<Vec<Vec<Sample>>>,
    /// Reps run.
    pub reps: usize,
    /// Host time spent in this workload's reps.
    pub spent_ns: u64,
}

impl Tally {
    fn new(w: &dyn Workload) -> Self {
        Tally {
            name: w.name(),
            threads: w.threads(),
            sim_s: (0..w.units()).map(|u| w.sim_s(u)).collect(),
            runs: (0..w.units()).map(|u| w.runs(u)).collect(),
            samples: vec![vec![Vec::new(); w.slots()]; w.units()],
            reps: 0,
            spent_ns: 0,
        }
    }

    /// Reps before every `(unit, slot)` pair has run once and every
    /// unit's first slot twice (so the digest check has something to
    /// compare even when the time budget is tiny).
    fn min_reps(&self) -> usize {
        self.samples.len() * (self.samples[0].len() + 1)
    }

    fn unit_series(&self, unit: usize, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples[unit].iter().flatten().map(f).collect()
    }

    /// Σ over units of the `q`-quantile of `f` over the unit's reps.
    fn sum_of_unit_quantiles(&self, q: f64, f: impl Fn(&Sample) -> f64 + Copy) -> f64 {
        (0..self.samples.len())
            .map(|u| quantile(&self.unit_series(u, f), q))
            .sum()
    }

    /// Σ over units of the mean over slots of the per-pair median of
    /// `f`. Per pair the simulated counts are exact; allocation counts
    /// can differ by a thread spawn where `T` > 1, hence the median.
    fn sum_of_slot_means(&self, f: impl Fn(&Sample) -> f64 + Copy) -> f64 {
        self.samples
            .iter()
            .map(|slots| {
                let per_slot: Vec<f64> = slots
                    .iter()
                    .map(|reps| median(&reps.iter().map(f).collect::<Vec<_>>()))
                    .collect();
                per_slot.iter().sum::<f64>() / per_slot.len() as f64
            })
            .sum()
    }

    fn total_sim_s(&self) -> f64 {
        self.sim_s.iter().sum()
    }

    /// Host milliseconds per simulated second at quantile `q` of the
    /// reps (`0.5` is the reported metric), at reference speed.
    pub fn wall_ms_per_sim_s(&self, q: f64) -> f64 {
        self.sum_of_unit_quantiles(q, Sample::wall_at_reference_ns) / 1e6 / self.total_sim_s()
    }

    /// The same from the raw clock, for the log.
    pub fn raw_wall_ms_per_sim_s(&self) -> f64 {
        self.sum_of_unit_quantiles(0.5, |s| s.wall_ns as f64) / 1e6 / self.total_sim_s()
    }

    /// Median reference-kernel time around this workload's reps, ms.
    pub fn reference_ms(&self) -> f64 {
        let all: Vec<f64> = (0..self.samples.len())
            .flat_map(|u| self.unit_series(u, |s| s.reference_ns))
            .collect();
        median(&all) / 1e6
    }

    /// Independent scenario runs per host second, at reference speed.
    pub fn runs_per_s(&self) -> f64 {
        self.runs.iter().sum::<u64>() as f64
            / (self.sum_of_unit_quantiles(0.5, Sample::wall_at_reference_ns) / 1e9)
    }

    /// Median set-up time of one pass over the units, seconds, at
    /// reference speed.
    pub fn setup_s(&self) -> f64 {
        self.sum_of_unit_quantiles(0.5, |s| s.at_reference(s.setup_ns)) / 1e9
    }

    /// Events dispatched per simulated second.
    pub fn events_per_sim_s(&self) -> f64 {
        self.sum_of_slot_means(|s| s.events as f64) / self.total_sim_s()
    }

    /// Allocations (and reallocations) per simulated second.
    pub fn allocs_per_sim_s(&self) -> f64 {
        self.sum_of_slot_means(|s| s.heap.allocs as f64) / self.total_sim_s()
    }

    /// Kilobytes (1000 B) requested per simulated second.
    pub fn alloc_kb_per_sim_s(&self) -> f64 {
        self.sum_of_slot_means(|s| s.heap.bytes as f64) / 1e3 / self.total_sim_s()
    }

    /// Peak live heap over all reps, megabytes (10⁶ B).
    pub fn peak_heap_mb(&self) -> f64 {
        let peak = self
            .samples
            .iter()
            .flatten()
            .flatten()
            .map(|s| s.heap.peak_bytes)
            .max()
            .unwrap_or(0);
        peak as f64 / 1e6
    }

    /// Host nanoseconds per dispatched event (median reps), raw.
    pub fn raw_ns_per_event(&self) -> f64 {
        self.sum_of_unit_quantiles(0.5, |s| s.wall_ns as f64)
            / self.sum_of_slot_means(|s| s.events as f64)
    }

    /// Mean goodput of each `(unit, slot)` pair.
    pub fn goodput(&self) -> Vec<Vec<f64>> {
        self.samples
            .iter()
            .map(|slots| slots.iter().map(|reps| reps[0].goodput_mbps).collect())
            .collect()
    }

    /// Check that every rep of a `(unit, slot)` pair produced the same
    /// simulated outputs, bit for bit; one operation per pair.
    pub fn digests_agree(&self, ops: &mut Ops) -> bool {
        let mut all = true;
        for (u, slots) in self.samples.iter().enumerate() {
            for (s, reps) in slots.iter().enumerate() {
                let same = reps.iter().all(|r| r.digest == reps[0].digest);
                ops.check(same, || {
                    format!("{}: unit {u} slot {s} differs between reps", self.name)
                });
                all &= same;
            }
        }
        all
    }

    /// The digest of `(unit, slot)`'s first rep.
    pub fn digest(&self, unit: usize, slot: usize) -> u64 {
        self.samples[unit][slot][0].digest
    }
}

/// Run `workloads` closed-loop, reps of different workloads interleaved
/// round-robin, until each has spent `seconds` of host time in its own
/// reps and covered every `(unit, slot)` pair. The reference kernel
/// runs between every two reps, on as many threads as the rep.
pub fn run_timed(workloads: &[Box<dyn Workload>], seconds: f64, ops: &mut Ops) -> Vec<Tally> {
    let mut tallies: Vec<Tally> = workloads.iter().map(|w| Tally::new(w.as_ref())).collect();
    let budget_ns = (seconds * 1e9) as u64;
    let max_threads = workloads.iter().map(|w| w.threads()).max().unwrap_or(1);
    let mut yardstick = Yardstick::new(max_threads);
    // The last kernel run, reused as the next rep's "before" when that
    // rep runs on as many threads.
    let mut last: Option<(usize, f64)> = None;
    loop {
        let mut ran = false;
        for (w, t) in workloads.iter().zip(&mut tallies) {
            if t.spent_ns >= budget_ns && t.reps >= t.min_reps() {
                continue;
            }
            ran = true;
            let (units, slots) = (w.units(), w.slots());
            let (unit, slot) = (t.reps % units, (t.reps / units) % slots);
            let started = Instant::now();
            // One operation per rep; its checks count separately.
            let threads = w.threads();
            let before = match last {
                Some((t, ns)) if t == threads => ns,
                _ => yardstick.run(threads),
            };
            let failed_before = ops.failed;
            let mut sample = w.rep(unit, slot, ops);
            let after = yardstick.run(threads);
            sample.reference_ns = (before + after) / 2.0;
            last = Some((threads, after));
            let clean = ops.failed == failed_before;
            ops.check(clean, || {
                format!("{}: rep {} failed a check", t.name, t.reps)
            });
            t.samples[unit][slot].push(sample);
            t.reps += 1;
            t.spent_ns += started.elapsed().as_nanos() as u64;
        }
        if !ran {
            return tallies;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env {
            seed: 1,
            threads: 1,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }

    #[test]
    fn sub_seeds_of_different_seeds_never_overlap() {
        let (a, b) = (env(), Env { seed: 2, ..env() });
        assert_eq!(
            a.sub_seed(0, 3),
            1,
            "--seed 1 starts the anchors' bank at 1"
        );
        let first: Vec<u64> = (0..SLOTS).map(|s| a.sub_seed(s, SLOTS)).collect();
        let second: Vec<u64> = (0..SLOTS).map(|s| b.sub_seed(s, SLOTS)).collect();
        assert!(first.iter().all(|s| !second.contains(s)));
    }

    #[test]
    fn churn_sweep_has_sixty_jobs_and_anchor_banks_follow_the_seconds() {
        assert_eq!(churn_spec(1).n_jobs(), CHURN_JOBS);
        assert_eq!(PaperAnchors::new(env(), 5).slots(), 3);
        assert_eq!(PaperAnchors::new(env(), 20).slots(), 12);
        assert_eq!(PaperAnchors::new(env(), 1).slots(), 1);
    }

    #[test]
    fn gain_error_is_the_mean_absolute_distance_to_the_paper() {
        assert_eq!(paper_gain_err_pp(&PAPER_GAINS_PCT), 0.0);
        let err = paper_gain_err_pp(&[25.0, 30.2, 15.5, 12.6]);
        assert!((err - (3.9 + 2.0 + 0.5 + 9.4) / 4.0).abs() < 1e-9);
        // [hack, stock] goodput per anchor, two seeds each.
        let goodput = vec![vec![12.0, 13.0], vec![10.0, 10.0]];
        assert_eq!(PaperAnchors::gains_pct(&goodput), vec![25.0]);
    }
}
