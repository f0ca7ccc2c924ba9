//! Multi-seed scenario execution.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use hack_campaign::{run_campaign_with, Job, SweepSpec};
use hack_core::{run, run_traced, RunResult, ScenarioConfig};
use hack_sim::RunStats;
use hack_trace::{write_jsonl, TraceHandle};

/// Where per-run trace output goes (set once by `--trace <path>`).
static TRACE_BASE: OnceLock<PathBuf> = OnceLock::new();
/// Distinguishes successive `run_seeds` calls in trace filenames.
static TRACE_RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Ring capacity for `--trace` captures: large enough that short CI runs
/// keep every event; long runs keep the tail (`overwritten` says so).
const TRACE_RING_CAPACITY: usize = 1 << 20;

/// Enable structured-event tracing for all subsequent [`run_seeds`]
/// calls. Each simulated run writes `<base>.runR.seedS.jsonl` (the
/// captured events) and `<base>.runR.seedS.digest` (the binary
/// [`hack_trace::Digest`], byte-identical across same-seed runs).
pub fn set_trace_base(base: PathBuf) {
    let _ = TRACE_BASE.set(base);
}

/// Results of running one scenario under several seeds.
#[derive(Debug)]
pub struct MultiRun {
    /// One result per seed, in seed order.
    pub runs: Vec<RunResult>,
}

impl MultiRun {
    /// Aggregate steady-state goodput across runs (mean ± std).
    pub fn aggregate_goodput(&self) -> RunStats {
        let mut s = RunStats::new();
        for r in &self.runs {
            s.push(r.aggregate_goodput_mbps);
        }
        s
    }

    /// Per-flow steady-state goodput for flow `i` across runs.
    pub fn flow_goodput(&self, i: usize) -> RunStats {
        let mut s = RunStats::new();
        for r in &self.runs {
            s.push(r.flow_goodput_mbps[i]);
        }
        s
    }

    /// Per-flow full-run goodput (including slow start) for flow `i`.
    pub fn flow_goodput_full(&self, i: usize) -> RunStats {
        let mut s = RunStats::new();
        for r in &self.runs {
            s.push(r.flow_goodput_full_mbps[i]);
        }
        s
    }

    /// Mean fraction of *data* MPDUs delivered without retries at the
    /// AP (Table 1's "no retries" row), across runs.
    pub fn ap_first_try(&self) -> RunStats {
        let mut s = RunStats::new();
        for r in &self.runs {
            if let Some(f) = r.ap_first_try_fraction() {
                s.push(f);
            }
        }
        s
    }
}

/// Run `cfg` under `n_seeds` consecutive seeds (base = `cfg.seed`),
/// in parallel, preserving seed order.
///
/// This is a thin campaign of one cell: the shared worker pool
/// (bounded by [`std::thread::available_parallelism`]) executes the
/// seed bank, and its index-ordered reduction returns results in seed
/// order regardless of which worker finishes first. Tracing rides in as
/// a custom runner.
pub fn run_seeds(cfg: &ScenarioConfig, n_seeds: u64) -> MultiRun {
    let trace_base = TRACE_BASE.get().cloned();
    let run_no = trace_base
        .is_some()
        .then(|| TRACE_RUN_COUNTER.fetch_add(1, Ordering::Relaxed));
    let base_seed = cfg.seed;
    let spec = SweepSpec::new("run_seeds", cfg.clone()).seed_bank(base_seed, n_seeds);
    let runner = move |job: &Job| match (&trace_base, run_no) {
        (Some(base), Some(r)) => run_one_traced(job.cfg.clone(), base, r, job.seed - base_seed),
        _ => run(job.cfg.clone()),
    };
    let mut report = run_campaign_with(&spec, &hack_campaign::CampaignOptions::default(), &runner);
    let runs = match report.cells.pop() {
        Some(cell) => cell.runs,
        None => Vec::new(),
    };
    MultiRun { runs }
}

/// Run one traced scenario and write its event log + digest files.
fn run_one_traced(
    cfg: ScenarioConfig,
    base: &std::path::Path,
    run_no: u64,
    seed_no: u64,
) -> RunResult {
    let (handle, ring) = TraceHandle::ring(TRACE_RING_CAPACITY);
    let result = run_traced(cfg, handle);
    let stem = format!("{}.run{run_no}.seed{seed_no}", base.display());
    let records = ring.drain();
    let digest = ring.digest();
    if let Err(e) = std::fs::File::create(format!("{stem}.jsonl"))
        .and_then(|mut f| write_jsonl(&mut f, &records))
    {
        eprintln!("trace: cannot write {stem}.jsonl: {e}");
    }
    if let Err(e) = std::fs::write(format!("{stem}.digest"), digest.to_bytes()) {
        eprintln!("trace: cannot write {stem}.digest: {e}");
    }
    if ring.overwritten() > 0 {
        eprintln!(
            "trace: {stem}: ring wrapped, {} oldest events not in the .jsonl \
             (digest still covers all {})",
            ring.overwritten(),
            ring.emitted()
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_core::{HackMode, ScenarioBuilder};
    use hack_sim::SimDuration;

    #[test]
    fn seeds_vary_but_reproduce() {
        let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
        cfg.duration = SimDuration::from_secs(2);
        let a = run_seeds(&cfg, 2);
        let b = run_seeds(&cfg, 2);
        assert_eq!(
            a.runs[0].aggregate_goodput_mbps,
            b.runs[0].aggregate_goodput_mbps
        );
        assert_ne!(
            a.runs[0].aggregate_goodput_mbps, a.runs[1].aggregate_goodput_mbps,
            "different seeds should differ at least slightly"
        );
        let stats = a.aggregate_goodput();
        assert_eq!(stats.samples().len(), 2);
        assert!(stats.mean() > 0.0);
    }

    #[test]
    fn results_stay_in_seed_order() {
        let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
        cfg.duration = SimDuration::from_millis(1500);
        let multi = run_seeds(&cfg, 3);
        assert_eq!(multi.runs.len(), 3);
        for (i, r) in multi.runs.iter().enumerate() {
            let mut c = cfg.clone();
            c.seed = cfg.seed + i as u64;
            assert_eq!(
                r.aggregate_goodput_mbps,
                run(c).aggregate_goodput_mbps,
                "slot {i} must hold seed {}",
                cfg.seed + i as u64
            );
        }
    }
}
