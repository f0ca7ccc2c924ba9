//! Campaign execution: the shared pool + deterministic reduction.
//!
//! The engine expands a [`SweepSpec`] into its job list, runs each job
//! (cache load → runner → cache store) on [`hack_sim::pool`], and
//! reduces the results **by job index** — never by completion order.
//! That single rule is the determinism argument: scheduling decides
//! only *when* a result materializes, not *where* it lands, so one
//! thread, sixteen threads, and an all-cache-hit re-run all produce
//! byte-identical reports.

use std::path::PathBuf;

use hack_core::RunResult;

use crate::agg::CellStats;
use crate::cache::ResultCache;
use crate::spec::{Job, SweepSpec};

/// Knobs controlling how a campaign executes (not *what* it computes:
/// none of these change the report of a completed campaign).
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Directory for the content-addressed result cache; `None`
    /// disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Run only the first this-many jobs in job order (cache hits
    /// included). Used to simulate an interrupted campaign; the report
    /// then has `complete == false` and only fully-covered cells.
    pub job_limit: Option<usize>,
}

/// Aggregated results for one cell of the sweep.
#[derive(Debug)]
pub struct CellReport {
    /// Cell index in odometer order.
    pub cell: usize,
    /// One label per axis.
    pub labels: Vec<String>,
    /// The seeds aggregated here, in bank order.
    pub seeds: Vec<u64>,
    /// Steady-state aggregate goodput (Mbps) over the seed bank.
    pub goodput: CellStats,
    /// AP first-try delivery fraction over the seed bank (seeds whose
    /// AP sent no data are excluded, as in `ap_first_try_fraction`).
    pub first_try: CellStats,
    /// The raw per-seed results, in seed-bank order.
    pub runs: Vec<RunResult>,
}

/// The outcome of a campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Axis names, in declaration order.
    pub axis_names: Vec<String>,
    /// The seed bank shared by every cell.
    pub seeds: Vec<u64>,
    /// Fully-covered cells, in cell order. An interrupted campaign
    /// omits cells with missing seeds rather than reporting partial
    /// statistics.
    pub cells: Vec<CellReport>,
    /// Total jobs in the expansion.
    pub jobs_total: usize,
    /// Jobs actually simulated (cache misses).
    pub jobs_executed: usize,
    /// Jobs satisfied from the result cache.
    pub cache_hits: usize,
    /// Whether every job completed (false under `job_limit`).
    pub complete: bool,
}

/// Run a campaign with the default runner (`hack_core::run_auto`):
/// legacy single-cell configs run directly, dense multi-BSS configs run
/// sharded and merged — so dense cells sweep, cache, and resume exactly
/// like legacy ones.
pub fn run_campaign(spec: &SweepSpec, opts: &CampaignOptions) -> CampaignReport {
    run_campaign_with(spec, opts, &|job: &Job| {
        hack_core::run_auto(job.cfg.clone())
    })
}

/// Run a campaign with a caller-supplied runner (e.g. a traced run).
///
/// The runner must be a pure function of the job's config: the cache
/// will happily serve a previous runner's result for an identical
/// config, and determinism of the report is only as good as the
/// runner's.
pub fn run_campaign_with(
    spec: &SweepSpec,
    opts: &CampaignOptions,
    runner: &(dyn Fn(&Job) -> RunResult + Sync),
) -> CampaignReport {
    let jobs = spec.expand();
    let jobs_total = jobs.len();
    let cache = opts
        .cache_dir
        .as_ref()
        .map(|d| ResultCache::new(d).expect("campaign: cannot create cache dir"));
    // "Kill after k jobs": the first k jobs in job order, at every
    // thread count.
    let n_jobs = opts.job_limit.map_or(jobs_total, |k| k.min(jobs_total));

    let done = hack_sim::pool::run(n_jobs, opts.threads, |i| {
        let job = &jobs[i];
        if let Some(hit) = cache.as_ref().and_then(|c| c.load(&job.key)) {
            return (hit, true);
        }
        let result = runner(job);
        if let Some(c) = &cache {
            if let Err(e) = c.store(&job.key, &result) {
                eprintln!("campaign: cache store failed for {}: {e}", job.key);
            }
        }
        (result, false)
    });

    // Deterministic reduction: `done` is in job order, so cells
    // aggregate in seed-bank order; a cell the limit cut short is
    // omitted.
    let cache_hits = done.iter().filter(|(_, hit)| *hit).count();
    let jobs_executed = n_jobs - cache_hits;
    let mut results = done.into_iter().map(|(result, _)| result);

    let n_seeds = spec.seed_list().len();
    let n_cells = spec.n_cells();
    let mut cells = Vec::new();
    for cell in 0..n_cells {
        if (cell + 1) * n_seeds > n_jobs {
            break;
        }
        let runs: Vec<RunResult> = results.by_ref().take(n_seeds).collect();
        let goodput: Vec<f64> = runs.iter().map(|r| r.aggregate_goodput_mbps).collect();
        let first_try: Vec<f64> = runs
            .iter()
            .filter_map(hack_core::RunResult::ap_first_try_fraction)
            .collect();
        cells.push(CellReport {
            cell,
            labels: jobs[cell * n_seeds].labels.clone(),
            seeds: spec.seed_list().to_vec(),
            goodput: CellStats::from_values(&goodput),
            first_try: CellStats::from_values(&first_try),
            runs,
        });
    }

    CampaignReport {
        name: spec.name().to_string(),
        axis_names: spec.axis_names().iter().map(ToString::to_string).collect(),
        seeds: spec.seed_list().to_vec(),
        cells,
        jobs_total,
        jobs_executed,
        cache_hits,
        complete: n_jobs == jobs_total,
    }
}
