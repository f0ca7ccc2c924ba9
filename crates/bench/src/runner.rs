//! The one run path for every campaign-shaped `experiments` subcommand.

use hack_campaign::{
    campaign_json, run_campaign, run_campaign_with, CampaignOptions, CampaignReport, Job, SweepSpec,
};
use hack_core::{RunResult, ScenarioConfig, World};
use hack_trace::{write_jsonl, TraceHandle};

use crate::CommonOpts;

/// Ring capacity for `--trace` captures: large enough that short CI runs
/// keep every event; long runs keep the tail (`overwritten` says so).
const TRACE_RING_CAPACITY: usize = 1 << 20;

/// Run `spec` as the flags say: on `--threads` workers, through the
/// `--cache` directory.
///
/// Under `--trace <prefix>` every job runs traced and writes
/// `<prefix>.<campaign>.cell<C>.seed<S>.jsonl` (the captured events) and
/// `….digest` (the binary [`hack_trace::Digest`], byte-identical across
/// same-seed runs), `S` being the seed's slot in the bank. The cache is
/// off then: a cache hit would write no trace.
pub fn run(spec: &SweepSpec, opts: &CommonOpts) -> CampaignReport {
    let Some(prefix) = &opts.trace else {
        return run_campaign(spec, &opts.campaign());
    };
    let (name, n_seeds) = (spec.name(), spec.seed_list().len());
    let runner = |job: &Job| {
        let slot = job.index % n_seeds;
        let stem = format!("{}.{name}.cell{}.seed{slot}", prefix.display(), job.cell);
        run_traced(job.cfg.clone(), &stem)
    };
    let uncached = CampaignOptions {
        cache_dir: None,
        ..opts.campaign()
    };
    run_campaign_with(spec, &uncached, &runner)
}

/// The serial == parallel gate: whether `report` (from [`run`]) equals
/// a fresh one-worker run of `spec`, byte for byte in `campaign_json`.
/// Neither comparison run touches the cache or writes a trace. The jobs
/// header counts cache hits, so a report the cache served in part is
/// compared through a fresh pool run instead of itself.
pub fn matches_serial(spec: &SweepSpec, report: &CampaignReport, opts: &CommonOpts) -> bool {
    let fresh = |threads| {
        let opts = CampaignOptions {
            threads,
            ..CampaignOptions::default()
        };
        campaign_json(&run_campaign(spec, &opts))
    };
    let pool = if report.cache_hits == 0 {
        campaign_json(report)
    } else {
        fresh(opts.threads)
    };
    fresh(1) == pool
}

/// Run one traced scenario and write `<stem>.jsonl` + `<stem>.digest`.
fn run_traced(cfg: ScenarioConfig, stem: &str) -> RunResult {
    let (handle, ring) = TraceHandle::ring(TRACE_RING_CAPACITY);
    let result = World::builder(cfg).trace(handle).run();
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
    use hack_campaign::Axis;
    use hack_core::{HackMode, ScenarioBuilder};
    use hack_sim::SimDuration;

    fn one_cell(ms: u64, n_seeds: u64) -> SweepSpec {
        let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
        cfg.duration = SimDuration::from_millis(ms);
        SweepSpec::new("one-cell", cfg.clone()).seed_bank(cfg.seed, n_seeds)
    }

    #[test]
    fn seeds_vary_but_reproduce() {
        let spec = one_cell(2000, 2);
        let a = run(&spec, &CommonOpts::default());
        let b = run(&spec, &CommonOpts::default());
        let (a, b) = (&a.cells[0].runs, &b.cells[0].runs);
        assert_eq!(a[0].aggregate_goodput_mbps, b[0].aggregate_goodput_mbps);
        assert_ne!(
            a[0].aggregate_goodput_mbps, a[1].aggregate_goodput_mbps,
            "different seeds should differ at least slightly"
        );
        assert!(a.iter().all(|r| r.aggregate_goodput_mbps > 0.0));
    }

    #[test]
    fn results_stay_in_seed_order() {
        let spec = one_cell(1500, 3);
        let report = run(&spec, &CommonOpts::default());
        assert_eq!(report.cells[0].runs.len(), 3);
        for (r, job) in report.cells[0].runs.iter().zip(spec.expand()) {
            assert_eq!(
                r.aggregate_goodput_mbps,
                World::builder(job.cfg).run().aggregate_goodput_mbps,
                "slot {} must hold seed {}",
                job.index,
                job.seed
            );
        }
    }

    #[test]
    fn a_report_the_cache_served_in_part_passes_the_gate() {
        let mut cfg = ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build();
        cfg.warmup = SimDuration::from_millis(100);
        cfg.duration = SimDuration::from_millis(400);
        let spec = SweepSpec::new("gate", cfg).axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        );
        let dir = std::env::temp_dir().join(format!("hack-bench-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CommonOpts {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..CommonOpts::default()
        };
        // Warm one of the two cells, so the report mixes a hit and a run.
        let first = run(&SweepSpec::new("warm", spec.expand()[1].cfg.clone()), &opts);
        let report = run(&spec, &opts);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((first.cache_hits, report.cache_hits), (0, 1));
        assert!(matches_serial(&spec, &report, &opts));
    }
}
