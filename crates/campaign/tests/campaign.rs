//! Campaign-engine contract tests: parallel-vs-serial determinism,
//! cache-backed resume of an interrupted campaign, and schema-versioned
//! cache rejection.

use std::path::PathBuf;

use hack_campaign::{
    campaign_csv, campaign_json, run_campaign, Axis, CampaignOptions, ResultCache, SweepSpec,
};
use hack_core::{
    encode_run_result, HackMode, LossConfig, ScenarioBuilder, ScenarioConfig, World,
    RESULT_SCHEMA_VERSION,
};
use hack_sim::SimDuration;

/// Fresh scratch dir under the target-adjacent temp root, unique per
/// test and per process, wiped at entry so reruns start cold.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hack-campaign-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn base_cfg() -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build();
    // Short runs, but with a real steady-state window (default warmup
    // is 1 s, which would leave these sweeps measuring nothing).
    c.warmup = SimDuration::from_millis(200);
    c.duration = SimDuration::from_millis(800);
    c
}

/// A 2×2 sweep × 2 seeds = 8 jobs: loss axis × HACK-mode axis.
fn spec() -> SweepSpec {
    SweepSpec::new("contract", base_cfg())
        .axis(
            Axis::new("loss")
                .point("p2", |c| c.loss = LossConfig::PerClient(vec![0.02]))
                .point("p5", |c| c.loss = LossConfig::PerClient(vec![0.05])),
        )
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .seed_bank(7, 2)
}

#[test]
fn expansion_is_odometer_ordered_with_seeds_innermost() {
    let jobs = spec().expand();
    assert_eq!(jobs.len(), 8);
    // Last axis (mode) varies fastest; seeds innermost.
    assert_eq!(jobs[0].labels, ["p2", "tcp"]);
    assert_eq!(jobs[0].seed, 7);
    assert_eq!(jobs[1].labels, ["p2", "tcp"]);
    assert_eq!(jobs[1].seed, 8);
    assert_eq!(jobs[2].labels, ["p2", "hack"]);
    assert_eq!(jobs[4].labels, ["p5", "tcp"]);
    assert_eq!(jobs[7].labels, ["p5", "hack"]);
    // Every job's key is distinct (configs differ at least by seed).
    let mut keys: Vec<_> = jobs.iter().map(|j| j.key.clone()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 8, "content addresses must be unique");
    // And the seed really landed in the config.
    assert_eq!(jobs[1].cfg.seed, 8);
}

#[test]
fn parallel_and_serial_emit_byte_identical_reports() {
    let serial = run_campaign(
        &spec(),
        &CampaignOptions {
            threads: 1,
            ..CampaignOptions::default()
        },
    );
    let parallel = run_campaign(
        &spec(),
        &CampaignOptions {
            threads: 4,
            ..CampaignOptions::default()
        },
    );
    assert!(serial.complete && parallel.complete);
    assert_eq!(serial.jobs_executed, 8);
    assert_eq!(parallel.jobs_executed, 8);
    // Guard against trivially-equal zeros: the sweep must measure
    // something.
    assert!(
        serial.cells.iter().all(|c| c.goodput.mean > 1.0),
        "sweep produced no goodput; the equality check below is vacuous"
    );
    assert_eq!(
        campaign_json(&serial).into_bytes(),
        campaign_json(&parallel).into_bytes(),
        "thread count leaked into the report"
    );
    assert_eq!(
        campaign_csv(&serial).into_bytes(),
        campaign_csv(&parallel).into_bytes()
    );
}

#[test]
fn campaign_of_one_axis_matches_direct_runs() {
    // A single-cell campaign is a plain seed bank: per-seed results
    // must equal direct `run` calls on the same configs.
    let sweep = SweepSpec::new("single", base_cfg()).seed_bank(3, 2);
    let report = run_campaign(&sweep, &CampaignOptions::default());
    assert_eq!(report.cells.len(), 1);
    for (i, seed) in [3u64, 4].iter().enumerate() {
        let mut c = base_cfg();
        c.seed = *seed;
        assert_eq!(
            report.cells[0].runs[i].aggregate_goodput_mbps,
            World::builder(c).run().aggregate_goodput_mbps,
            "slot {i} must hold seed {seed}"
        );
    }
}

#[test]
fn interrupted_campaign_resumes_from_cache() {
    let dir = scratch("resume");
    let killed = run_campaign(
        &spec(),
        &CampaignOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            job_limit: Some(3),
        },
    );
    assert!(!killed.complete, "job_limit must truncate the campaign");
    assert_eq!(
        killed.jobs_executed, 3,
        "exactly the budgeted jobs should have run"
    );
    let cache = ResultCache::new(&dir).unwrap();
    assert_eq!(cache.entries(), 3, "each executed job must be committed");

    // Re-run to completion: the 3 finished jobs come from cache.
    let resumed = run_campaign(
        &spec(),
        &CampaignOptions {
            threads: 4,
            cache_dir: Some(dir.clone()),
            job_limit: None,
        },
    );
    assert!(resumed.complete);
    assert_eq!(resumed.cache_hits, 3);
    assert_eq!(resumed.jobs_executed, 5);

    // And the resumed aggregate equals a cold uncached campaign's,
    // byte for byte (cache_hits/executed live under "jobs", so strip
    // that bookkeeping by comparing the cells array).
    let cold = run_campaign(
        &spec(),
        &CampaignOptions {
            threads: 1,
            ..CampaignOptions::default()
        },
    );
    let cells = |s: &str| s[s.find("\"cells\":").unwrap()..].to_string();
    assert_eq!(
        cells(&campaign_json(&resumed)),
        cells(&campaign_json(&cold)),
        "cache round-trip changed an aggregate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `job_limit: Some(k)` runs the first k jobs in job order — the same
/// k at every thread count, not whichever k the workers got to first.
#[test]
fn job_limit_runs_the_first_k_jobs_at_every_thread_count() {
    let jobs = spec().expand();
    for threads in [1, 4] {
        let dir = scratch(&format!("first-k-{threads}"));
        let killed = run_campaign(
            &spec(),
            &CampaignOptions {
                threads,
                cache_dir: Some(dir.clone()),
                job_limit: Some(3),
            },
        );
        assert!(!killed.complete);
        assert_eq!(killed.jobs_executed, 3);
        // Jobs 0 and 1 are cell 0's whole seed bank; job 2 is half of
        // cell 1, which is therefore omitted.
        assert_eq!(killed.cells.len(), 1);
        let cache = ResultCache::new(&dir).unwrap();
        assert_eq!(cache.entries(), 3);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(
                cache.load(&job.key).is_some(),
                i < 3,
                "{threads} threads: job {i} cached?"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn second_full_run_is_all_cache_hits() {
    let dir = scratch("hits");
    let opts = CampaignOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        job_limit: None,
    };
    let first = run_campaign(&spec(), &opts);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.jobs_executed, 8);
    let second = run_campaign(&spec(), &opts);
    assert_eq!(second.cache_hits, 8, "identical sweep must fully hit");
    assert_eq!(second.jobs_executed, 0);
    // The "jobs" bookkeeping legitimately differs (hits vs executed);
    // everything downstream of the results must not.
    let cells = |s: &str| s[s.find("\"cells\":").unwrap()..].to_string();
    assert_eq!(
        cells(&campaign_json(&first)),
        cells(&campaign_json(&second)),
        "cached results must reproduce the aggregates byte for byte"
    );
    assert_eq!(
        campaign_csv(&first).into_bytes(),
        campaign_csv(&second).into_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_rejects_bumped_schema_version() {
    let dir = scratch("schema");
    let cache = ResultCache::new(&dir).unwrap();
    let result = World::builder(base_cfg()).run();
    cache.store("somekey", &result).unwrap();
    assert!(cache.load("somekey").is_some(), "sanity: fresh entry hits");

    // Forge a future-schema entry: bump the version field in place.
    let mut bytes = encode_run_result(&result);
    let off = hack_core::codec::SCHEMA_VERSION_OFFSET;
    bytes[off..off + 4].copy_from_slice(&(RESULT_SCHEMA_VERSION + 1).to_le_bytes());
    std::fs::write(cache.path("somekey"), &bytes).unwrap();
    assert!(
        cache.load("somekey").is_none(),
        "a bumped schema_version must be a cache miss, not a decode"
    );

    // Torn writes miss too.
    std::fs::write(cache.path("torn"), &encode_run_result(&result)[..10]).unwrap();
    assert!(cache.load("torn").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
