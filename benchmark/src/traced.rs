//! The traced pass: per-layer metrics, spans, and outside-in
//! attribution. Never mixed into end-to-end numbers.
//!
//! Three parts, all recorded as spans from this package's own code:
//!
//! 1. **Layer replays** (`replay/`): what one call into each layer
//!    costs. The same for every workload.
//! 2. **Engine probes**: the dense floor at one and at `T` threads, the
//!    churn sweep cold at one and at `T` threads and warm, `bulk1_hack`
//!    with a ring sink attached. Also the same for every workload:
//!    they are the only place the shard engine, the campaign pool and
//!    the trace sink can be timed from outside.
//! 3. **World passes** over the selected workload's own scenarios,
//!    each stepped through `run_until` in 10 ms slices: the workload's
//!    simulated counters, its per-event cost, and how much of that
//!    cost the replays explain (`ops × ns/op`, summed, over the
//!    measured wall). The rest is `world.residual_ns_per_event`: event
//!    dispatch in `sim.rs`, the wired link, host glue, metrics. It is
//!    what tracing *inside* the crates has to explain later.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hack_campaign::{
    campaign_csv, campaign_json, run_campaign, run_campaign_with, CampaignOptions, Job, ResultCache,
};
use hack_core::{
    merge_dense, run_dense, shard_configs, DenseOptions, HackMode, RunResult, ScenarioBuilder,
    ScenarioConfig, Standard, TrafficClass, TrafficModel, World,
};
use hack_sim::{SimDuration, SimTime};
use hack_tcp::CcKind;
use hack_trace::{Record, TraceHandle, TraceSink};

use crate::alloc;
use crate::replay::{self, Ctx};
use crate::spans::{Recorder, SpanId};
use crate::spec::PER_LAYER;
use crate::stats::{median, quantile};
use crate::workloads::{
    churn_spec, dense16_cfg, dense_digest, dense_events, fold_result, Env, Ops, Workload,
    CHURN_JOBS, FNV_OFFSET,
};

/// Slots of the selected workload the world passes cover. Fixed, so
/// that the simulated counters are a function of the arguments and
/// never of how many passes the host had time for.
const TRACED_SLOTS: usize = 2;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

// ---------------------------------------------------------------------
// 1. Layer replays
// ---------------------------------------------------------------------

fn replays(cx: &mut Ctx<'_>, m: &mut Metrics) {
    let timer_ns = replay::core::timer(cx);
    m.insert("bench.timer_ns", timer_ns);

    m.insert(
        "sim.queue_hold_ns",
        replay::sim::queue_hold(cx, "sim.queue_hold", 64),
    );
    m.insert(
        "sim.queue_hold_ns_d1024",
        replay::sim::queue_hold(cx, "sim.queue_hold_d1024", 1024),
    );
    m.insert("sim.timer_cycle_ns", replay::sim::timer_cycle(cx));
    m.insert("sim.sketch_record_ns", replay::sim::sketch_record(cx));

    m.insert(
        "phy.txcycle_ns_l3",
        replay::phy::txcycle_cell(cx, "phy.txcycle_l3", 3),
    );
    m.insert(
        "phy.txcycle_ns_l11",
        replay::phy::txcycle_cell(cx, "phy.txcycle_l11", 11),
    );
    m.insert("phy.txcycle_ns_d16", replay::phy::txcycle_d16(cx));

    m.insert("mac.ampdu_cycle_ns", replay::mac::ampdu_cycle(cx));
    m.insert("mac.single_cycle_ns", replay::mac::single_cycle(cx));
    m.insert("mac.contend_cycle_ns", replay::mac::contend_cycle(cx));
    m.insert("mac.assoc_cycle_ns", replay::mac::assoc_cycle(cx));

    let (data, ack, loss) = replay::tcp::data_ack_loss(cx);
    m.insert("tcp.data_path_ns", data);
    m.insert("tcp.ack_path_ns", ack);
    m.insert("tcp.loss_recovery_ns", loss);
    m.insert("tcp.handshake_ns", replay::tcp::handshake(cx));
    m.insert("tcp.timer_path_ns", replay::tcp::timer_path(cx));
    m.insert("tcp.header_bytes_ns", replay::tcp::header_bytes(cx));
    for (name, span, kind) in [
        ("tcp.cc_on_ack_ns.reno", "tcp.cc_on_ack.reno", CcKind::Reno),
        (
            "tcp.cc_on_ack_ns.cubic",
            "tcp.cc_on_ack.cubic",
            CcKind::Cubic,
        ),
        (
            "tcp.cc_on_ack_ns.hstcp",
            "tcp.cc_on_ack.hstcp",
            CcKind::Highspeed,
        ),
        ("tcp.cc_on_ack_ns.bbr", "tcp.cc_on_ack.bbr", CcKind::Bbr),
    ] {
        m.insert(name, replay::tcp::cc_on_ack(cx, span, kind));
    }

    let (compress, decode) = replay::rohc::compress_and_decode(cx);
    m.insert("rohc.compress_ns", compress);
    m.insert("rohc.decode_ns_per_ack", decode);
    m.insert("rohc.ctx_setup_ns", replay::rohc::ctx_setup(cx));
    m.insert("rohc.cid_lookup_ns", replay::rohc::cid_lookup(cx));

    let (hold, flush) = replay::rohc::hold_and_flush(cx, timer_ns);
    m.insert("driver.hold_cycle_ns", hold);
    m.insert("driver.flush_ns", flush);
    m.insert("driver.blob_decode_ns", replay::rohc::blob_decode(cx));

    let (emit, digest) = replay::core::emit_and_digest(cx);
    m.insert("trace.emit_ns", emit);
    m.insert("trace.digest_us", digest);

    // One campaign job's config and result, for the codec and the hash.
    let job = churn_spec(cx.seed).expand().swap_remove(0);
    let result = World::builder(job.cfg.clone()).build().run();
    let (encode, decode, hash) = replay::core::codec_and_hash(cx, &job.cfg, &result);
    m.insert("world.codec_encode_us", encode);
    m.insert("world.codec_decode_us", decode);
    m.insert("world.stable_hash_us", hash);
}

// ---------------------------------------------------------------------
// 2. Engine probes
// ---------------------------------------------------------------------

const PROBE_REPS: usize = 3;

fn probe_dense(cx: &mut Ctx<'_>, env: &Env, m: &mut Metrics) {
    let cfg = dense16_cfg(cx.seed);
    let project_ns = cx.samples("dense.project", 32, || shard_configs(&cfg).len());

    let (mut serial, mut parallel, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut shards, mut skew) = (0u64, 0usize, 0.0);
    let mut digests = Vec::new();
    for rep in 0..PROBE_REPS as u32 {
        for threads in [1, env.threads] {
            let opts = DenseOptions {
                threads,
                ..Default::default()
            };
            let (report, ns) = cx
                .rec
                .time("dense.run", cx.parent, rep, || run_dense(&cfg, &opts));
            if threads == 1 {
                serial.push(ns as f64);
            }
            if threads == env.threads {
                parallel.push(ns as f64);
            }
            digests.push(dense_digest(&report));
            events = dense_events(&report);
            shards = report.shards.len();
            let largest = report
                .shards
                .iter()
                .map(|s| s.result.events_dispatched)
                .max()
                .unwrap_or(0);
            skew = ratio(largest as f64, events as f64 / shards as f64);
            let (merged, ns) = cx
                .rec
                .time("dense.merge", cx.parent, rep, || merge_dense(report));
            merge.push(ns as f64 / 1e3);
            cx.check(
                merged.events_dispatched == events,
                "merge_dense lost events",
            );
        }
    }
    cx.check(
        digests.iter().all(|d| *d == digests[0]),
        "dense probe: serial and parallel shard results differ",
    );
    m.insert("dense.shards", shards as f64);
    m.insert("dense.shard_skew", skew);
    m.insert(
        "dense.serial_ns_per_event",
        ratio(median(&serial), events as f64),
    );
    m.insert(
        "dense.parallel_speedup",
        ratio(median(&serial), median(&parallel)),
    );
    m.insert("dense.project_us", project_ns / 1e3);
    m.insert("dense.merge_us", median(&merge));
}

fn probe_campaign(cx: &mut Ctx<'_>, env: &Env, m: &mut Metrics) {
    let spec = churn_spec(cx.seed);
    let expand_ns = cx.samples("campaign.expand", 32, || spec.expand().len());
    cx.check(
        spec.n_jobs() == CHURN_JOBS,
        "the churn sweep is not 60 jobs",
    );

    // Cold, no cache, the benchmark's own runner timing every job.
    let origin = cx.rec.origin();
    let (mut serial, mut parallel, mut idle, mut job_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for rep in 0..PROBE_REPS as u32 {
        for threads in [1, env.threads] {
            let jobs: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
            let runner = |job: &Job| {
                let start = origin.elapsed().as_nanos() as u64;
                let r = World::builder(job.cfg.clone()).build().run();
                let end = origin.elapsed().as_nanos() as u64;
                jobs.lock()
                    .expect("a job runner panicked")
                    .push((start, end));
                r
            };
            let opts = CampaignOptions {
                threads,
                ..Default::default()
            };
            let cold = cx.rec.open("campaign.cold", cx.parent, rep);
            let report = run_campaign_with(&spec, &opts, &runner);
            let wall = cx.rec.close(cold) as f64;
            let jobs = jobs.into_inner().expect("a job runner panicked");
            let busy: u64 = jobs.iter().map(|(s, e)| e - s).sum();
            for (s, e) in jobs {
                cx.rec.add("campaign.job", Some(cold), rep, s, e);
                job_ms.push((e - s) as f64 / 1e6);
            }
            if threads == 1 {
                serial.push(wall);
            }
            if threads == env.threads {
                parallel.push(wall);
                idle.push(1.0 - busy as f64 / (threads as f64 * wall));
            }
            reports.push(report);
        }
    }
    let json: Vec<String> = reports.iter().map(campaign_json).collect();
    cx.check(
        json.iter().all(|j| *j == json[0]),
        "campaign probe: reports differ between thread counts",
    );

    let emit_ns = cx.samples("campaign.emit", 32, || {
        campaign_json(&reports[0]).len() + campaign_csv(&reports[0]).len()
    });

    // Cache: fill it, read it back warm, and time single stores.
    let dir = env
        .out_dir
        .join(format!("cache-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        threads: env.threads,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    run_campaign(&spec, &opts);
    let mut warm = Vec::new();
    for rep in 0..PROBE_REPS as u32 {
        let (report, ns) = cx.rec.time("campaign.warm", cx.parent, rep, || {
            run_campaign(&spec, &opts)
        });
        // The JSON carries the executed/hit counts, so the CSV is the
        // report that has to come back unchanged.
        cx.check(
            report.cache_hits == CHURN_JOBS && campaign_csv(&report) == campaign_csv(&reports[0]),
            "warm pass missed the cache or changed the report",
        );
        warm.push(ns as f64 / 1e3 / CHURN_JOBS as f64);
    }
    let cache = ResultCache::new(dir.join("stores")).expect("cannot create the cache directory");
    let result = &reports[0].cells[0].runs[0];
    let mut n = 0u32;
    let store_ns = cx.samples("campaign.cache_store", 64, || {
        n += 1;
        cache
            .store(&format!("{n:032x}"), result)
            .expect("cache store failed");
    });
    cx.check(cache.entries() == 64, "cache stores went missing");
    let _ = std::fs::remove_dir_all(&dir);

    m.insert("campaign.job_ms_p50", median(&job_ms));
    m.insert("campaign.job_ms_p90", quantile(&job_ms, 0.9));
    m.insert("campaign.pool_idle_share", median(&idle));
    m.insert(
        "campaign.parallel_speedup",
        ratio(median(&serial), median(&parallel)),
    );
    m.insert("campaign.warm_hit_us", median(&warm));
    m.insert("campaign.cache_store_us", store_ns / 1e3);
    m.insert("campaign.expand_us", expand_ns / 1e3);
    m.insert("campaign.emit_us", emit_ns / 1e3);
}

/// `bulk1_hack` (5 s simulated) with a ring sink and its digest against
/// the same world with tracing off, in alternating pairs.
fn probe_trace(cx: &mut Ctx<'_>, m: &mut Metrics) {
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .duration(SimDuration::from_secs(5))
        .seed(cx.seed)
        .build();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut same = true;
    for rep in 0..5 {
        let (plain, ns) = cx.rec.time("trace.off", cx.parent, rep, || {
            World::builder(cfg.clone()).build().run()
        });
        off.push(ns as f64);
        let ((traced, emitted), ns) = cx.rec.time("trace.on", cx.parent, rep, || {
            let (handle, ring) = TraceHandle::ring(1 << 16);
            let r = World::builder(cfg.clone()).trace(handle).build().run();
            (r, std::hint::black_box(ring.digest()).events)
        });
        on.push(ns as f64);
        same &= emitted > 0
            && traced.events_dispatched == plain.events_dispatched
            && traced.flow_goodput_mbps == plain.flow_goodput_mbps;
    }
    cx.check(same, "attaching a trace sink changed the simulated run");
    m.insert(
        "trace.world_overhead_pct",
        (ratio(median(&on), median(&off)) - 1.0) * 100.0,
    );
}

// ---------------------------------------------------------------------
// 3. World passes
// ---------------------------------------------------------------------

/// Counts every record, keeps none.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn record(&self, _rec: Record) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Public counters of one or more finished worlds, added up.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counters {
    sim_s: f64,
    delivered_mb: f64,
    events: f64,
    ppdus: f64,
    collisions: f64,
    /// Σ over PPDUs of the stations that hear them (domain size − 1).
    ppdu_listeners: f64,
    acked: f64,
    acked_aggregated: f64,
    retried: f64,
    ap_first_try: f64,
    ap_acked: f64,
    tx_attempts: f64,
    responses: f64,
    responses_with_blob: f64,
    ack_timeouts: f64,
    airtime_data: f64,
    airtime_ack: f64,
    airtime_response: f64,
    airtime_blob: f64,
    data_segments: f64,
    retransmits: f64,
    rtos: f64,
    tcp_acks: f64,
    handshakes: f64,
    compressed: f64,
    compressed_bytes: f64,
    decompressed: f64,
    decode_attempts: f64,
    crc_failures: f64,
    no_context: f64,
    native_acks: f64,
    hacked_acks: f64,
    spilled: f64,
}

impl Counters {
    fn add(&mut self, cfg: &ScenarioConfig, r: &RunResult) {
        let secs = cfg.duration.as_secs_f64();
        self.sim_s += secs;
        self.delivered_mb += r.flow_goodput_full_mbps.iter().sum::<f64>() * secs / 8.0;
        self.events += r.events_dispatched as f64;
        self.ppdus += r.ppdus as f64;
        self.collisions += r.collisions as f64;
        // Stations per interference domain: the whole cell in a
        // single-cell world, one BSS of a dense one.
        let domains = cfg.bss.len().max(1);
        self.ppdu_listeners += r.ppdus as f64 * (r.mac.len() as f64 / domains as f64 - 1.0);
        let aggregated = matches!(cfg.standard, Standard::Dot11n { .. });
        for (i, s) in r.mac.iter().enumerate() {
            let acked = (s.mpdus_first_try.get() + s.mpdus_retried.get()) as f64;
            self.acked += acked;
            if aggregated {
                self.acked_aggregated += acked;
            }
            self.retried += s.mpdus_retried.get() as f64;
            if i == 0 {
                // Table 1 counts the AP's transmissions.
                self.ap_first_try += s.mpdus_first_try.get() as f64;
                self.ap_acked += acked;
            }
            self.tx_attempts += s.tx_attempts.get() as f64;
            self.responses += s.responses_sent.get() as f64;
            self.responses_with_blob += s.responses_with_blob.get() as f64;
            self.ack_timeouts += s.ack_timeouts.get() as f64;
            self.airtime_data += s.airtime_data.total().as_nanos() as f64;
            self.airtime_ack += s.airtime_ack.total().as_nanos() as f64;
            self.airtime_response += s.airtime_response.total().as_nanos() as f64;
            self.airtime_blob += s.airtime_blob.total().as_nanos() as f64;
        }
        for t in r.sender_tcp.iter().chain(&r.receiver_tcp) {
            self.data_segments += t.data_segments_sent as f64;
            self.retransmits += t.retransmits as f64;
            self.rtos += t.timeouts as f64;
            self.tcp_acks += t.acks_sent as f64;
        }
        // One handshake per TCP flow, and one more per transfer of a
        // short flow that opens a fresh connection each time.
        self.handshakes += r.sender_tcp.len() as f64;
        let fresh = (0..cfg.n_clients)
            .any(|f| matches!(cfg.model_of(f), TrafficModel::ShortFlows(s) if !s.reuse));
        if fresh {
            self.handshakes += r.class(TrafficClass::Short).map_or(0, |c| c.transfers) as f64;
        }
        for c in &r.compressor {
            self.compressed += c.compressed as f64;
            self.compressed_bytes += c.compressed_bytes as f64;
        }
        let d = &r.decompressor;
        self.decompressed += d.decompressed as f64;
        self.decode_attempts +=
            (d.decompressed + d.duplicates + d.crc_failures + d.no_context + d.malformed) as f64;
        self.crc_failures += d.crc_failures as f64;
        self.no_context += d.no_context as f64;
        for s in r.driver.iter().chain(&r.driver_ap) {
            self.native_acks += s.native_acks as f64;
            self.hacked_acks += s.hacked_acks as f64;
            self.spilled += s.spilled as f64;
        }
    }

    /// The simulated per-layer metrics.
    fn metrics(&self, m: &mut Metrics) {
        let airtime = self.airtime_data + self.airtime_ack + self.airtime_response;
        let acks = self.hacked_acks + self.native_acks;
        m.insert("sim.events_per_sim_s", ratio(self.events, self.sim_s));
        m.insert("phy.ppdus_per_kevent", ratio(1e3 * self.ppdus, self.events));
        m.insert("phy.collision_share", ratio(self.collisions, self.ppdus));
        m.insert("phy.airtime_data_share", ratio(self.airtime_data, airtime));
        m.insert("phy.airtime_ack_share", ratio(self.airtime_ack, airtime));
        m.insert("phy.airtime_blob_share", ratio(self.airtime_blob, airtime));
        m.insert("mac.mpdus_per_ppdu", ratio(self.acked, self.tx_attempts));
        m.insert("mac.retry_share", ratio(self.retried, self.acked));
        m.insert(
            "mac.first_try_share",
            ratio(self.ap_first_try, self.ap_acked),
        );
        m.insert(
            "mac.acquisitions_per_mb",
            ratio(self.tx_attempts, self.delivered_mb),
        );
        m.insert(
            "mac.ack_timeouts_per_sim_s",
            ratio(self.ack_timeouts, self.sim_s),
        );
        m.insert(
            "tcp.retrans_share",
            ratio(self.retransmits, self.data_segments),
        );
        m.insert("tcp.rto_per_sim_s", ratio(self.rtos, self.sim_s));
        m.insert(
            "tcp.acks_per_data_seg",
            ratio(self.tcp_acks, self.data_segments),
        );
        m.insert(
            "rohc.bytes_per_ack",
            ratio(self.compressed_bytes, self.compressed),
        );
        m.insert(
            "rohc.crc_fail_share",
            ratio(self.crc_failures, self.decode_attempts),
        );
        m.insert(
            "rohc.no_context_share",
            ratio(self.no_context, self.decode_attempts),
        );
        m.insert("driver.hacked_share", ratio(self.hacked_acks, acks));
        m.insert("driver.spill_share", ratio(self.spilled, acks));
        m.insert(
            "driver.acks_per_blob",
            ratio(self.hacked_acks, self.responses_with_blob),
        );
        m.insert("world.events_per_mb", ratio(self.events, self.delivered_mb));
    }

    /// Host nanoseconds the replays account for: Σ ops × ns/op. The
    /// driver rows include the ROHC work done inside the driver, so
    /// ROHC has no row of its own and nothing is counted twice.
    fn attributed_ns(&self, m: &Metrics) -> f64 {
        let ns = |name: &str| {
            m.get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0)
        };
        // A PPDU costs the medium a base plus so much per MPDU and
        // listener; the two cell replays (3 and 11 listeners, 42 MPDUs)
        // give both.
        let per_mpdu_listener =
            ((ns("phy.txcycle_ns_l11") - ns("phy.txcycle_ns_l3")) / (8.0 * 42.0)).max(0.0);
        let ppdu_base = (ns("phy.txcycle_ns_l3") - 3.0 * 42.0 * per_mpdu_listener).max(0.0);
        let listeners_per_ppdu = ratio(self.ppdu_listeners, self.ppdus);
        let mpdus_on_air = self.acked + self.responses;
        let acked_single = self.acked - self.acked_aggregated;
        let rows = [
            self.events * ns("sim.queue_hold_ns"),
            self.ppdus * ppdu_base + mpdus_on_air * listeners_per_ppdu * per_mpdu_listener,
            self.acked_aggregated * ns("mac.ampdu_cycle_ns")
                + acked_single * ns("mac.single_cycle_ns")
                + self.ppdu_listeners * ns("mac.contend_cycle_ns"),
            self.data_segments * ns("tcp.data_path_ns")
                + self.tcp_acks * ns("tcp.ack_path_ns")
                + self.retransmits * ns("tcp.loss_recovery_ns")
                + self.handshakes * ns("tcp.handshake_ns"),
            self.hacked_acks * ns("driver.hold_cycle_ns")
                + self.decompressed * ns("driver.blob_decode_ns") / 21.0,
        ];
        rows.iter().sum()
    }
}

/// What stepping one `(unit, slot)` pair's worlds cost and produced.
struct WorldRep {
    wall_ns: f64,
    events: f64,
    allocs: f64,
    digest: u64,
}

/// Build every world of `configs`, step it to its end in 10 ms slices,
/// finish it; spans for all three. `counters` takes the results.
fn sliced_worlds(
    rec: &mut Recorder,
    parent: SpanId,
    rep: u32,
    configs: &[ScenarioConfig],
    trace: &TraceHandle,
    counters: &mut Counters,
    slices_us: &mut Vec<f64>,
) -> WorldRep {
    let slice = SimDuration::from_millis(10);
    let mut out = WorldRep {
        wall_ns: 0.0,
        events: 0.0,
        allocs: 0.0,
        digest: FNV_OFFSET,
    };
    for cfg in configs {
        let (mut world, _) = rec.time("world.build", Some(parent), rep, || {
            World::builder(cfg.clone()).trace(trace.clone()).build()
        });
        let mark = alloc::mark(alloc::live());
        let mut until = SimTime::ZERO;
        loop {
            until += slice;
            let (more, ns) = rec.time("world.slice", Some(parent), rep, || world.run_until(until));
            out.wall_ns += ns as f64;
            slices_us.push(ns as f64 / 1e3);
            if !more {
                break;
            }
        }
        out.allocs += mark.since().allocs as f64;
        let (result, _) = rec.time("world.finish", Some(parent), rep, || world.finish());
        out.events += result.events_dispatched as f64;
        out.digest = fold_result(out.digest, &result);
        counters.add(cfg, &result);
    }
    out
}

fn world_passes(
    w: &dyn Workload,
    rec: &mut Recorder,
    budget_s: f64,
    ops: &mut Ops,
    m: &mut Metrics,
) {
    let root = rec.open("worlds", None, 0);
    let slots = TRACED_SLOTS.min(w.slots());
    let pairs: Vec<(usize, usize)> = (0..slots)
        .flat_map(|s| (0..w.units()).map(move |u| (u, s)))
        .collect();

    let started = Instant::now();
    let off = TraceHandle::off();
    let mut counters = Counters::default();
    let (mut sliced_ns, mut slicing_cost, mut allocs_per_event) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut slices_us = Vec::new();
    let mut records_per_event = Vec::new();
    let mut pass = 0u32;
    loop {
        let mut pass_counters = Counters::default();
        for &(unit, slot) in &pairs {
            let configs = w.world_configs(unit, slot);
            let rep = rec.open("rep", Some(root), pass);
            let sliced = sliced_worlds(
                rec,
                rep,
                pass,
                &configs,
                &off,
                &mut pass_counters,
                &mut slices_us,
            );
            rec.close(rep);
            sliced_ns.push(sliced.wall_ns / sliced.events);
            allocs_per_event.push(sliced.allocs / sliced.events);

            // The same worlds in one `run()` each, for what slicing and
            // spans add; and, on the first pass, once more with a
            // counting sink attached.
            let (whole_events, ns) = rec.time("worlds.whole", Some(root), pass, || {
                configs
                    .iter()
                    .map(|c| World::builder(c.clone()).build().run().events_dispatched)
                    .sum::<u64>()
            });
            // Pair by pair: the two ran within the same second.
            slicing_cost.push(sliced.wall_ns / ns as f64);
            ops.check(whole_events as f64 == sliced.events, || {
                format!(
                    "{}: sliced and whole runs dispatched different events",
                    w.name()
                )
            });
            if pass == 0 {
                let sink = Arc::new(CountingSink::default());
                let counted = sliced_worlds(
                    rec,
                    root,
                    pass,
                    &configs,
                    &TraceHandle::to(sink.clone()),
                    &mut Counters::default(),
                    &mut Vec::new(),
                );
                ops.check(counted.digest == sliced.digest, || {
                    format!("{}: a trace sink changed the simulated outputs", w.name())
                });
                records_per_event.push(sink.0.load(Ordering::Relaxed) as f64 / counted.events);
            }
        }
        if pass == 0 {
            counters = pass_counters;
        } else {
            ops.check(pass_counters == counters, || {
                format!("{}: pass {pass} counted differently from pass 0", w.name())
            });
        }
        pass += 1;
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    rec.close(root);

    counters.metrics(m);
    let ns_per_event = median(&sliced_ns);
    m.insert("world.ns_per_event", ns_per_event);
    m.insert("world.ns_per_event_p80", quantile(&sliced_ns, 0.8));
    m.insert("world.allocs_per_event", median(&allocs_per_event));
    m.insert(
        "world.build_us",
        median(&rec.durations("world.build")) / 1e3,
    );
    m.insert(
        "world.finish_us",
        median(&rec.durations("world.finish")) / 1e3,
    );
    m.insert("world.slice_us_p50", median(&slices_us));
    m.insert("world.slice_us_p99", quantile(&slices_us, 0.99));
    m.insert("trace.records_per_event", median(&records_per_event));
    m.insert(
        "bench.span_overhead_pct",
        (median(&slicing_cost) - 1.0) * 100.0,
    );
    let share = ratio(counters.attributed_ns(m), ns_per_event * counters.events);
    m.insert("world.attributed_share", share);
    m.insert("world.residual_ns_per_event", ns_per_event * (1.0 - share));
    eprintln!(
        "{}: traced {} passes over {} (unit, slot) pairs, {} slices; {:.0} % of {:.1} ns/event attributed",
        w.name(),
        pass,
        pairs.len(),
        slices_us.len(),
        share * 100.0,
        ns_per_event,
    );
}

fn write_spans(rec: &Recorder, env: &Env, stem: &str, ops: &mut Ops) {
    let path = env.out_dir.join(format!("{stem}.spans.jsonl"));
    if let Err(e) = rec.write_jsonl(&path) {
        ops.check(false, || format!("cannot write {}: {e}", path.display()));
    }
}

/// Parts 1 and 2, which do not depend on the workload: the layer
/// replays and the engine probes. Writes `<out>/layers.spans.jsonl`.
pub fn layers(env: &Env, ops: &mut Ops) -> Metrics {
    let mut rec = Recorder::new("layers");
    let mut m = Metrics::new();
    let mut cx = Ctx {
        rec: &mut rec,
        parent: None,
        seed: env.seed,
        ops: &mut *ops,
    };
    let started = Instant::now();
    cx.under("replays", |cx| replays(cx, &mut m));
    let replays_s = started.elapsed().as_secs_f64();
    cx.under("probe.dense", |cx| probe_dense(cx, env, &mut m));
    cx.under("probe.campaign", |cx| probe_campaign(cx, env, &mut m));
    cx.under("probe.trace", |cx| probe_trace(cx, &mut m));
    eprintln!(
        "traced pass: replays {replays_s:.1} s, probes {:.1} s",
        started.elapsed().as_secs_f64() - replays_s
    );
    write_spans(&rec, env, "layers", ops);
    m
}

/// Part 3 for `w`, for at least one pass and about `budget_s` host
/// seconds, joined with the `layers` metrics: every per-layer metric in
/// [`PER_LAYER`] order. Writes `<out>/<workload>.spans.jsonl`.
pub fn worlds(
    w: &dyn Workload,
    env: &Env,
    budget_s: f64,
    layers: &Metrics,
    ops: &mut Ops,
) -> [f64; PER_LAYER.len()] {
    let mut rec = Recorder::new(w.name());
    let mut m = layers.clone();
    world_passes(w, &mut rec, budget_s, ops, &mut m);
    write_spans(&rec, env, w.name(), ops);

    let mut out = [f64::NAN; PER_LAYER.len()];
    for (slot, spec) in out.iter_mut().zip(&PER_LAYER) {
        match m.get(spec.name) {
            Some(v) if v.is_finite() => *slot = *v,
            _ => ops.check(false, || format!("no finite value for {}", spec.name)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every replay's check passes and every replay yields a figure,
    /// whatever the seed.
    #[test]
    fn replays_check_out_on_any_seed() {
        for seed in [1, 0xdead_beef] {
            let mut rec = Recorder::new("test");
            let (mut ops, mut m) = (Ops::default(), Metrics::new());
            let mut cx = Ctx {
                rec: &mut rec,
                parent: None,
                seed,
                ops: &mut ops,
            };
            replays(&mut cx, &mut m);
            assert_eq!(ops.failed, 0, "seed {seed}: {:?}", ops.failures);
            assert!(ops.attempted >= 40, "every replay checks what came back");
            for (name, v) in &m {
                assert!(v.is_finite() && *v >= 0.0, "seed {seed}: {name} = {v}");
            }
        }
    }

    #[test]
    fn counters_add_up_and_ratios_survive_empty_worlds() {
        let mut m = Metrics::new();
        Counters::default().metrics(&mut m);
        assert!(m.values().all(|v| *v == 0.0), "no division by zero: {m:?}");
        assert_eq!(Counters::default().attributed_ns(&m), 0.0);
    }
}
