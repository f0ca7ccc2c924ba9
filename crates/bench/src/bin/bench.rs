//! Hot-path performance harness (`bench`).
//!
//! ```text
//! bench [--quick] [--json <path>] [--check <path>] [--tolerance <pct>]
//! ```
//!
//! Measures the simulation hot paths end to end and per stage:
//!
//! * **end-to-end events/sec** — a full 802.11n TCP/HACK download run,
//!   reporting scheduler events dispatched per wall-clock second (the
//!   number every perf PR must move),
//! * **per-stage timings** — event-queue push/pop, ROHC
//!   compress+confirm, zero-copy blob decode, driver blob rebuild,
//!   steady-state CID lookup, MD5 CID derivation, and header
//!   serialization. Stateful stages run against *persistent* endpoint
//!   state (contexts, scratch buffers, held-ACK queues), measuring the
//!   steady-state cost a long-lived driver pays — not per-op
//!   construction,
//! * **allocation counters** — a counting global allocator reports
//!   heap allocations per event / per operation (the
//!   allocations-proxy; `realloc` counts too).
//!
//! With `--json <path>` the results are written as a JSON document. If
//! the file already exists its `"baseline"` object is preserved (or,
//! failing that, its previous `"current"` object becomes the baseline),
//! so the file accumulates a before/after trajectory across PRs:
//! `speedup_events_per_sec` compares the fresh run against the recorded
//! baseline.
//!
//! With `--check <path>` the run is compared against the committed
//! results at `<path>` and the process exits nonzero if any stage's
//! `ns_per_op` regresses past the tolerance or its `allocs_per_op`
//! grows — the CI regression gate.
//!
//! `--quick` shortens both the stages and the end-to-end run for CI
//! smoke coverage (the threshold job finishes well under a minute).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hack_core::{
    run, run_dense, ArrivalDist, BssSpec, CompressSide, DenseOptions, DriverAction, HackMode,
    RoamEvent, ScenarioBuilder, ScenarioConfig, ShortFlowConfig, SizeDist, SupervisorConfig,
    TrafficClass, TrafficModel,
};
use hack_mac::RxDataInfo;
use hack_phy::StationId;
use hack_rohc::{build_blob, BlobItem, CidMap, Compressor, Decompressor};
use hack_sim::{EventQueue, SimDuration, SimTime};
use hack_tcp::{flags, FiveTuple, Ipv4Addr, Ipv4Packet, TcpOption, TcpSegment, TcpSeq, Transport};

const USAGE: &str = "\
bench — hot-path performance harness

USAGE:
    bench [--quick] [--json <path>] [--check <path>] [--tolerance <pct>]

OPTIONS:
    --quick            Smoke mode for CI: 10x fewer per-stage iterations and
                       a 300 ms (instead of 3 s) end-to-end simulation, so
                       the whole run finishes well under a minute. Per-op
                       numbers are noisier but exercise the same code paths.
    --json <path>      Write results as JSON. An existing file's baseline is
                       preserved (or its previous current becomes the
                       baseline), accumulating a before/after trajectory.
    --check <path>     Regression gate: compare this run's stages against
                       the committed results at <path>; exit 1 if any
                       stage's ns_per_op regresses by more than the
                       tolerance (plus a small absolute slack that keeps
                       sub-microsecond stages from flapping) or its
                       allocs_per_op grows by more than 0.5.
    --tolerance <pct>  Relative regression tolerance for --check, in
                       percent (default 10).
    -h, --help         Print this help.
";

// ---------------------------------------------------------------------
// Counting allocator: the allocations-proxy counter.
// ---------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Stage {
    ns_per_op: f64,
    allocs_per_op: f64,
}

/// Iteration count for a stage: full, or a tenth of it in quick mode.
fn scaled(iters: u64, quick: bool) -> u64 {
    if quick {
        (iters / 10).max(1)
    } else {
        iters
    }
}

/// Time `op` over `iters` iterations (after one warmup batch),
/// returning mean ns/op and allocations/op.
fn time_stage<F: FnMut()>(iters: u64, mut op: F) -> Stage {
    for _ in 0..iters / 10 + 1 {
        op();
    }
    let a0 = allocs_now();
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    Stage {
        ns_per_op: wall.as_nanos() as f64 / iters as f64,
        allocs_per_op: allocs as f64 / iters as f64,
    }
}

fn ack(ackno: u32, ident: u16, ts: u32) -> Ipv4Packet {
    Ipv4Packet {
        src: Ipv4Addr::new(192, 168, 0, 2),
        dst: Ipv4Addr::new(10, 0, 0, 1),
        ident,
        ttl: 64,
        transport: Transport::Tcp(TcpSegment {
            src_port: 40000,
            dst_port: 5001,
            seq: TcpSeq(7777),
            ack: TcpSeq(ackno),
            flags: flags::ACK,
            window: 1024,
            options: {
                // Built by push, not `vec![..].into()`: keeps packet
                // construction off the heap so stage allocation counts
                // reflect the code under test, not the harness.
                let mut opts = hack_tcp::TcpOptions::new();
                opts.push(TcpOption::Timestamps {
                    tsval: ts,
                    tsecr: ts.wrapping_sub(3),
                });
                opts
            },
            payload_len: 0,
        }),
    }
}

// ---------------------------------------------------------------------
// Stages.
// ---------------------------------------------------------------------

fn stage_queue_push_pop(quick: bool) -> Stage {
    // Steady-state scheduler pattern: each pop reschedules, queue depth
    // stays around 64 pending events (the whole-network regime).
    let mut q = EventQueue::new();
    let mut now = 0u64;
    for i in 0..64u64 {
        q.push(SimTime::from_nanos(i * 531), i);
    }
    let mut step = 0u64;
    time_stage(scaled(200_000, quick), || {
        let (t, v) = q.pop().expect("queue never drains");
        now = t.as_nanos();
        step = step.wrapping_add(1);
        q.push(
            SimTime::from_nanos(now + 200 + (v.wrapping_mul(2654435761) % 5000)),
            step,
        );
    })
}

fn stage_compress_confirm(quick: bool) -> Stage {
    let mut comp = Compressor::new();
    comp.observe_native(&ack(1000, 1, 10));
    let mut i = 0u32;
    time_stage(scaled(100_000, quick), || {
        i = i.wrapping_add(1);
        let p = ack(
            1000u32.wrapping_add(i.wrapping_mul(2920)),
            1u16.wrapping_add(i as u16),
            10u32.wrapping_add(i),
        );
        let seg = comp.compress(&p).expect("compressible");
        std::hint::black_box(&seg);
        comp.confirm(&p);
    })
}

fn stage_decompress_blob(quick: bool) -> Stage {
    // One blob of 21 delayed ACKs (a 42-MPDU A-MPDU batch), the paper's
    // steady-state shape. Reported per *blob*, streamed through the
    // zero-copy cursor of a *persistent* decompressor — re-observing the
    // seed ACK resets the MSN/field refs so every iteration decodes the
    // same bytes fresh, the way a long-lived AP context would.
    let mut comp = Compressor::new();
    let seed = ack(1000, 1, 10);
    comp.observe_native(&seed);
    let segs: Vec<_> = (1..=21u32)
        .map(|i| {
            comp.compress(&ack(1000 + i * 2920, 1 + i as u16, 10 + i))
                .unwrap()
        })
        .collect();
    let seg_slices: Vec<Vec<u8>> = segs.iter().map(|s| s[..].to_vec()).collect();
    let blob = build_blob(&seg_slices);
    let mut d = Decompressor::new();
    time_stage(scaled(20_000, quick), || {
        d.observe_native(&seed);
        let mut packets = 0u32;
        for item in d.decode(&blob) {
            match item {
                BlobItem::Packet(p) => {
                    std::hint::black_box(&p);
                    packets += 1;
                }
                other => panic!("unexpected blob item {other:?}"),
            }
        }
        assert_eq!(packets, 21);
    })
}

fn stage_blob_rebuild(quick: bool) -> Stage {
    // One full hold-and-confirm cycle on a *persistent* driver — the
    // simulator's actual steady state: 8 ACKs held (each append patches
    // the incremental blob cache and re-installs), the blob rides an LL
    // ACK, and the next data frame confirms all 8 (prefix drain +
    // ClearBlob). Install actions hand their buffers straight back via
    // `recycle_blob`, exactly like the MAC displacing the previous blob.
    let info = RxDataInfo {
        from: StationId(0),
        mpdus_ok: 2,
        more_data: true,
        sync: false,
        advances_seq: true,
        is_aggregate: true,
    };
    let mut d = CompressSide::new(HackMode::MoreData);
    d.on_ack_out(ack(1000, 1, 10), SimTime::from_millis(1));
    d.on_data_received(&info, SimTime::from_millis(2));
    let mut i = 0u32;
    let t = SimTime::from_millis(2);
    time_stage(scaled(50_000, quick), || {
        i = i.wrapping_add(1);
        for k in 0..8u32 {
            let n = i.wrapping_mul(8).wrapping_add(k);
            let acts = d.on_ack_out(
                ack(
                    1000u32.wrapping_add(n.wrapping_mul(2920)),
                    n as u16,
                    10u32.wrapping_add(n),
                ),
                t,
            );
            let mut installed = false;
            for a in acts {
                if let DriverAction::InstallBlob { bytes, .. } = a {
                    installed = true;
                    d.recycle_blob(bytes);
                }
            }
            assert!(installed, "every held ACK re-installs the blob");
        }
        // The blob rides, then the next data frame confirms everything.
        for a in d.on_response_sent(true, t) {
            if let DriverAction::InstallBlob { bytes, .. } = a {
                d.recycle_blob(bytes);
            }
        }
        for a in d.on_data_received(&info, t) {
            if let DriverAction::InstallBlob { bytes, .. } = a {
                d.recycle_blob(bytes);
            }
        }
        assert_eq!(d.held_count(), 0, "confirm drains every ridden ACK");
    })
}

fn stage_cid_lookup(quick: bool) -> Stage {
    // Steady-state CID resolution with 64 concurrent flows: the dense-AP
    // regime where the old linear `Vec<(FiveTuple, u8)>` scan went
    // quadratic. Reported per lookup; flat cost here is the O(1) proof.
    let tuples: Vec<FiveTuple> = (0..64u32)
        .map(|i| FiveTuple {
            src_ip: Ipv4Addr::new(192, 168, 1, 10 + i as u8),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 40_000 + i as u16,
            dst_port: 5001,
            protocol: 6,
        })
        .collect();
    let mut m = CidMap::new();
    for (k, t) in tuples.iter().enumerate() {
        m.insert(*t, k as u8);
    }
    let mut i = 0usize;
    time_stage(scaled(200_000, quick), || {
        i = i.wrapping_add(1);
        let hit = m.get(std::hint::black_box(&tuples[i & 63]));
        assert!(std::hint::black_box(hit).is_some());
    })
}

fn stage_md5_cid(quick: bool) -> Stage {
    let t = ack(1, 1, 1).five_tuple();
    let bytes = t.bytes();
    time_stage(scaled(200_000, quick), || {
        std::hint::black_box(hack_rohc::cid_for_tuple(&bytes));
    })
}

fn stage_header_serialize(quick: bool) -> Stage {
    let p = ack(123_456, 7, 99);
    time_stage(scaled(200_000, quick), || {
        std::hint::black_box(p.header_bytes());
    })
}

fn stage_dense_e2e(quick: bool) -> Stage {
    // Multi-BSS end to end: a 9-BSS enterprise floor (18 clients, 27
    // stations) run through the shard engine on one thread, reported as
    // ns per dispatched event. This is the domain-scoping gate — if
    // carrier sense or `end_tx` reception ever regress from
    // per-interference-domain back to O(all stations on the floor),
    // this stage moves while the single-cell end-to-end stays put.
    let ms = if quick { 120 } else { 400 };
    let cfg = ScenarioConfig::builder()
        .hack(HackMode::MoreData)
        .bss(BssSpec::enterprise_floor(9, 2))
        .duration(SimDuration::from_millis(ms))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(ms / 5))
        .build();
    let opts = DenseOptions {
        threads: 1,
        digests: false,
    };
    let a0 = allocs_now();
    let t0 = Instant::now();
    let report = run_dense(&cfg, &opts);
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    let events: u64 = report
        .shards
        .iter()
        .map(|s| s.result.events_dispatched)
        .sum();
    assert!(
        report.aggregate_goodput_mbps > 0.0,
        "dense bench world moved no bytes"
    );
    Stage {
        ns_per_op: wall.as_nanos() as f64 / events.max(1) as f64,
        allocs_per_op: allocs as f64 / events.max(1) as f64,
    }
}

fn stage_roam_handoff_e2e(quick: bool) -> Stage {
    // Mid-flow AP handoff end to end: a supervised two-cell world whose
    // client roams to a HACK-incapable AP and back — held-ACK flush,
    // ROHC context teardown, the association state machine, blackout
    // parking, and the re-association handshake all on the measured
    // path. Reported as ns per dispatched event; if the roam machinery
    // ever leaks cost into the per-event budget (e.g. a per-event scan
    // of the roam runtime), this stage moves while the plain end-to-end
    // stays put. The quick run stays long enough that the world's fixed
    // setup allocations don't dominate the per-event count (the --check
    // gate compares quick CI runs against the committed full-mode run).
    let ms = if quick { 400 } else { 600 };
    let mut cfg = ScenarioConfig::builder()
        .hack(HackMode::MoreData)
        .bss(vec![
            BssSpec {
                x: 0.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 25.0,
                y: 0.0,
                channel: 6,
                n_clients: 0,
            },
        ])
        .duration(SimDuration::from_millis(ms))
        .warmup(SimDuration::from_millis(ms / 5))
        .build();
    cfg.roam.ap_hack_capable = vec![true, false];
    cfg.roam.schedule = vec![
        RoamEvent {
            flow: 0,
            at: SimDuration::from_millis(ms / 3),
            target_bss: 1,
        },
        RoamEvent {
            flow: 0,
            at: SimDuration::from_millis(2 * ms / 3),
            target_bss: 0,
        },
    ];
    cfg.supervisor = Some(SupervisorConfig::default());
    let a0 = allocs_now();
    let t0 = Instant::now();
    let r = run(cfg);
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    assert_eq!(r.roams, 2, "roam bench world must complete both handoffs");
    assert!(
        r.aggregate_goodput_mbps > 0.0,
        "roam bench world moved no bytes"
    );
    Stage {
        ns_per_op: wall.as_nanos() as f64 / r.events_dispatched.max(1) as f64,
        allocs_per_op: allocs as f64 / r.events_dispatched.max(1) as f64,
    }
}

fn stage_short_flow_churn(quick: bool) -> Stage {
    // Short-flow connection churn end to end: one client running
    // web-like transfers on *fresh* five-tuples (reuse off), so every
    // transfer pays the handshake, the tuple re-key, ROHC context
    // teardown on both stations, and a fresh slow start. Small fixed
    // sizes and a tiny think gap maximize lifecycle events per
    // simulated second. Reported as ns per dispatched event; if the
    // restart path ever leaks cost into steady state (e.g. a per-event
    // scan of flow runtimes or an O(contexts) teardown), this stage
    // moves while the plain bulk end-to-end stays put.
    let ms = if quick { 300 } else { 1_000 };
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .duration(SimDuration::from_millis(ms))
        .warmup(SimDuration::from_millis(ms / 5))
        .traffic(TrafficModel::ShortFlows(ShortFlowConfig {
            sizes: SizeDist::Fixed(64 * 1024),
            think: ArrivalDist::Fixed(SimDuration::from_millis(1)),
            reuse: false,
        }))
        .build();
    let a0 = allocs_now();
    let t0 = Instant::now();
    let r = run(cfg);
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    let transfers = r.class(TrafficClass::Short).map_or(0, |c| c.transfers);
    assert!(
        transfers >= 10,
        "short-flow churn bench world completed only {transfers} transfers"
    );
    Stage {
        ns_per_op: wall.as_nanos() as f64 / r.events_dispatched.max(1) as f64,
        allocs_per_op: allocs as f64 / r.events_dispatched.max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// End-to-end events/sec.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct EndToEnd {
    events: u64,
    wall_ns: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    allocs: u64,
    allocs_per_event: f64,
    goodput_mbps: f64,
}

fn end_to_end(quick: bool) -> EndToEnd {
    let (sim_ms, reps) = if quick { (300, 2) } else { (3000, 3) };
    let mut best: Option<EndToEnd> = None;
    for rep in 0..reps {
        let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build();
        cfg.duration = SimDuration::from_millis(sim_ms);
        cfg.warmup = SimDuration::from_millis(sim_ms / 5);
        cfg.seed = 1 + rep; // identical work profile, fresh RNG stream
        let a0 = allocs_now();
        let t0 = Instant::now();
        let r = run(cfg);
        let wall = t0.elapsed();
        let allocs = allocs_now() - a0;
        let e = EndToEnd {
            events: r.events_dispatched,
            wall_ns: wall.as_nanos() as u64,
            events_per_sec: r.events_dispatched as f64 / wall.as_secs_f64(),
            ns_per_event: wall.as_nanos() as f64 / r.events_dispatched as f64,
            allocs,
            allocs_per_event: allocs as f64 / r.events_dispatched as f64,
            goodput_mbps: r.aggregate_goodput_mbps,
        };
        if best.is_none_or(|b| e.events_per_sec > b.events_per_sec) {
            best = Some(e);
        }
    }
    best.expect("at least one rep")
}

// ---------------------------------------------------------------------
// JSON output (hand-rolled: no serde offline).
// ---------------------------------------------------------------------

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn current_json(e2e: &EndToEnd, stages: &[(&str, Stage)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "    \"events_per_sec\": {},",
        fmt_f64(e2e.events_per_sec)
    );
    let _ = writeln!(s, "    \"ns_per_event\": {},", fmt_f64(e2e.ns_per_event));
    let _ = writeln!(s, "    \"events_dispatched\": {},", e2e.events);
    let _ = writeln!(s, "    \"wall_ns\": {},", e2e.wall_ns);
    let _ = writeln!(s, "    \"allocs\": {},", e2e.allocs);
    let _ = writeln!(
        s,
        "    \"allocs_per_event\": {},",
        fmt_f64(e2e.allocs_per_event)
    );
    let _ = writeln!(s, "    \"goodput_mbps\": {},", fmt_f64(e2e.goodput_mbps));
    s.push_str("    \"stages\": {\n");
    for (i, (name, st)) in stages.iter().enumerate() {
        let comma = if i + 1 == stages.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      \"{name}\": {{ \"ns_per_op\": {}, \"allocs_per_op\": {} }}{comma}",
            fmt_f64(st.ns_per_op),
            fmt_f64(st.allocs_per_op)
        );
    }
    s.push_str("    }\n  }");
    s
}

/// Extract the brace-matched object value of top-level `"key"` from a
/// JSON document previously written by this tool.
fn extract_object(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": {{");
    let start = text.find(&pat)? + pat.len() - 1;
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------
// The regression gate (--check).
// ---------------------------------------------------------------------

/// Compare the fresh per-stage results against the committed JSON at
/// `path`. Returns whether every stage is within bounds.
///
/// A stage regresses when its `ns_per_op` exceeds the committed value by
/// more than `tol_pct` percent *plus* a small absolute slack (timer
/// granularity and scheduler jitter dominate sub-100ns stages — a purely
/// relative bound would flap), or when its `allocs_per_op` grows by more
/// than 0.5 (allocation counts are near-deterministic; half an
/// allocation of headroom absorbs warmup-dependent `Vec` growth while
/// still catching any real new allocation per op).
fn run_check(path: &std::path::Path, stages: &[(&str, Stage)], tol_pct: f64) -> bool {
    const ABS_SLACK_NS: f64 = 150.0;
    const ALLOC_SLACK: f64 = 0.5;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench: cannot read --check file {}: {e}", path.display());
            return false;
        }
    };
    let Some(committed) =
        extract_object(&text, "current").and_then(|c| extract_object(&c, "stages"))
    else {
        eprintln!("bench: no \"current.stages\" object in {}", path.display());
        return false;
    };
    let mut ok = true;
    for (name, st) in stages {
        let Some(obj) = extract_object(&committed, name) else {
            println!("check: {name}: not in committed results (new stage), skipped");
            continue;
        };
        if let Some(base) = extract_number(&obj, "ns_per_op") {
            let limit = base * (1.0 + tol_pct / 100.0) + ABS_SLACK_NS;
            if st.ns_per_op > limit {
                eprintln!(
                    "check FAIL: {name} ns_per_op {:.1} exceeds limit {:.1} \
                     (committed {:.1}, tolerance {tol_pct}% + {ABS_SLACK_NS}ns)",
                    st.ns_per_op, limit, base
                );
                ok = false;
            }
        }
        if let Some(base) = extract_number(&obj, "allocs_per_op") {
            if st.allocs_per_op > base + ALLOC_SLACK {
                eprintln!(
                    "check FAIL: {name} allocs_per_op {:.2} grew past committed {:.2}",
                    st.allocs_per_op, base
                );
                ok = false;
            }
        }
    }
    if ok {
        println!(
            "check: all stages within {tol_pct}% (+{ABS_SLACK_NS}ns) of {}",
            path.display()
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut check_path: Option<std::path::PathBuf> = None;
    let mut tol_pct = 10.0f64;
    let mut it = args.iter();
    let missing = |flag: &str| -> ! {
        eprintln!("{flag} requires a value; see --help");
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(std::path::PathBuf::from(p)),
                None => missing("--json"),
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(std::path::PathBuf::from(p)),
                None => missing("--check"),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => tol_pct = v,
                _ => missing("--tolerance"),
            },
            "--quick" => quick = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}; see --help");
                std::process::exit(2);
            }
        }
    }

    println!("== hot-path stages (ns/op, allocs/op) ==");
    let stages: Vec<(&str, Stage)> = vec![
        ("queue_push_pop", stage_queue_push_pop(quick)),
        ("rohc_compress_confirm", stage_compress_confirm(quick)),
        ("rohc_decompress_blob21", stage_decompress_blob(quick)),
        ("driver_blob_rebuild_x8", stage_blob_rebuild(quick)),
        ("cid_lookup_x64", stage_cid_lookup(quick)),
        ("md5_cid", stage_md5_cid(quick)),
        ("header_serialize", stage_header_serialize(quick)),
        ("dense_9bss_e2e", stage_dense_e2e(quick)),
        ("roam_handoff_e2e", stage_roam_handoff_e2e(quick)),
        ("short_flow_churn_e2e", stage_short_flow_churn(quick)),
    ];
    for (name, st) in &stages {
        println!(
            "{name:<26} {:>12.1} ns/op {:>8.2} allocs/op",
            st.ns_per_op, st.allocs_per_op
        );
    }

    println!("\n== end-to-end: 802.11n 150 Mbps, 1 client, TCP/HACK ==");
    let e2e = end_to_end(quick);
    println!(
        "{:.0} events/sec  ({:.0} ns/event, {} events, {:.2} allocs/event, {:.1} Mbps goodput)",
        e2e.events_per_sec, e2e.ns_per_event, e2e.events, e2e.allocs_per_event, e2e.goodput_mbps
    );

    if let Some(path) = &json_path {
        // Preserve a previously recorded baseline so the file carries a
        // before/after trajectory; the first ever run seeds the baseline
        // from its own "current" on the *next* run.
        let previous = std::fs::read_to_string(path).ok();
        let baseline = previous
            .as_deref()
            .and_then(|t| extract_object(t, "baseline").or_else(|| extract_object(t, "current")));
        let current = current_json(&e2e, &stages);
        let speedup = baseline
            .as_deref()
            .and_then(|b| extract_number(b, "events_per_sec"))
            .map(|b| e2e.events_per_sec / b);

        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str("  \"benchmark\": \"hack hot path: calendar queue + ACK pipeline\",\n");
        let _ = writeln!(out, "  \"quick\": {quick},");
        match &baseline {
            Some(b) => {
                let _ = writeln!(out, "  \"baseline\": {b},");
            }
            None => out.push_str("  \"baseline\": null,\n"),
        }
        let _ = writeln!(out, "  \"current\": {current},");
        match speedup {
            Some(sp) => {
                let _ = writeln!(out, "  \"speedup_events_per_sec\": {}", fmt_f64(sp));
            }
            None => out.push_str("  \"speedup_events_per_sec\": null\n"),
        }
        out.push_str("}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
        if let Some(sp) = speedup {
            println!("speedup vs recorded baseline: {sp:.2}x");
        }
    }

    if let Some(path) = &check_path {
        println!();
        if !run_check(path, &stages, tol_pct) {
            std::process::exit(1);
        }
    }
}
