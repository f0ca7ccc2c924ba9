//! Regenerate every table and figure of the HACK paper (USENIX ATC '14).
//!
//! Run `experiments --help` (or see [`hack_bench::USAGE`]) for the
//! subcommand list and flags. The sweep-shaped subcommands
//! (`loss-sweep`, `fault-matrix`, `chaos-recovery`, `campaign-smoke`)
//! run on the `hack-campaign` engine: declarative axes over
//! [`ScenarioConfig`], the shared worker pool, and an optional
//! content-addressed result cache (`--cache <dir>`) — with
//! byte-identical output at any thread count.

use hack_analysis::{CapacityModel, Protocol};
use hack_bench::{run_seeds, set_trace_base, CommonOpts, USAGE};
use hack_campaign::{campaign_csv, campaign_json, run_campaign, Axis, CellReport, SweepSpec};
use hack_core::{
    run_auto, run_dense, BssSpec, CbrConfig, CcKind, ChannelChange, ChannelEvent,
    CompressSideStats, CorruptModel, DenseOptions, DenseReport, FlowHealth, GeParams, HackMode,
    LossConfig, OnOffConfig, RoamEvent, RunResult, ScenarioBuilder, ScenarioConfig,
    ShortFlowConfig, SupervisorConfig, SupervisorReport, TrafficClass, TrafficModel,
};
use hack_phy::{Channel, PhyRate, StationId, DOT11A_RATES_MBPS, DOT11N_HT40_SGI_MBPS};
use hack_sim::{QuantileSketch, RunStats, SimDuration};

type Opts = CommonOpts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, positional) = match CommonOpts::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if opts.help {
        print!("{USAGE}");
        return;
    }
    if let Some(p) = opts.trace.clone() {
        set_trace_base(p);
    }
    let cmd = positional.as_deref().unwrap_or("all");

    match cmd {
        "fig1a" => fig1a(),
        "fig1b" => fig1b(),
        "fig9" => fig9(&opts),
        "table1" => table1(&opts),
        "table2" => table2(&opts),
        "table3" => table3(&opts),
        "xval" => xval(&opts),
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "loss-sweep" => loss_sweep(&opts),
        "fault-matrix" => fault_matrix(&opts),
        "chaos-recovery" => chaos_recovery(&opts),
        "campaign-smoke" => campaign_smoke(&opts),
        "cc-matrix" => cc_matrix(&opts),
        "traffic-matrix" => traffic_matrix(&opts),
        "dense-sweep" => dense_sweep(&opts),
        "dense-smoke" => dense_smoke(&opts),
        "roam-chaos" => roam_chaos(&opts),
        "ablate-timer" => ablate_timer(&opts),
        "ablate-delack" => ablate_delack(&opts),
        "ablate-sync" => ablate_sync(&opts),
        "ablate-txop" => ablate_txop(&opts),
        "all" => {
            fig1a();
            fig1b();
            fig9(&opts);
            table1(&opts);
            table2(&opts);
            table3(&opts);
            xval(&opts);
            fig10(&opts);
            fig11(&opts);
            fig12(&opts);
            loss_sweep(&opts);
            fault_matrix(&opts);
            chaos_recovery(&opts);
            campaign_smoke(&opts);
            cc_matrix(&opts);
            traffic_matrix(&opts);
            dense_sweep(&opts);
            dense_smoke(&opts);
            roam_chaos(&opts);
            ablate_timer(&opts);
            ablate_delack(&opts);
            ablate_sync(&opts);
            ablate_txop(&opts);
        }
        other => {
            eprintln!("unknown subcommand {other:?}; see --help");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n===== {title} =====");
}

/// `mean ± std` goodput string for one campaign cell, matching the
/// `RunStats` display the direct-run tables use.
fn cell_goodput(cell: &CellReport) -> String {
    let mut s = RunStats::new();
    for r in &cell.runs {
        s.push(r.aggregate_goodput_mbps);
    }
    s.to_string()
}

// ----------------------------------------------------------------------
// Figure 1: analytical capacity
// ----------------------------------------------------------------------

fn fig1a() {
    banner("Figure 1(a): theoretical goodput, 802.11a (Mbps)");
    let m = CapacityModel::dot11a();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>8}",
        "rate", "TCP/802.11a", "TCP/HACK", "UDP", "gain"
    );
    for &mbps in &DOT11A_RATES_MBPS {
        let r = PhyRate::dot11a(mbps);
        let tcp = m.goodput_dot11a(r, Protocol::Tcp);
        let hack = m.goodput_dot11a(r, Protocol::TcpHack);
        let udp = m.goodput_dot11a(r, Protocol::Udp);
        println!(
            "{mbps:>6} {tcp:>12.2} {hack:>12.2} {udp:>12.2} {:>7.1}%",
            (hack / tcp - 1.0) * 100.0
        );
    }
}

fn fig1b() {
    banner("Figure 1(b): theoretical goodput, 802.11n (Mbps)");
    let m = CapacityModel::dot11n();
    let rates: Vec<u64> = {
        let mut v: Vec<u64> = DOT11N_HT40_SGI_MBPS
            .iter()
            .flat_map(|&b| (1..=4u64).map(move |s| b * s))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>8}",
        "rate", "TCP/802.11n", "TCP/HACK", "UDP", "gain"
    );
    for mbps in rates {
        let r = PhyRate::ht(mbps);
        let tcp = m.goodput_dot11n(r, Protocol::Tcp);
        let hack = m.goodput_dot11n(r, Protocol::TcpHack);
        let udp = m.goodput_dot11n(r, Protocol::Udp);
        println!(
            "{mbps:>6} {tcp:>12.2} {hack:>12.2} {udp:>12.2} {:>7.1}%",
            (hack / tcp - 1.0) * 100.0
        );
    }
}

// ----------------------------------------------------------------------
// Figure 9 / Table 1: the SoRa testbed
// ----------------------------------------------------------------------

fn sora_cfg(clients: &str, mode: HackMode, udp: bool, opts: &Opts) -> ScenarioConfig {
    let mut cfg = match clients {
        "c1" => ScenarioBuilder::sora_testbed(1, mode).build(),
        "c2" => {
            let mut c = ScenarioBuilder::sora_testbed(1, mode).build();
            c.loss = LossConfig::PerClient(vec![0.02]);
            c
        }
        _ => ScenarioBuilder::sora_testbed(2, mode).build(),
    };
    cfg.duration = SimDuration::from_secs(opts.secs);
    if udp {
        cfg.traffic = TrafficModel::UdpDownload;
    }
    cfg
}

fn fig9(opts: &Opts) {
    banner("Figure 9: SoRa testbed mean goodput (Mbps), mean ± std over runs");
    println!("(paper anchors at 54 Mbps: UDP ≈ 26.5, TCP/HACK ≈ 25.0, TCP/802.11a ≈ 19.4)");
    for (label, clients) in [
        ("One client (C1)", "c1"),
        ("One client (C2)", "c2"),
        ("Both clients", "both"),
    ] {
        println!("-- {label} --");
        for (tag, mode, udp) in [
            ("U", HackMode::Disabled, true),
            ("H", HackMode::MoreData, false),
            ("T", HackMode::Disabled, false),
        ] {
            let mr = run_seeds(&sora_cfg(clients, mode, udp, opts), opts.seeds);
            if clients == "both" {
                if udp {
                    // UDP has per-client meters too.
                    let c1 = mr.flow_goodput(0);
                    let c2 = mr.flow_goodput(1);
                    println!("  {tag}: client1 {c1}   client2 {c2}");
                } else {
                    let c1 = mr.flow_goodput(0);
                    let c2 = mr.flow_goodput(1);
                    println!("  {tag}: client1 {c1}   client2 {c2}");
                }
            } else {
                println!("  {tag}: {}", mr.aggregate_goodput());
            }
        }
    }
}

fn table1(opts: &Opts) {
    banner("Table 1: % of data frames needing no retries (AP transmissions)");
    println!("(paper: UDP 99 %, TCP/HACK 97-98 %, TCP/802.11a 86-88 %)");
    println!(
        "{:<18} {:>12} {:>12} {:>12}",
        "", "UDP/802.11a", "TCP/HACK", "TCP/802.11a"
    );
    for (label, clients) in [
        ("Client 1 alone", "c1"),
        ("Client 2 alone", "c2"),
        ("Both clients", "both"),
    ] {
        let mut row = format!("{label:<18}");
        for (mode, udp) in [
            (HackMode::Disabled, true),
            (HackMode::MoreData, false),
            (HackMode::Disabled, false),
        ] {
            let mr = run_seeds(&sora_cfg(clients, mode, udp, opts), opts.seeds);
            let f = mr.ap_first_try();
            row.push_str(&format!(" {:>11.1}%", f.mean() * 100.0));
        }
        println!("{row}");
    }
}

// ----------------------------------------------------------------------
// Tables 2 and 3: the 25 MB transfer
// ----------------------------------------------------------------------

fn transfer_cfg(mode: HackMode) -> ScenarioConfig {
    let mut cfg = ScenarioBuilder::sora_testbed(1, mode).build();
    cfg.transfer_bytes = Some(25_000_000);
    cfg.duration = SimDuration::from_secs(60);
    cfg
}

fn table2(_opts: &Opts) {
    banner("Table 2: ACK accounting over a 25 MB transfer");
    println!("(paper: TCP 9060 ACKs / 471120 B; HACK 10 native + 9050 compressed, ratio 12)");
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>8}",
        "", "ACK count", "ACK bytes", "ACKC count", "ACKC bytes", "ratio"
    );
    for (label, mode) in [
        ("TCP/802.11a", HackMode::Disabled),
        ("TCP/HACK", HackMode::MoreData),
    ] {
        let mr = run_seeds(&transfer_cfg(mode), 1);
        let r = &mr.runs[0];
        let d = &r.driver[0];
        let ratio = r.compressor[0].ratio();
        println!(
            "{label:<14} {:>10} {:>12} {:>10} {:>12} {:>8.1}",
            d.native_acks, d.native_ack_bytes, d.hacked_acks, d.hacked_ack_bytes, ratio,
        );
        if let Some(t) = r.completion() {
            println!("  (transfer completed in {:.2} s)", t.as_secs_f64());
        }
    }
}

fn table3(_opts: &Opts) {
    banner("Table 3: TCP ACK time overheads over a 25 MB transfer (ms)");
    println!("(paper: TCP 70/0/1093/456; HACK 0.08/13.1/1.17/0.46)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>14}",
        "", "TCP ACK", "ROHC", "Channel", "LL ACK ovh"
    );
    for (label, mode) in [
        ("TCP/802.11a", HackMode::Disabled),
        ("TCP/HACK", HackMode::MoreData),
    ] {
        let mr = run_seeds(&transfer_cfg(mode), 1);
        let r = &mr.runs[0];
        let client = &r.mac[1];
        let ms = |d: hack_sim::SimDuration| d.as_nanos() as f64 / 1e6;
        println!(
            "{label:<14} {:>10.2} {:>10.2} {:>10.2} {:>14.2}",
            ms(client.airtime_ack.total()),
            ms(client.airtime_blob.total()),
            ms(client.acquire_wait_ack.total()),
            ms(client.ll_ack_overhead.total()),
        );
    }
    let mr = run_seeds(&transfer_cfg(HackMode::MoreData), 1);
    println!(
        "(blob fits within AIFS on {:.1}% of augmented LL ACKs; paper: 98.5%)",
        mr.runs[0].blob_within_aifs * 100.0
    );
}

// ----------------------------------------------------------------------
// §4.2 cross-validation
// ----------------------------------------------------------------------

fn xval(opts: &Opts) {
    banner("Cross-validation (§4.2): fixed-loss 802.11a, with/without SoRa LL ACK delay");
    println!("(paper: TCP 22.4 ideal vs 19.6 SoRa; HACK 28 ideal vs 25.5 SoRa)");
    println!(
        "{:<12} {:>6} {:>18} {:>18}",
        "protocol", "loss", "ideal LL ACKs", "SoRa LL ACKs"
    );
    for (label, mode, loss) in [
        ("TCP/802.11a", HackMode::Disabled, 0.12),
        ("TCP/HACK", HackMode::MoreData, 0.02),
    ] {
        let mut row = format!("{label:<12} {:>5.0}%", loss * 100.0);
        for sora in [false, true] {
            let mut cfg = ScenarioBuilder::sora_testbed(1, mode).build();
            cfg.loss = LossConfig::PerClient(vec![loss]);
            cfg.sora_quirks = sora;
            cfg.duration = SimDuration::from_secs(opts.secs);
            let mr = run_seeds(&cfg, opts.seeds);
            row.push_str(&format!(" {:>18}", mr.aggregate_goodput().to_string()));
        }
        println!("{row}");
    }
}

// ----------------------------------------------------------------------
// Fault injection: loss-rate sweep and the CI fault matrix
// ----------------------------------------------------------------------

const SWEEP_LOSSES: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];

/// The loss sweep as a declarative campaign: loss × channel × mode.
///
/// The `chan` axis's "burst" point *reads* the i.i.d. rate the `loss`
/// axis installed and rewrites it as an equal-mean Gilbert–Elliott
/// model — axes apply in declaration order, so later axes may refine
/// earlier ones.
fn loss_sweep_spec(opts: &Opts) -> SweepSpec {
    let mut base = ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build();
    base.duration = SimDuration::from_secs(opts.secs);
    let seed = base.seed;
    let mut loss_axis = Axis::new("loss");
    for loss in SWEEP_LOSSES {
        loss_axis = loss_axis.point(format!("{:.0}%", loss * 100.0), move |c| {
            c.loss = LossConfig::PerClient(vec![loss]);
        });
    }
    SweepSpec::new("loss-sweep", base)
        .axis(loss_axis)
        .axis(Axis::new("chan").point("iid", |_| {}).point("burst", |c| {
            if let LossConfig::PerClient(per) = &c.loss {
                let mean = per.first().copied().unwrap_or(0.0);
                c.loss = LossConfig::Burst(GeParams::bursty(mean, 8.0));
            }
        }))
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .seed_bank(seed, opts.seeds)
}

fn loss_sweep(opts: &Opts) {
    banner("Loss sweep: goodput (Mbps) vs loss rate, i.i.d. vs bursty (mean burst 8)");
    println!("(same mean loss, different clustering: Gilbert–Elliott trades back-to-back");
    println!(" losses for longer clean spells, which A-MPDU retries ride out differently)");
    println!(
        "{:<6} {:>16} {:>16} {:>16} {:>16}",
        "loss", "TCP iid", "HACK iid", "TCP burst", "HACK burst"
    );
    let report = run_campaign(&loss_sweep_spec(opts), &opts.campaign());
    // Cells are odometer-ordered (mode fastest, then chan, then loss):
    // cell = (loss_idx * 2 + chan_idx) * 2 + mode_idx.
    for (li, loss) in SWEEP_LOSSES.iter().enumerate() {
        let mut row = format!("{:>4.0}% ", loss * 100.0);
        for chan in 0..2 {
            for mode in 0..2 {
                let cell = (li * 2 + chan) * 2 + mode;
                match report.cells.iter().find(|c| c.cell == cell) {
                    Some(c) => row.push_str(&format!(" {:>16}", cell_goodput(c))),
                    None => row.push_str(&format!(" {:>16}", "-")),
                }
            }
        }
        println!("{row}");
    }
    if opts.json {
        println!("{}", campaign_json(&report));
    }
}

/// Hand-rolled JSON for one compress side's driver counters.
fn driver_json(d: &CompressSideStats) -> String {
    format!(
        "{{\"native_acks\":{},\"hacked_acks\":{},\"timer_flushes\":{},\
         \"noop_flushes\":{},\"dropped_on_flush\":{},\"spilled\":{},\
         \"reenqueued\":{},\"forced_native\":{}}}",
        d.native_acks,
        d.hacked_acks,
        d.timer_flushes,
        d.noop_flushes,
        d.dropped_on_flush,
        d.spilled,
        d.reenqueued,
        d.forced_native,
    )
}

/// Hand-rolled JSON for one flow's supervisor outcome.
fn supervisor_json(rep: &SupervisorReport) -> String {
    format!(
        "{{\"final_state\":\"{}\",\"degraded\":{},\"fallbacks\":{},\
         \"probations\":{},\"recoveries\":{},\"refreshes\":{}}}",
        rep.final_state.name(),
        rep.stats.degraded,
        rep.stats.fallbacks,
        rep.stats.probations,
        rep.stats.recoveries,
        rep.stats.refreshes,
    )
}

/// One human-readable supervisor summary line (per flow).
fn supervisor_line(rep: &SupervisorReport) -> String {
    format!(
        "final={} degraded={} fallbacks={} probations={} recoveries={} refreshes={}",
        rep.final_state.name(),
        rep.stats.degraded,
        rep.stats.fallbacks,
        rep.stats.probations,
        rep.stats.recoveries,
        rep.stats.refreshes,
    )
}

fn fault_matrix(opts: &Opts) {
    banner("Fault matrix: one seeded run per loss model (CI smoke)");
    println!("(fails the process on zero goodput, or if the corrupting row never");
    println!(" exercises the FCS / ROHC CRC-3 corrupted-delivery path; the last");
    println!(" row re-runs the corrupting model with the HACK supervisor on)");
    println!(
        "{:<12} {:>10} {:>10} {:>9} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6}",
        "model",
        "goodput",
        "fcs_bad",
        "crc_fail",
        "native",
        "hacked",
        "spill",
        "tflush",
        "noop",
        "drop"
    );
    const CORRUPTING: CorruptModel = CorruptModel {
        data_frac: 0.5,
        control_per: 0.02,
        fcs_miss: 0.25,
    };
    let mut base = ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build();
    base.duration = SimDuration::from_secs(opts.secs);
    // One model axis, one seed: each point is a self-contained fault
    // scenario layered onto the shared base.
    let spec = SweepSpec::new("fault-matrix", base).axis(
        Axis::new("model")
            .point("ideal", |c| c.loss = LossConfig::Ideal)
            .point("fixed", |c| c.loss = LossConfig::PerClient(vec![0.12]))
            .point("burst", |c| {
                c.loss = LossConfig::Burst(GeParams::bursty(0.12, 8.0));
            })
            .point("corrupting", |c| {
                c.loss = LossConfig::Burst(GeParams::bursty(0.12, 8.0));
                c.corrupt = Some(CORRUPTING);
            })
            .point("supervised", |c| {
                c.loss = LossConfig::Burst(GeParams::bursty(0.12, 8.0));
                c.corrupt = Some(CORRUPTING);
                c.supervisor = Some(SupervisorConfig::default());
            }),
    );
    let report = run_campaign(&spec, &opts.campaign());
    let mut failed = false;
    let mut json_rows = Vec::new();
    for cell in &report.cells {
        let label = cell.labels[0].as_str();
        let supervised = label == "supervised";
        let r = &cell.runs[0];
        let d = &r.driver[0];
        let fcs_bad: u64 = r.mac.iter().map(|m| m.rx_fcs_bad.get()).sum();
        let crc = r.decompressor.crc_failures;
        let goodput = cell.goodput.mean;
        let mut verdict = "";
        if goodput <= 0.0 {
            verdict = "  <-- FAIL: zero goodput";
            failed = true;
        } else if label == "corrupting" && (fcs_bad == 0 || crc == 0) {
            // The supervised row may legitimately mute the CRC path by
            // falling back to native ACKs, so the silent-path check only
            // gates the unsupervised corrupting row.
            verdict = "  <-- FAIL: corrupted-delivery path silent";
            failed = true;
        }
        println!(
            "{label:<12} {goodput:>8.2} M {fcs_bad:>10} {crc:>9} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6}{verdict}",
            d.native_acks, d.hacked_acks, d.spilled, d.timer_flushes, d.noop_flushes,
            d.dropped_on_flush
        );
        if supervised {
            for rep in &r.supervisor {
                println!("             supervisor: {}", supervisor_line(rep));
            }
        }
        let sup = r
            .supervisor
            .first()
            .map_or_else(|| "null".into(), supervisor_json);
        json_rows.push(format!(
            "{{\"model\":\"{label}\",\"goodput_mbps\":{goodput:.3},\
             \"rx_fcs_bad\":{fcs_bad},\"crc_failures\":{crc},\
             \"driver\":{},\"supervisor\":{sup}}}",
            driver_json(d)
        ));
    }
    if opts.json {
        println!("{{\"fault_matrix\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
    println!("fault matrix OK");
}

// ----------------------------------------------------------------------
// Chaos recovery: the supervisor's CI smoke
// ----------------------------------------------------------------------

/// The PR 3 "everything on" fault scenario (bursty loss + corrupted
/// delivery + mid-run dynamics) — identical to the one the supervisor
/// integration tests run. Seeds come from the campaign's seed bank.
fn chaos_faulty(mode: HackMode, supervised: bool) -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, mode).build();
    c.duration = SimDuration::from_secs(2);
    c.loss = LossConfig::Burst(GeParams::bursty(0.08, 6.0));
    c.corrupt = Some(CorruptModel {
        data_frac: 0.5,
        control_per: 0.02,
        fcs_miss: 0.25,
    });
    c.dynamics = vec![
        ChannelEvent {
            at: SimDuration::from_millis(600),
            change: ChannelChange::ClientLoss {
                client: 0,
                per: 0.1,
            },
        },
        ChannelEvent {
            at: SimDuration::from_millis(1200),
            change: ChannelChange::SnrOffsetDb(-3.0),
        },
    ];
    if supervised {
        c.supervisor = Some(SupervisorConfig::default());
    }
    c
}

/// A 60 % loss storm that heals to 2 % mid-run: drives the full
/// degrade → fallback → probation → recovery arc.
fn chaos_storm() -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build();
    c.duration = SimDuration::from_secs(4);
    c.loss = LossConfig::PerClient(vec![0.6]);
    c.dynamics = vec![ChannelEvent {
        at: SimDuration::from_millis(1500),
        change: ChannelChange::ClientLoss {
            client: 0,
            per: 0.02,
        },
    }];
    c.supervisor = Some(SupervisorConfig::default());
    c
}

fn chaos_recovery(opts: &Opts) {
    banner("Chaos recovery: supervised HACK under faults + a healing loss storm");
    println!("(fails the process if any supervised flow ends the run stalled — zero");
    println!(" goodput in the final window — or permanently degraded despite a");
    println!(" healthy channel at the end of the storm scenario)");
    let matrix_seeds: &[u64] = if opts.quick {
        &[13, 21]
    } else {
        &[13, 21, 34, 89]
    };
    let storm_seeds: &[u64] = if opts.quick { &[5, 9] } else { &[5, 9, 17] };
    let mut failed = false;
    let mut json_rows = Vec::new();

    println!("-- corrupting/burst matrix: plain TCP vs supervised TCP/HACK --");
    println!(
        "{:>6} {:>10} {:>10} {:>10}  supervisor",
        "seed", "tcp", "hack+sup", "final-win"
    );
    let mut tcp_total = 0.0;
    let mut sup_total = 0.0;
    // One campaign: a protocol axis (plain TCP vs supervised HACK) over
    // the matrix seed bank. Cell 0 is TCP, cell 1 supervised HACK; runs
    // come back in seed-bank order.
    let faulty_spec = SweepSpec::new("chaos-faulty", chaos_faulty(HackMode::Disabled, false))
        .axis(
            Axis::new("proto")
                .point("tcp", |c| {
                    c.hack_mode = HackMode::Disabled;
                    c.supervisor = None;
                })
                .point("hack+sup", |c| {
                    c.hack_mode = HackMode::MoreData;
                    c.supervisor = Some(SupervisorConfig::default());
                }),
        )
        .seeds(matrix_seeds.to_vec());
    let faulty = run_campaign(&faulty_spec, &opts.campaign());
    for (i, &seed) in matrix_seeds.iter().enumerate() {
        let (tcp, sup) = (&faulty.cells[0].runs[i], &faulty.cells[1].runs[i]);
        tcp_total += tcp.aggregate_goodput_mbps;
        sup_total += sup.aggregate_goodput_mbps;
        let mut verdict = "";
        if stalled(sup) {
            verdict = "  <-- FAIL: flow ended stalled";
            failed = true;
        }
        let final_win = sup.flow_goodput_final_mbps[0];
        println!(
            "{seed:>6} {:>8.2} M {:>8.2} M {final_win:>8.2} M  {}{verdict}",
            tcp.aggregate_goodput_mbps,
            sup.aggregate_goodput_mbps,
            supervisor_line(&sup.supervisor[0]),
        );
        json_rows.push(format!(
            "{{\"scenario\":\"faulty\",\"seed\":{seed},\
             \"tcp_goodput_mbps\":{:.3},\"sup_goodput_mbps\":{:.3},\
             \"final_window_mbps\":{final_win:.3},\
             \"driver\":{},\"supervisor\":{}}}",
            tcp.aggregate_goodput_mbps,
            sup.aggregate_goodput_mbps,
            driver_json(&sup.driver[0]),
            supervisor_json(&sup.supervisor[0]),
        ));
    }
    println!(
        "aggregate: plain TCP {tcp_total:.2} M, supervised HACK {sup_total:.2} M ({})",
        if sup_total >= tcp_total {
            "supervision kept HACK's edge"
        } else {
            "WARNING: supervised HACK behind plain TCP on this seed set"
        }
    );

    println!("-- loss storm (60 % -> 2 % at 1.5 s): fallback must recover --");
    println!(
        "{:>6} {:>10} {:>10}  supervisor",
        "seed", "goodput", "final-win"
    );
    let storm_spec = SweepSpec::new("chaos-storm", chaos_storm()).seeds(storm_seeds.to_vec());
    let storm = run_campaign(&storm_spec, &opts.campaign());
    for (i, &seed) in storm_seeds.iter().enumerate() {
        let r = &storm.cells[0].runs[i];
        let rep = &r.supervisor[0];
        let mut verdict = "";
        if stalled(r) {
            verdict = "  <-- FAIL: flow ended stalled";
            failed = true;
        } else if rep.final_state != FlowHealth::Healthy {
            verdict = "  <-- FAIL: degraded despite healthy channel";
            failed = true;
        }
        let final_win = r.flow_goodput_final_mbps[0];
        println!(
            "{seed:>6} {:>8.2} M {final_win:>8.2} M  {}{verdict}",
            r.aggregate_goodput_mbps,
            supervisor_line(rep),
        );
        json_rows.push(format!(
            "{{\"scenario\":\"storm_heal\",\"seed\":{seed},\
             \"sup_goodput_mbps\":{:.3},\"final_window_mbps\":{final_win:.3},\
             \"driver\":{},\"supervisor\":{}}}",
            r.aggregate_goodput_mbps,
            driver_json(&r.driver[0]),
            supervisor_json(rep),
        ));
    }
    if opts.json {
        println!("{{\"chaos_recovery\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
    println!("chaos recovery OK");
}

/// A flow is stalled if it moved no data in the run's final window.
fn stalled(r: &RunResult) -> bool {
    r.flow_goodput_final_mbps.iter().any(|&g| g <= 0.0)
}

// ----------------------------------------------------------------------
// Campaign smoke: the engine's own CI gate
// ----------------------------------------------------------------------

/// A tiny 2×2×2 sweep (loss × mode × 2 seeds) exercising the whole
/// campaign stack: fails the process if parallel and serial execution
/// emit different aggregates, or if a second cached run resolves fewer
/// than 90% of its jobs from the cache.
fn campaign_smoke(opts: &Opts) {
    banner("Campaign smoke: 2×2×2 sweep — parallel determinism + cache hit rate");
    let mut base = ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build();
    if opts.quick {
        // Keep a real steady-state window (default warmup is 1 s).
        base.warmup = SimDuration::from_millis(200);
        base.duration = SimDuration::from_millis(800);
    } else {
        base.duration = SimDuration::from_secs(2);
    }
    let seed = base.seed;
    let spec = SweepSpec::new("campaign-smoke", base)
        .axis(
            Axis::new("loss")
                .point("2%", |c| c.loss = LossConfig::PerClient(vec![0.02]))
                .point("5%", |c| c.loss = LossConfig::PerClient(vec![0.05])),
        )
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .seed_bank(seed, 2);

    // (1) Determinism: one worker vs the full pool, byte for byte.
    let mut serial_opts = opts.campaign();
    serial_opts.threads = 1;
    serial_opts.cache_dir = None;
    let mut parallel_opts = opts.campaign();
    parallel_opts.cache_dir = None;
    let serial = run_campaign(&spec, &serial_opts);
    let parallel = run_campaign(&spec, &parallel_opts);
    let serial_json = campaign_json(&serial);
    if serial_json != campaign_json(&parallel) {
        eprintln!("FAIL: parallel and serial campaigns emitted different reports");
        std::process::exit(1);
    }
    println!(
        "determinism: serial == parallel over {} jobs ({} cells)",
        serial.jobs_total,
        serial.cells.len()
    );

    // (2) Cache: run the same sweep twice through a cache directory.
    let scratch = opts.cache_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("hack-campaign-smoke-{}", std::process::id()))
    });
    let ephemeral = opts.cache_dir.is_none();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let mut cached_opts = opts.campaign();
    cached_opts.cache_dir = Some(scratch.clone());
    let first = run_campaign(&spec, &cached_opts);
    let second = run_campaign(&spec, &cached_opts);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let hit_rate = second.cache_hits as f64 / second.jobs_total.max(1) as f64;
    println!(
        "cache: first run {} executed / {} hits, second run {} executed / {} hits ({:.0}% hit rate)",
        first.jobs_executed,
        first.cache_hits,
        second.jobs_executed,
        second.cache_hits,
        hit_rate * 100.0
    );
    if hit_rate < 0.9 {
        eprintln!("FAIL: second run hit rate {:.0}% < 90%", hit_rate * 100.0);
        std::process::exit(1);
    }
    // Cached results must feed the same aggregates as fresh ones.
    let tail = |s: &str| s[s.find("\"cells\":").map_or(0, |i| i)..].to_string();
    if tail(&campaign_json(&second)) != tail(&serial_json) {
        eprintln!("FAIL: cache round-trip changed the aggregates");
        std::process::exit(1);
    }
    print!("{}", campaign_csv(&second));
    if opts.json {
        println!("{}", campaign_json(&second));
    }
    println!("campaign smoke OK");
}

// ----------------------------------------------------------------------
// CC matrix: the congestion-control suite's CI gate
// ----------------------------------------------------------------------

/// Sampler-derived mean RTT for one campaign cell, in milliseconds,
/// aggregated over every sender flow in every seeded run.
fn cell_mean_rtt_ms(cell: &CellReport) -> Option<f64> {
    let (mut sum_us, mut n) = (0u64, 0u64);
    for r in &cell.runs {
        for t in &r.sender_tcp {
            sum_us += t.rtt_sum_us;
            n += t.rtt_samples;
        }
    }
    (n > 0).then(|| sum_us as f64 / n as f64 / 1000.0)
}

/// Every congestion controller × HACK on/off × {ideal, burst} channel,
/// over the common seed bank. Fails the process on zero goodput in any
/// cell, a dead delivery-rate sampler (no RTT samples — the trait
/// plumbing regressed), or a parallel run diverging from a serial one
/// (a controller smuggled nondeterminism — wall-clock time, iteration
/// order — into the sim).
fn cc_matrix(opts: &Opts) {
    banner("CC matrix: {reno,cubic,hstcp,bbr} × hack × channel (CI smoke)");
    println!("(fails the process on zero goodput, a silent RTT sampler, or");
    println!(" parallel ≠ serial campaign reports; goodput is mean over seeds,");
    println!(" rtt is the delivery-rate sampler's mean across flows and seeds)");
    let mut base = ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build();
    base.duration = SimDuration::from_secs(opts.secs);
    let seed = base.seed;
    let mut cc_axis = Axis::new("cc");
    for kind in CcKind::ALL {
        cc_axis = cc_axis.point(kind.name(), move |c| c.cc = kind);
    }
    // Odometer-ordered (mode fastest, then chan, then cc):
    // cell = (cc_idx * 2 + chan_idx) * 2 + mode_idx.
    let spec = SweepSpec::new("cc-matrix", base)
        .axis(cc_axis)
        .axis(
            Axis::new("chan")
                .point("ideal", |c| c.loss = LossConfig::Ideal)
                .point("burst", |c| {
                    c.loss = LossConfig::Burst(GeParams::bursty(0.05, 8.0));
                }),
        )
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .seed_bank(seed, opts.seeds);

    let report = run_campaign(&spec, &opts.campaign());
    // Determinism gate: one worker must reproduce the pool byte for byte.
    let mut serial_opts = opts.campaign();
    serial_opts.threads = 1;
    if campaign_json(&run_campaign(&spec, &serial_opts)) != campaign_json(&report) {
        eprintln!("FAIL: parallel and serial cc-matrix reports differ");
        std::process::exit(1);
    }

    println!(
        "{:<6} {:<6} {:>14} {:>9} {:>14} {:>9}",
        "cc", "chan", "tcp", "rtt", "hack", "rtt"
    );
    let mut failed = false;
    let mut json_rows = Vec::new();
    for (cc_idx, kind) in CcKind::ALL.into_iter().enumerate() {
        for (chan_idx, chan) in ["ideal", "burst"].into_iter().enumerate() {
            let mut cols = String::new();
            for mode_idx in 0..2 {
                let cell = &report.cells[(cc_idx * 2 + chan_idx) * 2 + mode_idx];
                debug_assert_eq!(cell.labels, [kind.name(), chan, ["tcp", "hack"][mode_idx]]);
                let rtt = cell_mean_rtt_ms(cell);
                let mut verdict = "";
                if cell.goodput.mean <= 0.0 {
                    verdict = "  <-- FAIL: zero goodput";
                    failed = true;
                } else if rtt.is_none() {
                    verdict = "  <-- FAIL: RTT sampler silent";
                    failed = true;
                }
                let rtt_s = rtt.map_or_else(|| "-".into(), |ms| format!("{ms:.1}"));
                cols += &format!(" {:>14} {rtt_s:>9}{verdict}", cell_goodput(cell));
                json_rows.push(format!(
                    "{{\"cc\":\"{}\",\"chan\":\"{chan}\",\"mode\":\"{}\",\
                     \"goodput_mbps\":{:.3},\"mean_rtt_ms\":{}}}",
                    kind.name(),
                    ["tcp", "hack"][mode_idx],
                    cell.goodput.mean,
                    rtt.map_or_else(|| "null".into(), |ms| format!("{ms:.3}")),
                ));
            }
            println!("{:<6} {chan:<6}{cols}", kind.name());
        }
    }
    if opts.json {
        println!("{{\"cc_matrix\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
    println!("cc matrix OK");
}

/// Merge one class's report across every seeded run of a campaign cell.
/// Returns `(transfers, fct, latency, jitter)` — sketches merged with
/// [`QuantileSketch::merge`], which is order-insensitive, so the result
/// is identical at any worker-thread count.
fn merged_class(
    cell: &CellReport,
    class: TrafficClass,
) -> (u64, QuantileSketch, QuantileSketch, QuantileSketch) {
    let mut transfers = 0;
    let mut fct = QuantileSketch::new();
    let mut latency = QuantileSketch::new();
    let mut jitter = QuantileSketch::new();
    for r in &cell.runs {
        if let Some(c) = r.class(class) {
            transfers += c.transfers;
            fct.merge(&c.fct);
            latency.merge(&c.latency);
            jitter.merge(&c.jitter);
        }
    }
    (transfers, fct, latency, jitter)
}

/// Every traffic model × HACK on/off × {ideal, burst} channel, over the
/// common seed bank — the scenario-diversity counterpart of
/// [`cc_matrix`]. Fails the process on zero goodput in any cell, on a
/// short-flow cell that completes no transfers, on a paced-UDP cell
/// whose latency sampler stays silent, on a bidirectional HACK cell
/// where either side's held-ACK counter is zero, or on a parallel run
/// diverging from a serial one.
fn traffic_matrix(opts: &Opts) {
    banner("Traffic matrix: {bulk,short,bidir,cbr,onoff} × hack × channel (CI smoke)");
    println!("(fails the process on zero goodput, a stalled short-flow loop,");
    println!(" a silent one-way-latency sampler, a one-sided bidirectional");
    println!(" HACK cell, or parallel ≠ serial campaign reports; percentiles");
    println!(" are FCT for TCP classes and one-way latency for paced UDP,");
    println!(" merged across seeds)");
    let mut base = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
    base.duration = SimDuration::from_secs(opts.secs);
    let seed = base.seed;
    // Odometer-ordered (mode fastest, then chan, then model):
    // cell = (model_idx * 2 + chan_idx) * 2 + mode_idx.
    const MODELS: [&str; 5] = ["bulk", "short", "bidir", "cbr", "onoff"];
    let model_of = |label: &str| -> TrafficModel {
        match label {
            "bulk" => TrafficModel::BulkDownload,
            "short" => TrafficModel::ShortFlows(ShortFlowConfig::default()),
            "bidir" => TrafficModel::Bidirectional,
            "cbr" => TrafficModel::Cbr(CbrConfig::default()),
            "onoff" => TrafficModel::OnOff(OnOffConfig::default()),
            other => unreachable!("unknown model label {other}"),
        }
    };
    let class_of = |label: &str| -> TrafficClass {
        match label {
            "bulk" => TrafficClass::Bulk,
            "short" => TrafficClass::Short,
            "bidir" => TrafficClass::Bidir,
            "cbr" => TrafficClass::Cbr,
            "onoff" => TrafficClass::OnOff,
            other => unreachable!("unknown model label {other}"),
        }
    };
    let mut model_axis = Axis::new("model");
    for label in MODELS {
        model_axis = model_axis.point(label, move |c| c.traffic = model_of(label));
    }
    let spec = SweepSpec::new("traffic-matrix", base)
        .axis(model_axis)
        .axis(
            Axis::new("chan")
                .point("ideal", |c| c.loss = LossConfig::Ideal)
                .point("burst", |c| {
                    c.loss = LossConfig::Burst(GeParams::bursty(0.05, 8.0));
                }),
        )
        .axis(
            Axis::new("mode")
                .point("tcp", |c| c.hack_mode = HackMode::Disabled)
                .point("hack", |c| c.hack_mode = HackMode::MoreData),
        )
        .seed_bank(seed, opts.seeds);

    let report = run_campaign(&spec, &opts.campaign());
    // Determinism gate: one worker must reproduce the pool byte for
    // byte. The jobs header of `campaign_json` counts cache hits, so
    // the comparison runs bypass the cache (a warm-cache report could
    // never byte-match a cold one even with identical physics).
    let mut serial_opts = opts.campaign();
    serial_opts.threads = 1;
    serial_opts.cache_dir = None;
    let serial_json = campaign_json(&run_campaign(&spec, &serial_opts));
    let parallel_json = if opts.cache_dir.is_some() {
        let mut parallel_opts = opts.campaign();
        parallel_opts.cache_dir = None;
        campaign_json(&run_campaign(&spec, &parallel_opts))
    } else {
        campaign_json(&report)
    };
    if serial_json != parallel_json {
        eprintln!("FAIL: parallel and serial traffic-matrix reports differ");
        std::process::exit(1);
    }

    let q_ms = |s: &QuantileSketch, q: f64| s.quantile(q).map(|ns| ns as f64 / 1e6);
    let fmt_q = |v: Option<f64>| v.map_or_else(|| "-".into(), |ms| format!("{ms:.1}"));
    println!(
        "{:<6} {:<6} {:<5} {:>14} {:>9} {:<4} {:>8} {:>8} {:>8} {:>8}",
        "model", "chan", "mode", "goodput", "transfers", "of", "p50ms", "p95ms", "p99ms", "jit95"
    );
    let mut failed = false;
    let mut json_rows = Vec::new();
    for (model_idx, model) in MODELS.into_iter().enumerate() {
        let class = class_of(model);
        let paced = matches!(class, TrafficClass::Cbr | TrafficClass::OnOff);
        for (chan_idx, chan) in ["ideal", "burst"].into_iter().enumerate() {
            for (mode_idx, mode) in ["tcp", "hack"].into_iter().enumerate() {
                let cell = &report.cells[(model_idx * 2 + chan_idx) * 2 + mode_idx];
                debug_assert_eq!(cell.labels, [model, chan, mode]);
                let (transfers, fct, latency, jitter) = merged_class(cell, class);
                // TCP classes report FCT percentiles; paced UDP reports
                // one-way delivery latency instead (a CBR stream never
                // "completes", so FCT is meaningless there).
                let (metric, sketch) = if paced {
                    ("lat", &latency)
                } else {
                    ("fct", &fct)
                };
                let mut verdict = String::new();
                if cell.goodput.mean <= 0.0 {
                    verdict = "  <-- FAIL: zero goodput".into();
                    failed = true;
                } else if class == TrafficClass::Short && (transfers == 0 || fct.count() == 0) {
                    verdict = "  <-- FAIL: short-flow loop stalled".into();
                    failed = true;
                } else if paced && latency.count() == 0 {
                    verdict = "  <-- FAIL: latency sampler silent".into();
                    failed = true;
                }
                if class == TrafficClass::Bidir && mode == "hack" {
                    // The acceptance bar for bidirectional HACK: the
                    // client driver (upload ACKs) and the AP driver
                    // (download ACKs) must both have held ACKs.
                    let (cli, ap) = cell.runs.iter().fold((0u64, 0u64), |(c, a), r| {
                        (
                            c + r.driver.iter().map(|d| d.hacked_acks).sum::<u64>(),
                            a + r.driver_ap.iter().map(|d| d.hacked_acks).sum::<u64>(),
                        )
                    });
                    if cli == 0 || ap == 0 {
                        verdict = format!(
                            "  <-- FAIL: one-sided bidir HACK (client {cli}, ap {ap} held)"
                        );
                        failed = true;
                    }
                }
                let jit = if paced { q_ms(&jitter, 0.95) } else { None };
                println!(
                    "{model:<6} {chan:<6} {mode:<5} {:>14} {transfers:>9} {metric:<4} {:>8} {:>8} {:>8} {:>8}{verdict}",
                    cell_goodput(cell),
                    fmt_q(q_ms(sketch, 0.5)),
                    fmt_q(q_ms(sketch, 0.95)),
                    fmt_q(q_ms(sketch, 0.99)),
                    fmt_q(jit),
                );
                let jnum =
                    |v: Option<f64>| v.map_or_else(|| "null".into(), |ms| format!("{ms:.3}"));
                json_rows.push(format!(
                    "{{\"model\":\"{model}\",\"chan\":\"{chan}\",\"mode\":\"{mode}\",\
                     \"goodput_mbps\":{:.3},\"transfers\":{transfers},\"metric\":\"{metric}\",\
                     \"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"jitter_p95_ms\":{}}}",
                    cell.goodput.mean,
                    jnum(q_ms(sketch, 0.5)),
                    jnum(q_ms(sketch, 0.95)),
                    jnum(q_ms(sketch, 0.99)),
                    jnum(jit),
                ));
            }
        }
    }
    if opts.json {
        println!("{{\"traffic_matrix\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
    println!("traffic matrix OK");
}

// ----------------------------------------------------------------------
// Dense deployments: multi-BSS sharded worlds
// ----------------------------------------------------------------------

/// An enterprise-floor scenario sized for the dense subcommands.
fn dense_cfg(
    n_bss: usize,
    clients_per: usize,
    mode: HackMode,
    ms: u64,
    seed: u64,
) -> ScenarioConfig {
    ScenarioConfig::builder()
        .hack(mode)
        .bss(BssSpec::enterprise_floor(n_bss, clients_per))
        .duration(SimDuration::from_millis(ms))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(ms / 10))
        .seed(seed)
        .build()
}

/// Total medium acquisitions by *client* stations across every shard —
/// the reverse-path channel cost (data is downstream, so client
/// transmissions are almost entirely TCP-ACK batches, the acquisitions
/// HACK exists to eliminate). Shard station order is per-cell blocks
/// (AP, then its clients), which is what the index walk follows.
fn client_acquisitions(report: &DenseReport, cfg: &ScenarioConfig) -> u64 {
    let mut total = 0;
    for shard in &report.shards {
        let mut i = 0usize;
        for &b in &shard.bss {
            i += 1; // skip the cell's AP
            for _ in 0..cfg.bss[b].n_clients {
                total += shard.result.mac[i].tx_attempts.get();
                i += 1;
            }
        }
    }
    total
}

/// Dense-deployment sweep: HACK-vs-TCP goodput and medium-acquisition
/// savings as the floor grows in both directions — BSS count (spatial
/// reuse; shards run in parallel) and clients per cell (contention
/// inside each cell, where HACK's reverse-path savings compound).
fn dense_sweep(opts: &Opts) {
    banner("Dense sweep: HACK vs TCP across BSS count × clients per cell");
    let ms = if opts.quick { 200 } else { 3_000 };
    let (bss_counts, clients_per): (&[usize], &[usize]) = if opts.quick {
        (&[1, 4], &[1, 4])
    } else {
        (&[1, 4, 9, 16], &[1, 2, 4, 8])
    };
    println!(
        "({} ms per run, enterprise-floor grid, channels 3-coloured;",
        ms
    );
    println!(" acq = client medium acquisitions, the reverse-path cost HACK removes)");
    println!(
        "{:>4} {:>8} {:>6} {:>12} {:>12} {:>7} {:>10} {:>10} {:>7}",
        "bss", "cli/bss", "flows", "tcp Mbps", "hack Mbps", "ratio", "acq tcp", "acq hack", "saved"
    );
    let dense_opts = DenseOptions {
        threads: opts.threads,
        digests: false,
    };
    let mut json_rows = Vec::new();
    for &nb in bss_counts {
        for &cp in clients_per {
            let tcp_cfg = dense_cfg(nb, cp, HackMode::Disabled, ms, 1);
            let hack_cfg = dense_cfg(nb, cp, HackMode::MoreData, ms, 1);
            let tcp = run_dense(&tcp_cfg, &dense_opts);
            let hack = run_dense(&hack_cfg, &dense_opts);
            let (acq_tcp, acq_hack) = (
                client_acquisitions(&tcp, &tcp_cfg),
                client_acquisitions(&hack, &hack_cfg),
            );
            let ratio = hack.aggregate_goodput_mbps / tcp.aggregate_goodput_mbps.max(1e-9);
            let saved = 1.0 - acq_hack as f64 / acq_tcp.max(1) as f64;
            println!(
                "{:>4} {:>8} {:>6} {:>12.1} {:>12.1} {:>7.3} {:>10} {:>10} {:>6.1}%",
                nb,
                cp,
                nb * cp,
                tcp.aggregate_goodput_mbps,
                hack.aggregate_goodput_mbps,
                ratio,
                acq_tcp,
                acq_hack,
                saved * 100.0
            );
            json_rows.push(format!(
                "{{\"bss\":{nb},\"clients_per_bss\":{cp},\
                 \"tcp_mbps\":{:.3},\"hack_mbps\":{:.3},\
                 \"acq_tcp\":{acq_tcp},\"acq_hack\":{acq_hack}}}",
                tcp.aggregate_goodput_mbps, hack.aggregate_goodput_mbps
            ));
        }
    }
    if opts.json {
        println!("{{\"dense_sweep\":[{}]}}", json_rows.join(","));
    }
}

/// Run `cfg` sharded at 1 and at 4 worker threads and compare the two
/// byte for byte: per-shard trace digests, per-shard event counts and
/// merged goodputs. Returns the serial report and `"ok"` or the first
/// divergence.
fn serial_vs_parallel(cfg: &ScenarioConfig) -> (DenseReport, &'static str) {
    let at = |threads: usize| DenseOptions {
        threads,
        digests: true,
    };
    let serial = run_dense(cfg, &at(1));
    let parallel = run_dense(cfg, &at(4));
    let shards = || serial.shards.iter().zip(&parallel.shards);
    let verdict = if shards().any(|(s, p)| s.digest != p.digest) {
        "FAIL: shard trace digests diverged"
    } else if shards().any(|(s, p)| s.result.events_dispatched != p.result.events_dispatched) {
        "FAIL: shard event counts diverged"
    } else if serial.flow_goodput_mbps != parallel.flow_goodput_mbps {
        "FAIL: merged goodputs diverged"
    } else {
        "ok"
    };
    (serial, verdict)
}

/// Dense smoke (CI gate): a multi-BSS floor and an apartment corridor
/// each run sharded at 1 and 4 worker threads; fails the process on any
/// divergence ([`serial_vs_parallel`]) or on zero aggregate goodput.
fn dense_smoke(opts: &Opts) {
    banner("Dense smoke: sharded multi-BSS worlds — 1 vs 4 threads, byte for byte");
    let ms = if opts.quick { 150 } else { 400 };
    let scenarios: Vec<(&str, ScenarioConfig)> = vec![
        (
            "enterprise-floor 9×2",
            dense_cfg(9, 2, HackMode::MoreData, ms, 3),
        ),
        ("apartment-block 6×2", {
            let mut c = dense_cfg(6, 2, HackMode::MoreData, ms, 4);
            c.bss = BssSpec::apartment_block(6, 2);
            c
        }),
    ];
    let mut failed = false;
    for (name, cfg) in &scenarios {
        let (serial, mut verdict) = serial_vs_parallel(cfg);
        if verdict == "ok" && serial.aggregate_goodput_mbps <= 0.0 {
            verdict = "FAIL: zero goodput";
        }
        println!(
            "{name}: {} shards, {:.1} Mbps aggregate — {verdict}",
            serial.shards.len(),
            serial.aggregate_goodput_mbps
        );
        failed |= verdict != "ok";
    }
    if failed {
        std::process::exit(1);
    }
    println!("dense smoke OK");
}

// ----------------------------------------------------------------------
// Roam chaos: mid-flow AP handoffs under randomized schedules (CI gate)
// ----------------------------------------------------------------------

/// Seeded 64-bit mixer for schedule generation (splitmix64): the roam
/// schedules are "random" but a pure function of the scenario seed, so
/// every run of this subcommand is reproducible.
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Three cells in a row on distinct channels — the middle one unable to
/// decode HACK blobs — with a seeded schedule of 1–2 handoffs per flow
/// and flaky association attempts. Every flow starts at its home AP and
/// wanders; chained handoffs keep their per-flow time order.
fn roam_world(seed: u64, ms: u64, mode: HackMode, supervised: bool) -> ScenarioConfig {
    let mut c = ScenarioConfig::builder()
        .hack(mode)
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
                n_clients: 1,
            },
            BssSpec {
                x: 50.0,
                y: 0.0,
                channel: 11,
                n_clients: 1,
            },
        ])
        .duration(SimDuration::from_millis(ms))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(5))
        .seed(seed)
        .build();
    c.roam.ap_hack_capable = vec![true, false, true];
    c.roam.assoc_fail_prob = 0.3;
    let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut schedule = Vec::new();
    for flow in 0..3usize {
        let hops = 1 + (mix64(&mut s) % 2) as usize;
        let mut ats: Vec<u64> = (0..hops)
            .map(|_| 150 + mix64(&mut s) % ms.saturating_sub(400).max(1))
            .collect();
        ats.sort_unstable();
        let mut cell = flow; // home cell: one client per BSS, in order
        for at in ats {
            let target = (cell + 1 + (mix64(&mut s) % 2) as usize) % 3;
            schedule.push(RoamEvent {
                flow,
                at: SimDuration::from_millis(at),
                target_bss: target,
            });
            cell = target;
        }
    }
    c.roam.schedule = schedule;
    if supervised {
        c.supervisor = Some(SupervisorConfig::default());
    }
    c
}

/// Roam chaos (CI gate): randomized handoff schedules over a 3-BSS
/// world, plain TCP vs supervised TCP/HACK, plus a 1-vs-4-thread
/// sharded determinism check. Fails the process if any flow ends the
/// run stalled, if no handoff ever completes, or if the sharded run's
/// digests diverge between thread counts; warns (without failing) if
/// supervised HACK falls behind plain TCP in aggregate.
fn roam_chaos(opts: &Opts) {
    banner("Roam chaos: mid-flow AP handoffs — plain TCP vs supervised TCP/HACK");
    println!("(seeded random schedules, 30 % association-attempt failures, middle AP");
    println!(" HACK-incapable; fails on a stalled flow, zero completed handoffs, or");
    println!(" parallel != serial sharded digests)");
    let seeds: &[u64] = if opts.quick {
        &[13, 21]
    } else {
        &[13, 21, 34, 89]
    };
    let ms = if opts.quick { 600 } else { 1200 };
    let mut failed = false;
    let mut json_rows = Vec::new();
    let mut tcp_total = 0.0;
    let mut sup_total = 0.0;

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>6} {:>9}  supervisor (flow 0)",
        "seed", "tcp", "hack+sup", "final-win", "roams", "handoffs"
    );
    for &seed in seeds {
        let tcp = run_auto(roam_world(seed, ms, HackMode::Disabled, false));
        let sup = run_auto(roam_world(seed, ms, HackMode::MoreData, true));
        tcp_total += tcp.aggregate_goodput_mbps;
        sup_total += sup.aggregate_goodput_mbps;
        let handoffs: u64 = sup.supervisor.iter().map(|r| r.stats.handoffs).sum();
        let mut verdict = "";
        if stalled(&sup) || stalled(&tcp) {
            verdict = "  <-- FAIL: flow ended stalled";
            failed = true;
        } else if sup.roams == 0 || tcp.roams == 0 {
            verdict = "  <-- FAIL: no handoff completed";
            failed = true;
        } else if handoffs != sup.roams {
            verdict = "  <-- FAIL: supervisor lost track of a handoff";
            failed = true;
        }
        let final_min = sup
            .flow_goodput_final_mbps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        println!(
            "{seed:>6} {:>8.2} M {:>8.2} M {final_min:>8.2} M {:>6} {handoffs:>9}  {}{verdict}",
            tcp.aggregate_goodput_mbps,
            sup.aggregate_goodput_mbps,
            sup.roams,
            supervisor_line(&sup.supervisor[0]),
        );
        json_rows.push(format!(
            "{{\"seed\":{seed},\"tcp_goodput_mbps\":{:.3},\
             \"sup_goodput_mbps\":{:.3},\"final_window_min_mbps\":{final_min:.3},\
             \"roams\":{},\"handoffs\":{handoffs},\"supervisor\":{}}}",
            tcp.aggregate_goodput_mbps,
            sup.aggregate_goodput_mbps,
            sup.roams,
            supervisor_json(&sup.supervisor[0]),
        ));
    }
    println!(
        "aggregate: plain TCP {tcp_total:.2} M, supervised HACK {sup_total:.2} M ({})",
        if sup_total >= tcp_total {
            "HACK's edge survived the handoffs"
        } else {
            "WARNING: supervised HACK behind plain TCP on this seed set"
        }
    );

    // Sharded determinism: the same roaming world (cross-cell handoffs
    // couple all three cells into one roam-closure shard) must produce
    // byte-identical digests at 1 and 4 worker threads.
    let cfg = roam_world(seeds[0], ms, HackMode::MoreData, true);
    let (serial, verdict) = serial_vs_parallel(&cfg);
    println!(
        "sharded 1 vs 4 threads: {} shards, {:.1} Mbps aggregate — {verdict}",
        serial.shards.len(),
        serial.aggregate_goodput_mbps
    );
    failed |= verdict != "ok";

    if opts.json {
        println!("{{\"roam_chaos\":[{}]}}", json_rows.join(","));
    }
    if failed {
        std::process::exit(1);
    }
    println!("roam chaos OK");
}

// ----------------------------------------------------------------------
// Figure 10: clients sweep on 802.11n
// ----------------------------------------------------------------------

fn fig10(opts: &Opts) {
    banner("Figure 10: 802.11n aggregate goodput (Mbps) vs number of clients");
    println!("(paper: UDP ≈ flat; HACK-MoreData +15%→+22% over TCP; Opportunistic ≈ TCP)");
    println!(
        "{:>8} {:>16} {:>18} {:>16} {:>16}",
        "clients", "UDP", "TCP/HACK MD", "TCP/Opp. HACK", "TCP/802.11n"
    );
    for n in [1usize, 2, 4, 10] {
        let mut row = format!("{n:>8}");
        for (mode, udp) in [
            (HackMode::Disabled, true),
            (HackMode::MoreData, false),
            (HackMode::Opportunistic, false),
            (HackMode::Disabled, false),
        ] {
            let mut cfg = ScenarioBuilder::dot11n_download(150, n, mode).build();
            // Duration = staggered starts + warmup + a full measurement
            // window, so the steady-state window is the same length for
            // every client count.
            cfg.stagger = SimDuration::from_millis(200);
            cfg.duration =
                cfg.stagger * (n as u64) + cfg.warmup + SimDuration::from_secs(opts.secs);
            if udp {
                cfg.traffic = TrafficModel::UdpDownload;
            }
            let mr = run_seeds(&cfg, opts.seeds);
            let w = if mode == HackMode::MoreData && !udp {
                18
            } else {
                16
            };
            row.push_str(&format!(
                " {:>w$}",
                mr.aggregate_goodput().to_string(),
                w = w
            ));
        }
        println!("{row}");
    }
}

// ----------------------------------------------------------------------
// Figures 11 and 12: SNR sweep and theory-vs-simulation
// ----------------------------------------------------------------------

fn snr_run(rate: u64, snr_db: f64, mode: HackMode, opts: &Opts) -> f64 {
    // Skip rates hopelessly beyond their sensitivity: they deliver ~0.
    let r = PhyRate::ht(rate);
    if snr_db < r.min_snr_db() - 4.0 {
        return 0.0;
    }
    let mut ch = Channel::indoor();
    ch.place(StationId(0), 0.0, 0.0);
    let d = ch.distance_for_snr(snr_db);
    let mut cfg = ScenarioBuilder::dot11n_download(rate, 1, mode).build();
    cfg.loss = LossConfig::SnrDistance(d);
    cfg.duration = SimDuration::from_secs(opts.secs.min(6));
    let mr = run_seeds(&cfg, opts.seeds.min(3));
    // Figure 11 averages goodput including slow start.
    mr.flow_goodput_full(0).mean()
}

fn fig11(opts: &Opts) {
    banner("Figure 11: goodput envelope vs SNR (802.11n rates), incl. slow start");
    println!("(paper: HACK improves the envelope by ~12.6% on average across SNRs)");
    let snrs: Vec<f64> = (0..=10).map(|i| f64::from(i) * 3.0).collect();
    print!("{:>6}", "SNR");
    for &r in &DOT11N_HT40_SGI_MBPS {
        print!(" {r:>6}");
    }
    println!(" {:>9} {:>9} {:>7}", "envT", "envH", "gain");
    let mut gains = Vec::new();
    for &snr in &snrs {
        let mut row = format!("{snr:>6.1}");
        let mut env_t: f64 = 0.0;
        let mut env_h: f64 = 0.0;
        for &rate in &DOT11N_HT40_SGI_MBPS {
            let h = snr_run(rate, snr, HackMode::MoreData, opts);
            let t = snr_run(rate, snr, HackMode::Disabled, opts);
            env_h = env_h.max(h);
            env_t = env_t.max(t);
            row.push_str(&format!(" {h:>6.1}"));
        }
        let gain = if env_t > 1.0 {
            (env_h / env_t - 1.0) * 100.0
        } else {
            0.0
        };
        if env_t > 1.0 {
            gains.push(gain);
        }
        println!("{row} {env_t:>9.1} {env_h:>9.1} {gain:>6.1}%");
    }
    if !gains.is_empty() {
        println!(
            "average envelope improvement: {:.1}%",
            gains.iter().sum::<f64>() / gains.len() as f64
        );
    }
    println!("(per-rate columns show TCP/HACK; envT/envH are the best-rate envelopes)");
}

fn fig12(opts: &Opts) {
    banner("Figure 12: theoretical vs simulated goodput vs 802.11n rate (Mbps)");
    println!("(paper: simulated < theoretical; simulated HACK gain 14% at 150 vs 7% predicted)");
    let m = CapacityModel::dot11n();
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "rate", "theor.TCP", "sim.TCP", "theor.HACK", "sim.HACK", "th.gain", "sim.gain"
    );
    for &rate in &DOT11N_HT40_SGI_MBPS {
        let r = PhyRate::ht(rate);
        let tt = m.goodput_dot11n(r, Protocol::Tcp);
        let th = m.goodput_dot11n(r, Protocol::TcpHack);
        let mut cfg_t = ScenarioBuilder::dot11n_download(rate, 1, HackMode::Disabled).build();
        let mut cfg_h = ScenarioBuilder::dot11n_download(rate, 1, HackMode::MoreData).build();
        cfg_t.duration = SimDuration::from_secs(opts.secs.min(6));
        cfg_h.duration = SimDuration::from_secs(opts.secs.min(6));
        let st = run_seeds(&cfg_t, opts.seeds.min(3))
            .aggregate_goodput()
            .mean();
        let sh = run_seeds(&cfg_h, opts.seeds.min(3))
            .aggregate_goodput()
            .mean();
        println!(
            "{rate:>6} {tt:>10.1} {st:>10.1} {th:>10.1} {sh:>10.1} {:>8.1}% {:>8.1}%",
            (th / tt - 1.0) * 100.0,
            (sh / st - 1.0) * 100.0
        );
    }
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ----------------------------------------------------------------------

fn ablate_timer(opts: &Opts) {
    banner("Ablation: explicit-timer HACK vs MORE DATA (802.11n, 1 client)");
    println!("(left: server behind the wired backhaul — data trickles in and every hold");
    println!(" gets a ride, so the timer looks harmless; right: sender on the AP with a");
    println!(" 32 KB receive window — the whole window lands in one batch, the queue drains,");
    println!(" and held ACKs stall the ACK clock: the §3.2 pathology)");
    for (label, mode) in [
        ("Disabled", HackMode::Disabled),
        (
            "ExplicitTimer(5ms)",
            HackMode::ExplicitTimer(SimDuration::from_millis(5)),
        ),
        (
            "ExplicitTimer(20ms)",
            HackMode::ExplicitTimer(SimDuration::from_millis(20)),
        ),
        (
            "ExplicitTimer(100ms)",
            HackMode::ExplicitTimer(SimDuration::from_millis(100)),
        ),
        ("MoreData", HackMode::MoreData),
    ] {
        let mut cfg = ScenarioBuilder::dot11n_download(150, 1, mode).build();
        cfg.duration = SimDuration::from_secs(opts.secs);
        let backhaul = run_seeds(&cfg, opts.seeds.min(3));
        let mut stall = cfg.clone();
        stall.server_at_ap = true;
        stall.rcv_window = 32 * 1024;
        let local = run_seeds(&stall, opts.seeds.min(3));
        println!(
            "{label:<22} backhaul {:>16}   local/32KB {:>16}",
            backhaul.aggregate_goodput().to_string(),
            local.aggregate_goodput().to_string()
        );
    }
}

fn ablate_delack(opts: &Opts) {
    banner("Ablation: TCP delayed ACK on/off (802.11n, 1 client)");
    for (label, mode) in [
        ("TCP/802.11n", HackMode::Disabled),
        ("TCP/HACK", HackMode::MoreData),
    ] {
        for delack in [true, false] {
            let mut cfg = ScenarioBuilder::dot11n_download(150, 1, mode).build();
            cfg.delayed_ack = delack;
            cfg.duration = SimDuration::from_secs(opts.secs);
            let mr = run_seeds(&cfg, opts.seeds.min(3));
            println!("{label:<14} delack={delack:<5} {}", mr.aggregate_goodput());
        }
    }
}

fn ablate_sync(opts: &Opts) {
    banner("Ablation: §3.4 SYNC retention on/off at marginal SNR (802.11n)");
    println!("(SNR-driven loss hits Block ACKs too, so BAR exhaustion and SYNC engage)");
    // Just above the 15 Mbps sensitivity: at this SNR the 12 Mbps basic
    // rate is itself marginal, so Block ACKs (especially blob-extended
    // ones) die often enough for the retention machinery to matter.
    let rate = 15u64;
    let mut ch = Channel::indoor();
    ch.place(StationId(0), 0.0, 0.0);
    let d = ch.distance_for_snr(PhyRate::ht(rate).min_snr_db() + 2.2);
    for disable in [false, true] {
        let mut cfg = ScenarioBuilder::dot11n_download(rate, 1, HackMode::MoreData).build();
        cfg.loss = LossConfig::SnrDistance(d);
        cfg.disable_sync = disable;
        // A tight retry budget makes BAR exhaustion (the SYNC trigger)
        // reachable within a short run — with the standard limit of 7 it
        // needs 8 consecutive control-frame losses and essentially never
        // fires, which is itself a (reassuring) finding.
        cfg.retry_limit = Some(1);
        cfg.duration = SimDuration::from_secs(opts.secs);
        let mr = run_seeds(&cfg, opts.seeds);
        let crc: u64 = mr.runs.iter().map(|r| r.decompressor.crc_failures).sum();
        let dups: u64 = mr.runs.iter().map(|r| r.decompressor.duplicates).sum();
        let to: u64 = mr.runs.iter().map(|r| r.sender_tcp[0].timeouts).sum();
        let bars: u64 = mr.runs.iter().map(|r| r.mac[0].bars_exhausted.get()).sum();
        println!(
            "sync={:<5} goodput {}  BAR exhaustions {}  blob dups {}  CRC failures {}  TCP timeouts {}",
            !disable,
            mr.aggregate_goodput(),
            bars,
            dups,
            crc,
            to
        );
    }
}

fn ablate_txop(opts: &Opts) {
    banner("Ablation: TXOP limit sweep (802.11n 150 Mbps, 1 client)");
    println!("(§5: shorter TXOPs cost efficiency; HACK claws some back)");
    for ms in [1u64, 2, 4, 8] {
        let mut row = format!("TXOP {ms:>2} ms ");
        for (label, mode) in [("TCP", HackMode::Disabled), ("HACK", HackMode::MoreData)] {
            let mut cfg = ScenarioBuilder::dot11n_download(150, 1, mode).build();
            cfg.txop_limit = Some(SimDuration::from_millis(ms));
            cfg.duration = SimDuration::from_secs(opts.secs);
            let mr = run_seeds(&cfg, opts.seeds.min(3));
            row.push_str(&format!(" {label} {}", mr.aggregate_goodput()));
        }
        println!("{row}");
    }
}
