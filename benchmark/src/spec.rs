//! The benchmark's vocabulary: every workload and every metric by
//! name, with unit, direction and (end to end) bound. `BENCHMARK.json`
//! at the repository root lists exactly these names; a test holds the
//! two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's fixed attributes.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// `(name, why)` of the five workloads, in running order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "bulk1_hack",
        "802.11n 150 Mbps download, one client, HACK on, 10 s simulated: the paper's steady state, where ROHC, the HACK driver, TCP and A-MPDU assembly do most of the work",
    ),
    (
        "sora2_stock",
        "SoRa 802.11a testbed, two lossy clients, HACK off, 18 s simulated: no aggregation, no ROHC or blob work, so per-PPDU PHY/MAC cost, collisions and TCP loss recovery dominate",
    ),
    (
        "dense16_hack",
        "16-BSS enterprise floor, 80 stations, HACK on, 0.6 s simulated through run_dense on T threads: interference-domain scoping, the shard engine and its parallel path",
    ),
    (
        "churn_campaign",
        "60-job campaign (5 traffic models x tcp/hack x ideal/bursty x 3 seeds, 1 s each) on T threads with a cold cache: world assembly, handshakes, ROHC context churn, codec, cache, pool",
    ),
    (
        "paper_anchors",
        "Fig 9 (one and both clients) and Fig 10 (1 and 10 clients), HACK on and off over a seed bank, 10 s windows: simulated HACK gain against the paper's published gains",
    ),
];

/// End-to-end metrics. Every one is reported on every workload.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_ms_per_sim_s", "ms/sim_s", Lower, 0.25),
    e2e("runs_per_s", "1/s", Higher, 0.25),
    e2e("events_per_sim_s", "1/sim_s", Lower, 0.05),
    e2e("allocs_per_sim_s", "1/sim_s", Lower, 0.05),
    e2e("alloc_kb_per_sim_s", "KB/sim_s", Lower, 0.05),
    e2e("peak_heap_mb", "MB", Lower, 0.15),
    e2e("paper_gain_err_pp", "pp", Lower, 0.25),
    e2e("goodput_digest_ok", "count", Higher, 0.01),
];

/// Per-layer metrics, reported by the traced pass. No bounds.
pub const PER_LAYER: [MetricSpec; 81] = [
    // sim (hack-sim)
    layer("sim.queue_hold_ns", "ns", Lower),
    layer("sim.queue_hold_ns_d1024", "ns", Lower),
    layer("sim.timer_cycle_ns", "ns", Lower),
    layer("sim.sketch_record_ns", "ns", Lower),
    layer("sim.events_per_sim_s", "1/sim_s", Lower),
    // phy (hack-phy)
    layer("phy.txcycle_ns_l3", "ns", Lower),
    layer("phy.txcycle_ns_l11", "ns", Lower),
    layer("phy.txcycle_ns_d16", "ns", Lower),
    layer("phy.ppdus_per_kevent", "count", Lower),
    layer("phy.collision_share", "share", Lower),
    layer("phy.airtime_data_share", "share", Higher),
    layer("phy.airtime_ack_share", "share", Lower),
    layer("phy.airtime_blob_share", "share", Lower),
    // mac (hack-mac)
    layer("mac.ampdu_cycle_ns", "ns", Lower),
    layer("mac.single_cycle_ns", "ns", Lower),
    layer("mac.contend_cycle_ns", "ns", Lower),
    layer("mac.assoc_cycle_ns", "ns", Lower),
    layer("mac.mpdus_per_ppdu", "count", Higher),
    layer("mac.retry_share", "share", Lower),
    layer("mac.first_try_share", "share", Higher),
    layer("mac.acquisitions_per_mb", "1/MB", Lower),
    layer("mac.ack_timeouts_per_sim_s", "1/sim_s", Lower),
    // tcp (hack-tcp)
    layer("tcp.data_path_ns", "ns", Lower),
    layer("tcp.ack_path_ns", "ns", Lower),
    layer("tcp.loss_recovery_ns", "ns", Lower),
    layer("tcp.handshake_ns", "ns", Lower),
    layer("tcp.timer_path_ns", "ns", Lower),
    layer("tcp.header_bytes_ns", "ns", Lower),
    layer("tcp.cc_on_ack_ns.reno", "ns", Lower),
    layer("tcp.cc_on_ack_ns.cubic", "ns", Lower),
    layer("tcp.cc_on_ack_ns.hstcp", "ns", Lower),
    layer("tcp.cc_on_ack_ns.bbr", "ns", Lower),
    layer("tcp.retrans_share", "share", Lower),
    layer("tcp.rto_per_sim_s", "1/sim_s", Lower),
    layer("tcp.acks_per_data_seg", "count", Lower),
    // rohc (hack-rohc)
    layer("rohc.compress_ns", "ns", Lower),
    layer("rohc.decode_ns_per_ack", "ns", Lower),
    layer("rohc.ctx_setup_ns", "ns", Lower),
    layer("rohc.cid_lookup_ns", "ns", Lower),
    layer("rohc.bytes_per_ack", "B", Lower),
    layer("rohc.crc_fail_share", "share", Lower),
    layer("rohc.no_context_share", "share", Lower),
    // driver (hack-core driver.rs)
    layer("driver.hold_cycle_ns", "ns", Lower),
    layer("driver.blob_decode_ns", "ns", Lower),
    layer("driver.flush_ns", "ns", Lower),
    layer("driver.hacked_share", "share", Higher),
    layer("driver.spill_share", "share", Lower),
    layer("driver.acks_per_blob", "count", Higher),
    // world (hack-core sim.rs, codec.rs, stable.rs)
    layer("world.ns_per_event", "ns", Lower),
    layer("world.ns_per_event_p80", "ns", Lower),
    layer("world.allocs_per_event", "count", Lower),
    layer("world.events_per_mb", "1/MB", Lower),
    layer("world.build_us", "us", Lower),
    layer("world.finish_us", "us", Lower),
    layer("world.slice_us_p50", "us", Lower),
    layer("world.slice_us_p99", "us", Lower),
    layer("world.attributed_share", "share", Higher),
    layer("world.residual_ns_per_event", "ns", Lower),
    layer("world.codec_encode_us", "us", Lower),
    layer("world.codec_decode_us", "us", Lower),
    layer("world.stable_hash_us", "us", Lower),
    // dense (hack-core dense.rs)
    layer("dense.shards", "count", Higher),
    layer("dense.shard_skew", "ratio", Lower),
    layer("dense.serial_ns_per_event", "ns", Lower),
    layer("dense.parallel_speedup", "ratio", Higher),
    layer("dense.project_us", "us", Lower),
    layer("dense.merge_us", "us", Lower),
    // campaign (hack-campaign)
    layer("campaign.job_ms_p50", "ms", Lower),
    layer("campaign.job_ms_p90", "ms", Lower),
    layer("campaign.pool_idle_share", "share", Lower),
    layer("campaign.parallel_speedup", "ratio", Higher),
    layer("campaign.warm_hit_us", "us", Lower),
    layer("campaign.cache_store_us", "us", Lower),
    layer("campaign.expand_us", "us", Lower),
    layer("campaign.emit_us", "us", Lower),
    // trace (hack-trace)
    layer("trace.emit_ns", "ns", Lower),
    layer("trace.records_per_event", "count", Lower),
    layer("trace.world_overhead_pct", "%", Lower),
    layer("trace.digest_us", "us", Lower),
    // harness
    layer("bench.span_overhead_pct", "%", Lower),
    layer("bench.timer_ns", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse::parse, Value};

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "workload name {name:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let Value::Object(pairs) = v else {
            panic!("not an object: {v:?}")
        };
        &pairs
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn items(v: &Value) -> &[Value] {
        let Value::Array(items) = v else {
            panic!("not an array: {v:?}")
        };
        items
    }

    fn text(v: &Value) -> &str {
        let Value::Str(s) = v else {
            panic!("not a string: {v:?}")
        };
        s
    }

    /// `BENCHMARK.json` lists exactly the names, units, directions and
    /// bounds the binary emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let listed: Vec<(&str, &str)> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| (text(field(w, "name")), text(field(w, "why"))))
            .collect();
        assert_eq!(listed, WORKLOADS);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = items(field(&doc, key));
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (got, want) in listed.iter().zip(table) {
                assert_eq!(text(field(got, "name")), want.name);
                assert_eq!(text(field(got, "unit")), want.unit, "{}", want.name);
                assert_eq!(
                    text(field(got, "better")),
                    want.better.as_str(),
                    "{}",
                    want.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        field(got, "bound"),
                        &Value::Num(want.bound),
                        "{}",
                        want.name
                    );
                }
            }
        }
    }
}
