//! Report emitters: hand-rolled JSON and CSV (this workspace carries
//! no serde).
//!
//! Both emitters are deterministic functions of the [`CampaignReport`]:
//! floats render with Rust's default `Display` (shortest round-trip
//! form), keys emit in fixed order, and nothing time- or host-dependent
//! enters the output. The parallel-vs-serial equivalence tests compare
//! these strings byte for byte.

use std::fmt::Write as _;

use hack_core::RESULT_SCHEMA_VERSION;

use crate::agg::CellStats;
use crate::engine::CampaignReport;

/// Escape a string for a JSON string literal.
fn esc_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quote a CSV field when it needs it (comma, quote, CR or LF).
fn esc_csv(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn stats_json(s: &CellStats) -> String {
    format!(
        "{{\"n\":{},\"mean\":{},\"min\":{},\"max\":{},\"ci95\":{}}}",
        s.n, s.mean, s.min, s.max, s.ci95
    )
}

/// Render a campaign report as a single JSON object.
///
/// Top-level keys: `schema_version` (the result-codec version — the
/// campaign JSON schema and the cached-result schema version move
/// together), `campaign`, `axes`, `seeds`, `jobs`, `cells`.
pub fn campaign_json(r: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\":{RESULT_SCHEMA_VERSION},\"campaign\":\"{}\",\"axes\":[{}],\"seeds\":[{}],",
        esc_json(&r.name),
        r.axis_names
            .iter()
            .map(|a| format!("\"{}\"", esc_json(a)))
            .collect::<Vec<_>>()
            .join(","),
        r.seeds
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    let _ = write!(
        out,
        "\"jobs\":{{\"total\":{},\"executed\":{},\"cache_hits\":{},\"complete\":{}}},\"cells\":[",
        r.jobs_total, r.jobs_executed, r.cache_hits, r.complete
    );
    for (i, c) in r.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cell\":{},\"labels\":[{}],\"goodput_mbps\":{},\"ap_first_try\":{},\"per_seed_goodput_mbps\":[{}]}}",
            c.cell,
            c.labels
                .iter()
                .map(|l| format!("\"{}\"", esc_json(l)))
                .collect::<Vec<_>>()
                .join(","),
            stats_json(&c.goodput),
            stats_json(&c.first_try),
            c.runs
                .iter()
                .map(|run| run.aggregate_goodput_mbps.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    out.push_str("]}");
    out
}

/// Render a campaign report as CSV: one aggregate row per cell.
pub fn campaign_csv(r: &CampaignReport) -> String {
    let mut out = String::from("campaign,cell");
    for a in &r.axis_names {
        let _ = write!(out, ",{}", esc_csv(a));
    }
    out.push_str(
        ",n,goodput_mean_mbps,goodput_min_mbps,goodput_max_mbps,goodput_ci95_mbps,first_try_mean\n",
    );
    for c in &r.cells {
        let _ = write!(out, "{},{}", esc_csv(&r.name), c.cell);
        for l in &c.labels {
            let _ = write!(out, ",{}", esc_csv(l));
        }
        let _ = writeln!(
            out,
            ",{},{},{},{},{},{}",
            c.goodput.n,
            c.goodput.mean,
            c.goodput.min,
            c.goodput.max,
            c.goodput.ci95,
            c.first_try.mean
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(esc_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(esc_csv("plain"), "plain");
        assert_eq!(esc_csv("a,b"), "\"a,b\"");
        assert_eq!(esc_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(esc_csv("a\rb"), "\"a\rb\"");
    }
}
