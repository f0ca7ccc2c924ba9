//! Shared command-line options for the experiment binaries.
//!
//! Every `experiments` subcommand used to re-read `--quick` / `--json`
//! / `--trace` out of the raw argument vector; [`CommonOpts::parse`] is
//! now the single place flags are interpreted, and [`USAGE`] the single
//! help text (covered by a snapshot test).

use std::path::PathBuf;

use hack_campaign::CampaignOptions;

/// The `experiments --help` text. Regenerate the snapshot with
/// `cargo run -p hack-bench --bin experiments -- --help \
///  > crates/bench/tests/snapshots/experiments-help.txt`.
pub const USAGE: &str = "\
experiments - regenerate the HACK paper's tables and figures (USENIX ATC '14)

USAGE:
    experiments [SUBCOMMAND] [FLAGS]

SUBCOMMANDS:
    fig1a           theoretical goodput vs 802.11a rate (analysis)
    fig1b           theoretical goodput vs 802.11n rate up to 600 Mbps
    fig9            SoRa testbed goodput: UDP / HACK / TCP, 1 and 2 clients
    table1          frame retry breakdown for the fig9 scenarios
    table2          ACK counts/bytes and compression ratio (25 MB transfer)
    table3          TCP ACK time-overhead breakdown (25 MB transfer)
    xval            SoRa <-> simulation cross-validation (par. 4.2)
    fig10           802.11n aggregate goodput vs number of clients
    fig11           goodput envelope vs SNR across 802.11n rates
    fig12           theoretical vs simulated goodput vs 802.11n rate
    loss-sweep      goodput vs loss rate, TCP vs TCP/HACK, i.i.d. vs bursty
                    (runs as a loss x channel x mode campaign)
    fault-matrix    one seeded run per loss model (ideal / fixed / burst /
                    corrupting / supervised); exits nonzero on zero goodput
                    or a silent corrupted-delivery path (CI smoke)
    chaos-recovery  supervised TCP/HACK vs plain TCP under the corrupting/
                    burst matrix, plus a loss storm that heals mid-run;
                    exits nonzero if any flow ends stalled or permanently
                    degraded despite a healthy channel (CI smoke)
    campaign-smoke  tiny 2x2x2 sweep run twice: fails if parallel and
                    serial aggregates differ, or if the second run gets
                    under 90% cache hits (CI smoke)
    cc-matrix       congestion control {reno,cubic,hstcp,bbr} x hack
                    on/off x {ideal,burst} channel; exits nonzero on zero
                    goodput, a silent RTT sampler, or parallel != serial
                    campaign reports (CI smoke)
    traffic-matrix  traffic model {bulk,short,bidir,cbr,onoff} x hack
                    on/off x {ideal,burst} channel with per-class FCT /
                    latency percentiles; exits nonzero on zero goodput,
                    a stalled short-flow loop, a silent latency sampler,
                    a one-sided bidirectional HACK cell, or parallel !=
                    serial campaign reports (CI smoke)
    dense-sweep     multi-BSS enterprise floor: HACK-vs-TCP goodput and
                    client medium-acquisition savings as BSS count and
                    per-cell station count grow (sharded parallel worlds)
    dense-smoke     multi-BSS worlds sharded at 1 vs 4 threads; exits
                    nonzero on any trace/exchange digest divergence or
                    zero goodput (CI smoke)
    roam-chaos      randomized mid-flow AP handoffs (seeded schedules,
                    flaky associations, a HACK-incapable AP) over plain
                    TCP vs supervised TCP/HACK; exits nonzero if any
                    flow ends stalled, no handoff completes, or a
                    sharded run diverges between 1 and 4 threads
                    (CI smoke)
    ablate-timer | ablate-delack | ablate-sync | ablate-txop
    all             everything above

FLAGS:
    --quick         shorten runs and seed counts (for CI); defaults follow
                    the paper's shape (5 runs per point)
    --seeds <n>     override the per-point seed count
    --json          additionally emit one machine-readable JSON object on
                    stdout (loss-sweep, fault-matrix, chaos-recovery,
                    campaign-smoke, cc-matrix, traffic-matrix, dense-sweep,
                    roam-chaos)
    --trace <path>  capture a structured cross-layer event trace per run of
                    every subcommand that runs a campaign:
                    <path>.<campaign>.cellC.seedS.jsonl holds the events,
                    <path>.<campaign>.cellC.seedS.digest the binary digest
                    (byte-identical for the same seed; S is the seed's slot
                    in the bank); traced runs bypass --cache
    --threads <n>   worker threads for every subcommand that runs a
                    campaign (default: all cores; output is byte-identical
                    at any thread count)
    --cache <dir>   content-addressed result cache for every subcommand
                    that runs a campaign; re-runs and interrupted sweeps
                    resume from completed jobs
    --help, -h      print this help
";

/// Flags shared by every `experiments` subcommand.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Seeds (runs) per data point.
    pub seeds: u64,
    /// Per-run simulated duration, seconds.
    pub secs: u64,
    /// CI mode: shorter runs, fewer seeds.
    pub quick: bool,
    /// Also emit machine-readable JSON on stdout.
    pub json: bool,
    /// Event-trace output prefix (`--trace`).
    pub trace: Option<PathBuf>,
    /// Campaign worker threads (0 = `available_parallelism`).
    pub threads: usize,
    /// Campaign result-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `--help` was requested.
    pub help: bool,
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            seeds: 5,
            secs: 10,
            quick: false,
            json: false,
            trace: None,
            threads: 0,
            cache_dir: None,
            help: false,
        }
    }
}

fn value_of<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

impl CommonOpts {
    /// Parse an argument vector (without the program name) into options
    /// plus the first positional argument (the subcommand), if any.
    pub fn parse(args: &[String]) -> Result<(Self, Option<String>), String> {
        let mut o = Self::default();
        if args.iter().any(|a| a == "--quick") {
            o.quick = true;
            o.seeds = 2;
            o.secs = 3;
        }
        let mut positional = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => {}
                "--json" => o.json = true,
                "--help" | "-h" => o.help = true,
                "--trace" => o.trace = Some(PathBuf::from(value_of(&mut it, "--trace")?)),
                "--cache" => o.cache_dir = Some(PathBuf::from(value_of(&mut it, "--cache")?)),
                "--seeds" => {
                    o.seeds = value_of(&mut it, "--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?;
                }
                "--threads" => {
                    o.threads = value_of(&mut it, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                other if !other.starts_with("--") => {
                    positional.get_or_insert_with(|| other.to_string());
                }
                other => return Err(format!("unknown flag {other:?}; see --help")),
            }
        }
        Ok((o, positional))
    }

    /// The campaign-engine options these flags select.
    pub fn campaign(&self) -> CampaignOptions {
        CampaignOptions {
            threads: self.threads,
            cache_dir: self.cache_dir.clone(),
            job_limit: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_follow_the_paper() {
        let (o, cmd) = CommonOpts::parse(&v(&["fig9"])).unwrap();
        assert_eq!((o.seeds, o.secs, o.quick, o.json), (5, 10, false, false));
        assert_eq!(cmd.as_deref(), Some("fig9"));
    }

    #[test]
    fn quick_shrinks_seeds_and_secs_wherever_it_appears() {
        let (o, _) = CommonOpts::parse(&v(&["loss-sweep", "--quick"])).unwrap();
        assert_eq!((o.seeds, o.secs, o.quick), (2, 3, true));
    }

    #[test]
    fn explicit_seeds_override_quick() {
        let (o, _) = CommonOpts::parse(&v(&["--quick", "--seeds", "7"])).unwrap();
        assert_eq!(o.seeds, 7);
        assert!(o.quick);
    }

    #[test]
    fn value_flags_parse_and_missing_values_error() {
        let (o, _) = CommonOpts::parse(&v(&[
            "--trace",
            "/tmp/t",
            "--cache",
            "/tmp/c",
            "--threads",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("/tmp/t")));
        assert_eq!(o.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        assert_eq!(o.threads, 3);
        assert!(o.json);
        assert!(CommonOpts::parse(&v(&["--trace"])).is_err());
        assert!(CommonOpts::parse(&v(&["--seeds", "x"])).is_err());
        assert!(CommonOpts::parse(&v(&["--frobnicate"])).is_err());
    }

    #[test]
    fn first_positional_is_the_subcommand() {
        let (_, cmd) = CommonOpts::parse(&v(&["--json", "fault-matrix"])).unwrap();
        assert_eq!(cmd.as_deref(), Some("fault-matrix"));
        let (_, none) = CommonOpts::parse(&v(&["--json"])).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn campaign_options_mirror_the_flags() {
        let (o, _) = CommonOpts::parse(&v(&["--threads", "2", "--cache", "/tmp/cc"])).unwrap();
        let c = o.campaign();
        assert_eq!(c.threads, 2);
        assert_eq!(
            c.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cc"))
        );
        assert_eq!(c.job_limit, None);
    }
}
