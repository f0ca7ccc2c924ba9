//! Command line, orchestration and output.
//!
//! Two ways in, one set of code behind them:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` is the
//!   contract of `BENCHMARK.json`: one workload, end-to-end metrics
//!   (`--trace 0`) or per-layer metrics (`--trace 1`), and one JSON
//!   object as the last line of standard output.
//! * without `--workload`, every workload runs: the four timed ones
//!   interleaved round-robin, then `paper_anchors`, then the traced
//!   pass; one JSON document on standard output. `--repeat <k>` runs
//!   `k` sets and checks that they agree within the bounds.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::json::Value;
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::traced;
use crate::workloads::{self, fidelity_canary, Env, Ops, PaperAnchors, Tally, Workload};

const USAGE: &str = "\
hack-benchmark: the repo benchmark (see benchmark/README.md)

  --workload <name>  run one workload under the BENCHMARK.json contract
  --trace <0|1>      with --workload: 0 end-to-end metrics, 1 per-layer metrics
  --seed <n>         seed of every generated input (default 1)
  --seconds <s>      host seconds each workload measures for
                     (default 20 with --workload, 18 without)
  --traced           without --workload: only the traced pass
  --repeat <k>       without --workload: k timed sets, compared against the bounds
  --out <dir>        where span files and cache directories go
                     (default benchmark/out)
  --cpu, --rustc, --commit <text>
                     recorded in the output header (run.sh fills them in)
";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: Option<u64>,
    traced_only: bool,
    repeat: usize,
    out: PathBuf,
    cpu: String,
    rustc: String,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        trace: false,
        seed: 1,
        seconds: None,
        traced_only: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        cpu: "unknown".into(),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = Some(number(value()?)?.max(1)),
            "--traced" => a.traced_only = true,
            "--repeat" => a.repeat = number(value()?)?.max(1) as usize,
            "--out" => a.out = PathBuf::from(value()?),
            "--cpu" => a.cpu = value()?,
            "--rustc" => a.rustc = value()?,
            "--commit" => a.commit = value()?,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(a)
}

/// Worker threads for the two parallel workloads.
fn worker_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    (nproc, nproc.min(4))
}

/// One workload's end-to-end results.
struct EndToEnd {
    tally: Tally,
    paper_gain_err_pp: f64,
    /// `paper_anchors` only: the simulated gain of each anchor.
    gains_pct: Option<Vec<f64>>,
    digest_ok: bool,
}

impl EndToEnd {
    /// Metric values in [`END_TO_END`] order.
    fn values(&self) -> [f64; END_TO_END.len()] {
        let t = &self.tally;
        [
            t.setup_s(),
            t.wall_ms_per_sim_s(0.5),
            t.runs_per_s(),
            t.events_per_sim_s(),
            t.allocs_per_sim_s(),
            t.alloc_kb_per_sim_s(),
            t.peak_heap_mb(),
            self.paper_gain_err_pp,
            f64::from(u8::from(self.digest_ok)),
        ]
    }
}

/// Finish a workload after its timed reps: the untimed checks and the
/// fidelity figure. `canary` caches the timed workloads' shared one.
fn conclude(
    w: &dyn Workload,
    tally: Tally,
    env: &Env,
    canary: &mut Option<f64>,
    ops: &mut Ops,
) -> EndToEnd {
    w.verify(ops);
    let digest_ok = tally.digests_agree(ops);
    let (paper_gain_err_pp, gains_pct) = if tally.name == "paper_anchors" {
        let gains = PaperAnchors::gains_pct(&tally.goodput());
        (workloads::paper_gain_err_pp(&gains), Some(gains))
    } else {
        (
            *canary.get_or_insert_with(|| fidelity_canary(env, ops)),
            None,
        )
    };
    EndToEnd {
        tally,
        paper_gain_err_pp,
        gains_pct,
        digest_ok,
    }
}

fn log_end_to_end(e: &EndToEnd) {
    let t = &e.tally;
    // The protocol was designed for 48 reps; fewer still give a median,
    // with a wider spread.
    let few = if t.reps < 48 { " (under 48)" } else { "" };
    eprintln!(
        "{}: {} reps{few} in {:.1} s; wall_ms_per_sim_s q1/median/q3/p80 = {:.3} / {:.3} / {:.3} / {:.3} at reference speed; raw clock: {:.3} ms/sim_s, {:.1} ns/event, reference kernel {:.2} ms",
        t.name,
        t.reps,
        t.spent_ns as f64 / 1e9,
        t.wall_ms_per_sim_s(0.25),
        t.wall_ms_per_sim_s(0.5),
        t.wall_ms_per_sim_s(0.75),
        t.wall_ms_per_sim_s(0.8),
        t.raw_wall_ms_per_sim_s(),
        t.raw_ns_per_event(),
        t.reference_ms(),
    );
    if let Some(gains) = &e.gains_pct {
        let shown: Vec<String> = gains.iter().map(|g| format!("{g:+.2}")).collect();
        eprintln!(
            "{}: simulated HACK gains {} % against the paper's {:?} %: {:.4} pp apart",
            t.name,
            shown.join(" / "),
            workloads::PAPER_GAINS_PCT,
            e.paper_gain_err_pp,
        );
    }
}

fn metrics_object(specs: &[MetricSpec], values: &[f64]) -> Value {
    Value::object(specs.iter().zip(values).map(|(m, v)| {
        (
            m.name,
            Value::object([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
        )
    }))
}

/// The contract's result line.
fn contract_line(ops: &Ops, specs: &[MetricSpec], values: &[f64]) -> Value {
    let finite = values.iter().all(|v| v.is_finite());
    Value::object([
        ("correct", Value::Bool(ops.failed == 0 && finite)),
        ("attempted", Value::UInt(ops.attempted.max(1))),
        ("failed", Value::UInt(ops.failed)),
        ("metrics", metrics_object(specs, values)),
    ])
}

fn log_failures(ops: &Ops) {
    for f in &ops.failures {
        eprintln!("FAILED: {f}");
    }
}

fn pick(env: &Env, name: &str, seconds: u64) -> Box<dyn Workload> {
    workloads::all(env, seconds)
        .into_iter()
        .find(|w| w.name() == name)
        .expect("workload names were checked while parsing")
}

fn header(args: &Args, env: &Env, nproc: usize) -> Value {
    Value::object([
        ("seed", Value::UInt(args.seed)),
        ("threads", Value::UInt(env.threads as u64)),
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu", Value::str(args.cpu.as_str())),
        ("rustc", Value::str(args.rustc.as_str())),
        ("commit", Value::str(args.commit.as_str())),
    ])
}

/// `--workload`: one workload under the contract.
fn run_contract(args: &Args, env: &Env, name: &str) -> ExitCode {
    let seconds = args.seconds.unwrap_or(20);
    let mut ops = Ops::default();
    let (specs, values): (&[MetricSpec], Vec<f64>) = if args.trace {
        let started = Instant::now();
        let layers = traced::layers(env, &mut ops);
        let left = seconds as f64 - started.elapsed().as_secs_f64();
        let w = pick(env, name, seconds);
        (
            &PER_LAYER,
            traced::worlds(w.as_ref(), env, left, &layers, &mut ops).to_vec(),
        )
    } else {
        let ws = [pick(env, name, seconds)];
        let tally = workloads::run_timed(&ws, seconds as f64, &mut ops).remove(0);
        let e = conclude(ws[0].as_ref(), tally, env, &mut None, &mut ops);
        log_end_to_end(&e);
        (&END_TO_END, e.values().to_vec())
    };
    log_failures(&ops);
    println!("{}", contract_line(&ops, specs, &values).to_line());
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Without `--workload` the anchors run once over the three-seed bank
/// (`--seconds 5`; with `--seed 1`, seeds 1–3).
const ANCHOR_SECONDS: u64 = 5;
/// Without `--workload`, host seconds of world passes per workload.
const TRACED_SECONDS_EACH: f64 = 4.0;

/// One full timed set: the four timed workloads interleaved, then the
/// anchors.
fn timed_set(env: &Env, seconds: u64, ops: &mut Ops) -> Vec<EndToEnd> {
    let mut ws = workloads::all(env, ANCHOR_SECONDS);
    let mut anchors = ws.split_off(ws.len() - 1);
    let mut tallies = workloads::run_timed(&ws, seconds as f64, ops);
    // Once over its bank, not repeated: a zero budget ends the loop as
    // soon as every pair has run.
    tallies.extend(workloads::run_timed(&anchors, 0.0, ops));
    ws.append(&mut anchors);
    let mut canary = None;
    ws.iter()
        .zip(tallies)
        .map(|(w, t)| {
            let e = conclude(w.as_ref(), t, env, &mut canary, ops);
            log_end_to_end(&e);
            e
        })
        .collect()
}

fn end_to_end_doc(e: &EndToEnd) -> Value {
    let t = &e.tally;
    Value::object(END_TO_END.iter().zip(e.values()).map(|(m, v)| {
        let mut fields = vec![
            ("value", Value::Num(v)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
            ("bound", Value::Num(m.bound)),
            ("reps", Value::UInt(t.reps as u64)),
        ];
        if m.name == "wall_ms_per_sim_s" {
            fields.push(("q1", Value::Num(t.wall_ms_per_sim_s(0.25))));
            fields.push(("q3", Value::Num(t.wall_ms_per_sim_s(0.75))));
            fields.push(("p80", Value::Num(t.wall_ms_per_sim_s(0.8))));
        }
        (m.name, Value::object(fields))
    }))
}

/// Whether `b` is worse than `a` by more than the metric's bound, or
/// `a` worse than `b`: two sets of one build must agree both ways.
fn disagree(m: &MetricSpec, a: f64, b: f64) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let base = match m.better {
        Better::Lower => lo,
        Better::Higher => hi,
    };
    (hi - lo) > m.bound * base.abs()
}

/// Whether `metric` repeats exactly under a fixed seed on a workload
/// whose product code runs on `threads` threads: then any difference between two sets of one build is a failure,
/// whatever the bound says. Simulated figures always do; allocation
/// counts do wherever no worker thread is spawned.
fn exact(metric: &str, threads: usize) -> bool {
    match metric {
        "events_per_sim_s" | "paper_gain_err_pp" | "goodput_digest_ok" => true,
        "allocs_per_sim_s" | "alloc_kb_per_sim_s" => threads == 1,
        _ => false,
    }
}

/// `--repeat`: compare every set with the first.
fn agreement(sets: &[Vec<EndToEnd>]) -> bool {
    let mut ok = true;
    for (k, set) in sets.iter().enumerate().skip(1) {
        for (first, other) in sets[0].iter().zip(set) {
            for ((m, a), b) in END_TO_END.iter().zip(first.values()).zip(other.values()) {
                let exact = exact(m.name, first.tally.threads);
                let bad = if exact { a != b } else { disagree(m, a, b) };
                let rel = if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 };
                eprintln!(
                    "{:<15} {:<19} set 1 {:>14.6}  set {} {:>14.6}  {:>+7.2} %  bound {:>4.1} %{}  {}",
                    first.tally.name,
                    m.name,
                    a,
                    k + 1,
                    b,
                    rel,
                    m.bound * 100.0,
                    if exact { " (exact)" } else { "" },
                    if bad { "DISAGREE" } else { "ok" },
                );
                ok &= !bad;
            }
        }
    }
    ok
}

/// No `--workload`: everything, as one document.
fn run_everything(args: &Args, env: &Env, nproc: usize) -> ExitCode {
    let seconds = args.seconds.unwrap_or(18);
    let mut ops = Ops::default();
    let mut doc = vec![("header".to_string(), header(args, env, nproc))];
    let mut passes = Vec::new();

    let mut sets = Vec::new();
    if !args.traced_only {
        for k in 0..args.repeat {
            let started = Instant::now();
            eprintln!("== timed pass, set {} of {} ==", k + 1, args.repeat);
            sets.push(timed_set(env, seconds, &mut ops));
            passes.push((
                format!("timed_set_{}_s", k + 1),
                started.elapsed().as_secs_f64(),
            ));
        }
    }
    let agree = agreement(&sets);

    let mut layers = Vec::new();
    if args.repeat == 1 {
        let started = Instant::now();
        eprintln!("== traced pass ==");
        let shared = traced::layers(env, &mut ops);
        for w in workloads::all(env, ANCHOR_SECONDS) {
            let values = traced::worlds(w.as_ref(), env, TRACED_SECONDS_EACH, &shared, &mut ops);
            layers.push((w.name(), values));
        }
        passes.push(("traced_s".to_string(), started.elapsed().as_secs_f64()));
    }

    doc.push((
        "pass_wall_s".into(),
        Value::object(passes.into_iter().map(|(k, v)| (k, Value::Num(v)))),
    ));
    doc.push((
        "fail_share".into(),
        Value::Num(ops.failed as f64 / ops.attempted.max(1) as f64),
    ));
    let per_workload = WORKLOADS.iter().map(|(name, why)| {
        let mut fields = vec![("why", Value::str(*why))];
        let e2e: Vec<Value> = sets
            .iter()
            .filter_map(|set| set.iter().find(|e| e.tally.name == *name))
            .map(end_to_end_doc)
            .collect();
        if !e2e.is_empty() {
            fields.push(("end_to_end", Value::Array(e2e)));
        }
        if let Some((_, values)) = layers.iter().find(|(n, _)| n == name) {
            fields.push(("per_layer", metrics_object(&PER_LAYER, values)));
        }
        (*name, Value::object(fields))
    });
    doc.push(("workloads".into(), Value::object(per_workload)));

    log_failures(&ops);
    println!("{}", Value::Object(doc).to_pretty());
    if ops.failed == 0 && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The binary's entry point.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (nproc, threads) = worker_threads();
    let env = Env {
        seed: args.seed,
        threads,
        out_dir: args.out.clone(),
    };
    eprintln!("{}", header(&args, &env, nproc).to_line());
    match args.workload.clone() {
        Some(name) => run_contract(&args, &env, &name),
        None => run_everything(&args, &env, nproc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_args(&argv(
            "--workload sora2_stock --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sora2_stock"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(3), true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut ops = Ops::default();
        ops.check(true, String::new);
        let values: Vec<f64> = (0..END_TO_END.len()).map(|i| i as f64 + 0.5).collect();
        let Value::Object(pairs) = contract_line(&ops, &END_TO_END, &values) else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(pairs[0].1, Value::Bool(true));
        let Value::Object(metrics) = &pairs[3].1 else {
            panic!("an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);

        ops.check(false, || "boom".into());
        let Value::Object(pairs) = contract_line(&ops, &END_TO_END, &values) else {
            panic!("an object")
        };
        assert_eq!(pairs[0].1, Value::Bool(false));
        assert_eq!(pairs[2].1, Value::UInt(1));
    }

    #[test]
    fn two_sets_must_agree_both_ways() {
        let lower = &END_TO_END[1];
        assert_eq!((lower.name, lower.bound), ("wall_ms_per_sim_s", 0.25));
        assert!(!disagree(lower, 100.0, 124.0));
        assert!(!disagree(lower, 124.0, 100.0));
        assert!(disagree(lower, 100.0, 126.0));
        assert!(disagree(lower, 126.0, 100.0));
        let higher = &END_TO_END[2];
        assert_eq!((higher.better, higher.bound), (Better::Higher, 0.25));
        assert!(!disagree(higher, 100.0, 76.0));
        assert!(disagree(higher, 100.0, 74.0));
    }
}
