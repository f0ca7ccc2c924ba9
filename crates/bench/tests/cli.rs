//! CLI contract tests for the `experiments` binary: the `--help`
//! snapshot, flag-parsing exit codes and `--trace` output.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn help_output_matches_snapshot() {
    let out = experiments().arg("--help").output().expect("spawn");
    assert!(out.status.success(), "--help must exit 0");
    let expected = include_str!("snapshots/experiments-help.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "help text drifted from the snapshot; regenerate with\n  \
         cargo run -p hack-bench --bin experiments -- --help \
         > crates/bench/tests/snapshots/experiments-help.txt"
    );
    assert!(out.stderr.is_empty(), "--help must not write to stderr");
}

#[test]
fn short_help_flag_works_too() {
    let long = experiments().arg("--help").output().expect("spawn");
    let short = experiments().arg("-h").output().expect("spawn");
    assert!(short.status.success());
    assert_eq!(long.stdout, short.stdout);
}

#[test]
fn unknown_flag_exits_2_with_a_pointer_to_help() {
    let out = experiments().arg("--no-such-flag").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--no-such-flag"), "stderr: {err}");
    assert!(
        err.contains("--help"),
        "stderr should point at --help: {err}"
    );
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = experiments().arg("no-such-cmd").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_flag_value_exits_2() {
    let out = experiments().arg("--trace").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
}

#[test]
fn fault_matrix_traces_every_run_alike_at_any_thread_count() {
    let dir = std::env::temp_dir().join(format!("hack-bench-cli-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut digests = Vec::new();
    for threads in ["1", "2"] {
        let sub = dir.join(threads);
        std::fs::create_dir_all(&sub).expect("temp dir");
        let out = experiments()
            .args(["fault-matrix", "--quick", "--threads", threads, "--trace"])
            .arg(sub.join("t"))
            .output()
            .expect("spawn");
        assert!(out.status.success(), "fault-matrix --trace must exit 0");
        let mut files: Vec<String> = std::fs::read_dir(&sub)
            .expect("read temp dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        files.sort();
        let count = |ext: &str| files.iter().filter(|f| f.ends_with(ext)).count();
        assert_eq!((count(".jsonl"), count(".digest")), (5, 5), "{files:?}");
        let read = |f: &String| (f.clone(), std::fs::read(sub.join(f)).expect("read"));
        digests.push(
            files
                .iter()
                .filter(|f| f.ends_with(".digest"))
                .map(read)
                .collect::<Vec<_>>(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digests[0], digests[1],
        "trace digests differ between 1 and 2 threads"
    );
}
