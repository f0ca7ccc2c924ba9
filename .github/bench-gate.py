#!/usr/bin/env python3
"""Gate the repo benchmark's exact counts against bench-expect.json.

Run from the repository root. For every workload in the expectation file
beside this script it runs

    bash benchmark/run.sh --workload <w> --seed 1 --seconds <s> --trace 0

with <s> = 3, except 20 for `paper_anchors`: at 20 s that workload runs
its whole 12-seed bank, the one acceptance runs, where at 3 s it runs
one seed and cannot see a check that fails on another. It then checks the JSON object on the last line of its output: no failed
operation, the goodput digests intact, `events_per_sim_s` exactly the
committed value (the simulation is deterministic: a difference is a
changed simulated bit, not noise) and `allocs_per_sim_s` at or under the
committed ceiling (5 % above what was measured; the threaded workloads'
counts move by a few hundred with thread timing). Wall-clock is not
gated here: it stays a trend in BENCH_history.jsonl.

`--record` prints a fresh expectation file instead of checking.
"""
import json
import pathlib
import subprocess
import sys

EXPECT = pathlib.Path(__file__).with_name("bench-expect.json")
HEADROOM = 1.05
SECONDS = {"paper_anchors": "20"}


def measure(workload):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload]
    cmd += ["--seed", "1", "--seconds", SECONDS.get(workload, "3"), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    expect = json.loads(EXPECT.read_text())
    record = "--record" in sys.argv[1:]
    bad = []
    for workload, want in expect.items():
        got = measure(workload)
        value = {name: m["value"] for name, m in got["metrics"].items()}
        events, allocs = value["events_per_sim_s"], value["allocs_per_sim_s"]
        print(f"{workload}: events_per_sim_s {events}, allocs_per_sim_s {allocs}", file=sys.stderr)
        if got["failed"] != 0 or value["goodput_digest_ok"] != 1:
            bad.append(f"{workload}: {got['failed']} failed operations, "
                       f"goodput_digest_ok {value['goodput_digest_ok']}")
        if record:
            want["events_per_sim_s"] = events
            want["allocs_per_sim_s_max"] = round(allocs * HEADROOM, 1)
            continue
        if events != want["events_per_sim_s"]:
            bad.append(f"{workload}: events_per_sim_s {events}, expected exactly "
                       f"{want['events_per_sim_s']}")
        if allocs > want["allocs_per_sim_s_max"]:
            bad.append(f"{workload}: allocs_per_sim_s {allocs} over the ceiling "
                       f"{want['allocs_per_sim_s_max']}")
    if record:
        print(json.dumps(expect, indent=2))
    for line in bad:
        print(f"bench gate: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
