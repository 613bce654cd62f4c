#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload <fleet_ingest|station_replay|history_query|all> \
        --seed <n> --seconds <s> --trace <0|1> [more pipebench flags]

Builds the `pipebench` package (release, offline, locked) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it from the current
directory, and prints the run's peak resident set, measured from outside
the process. The program's output is passed through; the final line is
its result object, whose metric names are checked against
`BENCHMARK.json` when that file is present.

`--workload all` runs every workload in turn with the same flags, prints
each one's output, and ends with one object whose metrics are named
`<workload>.<metric>`. The exit status is non-zero when the build fails or
any run reports a failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fleet_ingest", "station_replay", "history_query"]


def fail(msg, code=1):
    print(f"pipebench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build chatter goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})", done.returncode)
    return os.path.join(target, "release", "pipebench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, or None."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args, trace):
    """Run one workload; returns (result object, exit status)."""
    proc = subprocess.Popen([binary, "--workload", workload] + args,
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: no result line (exit {proc.returncode})")
    # ru_maxrss is in KiB on Linux. Printed, not gated: the station's query
    # index holds every ingested chunk, so in a fixed-time run the peak
    # rises with throughput.
    print(f"  {'peak_rss_mb':<24} {usage.ru_maxrss / 1024:>16.6f} MiB")
    expected = expected_metrics(trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        print(f"pipebench/run.py: {workload}: metrics differ from BENCHMARK.json: "
              f"missing {missing}, unlisted {extra}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        result["metrics"] = {k: v for k, v in result["metrics"].items() if k in expected}
    return result, proc.returncode


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        fail("usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>", 2)
    i = argv.index("--workload")
    workload = argv[i + 1]
    args = argv[:i] + argv[i + 2:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    binary = build()
    if workload != "all":
        result, code = run_one(binary, workload, args, trace)
        print(json.dumps(result))
        sys.exit(code if code != 0 else (0 if result["correct"] else 1))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        result, code = run_one(binary, w, args, trace)
        print(json.dumps(result))
        worst = worst or code
        total["correct"] = total["correct"] and result["correct"] and code == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else (worst or 1))


if __name__ == "__main__":
    main()
