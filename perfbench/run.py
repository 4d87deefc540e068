#!/usr/bin/env python3
"""Build the program and the harness, then run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steady 10 [--seed N] [--seconds S]

Run from the root of the repository. The first form builds the `serve` and
`repro` binaries and the harness in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs the workload, and passes the harness's
output through: the last stdout line is the result JSON. It exits non-zero
without a result line when the repository or the build is missing.

The second form is the steadiness mode: it runs the workload N times with
seeds N0, N0+1, ... and prints, for every metric, the median, the
quartiles (as `statistics.quantiles(values, n=4)` gives them) and
(Q3 - Q1) / median, naming each end-to-end metric whose spread is over a
tenth or over a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro-quick", "serve-hit", "serve-mixed", "router-fanout")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Build the program binaries and the harness; return the bin dir."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"no Cargo workspace at {ROOT}: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmds = [
        ["cargo", "build", "--release", "--offline", "-p", "m3d-serve",
         "-p", "m3d-bench", "--bin", "serve", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release")


def stamp_facts():
    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    return out(["rustc", "-V"]), out(["git", "rev-parse", "HEAD"])


def harness_cmd(bin_dir, workload, seed, seconds, trace, facts):
    rustc, rev = facts
    return [
        os.path.join(bin_dir, "perfbench"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--bin-dir", bin_dir, "--run-dir", os.path.join(ROOT, ".bench_run"),
        "--golden", os.path.join(HERE, "golden.json"),
        "--rustc", rustc, "--rev", rev,
    ]


def run_once(bin_dir, workload, seed, seconds, trace, facts, echo):
    """Run the harness once; return (returncode, stdout lines)."""
    cmd = harness_cmd(bin_dir, workload, seed, seconds, trace, facts)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if echo:
        sys.stdout.write(r.stdout)
    return r.returncode, lines


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def steady(bin_dir, args, facts):
    values = {}
    units = {}
    for k in range(args.steady):
        seed = args.seed + k
        rc, lines = run_once(bin_dir, args.workload, seed, args.seconds,
                             args.trace, facts, echo=False)
        if rc != 0 or not lines:
            fail(f"run with seed {seed} failed")
        res = json.loads(lines[-1])
        if not res["correct"]:
            fail(f"run with seed {seed} failed its output checks: {lines[-1]}")
        print(f"seed {seed}: attempted {res['attempted']} failed "
              f"{res['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in
                  sorted(res["metrics"].items())), file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    bound = bounds()
    unsteady = []
    print(f"{args.workload}: {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, {args.seconds} s each, trace "
          f"{args.trace}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    summary = {}
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        flag = ""
        if name in bound:
            if spread > 0.1:
                flag = "  NOT STEADY (> 0.1)"
            elif spread > bound[name] / 3:
                flag = f"  over a third of its bound {bound[name]}"
            if flag:
                unsteady.append(name)
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}{flag}")
    print(json.dumps({"workload": args.workload, "runs": args.steady,
                      "unsteady": unsteady, "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="steadiness mode: run N times with successive seeds")
    args = p.parse_args()
    bin_dir = build()
    facts = stamp_facts()
    if args.steady:
        if args.steady < 2:
            fail("--steady needs at least 2 runs")
        steady(bin_dir, args, facts)
        return
    rc, _ = run_once(bin_dir, args.workload, args.seed, args.seconds,
                     args.trace, facts, echo=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
