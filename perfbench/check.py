#!/usr/bin/env python3
"""Steadiness and exact-repeat checks for the benchmark in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/check.py repeat [--workload W] [--seed N]
      Runs each workload twice with the same seed and --trace 1. Every
      count, ratio and virtual-time (vt*) metric must repeat exactly;
      every host end-to-end metric must stay within its bound.

  python3 perfbench/check.py spread --workload W --seeds 1,2,3,4,5
      Runs one workload once per seed with --trace 0 and prints, per
      end-to-end metric, the interquartile range over the runs as a share
      of their median, beside the metric's bound.

Both exit non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    """Runs the benchmark once; returns (result JSON, every table metric)."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True, text=True).stdout
    lines = out.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            table[parts[0]] = float(parts[1])
    result = json.loads(lines[-1])
    # The JSON carries full precision; prefer it over the table.
    table.update({n: m["value"] for n, m in result["metrics"].items()})
    return result, table


def exact(metric):
    return metric["unit"] in ("count", "ratio") or metric["name"].startswith("vt")


def repeat(bench, workloads, seed):
    ok = True
    for w in workloads:
        (ra, a), (rb, b) = (run(bench, w, seed, 1) for _ in range(2))
        for r in (ra, rb):
            if not r["correct"] or r["failed"]:
                print(f"{w}: run not correct or requests failed: {r['failed']}")
                ok = False
        same = True
        for m in bench["per_layer"] + bench["end_to_end"]:
            n = m["name"]
            if exact(m):
                if a[n] != b[n]:
                    print(f"{w}: {n} differs between same-seed runs: {a[n]} vs {b[n]}")
                    same = False
            elif "bound" in m:
                d = abs(a[n] - b[n]) / max(min(a[n], b[n]), 1e-12)
                flag = "" if d <= m["bound"] else "  OVER BOUND"
                ok &= not flag
                print(f"{w}: {n:<24} {a[n]:.6g} vs {b[n]:.6g}  diff {d:.3f} bound {m['bound']}{flag}")
        print(f"{w}: counts, ratios and vt* metrics repeat exactly: {'yes' if same else 'NO'}")
        ok &= same
    return ok


def spread(bench, workload, seeds, verbose):
    rows = [run(bench, workload, s, 0)[1] for s in seeds]
    ok = True
    for m in bench["end_to_end"]:
        vals = [r[m["name"]] for r in rows]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        share = (q[2] - q[0]) / med if med else 0.0
        mark = "ok" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "OVER")
        if m["name"] != "setup_s":
            ok &= share <= m["bound"]
        print(f"{workload}: {m['name']:<24} median {med:<14.6g} spread {share:.4f} bound {m['bound']}  {mark}")
        if verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["repeat", "spread"])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("-v", "--verbose", action="store_true", help="print every run's value")
    a = p.parse_args()
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    if a.mode == "repeat":
        ok = repeat(bench, [a.workload] if a.workload else names, a.seed)
    else:
        if not a.workload:
            p.error("spread needs --workload")
        ok = spread(bench, a.workload, [int(s) for s in a.seeds.split(",")], a.verbose)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
