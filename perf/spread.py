"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perf/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                           [--out FILE]
    python3 perf/spread.py --compare FIRST.json SECOND.json

Run from the repository root.  Each workload runs --runs times, one seed
each, with BENCHMARK.json's command and run_seconds and tracing off.
For every end-to-end metric it prints the median and the interquartile
distance as a share of the median (Python's statistics.quantiles, n=4),
and flags a spread that is not below a third of the metric's bound.
--compare checks that no median of the second set is worse than the
first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(first, second, better):
    return (second - first) / first if better == "lower" else (first - second) / first


def run_set(bench, args):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    result = {}
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            line = json.loads(out.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect result: {line}")
            for metric in values:
                values[metric].append(line["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        result[name] = {k: {"values": v, "median": statistics.median(v), "spread": spread(v)}
                        for k, v in values.items()}
    ok = True
    for name, metrics in result.items():
        for m in bench["end_to_end"]:
            s = metrics[m["name"]]
            steady = m["name"] == "setup_s" or s["spread"] < m["bound"] / 3
            ok &= steady
            print(f"{name:15} {m['name']:12} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {m['bound']}{'' if steady else '  NOT STEADY'}")
    return result, ok


def compare(bench, first, second):
    ok = True
    for name in first:
        for m in bench["end_to_end"]:
            a, b = first[name][m["name"]]["median"], second[name][m["name"]]["median"]
            share = worse_share(a, b, m["better"])
            within = share <= m["bound"]
            ok &= within
            print(f"{name:15} {m['name']:12} {a:12.6g} -> {b:12.6g}  worse by {share:+.4f}"
                  f"  bound {m['bound']}{'' if within else '  REGRESSED'}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)
    result, ok = run_set(bench, args)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
