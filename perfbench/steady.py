#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload serve-wide --seeds 1-10 [--trace 0] [--seconds 10]

Spread is the interquartile range (statistics.quantiles, n=4) as a share
of the median.  Each run's result line is appended to
.bench_out/steady-<workload>-trace<t>.jsonl.
"""
import argparse, json, os, statistics, subprocess, sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default="10")
    a = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    log = os.path.join(root, ".bench_out", f"steady-{a.workload}-trace{a.trace}.jsonl")
    runs = []
    for s in seeds(a.seeds):
        p = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(s),
             "--seconds", a.seconds, "--trace", a.trace],
            cwd=root, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        res["seed"] = s
        runs.append(res)
        with open(log, "a") as f:
            f.write(json.dumps(res) + "\n")
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
