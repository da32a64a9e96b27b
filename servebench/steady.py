#!/usr/bin/env python3
"""Steadiness runs of the serving benchmark.

Runs every workload (or those named with --workload) once per seed,
untraced, and records for each end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. The spread of
a metric must stay within its bound in BENCHMARK.json.

    python3 servebench/steady.py --seeds 1-10 --out servebench/steadiness.json

Run from the repository root. Prints one line per run and a table at
the end; exits 1 if any run failed or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]

    record = {
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                continue
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: {time.time() - t0:.1f} s "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m], "values": vs}
            if m != "setup_s" and spread > bounds[m]:
                ok = False
        record["workloads"][name] = rows

    for name, rows in record["workloads"].items():
        print(f"\n{name}")
        for m, r in rows.items():
            print(f"  {m:<20} median {r['median']:<12.5g} q1 {r['q1']:<12.5g} q3 {r['q3']:<12.5g}"
                  f" spread {r['spread']:.4f} (bound {r['bound']}, third {r['bound'] / 3:.4f})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
