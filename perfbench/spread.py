#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads serve-single,paper-grid --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a checkout. For every workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(third minus first quartile, as a share of the median) next to the metric's
bound from BENCHMARK.json; a spread above a third of its bound is flagged.
--trace 1 does the same for the per-layer metrics (which have no bound).
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the per-workload medians and quartiles here")
    args = ap.parse_args()

    defs = bench["per_layer" if args.trace else "end_to_end"]
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        env = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            info = json.loads(lines[-2]) if len(lines) > 1 else {}
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect: {info.get('errors')}", file=sys.stderr)
                ok = False
            runs.append(res)
            env = {k: info.get(k) for k in ("nproc", "gomaxprocs", "go_version", "cpu_model",
                                            "ops", "open_loop_rate_per_s", "rounds", "tail")}
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
        rows = {}
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                ok = False
            print(f"{wl:14s} {d['name']:30s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}" + (f"  bound {bound}" if bound is not None else "") + flag)
            rows[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread}
        report[wl] = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
                      "environment": env, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
