#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py [--workloads figures,certify,oracle_grid]
        [--seeds 1-10] [--trace-seed 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed) in sequence, then once with
``--trace 1`` per workload, and records for every metric its median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median against the bound in BENCHMARK.json.  Prints one line
per metric; with ``--out`` it also writes the summary with provenance.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return dict(result, wall_s=wall, provenance=prov)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    summary = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [dict(run_once(workload, seed, args.seconds, 0), seed=seed)
                for seed in parse_seeds(args.seeds)]
        entry = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "wall_s": summarize([r["wall_s"] for r in runs]), "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bounds[name],
                         values=values)
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:14s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        print(f"{workload:12s} failed {entry['failed']}/{entry['attempted']}, "
              f"wall median {entry['wall_s']['median']:.1f} s", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "failed": traced["failed"],
                                  "metrics": {k: v["value"]
                                              for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
        summary["provenance"] = dict(runs[0]["provenance"], seed=None)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
