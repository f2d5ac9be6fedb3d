#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed this runs ``perfbench/run.py`` once (in its own
process, one at a time) and prints, per end-to-end metric, the median, the
quartiles and the quartile spread ``(q3 - q1) / median`` next to the bound
in BENCHMARK.json. Run from the repository root:

    python3 perfbench/prove.py --seeds 10 --out set1.json
    python3 perfbench/prove.py --workloads dense-leafgate-wide --seeds 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, run_one


def run_once(workload: str, seed: int, seconds: int) -> dict:
    result, lines = run_one(workload, seed, seconds, trace=0)
    if not result["metrics"]:
        raise RuntimeError(f"{workload} seed {seed} printed no result")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {**result, "env": env}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=None, help="write every run and the summary to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {"run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            t0 = time.perf_counter()
            res = run_once(workload, seed, args.seconds)
            res.update(seed=seed, wall_s=time.perf_counter() - t0)
            runs.append(res)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: {res['failed']}/{res['attempted']} failed, wall {res['wall_s']:.1f} s", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds.get(name)
            summary[name] = s
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] <= s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}  {flag}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
