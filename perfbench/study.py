#!/usr/bin/env python3
"""Steadiness study: run the benchmark on several seeds, one run at a time,
and report each end-to-end metric's median, quartiles and spread.

    python3 perfbench/study.py --workloads grid-export classify --seeds 1-10 --label set-a

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  Results go to perfbench/out/study-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=["grid-export", "classify", "analyze-points"])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--label", default="study")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]

    summary = {}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300, check=True)
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "result": result, "info": info})
            m = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(w, seed, result["correct"], result["attempted"],
                  result["failed"], m, flush=True)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            for kind, get in (
                    ("calibrated", lambda r: r["result"]["metrics"][name]["value"]),
                    ("raw", lambda r: r["info"]["raw"][name])):
                values = [get(r) for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats.setdefault(name, {})[kind] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / statistics.median(values)}
        summary[w] = {"runs": runs, "stats": stats}
        for name, s in stats.items():
            c, r = s["calibrated"], s["raw"]
            print(f"  {w:15s} {name:16s} median {c['median']:.6g} "
                  f"spread {c['spread']:.3f} | raw median {r['median']:.6g} "
                  f"spread {r['spread']:.3f}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"study-{args.label}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
