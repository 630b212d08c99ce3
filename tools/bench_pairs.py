#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent, as BENCH_<label>.json.

Usage:
    python3 tools/bench_pairs.py --label LABEL --parent REV
        --describe TEXT --pairs WORKLOAD:SEEDS [--pairs ...]
        [--traced WORKLOAD:SEEDS ...] [--protocol-note TEXT]

e.g. --pairs classify:1-11 --pairs grid-export:1-5 --traced classify:1-3.

The change is HEAD, and the file is written at the repository root.  Each
side is the committed files of its revision, exported with `git archive`
into a temporary directory outside the repository, so that neither
uncommitted edits nor build output of the working tree take part, and
`perfbench/run.py` runs there, one process at a time, with the benchmark's
run length and no tracing:

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

For each workload and seed the side that runs first alternates with the
seed's parity, parent first on odd seeds, so that a drift of the machine
over the session does not favour one side.  Each `--traced` seed is run
once per side (--trace 1, per-layer metrics), in the same order.  The file gets
the schema of the earlier BENCH files: `change` (TEXT), `parent` (the
parent's commit), `command`, `protocol`, `machine` and `runs`, one entry
{workload, seed, side, result} per run in the order made, `result` holding
run.py's verdict (`correct`, `attempted`, `failed`) and metrics; traced runs
go under `traced`; `change_commit` is the change's commit.  The temporary
trees are removed afterwards.  The file is written after every run, so an
interrupted session keeps what it measured, and the same command resumes
it: when BENCH_<label>.json already names the same parent and change
commits, its runs are kept (with its description and protocol) and each
(workload, seed, side, trace) run it holds is skipped.  When it names other
commits, the command exits without touching it.

After the runs it prints `summary` of the file: per workload and
end-to-end metric of the benchmark, the medians of both sides, the change
in %, the pairs where the change is better and the parent's quartile
spread; then per traced workload the median of each per-layer metric over
its traced seeds, on both sides, since one traced run drifts with the
machine more than a change moves it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 40  # the run length of the benchmark's command
MACHINE = "2-core Xeon, shared with other workloads"
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace {{}}"


def commit(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           f"{rev}^{{commit}}"], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, extracted into a new directory dest."""
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def seed_spec(text: str):
    """WORKLOAD:SEEDS, the seeds as 'a-b' or 'a,b,c', into (workload, [seeds])."""
    workload, _, seeds = text.partition(":")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    if not workload or not out:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return workload, out


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def start(out: Path, revs: dict, fresh: dict) -> dict:
    """The document to extend: the one at out when it names the parent and
    change commits of revs, fresh when there is none; exits when out names
    other commits, leaving it as it is."""
    if not out.exists():
        return fresh
    doc = json.loads(out.read_text())
    held = (doc.get("parent"), doc.get("change_commit"))
    if held != (revs["parent"], revs["change"]):
        raise SystemExit(f"{out.name} holds runs of parent {held[0]} and change "
                         f"{held[1]}, not of {revs['parent']} and {revs['change']}; "
                         "move it away or choose another --label")
    return doc


def pending(doc: dict, pairs, traced) -> list:
    """(runs, workload, seed, trace, side) of each run of the session that
    doc does not hold yet, in the order to make them, runs being the list
    of doc it goes to: for each workload and seed the side that runs first
    alternates with the seed's parity, parent first on odd seeds."""
    plan = []
    for trace, specs in ((0, pairs), (1, traced)):
        if not specs:
            continue
        runs = doc["traced"]["runs"] if trace else doc["runs"]
        done = {(r["workload"], r["seed"], r["side"]) for r in runs}
        plan += [(runs, w, s, trace, side) for w, seeds in specs for s in seeds
                 for side in (("parent", "change") if s % 2 else ("change", "parent"))
                 if (w, s, side) not in done]
    return plan


def _values(runs, workload, side, name):
    """{seed: value} of one metric over the runs of a workload on one side."""
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs
            if (r["workload"], r["side"]) == (workload, side)
            and name in r["result"]["metrics"]}


def _change(p, c):
    return f"{100 * (c - p) / p:+7.2f} %" if p else "       -"


def summary(doc: dict, better: dict) -> list:
    """Lines that sum up a BENCH document; better maps each end-to-end
    metric to "higher" or "lower".  The quartiles are statistics.quantiles'
    (its default, exclusive method)."""
    lines = []
    runs = doc["runs"]
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == w]
        lines.append(f"{w}: {sum(r['correct'] for r in mine)} of {len(mine)} runs "
                     f"correct, {sum(r['failed'] for r in mine)} operations failed")
        for name, direction in better.items():
            parent, change = (_values(runs, w, side, name) for side in ("parent", "change"))
            if not (parent and change):
                continue
            p, c = statistics.median(parent.values()), statistics.median(change.values())
            seeds = parent.keys() & change.keys()
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
            q1, _, q3 = (statistics.quantiles(parent.values(), n=4)
                         if len(parent) > 1 else (p, p, p))
            lines.append(f"  {name:16s} {p:11.5g} -> {c:11.5g} {_change(p, c)}, "
                         f"better in {wins} of {len(seeds)} pairs, "
                         f"parent quartile spread {q3 - q1:.3g}")
    traced = doc.get("traced", {}).get("runs", [])
    for w in dict.fromkeys(r["workload"] for r in traced):
        mine = [r for r in traced if r["workload"] == w]
        seeds = sorted({r["seed"] for r in mine})
        lines.append(f"{w} traced: medians over seeds {', '.join(map(str, seeds))}")
        for name in dict.fromkeys(n for r in mine for n in r["result"]["metrics"]):
            sides = [_values(traced, w, side, name) for side in ("parent", "change")]
            if all(sides):
                p, c = (statistics.median(x.values()) for x in sides)
                lines.append(f"  {name:40s} {p:11.5g} -> {c:11.5g} {_change(p, c)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--describe", required=True, help="what the change does")
    p.add_argument("--pairs", type=seed_spec, action="append", required=True,
                   metavar="WORKLOAD:SEEDS")
    p.add_argument("--traced", type=seed_spec, action="append", default=[],
                   metavar="WORKLOAD:SEEDS")
    p.add_argument("--protocol-note", default="",
                   help="appended to the protocol, e.g. which seeds carry a claim")
    args = p.parse_args(argv)

    revs = {"parent": commit(args.parent), "change": commit("HEAD")}
    out = ROOT / f"BENCH_{args.label}.json"
    doc = start(out, revs, {
        "change": args.describe,
        "parent": revs["parent"],
        "change_commit": revs["change"],
        "command": COMMAND.format(0),
        "protocol": ("parent and change each run from a fresh copy of the "
                     "committed files of its revision (git archive), one "
                     "process at a time; the side that runs first alternates "
                     "with the seed (parent first on odd seeds); change "
                     f"revision {revs['change']}" + (
                         f"; {args.protocol_note}" if args.protocol_note else "")),
        "machine": MACHINE,
        "runs": [],
    })
    if args.traced:
        doc.setdefault("traced", {"command": COMMAND.format(1), "runs": []})
    plan = pending(doc, args.pairs, args.traced)
    print(f"{len(plan)} runs to make", flush=True)

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: export(rev, tmp / side) for side, rev in revs.items()}
        for runs, workload, seed, trace, side in plan:
            result = run(trees[side], workload, seed, trace)
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "result": result})
            out.write_text(json.dumps(doc, indent=1) + "\n")
            pps = result["metrics"].get("points_per_s", {}).get("value")
            print(f"{workload} seed {seed} trace {trace} {side}: correct "
                  f"{result['correct']}, failed {result['failed']}"
                  + (f", {pps:.0f} points/s" if pps else ""), flush=True)
    finally:
        shutil.rmtree(tmp)
    print(f"wrote {out}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(summary(doc, {m["name"]: m["better"] for m in bench["end_to_end"]})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
