#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent, as BENCH_<label>.json.

Usage:
    python3 tools/bench_pairs.py --label LABEL --parent REV
        --describe TEXT --pairs WORKLOAD:SEEDS [--pairs ...]
        [--traced WORKLOAD:SEED ...] [--protocol-note TEXT]

e.g. --pairs classify:1-11 --pairs grid-export:1-5 --traced classify:2.

The change is HEAD, and the file is written at the repository root.  Each
side is the committed files of its revision, exported with `git archive`
into a temporary directory outside the repository, so that neither
uncommitted edits nor build output of the working tree take part, and
`perfbench/run.py` runs there, one process at a time, with the benchmark's
run length and no tracing:

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

For each workload and seed the side that runs first alternates with the
seed's parity, parent first on odd seeds, so that a drift of the machine
over the session does not favour one side.  Each `--traced` run (--trace 1,
per-layer metrics) is made once per side, in the same order.  The file gets
the schema of the earlier BENCH files: `change` (TEXT), `parent` (the
parent's commit), `command`, `protocol`, `machine` and `runs`, one entry
{workload, seed, side, result} per run in the order made, `result` holding
run.py's verdict (`correct`, `attempted`, `failed`) and metrics; traced runs
go under `traced`.  The temporary trees are removed afterwards.  The file is
written after every run, so an interrupted session keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--describe", required=True, help="what the change does")
    p.add_argument("--pairs", type=seed_spec, action="append", required=True,
                   metavar="WORKLOAD:SEEDS")
    p.add_argument("--traced", type=seed_spec, action="append", default=[],
                   metavar="WORKLOAD:SEED")
    p.add_argument("--protocol-note", default="",
                   help="appended to the protocol, e.g. which seeds carry a claim")
    args = p.parse_args(argv)

    revs = {"parent": commit(args.parent), "change": commit("HEAD")}
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {
        "change": args.describe,
        "parent": revs["parent"],
        "command": COMMAND.format(0),
        "protocol": ("parent and change each run from a fresh copy of the "
                     "committed files of its revision (git archive), one "
                     "process at a time; the side that runs first alternates "
                     "with the seed (parent first on odd seeds); change "
                     f"revision {revs['change']}" + (
                         f"; {args.protocol_note}" if args.protocol_note else "")),
        "machine": MACHINE,
        "runs": [],
    }
    if args.traced:
        doc["traced"] = {"command": COMMAND.format(1),
                         "runs": []}
    plan = [(doc["runs"], w, s, 0) for w, seeds in args.pairs for s in seeds]
    plan += [(doc["traced"]["runs"], w, s, 1)
             for w, seeds in args.traced for s in seeds]

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: export(rev, tmp / side) for side, rev in revs.items()}
        for runs, workload, seed, trace in plan:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
