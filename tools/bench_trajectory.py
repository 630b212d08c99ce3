#!/usr/bin/env python3
"""The benchmark trajectory across the committed BENCH_pr<N>.json files.

Usage:
    python3 tools/bench_trajectory.py

Reads every BENCH_pr<N>.json at the repository root, in PR order, by N.  For each workload and each end-to-end metric
of BENCHMARK.json, prints one line per file: the number of change and parent
runs, the change/parent ratio of their medians, and the running product of
those ratios over the files so far.  Only ratios chain: absolute medians of
the same code drift between sessions, so they do not compare across files.
A file's `superseded_runs` are not read.

Inside a git checkout, each file's `parent` should be the last commit that
wrote the previous file, so that the chain has no gap: a file rerun whole on
the final sources of its change is written again, and the next change starts
from there.  A file whose parent is
another commit is flagged, with how many commits lie between the two and
how many files under src/ and perfbench/ those commits change; a chain
through a flagged file holds only where that count is 0.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pr_number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
    if not match:
        raise ValueError(f"{path.name} is not named BENCH_pr<N>.json")
    return int(match.group(1))


def ratios(doc: dict, metrics) -> dict:
    """{(workload, metric): (change runs, parent runs, ratio of medians)}
    over the runs of one BENCH file that report the metric."""
    values = {}
    for run in doc["runs"]:
        for metric in metrics:
            if metric in run["result"]["metrics"]:
                values.setdefault((run["workload"], metric), {}).setdefault(
                    run["side"], []).append(run["result"]["metrics"][metric]["value"])
    return {key: (len(sides["change"]), len(sides["parent"]),
                  statistics.median(sides["change"]) / statistics.median(sides["parent"]))
            for key, sides in values.items()
            if sides.get("change") and sides.get("parent")}


def trajectory(files, metrics) -> list:
    """Lines of the report: per workload and metric, each file's ratio and
    the running product."""
    per_file = [(f, ratios(json.loads(f.read_text()), metrics)) for f in files]
    workloads = sorted({w for _, r in per_file for w, _ in r})
    lines = []
    for workload in workloads:
        for metric in metrics:
            rows = [(f, r[workload, metric]) for f, r in per_file
                    if (workload, metric) in r]
            if not rows:
                continue
            lines.append(f"{workload} {metric}")
            product = 1.0
            for f, (n_change, n_parent, ratio) in rows:
                product *= ratio
                lines.append(f"  {f.name:<18} runs {n_change:>2}/{n_parent:<2} "
                             f"ratio {ratio:8.4f}  running {product:8.4f}")
    return lines


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def writing_commit(path: Path):
    """The last commit that wrote path, or None where git has no record."""
    try:
        return _git("log", "-1", "--format=%H", "--", str(path)) or None
    except (OSError, subprocess.CalledProcessError):
        return None


def gap(expected: str, parent: str) -> str:
    """How far parent is from expected: the commits between and the files
    under src/ and perfbench/ they change."""
    status = subprocess.run(["git", "-C", str(ROOT), "merge-base", "--is-ancestor",
                             expected, parent], capture_output=True).returncode
    if status:  # 1: not an ancestor; otherwise git knows no such commit
        return ("which does not descend from it" if status == 1
                else "which git cannot compare with it")
    commits = _git("rev-list", "--count", f"{expected}..{parent}")
    changed = _git("diff", "--name-only", expected, parent, "--", "src", "perfbench")
    return (f"{commits} commit(s) later, changing "
            f"{len(changed.splitlines())} file(s) under src/ and perfbench/")


def parent_flags(files, added) -> list:
    """A line for each file whose parent is not the last commit that wrote
    (added the content of) the previous file; added maps each file to that
    commit or None."""
    lines = []
    for prev, f in zip(files, files[1:]):
        parent = json.loads(f.read_text())["parent"]
        expected = added.get(prev)
        if expected is None:
            lines.append(f"{f.name}: {prev.name} is not committed; parent not checked")
        elif parent != expected:
            lines.append(f"FLAG {f.name}: parent {parent[:12]} is not "
                         f"{expected[:12]}, which added {prev.name}, "
                         f"{gap(expected, parent)}")
    return lines


def main() -> int:
    files = sorted(ROOT.glob("BENCH_pr*.json"), key=pr_number)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    print("\n".join(trajectory(files, metrics)))
    if (ROOT / ".git").exists():
        flags = parent_flags(files, {f: writing_commit(f) for f in files})
        print("\n".join(flags) if flags else "every parent is the previous file's commit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
