"""The comparison tools under tools/ read every output they are given."""

import importlib.util
from pathlib import Path

import json

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_equivalence():
    return _tool("cli_equivalence")


def test_leaves_reads_a_csv_field_over_128_kib():
    # the csv module refuses fields over 128 KiB by default, which ended a
    # comparison in a traceback instead of a report
    field = "x" * 200000
    leaves = _cli_equivalence()._leaves("a,b\r\n1," + field + "\r\n", True)
    assert list(leaves) == [("a", 1.0), ("b", field)]


def test_a_command_that_raises_is_a_mismatch_not_a_traceback():
    # an exception from cli.main ended the whole comparison in a traceback
    tool = _cli_equivalence()

    def main(argv):
        raise OverflowError("(34, 'Numerical result out of range')")

    crashed = tool._run(main, ["residuals", "--n", "5"])
    assert crashed == ("exception", "",
                       "OverflowError: (34, 'Numerical result out of range')\n")
    line, exact = tool._compare(["residuals", "--n", "5"], [4, "", "error: x\n"],
                                list(crashed))
    assert exact and line.startswith("exit 4 -> exception")


def _bench_file(path, parent, values):
    # BENCH-shaped: values maps (workload, side) to the points_per_s of its runs
    runs = [{"workload": w, "seed": seed, "side": side,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"points_per_s": {"value": x, "unit": "points/s"}}}}
            for (w, side), xs in values.items() for seed, x in enumerate(xs, 1)]
    path.write_text(json.dumps({"change": "c", "parent": parent, "runs": runs,
                                "superseded_runs": [{"oops": True}]}))
    return path


def test_bench_trajectory_chains_ratios_of_medians(tmp_path):
    tool = _tool("bench_trajectory")
    # the files are given out of PR order; grid-export is in the second only
    second = _bench_file(tmp_path / "BENCH_pr10.json", "b" * 40, {
        ("classify", "parent"): [2.0], ("classify", "change"): [1.0],
        ("grid-export", "parent"): [4.0, 1.0], ("grid-export", "change"): [5.0, 5.0]})
    first = _bench_file(tmp_path / "BENCH_pr9.json", "a" * 40, {
        ("classify", "parent"): [1.0, 2.0, 3.0], ("classify", "change"): [2.0, 4.0, 3.0]})
    files = sorted([second, first], key=tool.pr_number)
    assert tool.trajectory(files, ["points_per_s", "setup_s"]) == [
        "classify points_per_s",
        "  BENCH_pr9.json     runs  3/3  ratio   1.5000  running   1.5000",
        "  BENCH_pr10.json    runs  1/1  ratio   0.5000  running   0.7500",
        "grid-export points_per_s",
        "  BENCH_pr10.json    runs  2/2  ratio   2.0000  running   2.0000",
    ]


def test_bench_trajectory_flags_a_parent_that_is_not_the_previous_file(tmp_path):
    tool = _tool("bench_trajectory")
    files = [_bench_file(tmp_path / f"BENCH_pr{n}.json", p, {})
             for n, p in ((1, "a" * 40), (2, "b" * 40), (3, "f" * 40))]
    added = {files[0]: "b" * 40, files[1]: "e" * 40}
    assert tool.parent_flags(files, added) == [
        f"FLAG BENCH_pr3.json: parent {'f' * 12} is not {'e' * 12}, which added "
        "BENCH_pr2.json, which git cannot compare with it"]
    assert tool.parent_flags(files, {files[0]: "b" * 40, files[1]: None}) == [
        "BENCH_pr3.json: BENCH_pr2.json is not committed; parent not checked"]
