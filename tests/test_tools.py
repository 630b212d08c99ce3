"""The comparison tools under tools/ read every output they are given."""

import importlib.util
from pathlib import Path

import json

from twistor4 import surface_expr
from twistor4.catalog import CATALOG
from twistor4.surface_expr import parse_surface

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


def test_each_matrix_surface_has_a_compiled_program_entry():
    # no CLI command compiles, so only these entries see the compiled jets
    tool = _cli_equivalence()
    surfaces = tool._surfaces()
    assert len(surfaces) == len(CATALOG) + len(tool.EXPR_SURFACES) + 2
    entries = [tool._program(*surface) for surface in surfaces]
    assert [command[1:] for command, *_ in entries] == [list(a) for a, _ in surfaces]
    for command, code, out, err in entries:
        assert command[0] == "_compile" and (code, err) == (0, "")
        assert out.startswith("def program(t0, t1):\n") and "\nk0 = " in out


def _changed(monkeypatch, tool):
    """The _compile entry of catenoid_E3, then again with _terms taking each
    product's factors last to first: the same jets, another program."""
    surface = next(s for s in tool._surfaces() if s[0] == ("--surface", "catenoid_E3"))
    old = tool._program(*surface)
    terms = surface_expr._terms
    monkeypatch.setattr(surface_expr, "_terms",
                        lambda *products: terms(*(p[::-1] for p in products)))
    new = tool._program(*surface)
    assert new[1:] != old[1:] and new[1] == 0
    return old, new


def test_fingerprint_mode_sees_a_changed_program(monkeypatch):
    tool = _cli_equivalence()
    old, new = _changed(monkeypatch, tool)
    assert tool._fingerprint(*old) != tool._fingerprint(*new)


def test_two_tree_mode_reports_a_changed_program_as_a_mismatch(monkeypatch):
    tool = _cli_equivalence()
    (command, *old), (_, *new) = _changed(monkeypatch, tool)
    line, exact = tool._compare(command, old, new)
    assert exact and line.startswith("program differs: ")


def test_a_program_entry_names_its_bound_constants():
    # the source names a constant k<i>; its value is listed after the source
    tool = _cli_equivalence()
    a, b = (tool._program(("--expr", text), parse_surface(text))
            for text in ("u, v, 2*u*v, 0", "u, v, 3*u*v, 0"))
    assert a[2] != b[2]
    assert a[2].split("\nk0 = ")[0] == b[2].split("\nk0 = ")[0]


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


def _bench_run(workload, seed, side, metrics, failed=0):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": x, "unit": "u"} for k, x in metrics.items()}}}


def test_bench_pairs_summary_reads_medians_pairs_and_spread():
    tool = _tool("bench_pairs")
    pps = {"parent": [10.0, 20.0, 30.0, 40.0], "change": [11.0, 19.0, 33.0, 44.0]}
    p50 = {"parent": [4.0, 4.0, 2.0, 2.0], "change": [3.0, 5.0, 1.0, 2.0]}
    runs = [_bench_run("w", seed, side, {"points_per_s": pps[side][seed - 1],
                                         "latency_p50_ms": p50[side][seed - 1]},
                       failed=int(side == "change" and seed == 4))
            for seed in range(1, 5) for side in ("parent", "change")]
    # per-layer metrics of three traced seeds; the change lacks "only_parent_ms"
    traced = [_bench_run("w", seed, side, {"geometry.x_ms": x, "zero_ms": 0.0,
                                           **({"only_parent_ms": 1.0} if side == "parent"
                                              else {})})
              for seed, xs in ((1, (1.0, 2.0)), (2, (2.0, 2.0)), (3, (3.0, 1.0)))
              for side, x in zip(("parent", "change"), xs)]
    doc = {"runs": runs, "traced": {"runs": traced}}
    assert tool.summary(doc, {"points_per_s": "higher", "latency_p50_ms": "lower",
                              "setup_s": "lower"}) == [
        "w: 8 of 8 runs correct, 1 operations failed",
        # medians 25 and 26; seeds 1, 3, 4 better; exclusive quartiles 12.5, 37.5
        "  points_per_s              25 ->          26   +4.00 %, better in 3 of 4 pairs, "
        "parent quartile spread 25",
        # lower is better: seeds 1 and 3; quartiles 2 and 4
        "  latency_p50_ms             3 ->         2.5  -16.67 %, better in 2 of 4 pairs, "
        "parent quartile spread 2",
        "w traced: medians over seeds 1, 2, 3",
        "  geometry.x_ms                                      2 ->           2   +0.00 %",
        "  zero_ms                                            0 ->           0        -",
    ]
