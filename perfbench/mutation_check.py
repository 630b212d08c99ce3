#!/usr/bin/env python3
"""Show that every output check rejects a deliberately corrupted output.

    python3 perfbench/mutation_check.py

Produces one real output of each kind with the program, confirms that the
checks accept it, then feeds corrupted copies -- to the checks, never to the
program -- and confirms that each is rejected.  Exits 1 if a check accepts a
corrupted output or rejects a real one.
"""

import copy
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401 -- pins BLAS threads, finds src/
from checks import (GRID_COLUMNS, CheckFailed, check_grid_csv, check_grid_json,
                    check_isotropy_json, check_point, check_residuals_json,
                    point_output)
import surfaces

N_GRID = 11
failures = []


def expect(label, check, *args, accept=False):
    try:
        check(*args)
    except CheckFailed as exc:
        ok = not accept
        detail = str(exc)
    else:
        ok = accept
        detail = "accepted"
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if not ok:
        failures.append(label)


def cli_output(cli, tmp, argv):
    path = Path(tmp) / "out"
    rc = cli.main([*argv, "--out", str(path)])
    if rc != 0:
        raise SystemExit(f"twistor4 {' '.join(argv)} exited {rc}")
    return path.read_text(encoding="utf-8")


def edit_json(text, fn):
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


def edit_csv(text, fn):
    rows = list(csv.reader(io.StringIO(text)))
    fn(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def col(name):
    return GRID_COLUMNS.index(name)


def row_with_c3(rows, prefix, threshold=0.1):
    k = col(f"{prefix}_3")
    return next(i for i, r in enumerate(rows) if abs(float(r[k])) > threshold)


def grid_checks(cli, tmp):
    sq = surfaces.catalog_case("holo_square")
    args = ["grid", "--surface", "holo_square", "--n", str(N_GRID)]
    text = cli_output(cli, tmp, [*args, "--format", "json"])
    expect("grid json holo_square as produced", check_grid_json, sq, N_GRID,
           text, accept=True)

    def set_cell(row, name, fn):
        def edit(doc):
            r = doc["rows"][row]
            r[col(name)] = fn(r[col(name)])
        return edit

    rows = json.loads(text)["rows"]
    m = row_with_c3(rows, "cminus")
    mutations = [
        ("g11 + 1e-6", set_cell(7, "g11", lambda x: x + 1e-6)),
        ("g12 + 1e-6", set_cell(3, "g12", lambda x: x + 1e-6)),
        ("|H| = 1e-6 on a minimal surface", set_cell(5, "H_norm", lambda x: 1e-6)),
        ("u shifted by 1e-6", set_cell(4, "u", lambda x: x + 1e-6)),
        ("c+ scaled by 1 + 1e-6", lambda d: [
            set_cell(2, f"cplus_{k}", lambda x: x * (1 + 1e-6))(d)
            for k in (1, 2, 3)]),
        ("g+ real part + 1e-6", set_cell(2, "gplus_re", lambda x: x + 1e-6)),
        ("g- antipode flag flipped", set_cell(m, "gminus_antipode",
                                              lambda x: not x)),
        ("+ lift rotated by 1e-6 (still unit, chart consistent)",
         lambda d: [set_cell(6, "cplus_2", lambda x: 1e-6)(d),
                    set_cell(6, "cplus_1", lambda x: (1 - 1e-12) ** 0.5)(d),
                    set_cell(6, "gplus_im", lambda x: 1e-6)(d)]),
        ("NaN in a row", set_cell(1, "res_a", lambda x: float("nan"))),
        ("one row dropped", lambda d: d["rows"].pop()),
        ("summary.minimal flipped", lambda d: d["summary"].update(
            minimal=not d["summary"]["minimal"])),
        ("column renamed", lambda d: d["columns"].__setitem__(2, "G11")),
    ]
    for label, fn in mutations:
        expect(f"grid json holo_square, {label}", check_grid_json, sq, N_GRID,
               edit_json(text, fn))

    sphere = surfaces.catalog_case("round_sphere")
    text = cli_output(cli, tmp, ["grid", "--surface", "round_sphere", "--n",
                                 str(N_GRID), "--format", "json"])
    expect("grid json round_sphere as produced", check_grid_json, sphere,
           N_GRID, text, accept=True)
    expect("grid json round_sphere, |H| + 1e-6", check_grid_json, sphere,
           N_GRID, edit_json(text, set_cell(9, "H_norm", lambda x: x + 1e-6)))

    noniso = surfaces.catalog_case("nonisothermal_graph")
    text = cli_output(cli, tmp, ["grid", "--surface", "nonisothermal_graph",
                                 "--n", str(N_GRID), "--format", "json"])
    expect("grid json nonisothermal_graph as produced", check_grid_json,
           noniso, N_GRID, text, accept=True)
    expect("grid json nonisothermal_graph, g22 + 1e-6", check_grid_json,
           noniso, N_GRID, edit_json(text, set_cell(8, "g22",
                                                    lambda x: x + 1e-6)))
    expect("grid json nonisothermal_graph, a lift value filled in",
           check_grid_json, noniso, N_GRID,
           edit_json(text, set_cell(0, "cplus_1", lambda x: 1.0)))

    text = cli_output(cli, tmp, [*args, "--format", "csv"])
    expect("grid csv holo_square as produced", check_grid_csv, sq, N_GRID,
           text, accept=True)

    def set_csv(row, name, value):
        return lambda rows: rows[row + 1].__setitem__(col(name), value)

    rows = list(csv.reader(io.StringIO(text)))[1:]
    m = row_with_c3(rows, "cminus")
    mutations = [
        ("g22 + 1e-6", lambda rows: rows[5].__setitem__(
            col("g22"), repr(float(rows[5][col("g22")]) + 1e-6))),
        ("Infinity in a cell", set_csv(3, "res_b", "inf")),
        ("antipode flag 'yes'", set_csv(3, "gplus_antipode", "yes")),
        ("g- antipode flag flipped", lambda rows: rows[m + 1].__setitem__(
            col("gminus_antipode"),
            str(rows[m + 1][col("gminus_antipode")] != "True"))),
        ("header renamed", lambda rows: rows[0].__setitem__(0, "U")),
        ("one row dropped", lambda rows: rows.pop()),
        ("a cell emptied", set_csv(2, "g11", "")),
    ]
    for label, fn in mutations:
        expect(f"grid csv holo_square, {label}", check_grid_csv, sq, N_GRID,
               edit_csv(text, fn))


def classify_checks(cli, tmp):
    n = run.CLASSIFY_N
    case = next(c for c in surfaces.generated_cases(1) if c.label == "graph4")
    iso = cli_output(cli, tmp, ["isotropy", *case.cli_args(), "--n", str(n),
                                "--json"])
    res = cli_output(cli, tmp, ["residuals", *case.cli_args(), "--n", str(n),
                                "--json"])
    expect("isotropy graph4 as produced", check_isotropy_json, case, n, iso,
           accept=True)
    expect("isotropy graph4, verdict flipped", check_isotropy_json, case, n,
           edit_json(iso, lambda d: d["report"].update(isotropic=False)))
    expect("isotropy graph4, lift '+' -> '-'", check_isotropy_json, case, n,
           edit_json(iso, lambda d: d["report"].update(constant_lift="-")))
    expect("residuals graph4 as produced", check_residuals_json, case, n, res,
           accept=True)
    big = next(e["name"] for e in json.loads(res)["residuals"]
               if max(e["sup_h"], e["sup_h2"]) > 1e-9)

    def scale_fine(d):
        e = next(e for e in d["residuals"] if e["name"] == big)
        e["sup_h2"] *= 2.0
        e["order"] -= 1.0

    def shift_order(d):
        next(e for e in d["residuals"] if e["name"] == big)["order"] += 0.01

    expect(f"residuals graph4, {big} at order 1", check_residuals_json, case,
           n, edit_json(res, scale_fine))
    expect(f"residuals graph4, {big} order misreported by 0.01",
           check_residuals_json, case, n, edit_json(res, shift_order))
    expect("residuals graph4, n_fine = 2n", check_residuals_json, case, n,
           edit_json(res, lambda d: d["config"].update(n_fine=2 * n)))
    mirror = next(c for c in surfaces.generated_cases(1)
                  if c.label == "mirror3")
    expect("isotropy of graph4 checked as its mirror", check_isotropy_json,
           mirror, n, iso)


def point_checks(tw):
    for case, (u, v) in ((surfaces.catalog_case("round_sphere"), (0.3, -0.2)),
                         (surfaces.generated_cases(1)[2], (0.4, 0.1))):
        s = tw.get_surface(case.catalog) if case.catalog else \
            tw.parse_surface(case.text, domain=case.domain)
        pd = tw.surface_point_data(s, u, v)
        lp = tw.gauss_map(pd)
        out = point_output(pd, lp, *tw.gauss_weingarten_matrices(pd))
        expect(f"point {case.label} as produced", check_point, case, out,
               accept=True)

        def mutated(fn):
            o = copy.deepcopy(out)
            fn(o)
            return o

        mutations = [
            ("g11 + 1e-6", lambda o: o.update(g11=o["g11"] + 1e-6)),
            ("isothermal flag flipped", lambda o: o.update(
                isothermal=not o["isothermal"])),
            ("|H| + 1e-6", lambda o: o.update(H_norm=o["H_norm"] + 1e-6)),
            ("t1 + 1e-6 e1", lambda o: o["frame"][0].__setitem__(
                0, o["frame"][0][0] + 1e-6)),
            ("n2 -> -n2 (det -1)", lambda o: o["frame"].__setitem__(
                3, -o["frame"][3])),
            ("g- + 1e-6", lambda o: o.update(gminus=o["gminus"] + 1e-6)),
            ("c+ scaled by 1 + 1e-6", lambda o: o.update(
                cplus=o["cplus"] * (1 + 1e-6))),
        ]
        if case.constant_lift == "+":
            mutations.append(("+ lift replaced by the - lift (unit, chart "
                              "consistent)", lambda o: o.update(
                                  cplus=o["cminus"], gplus=o["gminus"],
                                  gplus_antipode=o["gminus_antipode"])))
        for label, fn in mutations:
            expect(f"point {case.label}, {label}", check_point, case,
                   mutated(fn))


def main() -> int:
    mods = run.import_program()
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        grid_checks(mods["twistor4.cli"], tmp)
        classify_checks(mods["twistor4.cli"], tmp)
    point_checks(mods["twistor4"])
    print(f"{len(failures)} check(s) misjudged" if failures
          else "every corruption was rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
