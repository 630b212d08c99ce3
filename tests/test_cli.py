"""Command-line interface: outputs, exit codes, round trips, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest

from twistor4.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_lists_seven_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert code == 0
        assert len(lines) == 8  # header + 7 surfaces
        assert lines[1].startswith("plane")

    def test_json_flags(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        assert code == 0
        by_name = {s["name"]: s for s in doc["surfaces"]}
        assert len(by_name) == 7
        assert by_name["holo_square"]["flags"] == {
            "isothermal": True, "minimal": True,
            "isotropic": True, "constant_lift": "+"}
        assert by_name["clifford_torus"]["flags"]["minimal"] is False
        assert by_name["clifford_torus"]["flags"]["isothermal"] is True


class TestAnalyze:
    def test_plane_at_origin(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "plane",
                           "--at", "0", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["mean_curvature"]["vector"] == [0.0, 0.0, 0.0, 0.0]
        plus = np.array(doc["lifts"]["plus"]["matrix"])
        expect = np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, 1, 0]], float)
        assert np.array_equal(plus, expect)

    def test_holo_square_values(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "holo_square",
                           "--at", "0", "0")
        doc = json.loads(out)
        assert doc["second_form"]["b111"] == 2.0
        assert doc["beta1"] == [1.0, 0.0]
        assert doc["beta2"] == [0.0, -1.0]
        assert doc["g_plus_closed_form"] == [1.0, 0.0]

    def test_nonisothermal_fields_unavailable(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "nonisothermal_graph",
                           "--at", "1", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["isothermal"] is False
        for key in ("alpha", "beta1", "beta2", "gamma", "psi", "lifts",
                    "g_plus_closed_form"):
            assert doc[key] is None

    def test_expr_input(self, capsys):
        code, out, _ = run(capsys, "analyze", "--expr", "u, v, u*v, 0",
                           "--at", "0.5", "0.5")
        assert code == 0
        assert json.loads(out)["isothermal"] is False

    def test_surface_json_input(self, tmp_path, capsys):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps({
            "name": "tilted", "f1": "u", "f2": "v", "f3": "0 - u", "f4": "v",
            "domain": [-1, 1, -1, 1]}))
        code, out, _ = run(capsys, "analyze", "--surface-json", str(path),
                           "--at", "0", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["g_plus_closed_form"] == "pole"
        assert doc["lifts"]["plus"]["chart"]["antipode"] is True

    def test_seed_normal_selects_frame_branch(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "holo_square",
                           "--at", "0.3", "0.2", "--seed-normal", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["frame"]["seed_branch"] == 1


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--expr", "sin(u", "--at", "0", "0")
        assert code == 2 and "offset" in err

    def test_unknown_surface_is_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--surface", "nope", "--at", "0", "0")
        assert code == 2

    def test_not_immersed_is_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--expr", "u, u, u, u",
                           "--at", "0", "0")
        assert code == 3 and "dependent" in err

    def test_isotropy_refusal_on_non_minimal_is_3(self, capsys):
        code, _, err = run(capsys, "isotropy", "--surface", "clifford_torus",
                           "--n", "11")
        assert code == 3 and "minimal" in err

    def test_isotropy_refusal_on_non_isothermal_is_3(self, capsys):
        code, _, err = run(capsys, "isotropy", "--surface", "nonisothermal_graph",
                           "--n", "11")
        assert code == 3 and "isothermal" in err

    def test_domain_error_is_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--expr", "log(u), v, 0, 0",
                         "--at", "-1", "0")
        assert code == 2

    def test_numeric_breakdown_is_4(self, capsys):
        # forcing seed branch 0 on the torus: the second seed is always in
        # the span of the tangent and first normal, so the branch degenerates
        code, _, err = run(capsys, "grid", "--surface", "clifford_torus",
                           "--n", "5", "--seed-normal", "0")
        assert code == 4 and "degenerates" in err

    def test_io_error_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "grid", "--surface", "plane", "--n", "5",
                           "--out", str(tmp_path / "missing" / "out.json"))
        assert code == 1 and err

    def test_bad_surface_json_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--surface-json", str(path),
                           "--at", "0", "0")
        assert code == 2 and "JSON" in err


def _strict(token):
    raise ValueError(f"non-finite number {token} in JSON output")


class TestHostileInput:
    @pytest.mark.parametrize("command", [("analyze", "--at", "0.1", "0.1"),
                                         ("grid", "--n", "5")])
    @pytest.mark.parametrize("expr,code,message", [
        ("u^(0^-1), v, 0, 0", 2, "exponent"),
        ("u^((-8)^(1/3)), v, 0, 0", 2, "exponent"),
        ("u, v, 1e308*1e308*u, 0", 2, "undefined or infinite at (u, v)"),
        ("u, v, u*v, 0", 0, ""),
        pytest.param("-" * 5000 + "u, v, 0, 0", 2, "nested deeper",
                     id="5000-unary-minus"),
        pytest.param("(" * 3000 + "u" + ")" * 3000 + ", v, 0, 0", 2,
                     "nested deeper", id="3000-parentheses"),
        pytest.param("u" + " + u" * 5000 + ", v, 0, 0", 2, "nested deeper",
                     id="5000-term-sum"),
    ])
    def test_exit_cleanly(self, capsys, command, expr, code, message):
        # no traceback; an error prints nothing on stdout; success is strict JSON
        got, out, err = run(capsys, command[0], "--expr", expr, *command[1:])
        assert got == code
        assert "Traceback" not in err
        if code == 0:
            json.loads(out, parse_constant=_strict)
        else:
            assert out == "" and err.startswith("error:") and message in err

    @pytest.mark.parametrize("command", [("grid", "--n", "5"),
                                         ("grid", "--n", "5", "--format", "csv"),
                                         ("analyze", "--at", "1", "0")])
    def test_overflowing_metric_is_a_numeric_breakdown(self, capsys, tmp_path,
                                                       command):
        # the jets of exp(400 u) are finite on [0, 1], but g11 = |F_u|^2
        # overflows at u = 1: refused with the point, no warning, no output
        path = tmp_path / "out"
        code, out, err = run(capsys, command[0], "--expr", "exp(400*u), v, 0, 0",
                             "--domain", "0", "1", "0", "1", *command[1:],
                             "--out", str(path))
        assert code == 4 and out == "" and not path.exists()
        assert err == ("error: the metric overflows at (u, v) = (1, 0): "
                       "g11, g12, g22 or det g is not finite\n")

    def test_overflowing_determinant_is_a_numeric_breakdown(self, capsys):
        # g11 and g22 are finite everywhere; det g = g11 g22 first overflows
        # at (0.25, 1) in u-major order
        code, out, err = run(capsys, "grid", "--expr", "exp(300*u), exp(300*v), 0, 0",
                             "--domain", "0", "1", "0", "1", "--n", "5")
        assert code == 4 and out == ""
        assert err.startswith("error: the metric overflows at (u, v) = (0.25, 1)")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_cell_is_refused(self, capsys, tmp_path, monkeypatch, fmt):
        # both formats refuse a nan or inf cell the same way, writing nothing
        import twistor4.cli as cli
        fields = cli.isotropy_fields
        monkeypatch.setattr(cli, "isotropy_fields", lambda grid: (
            *fields(grid)[:3], np.full(grid.g11.shape, math.inf)))
        path = tmp_path / f"grid.{fmt}"
        code, out, err = run(capsys, "grid", "--surface", "holo_square", "--n", "5",
                             "--format", fmt, "--out", str(path))
        assert code == 4 and out == "" and not path.exists()
        assert err.startswith("error: the result is not finite (")

    @pytest.mark.parametrize("argv", [
        ("grid", "--n", "5", "--seed-normal", "9"),
        ("isotropy", "--n", "5", "--seed-normal", "7"),
        ("residuals", "--n", "5", "--seed-normal", "6"),
        ("analyze", "--at", "0.1", "0.1", "--seed-normal", "-1"),
    ])
    def test_seed_branch_out_of_range(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--surface", "plane", *argv[1:]])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "invalid choice" in out.err and "Traceback" not in out.err

    def test_non_finite_result_is_a_numeric_breakdown(self, capsys, monkeypatch):
        import twistor4.cli as cli
        monkeypatch.setattr(cli, "convergence_order", lambda c, f: math.nan)
        code, out, err = run(capsys, "residuals", "--surface", "holo_square",
                             "--n", "11", "--json")
        assert code == 4 and out == "" and "not finite" in err

    def test_infinite_order_is_null_in_json(self, capsys, monkeypatch):
        # an exactly vanishing fine residual gives order inf: "inf" in the
        # text table, null in strict JSON, and success either way
        import twistor4.cli as cli
        monkeypatch.setattr(cli, "convergence_order", lambda c, f: math.inf)
        args = ("residuals", "--surface", "holo_square", "--n", "11")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        assert all(r["order"] is None for r in json.loads(out)["residuals"])
        code, out, _ = run(capsys, *args)
        assert code == 0 and " inf" in out


class TestGrid:
    def test_csv_round_trip(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "grid", "--surface", "holo_square",
                         "--n", "7", "--format", "csv", "--out", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 49
        for row in rows:
            u, v = float(row["u"]), float(row["v"])
            g = 1 + 4 * (u * u + v * v)
            assert float(row["g11"]) == pytest.approx(g, abs=1e-13)
            assert float(row["H_norm"]) <= 1e-12
            # 17 significant digits survive the text round trip losslessly
            assert float(format(float(row["g11"]), ".17g")) == float(row["g11"])

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "grid", "--surface", "holo_square", "--n", "11")
        doc = json.loads(out)
        assert code == 0
        assert doc["config"]["version"]
        assert doc["config"]["n"] == 11
        assert doc["summary"]["sup_H"] <= 1e-12
        assert doc["summary"]["isothermal"] is True
        assert doc["summary"]["sup_grad_lift_plus"] <= 1e-8
        assert doc["summary"]["isotropy"]["constant_lift"] == "+"
        assert len(doc["rows"]) == 121

    def test_rerun_is_bit_identical(self, capsys):
        _, out1, _ = run(capsys, "grid", "--surface", "catenoid_E3", "--n", "9")
        _, out2, _ = run(capsys, "grid", "--surface", "catenoid_E3", "--n", "9")
        assert out1 == out2

    def test_spacing_flag_sets_n(self, capsys):
        code, out, _ = run(capsys, "grid", "--surface", "plane", "--h", "0.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["config"]["n"] == 5  # [-1, 1] at step 0.5

    def test_nonpositive_spacing_is_refused(self, capsys):
        for h in ("0", "-0.5"):
            code, out, err = run(capsys, "grid", "--surface", "plane", "--h", h)
            assert code == 2 and out == "" and "--h must be positive" in err

    def test_spacing_must_give_a_square_grid(self, capsys):
        code, out, err = run(capsys, "grid", "--expr", "u, v, u^2-v^2, 2*u*v",
                             "--domain", "-1", "1", "-3", "3", "--h", "0.5")
        assert code == 2 and out == ""
        assert "5 points on u but 13 on v" in err

    @pytest.mark.parametrize("n", ["3", "4"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_small_grid_exports(self, capsys, n, fmt):
        # FieldGrid takes n >= 3; only the structure residuals need n >= 5
        code, out, err = run(capsys, "grid", "--surface", "plane", "--n", n,
                             "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "csv":
            assert len(out.splitlines()) == 1 + int(n) ** 2
            return
        summary = json.loads(out)["summary"]
        assert summary["structure_residuals"].startswith(
            "unavailable: structure residuals need at least a 5x5 grid")
        assert summary["isotropy"]["constant_lift"] == "both"

    @pytest.mark.parametrize("surface", ["holo_square", "round_sphere",
                                         "nonisothermal_graph"])
    def test_csv_bytes_match_a_csv_writer(self, capsys, surface):
        # the column-wise writer gives the bytes that csv.writer gives for
        # the same rows, cell by cell: .17g floats, True/False, "" for absent
        argv = ("grid", "--surface", surface, "--n", "9")
        _, text, _ = run(capsys, *argv, "--format", "csv")
        _, doc, _ = run(capsys, *argv)
        doc = json.loads(doc)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(doc["columns"])
        for row in doc["rows"]:
            writer.writerow(["" if x is None else format(x, ".17g")
                             if isinstance(x, float) else str(x) for x in row])
        assert text == buf.getvalue()
        body = list(csv.reader(io.StringIO(text)))[1:]
        assert len(body) == len(doc["rows"]) == 81
        for cells, row in zip(body, doc["rows"]):
            for cell, x in zip(cells, row):
                if isinstance(x, float):
                    assert float(cell) == x
                else:
                    assert cell == ("" if x is None else str(x))
        flags = [x for row in doc["rows"] for x in row if isinstance(x, bool)]
        if surface == "round_sphere":
            assert True in flags      # a point in the antipodal chart
        assert (not flags) == (surface == "nonisothermal_graph")

    def test_json_is_compact(self, capsys):
        code, out, _ = run(capsys, "grid", "--surface", "plane", "--n", "3")
        assert code == 0 and out.count("\n") == 1 and ", " not in out

    def test_one_lift_pass_per_export(self, capsys, monkeypatch):
        # the rows and every summary residual share one build of each lift
        # field: two chiralities of sphere coordinates and of lift matrices
        import twistor4.twistor as tw
        calls = []
        for name in ("sphere_coords", "lift_matrix"):
            fn = getattr(tw, name)
            monkeypatch.setattr(tw, name, lambda *a, fn=fn, name=name: (
                calls.append(name), fn(*a))[1])
        code, _, _ = run(capsys, "grid", "--surface", "holo_square", "--n", "7")
        assert code == 0
        assert sorted(calls) == ["lift_matrix"] * 2 + ["sphere_coords"] * 2

    def test_non_isothermal_grid_still_exports(self, capsys):
        code, out, _ = run(capsys, "grid", "--surface", "nonisothermal_graph",
                           "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["summary"]["isothermal"] is False
        assert "sup_grad_lift_plus" not in doc["summary"]


class TestIsotropyCommand:
    def test_holo_square_table(self, capsys):
        code, out, _ = run(capsys, "isotropy", "--surface", "holo_square",
                           "--n", "21")
        assert code == 0
        assert "consensus: ISOTROPIC (constant lift: +)" in out
        assert out.count("pass") == 5

    def test_catenoid_json(self, capsys):
        code, out, _ = run(capsys, "isotropy", "--surface", "catenoid_E3",
                           "--n", "21", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["consensus"] is False
        assert all(not v for v in doc["report"]["verdicts"].values())


class TestCatalogFlags:
    def test_pipeline_reproduces_expected_flags(self, grids):
        # the declared flags ARE the smoke-test corpus: every entry must be
        # reproduced by a full grid run at default settings
        from twistor4.catalog import CATALOG
        from twistor4.twistor import isotropy_report
        for name, entry in CATALOG.items():
            g = grids(name, 41)
            assert g.isothermal == entry.isothermal, name
            minimal = g.sup_H() <= 1e-8
            assert minimal == entry.minimal, name
            if minimal and g.isothermal:
                rep = isotropy_report(g)
                assert rep.consensus == entry.isotropic, name
                assert rep.constant_lift == entry.constant_lift, name
            else:
                assert entry.isotropic is None or not entry.minimal, name


class TestResidualsCommand:
    def test_plane_all_exact(self, capsys):
        code, out, _ = run(capsys, "residuals", "--surface", "plane", "--n", "11")
        assert code == 0
        assert out.count("exact") == 5

    def test_holo_square_orders(self, capsys):
        code, out, _ = run(capsys, "residuals", "--surface", "holo_square",
                           "--n", "21", "--json")
        doc = json.loads(out)
        assert code == 0
        for entry in doc["residuals"]:
            if entry["order"] is not None:
                assert math.isclose(entry["order"], 2.0, abs_tol=0.3)

    def test_refuses_clifford(self, capsys):
        code, _, _ = run(capsys, "residuals", "--surface", "clifford_torus",
                         "--n", "11")
        assert code == 3
