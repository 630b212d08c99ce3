"""Command-line interface: outputs, exit codes, round trips, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistor4.cli as cli
from twistor4.catalog import get_surface
from twistor4.cli import build_parser, main
from twistor4.geometry import FieldGrid, surface_point_data
from twistor4.surface_expr import expr_text, parse_surface
from twistor4.twistor import ISOTROPY_TOL
from helpers import (
    HO_DOMAIN,
    HO_SEED_E2,
    HO_SEED_E3,
    catalog_text,
    hoffman_osserman,
    rigid_motion,
)
from test_surface_expr import _trees


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
        # forcing seed branch 2 on the plane: its seed e1 is tangent there
        code, out, err = run(capsys, "grid", "--surface", "plane",
                             "--n", "5", "--seed-normal", "2")
        assert code == 4 and out == ""
        assert err == "error: seed branch 2 degenerates at (u, v) = (-1, -1)\n"

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
        # no component holds u or v: refused as not immersed, no traceback
        ("0, 0, 0, 0", 3, "tangent vectors are dependent"),
        ("cos(e), pi, 1, 0", 3, "tangent vectors are dependent"),
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

    def test_overflowing_g12_squared_is_a_numeric_breakdown(self, capsys):
        # g11 = 2e160, g12 = g22 = 1e160 are finite; g11 g22 and g12^2 are not.
        # A point's metric is Python floats, whose ** 2 raises OverflowError
        # where numpy's gives inf: det g must be g11 g22 - g12 g12
        code, out, err = run(capsys, "analyze", "--expr", "1e80*u, 1e80*(u+v), 0, 0",
                             "--at", "0.5", "0.5")
        assert code == 4 and out == ""
        assert err == ("error: the metric overflows at (u, v) = (0.5, 0.5): "
                       "g11, g12, g22 or det g is not finite\n")

    def test_subnormal_first_form_is_not_immersed(self, capsys):
        # g11 = 1e-322 is subnormal and F_u / |F_u| loses its bits: the angle
        # test alone passed it (tol g11 g22 underflows to 0), and numpy then
        # warned of a nan in the shape operators
        code, out, err = run(capsys, "analyze", "--expr", "1e-161*u, 0, 0, v",
                             "--at", "0.5", "0.5")
        assert code == 3 and out == ""
        assert err.startswith("error: tangent vectors are dependent at (u, v) = (0.5, 0.5)")

    def test_overflowing_christoffel_symbols_are_a_numeric_breakdown(self, capsys):
        # the metric is finite at u = 0.872, but <F_uu, F_u> = 400 g11 is not
        code, out, err = run(capsys, "analyze", "--expr", "exp(400*u), v, 0, 0",
                             "--domain", "0", "1", "0", "1", "--at", "0.872", "0")
        assert code == 4 and out == ""
        assert err == ("error: the second-order geometry overflows at "
                       "(u, v) = (0.872, 0): Gamma is not finite\n")

    @pytest.mark.parametrize("command,point", [
        (("analyze", "--at", "0.3", "0.2"), "(0.3, 0.2)"),
        (("grid", "--n", "5"), "(-1, -1)"),
    ])
    def test_one_immersion_rule_for_points_and_grids(self, capsys, command, point):
        # F_u = (1, 0, 0, 0) and F_v = (1, 1e-7, 0, 0) are nearly parallel:
        # det g / (g11 g22), sin^2 of their angle, is about 1e-14, below
        # IMMERSION_TOL, so a point and a grid both refuse it, naming the
        # first such point
        code, out, err = run(capsys, command[0], "--expr", "u + v, 1e-7*v, 0, 0",
                             *command[1:])
        assert code == 3 and out == ""
        assert err == (f"error: tangent vectors are dependent at (u, v) = {point} "
                       "(g11=1, g22=1, det=9.99201e-15)\n")

    @pytest.mark.parametrize("text", [
        ", ".join(f"1e-4*{f}" for f in catalog_text("catenoid_E3").split(", ")),
        "1000*u, 3e-7*v, 0, 0", "3e-7*u, 1000*v, 0, 0"],
        ids=["catenoid_E3-1e-4", "small-g22", "small-g11"])
    @pytest.mark.parametrize("command", [("analyze", "--at", "-1", "0.3"),
                                         ("grid", "--n", "5")])
    def test_small_orthogonal_tangents_are_immersed(self, capsys, text, command):
        # F_u is orthogonal to F_v, so the angle test passes however small
        # det g, g11 or g22 is (1.2e-16 and 1.1e-8 at (-1, 0.3) on the
        # scaled catenoid, 9e-14 in the other two): the verdict does not
        # depend on the size of F
        code, out, err = run(capsys, command[0], "--expr", text,
                             "--domain", "-1", "1", "0.3", "1.3", *command[1:])
        assert code == 0 and err == ""
        json.loads(out, parse_constant=_strict)

    @pytest.mark.parametrize("command", [("analyze", "--at", "0", "0"),
                                         ("grid", "--n", "5"),
                                         ("grid", "--n", "5", "--format", "csv")])
    def test_mean_curvature_norm_does_not_overflow(self, capsys, command):
        # |H| = 1e200 at u = 0 is finite although |H|^2 is not
        code, out, err = run(capsys, command[0], "--expr", "u, v, 1e200*u^2, 0",
                             "--domain", "0", "1e-180", "0", "1", *command[1:])
        assert code == 0 and err == ""
        if command[0] == "analyze":
            norm = json.loads(out, parse_constant=_strict)["mean_curvature"]["norm"]
        elif "csv" in command:
            norm = float(next(csv.DictReader(io.StringIO(out)))["H_norm"])
        else:
            norm = json.loads(out, parse_constant=_strict)["summary"]["sup_H"]
        assert math.isclose(norm, 1e200, rel_tol=1e-15)

    def test_mean_curvature_norm_is_finite_up_to_the_largest_float(self, capsys):
        # tr_1 = tr_2 = 1.3e308: hypot(tr_1, tr_2) overflows, but
        # |H| = hypot(tr_1/2, tr_2/2) = 9.19e307 does not
        code, out, err = run(capsys, "analyze", "--expr",
                             "u, v, 0.65e308*u^2, 0.65e308*v^2", "--domain",
                             "0", "1e-320", "0", "1e-320", "--at", "0", "0")
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=_strict)["mean_curvature"]
        assert doc == {"vector": [0.0, 0.0, 6.5e307, 6.5e307],
                       "norm": math.hypot(6.5e307, 6.5e307)}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_isotropy_residuals_warn_nothing(self, capsys, fmt):
        # b is finite, but its squares in residuals (a)-(d) overflow: the
        # export is refused with one error line and no numpy warning
        code, out, err = run(capsys, "grid", "--n", "3", "--expr",
                             "u, v, 1e160*u^2, 1e160*v^2", "--domain",
                             "0", "1e-170", "0", "1e-170", "--format", fmt)
        assert code == 4 and out == ""
        assert err == "error: the result is not finite (column res_a holds inf)\n"

    @pytest.mark.parametrize("command", [
        ("isotropy",), ("isotropy", "--json"), ("residuals",),
        ("residuals", "--json"), ("grid",), ("grid", "--format", "csv")],
        ids=["isotropy-text", "isotropy-json", "residuals-text",
             "residuals-json", "grid-json", "grid-csv"])
    def test_every_format_refuses_a_non_finite_result(self, capsys, command):
        # minimal, with b finite but its squares overflowing: residuals
        # (a)-(d) and the structure residuals are nan or inf, refused in a
        # text table as in JSON or CSV, with one error line and no warning
        code, out, err = run(capsys, command[0], "--n", "5", "--expr",
                             "u, v, 1e160*(u^2 - v^2), 2e160*u*v", "--domain",
                             "0", "1e-170", "0", "1e-170", *command[1:])
        assert code == 4 and out == ""
        assert err.startswith("error: the result is not finite")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", [("analyze", "--at", "0.3", "0.2"),
                                         ("grid", "--n", "5")])
    def test_parallel_tangents_are_not_immersed(self, capsys, command):
        # F_u = (0, 0, 0, e^u/v) and F_v = (0, 0, 0, -e^u/v^2) are parallel,
        # yet g11 g22 - g12^2 rounds to 7.3e-12 > IMMERSION_TOL at (0.3, 0.2):
        # the angle test refuses it, where it reached the frame as 0/0
        code, out, err = run(capsys, command[0], "--expr", "0, 0, 0, exp(u)/v",
                             "--domain", "0.3", "1", "0.2", "1", *command[1:])
        assert code == 3 and out == ""
        assert err.startswith("error: tangent vectors are dependent at "
                              "(u, v) = (0.3, 0.2)")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_mean_curvature_is_a_numeric_breakdown(self, capsys, fmt):
        # the metric is finite, but g22 b_11 = 1e300 * 1e200 is not: a grid
        # names the point and the quantity, as analyze does, with no warning
        code, out, err = run(capsys, "grid", "--expr",
                             "1e75*u, 1e75*v, 0.5e200*u^2, 0",
                             "--domain", "0", "1e-126", "0", "1", "--n", "5",
                             "--format", fmt)
        assert code == 4 and out == ""
        assert err == ("error: the second-order geometry overflows at "
                       "(u, v) = (0, 0): H is not finite\n")

    @pytest.mark.parametrize("command", [("isotropy", "--n", "5"),
                                         ("analyze", "--at", "0.1", "0.1")])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_tol_must_be_finite_and_non_negative(self, capsys, command, tol):
        code, out, err = run(capsys, command[0], "--surface", "plane",
                             *command[1:], f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("error: --tol must be finite and non-negative")

    def test_zero_isothermality_tol_is_honoured(self, capsys):
        # |g11 - g22| = 4e-10 u^2: isothermal at the default 1e-8, not at 0
        args = ("analyze", "--expr", "u, v, 0, 1e-5*u^2", "--at", "0.5", "0.5")
        for tol, isothermal in (("1e-8", True), ("0", False)):
            code, out, _ = run(capsys, *args, "--tol", tol)
            doc = json.loads(out)
            assert code == 0 and doc["isothermal"] is isothermal
            assert doc["config"]["tolerances"]["isothermal_tol"] == float(tol)

    @pytest.mark.parametrize("command,key", [
        (("analyze", "--at", "0.1", "0.1", "--tol", "1"), "isothermal_tol"),
        (("isotropy", "--n", "5", "--json", "--tol", "0.5"), "isotropy_tol"),
    ])
    def test_config_reports_the_tol_used(self, capsys, command, key):
        code, out, _ = run(capsys, command[0], "--surface", "holo_square",
                           *command[1:])
        tolerances = json.loads(out)["config"]["tolerances"]
        assert code == 0 and tolerances[key] == float(command[-1])

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
        assert err == "error: the result is not finite (column res_d holds inf)\n"

    def test_non_finite_summary_is_refused(self, capsys, tmp_path, monkeypatch):
        # a summary value is not a cell: strict JSON refuses it, writing nothing
        import twistor4.cli as cli
        monkeypatch.setattr(cli, "lift_agreement_residual", lambda grid: math.inf)
        path = tmp_path / "grid.json"
        code, out, err = run(capsys, "grid", "--surface", "holo_square", "--n", "5",
                             "--out", str(path))
        assert code == 4 and out == "" and not path.exists()
        assert err == ("error: the result is not finite "
                       "(summary.lift_formula_agreement is inf)\n")

    @pytest.mark.parametrize("name, value, where", [
        ("gauss_weingarten_matrices",
         lambda pd: (np.eye(4), np.diag([1.0, 2.0, math.inf, 0.0])),
         "gauss_weingarten.S2.2.2 is inf"),
        ("g_plus_closed_form", lambda ps: np.complex128(complex(0.5, math.nan)),
         "g_plus_closed_form.1 is nan"),
    ], ids=["array", "complex"])
    def test_non_finite_numpy_value_is_named(self, capsys, monkeypatch, name,
                                             value, where):
        # analyze's document holds numpy arrays and complex numbers: the
        # refusal names the entry inside one as JSON indexes it
        import twistor4.cli as cli
        monkeypatch.setattr(cli, name, value)
        code, out, err = run(capsys, "analyze", "--surface", "holo_square",
                             "--at", "0.3", "0.2")
        assert code == 4 and out == ""
        assert err == f"error: the result is not finite ({where})\n"

    @pytest.mark.parametrize("argv", [
        ("grid", "--n", "5", "--seed-normal", "9"),
        ("isotropy", "--n", "5", "--seed-normal", "7"),
        ("residuals", "--n", "5", "--seed-normal", "6"),
        ("analyze", "--at", "0.1", "0.1", "--seed-normal", "-1"),
        ("grid", "--n", "5", "--seed-normal", "3"),
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

    def test_negative_infinite_order_is_null_in_json(self, capsys, monkeypatch):
        # an exactly vanishing coarse residual gives order -inf: "-inf" in
        # the text table, null in strict JSON, and success either way
        import twistor4.cli as cli
        monkeypatch.setattr(cli, "convergence_order", lambda c, f: -math.inf)
        args = ("residuals", "--surface", "holo_square", "--n", "11")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        assert all(r["order"] is None for r in json.loads(out)["residuals"])
        code, out, _ = run(capsys, *args)
        assert code == 0 and " -inf" in out

    @pytest.mark.parametrize("argv", [
        ("grid", "--surface", "plane", "--n", "5", "--domain", "0", "inf", "0", "1"),
        ("grid", "--surface", "plane", "--n", "5", "--domain", "0", "nan", "0", "1"),
        ("grid", "--surface", "plane", "--domain", "1", "0", "0", "1"),
        ("grid", "--expr", "u, v, 0, 0", "--format", "csv",
         "--domain", "0", "1e400", "0", "1"),
        ("isotropy", "--surface", "plane", "--n", "5", "--domain", "0", "1", "1", "1"),
        ("residuals", "--surface", "plane", "--n", "5",
         "--domain", "0", "1", "0", "-1"),
        ("analyze", "--surface", "plane", "--domain", "0", "inf", "0", "1",
         "--at", "0.1", "0.1"),
        ("analyze", "--expr", "u, v, 0, 0", "--domain", "0", "0", "0", "1",
         "--at", "0", "0.5"),
        ("grid", "--expr", "u, v, 0, 0", "--format", "csv",
         "--domain", "-1e400", "1", "0", "1"),
        ("grid", "--surface", "plane", "--n", "5", "--domain", "-inf", "1", "0", "1"),
        # finite ends, but an extent that overflows to inf
        *((command, "--expr", "u, v, 0, 0", "--n", "5",
           "--domain", "-1e308", "1e308", "-1e308", "1e308")
          for command in ("grid", "isotropy", "residuals")),
        ("analyze", "--expr", "u, v, 0, 0", "--domain", "-1.7e308", "1.7e308",
         "-1", "1", "--at", "0", "0"),
        ("grid", "--surface", "plane", "--n", "5", "--domain", "0", "1",
         "-1.7e308", "1.7e308"),
    ])
    def test_domain_must_be_finite_and_non_empty(self, capsys, tmp_path, argv):
        # every subcommand holds --domain to SurfaceDef's rule: no warning
        # (a RuntimeWarning fails the test), no point named, nothing written
        path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: --domain: empty or non-finite domain (")

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    @pytest.mark.parametrize("command", ["isotropy", "residuals"])
    def test_extents_whose_diagonal_and_h_squared_overflow(self, capsys, command, fmt):
        # finite extents of 1.6e308: the plane's residuals are exact, and
        # the gradient threshold tol / diagonal stays finite and positive
        code, out, err = run(capsys, command, "--expr", "u, v, 0, 0", "--n", "5",
                             "--domain", "-8e307", "8e307", "-8e307", "8e307", *fmt)
        assert code == 0 and err == ""
        if not fmt:
            return
        doc = json.loads(out, parse_constant=_strict)
        if command == "isotropy":
            assert 0.0 < doc["report"]["grad_threshold"] < math.inf
            assert doc["report"]["isotropic"]
        else:
            assert all(r["sup_h"] == r["sup_h2"] == 0.0 for r in doc["residuals"])

    @pytest.mark.parametrize("argv,key,value", [
        (("grid", "--n", "5", "--domain", "-1e-3", "1", "0", "1"),
         ("config", "domain"), [-1e-3, 1, 0, 1]),
        (("grid", "--n", "5", "--domain", "-1E+0", "-.5e-1", "-2.5", "0"),
         ("config", "domain"), [-1, -0.05, -2.5, 0]),
        (("analyze", "--at", "-1e-3", "0"), ("point", "u"), -1e-3),
    ])
    def test_negative_numbers_in_exponent_notation(self, capsys, argv, key, value):
        # read as numbers, not as options (argparse's own pattern takes only
        # forms like -1 and -1.5)
        code, out, err = run(capsys, argv[0], "--expr", "u, v, 0, 0", *argv[1:])
        doc = json.loads(out, parse_constant=_strict)
        assert code == 0 and err == "" and doc[key[0]][key[1]] == value

    @pytest.mark.parametrize("at", [("1.5", "0"), ("0", "-1.01"), ("nan", "0"),
                                    ("inf", "0"), ("-inf", "0"), ("0", "-1e400")])
    def test_analyze_refuses_a_point_outside_the_domain(self, capsys, at):
        # a point is analysed on its surface's domain, edges included
        code, out, err = run(capsys, "analyze", "--surface", "holo_square",
                             "--at", *at)
        assert code == 2 and out == ""
        assert err == (f"error: --at {float(at[0]):g} {float(at[1]):g} is outside "
                       "the domain [-1, 1] x [-1, 1]\n")

    @pytest.mark.parametrize("doc,message", [
        ({"f1": 1, "f2": "v", "f3": "0", "f4": "0"},
         "surface JSON needs keys f1..f4, each a string"),
        ({"f1": "u", "f2": "v", "f3": "0"},
         "surface JSON needs keys f1..f4, each a string"),
        ([1, 2], "surface JSON must be an object"),
        ({"f1": "u", "f2": "v", "f3": "0", "f4": "0", "domain": [0, 1, "a", 1]},
         "domain must be [u0, u1, v0, v1], four numbers"),
        ({"f1": "u", "f2": "v", "f3": "0", "f4": "0", "domain": [0, 1, 0]},
         "domain must be [u0, u1, v0, v1], four numbers"),
        ({"f1": "u", "f2": "v", "f3": "0", "f4": "0",
          "domain": [0, 10 ** 400, 0, 1]},
         "empty or non-finite domain (0.0, inf, 0.0, 1.0)"),
        pytest.param("[" * 100000 + "]" * 100000,
                     "invalid surface JSON: maximum recursion", id="deep-nesting"),
        (b'{"f1": "\x80"}', "invalid surface JSON: 'utf-8' codec can't decode"),
        # an input error, not a numeric breakdown, a number or an echoed object
        *(({"name": name, "f1": "u", "f2": "v", "f3": "0", "f4": "0"},
           "surface JSON name must be a string")
          for name in (math.nan, 5, {"a": 1}, None)),
        ({"f1": "u", "f2": "v", "f3": "0", "f4": "0",
          "domain": [-1e308, 1e308, 0, 1]},
         "empty or non-finite domain (-1e+308, 1e+308, 0.0, 1.0)"),
    ])
    def test_hostile_surface_json(self, capsys, tmp_path, doc, message):
        # a message and exit 2, not a traceback
        path = tmp_path / "surface.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--surface-json", str(path),
                             "--at", "0.5", "0.5")
        assert code == 2 and out == "" and err.startswith(f"error: {message}")

    def test_analyze_samples_the_given_domain(self, capsys):
        # --domain applies to a catalog surface too, edges included
        code, out, _ = run(capsys, "analyze", "--surface", "holo_square",
                           "--domain", "0", "2", "0", "2", "--at", "2", "1.5")
        doc = json.loads(out, parse_constant=_strict)
        assert code == 0 and doc["config"]["surface"]["domain"] == [0, 2, 0, 2]

    @pytest.mark.parametrize("source", ["surface", "surface-json"])
    @pytest.mark.parametrize("command", ["grid", "isotropy", "residuals"])
    def test_config_names_the_sampled_domain(self, capsys, tmp_path, command, source):
        # --domain replaces the surface's own domain for every source, so the
        # surface block and the grid report the same rectangle
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(get_surface("holo_square").to_json()))
        given = {"surface": "holo_square", "surface-json": str(path)}[source]
        code, out, _ = run(capsys, command, f"--{source}", given, "--n", "5",
                           "--domain", "0", "0.5", "0", "0.5",
                           *(() if command == "grid" else ("--json",)))
        config = json.loads(out, parse_constant=_strict)["config"]
        assert code == 0
        assert config["surface"]["domain"] == config["domain"] == [0, 0.5, 0, 0.5]


class TestOut:
    """--out holds the bytes stdout gets, whatever the file held before."""

    COMMANDS = (
        ("grid", "--surface", "holo_square", "--n", "5", "--format", "csv"),
        ("grid", "--surface", "holo_square", "--n", "5"),
        ("isotropy", "--surface", "holo_square", "--n", "5", "--json"),
        ("residuals", "--surface", "holo_square", "--n", "5", "--json"),
    )

    @pytest.mark.parametrize("argv", COMMANDS,
                             ids=["grid-csv", "grid-json", "isotropy", "residuals"])
    @pytest.mark.parametrize("old_size", [10, 10 ** 5], ids=["shorter", "longer"])
    def test_overwrites_a_longer_or_shorter_file(self, capsys, tmp_path, argv,
                                                 old_size):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and 10 < len(out) < 10 ** 5
        path = tmp_path / "out"
        path.write_bytes(b"x" * old_size)
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        data = path.read_bytes()
        # stdout ends in a newline the file does not have (CSV rows end in CRLF)
        assert data + b"\n" * (not data.endswith(b"\n")) == out.encode()

    def test_dev_null(self, capsys):
        # /dev/null cannot be truncated, so it is written without
        for argv in self.COMMANDS[:2]:
            assert run(capsys, *argv, "--out", "/dev/null") == (0, "", "")

    @pytest.mark.parametrize("argv,refusal", [
        (("isotropy", "--surface", "clifford_torus", "--n", "5"), 3),
        (("grid", "--surface", "plane", "--n", "5", "--seed-normal", "2"), 4),
    ])
    def test_refusal_leaves_the_file(self, capsys, tmp_path, argv, refusal):
        path = tmp_path / "out"
        path.write_bytes(b"earlier output\n")
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == refusal and out == "" and err.startswith("error: ")
        assert path.read_bytes() == b"earlier output\n"

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        old = os.umask(0o027)
        try:
            code, _, _ = run(capsys, *self.COMMANDS[0], "--out",
                             str(tmp_path / "new.csv"))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640


class TestOneParser:
    def test_built_once_for_many_calls(self, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "catalog")[0] == 0
                assert run(capsys, "isotropy", "--surface", "plane", "--n", "5")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_options_do_not_leak_between_calls(self, capsys):
        iso = ("isotropy", "--surface", "holo_square", "--n", "5", "--json")
        tols = [json.loads(run(capsys, *iso, *tol)[1])["config"]["tolerances"]
                ["isotropy_tol"] for tol in (("--tol", "0.5"), ())]
        assert tols == [0.5, ISOTROPY_TOL]
        at = ("analyze", "--surface", "holo_square", "--at", "0.3", "0.2")
        branches = [json.loads(run(capsys, *at, *seed)[1])["config"]["seed_branch"]
                    for seed in (("--seed-normal", "1"), ())]
        auto = surface_point_data(get_surface("holo_square"), 0.3, 0.2)
        assert auto.frame.seed_branch != 1
        assert branches == [1, auto.frame.seed_branch]
        grid = ("grid", "--surface", "holo_square", "--n", "5")
        docs = [json.loads(run(capsys, *grid, *extra)[1])["config"]
                for extra in (("--domain", "0", "1", "0", "1"), ())]
        assert [d["domain"] for d in docs] == [[0, 1, 0, 1], [-1, 1, -1, 1]]
        code, out, _ = run(capsys, *grid, "--format", "csv")
        assert code == 0 and out.startswith("u,v,g11")
        assert json.loads(run(capsys, *grid)[1])["config"]["n"] == 5


def _assert_rows_match_reference_encoders(columns):
    """cli._grid_rows gives the bytes of json.dumps and of csv.writer with
    .17g cells for the same rows.  Compared a row at a time, so that a
    failure shows the first row that differs."""
    rows = list(zip(*([None] * len(columns[0]) if c is None else c.tolist()
                      for c in columns)))
    doc = json.dumps(rows, separators=(",", ":"))
    assert doc.startswith("[[") and doc.endswith("]]")
    assert list(cli._grid_rows(columns, "json")) == doc[2:-2].split("],[")
    buf = io.StringIO()
    csv.writer(buf).writerows(["" if x is None else "{:.17g}".format(x)
                               if isinstance(x, float) else str(x) for x in row]
                              for row in rows)
    assert buf.getvalue().endswith("\r\n")
    assert list(cli._grid_rows(columns, "csv")) == \
        buf.getvalue()[:-2].split("\r\n")


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

    @pytest.mark.parametrize("h", ["1e-300", "1e-320"])
    def test_spacing_without_a_grid_size_is_refused(self, capsys, h):
        # 2 / h is 2e300 points per axis, or inf where the quotient overflows
        code, out, err = run(capsys, "grid", "--surface", "plane", "--h", h)
        assert (code, out) == (2, "")
        assert err == f"error: --h {h} gives no grid size an array can hold\n"

    @pytest.mark.parametrize("command", ["grid", "isotropy", "residuals"])
    def test_grid_that_memory_cannot_hold_is_refused(self, capsys, command):
        # the first (n, n) array alone would take 7.28 TiB, which the OS
        # refuses at once; capping this process's address space 2 GiB above
        # its present size makes sure of that where memory is overcommitted
        resource = pytest.importorskip("resource")
        try:
            with open("/proc/self/statm") as fh:
                size = int(fh.read().split()[0]) * resource.getpagesize()
        except OSError:
            pytest.skip("needs /proc/self/statm to cap the address space")
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = size + 2 ** 31
        if soft != resource.RLIM_INFINITY:
            cap = min(cap, soft)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code, out, err = run(capsys, command, "--surface", "plane",
                                 "--n", "1000000")
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert (code, out) == (2, "")
        assert err == "error: an n = 1000000 grid does not fit in memory\n"

    @pytest.mark.parametrize("n", [10 ** 20, 2 ** 62])
    @pytest.mark.parametrize("command", ["grid", "isotropy", "residuals"])
    def test_grid_no_array_can_hold_is_refused(self, capsys, command, n):
        # refused before anything is allocated: numpy cannot size even the
        # grid's sample points, and np.linspace alone would raise ValueError
        code, out, err = run(capsys, command, "--surface", "plane", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: an n = {n} grid is too large for any array\n"

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

    @pytest.mark.parametrize("surface,n", [
        ("holo_square", 31), ("catenoid_E3", 3), ("nonisothermal_graph", 5),
        ("nonisothermal_graph", 31), ("round_sphere", 3), ("round_sphere", 5)])
    def test_rows_match_reference_encoders(self, surface, n):
        # round_sphere takes a seed branch per point, and its antipode flags
        # hold both values; nonisothermal_graph has absent columns
        grid = FieldGrid(get_surface(surface), n)
        assert grid.branch_uniform == (surface != "round_sphere")
        _assert_rows_match_reference_encoders(cli._grid_columns(grid))

    def test_hand_built_rows_match_reference_encoders(self):
        # signed zeros in one column, values shared across columns, a
        # constant column, floats whose repr and 17 digits differ, flags and
        # absent columns
        columns = [None] * len(cli._GRID_COLUMNS)
        columns[0] = np.array([0.0, -0.0, 0.1, -0.0, 0.0])
        columns[1] = np.array([-0.0, 0.1, 0.1 + 0.2, 1e16, 5e-324])
        columns[2] = np.full(5, 1 / 3)
        columns[3] = np.array([1 / 3, 0.0, -1e-300, 1e300, 0.1])
        columns[5] = np.array([-0.0, -0.0, 2.5, 1e22, -1 / 3])
        columns[14] = np.array([True, False, False, True, True])
        columns[17] = np.zeros(5, bool)
        _assert_rows_match_reference_encoders(columns)

    def test_json_is_compact(self, capsys):
        code, out, _ = run(capsys, "grid", "--surface", "plane", "--n", "3")
        assert code == 0 and out.count("\n") == 1 and ", " not in out

    def test_one_lift_pass_per_export(self, capsys, monkeypatch):
        # the rows and every summary residual share one build of each stacked
        # lift field, both chiralities at once: the sphere coordinates and
        # their derivatives, one pair_coords call each, and the lift matrices
        import twistor4.twistor as tw
        calls = []
        for name in ("_sphere_fields", "_lift_derivatives", "pair_coords",
                     "lift_matrix"):
            fn = getattr(tw, name)
            monkeypatch.setattr(tw, name, lambda *a, fn=fn, name=name: (
                calls.append(name), fn(*a))[1])
        code, _, _ = run(capsys, "grid", "--surface", "holo_square", "--n", "7")
        assert code == 0
        assert sorted(calls) == ["_lift_derivatives", "_sphere_fields",
                                 "lift_matrix"] + ["pair_coords"] * 2

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

    def test_catenoid_table(self, capsys):
        code, out, err = run(capsys, "isotropy", "--surface", "catenoid_E3",
                             "--n", "21")
        assert code == 0 and err == ""
        assert out.endswith("\nconsensus: NON-ISOTROPIC\n")
        assert out.count("fail") == 5 and "pass" not in out

    def test_split_verdicts_read_disagreement(self, capsys):
        # on catenoid_E3 (a) reads 0.25 and (b)-(e) at least 0.5, with (e)'s
        # threshold (tol/2) / 0.559 = 0.27 at tol 0.3: only (a) passes
        code, out, err = run(capsys, "isotropy", "--surface", "catenoid_E3",
                             "--n", "21", "--tol", "0.3")
        assert code == 0 and err == ""
        assert out.endswith("\nconsensus: DISAGREEMENT among the five conditions\n")
        lines = out.splitlines()[1:6]
        assert [line.split()[-1] for line in lines] == ["pass"] + ["fail"] * 4

    def test_catenoid_json(self, capsys):
        code, out, _ = run(capsys, "isotropy", "--surface", "catenoid_E3",
                           "--n", "21", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["consensus"] is False
        assert all(not v for v in doc["report"]["verdicts"].values())


_REPORT_KEYS = ["residuals", "verdicts", "consensus", "isotropic", "constant_lift",
                "grad_plus", "grad_minus", "const_plus_residual",
                "const_minus_residual", "tol", "grad_threshold", "n"]
_LIFT_KEYS = ["sup_grad_lift_plus", "sup_grad_lift_minus", "lift_formula_agreement",
              "holo_residual_gplus", "holo_residual_gminus_conj"]
_LIFT_ENTRY_KEYS = ["chirality", "coords", "matrix", ("chart", ["value", "antipode"])]
_ANALYZE_KEYS = [
    ("config", ["tool", "version",
                ("surface", ["name", "f1", "f2", "f3", "f4", "domain"]),
                ("tolerances", ["isothermal_tol", "minimal_tol", "immersion_tol",
                                "seed_tol", "isotropy_tol"]),
                "seed_branch"]),
    ("point", ["u", "v"]), ("first_form", ["g11", "g12", "g22"]),
    "isothermal", "alpha", ("frame", ["t1", "t2", "n1", "n2", "seed_branch"]),
    ("second_form", ["b111", "b112", "b122", "b211", "b212", "b222"]),
    ("shape_operators", ["a1", "a2"]), "christoffel",
    ("normal_connection", ["gamma1", "gamma2"]),
    ("mean_curvature", ["vector", "norm"]), ("gauss_weingarten", ["S1", "S2"]),
    "beta1", "beta2", "gamma", "psi", "lifts", "g_plus_closed_form"]
_ISOTHERMAL_ONLY = ["beta1", "beta2", "gamma", "psi", "lifts", "g_plus_closed_form"]


def _key_tree(doc):
    """doc's keys in order, an object's as (key, its key tree)."""
    return [(k, _key_tree(x)) if isinstance(x, dict) else k for k, x in doc.items()]


class TestKeyOrder:
    """The key order of the JSON documents, which scripts may index by."""

    @pytest.mark.parametrize("name", ["holo_square", "nonisothermal_graph"])
    def test_analyze(self, capsys, name):
        code, out, _ = run(capsys, "analyze", "--surface", name, "--at", "0.3", "0.2")
        doc = json.loads(out)
        keys = [*_ANALYZE_KEYS]
        if doc["isothermal"]:  # the lifts, and both chart values, are objects
            keys[keys.index("lifts")] = ("lifts", [("plus", _LIFT_ENTRY_KEYS),
                                                   ("minus", _LIFT_ENTRY_KEYS)])
        assert code == 0 and doc["isothermal"] == (name == "holo_square")
        assert _key_tree(doc) == keys
        # null exactly where the point is not isothermal
        assert [doc[k] is None for k in _ISOTHERMAL_ONLY] == [not doc["isothermal"]] * 6

    def test_isotropy_report(self, capsys):
        code, out, _ = run(capsys, "isotropy", "--surface", "holo_square",
                           "--n", "5", "--json")
        report = json.loads(out)["report"]
        assert code == 0 and list(report) == _REPORT_KEYS
        assert list(report["residuals"]) == list(report["verdicts"]) == list("abcde")

    @pytest.mark.parametrize("name, keys", [
        ("catenoid_E3", [*_LIFT_KEYS, "structure_residuals", "isotropy"]),
        ("clifford_torus", _LIFT_KEYS),  # isothermal, not minimal
        ("nonisothermal_graph", []),
    ])
    def test_grid_summary(self, capsys, name, keys):
        code, out, _ = run(capsys, "grid", "--surface", name, "--n", "5")
        summary = json.loads(out)["summary"]
        assert code == 0 and list(summary) == [
            "sup_H", "min_metric_det", "isothermal", "minimal", "seed_branch", *keys]
        if "isotropy" in summary:
            assert list(summary["isotropy"]) == _REPORT_KEYS
            assert list(summary["structure_residuals"]) == [
                "gauss", "codazzi1", "codazzi2", "ricci", "beta_sq_holo"]

    def test_residuals_entries(self, capsys):
        code, out, _ = run(capsys, "residuals", "--surface", "holo_square",
                           "--n", "5", "--json")
        entries = json.loads(out)["residuals"]
        assert code == 0 and len(entries) == 5
        assert all(list(e) == ["name", "sup_h", "sup_h2", "order"] for e in entries)


class TestRigidMotions:
    @pytest.mark.parametrize("text, domain", [
        (catalog_text("catenoid_E3"), get_surface("catenoid_E3").domain),
        (catalog_text("holo_square"), get_surface("holo_square").domain),
        ("sinh(v)*cos(u), sinh(v)*sin(u), u, 0", (-1.0, 1.0, 0.3, 1.3)),
        (hoffman_osserman(*HO_SEED_E3), HO_DOMAIN),
        (hoffman_osserman(*HO_SEED_E2), HO_DOMAIN),
    ], ids=["catenoid_E3", "holo_square", "helicoid", "ho_seed_e3", "ho_seed_e2"])
    def test_isotropy_report_does_not_depend_on_position(self, capsys, text, domain):
        # a rotation and translation of E^4 keeps the verdicts, and the
        # residuals and lift gradients that are norms of frame-free
        # quantities: (a), (b) and (e) (c and d follow the normal frame)
        def report(text):
            code, out, _ = run(capsys, "isotropy", "--json", "--n", "21",
                               "--expr", text, "--domain", *map(repr, domain))
            assert code == 0
            return json.loads(out)["report"]

        def norms(rep):
            return [*map(rep["residuals"].get, "abe"),
                    rep["grad_plus"], rep["grad_minus"]]

        rep = report(text)
        for seed in range(3):
            moved = report(rigid_motion(text, seed)[0])
            for key in ("verdicts", "consensus", "constant_lift"):
                assert moved[key] == rep[key]
            for x, y in zip(norms(rep), norms(moved)):
                assert math.isclose(x, y, rel_tol=1e-12) or max(x, y) <= 1e-12


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

    def test_hoffman_osserman_takes_the_smooth_first_seed_frame(self, capsys):
        # a non-isotropic minimal surface whose seed-e3 frame is smooth
        # (min |p1| = 0.79 on the grid): it is taken, and the structure
        # residuals decay like h^2 (no frame winds between grid nodes)
        text = hoffman_osserman([0.25 + 0.27j, -0.88 + 0.40j, 0.02 - 0.25j],
                                [0.73 + 0.37j, -0.53 + 0.02j, -0.26 + 0.80j])
        domain = ("-0.5", "0.5", "-0.5", "0.5")
        code, out, err = run(capsys, "residuals", "--expr", text,
                             "--domain", *domain, "--n", "41", "--json")
        assert code == 0 and err == ""
        surface = parse_surface(text, domain=tuple(map(float, domain)))
        assert FieldGrid(surface, 41).seed_branch == 0
        res = {r["name"]: r for r in json.loads(out)["residuals"]}
        for name in ("gauss", "codazzi1", "codazzi2", "ricci"):
            assert 1.5 <= res[name]["order"] <= 2.5, name
        # beta_sq_holo is at the roundoff floor: no order is measured
        beta_sq = res["beta_sq_holo"]
        assert beta_sq["order"] is None
        assert max(beta_sq["sup_h"], beta_sq["sup_h2"]) <= 1e-12

    def test_refuses_clifford(self, capsys):
        code, _, _ = run(capsys, "residuals", "--surface", "clifford_torus",
                         "--n", "11")
        assert code == 3

    def test_refusal_names_the_first_bad_node_of_the_h_grid(self, capsys):
        # the h/2 grid is undefined first at (-0.5, -1), a node the h grid
        # (u, v in {-1, 0, 1}) lacks; the h grid's own first one is named
        code, out, err = run(capsys, "residuals", "--expr",
                             "u, v, 1/(u*(u + 0.5)), 0", "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: undefined or infinite at (u, v) = (0, -1)")


class TestFuzz:
    @staticmethod
    def call(argv):
        # cli.main in-process, with stdout and stderr captured (hypothesis
        # does not reset function-scoped fixtures such as capsys per example)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(_trees, _trees, _trees, _trees))
    def test_random_surfaces_exit_cleanly(self, trees):
        # any exception, RuntimeWarning included, escapes main and fails here
        expr = ", ".join(map(expr_text, trees))
        for command in (("analyze", "--at", "0.3", "0.2"), ("grid", "--n", "5"),
                        ("grid", "--n", "5", "--format", "csv")):
            code, out, err = self.call([command[0], "--expr", expr, *command[1:]])
            assert code in (0, 2, 3, 4)
            if code:
                assert out == "" and err.startswith("error:")
            elif "csv" not in command:
                json.loads(out, parse_constant=_strict)
