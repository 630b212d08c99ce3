"""Output checks against values the benchmark computes itself.

Each check raises CheckFailed with a message naming the first violation.
The checks see only program output (text, or plain numbers extracted from
the library's return values) and a `Case` from surfaces.py; no expected
value is read from the program.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

GRID_COLUMNS = (
    "u", "v", "g11", "g12", "g22", "H_norm",
    "cplus_1", "cplus_2", "cplus_3", "cminus_1", "cminus_2", "cminus_3",
    "gplus_re", "gplus_im", "gplus_antipode",
    "gminus_re", "gminus_im", "gminus_antipode",
    "res_a", "res_b", "res_c", "res_d",
)
_LIFT_COLUMNS = GRID_COLUMNS[6:]
_BOOL_COLUMNS = ("gplus_antipode", "gminus_antipode")
RESIDUAL_NAMES = ("gauss", "codazzi1", "codazzi2", "ricci", "beta_sq_holo")

FORM_RTOL = 1e-10        # exact jets against closed forms
H_TOL = 1e-8             # |H| = 0 or 1
UNIT_TOL = 1e-10         # |c| = 1, frame orthonormality, det = +1
LIFT_TOL = 1e-10         # constant lift equals (1, 0, 0)
ROUNDOFF = 1e-9          # a residual this small at both levels is exact
ORDER_RANGE = (1.5, 2.5)  # observed order of a second-order residual
PLANE_LIFT = np.array([1.0, 0.0, 0.0])


class CheckFailed(AssertionError):
    pass


def _fail(case, what):
    raise CheckFailed(f"{case.label}: {what}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(token):
        raise CheckFailed(f"non-finite JSON token {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def _worst(err):
    err = np.abs(np.asarray(err, float))
    return float(err.max()) if err.size else 0.0


def check_form(case, u, v, g11, g12, g22):
    r11, r12, r22 = case.metric(u, v)
    scale = np.maximum(1.0, np.abs(r11) + np.abs(r22))
    for name, got, ref in (("g11", g11, r11), ("g12", g12, r12),
                           ("g22", g22, r22)):
        err = _worst((np.asarray(got, float) - ref) / scale)
        if not err <= FORM_RTOL:
            _fail(case, f"{name} differs from the closed form by {err:.3g}")


def check_mean_curvature(case, h_norm):
    if case.mean_curvature is None:
        return
    err = _worst(np.asarray(h_norm, float) - case.mean_curvature)
    if not err <= H_TOL:
        _fail(case, f"|H| differs from {case.mean_curvature:g} by {err:.3g}")


def check_lifts(case, cplus, cminus, gplus, gplus_anti, gminus, gminus_anti):
    """c+- are unit vectors; g+- is the stereographic projection of c+- in
    the chart the antipode flag names; the expected lift is constant."""
    for sign, c, g, anti in (("+", cplus, gplus, gplus_anti),
                             ("-", cminus, gminus, gminus_anti)):
        c = np.asarray(c, float).reshape(-1, 3)
        g = np.asarray(g, complex).reshape(-1)
        anti = np.asarray(anti, bool).reshape(-1)
        err = _worst(np.linalg.norm(c, axis=1) - 1.0)
        if not err <= UNIT_TOL:
            _fail(case, f"c{sign} is not a unit vector (off by {err:.3g})")
        den = np.where(anti, 1.0 + c[:, 2], 1.0 - c[:, 2])
        with np.errstate(divide="ignore", invalid="ignore"):
            proj = (c[:, 0] + 1j * c[:, 1]) / den
        err = _worst(np.abs(g - proj) / (1.0 + np.abs(proj)))
        if not err <= UNIT_TOL:
            _fail(case, f"g{sign} is not the stereographic projection of "
                        f"c{sign} (off by {err:.3g})")
        if case.constant_lift in (sign, "both"):
            err = _worst(c - PLANE_LIFT)
            if not err <= LIFT_TOL:
                _fail(case, f"the {sign} lift is not the constant (1, 0, 0) "
                            f"(off by {err:.3g})")


def check_frame(case, t1, t2, n1, n2):
    m = np.column_stack([t1, t2, n1, n2]).astype(float)
    err = _worst(m.T @ m - np.eye(4))
    if not err <= UNIT_TOL:
        _fail(case, f"frame is not orthonormal (off by {err:.3g})")
    det = float(np.linalg.det(m))
    if not abs(det - 1.0) <= UNIT_TOL:
        _fail(case, f"frame determinant is {det!r}, not +1")


# --- twistor4 grid ------------------------------------------------------------

def _grid_axes(case, n):
    u0, u1, v0, v1 = case.domain
    us, vs = np.linspace(u0, u1, n), np.linspace(v0, v1, n)
    return np.repeat(us, n), np.tile(vs, n)


def check_grid_rows(case, n, cols: dict):
    """Checks shared by the JSON and CSV exports; cols maps each column to a
    1-d array over the n^2 rows (object arrays for the lift columns)."""
    u, v = _grid_axes(case, n)
    for name, ref in (("u", u), ("v", v)):
        err = _worst(np.asarray(cols[name], float) - ref)
        if not err <= 1e-12:
            _fail(case, f"grid coordinate {name} is off by {err:.3g}")
    check_form(case, u, v, cols["g11"], cols["g12"], cols["g22"])
    check_mean_curvature(case, cols["H_norm"])
    present = [all(x is not None for x in cols[c]) for c in _LIFT_COLUMNS]
    absent = [all(x is None for x in cols[c]) for c in _LIFT_COLUMNS]
    if case.isothermal and not all(present):
        _fail(case, "lift columns are missing on an isothermal surface")
    if not case.isothermal:
        if not all(absent):
            _fail(case, "lift columns are filled on a non-isothermal surface")
        return
    f = {c: np.asarray(cols[c], float) for c in _LIFT_COLUMNS
         if c not in _BOOL_COLUMNS}
    b = {}
    for c in _BOOL_COLUMNS:
        if not all(isinstance(x, bool) for x in cols[c]):
            _fail(case, f"{c} is not a boolean")
        b[c] = np.asarray(cols[c], bool)
    cplus = np.stack([f["cplus_1"], f["cplus_2"], f["cplus_3"]], axis=1)
    cminus = np.stack([f["cminus_1"], f["cminus_2"], f["cminus_3"]], axis=1)
    check_lifts(case, cplus, cminus,
                f["gplus_re"] + 1j * f["gplus_im"], b["gplus_antipode"],
                f["gminus_re"] + 1j * f["gminus_im"], b["gminus_antipode"])


def check_grid_json(case, n, text: str) -> None:
    doc = strict_json(text)
    if doc.get("config", {}).get("n") != n:
        _fail(case, "config.n is not the requested grid size")
    if tuple(doc.get("columns", ())) != GRID_COLUMNS:
        _fail(case, "columns differ from the documented grid columns")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != n * n:
        _fail(case, f"expected {n * n} rows")
    if any(not isinstance(r, list) or len(r) != len(GRID_COLUMNS)
           for r in rows):
        _fail(case, "a row does not have one value per column")
    summary = doc.get("summary", {})
    if summary.get("isothermal") is not case.isothermal:
        _fail(case, "summary.isothermal is wrong")
    if summary.get("minimal") is not case.minimal:
        _fail(case, "summary.minimal is wrong")
    cols = {c: np.array([r[k] for r in rows], dtype=object)
            for k, c in enumerate(GRID_COLUMNS)}
    check_grid_rows(case, n, cols)


def _csv_cell(column, text):
    if text == "":
        return None
    if column in _BOOL_COLUMNS:
        if text not in ("True", "False"):
            raise CheckFailed(f"{column} holds {text!r}, not a boolean")
        return text == "True"
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"{column} holds the non-finite value {text!r}")
    return value


def check_grid_csv(case, n, text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != GRID_COLUMNS:
        _fail(case, "CSV header differs from the documented grid columns")
    body = rows[1:]
    if len(body) != n * n:
        _fail(case, f"expected {n * n} CSV rows, got {len(body)}")
    if any(len(r) != len(GRID_COLUMNS) for r in body):
        _fail(case, "a CSV row does not have one cell per column")
    cols = {c: np.array([_csv_cell(c, r[k]) for r in body], dtype=object)
            for k, c in enumerate(GRID_COLUMNS)}
    for c in GRID_COLUMNS[:6]:
        if any(x is None for x in cols[c]):
            _fail(case, f"CSV column {c} has an empty cell")
    check_grid_rows(case, n, cols)


# --- twistor4 isotropy / residuals --------------------------------------------

def check_isotropy_json(case, n, text: str) -> None:
    doc = strict_json(text)
    rep = doc.get("report", {})
    if rep.get("n") != n:
        _fail(case, "report.n is not the requested grid size")
    if rep.get("isotropic") is not case.isotropic:
        _fail(case, f"isotropic is {rep.get('isotropic')!r}, "
                    f"expected {case.isotropic!r}")
    if rep.get("constant_lift") != case.constant_lift:
        _fail(case, f"constant lift is {rep.get('constant_lift')!r}, "
                    f"expected {case.constant_lift!r}")


def check_residuals_json(case, n, text: str) -> None:
    """Each residual sits at roundoff at both levels, or its observed order
    between h and h/2 is near 2."""
    doc = strict_json(text)
    cfg = doc.get("config", {})
    if cfg.get("n") != n or cfg.get("n_fine") != 2 * n - 1:
        _fail(case, "residual grid sizes are not n and 2n-1")
    entries = {e.get("name"): e for e in doc.get("residuals", ())}
    if tuple(sorted(entries)) != tuple(sorted(RESIDUAL_NAMES)):
        _fail(case, "residual names differ from the documented ones")
    for name in RESIDUAL_NAMES:
        e = entries[name]
        c, f, reported = e["sup_h"], e["sup_h2"], e["order"]
        if not (isinstance(c, float) and isinstance(f, float)
                and c >= 0.0 and f >= 0.0):
            _fail(case, f"{name}: sup norms are not non-negative numbers")
        if max(c, f) <= ROUNDOFF:
            continue
        order = math.log2(c / f) if f > 0.0 else math.inf
        if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            _fail(case, f"{name}: observed order {order:.3f} is not near 2 "
                        f"({c:.3g} at h, {f:.3g} at h/2)")
        if reported is None or abs(reported - order) > 1e-9:
            _fail(case, f"{name}: reported order {reported!r} is not "
                        f"log2(sup_h / sup_h2) = {order!r}")


# --- pointwise analysis ----------------------------------------------------------

def point_output(pd, lp, s1, s2) -> dict:
    """Plain numbers from surface_point_data, gauss_map and
    gauss_weingarten_matrices, so the check never calls the program."""
    f = pd.frame
    return {
        "u": float(pd.u), "v": float(pd.v),
        "g11": pd.form.g11, "g12": pd.form.g12, "g22": pd.form.g22,
        "isothermal": bool(pd.isothermal),
        "H_norm": float(np.linalg.norm(pd.H)),
        "frame": [np.array(x, float) for x in (f.t1, f.t2, f.n1, f.n2)],
        "cplus": np.array(lp.cplus, float), "cminus": np.array(lp.cminus, float),
        "gplus": complex(lp.gplus.value), "gplus_antipode": lp.gplus.antipode,
        "gminus": complex(lp.gminus.value),
        "gminus_antipode": lp.gminus.antipode,
        "S": [np.array(s1, float), np.array(s2, float)],
    }


def check_point(case, out: dict) -> None:
    u, v = out["u"], out["v"]
    check_form(case, np.array([u]), np.array([v]),
               out["g11"], out["g12"], out["g22"])
    if out["isothermal"] is not case.isothermal:
        _fail(case, f"isothermal is {out['isothermal']!r} at ({u}, {v})")
    check_mean_curvature(case, out["H_norm"])
    check_frame(case, *out["frame"])
    check_lifts(case, out["cplus"], out["cminus"],
                out["gplus"], out["gplus_antipode"],
                out["gminus"], out["gminus_antipode"])
    if not all(np.isfinite(s).all() for s in out["S"]):
        _fail(case, "Gauss-Weingarten matrices are not finite")
