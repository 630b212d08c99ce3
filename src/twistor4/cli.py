"""Command-line front end.

Subcommands: catalog, analyze, grid, isotropy, residuals.  JSON output is
self-describing (tool version, tolerances, grid step, seed branch) and
deterministic, so re-running with the same configuration is bit-identical.
Exit codes: 0 success, 2 expression/input error, 3 hypothesis failure
(not immersed / not isothermal / not minimal), 4 numeric breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .catalog import catalog_entries, get_surface
from .errors import (
    ExpressionError,
    HypothesisError,
    NotIsothermal,
    NotMinimal,
    NumericError,
    PoleOfChart,
)
from .geometry import (
    FieldGrid,
    convergence_order,
    gauss_weingarten_matrices,
    structure_residuals,
    surface_point_data,
)
from .surface_expr import parse_surface, surface_from_json
from .twistor import (
    chart,
    chart_residuals,
    g_plus_closed_form,
    gauss_map,
    isotropy_fields,
    isotropy_report,
    lift_agreement_residual,
    lift_sphere_fields,
    psi,
)

_DEFAULTS = {
    "isothermal_tol": 1e-8,
    "minimal_tol": 1e-8,
    "immersion_tol": 1e-12,
    "seed_tol": 1e-6,
    "isotropy_tol": 1e-6,
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _vec(a) -> list:
    return [float(x) for x in np.asarray(a).ravel()]


def _mat(a) -> list:
    return [[float(x) for x in row] for row in np.asarray(a)]


def _chart_json(cv) -> dict:
    return {"value": _c(cv.value), "antipode": cv.antipode}


def _resolve_surface(args):
    given = [x is not None for x in (args.surface, args.expr, args.surface_json)]
    if sum(given) != 1:
        raise ExpressionError(
            "exactly one of --surface, --expr, --surface-json is required")
    if args.surface is not None:
        try:
            return get_surface(args.surface)
        except KeyError as exc:
            raise ExpressionError(str(exc)) from None
    if args.expr is not None:
        domain = tuple(args.domain) if args.domain else (-1.0, 1.0, -1.0, 1.0)
        return parse_surface(args.expr, name="cli-expr", domain=domain)
    try:
        with open(args.surface_json, "r", encoding="utf-8") as fh:
            return surface_from_json(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ExpressionError(f"invalid surface JSON: {exc}") from None


def _config(surface, **extra) -> dict:
    cfg = {
        "tool": "twistor4",
        "version": __version__,
        "surface": surface.to_json(),
        "tolerances": dict(_DEFAULTS),
    }
    cfg.update(extra)
    return cfg


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, doc):
    """Write doc as strict JSON: a nan or inf anywhere is a numeric breakdown,
    refused before anything is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"the result is not finite ({exc})") from None
    _emit(args, text)


# --- catalog -----------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.json:
        doc = {
            "tool": "twistor4",
            "version": __version__,
            "surfaces": [
                {**e.surface.to_json(), "flags": e.flags_dict(), "note": e.note}
                for e in catalog_entries()
            ],
        }
        _emit_json(args, doc)
        return 0
    rows = [("name", "isothermal", "minimal", "isotropic", "lift", "domain")]
    for e in catalog_entries():
        iso = {True: "yes", False: "no", None: "-"}[e.isotropic]
        rows.append((e.name,
                     "yes" if e.isothermal else "no",
                     "yes" if e.minimal else "no",
                     iso, e.constant_lift,
                     "[{:g}, {:g}] x [{:g}, {:g}]".format(*e.surface.domain)))
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    lines = ["  ".join(f"{c:<{w}}" for c, w in zip(r, widths)).rstrip()
             for r in rows]
    _emit(args, "\n".join(lines) + "\n")
    return 0


# --- analyze -------------------------------------------------------------------

def cmd_analyze(args) -> int:
    surface = _resolve_surface(args)
    u, v = args.at
    pd = surface_point_data(
        surface, u, v,
        h=args.h,
        seed_branch=args.seed_normal,
        isothermal_tol=args.tol if args.tol else _DEFAULTS["isothermal_tol"],
    )
    h_eff = args.h if args.h else 1e-4 * surface.domain_diameter()
    doc = {
        "config": _config(surface, h=h_eff, seed_branch=pd.frame.seed_branch),
        "point": {"u": u, "v": v},
        "first_form": {"g11": pd.form.g11, "g12": pd.form.g12, "g22": pd.form.g22},
        "isothermal": pd.isothermal,
        "alpha": pd.alpha,
        "frame": {
            "t1": _vec(pd.frame.t1), "t2": _vec(pd.frame.t2),
            "n1": _vec(pd.frame.n1), "n2": _vec(pd.frame.n2),
            "seed_branch": pd.frame.seed_branch,
        },
        "second_form": {
            "b111": pd.second[0, 0, 0], "b112": pd.second[0, 0, 1],
            "b122": pd.second[0, 1, 1], "b211": pd.second[1, 0, 0],
            "b212": pd.second[1, 0, 1], "b222": pd.second[1, 1, 1],
        },
        "shape_operators": {"a1": _mat(pd.shape.a1), "a2": _mat(pd.shape.a2)},
        "christoffel": [
            [[pd.christoffel[k, i, j] for j in (0, 1)] for i in (0, 1)]
            for k in (0, 1)
        ],
        "normal_connection": (
            None if pd.connection is None else
            {"gamma1": pd.connection.gamma1, "gamma2": pd.connection.gamma2}),
        "mean_curvature": {
            "vector": _vec(pd.H),
            "norm": float(np.linalg.norm(pd.H)),
        },
        "gauss_weingarten": None,
        "beta1": None, "beta2": None, "gamma": None,
        "psi": None, "lifts": None, "g_plus_closed_form": None,
    }
    if pd.connection is not None:
        s1, s2 = gauss_weingarten_matrices(pd)
        doc["gauss_weingarten"] = {"S1": _mat(s1), "S2": _mat(s2)}
    if pd.isothermal:
        doc["beta1"] = _c(pd.beta1)
        doc["beta2"] = _c(pd.beta2)
        doc["gamma"] = None if pd.gamma is None else _c(pd.gamma)
        ps = psi(pd.jets)
        doc["psi"] = [_c(z) for z in ps]
        lp = gauss_map(pd)
        doc["lifts"] = {
            "plus": {
                "chirality": "+",
                "coords": _vec(lp.cplus),
                "matrix": _mat(lp.fplus.matrix),
                "chart": _chart_json(lp.gplus),
            },
            "minus": {
                "chirality": "-",
                "coords": _vec(lp.cminus),
                "matrix": _mat(lp.fminus.matrix),
                "chart": _chart_json(lp.gminus),
            },
        }
        try:
            doc["g_plus_closed_form"] = _c(g_plus_closed_form(ps))
        except PoleOfChart:
            doc["g_plus_closed_form"] = "pole"
    _emit_json(args, doc)
    return 0


# --- grid ----------------------------------------------------------------------

_GRID_COLUMNS = (
    "u", "v", "g11", "g12", "g22", "H_norm",
    "cplus_1", "cplus_2", "cplus_3", "cminus_1", "cminus_2", "cminus_3",
    "gplus_re", "gplus_im", "gplus_antipode",
    "gminus_re", "gminus_im", "gminus_antipode",
    "res_a", "res_b", "res_c", "res_d",
)


def _grid_rows(grid: FieldGrid):
    """Per-point rows over the grid, u-major; lift, chart and isotropy
    columns are absent (None) unless the grid is isothermal."""
    us, vs = np.meshgrid(grid.us, grid.vs, indexing="ij")
    cols = {"u": us, "v": vs, "g11": grid.g11, "g12": grid.g12,
            "g22": grid.g22, "H_norm": grid.H_norm}
    if grid.isothermal:
        for sign, c in zip(("plus", "minus"), lift_sphere_fields(grid)):
            g = chart(c)
            cols.update({f"c{sign}_{k + 1}": c[..., k] for k in range(3)})
            cols.update({f"g{sign}_re": g.value.real, f"g{sign}_im": g.value.imag,
                         f"g{sign}_antipode": g.antipode})
        cols.update(zip(("res_a", "res_b", "res_c", "res_d"),
                        isotropy_fields(grid)))
    empty = [None] * us.size
    return zip(*(np.ravel(cols[c]).tolist() if c in cols else empty
                 for c in _GRID_COLUMNS))


def _grid_summary(grid: FieldGrid) -> dict:
    summary = {
        "sup_H": grid.sup_H(),
        "min_metric_det": float(grid.det.min()),
        "isothermal": grid.isothermal,
        "minimal": grid.sup_H() <= _DEFAULTS["minimal_tol"],
        "seed_branch": (int(grid.seed_branch) if grid.branch_uniform
                        else "per-point"),
    }
    if grid.isothermal:
        from .twistor import lift_gradient_sups
        gp, gm = lift_gradient_sups(grid)
        summary["sup_grad_lift_plus"] = gp
        summary["sup_grad_lift_minus"] = gm
        summary["lift_formula_agreement"] = lift_agreement_residual(grid)
        rp, rm = chart_residuals(grid)
        summary["holo_residual_gplus"] = rp
        summary["holo_residual_gminus_conj"] = rm
    if grid.isothermal and summary["minimal"]:
        try:
            summary["structure_residuals"] = structure_residuals(grid).as_dict()
        except NumericError as exc:
            summary["structure_residuals"] = f"unavailable: {exc}"
        rep = isotropy_report(grid, tol=_DEFAULTS["isotropy_tol"],
                              minimal_tol=_DEFAULTS["minimal_tol"])
        summary["isotropy"] = rep.as_dict()
    return summary


def cmd_grid(args) -> int:
    surface = _resolve_surface(args)
    domain = tuple(args.domain) if args.domain else surface.domain
    n = args.n
    if args.h is not None:
        if not args.h > 0:
            raise ExpressionError(f"--h must be positive, got {args.h:g}")
        n, nv = (int(round((hi - lo) / args.h)) + 1
                 for lo, hi in (domain[:2], domain[2:]))
        if n != nv:
            raise ExpressionError(
                f"--h {args.h:g} gives {n} points on u but {nv} on v; the "
                f"grid is square, so give --n or a domain with equal extents")
    grid = FieldGrid(surface, n, domain=domain, seed_branch=args.seed_normal)
    if args.format == "csv":
        import io
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_GRID_COLUMNS)
        for row in _grid_rows(grid):
            writer.writerow([_fmt(x) if isinstance(x, float)
                             else "" if x is None else str(x) for x in row])
        _emit(args, buf.getvalue())
        return 0
    doc = {
        "config": _config(surface, n=grid.n, h=[grid.hu, grid.hv],
                          domain=list(grid.domain),
                          seed_branch=(int(grid.seed_branch)
                                       if grid.branch_uniform else "per-point")),
        "summary": _grid_summary(grid),
        "columns": list(_GRID_COLUMNS),
        "rows": [list(row) for row in _grid_rows(grid)],
    }
    _emit_json(args, doc)
    return 0


# --- isotropy --------------------------------------------------------------------

_CONDITION_LABELS = {
    "a": "(beta1)^2 + (beta2)^2 = 0",
    "b": "b-quadratic identity, first pairing",
    "c": "b-quadratic identity, second pairing",
    "d": "rotated shape operator has theta-independent eigenvalues",
    "e": "one twistor lift is constant",
}


def cmd_isotropy(args) -> int:
    surface = _resolve_surface(args)
    domain = tuple(args.domain) if args.domain else surface.domain
    grid = FieldGrid(surface, args.n, domain=domain,
                     seed_branch=args.seed_normal)
    try:
        rep = isotropy_report(grid, tol=args.tol,
                              minimal_tol=_DEFAULTS["minimal_tol"])
    except NotMinimal as exc:
        raise NotMinimal(
            f"refused: the hypothesis 'minimal' fails for {surface.name} "
            f"({exc})") from None
    except NotIsothermal as exc:
        raise NotIsothermal(
            f"refused: the hypothesis 'isothermal' fails for {surface.name} "
            f"({exc})") from None
    if args.json:
        doc = {
            "config": _config(surface, n=grid.n, h=[grid.hu, grid.hv],
                              domain=list(grid.domain), tol=args.tol),
            "report": rep.as_dict(),
        }
        _emit_json(args, doc)
        return 0
    lines = [f"isotropy analysis: {surface.name}  "
             f"(n={grid.n}, domain=[{domain[0]:g}, {domain[1]:g}] x "
             f"[{domain[2]:g}, {domain[3]:g}], tol={args.tol:g})"]
    for key, res, ok in rep.conditions():
        lines.append(f"  ({key}) {_CONDITION_LABELS[key]:<55} "
                     f"residual {res:12.5e}  {'pass' if ok else 'fail'}")
    if rep.consensus is None:
        lines.append("consensus: DISAGREEMENT among the five conditions")
    elif rep.consensus:
        lines.append(f"consensus: ISOTROPIC (constant lift: {rep.constant_lift})")
    else:
        lines.append("consensus: NON-ISOTROPIC")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# --- residuals --------------------------------------------------------------------

def cmd_residuals(args) -> int:
    surface = _resolve_surface(args)
    domain = tuple(args.domain) if args.domain else surface.domain
    coarse = FieldGrid(surface, args.n, domain=domain,
                       seed_branch=args.seed_normal)
    fine = FieldGrid(surface, 2 * args.n - 1, domain=domain,
                     seed_branch=args.seed_normal)
    rc = structure_residuals(coarse, minimal_tol=_DEFAULTS["minimal_tol"])
    rf = structure_residuals(fine, minimal_tol=_DEFAULTS["minimal_tol"])
    table = []
    for key in ("gauss", "codazzi1", "codazzi2", "ricci", "beta_sq_holo"):
        c = rc.as_dict()[key]
        f = rf.as_dict()[key]
        table.append((key, c, f, convergence_order(c, f)))
    if args.json:
        doc = {
            "config": _config(surface, n=coarse.n, n_fine=fine.n,
                              h=[coarse.hu, coarse.hv],
                              domain=list(coarse.domain)),
            # an order is null where none is finite: both sups at the
            # roundoff floor, or sup_h2 exactly 0 (text output: "inf")
            "residuals": [
                {"name": k, "sup_h": c, "sup_h2": f,
                 "order": None if o == math.inf else o}
                for k, c, f, o in table
            ],
        }
        _emit_json(args, doc)
        return 0
    lines = [f"structure-equation residuals: {surface.name}  "
             f"(n={coarse.n} vs {fine.n})",
             f"  {'residual':<14} {'sup at h':>13} {'sup at h/2':>13} order"]
    for k, c, f, o in table:
        order = "exact" if o is None else f"{o:.2f}"
        lines.append(f"  {k:<14} {c:13.5e} {f:13.5e} {order}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# --- parser ---------------------------------------------------------------------

def _add_surface_args(p, with_grid=False):
    p.add_argument("--surface", help="catalog surface name")
    p.add_argument("--expr", help="surface as 'f1, f2, f3, f4'")
    p.add_argument("--surface-json", help="path to a surface JSON file")
    p.add_argument("--domain", type=float, nargs=4,
                   metavar=("U0", "U1", "V0", "V1"),
                   help="parameter rectangle (default: surface's own)")
    p.add_argument("--seed-normal", type=int, default=None,
                   metavar="K", help="normal-frame seed branch index (0..5)")
    if with_grid:
        p.add_argument("--n", type=int, default=41,
                       help="grid points per axis (default 41)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistor4",
        description="Twistor lifts, Gauss maps and isotropy classification "
                    "for surfaces in Euclidean 4-space.")
    parser.add_argument("--version", action="version",
                        version=f"twistor4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in surfaces")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", help="full pointwise report")
    _add_surface_args(p)
    p.add_argument("--at", type=float, nargs=2, required=True,
                   metavar=("U", "V"))
    p.add_argument("--tol", type=float, default=None,
                   help="isothermality tolerance")
    p.add_argument("--h", type=float, default=None,
                   help="finite-difference step for the normal connection")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("grid", help="sample a grid and export plot-ready data")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--h", type=float, default=None,
                   help="grid spacing (alternative to --n)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("isotropy", help="five-way isotropy report")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--tol", type=float, default=_DEFAULTS["isotropy_tol"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser("residuals", help="structure-equation residuals at h, h/2")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_residuals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
