"""Command-line front end.

Subcommands: catalog, analyze, grid, isotropy, residuals.  JSON output is
self-describing (tool version, tolerances, grid step, seed branch) and
deterministic, so re-running with the same configuration is bit-identical.
Exit codes: 0 success, 2 expression/input error, 3 hypothesis failure
(not immersed / not isothermal / not minimal), 4 numeric breakdown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .catalog import catalog_entries, get_surface
from .errors import (
    ExpressionError,
    GridTooSmall,
    HypothesisError,
    NotIsothermal,
    NotMinimal,
    NumericError,
    PoleOfChart,
)
from .geometry import (
    IMMERSION_TOL,
    ISOTHERMAL_TOL,
    SEED_TOL,
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

_EXIT_CODES = {ExpressionError: 2, HypothesisError: 3, NumericError: 4,
               OSError: 1}

_DEFAULTS = {
    "isothermal_tol": ISOTHERMAL_TOL,
    "minimal_tol": 1e-8,
    "immersion_tol": IMMERSION_TOL,
    "seed_tol": SEED_TOL,
    "isotropy_tol": 1e-6,
}


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _vec(a) -> list:
    return [float(x) for x in np.asarray(a).ravel()]


def _mat(a) -> list:
    return np.asarray(a, float).tolist()


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
    """Write doc as strict, compact JSON: a nan or inf anywhere is a numeric
    breakdown, refused before anything is written.  Without indent, CPython
    encodes in C."""
    try:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
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
    yes = {True: "yes", False: "no", None: "-"}
    for e in catalog_entries():
        rows.append((e.name, yes[e.isothermal], yes[e.minimal], yes[e.isotropic],
                     e.constant_lift,
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
        seed_branch=args.seed_normal,
        isothermal_tol=args.tol if args.tol else _DEFAULTS["isothermal_tol"],
    )
    s1, s2 = gauss_weingarten_matrices(pd)
    doc = {
        "config": _config(surface, seed_branch=pd.frame.seed_branch),
        "point": {"u": u, "v": v},
        "first_form": {"g11": pd.form.g11, "g12": pd.form.g12, "g22": pd.form.g22},
        "isothermal": pd.isothermal,
        "alpha": pd.alpha,
        "frame": {
            "t1": _vec(pd.frame.t1), "t2": _vec(pd.frame.t2),
            "n1": _vec(pd.frame.n1), "n2": _vec(pd.frame.n2),
            "seed_branch": pd.frame.seed_branch,
        },
        "second_form": {f"b{k + 1}{i + 1}{j + 1}": pd.second[k, i, j]
                        for k in (0, 1) for i, j in ((0, 0), (0, 1), (1, 1))},
        "shape_operators": {"a1": _mat(pd.shape.a1), "a2": _mat(pd.shape.a2)},
        "christoffel": _mat(pd.christoffel),
        "normal_connection": {"gamma1": pd.connection.gamma1,
                              "gamma2": pd.connection.gamma2},
        "mean_curvature": {
            "vector": _vec(pd.H),
            "norm": float(np.linalg.norm(pd.H)),
        },
        "gauss_weingarten": {"S1": _mat(s1), "S2": _mat(s2)},
        "beta1": None, "beta2": None, "gamma": None,
        "psi": None, "lifts": None, "g_plus_closed_form": None,
    }
    if pd.isothermal:
        doc["beta1"] = _c(pd.beta1)
        doc["beta2"] = _c(pd.beta2)
        doc["gamma"] = _c(pd.gamma)
        ps = psi(pd.jets)
        doc["psi"] = [_c(z) for z in ps]
        lp = gauss_map(pd)
        doc["lifts"] = {
            name: {"chirality": sign, "coords": _vec(c), "matrix": _mat(f.matrix),
                   "chart": {"value": _c(g.value), "antipode": g.antipode}}
            for name, sign, c, f, g in (
                ("plus", "+", lp.cplus, lp.fplus, lp.gplus),
                ("minus", "-", lp.cminus, lp.fminus, lp.gminus))}
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


def _grid_columns(grid: FieldGrid) -> list:
    """The export's columns in _GRID_COLUMNS order, flattened u-major; lift,
    chart and isotropy columns are absent (None) unless the grid is
    isothermal."""
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
    return [np.ravel(cols[c]) if c in cols else None for c in _GRID_COLUMNS]


def _grid_csv(columns) -> str:
    """The columns as CSV, formatted a column at a time: floats to 17
    significant digits, flags as True/False, absent cells empty; rows end in
    CRLF, as csv.writer writes them.  A nan or inf cell is refused."""
    cells = []
    for name, col in zip(_GRID_COLUMNS, columns):
        if col is None:
            cells.append([""] * len(columns[0]))
        elif col.dtype != bool and not np.isfinite(col).all():
            raise NumericError(f"the result is not finite (column {name} "
                               f"holds {col[~np.isfinite(col)][0]})")
        else:
            cells.append(map(str if col.dtype == bool else "{:.17g}".format,
                             col.tolist()))
    lines = [",".join(_GRID_COLUMNS), *map(",".join, zip(*cells)), ""]
    return "\r\n".join(lines)


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
        (summary["sup_grad_lift_plus"],
         summary["sup_grad_lift_minus"]) = lift_gradient_sups(grid)
        summary["lift_formula_agreement"] = lift_agreement_residual(grid)
        (summary["holo_residual_gplus"],
         summary["holo_residual_gminus_conj"]) = chart_residuals(grid)
    if grid.isothermal and summary["minimal"]:
        try:
            summary["structure_residuals"] = structure_residuals(grid).as_dict()
        except (GridTooSmall, NumericError) as exc:
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
        _emit(args, _grid_csv(_grid_columns(grid)))
        return 0
    summary = _grid_summary(grid)
    empty = [None] * grid.n ** 2
    doc = {
        "config": _config(surface, n=grid.n, h=[grid.hu, grid.hv],
                          domain=list(grid.domain),
                          seed_branch=summary["seed_branch"]),
        "summary": summary,
        "columns": list(_GRID_COLUMNS),
        "rows": list(zip(*(empty if c is None else c.tolist()
                           for c in _grid_columns(grid)))),
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
    except (NotMinimal, NotIsothermal) as exc:
        what = "minimal" if isinstance(exc, NotMinimal) else "isothermal"
        raise type(exc)(f"refused: the hypothesis '{what}' fails for "
                        f"{surface.name} ({exc})") from None
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
    table = [(k, c, f, convergence_order(c, f))
             for (k, c), f in zip(rc.as_dict().items(), rf.as_dict().values())]
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
    p.add_argument("--seed-normal", type=int, default=None, choices=range(6),
                   metavar="K", help="pin the normal-frame seed branch K (0..5)")
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
