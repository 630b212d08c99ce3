"""Command-line front end.

Subcommands: catalog, analyze, grid, isotropy, residuals.  JSON output is
self-describing (tool version, tolerances, grid step, seed branch) and
deterministic, so re-running with the same configuration is bit-identical.
Exit codes: 0 success, 2 expression/input error, 3 hypothesis failure
(not immersed / not isothermal / not minimal), 4 numeric breakdown, such as
a nan or inf in an output of any format, refused before anything is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict, replace

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
    MINIMAL_TOL,
    SEED_TOL,
    FieldGrid,
    convergence_order,
    gauss_weingarten_matrices,
    grid_size_fits,
    structure_residuals,
    surface_point_data,
)
from .surface_expr import parse_surface, surface_from_json
from .twistor import (
    ISOTROPY_TOL,
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
    "minimal_tol": MINIMAL_TOL,
    "immersion_tol": IMMERSION_TOL,
    "seed_tol": SEED_TOL,
    "isotropy_tol": ISOTROPY_TOL,
}


def _resolve_surface(args):
    """The surface of --surface, --expr or --surface-json on --domain, held
    to SurfaceDef's rule, or on its own domain."""
    given = [x is not None for x in (args.surface, args.expr, args.surface_json)]
    if sum(given) != 1:
        raise ExpressionError(
            "exactly one of --surface, --expr, --surface-json is required")
    if args.surface is not None:
        try:
            surface = get_surface(args.surface)
        except KeyError as exc:
            raise ExpressionError(str(exc)) from None
    elif args.expr is not None:
        surface = parse_surface(args.expr, name="cli-expr")
    else:
        with open(args.surface_json, "rb") as fh:
            surface = surface_from_json(fh.read())
    try:
        return replace(surface, domain=tuple(args.domain or surface.domain))
    except ExpressionError as exc:
        raise ExpressionError(f"--domain: {exc}") from None


def _checked_tol(args) -> float:
    if not 0 <= args.tol < math.inf:
        raise ExpressionError(
            f"--tol must be finite and non-negative, got {args.tol:g}")
    return args.tol


def _config(surface, grid=None, **extra) -> dict:
    """The config block of a JSON document, with a grid's n, h and domain
    ahead of extra; a "tolerances" in extra replaces the defaults in place."""
    if grid is not None:
        extra = {"n": grid.n, "h": [grid.hu, grid.hv],
                 "domain": list(grid.domain), **extra}
    return {
        "tool": "twistor4",
        "version": __version__,
        "surface": surface.to_json(),
        "tolerances": dict(_DEFAULTS),
        **extra,
    }


def _emit(args, text: str):
    if not getattr(args, "out", None):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    # overwritten in place, then cut to length: truncating to zero first
    # makes the file system drop the last output before the next write
    with open(args.out, "w", encoding="utf-8",
              opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as fh:
        try:
            fh.write(text)
        finally:  # never old bytes after new; /dev/null or a FIFO has no length
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _json(doc) -> str:
    """doc as strict, compact JSON, numpy values included (_plain): a nan or
    inf anywhere is a numeric breakdown, refused before anything is written.
    Without indent, CPython encodes in C."""
    try:
        return json.dumps(doc, separators=(",", ":"), allow_nan=False,
                          default=_plain)
    except ValueError as exc:
        raise NumericError(
            f"the result is not finite ({_non_finite(doc, '') or exc})") from None


def _plain(x):
    """x as JSON holds it: a numpy array or scalar as its .tolist(), a
    complex number as [re, im]."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _non_finite(doc, key: str):
    """The first nan or inf in doc as "key is value", keys and list indices
    joined by dots, or None; json's C encoder names neither."""
    if isinstance(doc, (complex, np.ndarray, np.generic)):
        doc = _plain(doc)
    if isinstance(doc, float):
        return None if math.isfinite(doc) else f"{key} is {doc}"
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, (list, tuple)) else ())
    return next(filter(None, (_non_finite(x, f"{key}.{k}".lstrip("."))
                              for k, x in items)), None)


# --- catalog -----------------------------------------------------------------

def cmd_catalog(args) -> str:
    if args.json:
        return _json({
            "tool": "twistor4",
            "version": __version__,
            "surfaces": [
                {**e.surface.to_json(), "flags": e.flags_dict(), "note": e.note}
                for e in catalog_entries()
            ],
        })
    rows = [("name", "isothermal", "minimal", "isotropic", "lift", "domain")]
    yes = {True: "yes", False: "no", None: "-"}
    for e in catalog_entries():
        rows.append((e.name, yes[e.isothermal], yes[e.minimal], yes[e.isotropic],
                     e.constant_lift,
                     "[{:g}, {:g}] x [{:g}, {:g}]".format(*e.surface.domain)))
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    lines = ["  ".join(f"{c:<{w}}" for c, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines) + "\n"


# --- analyze -------------------------------------------------------------------

def cmd_analyze(args) -> str:
    surface = _resolve_surface(args)
    tol = _checked_tol(args)
    u, v = args.at
    u0, u1, v0, v1 = surface.domain
    if not (u0 <= u <= u1 and v0 <= v <= v1):
        raise ExpressionError(f"--at {u:g} {v:g} is outside the domain "
                              f"[{u0:g}, {u1:g}] x [{v0:g}, {v1:g}]")
    pd = surface_point_data(surface, u, v, seed_branch=args.seed_normal,
                            isothermal_tol=tol)
    s1, s2 = gauss_weingarten_matrices(pd)
    doc = {
        "config": _config(surface,
                          tolerances={**_DEFAULTS, "isothermal_tol": tol},
                          seed_branch=pd.frame.seed_branch),
        "point": {"u": u, "v": v},
        "first_form": asdict(pd.form),
        "isothermal": pd.isothermal,
        "alpha": pd.alpha,
        "frame": asdict(pd.frame),
        "second_form": {f"b{k + 1}{i + 1}{j + 1}": pd.second[k, i, j]
                        for k in (0, 1) for i, j in ((0, 0), (0, 1), (1, 1))},
        "shape_operators": asdict(pd.shape),
        "christoffel": pd.christoffel,
        "normal_connection": asdict(pd.connection),
        "mean_curvature": {"vector": pd.H, "norm": pd.H_norm},
        "gauss_weingarten": {"S1": s1, "S2": s2},
        "beta1": pd.beta1, "beta2": pd.beta2, "gamma": pd.gamma,
        "psi": None, "lifts": None, "g_plus_closed_form": None,
    }
    if pd.isothermal:
        doc["psi"] = ps = psi(pd.jets)
        lp = gauss_map(pd)
        doc["lifts"] = {
            name: {"chirality": sign, "coords": f.coords, "matrix": f.matrix,
                   "chart": asdict(g)}
            for name, sign, f, g in (("plus", "+", lp.fplus, lp.gplus),
                                     ("minus", "-", lp.fminus, lp.gminus))}
        try:
            doc["g_plus_closed_form"] = g_plus_closed_form(ps)
        except PoleOfChart:
            doc["g_plus_closed_form"] = "pole"
    return _json(doc)


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
        c = lift_sphere_fields(grid)
        g = chart(c.swapaxes(0, 1))  # both lifts' charts, (2, n, n) each
        for e, sign in enumerate(("plus", "minus")):
            cols.update({f"c{sign}_{k + 1}": c[e, k] for k in range(3)})
            cols.update({f"g{sign}_re": g.value[e].real, f"g{sign}_im": g.value[e].imag,
                         f"g{sign}_antipode": g.antipode[e]})
        cols.update(zip(("res_a", "res_b", "res_c", "res_d"),
                        isotropy_fields(grid)))
    return [np.ravel(cols[c]) if c in cols else None for c in _GRID_COLUMNS]


def _grid_rows(columns, fmt: str):
    """A list of the rows of the columns in fmt, "json" or "csv", each row's
    cell text joined by commas.  Each distinct float is formatted once, keyed
    on its bit pattern so that 0.0 and -0.0 keep their signs: shortest repr
    for JSON, 17 significant digits for CSV.  A nan or inf is refused."""
    text, flags, absent = {"json": (float.__repr__, ("false", "true"), "null"),
                           "csv": ("%.17g".__mod__, ("False", "True"), "")}[fmt]
    floats = {name: col for name, col in zip(_GRID_COLUMNS, columns)
              if col is not None and col.dtype != bool}
    for name, col in floats.items():
        if not np.isfinite(col).all():
            raise NumericError(f"the result is not finite (column {name} "
                               f"holds {col[~np.isfinite(col)][0]})")
    bits, inverse = np.unique(np.stack(list(floats.values())).view(np.int64),
                              return_inverse=True)
    strings = np.array([text(x) for x in bits.view(float).tolist()], object)
    cells = dict(zip(floats, strings[inverse].reshape(len(floats), -1).tolist()))
    del bits, inverse, strings  # lower peak memory while rows are built
    return list(map(",".join, zip(*(
        cells[name] if name in cells else [absent] * len(columns[0])
        if col is None else [flags[x] for x in col.tolist()]
        for name, col in zip(_GRID_COLUMNS, columns)))))


def _grid_summary(grid: FieldGrid) -> dict:
    summary = {
        "sup_H": grid.sup_H(),
        "min_metric_det": float(grid.det.min()),
        "isothermal": grid.isothermal,
        "minimal": grid.minimal,
        "seed_branch": (int(grid.seed_branch) if grid.branch_uniform
                        else "per-point"),
    }
    if grid.isothermal:
        # local, not at the top: perfbench's tracer wraps it in twistor4.twistor
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
        rep = isotropy_report(grid, tol=_DEFAULTS["isotropy_tol"])
        summary["isotropy"] = rep.as_dict()
    return summary


def _grid(args, surface, n: int) -> FieldGrid:
    """The n x n FieldGrid of surface, pinned to --seed-normal;
    a grid that memory cannot hold exits 2."""
    try:
        return FieldGrid(surface, n, seed_branch=args.seed_normal)
    except MemoryError:
        raise ExpressionError(f"an n = {n} grid does not fit in memory") from None


def cmd_grid(args) -> str:
    surface = _resolve_surface(args)
    n = args.n
    if args.h is not None:
        if not args.h > 0:
            raise ExpressionError(f"--h must be positive, got {args.h:g}")
        u0, u1, v0, v1 = surface.domain
        cu, cv = (u1 - u0) / args.h, (v1 - v0) / args.h
        if not grid_size_fits(max(cu, cv) + 1):  # cu, cv inf on overflow
            raise ExpressionError(f"--h {args.h!r} gives no grid size an array can hold")
        n, nv = int(round(cu)) + 1, int(round(cv)) + 1
        if n != nv:
            raise ExpressionError(
                f"--h {args.h:g} gives {n} points on u but {nv} on v; the "
                f"grid is square, so give --n or a domain with equal extents")
    grid = _grid(args, surface, n)
    if args.format == "csv":  # rows end in CRLF, as csv.writer writes them
        return "\r\n".join([",".join(_GRID_COLUMNS),
                             *_grid_rows(_grid_columns(grid), "csv"), ""])
    summary = _grid_summary(grid)
    doc = {
        "config": _config(surface, grid, seed_branch=summary["seed_branch"]),
        "summary": summary,
        "columns": list(_GRID_COLUMNS),
    }
    return '{},"rows":[[{}]]}}'.format(
        _json(doc)[:-1], "],[".join(_grid_rows(_grid_columns(grid), "json")))


# --- isotropy --------------------------------------------------------------------

_CONDITION_LABELS = {
    "a": "(beta1)^2 + (beta2)^2 = 0",
    "b": "b-quadratic identity, first pairing",
    "c": "b-quadratic identity, second pairing",
    "d": "rotated shape operator has theta-independent eigenvalues",
    "e": "one twistor lift is constant",
}


def cmd_isotropy(args) -> str:
    surface = _resolve_surface(args)
    tol = _checked_tol(args)
    grid = _grid(args, surface, args.n)
    try:
        rep = isotropy_report(grid, tol=tol)
    except (NotMinimal, NotIsothermal) as exc:
        what = "minimal" if isinstance(exc, NotMinimal) else "isothermal"
        raise type(exc)(f"refused: the hypothesis '{what}' fails for "
                        f"{surface.name} ({exc})") from None
    # refused here if not finite, whichever format is asked for
    text = _json({
        "config": _config(surface, grid,
                          tolerances={**_DEFAULTS, "isotropy_tol": tol}, tol=tol),
        "report": rep.as_dict(),
    })
    if args.json:
        return text
    u0, u1, v0, v1 = grid.domain
    lines = [f"isotropy analysis: {surface.name}  (n={grid.n}, "
             f"domain=[{u0:g}, {u1:g}] x [{v0:g}, {v1:g}], tol={tol:g})"]
    for key, res, ok in rep.conditions():
        lines.append(f"  ({key}) {_CONDITION_LABELS[key]:<55} "
                     f"residual {res:12.5e}  {'pass' if ok else 'fail'}")
    if rep.consensus is None:
        lines.append("consensus: DISAGREEMENT among the five conditions")
    elif rep.consensus:
        lines.append(f"consensus: ISOTROPIC (constant lift: {rep.constant_lift})")
    else:
        lines.append("consensus: NON-ISOTROPIC")
    return "\n".join(lines) + "\n"


# --- residuals --------------------------------------------------------------------

def cmd_residuals(args) -> str:
    surface = _resolve_surface(args)
    try:  # the h grid is every other node of the h/2 grid
        fine = _grid(args, surface, 2 * args.n - 1)
        coarse = fine.every_other()
    except tuple(_EXIT_CODES):  # the h grid's refusal, naming --n, comes first
        # a fresh object walks; a second evaluation of this one would compile
        _grid(args, replace(surface), args.n)
        raise
    rc, rf = map(structure_residuals, (coarse, fine))
    table = [(k, c, f, convergence_order(c, f))
             for (k, c), f in zip(rc.as_dict().items(), rf.as_dict().values())]
    # refused here if not finite, whichever format is asked for
    text = _json({
        "config": _config(surface, n=coarse.n, n_fine=fine.n,
                          h=[coarse.hu, coarse.hv], domain=list(coarse.domain)),
        # an order is null where none is finite: both sups at the roundoff
        # floor, or sup_h2 or sup_h exactly 0 (text output: "inf", "-inf")
        "residuals": [
            {"name": k, "sup_h": c, "sup_h2": f,
             "order": None if o in (math.inf, -math.inf) else o}
            for k, c, f, o in table
        ],
    })
    if args.json:
        return text
    lines = [f"structure-equation residuals: {surface.name}  "
             f"(n={coarse.n} vs {fine.n})",
             f"  {'residual':<14} {'sup at h':>13} {'sup at h/2':>13} order"]
    for k, c, f, o in table:
        order = "exact" if o is None else f"{o:.2f}"
        lines.append(f"  {k:<14} {c:13.5e} {f:13.5e} {order}")
    return "\n".join(lines) + "\n"


# --- parser ---------------------------------------------------------------------

def _add_surface_args(p, with_grid=False):
    # argparse's own pattern would read -1e-3 and -inf as options, not numbers
    p._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.I)
    p.add_argument("--surface", help="catalog surface name")
    p.add_argument("--expr", help="surface as 'f1, f2, f3, f4'")
    p.add_argument("--surface-json", help="path to a surface JSON file")
    p.add_argument("--domain", type=float, nargs=4,
                   metavar=("U0", "U1", "V0", "V1"),
                   help="parameter rectangle (default: surface's own)")
    p.add_argument("--seed-normal", type=int, default=None, choices=range(3),
                   metavar="K", help="pin the normal-frame seed K (0..2: e3, e2, e1)")
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
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", help="full pointwise report")
    _add_surface_args(p)
    p.add_argument("--at", type=float, nargs=2, required=True,
                   metavar=("U", "V"))
    p.add_argument("--tol", type=float, default=_DEFAULTS["isothermal_tol"],
                   help="isothermality tolerance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("grid", help="sample a grid and export plot-ready data")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--h", type=float, default=None,
                   help="grid spacing (alternative to --n)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("isotropy", help="five-way isotropy report")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--tol", type=float, default=_DEFAULTS["isotropy_tol"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser("residuals", help="structure-equation residuals at h, h/2")
    _add_surface_args(p, with_grid=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_residuals)

    for p in sub.choices.values():  # main writes every subcommand's text
        p.add_argument("--out", help="output path (default: stdout)")
    return parser


# One per process, built at the first main(): parse_args keeps no state in
# it.  build_parser is looked up at that call, so that it can be replaced.
_parser = functools.cache(lambda: build_parser())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args, args.func(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
