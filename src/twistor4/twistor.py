"""Twistor lifts and Gauss maps of surfaces in E^4.

At an isothermal point, psi = dF/dw packs the whole tangent plane into four
complex numbers; quadratic combinations of psi produce the sphere coordinates
of the two twistor lifts.  Independently, the lifts are wedge expressions
t1 ^ t2 + eps n1 ^ n2 in any positively oriented adapted frame; both routes
must agree, which the tests exploit.  Stereographic charts g+/g- of the lift
spheres are holomorphic (respectively antiholomorphic) exactly when the
surface is minimal, and a minimal surface is isotropic precisely when one of
the lifts is constant; the five equivalent characterizations are evaluated as
residual fields over a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complex_structures import (
    OrthogonalComplexStructure,
    classify_ocs,
    compose_ocs,
)
from .errors import (
    GridTooSmall,
    NonUnitCoords,
    NotIsothermal,
    PoleOfChart,
)
from .geometry import FieldGrid, Frame, SurfacePointData, dwbar_field
from .linalg4 import basis_I_stack

__all__ = [
    "ChartValue",
    "LiftPoint",
    "IsotropyReport",
    "psi",
    "big_psi",
    "sphere_coords",
    "lift_isothermal",
    "lift_frame",
    "lift_matrix",
    "gauss_map",
    "chart",
    "inverse_chart",
    "g_plus_closed_form",
    "g_plus_closed_field",
    "holomorphicity_residual",
    "lift_sphere_fields",
    "lift_matrix_fields",
    "lift_agreement_residual",
    "lift_gradient_sups",
    "chart_residuals",
    "isotropy_fields",
    "isotropy_report",
]


def psi(jets) -> np.ndarray:
    """psi^i = (df^i/du - i df^i/dv) / 2, a complex 4-vector."""
    return np.array([0.5 * (j.du - 1j * j.dv) for j in jets])


def big_psi(ps, eps: int, qs=None) -> np.ndarray:
    """Quadratic lift components; broadcasts over leading axes of ps[..., 4].

    Psi^1 = psi^1 conj(psi^2) - psi^2 conj(psi^1)
            + eps (psi^3 conj(psi^4) - psi^4 conj(psi^3)),
    and cyclically for Psi^2, Psi^3 following the bivector basis pattern.
    With `qs` given, the sesquilinear form B(ps, qs) is returned instead
    (conj(psi) replaced by conj(qs)); Psi = B(psi, psi).
    """
    ps = np.asarray(ps)
    qs = ps if qs is None else np.asarray(qs)
    p1, p2, p3, p4 = (ps[..., k] for k in range(4))
    q1, q2, q3, q4 = (np.conj(qs[..., k]) for k in range(4))
    out = np.empty(np.broadcast_shapes(ps.shape, qs.shape)[:-1] + (3,),
                   dtype=complex)
    out[..., 0] = p1 * q2 - p2 * q1 + eps * (p3 * q4 - p4 * q3)
    out[..., 1] = p1 * q3 - p3 * q1 + eps * (p4 * q2 - p2 * q4)
    out[..., 2] = p1 * q4 - p4 * q1 + eps * (p2 * q3 - p3 * q2)
    return out


def sphere_coords(ps, e2a, eps: int) -> np.ndarray:
    """Unit sphere coordinates -2i Psi_eps / e2a of a twistor lift.

    The entries are real by construction (each Psi component is a difference
    of conjugates); the imaginary part is dropped.
    """
    bp = big_psi(ps, eps)
    return np.real(-2j * bp / np.asarray(e2a)[..., None])


def lift_isothermal(ps, e2a: float, eps: int,
                    tol: float = 1e-8) -> OrthogonalComplexStructure:
    """Twistor lift from psi at an isothermal point."""
    ps = np.asarray(ps)
    if abs(np.sum(ps * ps)) > tol * e2a:
        raise NotIsothermal(
            "sum (psi^i)^2 does not vanish; the point is not isothermal")
    c = sphere_coords(ps, e2a, eps)
    try:
        return compose_ocs(eps, c, tol=max(tol, 1e-10))
    except NonUnitCoords as exc:
        raise NonUnitCoords(f"lift coordinates are not unit: {exc}") from None


def lift_matrix(t1, t2, n1, n2, eps: int) -> np.ndarray:
    """t1 ^ t2 + eps n1 ^ n2, broadcasting over leading axes."""
    def w(a, b):
        return (np.asarray(b)[..., :, None] * np.asarray(a)[..., None, :]
                - np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :])
    return w(t1, t2) + eps * w(n1, n2)


def lift_frame(frame: Frame, eps: int) -> OrthogonalComplexStructure:
    """Twistor lift from a positively oriented adapted frame."""
    return classify_ocs(lift_matrix(frame.t1, frame.t2, frame.n1, frame.n2, eps))


@dataclass(frozen=True)
class ChartValue:
    """Stereographic chart value of a point on the lift sphere.

    `antipode` False: projection from (0, 0, 1), g = (c1 + i c2) / (1 - c3).
    `antipode` True: the point is within tolerance of (0, 0, 1) (infinite in
    the standard chart), so the value from the antipodal projection
    (c1 + i c2) / (1 + c3) is reported instead.  For a field of points both
    are arrays over the points.
    """

    value: complex
    antipode: bool = False


def chart(c, tol: float = 1e-8) -> ChartValue:
    """Stereographic chart of unit vectors c[..., 3] on S^2.

    A single vector gives a complex value and a bool; a field of vectors
    gives arrays of both over its leading axes.
    """
    c1, c2, c3 = np.moveaxis(np.asarray(c, float), -1, 0)
    norm = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    bad = np.abs(norm - 1.0) > max(tol, 1e-8)
    if np.any(bad):
        raise NonUnitCoords(f"|c| = {np.ravel(norm)[np.ravel(bad)][0]!r} is not 1")
    antipode = 1.0 - c3 <= tol
    # the chosen projection's denominator is at least tol, or about 2
    value = (c1 + 1j * c2) / np.where(antipode, 1.0 + c3, 1.0 - c3)
    if np.ndim(value) == 0:
        return ChartValue(complex(value), bool(antipode))
    return ChartValue(value, antipode)


def inverse_chart(g) -> np.ndarray:
    """Sphere point of a chart value: for g = a + ib in the standard chart,
    c = (2a, 2b, a^2 + b^2 - 1) / (a^2 + b^2 + 1); antipodal chart flips c3."""
    if isinstance(g, ChartValue):
        value, antipode = g.value, g.antipode
    else:
        value, antipode = complex(g), False
    a, b = value.real, value.imag
    r2 = a * a + b * b
    c = np.array([2 * a, 2 * b, r2 - 1.0]) / (r2 + 1.0)
    if antipode:
        c[2] = -c[2]
    return c


def g_plus_closed_form(ps, tol: float = 1e-8) -> complex:
    """Closed form of the plus chart directly from psi at one point;
    raises PoleOfChart at the chart pole (see g_plus_closed_field)."""
    g = g_plus_closed_field(ps, tol)
    if np.isnan(g):
        raise PoleOfChart("plus lift is at the chart pole (c3 = 1)")
    return complex(g)


def g_plus_closed_field(psi_field, tol: float = 1e-8) -> np.ndarray:
    """Closed form of the plus chart from psi[..., 4]; NaN at chart poles.

    Two algebraically equivalent branches exist,

        g+ = (psi^1 + i psi^4) / (i (psi^2 - i psi^3))
           = i (psi^2 + i psi^3) / (psi^1 - i psi^4);

    the one with the larger denominator modulus is used.  Both denominators
    vanish together exactly at the chart pole c+3 = 1.
    """
    ps = np.asarray(psi_field)
    p1, p2, p3, p4 = (ps[..., k] for k in range(4))
    d1 = p2 - 1j * p3
    d2 = p1 - 1j * p4
    scale = np.sum(np.abs(ps) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        branch1 = (p1 + 1j * p4) / (1j * d1)
        branch2 = 1j * (p2 + 1j * p3) / d2
    out = np.where(np.abs(d1) >= np.abs(d2), branch1, branch2)
    pole = np.abs(d1) ** 2 + np.abs(d2) ** 2 <= tol * scale
    return np.where(pole, np.nan + 0j, out)


@dataclass(frozen=True, eq=False)
class LiftPoint:
    """Both twistor lifts at one point plus their chart values."""

    fplus: OrthogonalComplexStructure
    fminus: OrthogonalComplexStructure
    gplus: ChartValue
    gminus: ChartValue

    @property
    def cplus(self) -> np.ndarray:
        return self.fplus.coords

    @property
    def cminus(self) -> np.ndarray:
        return self.fminus.coords


def gauss_map(pd: SurfacePointData) -> LiftPoint:
    """The pair of twistor lifts of the oriented tangent plane at a point."""
    fp = lift_frame(pd.frame, 1)
    fm = lift_frame(pd.frame, -1)
    return LiftPoint(fp, fm, chart(fp.coords), chart(fm.coords))


def holomorphicity_residual(field: np.ndarray, hu: float,
                            hv: Optional[float] = None) -> float:
    """sup over interior grid points of |(d/du + i d/dv) field / 2|.

    The field is given only by its samples, so the derivative is the
    central-difference stencil of dwbar_field (O(h^2)); chart_residuals
    computes the residuals of g+ and conj(g-) exactly instead.
    """
    field = np.asarray(field)
    if field.ndim != 2 or min(field.shape) < 3:
        raise GridTooSmall("holomorphicity residual needs at least a 3x3 grid")
    if hv is None:
        hv = hu
    return float(np.abs(dwbar_field(field, hu, hv)).max())


# --- grid-level lift machinery ------------------------------------------------

def _kept(grid: FieldGrid, make):
    """make(grid), a pair of fields built once per grid and kept on it,
    read-only; a module-level cache would keep every grid alive."""
    kept = vars(grid).setdefault("_kept", {})
    if make not in kept:
        kept[make] = make(grid)
        for field in kept[make]:
            field.flags.writeable = False
    return kept[make]


def _sphere_fields(grid: FieldGrid):
    grid.require_isothermal()
    return tuple(sphere_coords(grid.psi, grid.e2a, eps) for eps in (1, -1))


def lift_sphere_fields(grid: FieldGrid):
    """Sphere coordinates of both lifts over a grid (isothermal required),
    built once per grid."""
    return _kept(grid, _sphere_fields)


def lift_matrix_fields(grid: FieldGrid):
    """Lift matrices over a grid from the frame field (works regardless of
    isothermality and of per-point seed branches).  The reports of this
    module keep them on the grid."""
    return tuple(lift_matrix(grid.t1, grid.t2, grid.n1, grid.n2, eps)
                 for eps in (1, -1))


def lift_agreement_residual(grid: FieldGrid) -> float:
    """Sup distance between the psi-based and the frame-based lift, both
    chiralities, over all grid points."""
    return float(max(
        np.abs(np.einsum("...k,kij->...ij", c, basis_I_stack(eps)) - M).max()
        for c, M, eps in zip(_kept(grid, _sphere_fields),
                             _kept(grid, lift_matrix_fields), (1, -1))))


def _chart_dwbar_exact(grid: FieldGrid, cs):
    """|d/dwbar| of the holomorphic chart function of each lift on the
    interior, by forward mode over the 2-jet (no truncation error).

    psi_u = (F_uu - i F_uv)/2, psi_v = (F_uv - i F_vv)/2 and
    (e2a)_a = 2 <F_u, F_ua>.  Psi is sesquilinear in psi and
    B(psi, d psi) = -conj(B(d psi, psi)), so Re(-2i d Psi) = 4 Im B(d psi, psi)
    and dc = 4 Im B(d psi, psi) / e2a - c d(e2a) / e2a; the chart derivative
    follows by the quotient rule.
    """
    inner = np.s_[1:-1, 1:-1]
    psi, e2a = grid.psi[inner], grid.e2a[inner]
    Fu, Fuu, Fuv, Fvv = (a[inner] for a in (grid.Fu, grid.Fuu, grid.Fuv, grid.Fvv))
    dpsi = 0.5 * np.stack([Fuu - 1j * Fuv, Fuv - 1j * Fvv])
    dlog_e2a = 2.0 * np.stack([np.sum(Fu * Fuu, axis=-1),
                               np.sum(Fu * Fuv, axis=-1)]) / e2a
    for c, eps in zip(cs, (1, -1)):
        c = c[inner]
        dc = (4.0 * np.imag(big_psi(dpsi, eps, psi)) / e2a[..., None]
              - c * dlog_e2a[..., None])
        # s = +1: standard chart g = z / (1 - c3); s = -1: antipodal chart.
        s = np.where(c[..., 2] <= 0.0, 1.0, -1.0)
        den = 1.0 - s * c[..., 2]
        g = (c[..., 0] + 1j * c[..., 1]) / den
        gu, gv = (dc[..., 0] + 1j * dc[..., 1] + s * g * dc[..., 2]) / den
        # g+ is holomorphic in the standard chart, g- antiholomorphic, and the
        # antipodal chart swaps the two: d/dwbar of conj(g) is conj(dg/dw).
        yield 0.5 * np.abs(gu + 1j * (s * eps) * gv)


def _chart_dwbar_central(grid: FieldGrid, cs):
    """|d/dwbar| of the holomorphic chart function of each lift on the
    interior, by central differences of the chart fields (O(h^2))."""
    for c, eps in zip(cs, (1, -1)):
        z = c[..., 0] + 1j * c[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            north, south = z / (1.0 - c[..., 2]), z / (1.0 + c[..., 2])
        if eps < 0:
            holo_n, holo_s = np.conj(north), south
        else:
            holo_n, holo_s = north, np.conj(south)
        res_n = np.abs(dwbar_field(holo_n, grid.hu, grid.hv))
        res_s = np.abs(dwbar_field(holo_s, grid.hu, grid.hv))
        yield np.where(c[1:-1, 1:-1, 2] <= 0.0, res_n, res_s)


def chart_residuals(grid: FieldGrid, method: str = "exact"):
    """Holomorphicity residuals (sup |d/dwbar|) of g+ and of conj(g-).

    Each interior point is evaluated in whichever chart covers it: the
    standard one where c3 <= 0, the antipodal one where c3 > 0.  Swapping
    charts replaces the holomorphic function by its reciprocal, so the
    residual keeps testing the same statement on the pole's chart too.

    method "exact" (default): g+- depend only on F_u and F_v, so their first
    derivatives are second-order quantities that the 2-jet holds exactly;
    they are pushed through the sphere coordinates and the chart, with no
    truncation error.  method "stencil": central differences of the chart
    fields, an independent O(h^2) cross-check.
    """
    if method not in ("exact", "stencil"):
        raise ValueError(f"unknown method {method!r}; use 'exact' or 'stencil'")
    if grid.n < 3:
        raise GridTooSmall("chart residuals need at least a 3x3 grid")
    dwbar = _chart_dwbar_exact if method == "exact" else _chart_dwbar_central
    rp, rm = (float(r.max()) for r in dwbar(grid, _kept(grid, _sphere_fields)))
    return rp, rm


@dataclass(frozen=True)
class IsotropyReport:
    """Residuals and verdicts for the five equivalent isotropy conditions.

    (a) (beta^1)^2 + (beta^2)^2 vanishes;
    (b)/(c) the two quadratic second-form identities;
    (d) theta-independence of the rotated shape operator's eigenvalues,
        tested through the two theta-dependent Fourier coefficients;
    (e) one twistor lift is constant, tested through the sup of the discrete
        gradient of each lift field, cross-checked against the closed-form
        coefficients of the lift derivatives.
    """

    res_a: float
    res_b: float
    res_c: float
    res_d: float
    res_e: float
    ok_a: bool
    ok_b: bool
    ok_c: bool
    ok_d: bool
    ok_e: bool
    consensus: Optional[bool]
    constant_lift: str          # '+', '-', 'both' or 'none'
    grad_plus: float
    grad_minus: float
    const_plus_residual: float
    const_minus_residual: float
    tol: float
    grad_threshold: float
    n: int

    def conditions(self):
        return (("a", self.res_a, self.ok_a), ("b", self.res_b, self.ok_b),
                ("c", self.res_c, self.ok_c), ("d", self.res_d, self.ok_d),
                ("e", self.res_e, self.ok_e))

    def as_dict(self) -> dict:
        return {
            "residuals": {k: r for k, r, _ in self.conditions()},
            "verdicts": {k: ok for k, _, ok in self.conditions()},
            "consensus": self.consensus,
            "isotropic": self.consensus,
            "constant_lift": self.constant_lift,
            "grad_plus": self.grad_plus,
            "grad_minus": self.grad_minus,
            "const_plus_residual": self.const_plus_residual,
            "const_minus_residual": self.const_minus_residual,
            "tol": self.tol,
            "grad_threshold": self.grad_threshold,
            "n": self.n,
        }


def _sup_gradient(M: np.ndarray, hu: float, hv: float) -> float:
    gu = np.abs(M[2:, 1:-1] - M[:-2, 1:-1]).max() / (2 * hu)
    gv = np.abs(M[1:-1, 2:] - M[1:-1, :-2]).max() / (2 * hv)
    return float(max(gu, gv))


def lift_gradient_sups(grid: FieldGrid):
    """Sup discrete gradient of each lift matrix field over the interior."""
    return tuple(_sup_gradient(M, grid.hu, grid.hv)
                 for M in _kept(grid, lift_matrix_fields))


def isotropy_fields(grid: FieldGrid):
    """Pointwise residuals of isotropy conditions (a)-(d) over a grid; their
    sup-norms are the residuals of isotropy_report."""
    b = grid.b
    b111, b112 = b[..., 0, 0, 0], b[..., 0, 0, 1]
    b211, b212 = b[..., 1, 0, 0], b[..., 1, 0, 1]
    # |theta-dependent Fourier coefficients| of the rotated shape operator
    cos_abs = np.abs(b111 ** 2 + b112 ** 2 - b211 ** 2 - b212 ** 2)
    sin_abs = np.abs(b111 * b211 + b112 * b212)
    res_a = np.abs(grid.beta1 ** 2 + grid.beta2 ** 2)
    res_b = np.maximum(np.abs(b111 ** 2 - b112 ** 2 + b211 ** 2 - b212 ** 2),
                       np.abs(b111 * b112 + b211 * b212))
    return (res_a, res_b, np.maximum(cos_abs, sin_abs),
            np.maximum(0.5 * cos_abs, sin_abs))


def isotropy_report(grid: FieldGrid, tol: float = 1e-6,
                    minimal_tol: float = 1e-8) -> IsotropyReport:
    """Evaluate the five isotropy conditions for a minimal surface in
    isothermal coordinates over a grid."""
    grid.require_isothermal()
    grid.require_minimal(minimal_tol)

    res_a, res_b, res_c, res_d = (float(f.max()) for f in isotropy_fields(grid))
    b = grid.b
    b111, b112, b122 = b[..., 0, 0, 0], b[..., 0, 0, 1], b[..., 0, 1, 1]
    b211, b212, b222 = b[..., 1, 0, 0], b[..., 1, 0, 1], b[..., 1, 1, 1]

    grad_plus, grad_minus = lift_gradient_sups(grid)
    u0, u1, v0, v1 = grid.domain
    diam = math.hypot(u1 - u0, v1 - v0)
    grad_threshold = tol / diam

    const_plus = float(np.maximum.reduce([
        np.abs(b111 - b212), np.abs(b111 + b122),
        np.abs(b222 - b112), np.abs(b222 + b211)]).max())
    const_minus = float(np.maximum.reduce([
        np.abs(b111 + b212), np.abs(b111 + b122),
        np.abs(b222 + b112), np.abs(b222 + b211)]).max())

    ok_a = res_a <= tol
    ok_b = res_b <= tol
    ok_c = res_c <= tol
    ok_d = res_d <= tol
    plus_const = grad_plus <= grad_threshold
    minus_const = grad_minus <= grad_threshold
    ok_e = plus_const or minus_const
    res_e = min(grad_plus, grad_minus)

    if plus_const and minus_const:
        which = "both"
    elif ok_e:
        which = "+" if const_plus <= const_minus else "-"
    else:
        which = "none"

    votes = (ok_a, ok_b, ok_c, ok_d, ok_e)
    consensus = votes[0] if all(v == votes[0] for v in votes) else None

    return IsotropyReport(res_a, res_b, res_c, res_d, res_e,
                          ok_a, ok_b, ok_c, ok_d, ok_e,
                          consensus, which, grad_plus, grad_minus,
                          const_plus, const_minus, tol, grad_threshold, grid.n)
