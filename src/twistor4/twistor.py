"""Twistor lifts and Gauss maps of surfaces in E^4.

At an isothermal point, psi = dF/dw packs the whole tangent plane into four
complex numbers; quadratic combinations of psi produce the sphere coordinates
of the two twistor lifts, both at once: a field of both lifts is one stack
whose leading axis holds chirality eps at (1 - eps) // 2.  Independently, the
lifts are wedge expressions t1 ^ t2 + eps n1 ^ n2 in any positively oriented
adapted frame; both routes must agree, which the tests exploit.  Stereographic
charts g+/g- of the lift spheres are holomorphic (respectively antiholomorphic)
exactly when the surface is minimal, and a minimal surface is isotropic
precisely when one of the lifts is constant; the five equivalent
characterizations are evaluated as residual fields over a grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .complex_structures import (
    OrthogonalComplexStructure,
    _compose_ocs,
    classify_ocs,
)
from .errors import (
    GridTooSmall,
    NonUnitCoords,
    NotIsothermal,
    PoleOfChart,
)
from .geometry import (ISOTHERMAL_TOL, FieldGrid, Frame, SurfacePointData, _dot,
                       dwbar_field)
from .linalg4 import CHIRALITIES, DERIVED_TOL, _I_STACKS, pair_coords, wedge

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
    "lift_agreement_residual",
    "lift_gradient_sups",
    "chart_residuals",
    "isotropy_fields",
    "isotropy_report",
]

# Default tolerance of the five isotropy residuals (isotropy --tol).
ISOTROPY_TOL = 1e-6
# eps over the leading axis of a (2, ...) stack of both lifts
_EPS = np.reshape(CHIRALITIES, (2, 1, 1))
# IsotropyReport.constant_lift, keyed by the (e) flags of the + and - lifts
_CONSTANT_LIFT = {(True, True): "both", (True, False): "+", (False, True): "-",
                  (False, False): "none"}


def psi(jets) -> np.ndarray:
    """psi^i = (df^i/du - i df^i/dv) / 2, a complex 4-vector."""
    return np.array([0.5 * (j.du - 1j * j.dv) for j in jets])


def big_psi(ps, eps: int) -> np.ndarray:
    """Quadratic lift components Psi_eps, the slice (1 - eps) // 2 of
    pair_coords(psi, conj(psi)); broadcasts over trailing axes of ps[4, ...].

    Psi^1 = psi^1 conj(psi^2) - psi^2 conj(psi^1)
            + eps (psi^3 conj(psi^4) - psi^4 conj(psi^3)),
    and likewise Psi^2, Psi^3 following the bivector basis pattern.
    """
    return pair_coords(ps, np.conj(ps))[(1 - eps) // 2]


def _sphere_pair(ps, e2a) -> np.ndarray:
    """Unit sphere coordinates -2i Psi / e2a of both lifts, (2, 3, ...): real
    by construction (each Psi component is a difference of conjugates)."""
    return np.real(-2j * pair_coords(ps, np.conj(ps)) / np.asarray(e2a))


def sphere_coords(ps, e2a, eps: int) -> np.ndarray:
    """Unit sphere coordinates -2i Psi_eps / e2a of the lift of chirality eps."""
    return _sphere_pair(ps, e2a)[(1 - eps) // 2]


def lift_isothermal(ps, e2a: float, eps: int) -> OrthogonalComplexStructure:
    """Twistor lift from psi at an isothermal point."""
    ps = np.asarray(ps)
    if not abs(np.sum(ps * ps)) <= ISOTHERMAL_TOL * e2a:
        raise NotIsothermal(
            "sum (psi^i)^2 does not vanish; the point is not isothermal")
    c = sphere_coords(ps, e2a, eps)
    try:
        return _compose_ocs(eps, c, DERIVED_TOL)
    except NonUnitCoords as exc:
        raise NonUnitCoords(f"lift coordinates are not unit: {exc}") from None


def lift_matrix(t1, t2, n1, n2, eps: int) -> np.ndarray:
    """t1 ^ t2 + eps n1 ^ n2, of shape (4, 4, ...) for vectors t1[4, ...]
    etc.; an array eps[e, 1, 1, 1...] stacks the lifts over e (see _EPS)."""
    return wedge(t1, t2) + eps * wedge(n1, n2)


def lift_frame(frame: Frame, eps) -> OrthogonalComplexStructure:
    """Twistor lift from a positively oriented adapted frame; eps as in lift_matrix."""
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


def chart(c) -> ChartValue:
    """Stereographic chart of unit vectors c[3, ...] on S^2.

    A single vector gives a complex value and a bool; a field of vectors
    gives arrays of both over its trailing axes.
    """
    c1, c2, c3 = np.asarray(c, float)
    norm = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    unit = np.abs(norm - 1.0) <= DERIVED_TOL
    if not unit.all():
        raise NonUnitCoords(f"|c| = {np.ravel(norm)[~np.ravel(unit)][0]!r} is not 1")
    den = 1.0 - c3
    antipode = den <= DERIVED_TOL
    # the chosen projection's denominator is at least DERIVED_TOL, or about 2
    value = (c1 + 1j * c2) / np.where(antipode, 1.0 + c3, den)
    if value.ndim == 0:
        return ChartValue(complex(value), bool(antipode))
    return ChartValue(value, antipode)


def inverse_chart(g) -> np.ndarray:
    """Sphere point of a chart value: for g = a + ib in the standard chart,
    c = (2a, 2b, a^2 + b^2 - 1) / (a^2 + b^2 + 1); antipodal chart flips c3."""
    value, antipode = ((g.value, g.antipode) if isinstance(g, ChartValue)
                       else (complex(g), False))
    a, b = value.real, value.imag
    r2 = a * a + b * b
    c = np.array([2 * a, 2 * b, r2 - 1.0]) / (r2 + 1.0)
    if antipode:
        c[2] = -c[2]
    return c


def g_plus_closed_form(ps) -> complex:
    """Closed form of the plus chart directly from psi at one point;
    raises PoleOfChart at the chart pole (see g_plus_closed_field)."""
    g = g_plus_closed_field(ps)
    if np.isnan(g):
        raise PoleOfChart("plus lift is at the chart pole (c3 = 1)")
    return complex(g)


def g_plus_closed_field(psi_field) -> np.ndarray:
    """Closed form of the plus chart from psi[4, ...]; NaN at chart poles.

    Two algebraically equivalent branches exist,

        g+ = (psi^1 + i psi^4) / (i (psi^2 - i psi^3))
           = i (psi^2 + i psi^3) / (psi^1 - i psi^4);

    the one with the larger denominator modulus is used.  Both denominators
    vanish together exactly at the chart pole c+3 = 1.
    """
    ps = np.asarray(psi_field)
    p1, p2, p3, p4 = ps
    d1 = p2 - 1j * p3
    d2 = p1 - 1j * p4
    scale = np.sum(np.abs(ps) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        branch1 = (p1 + 1j * p4) / (1j * d1)
        branch2 = 1j * (p2 + 1j * p3) / d2
    out = np.where(np.abs(d1) >= np.abs(d2), branch1, branch2)
    pole = np.abs(d1) ** 2 + np.abs(d2) ** 2 <= DERIVED_TOL * scale
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
    """The pair of twistor lifts of the oriented tangent plane at a point,
    classified and charted as one stack of the two lift matrices."""
    both = lift_frame(pd.frame, _EPS)
    g = chart(both.coords.T)
    return LiftPoint(*map(OrthogonalComplexStructure, both.matrix,
                          both.chirality.tolist(), both.coords),
                     *map(ChartValue, g.value.tolist(), g.antipode.tolist()))


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
    return float(np.abs(dwbar_field(field, hu, hu if hv is None else hv)).max())


# --- grid-level lift machinery ------------------------------------------------

def _kept(grid: FieldGrid, make):
    """make(grid), a field of both lifts built once per grid and kept on it,
    read-only; a module-level cache would keep every grid alive."""
    kept = vars(grid).setdefault("_kept", {})
    if make not in kept:
        kept[make] = make(grid)
        kept[make].flags.writeable = False
    return kept[make]


def _sphere_fields(grid: FieldGrid):
    grid.require_isothermal()
    return _sphere_pair(grid.psi, grid.e2a)


def lift_sphere_fields(grid: FieldGrid):
    """Sphere coordinates c[(1 - eps) // 2, k, i, j] of both lifts over a
    grid (isothermal required), built once per grid."""
    return _kept(grid, _sphere_fields)


def lift_agreement_residual(grid: FieldGrid) -> float:
    """Sup distance between the psi-based and the frame-based lift, both
    chiralities, over all grid points.  The frame-based lift matrices work
    regardless of per-point seed branches; they are built on each call and
    not kept on the grid."""
    by_frame = lift_matrix(grid.t1, grid.t2, grid.n1, grid.n2, _EPS[..., None, None])
    return float(np.abs(np.einsum("ek...,ekij->eij...", _kept(grid, _sphere_fields),
                                  _I_STACKS) - by_frame).max())


def _lift_derivatives(grid: FieldGrid):
    """dc[(1 - eps) // 2, k, a, ...] = d c_k / d(u, v)_a of the sphere
    coordinates of both lifts at every node, by forward mode over the 2-jet
    (no truncation error).

    psi_u = (F_uu - i F_uv)/2, psi_v = (F_uv - i F_vv)/2 and
    (e2a)_a = 2 <F_u, F_ua>.  For B(p, q) = pair_coords(p, conj(q))[e],
    Psi = B(psi, psi) is sesquilinear in psi and
    B(psi, d psi) = -conj(B(d psi, psi)), so Re(-2i d Psi) = 4 Im B(d psi, psi)
    and dc = 4 Im B(d psi, psi) / e2a - c d(e2a) / e2a.
    """
    Fu, Fuu, Fuv, Fvv, e2a = grid.Fu, grid.Fuu, grid.Fuv, grid.Fvv, grid.e2a
    dpsi = 0.5 * np.stack([Fuu - 1j * Fuv, Fuv - 1j * Fvv], axis=1)
    dlog_e2a = 2.0 * np.stack([_dot(Fu, Fuu), _dot(Fu, Fuv)]) / e2a
    return (4.0 * np.imag(pair_coords(dpsi, np.conj(grid.psi))) / e2a
            - _kept(grid, _sphere_fields)[:, :, None] * dlog_e2a)


def chart_residuals(grid: FieldGrid):
    """Holomorphicity residuals (sup |d/dwbar|) of g+ and of conj(g-).

    Every node is evaluated in whichever chart covers it: the standard one
    where c3 <= 0, the antipodal one where c3 > 0.  Swapping charts replaces
    the holomorphic function by its reciprocal, so the residual keeps
    testing the same statement on the pole's chart too.

    g+- depend only on F_u and F_v, so their first derivatives are
    second-order quantities that the 2-jet holds exactly; they are pushed
    through the sphere coordinates and the chart, with no truncation error.
    """
    # components first, both lifts after: c_k[e, ...], dc_k[a, e, ...]
    c1, c2, c3 = _kept(grid, _sphere_fields).swapaxes(0, 1)
    dc1, dc2, dc3 = np.moveaxis(_kept(grid, _lift_derivatives), (1, 2), (0, 1))
    # s = +1: standard chart g = z / (1 - c3); s = -1: antipodal chart.
    s = np.where(c3 <= 0.0, 1.0, -1.0)
    den = 1.0 - s * c3
    g = (c1 + 1j * c2) / den
    gu, gv = (dc1 + 1j * dc2 + s * g * dc3) / den
    # g+ is holomorphic in the standard chart, g- antiholomorphic, and the
    # antipodal chart swaps the two: d/dwbar of conj(g) is conj(dg/dw).
    return tuple((0.5 * np.abs(gu + 1j * (s * _EPS) * gv).max(axis=(1, 2))).tolist())


@dataclass(frozen=True, eq=False)  # eq=True would add a __hash__ that raises on dicts
class IsotropyReport:
    """Residuals and verdicts for the five equivalent isotropy conditions,
    as two dicts keyed "a".."e" in this order:

    (a) (beta^1)^2 + (beta^2)^2 vanishes;
    (b)/(c) the two quadratic second-form identities;
    (d) theta-independence of the rotated shape operator's eigenvalues,
        tested through the two theta-dependent Fourier coefficients;
    (e) one twistor lift is constant, tested through the sup over every
        node of the Euclidean norm of each lift's exact gradient
        (lift_gradient_sups), cross-checked against the closed-form
        coefficients of the lift derivatives, sup |2(beta^1 -+ i beta^2)|
        (const_plus_residual, const_minus_residual): rotating the normal
        frame by theta multiplies beta^1 -+ i beta^2 by exp(-+i theta), so
        their moduli do not change.
    """

    residuals: dict
    verdicts: dict
    consensus: Optional[bool]
    constant_lift: str          # lifts passing (e): '+', '-', 'both' or 'none'
    grad_plus: float
    grad_minus: float
    const_plus_residual: float
    const_minus_residual: float
    tol: float
    grad_threshold: float
    n: int

    def conditions(self):
        return tuple((k, r, self.verdicts[k]) for k, r in self.residuals.items())

    def as_dict(self) -> dict:
        """The fields, with fresh copies of the two dicts, and "isotropic"
        (the consensus again) right after "consensus"."""
        items = list(asdict(self).items())
        return dict(items[:3] + [("isotropic", self.consensus)] + items[3:])


def lift_gradient_sups(grid: FieldGrid):
    """Sup over every node of the Euclidean norms |dc/du| and |dc/dv| of
    the sphere coordinates c of each lift (isothermal required), exact from
    the 2-jet.  A rotation of the surface in E^4 rotates each lift's c in
    R^3, so the sups do not depend on the surface's orientation."""
    dc1, dc2, dc3 = _kept(grid, _lift_derivatives).swapaxes(0, 1)
    return tuple(np.hypot(np.hypot(dc1, dc2), dc3).reshape(2, -1).max(1).tolist())


def isotropy_fields(grid: FieldGrid):
    """Pointwise residuals of isotropy conditions (a)-(d) over a grid; their
    sup-norms are the residuals of isotropy_report."""
    (b111, b112), (b211, b212) = grid.b[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # b's squares may overflow
        # |theta-dependent Fourier coefficients| of the rotated shape operator
        cos_abs = np.abs(b111 ** 2 + b112 ** 2 - b211 ** 2 - b212 ** 2)
        sin_abs = np.abs(b111 * b211 + b112 * b212)
        res_a = np.abs(grid.beta1 ** 2 + grid.beta2 ** 2)
        res_b = np.maximum(np.abs(b111 ** 2 - b112 ** 2 + b211 ** 2 - b212 ** 2),
                           np.abs(b111 * b112 + b211 * b212))
    return (res_a, res_b, np.maximum(cos_abs, sin_abs),
            np.maximum(0.5 * cos_abs, sin_abs))


def isotropy_report(grid: FieldGrid, tol: float = ISOTROPY_TOL) -> IsotropyReport:
    """Evaluate the five isotropy conditions for a minimal surface in
    isothermal coordinates over a grid."""
    grid.require_isothermal()
    grid.require_minimal()

    res = {k: float(f.max()) for k, f in zip("abcd", isotropy_fields(grid))}
    ok = {k: r <= tol for k, r in res.items()}

    grad_plus, grad_minus = lift_gradient_sups(grid)
    u0, u1, v0, v1 = grid.domain
    # tol over the diagonal, halved on both sides: exact where the diagonal
    # is finite and still finite where it overflows
    grad_threshold = (tol / 2) / math.hypot((u1 - u0) / 2, (v1 - v0) / 2)

    const_plus, const_minus = (float(np.abs(2 * (grid.beta1 + s * grid.beta2)).max())
                               for s in (-1j, 1j))

    plus_const = grad_plus <= grad_threshold
    minus_const = grad_minus <= grad_threshold
    res["e"], ok["e"] = min(grad_plus, grad_minus), plus_const or minus_const
    which = _CONSTANT_LIFT[plus_const, minus_const]

    consensus = ok["a"] if len(set(ok.values())) == 1 else None

    return IsotropyReport(res, ok, consensus, which, grad_plus, grad_minus,
                          const_plus, const_minus, tol, grad_threshold, grid.n)
