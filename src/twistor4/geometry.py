"""Pointwise and grid-level geometry of surfaces in E^4.

Pointwise quantities (fundamental forms, Christoffel symbols, frames, shape
operators, mean curvature vector, and the normal connection, which depends
only on F_u, F_v and a seed pair) are exact from the 2-jets, by one set of
array functions that a FieldGrid applies to its grid and surface_point_data
to one point; first_form, build_frame, second_form and the like are adapters
over them.  Only the structure-equation residuals (third order) come from
central differences of these fields, an O(h^2) error the tests measure.

A FieldGrid evaluates the whole pointwise apparatus on a rectangular sample
grid with a single smooth choice of normal frame whenever one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSeed,
    GridTooSmall,
    NotImmersed,
    NotIsothermal,
    NotMinimal,
    NumericError,
    SeedBranchFlip,
)
from .surface_expr import Jet2, SurfaceDef, eval_surface_jet, finite_mask, require_finite

__all__ = [
    "FALLBACK_SEEDS",
    "FirstForm",
    "Frame",
    "ShapeOperators",
    "NormalConnection",
    "SurfacePointData",
    "FieldGrid",
    "StructureResiduals",
    "jet_arrays",
    "first_form",
    "is_isothermal",
    "christoffel_tangential",
    "build_frame",
    "build_frame_auto",
    "second_form",
    "shape_operators",
    "mean_curvature",
    "normal_connection",
    "gauss_weingarten_matrices",
    "beta_gamma",
    "surface_point_data",
    "dwbar_field",
    "laplacian_field",
    "structure_residuals",
    "convergence_order",
]

_E = np.eye(4)

# Default tolerances (the CLI reports them in its JSON config): of g11, g22
# and det g; of a seed's projection norm; of |g11 - g22|, |g12| per mean g.
IMMERSION_TOL = 1e-12
SEED_TOL = 1e-6
ISOTHERMAL_TOL = 1e-8
# A batch of points (a grid, or one point) uses one seed pair throughout when
# both of its projections stay above this margin, well clear of SEED_TOL.
_BRANCH_MARGIN = 1e-2

# Normal-frame seed pairs, tried in order until both projections survive.
FALLBACK_SEEDS = (
    (_E[2], _E[3]),
    (_E[1], _E[3]),
    (_E[1], _E[2]),
    (_E[0], _E[3]),
    (_E[0], _E[2]),
    (_E[0], _E[1]),
)


@dataclass(frozen=True)
class FirstForm:
    g11: float
    g12: float
    g22: float

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 ** 2

    def matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal frame (t1, t2, n1, n2) with det [t1 t2 n1 n2] = +1.

    t1, t2 span the tangent plane.  seed_branch records which fallback seed
    pair produced the normals (None for caller-supplied seeds).
    """

    t1: np.ndarray
    t2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    seed_branch: Optional[int] = None


@dataclass(frozen=True, eq=False)
class ShapeOperators:
    a1: np.ndarray  # 2x2
    a2: np.ndarray  # 2x2


@dataclass(frozen=True)
class NormalConnection:
    gamma1: float
    gamma2: float


@dataclass(eq=False)
class SurfacePointData:
    """Everything pointwise at one parameter value."""

    u: float
    v: float
    jets: tuple
    form: FirstForm
    isothermal: bool
    alpha: Optional[float]
    frame: Frame
    second: np.ndarray        # b[k, i, j]
    shape: ShapeOperators
    christoffel: np.ndarray   # Gamma[k, i, j]
    H: np.ndarray
    connection: NormalConnection
    beta1: Optional[complex]
    beta2: Optional[complex]
    gamma: Optional[complex]


def _dot(a, b):
    return np.einsum("...c,...c->...", a, b)


def jet_arrays(jets):
    """Stack componentwise jets into six E^4 vectors (F, Fu, Fv, Fuu, Fuv,
    Fvv), each of shape (..., 4) over the points the jets were taken at."""
    shape = np.broadcast_shapes(*(np.shape(j.val) for j in jets))
    out = np.empty((6,) + shape + (len(jets),))
    for k, j in enumerate(jets):
        for m, x in enumerate(j.as_tuple()):
            out[m, ..., k] = x
    return tuple(out)


def _jet_fields(surface: SurfaceDef, u, v):
    """Stacked jet arrays of a surface over the points (u, v), from one
    evaluation, and the mask of the points where all of them are finite."""
    jets = eval_surface_jet(surface, u, v)
    return jet_arrays(jets), finite_mask(jets)


# --- array functions: one point or a whole grid (broadcasting over "...") ----

def _metric(Fu, Fv):
    """First fundamental form (g11, g12, g22) and det g.  Where products of
    finite jets overflow these are inf or nan, without a warning; det g is
    then not finite, whichever of them overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        g11, g12, g22 = _dot(Fu, Fu), _dot(Fu, Fv), _dot(Fv, Fv)
        return g11, g12, g22, g11 * g22 - g12 ** 2


def _require_finite_metric(det, u, v):
    """Raise NumericError at the first of the points (u, v) where det g, and
    so the metric, is not finite."""
    bad = ~np.isfinite(det)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        uu, vv = (float(np.broadcast_to(x, bad.shape).flat[i]) for x in (u, v))
        raise NumericError(f"the metric overflows at (u, v) = ({uu:g}, {vv:g}):"
                           f" g11, g12, g22 or det g is not finite")


def _immersed(g11, g22, det, tol):
    return (g11 > tol) & (g22 > tol) & (det > tol)


def _isothermal_mask(g11, g12, g22, tol):
    scale = 0.5 * (g11 + g22)
    return (np.abs(g11 - g22) <= tol * scale) & (np.abs(g12) <= tol * scale)


def _frames(Fu, Fv, pair):
    """Adapted frames: unit tangents, Gram-Schmidt of the seed pair off them,
    n2 negated where needed for det [t1 t2 n1 n2] = +1; plus the norms of the
    two seed projections, on which a seed is judged degenerate."""
    t1 = Fu / np.sqrt(_dot(Fu, Fu))[..., None]
    w = Fv - _dot(Fv, t1)[..., None] * t1
    t2 = w / np.sqrt(_dot(w, w))[..., None]
    s1, s2 = pair
    p1 = s1 - _dot(s1, t1)[..., None] * t1 - _dot(s1, t2)[..., None] * t2
    p1n = np.sqrt(_dot(p1, p1))
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = p1 / p1n[..., None]
        p2 = (s2 - _dot(s2, t1)[..., None] * t1 - _dot(s2, t2)[..., None] * t2
              - _dot(s2, n1)[..., None] * n1)
        p2n = np.sqrt(_dot(p2, p2))
        n2 = p2 / p2n[..., None]
        flip = np.linalg.det(np.stack([t1, t2, n1, n2], axis=-1)) < 0
    return Frame(t1, t2, n1, np.where(flip[..., None], -n2, n2)), p1n, p2n


def _seeded_frames(Fu, Fv, branch, tol, at=None) -> Frame:
    """Frames of seed branch `branch` or, when it is None, of the first
    fallback pair whose seed projections exceed _BRANCH_MARGIN at every point
    (a smooth frame field), else per point of the first whose projections
    exceed tol (seed_branch an array then).  Raises DegenerateSeed where the
    branch, or every pair, degenerates, at the first such point of at = (U, V)."""
    if branch is None:
        for k, pair in enumerate(FALLBACK_SEEDS):
            fr, p1n, p2n = _frames(Fu, Fv, pair)
            if min(p1n.min(), p2n.min()) > _BRANCH_MARGIN:
                return Frame(fr.t1, fr.t2, fr.n1, fr.n2, seed_branch=k)
    n1 = n2 = np.zeros(np.shape(Fu))
    got = np.full(np.shape(Fu)[:-1], -1)
    for k in range(len(FALLBACK_SEEDS)) if branch is None else [branch]:
        fr, p1n, p2n = _frames(Fu, Fv, FALLBACK_SEEDS[k])
        ok = (p1n > tol) & (p2n > tol) & (got < 0)
        n1 = np.where(ok[..., None], fr.n1, n1)
        n2 = np.where(ok[..., None], fr.n2, n2)
        got = np.where(ok, k, got)
        if (got >= 0).all():
            return Frame(fr.t1, fr.t2, n1, n2, seed_branch=(
                branch if branch is not None else got if got.ndim else int(got)))
    what = ("no seed pair works" if branch is None
            else f"seed branch {branch} degenerates")
    if at is not None:
        i = tuple(np.argwhere(got < 0)[0])
        what += " at (u, v) = ({:g}, {:g})".format(*(np.asarray(x)[i] for x in at))
    raise DegenerateSeed(what)


def _second_form(Fuu, Fuv, Fvv, n1, n2):
    """Second fundamental form b[..., k, i, j] = <F_ij, n_k>."""
    b = np.empty(np.shape(n1)[:-1] + (2, 2, 2))
    for k, nk in enumerate((n1, n2)):
        b[..., k, 0, 0] = _dot(Fuu, nk)
        b[..., k, 0, 1] = b[..., k, 1, 0] = _dot(Fuv, nk)
        b[..., k, 1, 1] = _dot(Fvv, nk)
    return b


def _mean_curvature(g11, g12, g22, det, b, n1, n2):
    """Mean curvature vector H = (tr(g^-1 b_1) n_1 + tr(g^-1 b_2) n_2) / 2."""
    tr1, tr2 = ((g22 * b[..., k, 0, 0] - 2 * g12 * b[..., k, 0, 1]
                 + g11 * b[..., k, 1, 1]) / det for k in (0, 1))
    return 0.5 * (tr1[..., None] * n1 + tr2[..., None] * n2)


def _christoffel(arrays, g11, g12, g22, det):
    """Christoffel symbols Gamma[..., k, i, j], solving for each F_ab the 2x2
    Gram system <F_ab, F_c> = sum_k Gamma^k_ab g_kc directly."""
    _, Fu, Fv, Fuu, Fuv, Fvv = arrays
    out = np.empty(np.shape(det) + (2, 2, 2))
    for i, j, Fab in ((0, 0, Fuu), (0, 1, Fuv), (1, 1, Fvv)):
        r1, r2 = _dot(Fab, Fu), _dot(Fab, Fv)
        out[..., 0, i, j] = out[..., 0, j, i] = (g22 * r1 - g12 * r2) / det
        out[..., 1, i, j] = out[..., 1, j, i] = (g11 * r2 - g12 * r1) / det
    return out


def _connection(s1, frame: Frame, g11, g12, g22, det, b):
    """Normal connection (gamma_1, gamma_2), gamma_a = <d n_1/da, n_2>, exact
    from the 2-jet for a frame whose n_1 was built from the seed s1.

    n_1 = p_1/|p_1|, p_1 = s_1 - <s_1,t_1> t_1 - <s_1,t_2> t_2, so
    gamma_a = -(<s_1,t_1> <d_a t_1, n_2> + <s_1,t_2> <d_a t_2, n_2>)/|p_1|,
    with <d_a t_1, n_2> = b2_1a/|F_u|, <d_a t_2, n_2> = (b2_2a - <F_v,t_1>
    b2_1a/|F_u|)/|w| for w = F_v - <F_v,t_1> t_1, b2_ia = <F_ia, n_2>,
    |F_u|^2 = g11, <F_v,t_1> = g12/|F_u|, |w|^2 = det/g11, |p_1| = <s_1,n_1>.
    """
    g11, g12, det = (np.asarray(x)[..., None] for x in (g11, g12, det))
    fu = np.sqrt(g11)
    dt1 = b[..., 1, 0, :] / fu
    dt2 = (b[..., 1, 1, :] - g12 / fu * dt1) / np.sqrt(det / g11)
    gamma = -(_dot(s1, frame.t1)[..., None] * dt1
              + _dot(s1, frame.t2)[..., None] * dt2) / _dot(s1, frame.n1)[..., None]
    return gamma[..., 0], gamma[..., 1]


# --- pointwise adapters --------------------------------------------------------

def _point_form(g11, g12, g22, det, tol) -> FirstForm:
    if not _immersed(g11, g22, det, tol):
        raise NotImmersed(f"tangent vectors are dependent (g11={g11:g}, "
                          f"g22={g22:g}, det={det:g})")
    return FirstForm(float(g11), float(g12), float(g22))


def first_form(jets, tol: float = IMMERSION_TOL) -> FirstForm:
    """Induced metric coefficients; raises NotImmersed at degenerate points."""
    _, Fu, Fv, *_ = jet_arrays(jets)
    return _point_form(*_metric(Fu, Fv), tol)


def is_isothermal(form: FirstForm, tol: float = ISOTHERMAL_TOL) -> bool:
    return bool(_isothermal_mask(form.g11, form.g12, form.g22, tol))


def christoffel_tangential(jets, form: FirstForm) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] from the tangential projections."""
    return _christoffel(jet_arrays(jets), form.g11, form.g12, form.g22,
                        form.det)


def build_frame(jets, seeds, tol: float = SEED_TOL) -> Frame:
    """Orthonormal frame from unit tangents plus Gram-Schmidt on two seed
    vectors; the second normal is flipped if needed to make det = +1.

    Raises DegenerateSeed when a seed's projection off the previously built
    vectors has norm <= tol.
    """
    _, Fu, Fv, *_ = jet_arrays(jets)
    frame, p1n, p2n = _frames(Fu, Fv, seeds)
    if p1n <= tol:
        raise DegenerateSeed("first seed vector is tangent within tolerance")
    if p2n <= tol:
        raise DegenerateSeed("second seed vector degenerates within tolerance")
    return frame


def build_frame_auto(jets, tol: float = SEED_TOL) -> Frame:
    """Frame from the fallback seed pairs as a FieldGrid picks them (see
    _seeded_frames); records the branch used."""
    _, Fu, Fv, *_ = jet_arrays(jets)
    return _seeded_frames(Fu, Fv, None, tol)


def second_form(jets, frame: Frame) -> np.ndarray:
    """Second fundamental form components b[k, i, j] = <F_ij, n_k>."""
    _, _, _, Fuu, Fuv, Fvv = jet_arrays(jets)
    return _second_form(Fuu, Fuv, Fvv, frame.n1, frame.n2)


def shape_operators(form: FirstForm, second: np.ndarray) -> ShapeOperators:
    """A_k = g^{-1} b_k, self-adjoint with respect to the first form."""
    ginv = np.array([[form.g22, -form.g12], [-form.g12, form.g11]]) / form.det
    return ShapeOperators(ginv @ second[0], ginv @ second[1])


def mean_curvature(form: FirstForm, second: np.ndarray, frame: Frame) -> np.ndarray:
    """Mean curvature vector H = ((tr A_1) n_1 + (tr A_2) n_2) / 2."""
    return _mean_curvature(form.g11, form.g12, form.g22, form.det, second,
                           frame.n1, frame.n2)


def normal_connection(surface: SurfaceDef, u: float, v: float,
                      seeds: Optional[int] = None) -> NormalConnection:
    """Normal connection coefficients gamma_a = <d n_1 / da, n_2> at (u, v),
    exact from the 2-jet; seeds pins the seed branch of the normals."""
    return surface_point_data(surface, u, v, seed_branch=seeds).connection


def gauss_weingarten_matrices(pd: SurfacePointData):
    """Coefficient matrices S1, S2 of the combined frame derivative:
    d/du (F_u, F_v, n1, n2) = (F_u, F_v, n1, n2) S1 and likewise S2 for d/dv.
    """
    A = np.stack([pd.shape.a1, pd.shape.a2])
    gam = np.array([pd.connection.gamma1, pd.connection.gamma2])
    S = np.zeros((2, 4, 4))                           # S1, S2
    S[:, :2, :2] = pd.christoffel.transpose(2, 0, 1)  # S[j, k, i] = G[k, i, j]
    S[:, :2, 2:] = -A.transpose(2, 1, 0)              # S[j, i, 2+k] = -A_k[i, j]
    S[:, 2:, :2] = pd.second.transpose(2, 0, 1)       # S[j, 2+k, i] = b[k, i, j]
    S[:, 2, 3], S[:, 3, 2] = -gam, gam
    return S[0], S[1]


def beta_gamma(pd: SurfacePointData):
    """Complexified second-form and connection coefficients at an isothermal
    point: beta^k = (b^k_11 - i b^k_12)/2 and gamma = (gamma_1 + i gamma_2)/2."""
    if not pd.isothermal:
        raise NotIsothermal("beta and gamma are defined at isothermal points only")
    return pd.beta1, pd.beta2, pd.gamma


def surface_point_data(surface: SurfaceDef, u: float, v: float, *,
                       seed_branch: Optional[int] = None,
                       isothermal_tol: float = ISOTHERMAL_TOL) -> SurfacePointData:
    """All pointwise geometry at (u, v), normal connection included, exact
    from the 2-jet by the array functions of a FieldGrid, with one jet
    evaluation of the point and four isothermality probes 1e-3 of the larger
    domain extent away.  seed_branch pins the normals' seed pair
    (DegenerateSeed where it degenerates); without it they are chosen as
    for a grid."""
    u0, u1, v0, v1 = surface.domain
    d = 1e-3 * max(u1 - u0, v1 - v0)
    pu = np.concatenate([[u], np.clip([u - d, u + d], u0, u1), [u, u]])
    pv = np.concatenate([[v, v, v], np.clip([v - d, v + d], v0, v1)])
    arrays, ok = _jet_fields(surface, pu, pv)
    require_finite(surface.components, ok[:1], pu[:1], pv[:1])
    point = tuple(a[0] for a in arrays)
    _, Fu, Fv, Fuu, Fuv, Fvv = point
    g = _metric(arrays[1], arrays[2])
    g0 = tuple(x[0] for x in g)
    _require_finite_metric(g0[3], u, v)
    form = _point_form(*g0, IMMERSION_TOL)
    # The probes must be isothermal too, lest a pointwise coincidence g11 = g22
    # pass for isothermal coordinates; undefined, overflowing or non-immersed
    # ones are skipped.
    probes = ok & np.isfinite(g[3]) & _immersed(g[0], g[2], g[3], IMMERSION_TOL)
    iso = bool(_isothermal_mask(*(x[probes] for x in g[:3]),
                                isothermal_tol).all())
    frame = _seeded_frames(Fu, Fv, seed_branch, SEED_TOL, (u, v))
    b = _second_form(Fuu, Fuv, Fvv, frame.n1, frame.n2)
    conn = NormalConnection(*map(float, _connection(
        FALLBACK_SEEDS[frame.seed_branch][0], frame, *g0, b)))
    alpha = 0.5 * math.log(form.g11) if iso else None
    beta1 = beta2 = gamma = None
    if iso:
        beta1 = 0.5 * (b[0, 0, 0] - 1j * b[0, 0, 1])
        beta2 = 0.5 * (b[1, 0, 0] - 1j * b[1, 0, 1])
        gamma = 0.5 * (conn.gamma1 + 1j * conn.gamma2)
    jets = tuple(Jet2(*(a[k] for a in point)) for k in range(4))
    return SurfacePointData(u, v, jets, form, iso, alpha,
                            frame, b, shape_operators(form, b),
                            _christoffel(point, *g0),
                            _mean_curvature(*g0, b, frame.n1, frame.n2),
                            conn, beta1, beta2, gamma)


# --- grids -------------------------------------------------------------------

class FieldGrid:
    """Pointwise-exact fields sampled on an n x n rectangular grid.

    The normal frame uses one seed pair for the whole grid (branch_uniform
    True): seed_branch when given, else the first fallback pair whose
    projections stay above _BRANCH_MARGIN everywhere; when no pair does, each
    point falls back independently and frame-derivative quantities are
    refused.
    """

    def __init__(self, surface: SurfaceDef, n: int, domain=None, *,
                 seed_branch: Optional[int] = None):
        if n < 3:
            raise GridTooSmall(f"need at least a 3x3 grid, got n={n}")
        self.surface = surface
        self.n = n
        u0, u1, v0, v1 = domain if domain is not None else surface.domain
        self.domain = (float(u0), float(u1), float(v0), float(v1))
        self.us = np.linspace(u0, u1, n)
        self.vs = np.linspace(v0, v1, n)
        self.hu = float(self.us[1] - self.us[0])
        self.hv = float(self.vs[1] - self.vs[0])

        U, V = np.meshgrid(self.us, self.vs, indexing="ij")
        arrays, ok = _jet_fields(surface, U, V)
        require_finite(surface.components, ok, U, V)
        self.F, self.Fu, self.Fv, self.Fuu, self.Fuv, self.Fvv = arrays

        self.g11, self.g12, self.g22, self.det = g = _metric(self.Fu, self.Fv)
        _require_finite_metric(self.det, U, V)
        if np.min(self.det) <= IMMERSION_TOL or np.min(self.g11) <= IMMERSION_TOL:
            i, j = np.unravel_index(np.argmin(self.det), self.det.shape)
            raise NotImmersed(
                f"degenerate point at (u, v) = ({self.us[i]:g}, {self.vs[j]:g})")

        self.isothermal_mask = _isothermal_mask(self.g11, self.g12, self.g22,
                                                ISOTHERMAL_TOL)
        self.isothermal = bool(self.isothermal_mask.all())
        self.e2a = self.g11
        self.alpha = 0.5 * np.log(self.g11) if self.isothermal else None

        fr = _seeded_frames(self.Fu, self.Fv, seed_branch, SEED_TOL, (U, V))
        self.seed_branch = fr.seed_branch
        self.branch_uniform = np.ndim(fr.seed_branch) == 0
        self.t1, self.t2, self.n1, self.n2 = fr.t1, fr.t2, fr.n1, fr.n2
        b = _second_form(self.Fuu, self.Fuv, self.Fvv, self.n1, self.n2)
        self.b = b
        self.H = _mean_curvature(*g, b, self.n1, self.n2)
        self.H_norm = np.sqrt(_dot(self.H, self.H))

        self.psi = 0.5 * (self.Fu - 1j * self.Fv)
        self.beta1 = 0.5 * (b[..., 0, 0, 0] - 1j * b[..., 0, 0, 1])
        self.beta2 = 0.5 * (b[..., 1, 0, 0] - 1j * b[..., 1, 0, 1])

    def sup_H(self) -> float:
        return float(self.H_norm.max())

    def require_isothermal(self):
        if not self.isothermal:
            i, j = np.unravel_index(
                np.argmax(np.abs(self.g11 - self.g22) + np.abs(self.g12)),
                self.g11.shape)
            raise NotIsothermal(
                f"coordinates are not isothermal, e.g. at "
                f"(u, v) = ({self.us[i]:g}, {self.vs[j]:g})")

    def require_minimal(self, tol: float = 1e-8):
        if self.sup_H() > tol:
            raise NotMinimal(f"sup |H| = {self.sup_H():g} exceeds {tol:g}")

    def gamma_fields(self):
        """Normal connection coefficients on the interior, exact from the
        2-jet by the pointwise formula.  Needs one smooth frame branch, since
        the structure residuals differentiate these fields."""
        if not self.branch_uniform:
            raise SeedBranchFlip(
                "no single seed branch covers the grid; frame-derivative "
                "fields are not available")
        for arr in (self.n1, self.n2):
            if (_dot(arr[1:], arr[:-1]).min() <= 0.0
                    or _dot(arr[:, 1:], arr[:, :-1]).min() <= 0.0):
                raise SeedBranchFlip("frame field is discontinuous on the grid")
        g1, g2 = _connection(FALLBACK_SEEDS[self.seed_branch][0],
                             Frame(self.t1, self.t2, self.n1, self.n2),
                             self.g11, self.g12, self.g22, self.det, self.b)
        return g1[1:-1, 1:-1], g2[1:-1, 1:-1]


# --- finite-difference operators on grid fields ------------------------------

def dwbar_field(f: np.ndarray, hu: float, hv: float) -> np.ndarray:
    """(d/du + i d/dv)/2 of a field by central differences; interior values."""
    return 0.5 * ((f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * hu)
                  + 1j * (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * hv))


def laplacian_field(f: np.ndarray, hu: float, hv: float) -> np.ndarray:
    return ((f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / hu ** 2
            + (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / hv ** 2)


@dataclass(frozen=True)
class StructureResiduals:
    """Sup-norms of the structure-equation residuals on a grid."""

    gauss: float
    codazzi1: float
    codazzi2: float
    ricci: float
    beta_sq_holo: float  # d/dwbar of (beta^1)^2 + (beta^2)^2
    n: int
    hu: float
    hv: float

    def as_dict(self) -> dict:
        return {
            "gauss": self.gauss,
            "codazzi1": self.codazzi1,
            "codazzi2": self.codazzi2,
            "ricci": self.ricci,
            "beta_sq_holo": self.beta_sq_holo,
        }


def structure_residuals(grid: FieldGrid, minimal_tol: float = 1e-8) -> StructureResiduals:
    """Residual sup-norms of the Gauss, Codazzi and Ricci equations plus the
    holomorphicity of (beta^1)^2 + (beta^2)^2, for a minimal surface in
    isothermal coordinates.

    All derivative operators are central differences of pointwise-exact
    fields, so each residual decays like h^2 under grid refinement.
    """
    if grid.n < 5:
        raise GridTooSmall("structure residuals need at least a 5x5 grid")
    grid.require_isothermal()
    grid.require_minimal(minimal_tol)

    hu, hv = grid.hu, grid.hv
    inner = np.s_[1:-1, 1:-1]
    inner2 = np.s_[2:-2, 2:-2]

    e2a = grid.e2a
    lap_alpha = laplacian_field(grid.alpha, hu, hv)
    rhs = 4.0 / e2a[inner] * (np.abs(grid.beta1[inner]) ** 2
                              + np.abs(grid.beta2[inner]) ** 2)
    gauss = float(np.abs(lap_alpha - rhs).max())

    g1, g2 = grid.gamma_fields()
    gamma = 0.5 * (g1 + 1j * g2)
    cod1 = dwbar_field(grid.beta1, hu, hv) - grid.beta2[inner] * gamma
    cod2 = dwbar_field(grid.beta2, hu, hv) + grid.beta1[inner] * gamma
    codazzi1 = float(np.abs(cod1).max())
    codazzi2 = float(np.abs(cod2).max())

    dgamma = np.conj(dwbar_field(np.conj(gamma), hu, hv))  # d/dw gamma
    ricci_term = (2.0 / e2a[inner2] * grid.beta1[inner2]
                  * np.conj(grid.beta2[inner2]))
    ricci = float(np.abs(np.imag(dgamma + ricci_term)).max())

    beta_sq = grid.beta1 ** 2 + grid.beta2 ** 2
    beta_sq_holo = float(np.abs(dwbar_field(beta_sq, hu, hv)).max())

    return StructureResiduals(gauss, codazzi1, codazzi2, ricci, beta_sq_holo,
                              grid.n, hu, hv)


def convergence_order(coarse: float, fine: float,
                      floor: float = 1e-12) -> Optional[float]:
    """Observed order log2(coarse/fine) for residuals at h and h/2.

    Returns None when both values sit at the roundoff floor (the residual is
    exactly zero in theory, so no order can be measured).
    """
    if max(coarse, fine) <= floor:
        return None
    if fine == 0.0:
        return math.inf
    return math.log2(coarse / fine)
