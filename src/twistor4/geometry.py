"""Pointwise and grid-level geometry of surfaces in E^4.

Pointwise quantities (fundamental forms, Christoffel symbols, frames, shape
operators, mean curvature vector, and the normal connection, which depends
only on F_u, F_v and a seed) are exact from the 2-jets, by one set of
array functions that a FieldGrid applies to its grid and surface_point_data
to one point; first_form, second_form and the like are adapters over
them.  Only the structure-equation residuals (third order) come from
central differences of these fields, an O(h^2) error the tests measure.

Fields are component-major, so that inner products and minors run over
contiguous slices: E^4 vectors over points have shape (4, ...), b and the
Christoffel symbols (2, 2, 2, ...); at one point, (4,) and (2, 2, 2).

A FieldGrid evaluates the whole pointwise apparatus on a rectangular sample
grid with a single smooth choice of normal frame whenever one exists.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSeed,
    ExpressionError,
    GridTooSmall,
    NotImmersed,
    NotIsothermal,
    NotMinimal,
    NumericError,
    SeedBranchFlip,
)
from .linalg4 import E4
from .surface_expr import Jet2, SurfaceDef, eval_surface_jet, require_finite

__all__ = [
    "SEEDS",
    "FirstForm",
    "Frame",
    "ShapeOperators",
    "NormalConnection",
    "SurfacePointData",
    "FieldGrid",
    "grid_size_fits",
    "StructureResiduals",
    "jet_arrays",
    "first_form",
    "build_frame_auto",
    "second_form",
    "shape_operators",
    "mean_curvature",
    "normal_connection",
    "gauss_weingarten_matrices",
    "surface_point_data",
    "dwbar_field",
    "laplacian_field",
    "structure_residuals",
    "convergence_order",
]

# Default tolerances, reported in the CLI's JSON config, of: det g/(g11 g22);
# a seed's |p1|; |g11 - g22|, |g12| per mean g; sup |H| of a minimal surface.
IMMERSION_TOL = 1e-12
SEED_TOL = 1e-6
ISOTHERMAL_TOL = 1e-8
MINIMAL_TOL = 1e-8
# A batch of points (a grid, or one point) uses one seed throughout when
# its projection |p1| stays above this margin, well clear of SEED_TOL.
_BRANCH_MARGIN = 1e-2

# Normal-frame seeds, tried in order: seed branch k is the axis SEEDS[k] of
# E^4 (e3, e2, e1).  Some seed always works: the squared projections of e1,
# e2, e3 onto a tangent plane T sum to at most dim T = 2, so their projections
# p1 off T have squared norms summing to at least 1, and max |p1| >= 1/sqrt(3).
SEEDS = (2, 1, 0)


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

    t1, t2 span the tangent plane.  seed_branch records which seed of SEEDS
    produced the normals (None for a frame built by hand).
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
    H_norm: float
    connection: NormalConnection
    beta1: Optional[complex]
    beta2: Optional[complex]
    gamma: Optional[complex]


def _dot(a, b):
    """Inner products of E^4 vectors a[4, ...] and b[4, ...] over "...", each
    summed in component order from +0.0, so that a point's is bitwise its
    value on a grid (einsum sums a contiguous 4-vector pairwise)."""
    if a.ndim == 1:
        return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    return np.einsum("c...,c...->...", a, b)


def jet_arrays(jets):
    """Stack componentwise jets into one (6, 4, ...) array: six E^4 vectors
    (F, Fu, Fv, Fuu, Fuv, Fvv) over the points the jets were taken at."""
    shape = np.broadcast(*(j.val for j in jets)).shape
    out = np.empty((6, len(jets)) + shape)
    for k, j in enumerate(jets):
        for m, x in enumerate(j.as_tuple()):
            out[m, k] = x
    return out


def _jet_fields(surface: SurfaceDef, u, v):
    """Stacked jet arrays of a surface over the points (u, v), from one
    evaluation, and the mask of the points where all of them are finite."""
    arrays = jet_arrays(eval_surface_jet(surface, u, v))
    return arrays, np.isfinite(arrays).all(axis=(0, 1))


# --- array functions: one point or a whole grid (broadcasting over "...") ----

def _metric(Fu, Fv):
    """First fundamental form (g11, g12, g22) and det g.  Where products of
    finite jets overflow these are inf or nan, without a warning; det g is
    then not finite, whichever of them overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        g11, g12, g22 = _dot(Fu, Fu), _dot(Fu, Fv), _dot(Fv, Fv)
        return g11, g12, g22, g11 * g22 - g12 ** 2


def _require_finite(u, v, layer, fields):
    """Raise NumericError where one of the fields {name: array over the
    points (u, v), maybe with leading axes} is not finite: at the first such
    point of the first such field, naming both."""
    for name, x in fields.items():
        finite = np.isfinite(x)
        if not finite.all():
            bad = ~finite.reshape((-1,) + np.shape(u)).all(axis=0)
            i = np.flatnonzero(bad)[0]
            uu, vv = (float(np.ravel(w)[i]) for w in (u, v))
            raise NumericError(f"the {layer} overflows at (u, v) = "
                               f"({uu:g}, {vv:g}): {name} is not finite")


def _immersed(g11, g22, det):
    # sin^2 of the angle of F_u, F_v: scale-free, and refuses roundoff det g
    with np.errstate(over="ignore", invalid="ignore"):
        return det > IMMERSION_TOL * g11 * g22


def _require_immersed(g11, g22, det, at=()):
    """Raise NotImmersed at the first point that is not _immersed, naming
    g11, g22 and det g and, given at = (u, v), the point."""
    bad = np.flatnonzero(~_immersed(g11, g22, det))
    if bad.size:
        a, b, d, *uv = (np.ravel(x)[bad[0]] for x in (g11, g22, det, *at))
        where = " at (u, v) = ({:g}, {:g})".format(*uv) if uv else ""
        raise NotImmersed(f"tangent vectors are dependent{where} "
                          f"(g11={a:g}, g22={b:g}, det={d:g})")


def _isothermal_mask(g11, g12, g22, tol):
    scale = 0.5 * (g11 + g22)
    return (np.abs(g11 - g22) <= tol * scale) & (np.abs(g12) <= tol * scale)


# The 2x2 minors of [t1 t2] on the row pairs (i, j) = _MINORS[m], and
# _STAR[k][m, l] = det[e_i e_j e_s e_l] for the axis s = SEEDS[k], so
# that (minors @ _STAR[k])_l = det[t1 t2 e_s e_l] = *(t1 ^ t2 ^ e_s)_l.
_MINORS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_STAR = np.array([[[round(np.linalg.det(E4[[i, j, s, l]])) for l in range(4)]
                   for i, j in _MINORS] for s in SEEDS], float)


def _tangent_plane(Fu, Fv):
    """Unit tangents t1, t2 (Gram-Schmidt of F_u, F_v) and the 2x2 minors of
    [t1 t2], which every normal frame shares."""
    t1 = Fu / np.sqrt(_dot(Fu, Fu))
    w = Fv - _dot(Fv, t1) * t1
    # Near the immersion boundary, F_u and F_v at an angle of about 1e-6, one
    # pass leaves <t1, t2> up to 5e-10 and the frame 1e-7 off orthonormal.
    w = w - _dot(w, t1) * t1
    t2 = w / np.sqrt(_dot(w, w))
    return t1, t2, np.array([t1[i] * t2[j] - t1[j] * t2[i] for i, j in _MINORS])


def _seeded_frames(Fu, Fv, branch, at=()) -> Frame:
    """Frame of seed branch `branch` or, when it is None, of the first seed
    whose projection |p1| exceeds _BRANCH_MARGIN at every point (a smooth
    frame field), else per point of the first whose |p1| exceeds SEED_TOL
    (seed_branch an array then).  Raises DegenerateSeed where a pinned branch
    degenerates, naming the first such point of at = (U, V) when given.

    For the axis s of a point's seed, p1 = e_s - t1_s t1 - t2_s t2, so
    |p1|^2 = 1 - t1_s^2 - t2_s^2 gates each seed tried: a pinned one, else e3,
    e2, e1 up to the first smooth one (all three for a frame per point).
    n1 = p1/|p1| and n2 = *(t1 ^ t2 ^ e_s)/|p1| = (minors @ _STAR[k])/|p1|,
    whence det [t1 t2 n1 n2] = +1 by construction."""
    t1, t2, minors = _tangent_plane(Fu, Fv)
    sq = []  # |p1|^2 of the seeds tried ([s, ...] keeps a point's 0-d)
    for k in range(len(SEEDS)) if branch is None else (branch,):
        sq.append(1 - t1[SEEDS[k], ...] ** 2 - t2[SEEDS[k], ...] ** 2)
        if sq[-1].min() > _BRANCH_MARGIN ** 2:  # smooth, so above SEED_TOL
            branch = k
            break
    else:  # no seed is smooth: some seed works at every point (see SEEDS)
        if branch is None:
            branch = (np.array(sq) > SEED_TOL ** 2).argmax(0)
        elif (bad := np.flatnonzero(~(sq[0] > SEED_TOL ** 2))).size:
            where = " at (u, v) = ({:g}, {:g})".format(
                *(np.ravel(x)[bad[0]] for x in at)) if at else ""
            raise DegenerateSeed(f"seed branch {branch} degenerates{where}")
    # the first branch at every point, with <e_s, t> read off t as t_s
    first = branch if np.ndim(branch) == 0 else branch.min()
    s = SEEDS[first]
    p1 = E4[s].reshape((4,) + (1,) * (t1.ndim - 1)) - t1[s] * t1 - t2[s] * t2
    n2 = np.einsum("m...,ml->l...", minors, _STAR[first])
    if np.ndim(branch):  # per point: redo the (few) points off the first branch
        off = branch != first
        s = np.take(SEEDS, branch[off])
        p1[:, off] = E4[:, s] - t1[s, off] * t1[:, off] - t2[s, off] * t2[:, off]
        n2[:, off] = np.einsum("mp,pml->lp", minors[:, off], _STAR[branch[off]])
    p1n = np.sqrt(_dot(p1, p1))
    return Frame(t1, t2, p1 / p1n, n2 / p1n, seed_branch=branch)


def _second_form(Fuu, Fuv, Fvv, n1, n2):
    """Second fundamental form b[k, i, j, ...] = <F_ij, n_k>."""
    b = np.empty((2, 2, 2) + np.shape(n1)[1:])
    for k, nk in enumerate((n1, n2)):
        b[k, 0, 0] = _dot(Fuu, nk)
        b[k, 0, 1] = b[k, 1, 0] = _dot(Fuv, nk)
        b[k, 1, 1] = _dot(Fvv, nk)
    return b


def _traces(g11, g12, g22, det, b):
    """tr_k = tr(g^-1 b_k) for k = 1, 2."""
    return [(g22 * bk[0, 0] - 2 * g12 * bk[0, 1] + g11 * bk[1, 1]) / det for bk in b]


def _mean_curvature(g11, g12, g22, det, b, n1, n2):
    """H = (tr_1 n_1 + tr_2 n_2) / 2 and |H| = hypot(tr_1 / 2, tr_2 / 2),
    which unlike sqrt(<H, H>) is finite up to the largest float."""
    tr1, tr2 = _traces(g11, g12, g22, det, b)
    return 0.5 * (tr1 * n1 + tr2 * n2), np.hypot(0.5 * tr1, 0.5 * tr2)


def _christoffel(r, g11, g12, g22, det):
    """Christoffel symbols Gamma[k, i, j, ...] from r = the pairs (<F_ab, F_u>,
    <F_ab, F_v>) for ab = uu, uv, vv, solving for each F_ab the 2x2 Gram
    system <F_ab, F_c> = sum_k Gamma^k_ab g_kc directly."""
    out = np.empty((2, 2, 2) + np.shape(det))
    for (i, j), (r1, r2) in zip(((0, 0), (0, 1), (1, 1)), r):
        out[0, i, j] = out[0, j, i] = (g22 * r1 - g12 * r2) / det
        out[1, i, j] = out[1, j, i] = (g11 * r2 - g12 * r1) / det
    return out


def _connection(s, frame: Frame, g11, g12, g22, det, b):
    """Normal connection (gamma_1, gamma_2), gamma_a = <d n_1/da, n_2>, exact
    from the 2-jet for a frame whose n_1 was built from the seed axis e_s.

    n_1 = p_1/|p_1|, p_1 = e_s - t1_s t_1 - t2_s t_2, so
    gamma_a = -(t1_s <d_a t_1, n_2> + t2_s <d_a t_2, n_2>)/|p_1|,
    with <d_a t_1, n_2> = b2_1a/|F_u|, <d_a t_2, n_2> = (b2_2a - <F_v,t_1>
    b2_1a/|F_u|)/|w| for w = F_v - <F_v,t_1> t_1, b2_ia = <F_ia, n_2>,
    |F_u|^2 = g11, <F_v,t_1> = g12/|F_u|, |w|^2 = det/g11, |p_1| = n1_s.
    """
    fu = np.sqrt(g11)
    dt1 = b[1, 0] / fu
    dt2 = (b[1, 1] - g12 / fu * dt1) / np.sqrt(det / g11)
    gamma = -(frame.t1[s] * dt1 + frame.t2[s] * dt2) / frame.n1[s]
    return gamma[0], gamma[1]


# --- pointwise adapters --------------------------------------------------------

def first_form(jets) -> FirstForm:
    """Induced metric coefficients; raises NotImmersed at degenerate points."""
    _, Fu, Fv, *_ = jet_arrays(jets)
    g11, g12, g22, det = _metric(Fu, Fv)
    _require_immersed(g11, g22, det)
    return FirstForm(float(g11), float(g12), float(g22))


def build_frame_auto(jets) -> Frame:
    """Frame of the seed that a FieldGrid would pick (see _seeded_frames)."""
    _, Fu, Fv, *_ = jet_arrays(jets)
    return _seeded_frames(Fu, Fv, None)


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
                           frame.n1, frame.n2)[0]


def normal_connection(surface: SurfaceDef, u: float, v: float,
                      seed_branch: Optional[int] = None) -> NormalConnection:
    """Normal connection coefficients gamma_a = <d n_1 / da, n_2> at (u, v),
    exact from the 2-jet; seed_branch pins the seed of the normals."""
    return surface_point_data(surface, u, v, seed_branch=seed_branch).connection


def gauss_weingarten_matrices(pd: SurfacePointData):
    """Coefficient matrices S1, S2 of the combined frame derivative:
    d/du (F_u, F_v, n1, n2) = (F_u, F_v, n1, n2) S1 and likewise S2 for d/dv.
    """
    A = np.array([pd.shape.a1, pd.shape.a2])
    gam = np.array([pd.connection.gamma1, pd.connection.gamma2])
    S = np.zeros((2, 4, 4))                           # S1, S2
    S[:, :2, :2] = pd.christoffel.transpose(2, 0, 1)  # S[j, k, i] = G[k, i, j]
    S[:, :2, 2:] = -A.transpose(2, 1, 0)              # S[j, i, 2+k] = -A_k[i, j]
    S[:, 2:, :2] = pd.second.transpose(2, 0, 1)       # S[j, 2+k, i] = b[k, i, j]
    S[:, 2, 3], S[:, 3, 2] = -gam, gam
    return S[0], S[1]


def surface_point_data(surface: SurfaceDef, u: float, v: float, *,
                       seed_branch: Optional[int] = None,
                       isothermal_tol: float = ISOTHERMAL_TOL) -> SurfacePointData:
    """All pointwise geometry at (u, v), normal connection included, exact
    from the 2-jet by the array functions of a FieldGrid on a 1-point batch.
    The point is isothermal when its g passes a grid's test and so does the
    first-order change of g over d, 1e-3 of the larger domain extent:
    |d_a (g11 - g22)| d and |d_a g12| d are at most isothermal_tol (g11 +
    g22)/2.  seed_branch pins the normals' seed (DegenerateSeed where it
    degenerates); without it they are chosen as for a grid."""
    arrays, ok = _jet_fields(surface, np.array([u]), np.array([v]))
    _, Fu, Fv, Fuu, Fuv, Fvv = arrays[..., 0]
    g11, g12, g22, det = _metric(Fu, Fv)
    if not ok[0] & np.isfinite(det) & _immersed(g11, g22, det):
        require_finite(surface.components, ok, u, v)
        _require_finite(u, v, "metric", {"g11, g12, g22 or det g": det})
        _require_immersed(g11, g22, det, (u, v))
    form = FirstForm(float(g11), float(g12), float(g22))
    frame = _seeded_frames(Fu, Fv, seed_branch, (u, v))
    u0, u1, v0, v1 = surface.domain
    d = 1e-3 * max(u1 - u0, v1 - v0)
    # products of finite 2-jets can overflow where the metric does not
    with np.errstate(over="ignore", invalid="ignore"):
        # the pairs (<F_ab, F_u>, <F_ab, F_v>), ab = uu, uv, vv, give the
        # Christoffel symbols and d_a g11 = 2 <F_ua, F_u>, d_a g22 =
        # 2 <F_va, F_v>, d_a g12 = <F_ua, F_v> + <F_va, F_u>
        r = [(_dot(Fab, Fu), _dot(Fab, Fv)) for Fab in (Fuu, Fuv, Fvv)]
        (uu_u, uu_v), (uv_u, uv_v), (vv_u, vv_v) = r
        dg = np.array((2 * (uu_u - uv_v), 2 * (uv_u - vv_v), uu_v + uv_u, uv_v + vv_u))
        # an overflowing (inf or nan) term reads as not isothermal
        iso = bool(_isothermal_mask(g11, g12, g22, isothermal_tol)
                   & (d * np.abs(dg) <= isothermal_tol * (0.5 * (g11 + g22))).all())
        b = _second_form(Fuu, Fuv, Fvv, frame.n1, frame.n2)
        christoffel = _christoffel(r, g11, g12, g22, det)
        H, H_norm = _mean_curvature(g11, g12, g22, det, b, frame.n1, frame.n2)
        gammas = _connection(SEEDS[frame.seed_branch], frame, g11, g12, g22, det, b)
    if not np.isfinite(np.concatenate((b, christoffel, H, gammas), axis=None)).all():
        _require_finite(u, v, "second-order geometry",
                        {"b": b, "Gamma": christoffel, "H": H, "gamma": gammas})
    conn = NormalConnection(*map(float, gammas))
    alpha = 0.5 * math.log(form.g11) if iso else None
    beta1 = beta2 = gamma = None
    if iso:
        beta1, beta2 = 0.5 * (b[:, 0, 0] - 1j * b[:, 0, 1])
        gamma = 0.5 * (conn.gamma1 + 1j * conn.gamma2)
    jets = tuple(Jet2(*parts) for parts in arrays[..., 0].T.tolist())
    return SurfacePointData(u, v, jets, form, iso, alpha,
                            frame, b, shape_operators(form, b), christoffel,
                            H, float(H_norm), conn, beta1, beta2, gamma)


# --- grids -------------------------------------------------------------------

def grid_size_fits(n) -> bool:
    """Whether numpy can size an n x n FieldGrid's (6, 4, n, n) jet block."""
    return 6 * 4 * 8 * n * n < sys.maxsize


class FieldGrid:
    """Pointwise-exact fields sampled on an n x n grid over surface.domain.

    The normal frame uses one seed for the whole grid (branch_uniform True):
    seed_branch when given, else the first of SEEDS whose projection off the
    tangent plane stays above _BRANCH_MARGIN everywhere; when none does, each
    point takes the first seed that works there and frame-derivative
    quantities are refused.
    """

    def __init__(self, surface: SurfaceDef, n: int, *,
                 seed_branch: Optional[int] = None):
        if n < 3:
            raise GridTooSmall(f"need at least a 3x3 grid, got n={n}")
        if not grid_size_fits(n):  # refused before anything is allocated
            raise ExpressionError(f"an n = {n} grid is too large for any array")
        self.surface = surface
        self.n = n
        # the surface's own rectangle, which SurfaceDef holds finite and non-empty
        self.domain = tuple(map(float, surface.domain))
        u0, u1, v0, v1 = self.domain
        self.us, self.vs = np.linspace(u0, u1, n), np.linspace(v0, v1, n)
        self.hu, self.hv = (float(w[1] - w[0]) for w in (self.us, self.vs))

        U, V = np.meshgrid(self.us, self.vs, indexing="ij")
        arrays, ok = _jet_fields(surface, U, V)
        require_finite(surface.components, ok, U, V)
        self.F, self.Fu, self.Fv, self.Fuu, self.Fuv, self.Fvv = arrays

        self.g11, self.g12, self.g22, self.det = g = _metric(self.Fu, self.Fv)
        _require_finite(U, V, "metric", {"g11, g12, g22 or det g": self.det})
        _require_immersed(self.g11, self.g22, self.det, (U, V))

        self.isothermal_mask = _isothermal_mask(*g[:3], ISOTHERMAL_TOL)
        self.isothermal = bool(self.isothermal_mask.all())
        self.e2a = self.g11

        fr = _seeded_frames(self.Fu, self.Fv, seed_branch, (U, V))
        self.seed_branch = fr.seed_branch
        self.branch_uniform = np.ndim(fr.seed_branch) == 0
        self.t1, self.t2, self.n1, self.n2 = fr.t1, fr.t2, fr.n1, fr.n2
        # products of finite 2-jets can overflow where the metric does not
        with np.errstate(over="ignore", invalid="ignore"):
            self.b = b = _second_form(self.Fuu, self.Fuv, self.Fvv, self.n1, self.n2)
            self.H_norm = np.hypot(*(0.5 * tr for tr in _traces(*g, b)))
            # In each component |tr_1 n_1 + tr_2 n_2| <= |tr_1| + |tr_2| <=
            # 2 sqrt(2) |H|: H is finite where |H| < max/8, and the check
            # builds H only where that fails at some node
            fine = self.H_norm.max() < np.finfo(float).max / 8
            _require_finite(U, V, "second-order geometry",
                            {"b": b} if fine else {"b": b, "H": self.H})
        self.beta1, self.beta2 = 0.5 * (b[:, 0, 0] - 1j * b[:, 0, 1])

    @functools.cached_property
    def psi(self):  # built at first use: only the lifts read it
        return 0.5 * (self.Fu - 1j * self.Fv)

    @functools.cached_property
    def H(self):  # built at first use: no command reads the vector
        return _mean_curvature(self.g11, self.g12, self.g22, self.det,
                               self.b, self.n1, self.n2)[0]

    def every_other(self) -> FieldGrid:
        """The grid of every other node, at twice the step: bit for bit
        FieldGrid(surface, (n + 1)/2) with this grid's seed branch, since
        np.linspace(a, b, m) is np.linspace(a, b, 2m - 1)[::2]."""
        if self.n % 2 == 0 or self.n < 5:
            raise GridTooSmall(f"every other node needs an odd n >= 5, got n={self.n}")
        sub = object.__new__(FieldGrid)
        for name, x in vars(self).items():  # fields as views; caches rebuilt
            if name not in ("psi", "H", "_kept"):
                setattr(sub, name, x[..., ::2, ::2] if np.ndim(x) >= 2 else x)
        sub.n, sub.us, sub.vs = (self.n + 1) // 2, self.us[::2], self.vs[::2]
        sub.hu, sub.hv = (float(w[1] - w[0]) for w in (sub.us, sub.vs))
        sub.isothermal = bool(sub.isothermal_mask.all())
        return sub

    def sup_H(self) -> float:
        return float(self.H_norm.max())

    @property
    def minimal(self) -> bool:
        """sup |H| within MINIMAL_TOL, the one minimality verdict."""
        return self.sup_H() <= MINIMAL_TOL

    def require_isothermal(self):
        if not self.isothermal:
            i, j = np.unravel_index(np.argmin(self.isothermal_mask),
                                    self.isothermal_mask.shape)
            raise NotIsothermal(
                f"coordinates are not isothermal, e.g. at "
                f"(u, v) = ({self.us[i]:g}, {self.vs[j]:g})")

    def require_minimal(self):
        if not self.minimal:
            raise NotMinimal(f"sup |H| = {self.sup_H():g} exceeds {MINIMAL_TOL:g}")

    def gamma_fields(self):
        """Normal connection coefficients on the whole grid, exact from the
        2-jet by the pointwise formula.  Needs one smooth frame branch, since
        the structure residuals differentiate these fields."""
        if not self.branch_uniform:
            raise SeedBranchFlip(
                "no single seed branch covers the grid; frame-derivative "
                "fields are not available")
        for arr in (self.n1, self.n2):
            if (_dot(arr[:, 1:], arr[:, :-1]).min() <= 0.0
                    or _dot(arr[:, :, 1:], arr[:, :, :-1]).min() <= 0.0):
                raise SeedBranchFlip("frame field is discontinuous on the grid")
        return _connection(SEEDS[self.seed_branch],
                           Frame(self.t1, self.t2, self.n1, self.n2),
                           self.g11, self.g12, self.g22, self.det, self.b)


# --- finite-difference operators on grid fields ------------------------------

def dwbar_field(f: np.ndarray, hu: float, hv: float) -> np.ndarray:
    """(d/du + i d/dv)/2 of a field by central differences; interior values."""
    return 0.5 * ((f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * hu)
                  + 1j * (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * hv))


def laplacian_field(f: np.ndarray, hu: float, hv: float) -> np.ndarray:
    # a float64 h^2 overflows to inf, where a Python float's raises
    hu2, hv2 = np.float64(hu) ** 2, np.float64(hv) ** 2
    return ((f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / hu2
            + (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / hv2)


@dataclass(frozen=True)
class StructureResiduals:
    """Sup-norms of the structure-equation residuals on a grid."""

    gauss: float
    codazzi1: float
    codazzi2: float
    ricci: float
    beta_sq_holo: float  # d/dwbar of (beta^1)^2 + (beta^2)^2

    def as_dict(self) -> dict:
        return asdict(self)


def structure_residuals(grid: FieldGrid) -> StructureResiduals:
    """Residual sup-norms of the Gauss, Codazzi and Ricci equations plus the
    holomorphicity of (beta^1)^2 + (beta^2)^2, for a minimal surface in
    isothermal coordinates.

    All derivative operators are central differences of pointwise-exact
    fields, so each residual decays like h^2 under grid refinement.
    """
    if grid.n < 5:
        raise GridTooSmall("structure residuals need at least a 5x5 grid")
    grid.require_isothermal()
    grid.require_minimal()

    hu, hv = grid.hu, grid.hv
    inner = np.s_[1:-1, 1:-1]

    # fields that overflow give inf or nan sups, left for callers to refuse
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e2a = grid.e2a
        lap_alpha = laplacian_field(0.5 * np.log(e2a), hu, hv)  # e2a = e^(2 alpha)
        rhs = 4.0 / e2a[inner] * (np.abs(grid.beta1[inner]) ** 2
                                  + np.abs(grid.beta2[inner]) ** 2)
        gauss = float(np.abs(lap_alpha - rhs).max())

        g1, g2 = grid.gamma_fields()
        gamma = 0.5 * (g1 + 1j * g2)
        cod1 = dwbar_field(grid.beta1, hu, hv) - grid.beta2[inner] * gamma[inner]
        cod2 = dwbar_field(grid.beta2, hu, hv) + grid.beta1[inner] * gamma[inner]
        codazzi1 = float(np.abs(cod1).max())
        codazzi2 = float(np.abs(cod2).max())

        dgamma = np.conj(dwbar_field(np.conj(gamma), hu, hv))  # d/dw gamma
        ricci_term = (2.0 / e2a[inner] * grid.beta1[inner]
                      * np.conj(grid.beta2[inner]))
        ricci = float(np.abs(np.imag(dgamma + ricci_term)).max())

        beta_sq = grid.beta1 ** 2 + grid.beta2 ** 2
        beta_sq_holo = float(np.abs(dwbar_field(beta_sq, hu, hv)).max())

    return StructureResiduals(gauss, codazzi1, codazzi2, ricci, beta_sq_holo)


def convergence_order(coarse: float, fine: float,
                      floor: float = 1e-12) -> Optional[float]:
    """Observed order log2(coarse/fine) for residuals at h and h/2.

    Returns None when both values sit at the roundoff floor (no order can be
    measured), inf or -inf when fine or coarse alone is exactly zero.
    """
    if max(coarse, fine) <= floor:
        return None
    if 0.0 in (coarse, fine):
        return math.inf if fine == 0.0 else -math.inf
    return math.log2(coarse / fine)
