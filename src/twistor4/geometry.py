"""Pointwise and grid-level geometry of surfaces in E^4.

Pointwise quantities (first and second fundamental form, Christoffel symbols,
shape operators, mean curvature vector, normal connection, the combined
frame-derivative matrices) are computed from exact second-order jets, taken
by one batched evaluation over an array of points: the point itself, its
normal-connection stencil and its isothermality probes.  All third-order
information -- the normal connection, structure-equation residuals, frame
derivatives -- comes from central differences of pointwise-exact fields, so
the truncation error is an O(h^2) quantity that the tests measure directly.

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
    "dw_field",
    "dwbar_field",
    "laplacian_field",
    "structure_residuals",
    "convergence_order",
]

_E = np.eye(4)

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
    pair produced the normals (None for caller-supplied seeds), so stencil
    evaluations can pin the same branch.
    """

    t1: np.ndarray
    t2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    seed_branch: Optional[int] = None

    def matrix(self) -> np.ndarray:
        return np.column_stack([self.t1, self.t2, self.n1, self.n2])


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
    connection: Optional[NormalConnection]
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


def _point_jets(arrays, i):
    """The four componentwise jets at point i of stacked jet arrays."""
    return tuple(Jet2(*(a[i, k] for a in arrays)) for k in range(4))


def _immersed(g11, g12, g22, tol):
    return (g11 > tol) & (g22 > tol) & (g11 * g22 - g12 ** 2 > tol)


def _isothermal_mask(g11, g12, g22, tol):
    scale = 0.5 * (g11 + g22)
    return (np.abs(g11 - g22) <= tol * scale) & (np.abs(g12) <= tol * scale)


def first_form(jets, tol: float = 1e-12) -> FirstForm:
    """Induced metric coefficients; raises NotImmersed at degenerate points."""
    _, Fu, Fv, *_ = jet_arrays(jets)
    g11 = float(Fu @ Fu)
    g12 = float(Fu @ Fv)
    g22 = float(Fv @ Fv)
    if not _immersed(g11, g12, g22, tol):
        raise NotImmersed(
            f"tangent vectors are dependent (g11={g11:g}, g22={g22:g}, "
            f"det={g11 * g22 - g12 ** 2:g})")
    return FirstForm(g11, g12, g22)


def is_isothermal(form: FirstForm, tol: float = 1e-8) -> bool:
    return bool(_isothermal_mask(form.g11, form.g12, form.g22, tol))


def christoffel_tangential(jets, form: FirstForm) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] from the tangential projections.

    For each second derivative F_ab the 2x2 Gram system
    <F_ab, F_c> = sum_k Gamma^k_ab g_kc is solved directly.
    """
    _, Fu, Fv, Fuu, Fuv, Fvv = jet_arrays(jets)
    det = form.det
    out = np.empty((2, 2, 2))
    second = ((0, 0, Fuu), (0, 1, Fuv), (1, 1, Fvv))
    for i, j, Fab in second:
        r1 = float(Fab @ Fu)
        r2 = float(Fab @ Fv)
        out[0, i, j] = (form.g22 * r1 - form.g12 * r2) / det
        out[1, i, j] = (form.g11 * r2 - form.g12 * r1) / det
        out[:, j, i] = out[:, i, j]
    return out


def _frames(Fu, Fv, pair):
    """Adapted frames of point, stencil and grid (broadcasting): unit
    tangents, Gram-Schmidt of the seed pair off them, n2 negated where needed
    for det [t1 t2 n1 n2] = +1; plus the norms of the two seed projections,
    on which a seed is judged degenerate."""
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


def build_frame(jets, seeds, tol: float = 1e-6) -> Frame:
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


def build_frame_auto(jets, tol: float = 1e-6, start: int = 0) -> Frame:
    """Try the fallback seed list from index `start`; record the branch used."""
    for k in range(start, len(FALLBACK_SEEDS)):
        try:
            fr = build_frame(jets, FALLBACK_SEEDS[k], tol=tol)
        except DegenerateSeed:
            continue
        return Frame(fr.t1, fr.t2, fr.n1, fr.n2, seed_branch=k)
    raise DegenerateSeed("all fallback seed pairs degenerate")


def second_form(jets, frame: Frame) -> np.ndarray:
    """Second fundamental form components b[k, i, j] = <F_ij, n_k>."""
    _, _, _, Fuu, Fuv, Fvv = jet_arrays(jets)
    b = np.empty((2, 2, 2))
    for k, nk in enumerate((frame.n1, frame.n2)):
        b[k, 0, 0] = Fuu @ nk
        b[k, 0, 1] = b[k, 1, 0] = Fuv @ nk
        b[k, 1, 1] = Fvv @ nk
    return b


def shape_operators(form: FirstForm, second: np.ndarray) -> ShapeOperators:
    """A_k = g^{-1} b_k, self-adjoint with respect to the first form."""
    ginv = np.array([[form.g22, -form.g12], [-form.g12, form.g11]]) / form.det
    return ShapeOperators(ginv @ second[0], ginv @ second[1])


def mean_curvature(form: FirstForm, second: np.ndarray, frame: Frame) -> np.ndarray:
    """Mean curvature vector H = ((tr A_1) n_1 + (tr A_2) n_2) / 2."""
    ops = shape_operators(form, second)
    return 0.5 * (np.trace(ops.a1) * frame.n1 + np.trace(ops.a2) * frame.n2)


def _stencil(u: float, v: float, steps):
    """The point (u, v), then (u + s, v), (u - s, v), (u, v + s), (u, v - s)
    for each step s."""
    us, vs = [u], [v]
    for s in steps:
        us += [u + s, u - s, u, u]
        vs += [v, v, v + s, v - s]
    return np.array(us), np.array(vs)


def _stencil_gammas(Fu, Fv, pair, frame0: Frame, h: float, tol: float):
    """(gamma_1, gamma_2) by central differences of the seed-pair frames at
    the four points of _stencil's step h (the rows of Fu, Fv).

    Raises SeedBranchFlip when the stencil frames are discontinuous (a seed
    degenerates on the stencil, or a normal flips relative to frame0).
    """
    fr, p1n, p2n = _frames(Fu, Fv, pair)
    if not (np.minimum(p1n, p2n) > tol).all():
        raise SeedBranchFlip("seed degenerates on the stencil")
    if not ((_dot(fr.n1, frame0.n1) >= 0.5) & (_dot(fr.n2, frame0.n2) >= 0.5)).all():
        raise SeedBranchFlip("frame branch changes across the stencil")
    return _dot((fr.n1[[0, 2]] - fr.n1[[1, 3]]) / (2 * h), frame0.n2)


def normal_connection(surface: SurfaceDef, u: float, v: float,
                      h: Optional[float] = None, seeds=None, *,
                      richardson: bool = False,
                      seed_tol: float = 1e-6) -> NormalConnection:
    """Normal connection coefficients gamma_a = <d n_1 / da, n_2> by central
    differences of the frame field with a pinned seed branch, from one
    batched jet evaluation of the point and its stencil.

    Raises SeedBranchFlip when the stencil frames are discontinuous (a seed
    degenerates on the stencil, or a normal flips relative to the center).
    """
    if h is None:
        h = 1e-4 * surface.domain_diameter()
    steps = (h, h / 2) if richardson else (h,)
    pu, pv = _stencil(u, v, steps)
    arrays, ok = _jet_fields(surface, pu, pv)
    _, Fu, Fv, *_ = arrays
    require_finite(surface.components, ok, pu, pv)
    jets0 = _point_jets(arrays, 0)
    if seeds is None:
        frame0 = build_frame_auto(jets0, tol=seed_tol)
        pair = FALLBACK_SEEDS[frame0.seed_branch]
    else:
        pair = FALLBACK_SEEDS[seeds] if isinstance(seeds, int) else seeds
        frame0 = build_frame(jets0, pair, tol=seed_tol)
    g = [_stencil_gammas(Fu[k:k + 4], Fv[k:k + 4], pair, frame0, step, seed_tol)
         for k, step in zip((1, 5), steps)]
    return NormalConnection(*((4 * g[1] - g[0]) / 3 if richardson else g[0]))


def gauss_weingarten_matrices(pd: SurfacePointData):
    """Coefficient matrices S1, S2 of the combined frame derivative:
    d/du (F_u, F_v, n1, n2) = (F_u, F_v, n1, n2) S1 and likewise S2 for d/dv.
    """
    if pd.connection is None:
        raise ValueError("point data has no normal connection")
    G = pd.christoffel
    A = (pd.shape.a1, pd.shape.a2)
    b = pd.second
    gam = (pd.connection.gamma1, pd.connection.gamma2)
    out = []
    for j in (0, 1):
        S = np.zeros((4, 4))
        S[0, 0], S[0, 1] = G[0, 0, j], G[0, 1, j]
        S[1, 0], S[1, 1] = G[1, 0, j], G[1, 1, j]
        S[0, 2], S[0, 3] = -A[0][0, j], -A[1][0, j]
        S[1, 2], S[1, 3] = -A[0][1, j], -A[1][1, j]
        S[2, 0], S[2, 1] = b[0, 0, j], b[0, 1, j]
        S[3, 0], S[3, 1] = b[1, 0, j], b[1, 1, j]
        S[2, 3] = -gam[j]
        S[3, 2] = gam[j]
        out.append(S)
    return out[0], out[1]


def beta_gamma(pd: SurfacePointData):
    """Complexified second-form and connection coefficients at an isothermal
    point: beta^k = (b^k_11 - i b^k_12)/2 and gamma = (gamma_1 + i gamma_2)/2."""
    if not pd.isothermal:
        raise NotIsothermal("beta and gamma are defined at isothermal points only")
    if pd.connection is None:
        raise ValueError("point data has no normal connection")
    return pd.beta1, pd.beta2, pd.gamma


def _isothermal_nearby(Fu, Fv, ok, tol: float) -> bool:
    """Isothermality at the probes around a point (rows of Fu, Fv), so that
    an accidental pointwise coincidence g11 = g22 does not count as isothermal
    coordinates; undefined (not ok) or non-immersed probes are skipped."""
    Fu, Fv = Fu[ok], Fv[ok]
    g11, g12, g22 = _dot(Fu, Fu), _dot(Fu, Fv), _dot(Fv, Fv)
    immersed = _immersed(g11, g12, g22, 1e-12)
    return bool(_isothermal_mask(g11, g12, g22, tol)[immersed].all())


def surface_point_data(surface: SurfaceDef, u: float, v: float, *,
                       h: Optional[float] = None,
                       seed_branch: Optional[int] = None,
                       immersion_tol: float = 1e-12,
                       isothermal_tol: float = 1e-8,
                       seed_tol: float = 1e-6,
                       with_connection: bool = True,
                       neighborhood_isothermal: bool = True) -> SurfacePointData:
    """Assemble all pointwise geometry at (u, v), from one batched jet
    evaluation of the point, its normal-connection stencil at step h and four
    isothermality probes 1e-3 of the larger domain extent away."""
    if h is None:
        h = 1e-4 * surface.domain_diameter()
    u0, u1, v0, v1 = surface.domain
    d = 1e-3 * max(u1 - u0, v1 - v0)
    pu, pv = _stencil(u, v, (h,))
    pu = np.concatenate([pu, np.clip([u - d, u + d], u0, u1), [u, u]])
    pv = np.concatenate([pv, [v, v], np.clip([v - d, v + d], v0, v1)])
    arrays, ok = _jet_fields(surface, pu, pv)
    _, Fu, Fv, *_ = arrays
    require_finite(surface.components, ok[:1], pu[:1], pv[:1])
    jets = _point_jets(arrays, 0)
    form = first_form(jets, tol=immersion_tol)
    iso = is_isothermal(form, isothermal_tol)
    if iso and neighborhood_isothermal:
        iso = _isothermal_nearby(Fu[5:], Fv[5:], ok[5:], isothermal_tol)
    frame = build_frame_auto(jets, tol=seed_tol,
                             start=0 if seed_branch is None else seed_branch)
    b = second_form(jets, frame)
    shape = shape_operators(form, b)
    H = mean_curvature(form, b, frame)
    chris = christoffel_tangential(jets, form)
    conn = None
    if with_connection:
        require_finite(surface.components, ok[1:5], pu[1:5], pv[1:5])
        conn = NormalConnection(*_stencil_gammas(
            Fu[1:5], Fv[1:5], FALLBACK_SEEDS[frame.seed_branch], frame, h,
            seed_tol))
    alpha = 0.5 * math.log(form.g11) if iso else None
    beta1 = beta2 = gamma = None
    if iso:
        beta1 = 0.5 * (b[0, 0, 0] - 1j * b[0, 0, 1])
        beta2 = 0.5 * (b[1, 0, 0] - 1j * b[1, 0, 1])
        if conn is not None:
            gamma = 0.5 * (conn.gamma1 + 1j * conn.gamma2)
    return SurfacePointData(u, v, jets, form, iso, alpha, frame, b, shape,
                            chris, H, conn, beta1, beta2, gamma)


# --- grids -------------------------------------------------------------------

class FieldGrid:
    """Pointwise-exact fields sampled on an n x n rectangular grid.

    The normal frame uses one seed pair for the whole grid whenever some
    fallback pair keeps both projections above `branch_margin` everywhere
    (branch_uniform True); otherwise each point falls back independently and
    frame-derivative quantities are refused.
    """

    def __init__(self, surface: SurfaceDef, n: int, domain=None, *,
                 seed_branch: Optional[int] = None,
                 branch_margin: float = 1e-2,
                 seed_tol: float = 1e-6,
                 immersion_tol: float = 1e-12,
                 isothermal_tol: float = 1e-8):
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
        _, Fu, Fv, Fuu, Fuv, Fvv = arrays

        self.g11 = _dot(Fu, Fu)
        self.g12 = _dot(Fu, Fv)
        self.g22 = _dot(Fv, Fv)
        self.det = self.g11 * self.g22 - self.g12 ** 2
        if np.min(self.det) <= immersion_tol or np.min(self.g11) <= immersion_tol:
            i, j = np.unravel_index(np.argmin(self.det), self.det.shape)
            raise NotImmersed(
                f"degenerate point at (u, v) = ({self.us[i]:g}, {self.vs[j]:g})")

        self.isothermal_mask = _isothermal_mask(self.g11, self.g12, self.g22,
                                                isothermal_tol)
        self.isothermal = bool(self.isothermal_mask.all())
        self.e2a = self.g11
        self.alpha = 0.5 * np.log(self.g11) if self.isothermal else None

        self._build_frames(seed_branch, branch_margin, seed_tol)

        b = np.empty((n, n, 2, 2, 2))
        fab = ((0, 0, Fuu), (0, 1, Fuv), (1, 1, Fvv))
        for k, nk in enumerate((self.n1, self.n2)):
            for i, j, arr in fab:
                b[..., k, i, j] = _dot(arr, nk)
                b[..., k, j, i] = b[..., k, i, j]
        self.b = b
        self.tr_a1 = (self.g22 * b[..., 0, 0, 0] - 2 * self.g12 * b[..., 0, 0, 1]
                      + self.g11 * b[..., 0, 1, 1]) / self.det
        self.tr_a2 = (self.g22 * b[..., 1, 0, 0] - 2 * self.g12 * b[..., 1, 0, 1]
                      + self.g11 * b[..., 1, 1, 1]) / self.det
        self.H = 0.5 * (self.tr_a1[..., None] * self.n1
                        + self.tr_a2[..., None] * self.n2)
        self.H_norm = np.sqrt(_dot(self.H, self.H))

        self.psi = 0.5 * (Fu - 1j * Fv)
        self.beta1 = 0.5 * (b[..., 0, 0, 0] - 1j * b[..., 0, 0, 1])
        self.beta2 = 0.5 * (b[..., 1, 0, 0] - 1j * b[..., 1, 0, 1])

    def _build_frames(self, seed_branch, margin, seed_tol):
        if seed_branch is not None:
            fr, p1n, p2n = _frames(self.Fu, self.Fv, FALLBACK_SEEDS[seed_branch])
            if min(p1n.min(), p2n.min()) <= seed_tol:
                raise DegenerateSeed(
                    f"seed branch {seed_branch} degenerates on the grid")
            self.seed_branch = seed_branch
            self.branch_uniform = True
        else:
            for k, pair in enumerate(FALLBACK_SEEDS):
                fr, p1n, p2n = _frames(self.Fu, self.Fv, pair)
                if min(p1n.min(), p2n.min()) > margin:
                    self.seed_branch = k
                    self.branch_uniform = True
                    break
            else:
                fr, self.seed_branch = self._per_point_frames(seed_tol)
                self.branch_uniform = False
        self.t1, self.t2, self.n1, self.n2 = fr.t1, fr.t2, fr.n1, fr.n2

    def _per_point_frames(self, seed_tol):
        n = self.n
        n1 = np.zeros((n, n, 4))
        n2 = np.zeros((n, n, 4))
        branch = np.full((n, n), -1, dtype=int)
        for k, pair in enumerate(FALLBACK_SEEDS):
            fr, p1n, p2n = _frames(self.Fu, self.Fv, pair)
            ok = (p1n > seed_tol) & (p2n > seed_tol) & (branch < 0)
            n1 = np.where(ok[..., None], fr.n1, n1)
            n2 = np.where(ok[..., None], fr.n2, n2)
            branch = np.where(ok, k, branch)
            if (branch >= 0).all():
                break
        if (branch < 0).any():
            i, j = np.argwhere(branch < 0)[0]
            raise DegenerateSeed(
                f"no seed pair works at (u, v) = ({self.us[i]:g}, {self.vs[j]:g})")
        return Frame(fr.t1, fr.t2, n1, n2), branch

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
        """Normal connection coefficients on the interior, from central
        differences of the grid frame field.  Needs one smooth branch."""
        if not self.branch_uniform:
            raise SeedBranchFlip(
                "no single seed branch covers the grid; frame-derivative "
                "fields are not available")
        for arr in (self.n1, self.n2):
            if (_dot(arr[1:], arr[:-1]).min() <= 0.0
                    or _dot(arr[:, 1:], arr[:, :-1]).min() <= 0.0):
                raise SeedBranchFlip("frame field is discontinuous on the grid")
        inner = np.s_[1:-1, 1:-1]
        dn1_u = (self.n1[2:, 1:-1] - self.n1[:-2, 1:-1]) / (2 * self.hu)
        dn1_v = (self.n1[1:-1, 2:] - self.n1[1:-1, :-2]) / (2 * self.hv)
        g1 = _dot(dn1_u, self.n2[inner])
        g2 = _dot(dn1_v, self.n2[inner])
        return g1, g2


# --- finite-difference operators on grid fields ------------------------------

def dw_field(f: np.ndarray, hu: float, hv: float) -> np.ndarray:
    """(d/du - i d/dv)/2 of a field by central differences; interior values."""
    return 0.5 * ((f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * hu)
                  - 1j * (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * hv))


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

    dgamma = dw_field(gamma, hu, hv)
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
