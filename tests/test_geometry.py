"""Fundamental forms, frames, curvature, connection and structure residuals."""

import importlib.util
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twistor4.geometry as geometry
from twistor4.catalog import CATALOG
from twistor4.errors import (
    DegenerateSeed,
    DomainError,
    ExpressionError,
    GridTooSmall,
    NotImmersed,
    NotIsothermal,
    NotMinimal,
    NumericError,
    SeedBranchFlip,
    Twistor4Error,
)
from twistor4.geometry import (
    SEED_TOL,
    SEEDS,
    FieldGrid,
    Frame,
    build_frame_auto,
    convergence_order,
    first_form,
    gauss_weingarten_matrices,
    jet_arrays,
    mean_curvature,
    normal_connection,
    second_form,
    shape_operators,
    structure_residuals,
    surface_point_data,
)
from twistor4.surface_expr import eval_surface_jet, parse_surface
from twistor4.twistor import gauss_map, lift_sphere_fields
from helpers import (
    HO_DOMAIN,
    HO_SEED_E2,
    HO_SEED_E3,
    hoffman_osserman,
    random_catalog_point,
)

MINIMAL_ISOTHERMAL = ("plane", "holo_square", "holo_cube", "catenoid_E3")
# --expr surfaces of the every-other-node test: (text, domain)
EVERY_OTHER_EXPRS = {
    "helicoid": ("sinh(v)*cos(u), sinh(v)*sin(u), u, 0", (-1.0, 1.0, 0.3, 1.3)),
    "ho_seed_e3": (hoffman_osserman(*HO_SEED_E3), HO_DOMAIN),
    "ho_seed_e2": (hoffman_osserman(*HO_SEED_E2), HO_DOMAIN),
}


def _graph5():
    """(text, domain) of the degree-5 polynomial graph of the CLI comparison
    tool, whose monomials repeat u^p and v^q."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_equivalence.py"
    spec = importlib.util.spec_from_file_location("_cli_equivalence", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (_, text, domain), = (s for s in tool.EXPR_SURFACES if s[0] == "graph5")
    return text, domain


# --expr surfaces of the point-equals-grid test
POINT_GRID_EXPRS = {**EVERY_OTHER_EXPRS, "graph5": _graph5()}


def jets_of(name, u, v):
    return eval_surface_jet(CATALOG[name].surface, u, v)


def frame_matrix(fr):
    return np.column_stack([fr.t1, fr.t2, fr.n1, fr.n2])


def gram_schmidt_frame(Fu, Fv, seed):
    """Reference frame: Gram-Schmidt of F_u, F_v and the seed in turn, then
    of the coordinate vector farthest from their span, n2 negated where
    det [t1 t2 n1 n2] < 0; plus the norm of the seed's projection."""
    basis, norms = [], []
    for x in (Fu, Fv, seed, None):
        rest = [y - sum((y @ e) * e for e in basis)
                for y in (np.eye(4) if x is None else [x])]
        p = max(rest, key=np.linalg.norm)
        norms.append(np.linalg.norm(p))
        basis.append(p / norms[-1])
    M = np.column_stack(basis)
    if np.linalg.det(M) < 0:
        M[:, 3] = -M[:, 3]
    return M, norms[2]


class TestFirstForm:
    def test_plane(self):
        f = first_form(jets_of("plane", 0.3, -0.8))
        assert (f.g11, f.g12, f.g22) == (1.0, 0.0, 1.0)

    def test_holo_square_closed_form(self, rng):
        for _ in range(20):
            u, v = rng.uniform(-1, 1, size=2)
            f = first_form(jets_of("holo_square", u, v))
            g = 1 + 4 * (u * u + v * v)
            assert abs(f.g11 - g) <= 1e-13 * g
            assert abs(f.g22 - g) <= 1e-13 * g
            assert abs(f.g12) <= 1e-14 * g

    def test_clifford_torus(self):
        f = first_form(jets_of("clifford_torus", 0.7, 1.1))
        assert np.allclose((f.g11, f.g12, f.g22), (0.5, 0.0, 0.5), atol=1e-15)

    def test_not_immersed(self):
        s = parse_surface("u, u, u, u")
        with pytest.raises(NotImmersed):
            first_form(eval_surface_jet(s, 0.0, 0.0))


class TestIsothermal:
    def test_flat_form(self):
        # first forms (1, 0, 1) and (0.5, 0, 0.5)
        for text in ("u, v, 0, 0", "u/2, v/2, u/2, v/2"):
            assert surface_point_data(parse_surface(text), 0.3, 0.2).isothermal

    def test_graph_fails_off_diagonal(self):
        surface = CATALOG["nonisothermal_graph"].surface
        assert not surface_point_data(surface, 1.0, 0.0).isothermal

    def test_accidental_pointwise_equality_is_caught_by_pipeline(self):
        # at (1, 1) the graph has g11 = g22 = 5 and g12 = 0 pointwise, but
        # the coordinates are not isothermal on any neighbourhood:
        # d_u (g11 - g22) = 8 there
        f = first_form(jets_of("nonisothermal_graph", 1.0, 1.0))
        assert (f.g11, f.g12) == (f.g22, 0.0)  # pointwise test alone is fooled
        pd = surface_point_data(CATALOG["nonisothermal_graph"].surface, 1.0, 1.0)
        assert not pd.isothermal
        assert pd.beta1 is pd.beta2 is pd.gamma is None

    def test_graph_origin_is_isothermal_to_first_order(self):
        # g11 - g22 = 4(u^2 - v^2) and g12 = 0 vanish at (0, 0) together with
        # their first derivatives: a first-order rule reads the point as
        # isothermal, while the grid, whose other nodes fail, refuses the graph
        s = CATALOG["nonisothermal_graph"].surface
        pd = surface_point_data(s, 0.0, 0.0)
        assert pd.isothermal and pd.alpha == 0.0
        assert not FieldGrid(s, 5).isothermal

    # Conformal at the origin (F_u = e1, F_v = e2, so <F_ab, F_c> is the c-th
    # component of F_ab), with one first derivative of g11 - g22 or of g12
    # non-zero there: {term: (surface, |term|)}
    FIRST_ORDER = {
        "du(g11-g22)": ("u + u^2/2, v, u^2 - v^2, 2*u*v", 2.0),
        "dv(g11-g22)": ("u, v + v^2/2, u^2 - v^2, 2*u*v", 2.0),
        "du(g12)": ("u, v + u^2/2, u^2 - v^2, 2*u*v", 1.0),
        "dv(g12)": ("u + v^2/2, v, u^2 - v^2, 2*u*v", 1.0),
    }

    @pytest.mark.parametrize("term", FIRST_ORDER)
    def test_each_first_order_term_refuses(self, term):
        # g = I passes the pointwise test; the term weighs |term| d against
        # tol (g11 + g22)/2 = tol, with d = 1e-3 * 2 on [-1, 1]^2
        text, size = self.FIRST_ORDER[term]
        s = parse_surface(text)
        pd = surface_point_data(s, 0.0, 0.0)
        assert (pd.form.g11, pd.form.g12, pd.form.g22) == (1.0, 0.0, 1.0)
        assert not pd.isothermal and pd.beta1 is None
        edge = size * 2e-3
        assert surface_point_data(s, 0.0, 0.0, isothermal_tol=1.01 * edge).isothermal
        assert not surface_point_data(s, 0.0, 0.0, isothermal_tol=0.99 * edge).isothermal

    def test_overflowing_term_is_not_isothermal(self):
        # on [-8e307, 8e307]^2, d = 1.6e305 and |d_u (g11 - g22)| d =
        # 4000 * 1.6e305 overflows to inf, which reads as not isothermal
        # (a RuntimeWarning would fail the suite)
        s = parse_surface("u + 1000*u^2, v, u^2 - v^2, 2*u*v",
                          domain=(-8e307, 8e307, -8e307, 8e307))
        pd = surface_point_data(s, 0.0, 0.0)
        assert (pd.form.g11, pd.form.g12, pd.form.g22) == (1.0, 0.0, 1.0)
        assert not pd.isothermal

    @pytest.mark.parametrize("name", [*CATALOG, "helicoid"])
    def test_interior_points_match_the_catalog(self, name):
        # seeded points 2 % or more from the edges; the helicoid is isothermal
        if name in CATALOG:
            s, flag = CATALOG[name].surface, CATALOG[name].isothermal
        else:
            s, flag = parse_surface(EVERY_OTHER_EXPRS[name][0],
                                    domain=EVERY_OTHER_EXPRS[name][1]), True
        u0, u1, v0, v1 = s.domain
        for a, b in np.random.default_rng(26).uniform(0.02, 0.98, (40, 2)):
            u, v = u0 + a * (u1 - u0), v0 + b * (v1 - v0)
            assert surface_point_data(s, u, v).isothermal is flag, (u, v)


class TestChristoffel:
    def test_plane_is_flat(self):
        G = surface_point_data(CATALOG["plane"].surface, 0.1, 0.9).christoffel
        assert np.max(np.abs(G)) == 0.0

    def test_isothermal_identities_on_holo_square(self, rng):
        # with e^{2 alpha} = 1 + 4(u^2+v^2): alpha_u = 4u/g, alpha_v = 4v/g
        for _ in range(10):
            u, v = rng.uniform(-1, 1, size=2)
            G = surface_point_data(CATALOG["holo_square"].surface, u, v).christoffel
            g = 1 + 4 * (u * u + v * v)
            au, av = 4 * u / g, 4 * v / g
            assert abs(G[0, 0, 0] - au) <= 1e-12   # G^1_11 = alpha_u
            assert abs(G[1, 0, 1] - au) <= 1e-12   # G^2_12 = alpha_u
            assert abs(G[0, 1, 1] + au) <= 1e-12   # G^1_22 = -alpha_u
            assert abs(G[1, 0, 0] + av) <= 1e-12   # G^2_11 = -alpha_v
            assert abs(G[0, 0, 1] - av) <= 1e-12   # G^1_12 = alpha_v
            assert abs(G[1, 1, 1] - av) <= 1e-12   # G^2_22 = alpha_v

    def test_metric_derivative_cross_oracle_on_sphere(self):
        # Gamma^k_ij = g^{kl}(d_i g_lj + d_j g_li - d_l g_ij)/2 with the
        # metric differentiated by central differences: O(h^2) agreement.
        surface = CATALOG["round_sphere"].surface
        u, v = 0.31, 0.17

        def gram_gamma():
            return surface_point_data(surface, u, v).christoffel

        def metric_gamma(h):
            def g(uu, vv):
                f = first_form(eval_surface_jet(surface, uu, vv))
                return np.array([[f.g11, f.g12], [f.g12, f.g22]])
            dg = [(g(u + h, v) - g(u - h, v)) / (2 * h),
                  (g(u, v + h) - g(u, v - h)) / (2 * h)]
            g0 = g(u, v)
            ginv = np.linalg.inv(g0)
            out = np.empty((2, 2, 2))
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        out[k, i, j] = 0.5 * sum(
                            ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                            for l in range(2))
            return out

        exact = gram_gamma()
        e1 = np.max(np.abs(metric_gamma(1e-2) - exact))
        e2 = np.max(np.abs(metric_gamma(5e-3) - exact))
        assert 2.8 <= e1 / e2 <= 5.5


class TestFrame:
    def test_plane_standard_frame(self):
        fr = surface_point_data(CATALOG["plane"].surface, 0.0, 0.0,
                                seed_branch=0).frame
        assert np.array_equal(frame_matrix(fr), np.eye(4))

    def test_holo_square_origin(self):
        fr = surface_point_data(CATALOG["holo_square"].surface, 0.0, 0.0,
                                seed_branch=0).frame
        assert np.array_equal(frame_matrix(fr), np.eye(4))

    def test_determinant_plus_one_sweep(self, rng):
        for _ in range(1000):
            _, surface, u, v = random_catalog_point(rng)
            fr = build_frame_auto(eval_surface_jet(surface, u, v))
            M = frame_matrix(fr)
            assert np.max(np.abs(M.T @ M - np.eye(4))) <= 1e-12
            assert abs(np.linalg.det(M) - 1.0) <= 1e-10

    def test_matches_gram_schmidt_reference(self, rng):
        # n2 by cofactors is the reference's last Gram-Schmidt with its det
        # flip, for every pinned seed whose projection survives; where it
        # does not (e1 and e2 on the plane), the seed is refused
        refused = set()
        for _ in range(60):
            name, surface, u, v = random_catalog_point(rng)
            jets = eval_surface_jet(surface, u, v)
            _, Fu, Fv, *_ = jet_arrays(jets)
            for k, axis in enumerate(SEEDS):
                with np.errstate(divide="ignore", invalid="ignore"):
                    M, p1n = gram_schmidt_frame(Fu, Fv, np.eye(4)[axis])
                if p1n > SEED_TOL:
                    fr = surface_point_data(surface, u, v, seed_branch=k).frame
                    assert np.abs(frame_matrix(fr) - M).max() <= 1e-12
                else:
                    refused.add((name, k))
                    with pytest.raises(DegenerateSeed):
                        surface_point_data(surface, u, v, seed_branch=k)
        assert refused == {("plane", 1), ("plane", 2)}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8))
    # |F_v|^2 subnormal: the angle test passed, and t2 came out 2 % off unit
    @example([0.0, 0.0, 0.0, 1.0, 1.0773658823791147e-161, 0.0, 0.0, 0.0])
    def test_some_seed_always_works(self, xs):
        # over e1, e2, e3 the squared projections onto a tangent plane sum to
        # at most 2, so some seed has |p1| >= 1/sqrt(3) at every point that
        # passes the immersion test, and the seed search never runs out of
        # seeds; that test keeps sin^2 of the angle of F_u, F_v above 1e-12,
        # where t2 needs its second Gram-Schmidt pass to stay orthonormal
        Fu, Fv = np.array(xs[:4]), np.array(xs[4:])
        g11, g12, g22, det = geometry._metric(Fu, Fv)
        assume(geometry._immersed(g11, g22, det))
        t1, t2, _ = geometry._tangent_plane(Fu, Fv)
        p1n = [np.linalg.norm(np.eye(4)[s] - t1[s] * t1 - t2[s] * t2) for s in SEEDS]
        assert max(p1n) >= 1 / math.sqrt(3) - 1e-7
        fr = geometry._seeded_frames(Fu, Fv, None)
        assert fr.seed_branch in (0, 1, 2) and p1n[fr.seed_branch] > SEED_TOL
        M = frame_matrix(fr)
        assert np.abs(M.T @ M - np.eye(4)).max() <= 1e-12
        assert abs(np.linalg.det(M) - 1) <= 1e-12

    def test_orthonormal_near_the_immersion_boundary(self, rng):
        # planes just inside the immersion test: F_u, F_v at an angle whose
        # sine is 1.0e-6 to 1.5e-6, |F_u|, |F_v| from 1.6 to 32.  One
        # Gram-Schmidt pass left such frames up to 9e-8 off orthonormal, and
        # gauss_map refused about 40 % of them (NotAComplexStructure)
        n = 20000
        q = np.linalg.qr(rng.normal(size=(n, 4, 4)))[0]
        sin = rng.uniform(1.0e-6, 1.5e-6, (n, 1))
        Fu, Fv = (x * 10 ** rng.uniform(0.2, 1.5, (n, 1)) for x in (
            q[..., 0], np.sqrt(1 - sin ** 2) * q[..., 0] + sin * q[..., 1]))
        g11, _, g22, det = geometry._metric(Fu.T, Fv.T)
        assert geometry._immersed(g11, g22, det).all()
        fr = geometry._seeded_frames(Fu.T, Fv.T, None)
        M = np.stack([fr.t1.T, fr.t2.T, fr.n1.T, fr.n2.T], axis=-1)
        assert np.abs(M.swapaxes(-1, -2) @ M - np.eye(4)).max() <= 1e-13
        for fu, fv in zip(Fu[:200].tolist(), Fv[:200].tolist()):
            s = parse_surface(", ".join(f"{a!r}*u + {b!r}*v" for a, b in zip(fu, fv)))
            pd = surface_point_data(s, 0.0, 0.0)
            M = frame_matrix(pd.frame)
            assert np.abs(M.T @ M - np.eye(4)).max() <= 1e-13
            gauss_map(pd)

    def test_round_sphere_branches(self, grids):
        # no seed stays clear of the tangent plane everywhere, so each point
        # takes the first seed that works there
        g = grids("round_sphere", 41)
        branches, counts = np.unique(g.seed_branch, return_counts=True)
        assert branches.tolist() == [0, 1, 2]
        assert counts.tolist() == [1669, 10, 2]

    def test_per_point_frames_match_pinned_branches(self, grids):
        # a grid that needs all three seeds builds one frame for all its
        # points: at each point it is the frame of that point's branch pinned
        g = grids("round_sphere", 41)
        surface = CATALOG["round_sphere"].surface
        for i, j in np.ndindex(g.seed_branch.shape):
            fr = surface_point_data(surface, g.us[i], g.vs[j],
                                    seed_branch=int(g.seed_branch[i, j])).frame
            assert np.abs(fr.n1 - g.n1[:, i, j]).max() <= 1e-14
            assert np.abs(fr.n2 - g.n2[:, i, j]).max() <= 1e-14

    def test_normals_match_gram_schmidt_on_random_planes(self, rng):
        # n2 = *(t1 ^ t2 ^ e_s)/|p1| is the last vector of Gram-Schmidt on
        # (t1, t2, e_s, the coordinate vector farthest from their span), its
        # sign flipped where det < 0: on 10000 planes just inside the
        # immersion test and 10000 generic ones, half of which hold e3 within
        # 1e-9 and half of those e2 as well, so that all three branches occur
        # in the one per-point frame
        n = 10000
        q = np.linalg.qr(rng.normal(size=(n, 4, 4)))[0]
        sin = rng.uniform(1.0e-6, 1.5e-6, (n, 1))
        Fu, Fv = (np.concatenate([x, rng.normal(size=(n, 4))]) for x in (
            q[..., 0], np.sqrt(1 - sin ** 2) * q[..., 0] + sin * q[..., 1]))
        Fu[n:n + n // 2] = np.eye(4)[2] + 1e-9 * rng.normal(size=(n // 2, 4))
        Fv[n:n + n // 4] = np.eye(4)[1] + 1e-9 * rng.normal(size=(n // 4, 4))
        fr = geometry._seeded_frames(Fu.T, Fv.T, None)
        assert np.bincount(fr.seed_branch).min() >= n // 4
        t1, t2, n1, n2 = fr.t1.T, fr.t2.T, fr.n1.T, fr.n2.T

        def orthogonalize(x, basis):
            for _ in range(2):  # twice is enough
                x = x - sum(np.sum(x * e, -1, keepdims=True) * e for e in basis)
            return x

        basis = [t1, t2]
        p1 = orthogonalize(np.eye(4)[np.take(SEEDS, fr.seed_branch)], basis)
        basis.append(p1 / np.linalg.norm(p1, axis=-1, keepdims=True))
        rest = np.stack([orthogonalize(np.broadcast_to(e, p1.shape), basis)
                         for e in np.eye(4)], axis=1)
        p2 = rest[np.arange(2 * n), np.linalg.norm(rest, axis=-1).argmax(-1)]
        basis.append(p2 / np.linalg.norm(p2, axis=-1, keepdims=True))
        M = np.stack(basis, axis=-1)
        M[..., 3] *= np.sign(np.linalg.det(M))[:, None]
        assert np.abs(n1 - M[..., 2]).max() <= 1e-13
        assert np.abs(n2 - M[..., 3]).max() <= 1e-13

    def test_catenoid_waist_degenerates_first_seed(self):
        s = parse_surface("cosh(v)*cos(u), cosh(v)*sin(u), v, 0")
        with pytest.raises(DegenerateSeed):
            surface_point_data(s, 0.0, 0.0, seed_branch=0)
        # at u = v = 0 the first two seeds, e3 and e2, are both tangent
        fr = build_frame_auto(eval_surface_jet(s, 0.0, 0.0))
        assert fr.seed_branch == 2


# The frame kernel with the minors gathered into (6, ...) copies and the gate
# |p1|^2 computed for every seed at once: the reference that _tangent_plane
# and _seeded_frames must equal bit for bit.
_REF_I, _REF_J = np.array([(0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3)])


def reference_frames(Fu, Fv, branch, at=()):
    """(minors, Frame) of the reference kernel, or its DegenerateSeed."""
    dot = geometry._dot
    t1 = Fu / np.sqrt(dot(Fu, Fu))
    w = Fv - dot(Fv, t1) * t1
    w = w - dot(w, t1) * t1
    t2 = w / np.sqrt(dot(w, w))
    minors = t1[_REF_I] * t2[_REF_J] - t1[_REF_J] * t2[_REF_I]
    sq = 1 - t1[SEEDS, ...] ** 2 - t2[SEEDS, ...] ** 2
    if branch is not None:
        bad = np.flatnonzero(~(sq[branch] > SEED_TOL ** 2))
        if bad.size:
            where = " at (u, v) = ({:g}, {:g})".format(
                *(np.ravel(x)[bad[0]] for x in at)) if at else ""
            raise DegenerateSeed(f"seed branch {branch} degenerates{where}")
    else:
        safe = sq.reshape(len(SEEDS), -1).min(axis=1) > geometry._BRANCH_MARGIN ** 2
        branch = int(safe.argmax()) if safe.any() else (sq > SEED_TOL ** 2).argmax(0)
    first = branch if np.ndim(branch) == 0 else branch.min()
    s = SEEDS[first]
    p1 = np.eye(4)[s].reshape((4,) + (1,) * (t1.ndim - 1)) - t1[s] * t1 - t2[s] * t2
    n2 = np.einsum("m...,ml->l...", minors, geometry._STAR[first])
    if np.ndim(branch):
        off = branch != first
        s = np.take(SEEDS, branch[off])
        p1[:, off] = np.eye(4)[:, s] - t1[s, off] * t1[:, off] - t2[s, off] * t2[:, off]
        n2[:, off] = np.einsum("mp,pml->lp", minors[:, off], geometry._STAR[branch[off]])
    p1n = np.sqrt(dot(p1, p1))
    return minors, Frame(t1, t2, p1 / p1n, n2 / p1n, seed_branch=branch)


def _same_bits(a, b):
    """Equal bit for bit: dtype, shape, values and the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestFrameKernelReference:
    """_tangent_plane and _seeded_frames against reference_frames, on random
    tangent planes.  A plane through the axis e_s makes seed e_s degenerate
    at its point; one tilted 1e-4 off it leaves |p1| above SEED_TOL but below
    _BRANCH_MARGIN.  So the planes of each batch decide which seed is smooth."""

    # batch -> (axes s with a point whose plane is (nearly) through e_s, the
    # tilt off e_s, the automatic seed branch or None for one per point)
    BATCHES = {"e3": ((), 0, 0), "e2": ((2,), 0, 1), "e2, near e3": ((2,), 1e-4, 1),
               "e1": ((2, 1), 0, 2), "e1, near e3 and e2": ((2, 1), 1e-4, 2),
               "per point": ((2, 1, 0), 0, None),
               "per point, near each": ((2, 1, 0), 1e-4, None)}

    def batch(self, rng, axes, tilt):
        Fu, Fv = rng.normal(size=(2, 4, 12))
        for i, s in enumerate(axes):
            Fu[:, 3 * i] = 2.5 * (np.eye(4)[s] + tilt * Fu[:, 3 * i])
        return Fu, Fv

    def check(self, Fu, Fv, branch, at=()):
        try:
            ref_minors, ref = reference_frames(Fu, Fv, branch, at)
        except DegenerateSeed as exc:
            with pytest.raises(DegenerateSeed) as err:
                geometry._seeded_frames(Fu, Fv, branch, at)
            assert str(err.value) == str(exc)
            return None
        fr = geometry._seeded_frames(Fu, Fv, branch, at)
        assert _same_bits(geometry._tangent_plane(Fu, Fv)[2], ref_minors)
        for x, y in zip((fr.t1, fr.t2, fr.n1, fr.n2), (ref.t1, ref.t2, ref.n1, ref.n2)):
            assert _same_bits(x, y)
        assert type(fr.seed_branch) is type(ref.seed_branch)
        assert _same_bits(fr.seed_branch, ref.seed_branch)
        return fr.seed_branch

    @pytest.mark.parametrize("name", list(BATCHES))
    def test_automatic_seed(self, rng, name):
        axes, tilt, want = self.BATCHES[name]
        Fu, Fv = self.batch(rng, axes, tilt)
        got = self.check(Fu, Fv, None)
        assert got == want if want is not None else np.ndim(got) == 1
        self.check(Fu.reshape(4, 3, 4), Fv.reshape(4, 3, 4), None)
        for i in range(0, 12, 3):  # one point: 0-d gates and (6,) minors
            self.check(Fu[:, i], Fv[:, i], None)

    @pytest.mark.parametrize("name", list(BATCHES))
    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_pinned_seed(self, rng, name, branch):
        axes, tilt, _ = self.BATCHES[name]
        Fu, Fv = self.batch(rng, axes, tilt)
        at = np.meshgrid(np.linspace(0, 1, 3), np.linspace(-1, 0, 4), indexing="ij")
        degenerate = SEEDS[branch] in axes and not tilt
        assert (self.check(Fu, Fv, branch) is None) == degenerate
        assert (self.check(Fu.reshape(4, 3, 4), Fv.reshape(4, 3, 4), branch,
                           at) is None) == degenerate
        for i in range(0, 12, 3):
            self.check(Fu[:, i], Fv[:, i], branch, (0.5, float(i)))


class TestSecondFormAndShape:
    def test_plane_vanishes(self):
        jets = jets_of("plane", 0.4, 0.6)
        fr = surface_point_data(CATALOG["plane"].surface, 0.4, 0.6,
                                seed_branch=0).frame
        b = second_form(jets, fr)
        assert np.max(np.abs(b)) == 0.0
        ops = shape_operators(first_form(jets), b)
        assert np.max(np.abs(ops.a1)) == 0.0 and np.max(np.abs(ops.a2)) == 0.0

    def test_holo_square_origin_values(self):
        jets = jets_of("holo_square", 0.0, 0.0)
        fr = surface_point_data(CATALOG["holo_square"].surface, 0.0, 0.0,
                                seed_branch=0).frame
        b = second_form(jets, fr)
        assert b[0, 0, 0] == 2.0 and b[0, 1, 1] == -2.0 and b[0, 0, 1] == 0.0
        assert b[1, 0, 1] == 2.0 and b[1, 0, 0] == 0.0 and b[1, 1, 1] == 0.0
        ops = shape_operators(first_form(jets), b)
        assert np.array_equal(ops.a1, np.diag([2.0, -2.0]))
        assert np.array_equal(ops.a2, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_shape_operators_self_adjoint(self, rng):
        for _ in range(100):
            _, surface, u, v = random_catalog_point(rng)
            jets = eval_surface_jet(surface, u, v)
            form = first_form(jets)
            b = second_form(jets, build_frame_auto(jets))
            ops = shape_operators(form, b)
            G = form.matrix()
            for A in (ops.a1, ops.a2):
                GA = G @ A
                assert np.max(np.abs(GA - GA.T)) <= 1e-10 * (1 + np.max(np.abs(GA)))


class TestMeanCurvature:
    def test_minimal_catalog_surfaces(self, rng):
        for name in MINIMAL_ISOTHERMAL:
            for _ in range(30):
                _, surface, u, v = random_catalog_point(rng, names=[name])
                jets = eval_surface_jet(surface, u, v)
                fr = build_frame_auto(jets)
                H = mean_curvature(first_form(jets), second_form(jets, fr), fr)
                assert np.linalg.norm(H) <= 1e-10

    def test_clifford_torus_norm_one(self, rng):
        for _ in range(30):
            _, surface, u, v = random_catalog_point(rng, names=["clifford_torus"])
            jets = eval_surface_jet(surface, u, v)
            fr = build_frame_auto(jets)
            H = mean_curvature(first_form(jets), second_form(jets, fr), fr)
            assert abs(np.linalg.norm(H) - 1.0) <= 1e-10

    def test_round_sphere_norm_one(self, rng):
        for _ in range(30):
            _, surface, u, v = random_catalog_point(rng, names=["round_sphere"])
            jets = eval_surface_jet(surface, u, v)
            fr = build_frame_auto(jets)
            H = mean_curvature(first_form(jets), second_form(jets, fr), fr)
            assert abs(np.linalg.norm(H) - 1.0) <= 1e-8

    def test_H_is_normal(self, rng):
        for _ in range(50):
            _, surface, u, v = random_catalog_point(rng)
            jets = eval_surface_jet(surface, u, v)
            fr = build_frame_auto(jets)
            H = mean_curvature(first_form(jets), second_form(jets, fr), fr)
            assert abs(H @ fr.t1) <= 1e-10 and abs(H @ fr.t2) <= 1e-10

    def test_minimal_means_harmonic_in_isothermal_coordinates(self, rng):
        for name in MINIMAL_ISOTHERMAL:
            for _ in range(20):
                _, surface, u, v = random_catalog_point(rng, names=[name])
                _, _, _, Fuu, _, Fvv = jet_arrays(eval_surface_jet(surface, u, v))
                assert np.max(np.abs(Fuu + Fvv)) <= 1e-10


class TestFrameCovariance:
    @pytest.mark.parametrize("reflected", [False, True])
    def test_rotated_normal_frames(self, rng, reflected):
        for _ in range(60):
            _, surface, u, v = random_catalog_point(rng)
            jets = eval_surface_jet(surface, u, v)
            form = first_form(jets)
            fr = build_frame_auto(jets)
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            n1t = c * fr.n1 + s * fr.n2
            n2t = (s * fr.n1 - c * fr.n2) if reflected else (-s * fr.n1 + c * fr.n2)
            frt = Frame(fr.t1, fr.t2, n1t, n2t)
            ops = shape_operators(form, second_form(jets, fr))
            opst = shape_operators(form, second_form(jets, frt))
            a1_expect = c * ops.a1 + s * ops.a2
            a2_expect = (s * ops.a1 - c * ops.a2) if reflected \
                else (-s * ops.a1 + c * ops.a2)
            scale = 1 + np.max(np.abs(ops.a1)) + np.max(np.abs(ops.a2))
            assert np.max(np.abs(opst.a1 - a1_expect)) <= 1e-10 * scale
            assert np.max(np.abs(opst.a2 - a2_expect)) <= 1e-10 * scale
            H = mean_curvature(form, second_form(jets, fr), fr)
            Ht = mean_curvature(form, second_form(jets, frt), frt)
            assert np.max(np.abs(H - Ht)) <= 1e-10 * (1 + np.linalg.norm(H))

    def test_isothermal_trace_formula_for_H(self, rng):
        # H = sum_k (b^k_11 + b^k_22) n_k / (2 e^{2 alpha}) at isothermal points
        for _ in range(40):
            name, surface, u, v = random_catalog_point(
                rng, names=["holo_square", "holo_cube", "clifford_torus",
                            "catenoid_E3", "round_sphere"])
            jets = eval_surface_jet(surface, u, v)
            form = first_form(jets)
            fr = build_frame_auto(jets)
            b = second_form(jets, fr)
            H = mean_curvature(form, b, fr)
            e2a = form.g11
            Halt = ((b[0, 0, 0] + b[0, 1, 1]) * fr.n1
                    + (b[1, 0, 0] + b[1, 1, 1]) * fr.n2) / (2 * e2a)
            assert np.max(np.abs(H - Halt)) <= 1e-12 * (1 + np.linalg.norm(H))


class TestNormalConnection:
    def test_plane_connection_vanishes(self):
        nc = normal_connection(CATALOG["plane"].surface, 0.2, -0.3)
        assert abs(nc.gamma1) <= 1e-12 and abs(nc.gamma2) <= 1e-12

    def test_holo_square_closed_form(self, rng):
        # frame from seed e3: gamma_1 = 4v/g, gamma_2 = -4u/g
        for _ in range(10):
            u, v = rng.uniform(-0.9, 0.9, size=2)
            g = 1 + 4 * (u * u + v * v)
            nc = normal_connection(CATALOG["holo_square"].surface, u, v)
            assert abs(nc.gamma1 - 4 * v / g) <= 1e-12
            assert abs(nc.gamma2 + 4 * u / g) <= 1e-12

    def test_antisymmetry_of_gamma(self):
        # <d n_2 / da, n_1> = -gamma_a, via an independent stencil on n2
        surface = CATALOG["holo_square"].surface
        u, v, h = 0.3, 0.4, 1e-4
        nc = normal_connection(surface, u, v, seed_branch=0)
        def frame_at(uu, vv):
            return surface_point_data(surface, uu, vv, seed_branch=0).frame
        f0 = frame_at(u, v)
        dn2_u = (frame_at(u + h, v).n2 - frame_at(u - h, v).n2) / (2 * h)
        dn2_v = (frame_at(u, v + h).n2 - frame_at(u, v - h).n2) / (2 * h)
        assert abs(dn2_u @ f0.n1 + nc.gamma1) <= 1e-6
        assert abs(dn2_v @ f0.n1 + nc.gamma2) <= 1e-6
        # unit-norm differentiation: <d n_1/da, n_1> = 0
        dn1_u = (frame_at(u + h, v).n1 - frame_at(u - h, v).n1) / (2 * h)
        assert abs(dn1_u @ f0.n1) <= 1e-6

    def test_branch_flip_across_catenoid_waist(self):
        # seed 0 = e3 is tangent on the waist v = 0, so its normals
        # turn over there: a grid pinned to it across the waist is refused,
        # with a node on the waist (n = 5) or without one (n = 4)
        s = replace(parse_surface("cosh(v)*cos(u), cosh(v)*sin(u), v, 0"),
                    domain=(-0.1, 0.1, -0.05, 0.15))
        for n in (4, 5):
            with pytest.raises((SeedBranchFlip, DegenerateSeed)):
                FieldGrid(s, n, seed_branch=0).gamma_fields()

    def test_grid_gamma_matches_pointwise(self, grids):
        # the grid and the pointwise route are the same exact formula
        g = grids("holo_square", 21)
        g1, g2 = g.gamma_fields()
        for i, j in ((5, 7), (12, 3)):
            nc = normal_connection(CATALOG["holo_square"].surface,
                                   g.us[i], g.vs[j], seed_branch=g.seed_branch)
            assert abs(nc.gamma1 - g1[i, j]) <= 1e-12
            assert abs(nc.gamma2 - g2[i, j]) <= 1e-12

    @pytest.mark.parametrize("text", [None, "u, v, u*v, u^2 - v^2"],
                             ids=["holo_cube", "nondiagonal_metric"])
    def test_second_order_agreement_with_frame_differences(self, text):
        # central differences of the grid frame, taken here, approach the
        # exact gamma like h^2: a wrong sign or a missing term cannot pass;
        # holo_cube is isothermal, the second surface has g12 = -3uv
        s = CATALOG["holo_cube"].surface if text is None else parse_surface(text)

        def err(n):
            g = FieldGrid(s, n)
            dn1_u = (g.n1[:, 2:, 1:-1] - g.n1[:, :-2, 1:-1]) / (2 * g.hu)
            dn1_v = (g.n1[:, 1:-1, 2:] - g.n1[:, 1:-1, :-2]) / (2 * g.hv)
            n2 = g.n2[:, 1:-1, 1:-1]
            g1, g2 = (x[1:-1, 1:-1] for x in g.gamma_fields())
            return max(np.abs(np.sum(dn1_u * n2, axis=0) - g1).max(),
                       np.abs(np.sum(dn1_v * n2, axis=0) - g2).max())
        assert 3.5 <= err(21) / err(41) <= 4.5


class TestGaussWeingarten:
    def test_plane_matrices_vanish(self):
        pd = surface_point_data(CATALOG["plane"].surface, 0.1, 0.2)
        s1, s2 = gauss_weingarten_matrices(pd)
        assert np.max(np.abs(s1)) <= 1e-12 and np.max(np.abs(s2)) <= 1e-12

    def _combined_frame(self, surface, u, v):
        pd = surface_point_data(surface, u, v)
        _, Fu, Fv, *_ = jet_arrays(pd.jets)
        return np.column_stack([Fu, Fv, pd.frame.n1, pd.frame.n2])

    def test_derivative_of_combined_frame(self):
        surface = CATALOG["holo_square"].surface
        u, v = 0.25, -0.35
        pd = surface_point_data(surface, u, v)
        s1, s2 = gauss_weingarten_matrices(pd)
        W0 = self._combined_frame(surface, u, v)
        errs = []
        for h in (1e-3, 5e-4):
            Wu = (self._combined_frame(surface, u + h, v)
                  - self._combined_frame(surface, u - h, v)) / (2 * h)
            Wv = (self._combined_frame(surface, u, v + h)
                  - self._combined_frame(surface, u, v - h)) / (2 * h)
            errs.append(max(np.max(np.abs(Wu - W0 @ s1)),
                            np.max(np.abs(Wv - W0 @ s2))))
        assert 2.8 <= errs[0] / errs[1] <= 5.5

    def test_derivative_check_with_non_diagonal_metric(self):
        # same combined-frame identity on a surface with g12 != 0
        surface = parse_surface("u, v, u*v, 0")
        u, v = 0.4, 0.7
        pd = surface_point_data(surface, u, v)
        assert abs(pd.form.g12 - u * v) <= 1e-14
        s1, s2 = gauss_weingarten_matrices(pd)
        W0 = self._combined_frame(surface, u, v)
        errs = []
        for h in (1e-3, 5e-4):
            Wu = (self._combined_frame(surface, u + h, v)
                  - self._combined_frame(surface, u - h, v)) / (2 * h)
            Wv = (self._combined_frame(surface, u, v + h)
                  - self._combined_frame(surface, u, v - h)) / (2 * h)
            errs.append(max(np.max(np.abs(Wu - W0 @ s1)),
                            np.max(np.abs(Wv - W0 @ s2))))
        assert 2.8 <= errs[0] / errs[1] <= 5.5

    def test_integrability(self):
        # d_v S1 - d_u S2 + S2 S1 - S1 S2 -> 0 at second order
        surface = CATALOG["holo_square"].surface
        u, v = 0.25, -0.35

        def S(uu, vv):
            return gauss_weingarten_matrices(
                surface_point_data(surface, uu, vv))

        S1, S2 = S(u, v)
        errs = []
        for h in (1e-3, 5e-4):
            dS1v = (S(u, v + h)[0] - S(u, v - h)[0]) / (2 * h)
            dS2u = (S(u + h, v)[1] - S(u - h, v)[1]) / (2 * h)
            errs.append(np.max(np.abs(dS1v - dS2u + S2 @ S1 - S1 @ S2)))
        assert 2.8 <= errs[0] / errs[1] <= 5.5


class TestPointData:
    def test_one_jet_evaluation_per_point(self, monkeypatch):
        # a point is a 1-point batch: one jet evaluation gives its geometry
        # and the first derivatives of g that decide its isothermality
        calls = []

        def counting(*args):
            calls.append(args)
            return eval_surface_jet(*args)

        monkeypatch.setattr(geometry, "eval_surface_jet", counting)
        names = ("holo_square", "catenoid_E3", "round_sphere",
                 "nonisothermal_graph")
        for name in names:
            surface_point_data(CATALOG[name].surface, 0.3, 0.5)
        assert len(calls) == len(names)
        assert all(np.shape(u) == np.shape(v) == (1,) for _, u, v in calls)

    def test_isothermal_next_to_an_undefined_region(self):
        # a plane, defined for u >= 0.1 only: the point 5e-4 inside is
        # isothermal, its own 1-jet of g deciding it
        s = parse_surface("u, v, 0, 0*sqrt(u - 0.1)")
        pd = surface_point_data(s, 0.1005, 0.0)
        assert pd.isothermal and pd.connection is not None

    def test_undefined_point_is_a_domain_error(self):
        # no stencil: a point 1e-4 inside the domain has its connection,
        # and only an undefined point itself is an error
        s = parse_surface("u, v, 0, 0*sqrt(u - 0.1)")
        pd = surface_point_data(s, 0.1001, 0.0)
        assert (pd.connection.gamma1, pd.connection.gamma2) == (0.0, 0.0)
        with pytest.raises(DomainError) as err:
            surface_point_data(s, 0.0999, 0.0)
        assert "sqrt" in str(err.value) and "(u, v) = (0.0999" in str(err.value)

    def test_immersed_next_to_a_non_immersed_line(self):
        # F_v = (0, 3v^2, 0, 0) vanishes on v = 0, 0.002 from the point
        # (0.3, 0.002): the point, immersed, is judged on its own g and its
        # first derivatives (g22 = 9v^4, not isothermal); on v = 0 the point
        # is refused
        s = parse_surface("u, v^3, 0, 0")
        assert not surface_point_data(s, 0.3, 0.002).isothermal
        with pytest.raises(NotImmersed) as err:
            surface_point_data(s, 0.3, 0.0)
        assert str(err.value) == ("tangent vectors are dependent at (u, v) = "
                                  "(0.3, 0) (g11=1, g22=0, det=0)")

    @pytest.mark.parametrize("name,n", [(name, 21 if name == "holo_cube" else 11)
                                        for name in sorted(CATALOG)]
                             + [(name, 11) for name in POINT_GRID_EXPRS])
    def test_point_equals_grid(self, grids, name, n):
        # one kernel: a point is the grid's arithmetic on a 1-point batch, its
        # scalars Python floats where the grid's are arrays, bit for bit (the
        # sign of every zero included) at every node, boundary included, each
        # node's seed branch pinned (a grid without a smooth branch,
        # round_sphere, picks one per node)
        if name in CATALOG:
            g = grids(name, n)
        else:
            text, domain = POINT_GRID_EXPRS[name]
            g = FieldGrid(parse_surface(text, domain=domain), n)
        branches = np.broadcast_to(g.seed_branch, (n, n))
        # the grid's gamma_fields where it has one smooth branch, else the
        # same formula on each node's fields
        grid_gammas = np.array(g.gamma_fields()) if g.branch_uniform else None
        for i, j in np.ndindex(n, n):
            pd = surface_point_data(g.surface, g.us[i], g.vs[j],
                                    seed_branch=int(branches[i, j]))
            frame = Frame(*(x[:, i, j] for x in (g.t1, g.t2, g.n1, g.n2)))
            gammas = (grid_gammas[:, i, j] if g.branch_uniform else
                      geometry._connection(SEEDS[branches[i, j]], frame, g.g11[i, j],
                                           g.g12[i, j], g.g22[i, j], g.det[i, j],
                                           g.b[..., i, j]))
            pairs = [((pd.form.g11, pd.form.g12, pd.form.g22),
                      (g.g11[i, j], g.g12[i, j], g.g22[i, j])),
                     (frame_matrix(pd.frame), frame_matrix(frame)),
                     (pd.second, g.b[..., i, j]), (pd.H, g.H[:, i, j]),
                     (pd.H_norm, g.H_norm[i, j]),
                     ((pd.connection.gamma1, pd.connection.gamma2), gammas)]
            for a, b in pairs:
                assert _same_bits(a, b), (name, i, j)

    def test_holo_square_origin_betas(self):
        pd = surface_point_data(CATALOG["holo_square"].surface, 0.0, 0.0)
        assert pd.isothermal
        assert pd.alpha == 0.0
        assert pd.beta1 == 1.0 + 0.0j
        assert pd.beta2 == -1.0j
        # isotropy witness: (beta1)^2 + (beta2)^2 = 0
        assert abs(pd.beta1 ** 2 + pd.beta2 ** 2) == 0.0

    def test_plane_betas_vanish(self):
        pd = surface_point_data(CATALOG["plane"].surface, 0.5, 0.5)
        b1, b2, g = pd.beta1, pd.beta2, pd.gamma
        assert b1 == 0.0 and b2 == 0.0 and abs(g) <= 1e-12


class TestLayout:
    """Fields over points are component-major; one point's results keep the
    shapes of a single vector, form or matrix."""

    def test_jet_arrays_are_component_major(self):
        s = CATALOG["holo_cube"].surface
        U, V = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 5),
                           indexing="ij")
        a = jet_arrays(eval_surface_jet(s, U, V))
        assert a.shape == (6, 4, 7, 5) and a.flags.c_contiguous

    def test_grid_fields_are_component_major(self, grids):
        g = grids("holo_cube", 11)
        for x in (g.F, g.Fu, g.Fvv, g.t1, g.t2, g.n1, g.n2, g.H, g.psi):
            assert x.shape == (4, 11, 11)
        assert g.b.shape == (2, 2, 2, 11, 11)
        assert lift_sphere_fields(g).shape == (2, 3, 11, 11)

    @pytest.mark.parametrize("name", ["holo_cube", "nonisothermal_graph"])
    def test_point_results_keep_their_shapes(self, name):
        pd = surface_point_data(CATALOG[name].surface, 0.3, -0.2)
        f = pd.frame
        assert all(np.shape(x) == (4,) for x in (f.t1, f.t2, f.n1, f.n2, pd.H))
        assert np.shape(pd.second) == np.shape(pd.christoffel) == (2, 2, 2)
        assert pd.shape.a1.shape == pd.shape.a2.shape == (2, 2)
        assert all(s.shape == (4, 4) for s in gauss_weingarten_matrices(pd))
        lp = gauss_map(pd)
        assert lp.cplus.shape == lp.cminus.shape == (3,)
        assert lp.fplus.matrix.shape == lp.fminus.matrix.shape == (4, 4)
        assert (lp.fplus.chirality, lp.fminus.chirality) == (1, -1)


class TestFieldGrid:
    def test_uniform_branch_on_holo_surfaces(self, grids):
        for name in ("plane", "holo_square", "holo_cube", "catenoid_E3"):
            g = grids(name, 11)
            assert g.branch_uniform

    def test_full_torus_needs_per_point_branches(self):
        s = parse_surface(
            "cos(u)/sqrt(2), sin(u)/sqrt(2), cos(v)/sqrt(2), sin(v)/sqrt(2)",
            domain=(0.0, 6.2832, 0.0, 6.2832))
        g = FieldGrid(s, 13)
        assert not g.branch_uniform
        assert np.abs(g.H_norm - 1.0).max() <= 1e-10
        with pytest.raises(SeedBranchFlip):
            g.gamma_fields()

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            FieldGrid(CATALOG["plane"].surface, 2)

    @pytest.mark.parametrize("name, seed_branch", [
        *((name, None) for name in CATALOG), ("helicoid", None),
        ("ho_seed_e3", None), ("ho_seed_e2", None), ("catenoid_E3", 2)])
    @pytest.mark.parametrize("n", [5, 11])
    def test_every_other_node_is_the_coarser_grid(self, name, seed_branch, n):
        # every field of the grid of every other node is bit for bit that of
        # the grid built at that size, seed branch included (round_sphere's is
        # per point); lifts kept for the finer grid are not carried over
        s = (CATALOG[name].surface if name in CATALOG
             else parse_surface(EVERY_OTHER_EXPRS[name][0],
                                domain=EVERY_OTHER_EXPRS[name][1]))
        fine = FieldGrid(s, 2 * n - 1, seed_branch=seed_branch)
        if fine.isothermal:
            lift_sphere_fields(fine)
        sub, ref = fine.every_other(), FieldGrid(s, n, seed_branch=seed_branch)
        assert vars(sub).keys() == vars(ref).keys()
        assert (sub.n, sub.hu, sub.hv) == (ref.n, ref.hu, ref.hv)
        assert sub.branch_uniform == ref.branch_uniform == (name != "round_sphere")
        for key, want in vars(ref).items():
            got = getattr(sub, key)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), key
                assert got.tobytes() == want.tobytes(), key
            else:
                assert got == want, key

        def residuals(grid):
            try:
                return structure_residuals(grid)
            except Twistor4Error as exc:
                return type(exc), str(exc)
        assert residuals(sub) == residuals(ref)

    @pytest.mark.parametrize("name", ["round_sphere", "nonisothermal_graph"])
    def test_mean_curvature_vector_is_built_when_read(self, name):
        # a grid keeps |H| = hypot(tr_1/2, tr_2/2); the vector H is built at its
        # first read, bit for bit (tr_1 n_1 + tr_2 n_2)/2, and a grid of every
        # other node builds its own, whether this grid's was read or not
        grid = FieldGrid(CATALOG[name].surface, 9)
        assert "H" not in vars(grid)
        tr1, tr2 = ((grid.g22 * bk[0, 0] - 2 * grid.g12 * bk[0, 1]
                     + grid.g11 * bk[1, 1]) / grid.det for bk in grid.b)
        want = 0.5 * (tr1 * grid.n1 + tr2 * grid.n2)
        assert _same_bits(grid.H_norm, np.hypot(0.5 * tr1, 0.5 * tr2))
        sub = grid.every_other()
        assert "H" not in vars(sub)
        assert _same_bits(grid.H, want) and "H" in vars(grid)
        for sub in (sub, grid.every_other()):
            assert _same_bits(sub.H, want[..., ::2, ::2])

    def test_mean_curvature_vector_is_checked_where_its_norm_nears_overflow(self):
        # tr_1 = tr_2 = 1.3e308: |H| = hypot(tr_1/2, tr_2/2) stays finite, but
        # past max/8, where |H| no longer bounds H, so the check builds H,
        # finite too, and the grid stands; a larger step tilts the normals
        # until H itself overflows, and the check names H at its first such node
        text = "u, v, 0.65e308*u^2, 0.65e308*v^2"
        grid = FieldGrid(parse_surface(text, domain=(0, 1e-320, 0, 1e-320)), 3)
        assert (grid.H_norm == np.hypot(0.65e308, 0.65e308)).all()
        assert grid.sup_H() > np.finfo(float).max / 8
        assert np.isfinite(vars(grid)["H"]).all()
        with pytest.raises(NumericError, match=re.escape(
                "overflows at (u, v) = (0, 2.5e-301): H is not finite")):
            FieldGrid(parse_surface(text, domain=(0, 1e-300, 0, 1e-300)), 5)

    @pytest.mark.parametrize("n", [3, 6])
    def test_every_other_needs_an_odd_grid_of_at_least_5(self, n):
        with pytest.raises(GridTooSmall, match=f"odd n >= 5, got n={n}"):
            FieldGrid(CATALOG["plane"].surface, n).every_other()

    def test_samples_the_surfaces_own_domain(self):
        # a grid's rectangle is its surface's, held to SurfaceDef's rule: no
        # second way to give one skips it
        s = CATALOG["holo_square"].surface
        with pytest.raises(TypeError):
            FieldGrid(s, 7, domain=(0.0, 0.5, 0.0, 0.5))
        g = FieldGrid(replace(s, domain=(0, 0.5, -0.5, 0)), 7)
        assert g.domain == (0.0, 0.5, -0.5, 0.0)
        assert (g.us[0], g.us[-1], g.vs[0], g.vs[-1]) == g.domain

    @pytest.mark.parametrize("domain", [(0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, math.inf),
                                        (math.nan, 1, 0, 1)],
                             ids=["empty", "reversed", "infinite", "nan"])
    def test_bad_rectangle_is_refused(self, domain):
        with pytest.raises(ExpressionError, match="empty or non-finite domain"):
            replace(CATALOG["holo_square"].surface, domain=domain)

    def test_domain_error_names_first_grid_point(self):
        with pytest.raises(DomainError) as err:
            FieldGrid(parse_surface("u, v, log(u + 0.5), 0"), 5)
        assert "(u, v) = (-1, -1)" in str(err.value)
        assert "log((u + 0.5))" in str(err.value)

    def test_jets_match_pointwise_evaluation(self, grids):
        g = grids("round_sphere", 11)
        for i, j in ((0, 0), (3, 7), (10, 4)):
            pointwise = jet_arrays(eval_surface_jet(g.surface, g.us[i], g.vs[j]))
            grid = (g.F, g.Fu, g.Fv, g.Fuu, g.Fuv, g.Fvv)
            for a, b in zip(grid, pointwise):
                assert np.array_equal(a[:, i, j], b)


class TestStructureResiduals:
    def test_plane_residuals_vanish(self, grids):
        r = structure_residuals(grids("plane", 11))
        assert max(r.gauss, r.codazzi1, r.codazzi2, r.ricci, r.beta_sq_holo) <= 1e-13

    def test_holo_square_second_order_decay(self, grids):
        rc = structure_residuals(grids("holo_square", 21))
        rf = structure_residuals(grids("holo_square", 41))
        for key, c in rc.as_dict().items():
            f = rf.as_dict()[key]
            order = convergence_order(c, f)
            if order is not None:
                assert 1.7 <= order <= 2.3, key

    def test_convergence_order_of_an_exact_zero(self):
        # one sup exactly 0 gives an infinite order, with no log2(0) error;
        # both at the roundoff floor give none
        assert convergence_order(0.0, 1e-3) == -math.inf
        assert convergence_order(1e-3, 0.0) == math.inf
        assert convergence_order(0.0, 1e-13) is None
        assert convergence_order(4e-3, 1e-3) == 2.0

    def test_codazzi_sign_is_discriminated(self, grids):
        # the residual of d beta1/dwbar - beta2 gamma must be far smaller
        # than with the opposite sign of the right-hand side
        from twistor4.geometry import dwbar_field
        g = grids("holo_square", 41)
        g1, g2 = g.gamma_fields()
        inner = np.s_[1:-1, 1:-1]
        gamma = 0.5 * (g1[inner] + 1j * g2[inner])
        lhs = dwbar_field(g.beta1, g.hu, g.hv)
        good = np.abs(lhs - g.beta2[inner] * gamma).max()
        bad = np.abs(lhs + g.beta2[inner] * gamma).max()
        assert good < bad / 100

    def test_ricci_covers_the_whole_interior(self):
        # Im d(gamma)/dw + 2 beta1 conj(beta2) / e2a on every node with a
        # central difference, here computed directly; on this domain its sup
        # lies on the ring next to the boundary
        from twistor4.geometry import dwbar_field
        s = replace(CATALOG["holo_cube"].surface, domain=(0.2, 1, 0.2, 1))
        g = FieldGrid(s, 11)
        g1, g2 = g.gamma_fields()
        inner = np.s_[1:-1, 1:-1]
        dgamma = np.conj(dwbar_field(0.5 * (g1 - 1j * g2), g.hu, g.hv))
        field = np.abs(np.imag(dgamma + 2.0 / g.e2a[inner] * g.beta1[inner]
                               * np.conj(g.beta2[inner])))
        ricci = structure_residuals(g).ricci
        assert abs(ricci - field.max()) <= 1e-12 * ricci
        assert field[1:-1, 1:-1].max() < 0.95 * ricci

    def test_refuses_non_minimal(self, grids):
        with pytest.raises(NotMinimal):
            structure_residuals(grids("clifford_torus", 11))

    def test_refuses_non_isothermal(self, grids):
        with pytest.raises(NotIsothermal):
            structure_residuals(grids("nonisothermal_graph", 11))

    def test_grid_too_small_for_residuals(self, grids):
        with pytest.raises(GridTooSmall):
            structure_residuals(grids("plane", 3))
