"""Fundamental forms, frames, curvature, connection and structure residuals."""

import math

import numpy as np
import pytest

from twistor4.catalog import CATALOG
from twistor4.errors import (
    DegenerateSeed,
    DomainError,
    GridTooSmall,
    NotImmersed,
    NotIsothermal,
    NotMinimal,
    SeedBranchFlip,
)
from twistor4.geometry import (
    FALLBACK_SEEDS,
    FieldGrid,
    Frame,
    beta_gamma,
    build_frame,
    build_frame_auto,
    christoffel_tangential,
    convergence_order,
    first_form,
    gauss_weingarten_matrices,
    is_isothermal,
    jet_arrays,
    mean_curvature,
    normal_connection,
    second_form,
    shape_operators,
    structure_residuals,
    surface_point_data,
)
from twistor4.surface_expr import eval_surface_jet, parse_surface
from helpers import random_catalog_point

MINIMAL_ISOTHERMAL = ("plane", "holo_square", "holo_cube", "catenoid_E3")


def jets_of(name, u, v):
    return eval_surface_jet(CATALOG[name].surface, u, v)


def frame_matrix(fr):
    return np.column_stack([fr.t1, fr.t2, fr.n1, fr.n2])


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
        from twistor4.geometry import FirstForm
        assert is_isothermal(FirstForm(1.0, 0.0, 1.0))
        assert is_isothermal(FirstForm(0.5, 0.0, 0.5))

    def test_graph_fails_off_diagonal(self):
        f = first_form(jets_of("nonisothermal_graph", 1.0, 0.0))
        assert not is_isothermal(f)

    def test_accidental_pointwise_equality_is_caught_by_pipeline(self):
        # at (1, 1) the graph has g11 = g22 = 5 and g12 = 0 pointwise, but
        # the coordinates are not isothermal on any neighbourhood
        f = first_form(jets_of("nonisothermal_graph", 1.0, 1.0))
        assert is_isothermal(f)  # pointwise test alone is fooled
        pd = surface_point_data(CATALOG["nonisothermal_graph"].surface, 1.0, 1.0,
                                with_connection=False)
        assert not pd.isothermal
        with pytest.raises(NotIsothermal):
            beta_gamma(pd)


class TestChristoffel:
    def test_plane_is_flat(self):
        jets = jets_of("plane", 0.1, 0.9)
        G = christoffel_tangential(jets, first_form(jets))
        assert np.max(np.abs(G)) == 0.0

    def test_isothermal_identities_on_holo_square(self, rng):
        # with e^{2 alpha} = 1 + 4(u^2+v^2): alpha_u = 4u/g, alpha_v = 4v/g
        for _ in range(10):
            u, v = rng.uniform(-1, 1, size=2)
            jets = jets_of("holo_square", u, v)
            G = christoffel_tangential(jets, first_form(jets))
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
            jets = eval_surface_jet(surface, u, v)
            return christoffel_tangential(jets, first_form(jets))

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
        fr = build_frame(jets_of("plane", 0.0, 0.0), FALLBACK_SEEDS[0])
        assert np.array_equal(frame_matrix(fr), np.eye(4))

    def test_holo_square_origin(self):
        fr = build_frame(jets_of("holo_square", 0.0, 0.0), FALLBACK_SEEDS[0])
        assert np.array_equal(frame_matrix(fr), np.eye(4))

    def test_determinant_plus_one_sweep(self, rng):
        for _ in range(1000):
            _, surface, u, v = random_catalog_point(rng)
            fr = build_frame_auto(eval_surface_jet(surface, u, v))
            M = frame_matrix(fr)
            assert np.max(np.abs(M.T @ M - np.eye(4))) <= 1e-12
            assert abs(np.linalg.det(M) - 1.0) <= 1e-10

    def test_catenoid_waist_degenerates_first_seed(self):
        s = parse_surface("cosh(v)*cos(u), cosh(v)*sin(u), v, 0")
        jets = eval_surface_jet(s, 0.0, 0.0)
        with pytest.raises(DegenerateSeed):
            build_frame(jets, FALLBACK_SEEDS[0])
        # at u = v = 0 the first three seed pairs are all tangent-degenerate
        fr = build_frame_auto(jets)
        assert fr.seed_branch == 3


class TestSecondFormAndShape:
    def test_plane_vanishes(self):
        jets = jets_of("plane", 0.4, 0.6)
        fr = build_frame(jets, FALLBACK_SEEDS[0])
        b = second_form(jets, fr)
        assert np.max(np.abs(b)) == 0.0
        ops = shape_operators(first_form(jets), b)
        assert np.max(np.abs(ops.a1)) == 0.0 and np.max(np.abs(ops.a2)) == 0.0

    def test_holo_square_origin_values(self):
        jets = jets_of("holo_square", 0.0, 0.0)
        fr = build_frame(jets, FALLBACK_SEEDS[0])
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
        # frame from seeds (e3, e4): gamma_1 = 4v/g, gamma_2 = -4u/g
        for _ in range(10):
            u, v = rng.uniform(-0.9, 0.9, size=2)
            g = 1 + 4 * (u * u + v * v)
            nc = normal_connection(CATALOG["holo_square"].surface, u, v)
            assert abs(nc.gamma1 - 4 * v / g) <= 1e-6
            assert abs(nc.gamma2 + 4 * u / g) <= 1e-6

    def test_richardson_improves(self):
        u, v = 0.37, -0.21
        g = 1 + 4 * (u * u + v * v)
        exact = np.array([4 * v / g, -4 * u / g])
        plain = normal_connection(CATALOG["holo_square"].surface, u, v, h=1e-2)
        rich = normal_connection(CATALOG["holo_square"].surface, u, v, h=1e-2,
                                 richardson=True)
        err_plain = np.max(np.abs([plain.gamma1, plain.gamma2] - exact))
        err_rich = np.max(np.abs([rich.gamma1, rich.gamma2] - exact))
        assert err_rich < err_plain / 10

    def test_antisymmetry_of_gamma(self):
        # <d n_2 / da, n_1> = -gamma_a, via an independent stencil on n2
        surface = CATALOG["holo_square"].surface
        u, v, h = 0.3, 0.4, 1e-4
        nc = normal_connection(surface, u, v, h=h, seeds=0)
        def frame_at(uu, vv):
            return build_frame(eval_surface_jet(surface, uu, vv), FALLBACK_SEEDS[0])
        f0 = frame_at(u, v)
        dn2_u = (frame_at(u + h, v).n2 - frame_at(u - h, v).n2) / (2 * h)
        dn2_v = (frame_at(u, v + h).n2 - frame_at(u, v - h).n2) / (2 * h)
        assert abs(dn2_u @ f0.n1 + nc.gamma1) <= 1e-6
        assert abs(dn2_v @ f0.n1 + nc.gamma2) <= 1e-6
        # unit-norm differentiation: <d n_1/da, n_1> = 0
        dn1_u = (frame_at(u + h, v).n1 - frame_at(u - h, v).n1) / (2 * h)
        assert abs(dn1_u @ f0.n1) <= 1e-6

    def test_branch_flip_across_catenoid_waist(self):
        s = parse_surface("cosh(v)*cos(u), cosh(v)*sin(u), v, 0")
        with pytest.raises(SeedBranchFlip):
            normal_connection(s, 0.0, 0.05, h=0.1, seeds=0)

    def test_grid_gamma_matches_pointwise_stencil(self, grids):
        # the grid route (frame-field differences) and the pointwise route
        # (fresh stencil frames) are the same arithmetic on square grids
        g = grids("holo_square", 21)
        g1, g2 = g.gamma_fields()
        for i, j in ((5, 7), (12, 3)):
            nc = normal_connection(CATALOG["holo_square"].surface,
                                   g.us[i], g.vs[j], h=g.hu,
                                   seeds=g.seed_branch)
            assert abs(nc.gamma1 - g1[i - 1, j - 1]) <= 1e-12
            assert abs(nc.gamma2 - g2[i - 1, j - 1]) <= 1e-12


class TestGaussWeingarten:
    def test_plane_matrices_vanish(self):
        pd = surface_point_data(CATALOG["plane"].surface, 0.1, 0.2)
        s1, s2 = gauss_weingarten_matrices(pd)
        assert np.max(np.abs(s1)) <= 1e-12 and np.max(np.abs(s2)) <= 1e-12

    def _combined_frame(self, surface, u, v):
        pd = surface_point_data(surface, u, v, with_connection=False)
        _, Fu, Fv, *_ = jet_arrays(pd.jets)
        return np.column_stack([Fu, Fv, pd.frame.n1, pd.frame.n2])

    def test_derivative_of_combined_frame(self):
        surface = CATALOG["holo_square"].surface
        u, v = 0.25, -0.35
        pd = surface_point_data(surface, u, v, h=1e-5)
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
        pd = surface_point_data(surface, u, v, h=1e-5)
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
                surface_point_data(surface, uu, vv, h=1e-5))

        S1, S2 = S(u, v)
        errs = []
        for h in (1e-3, 5e-4):
            dS1v = (S(u, v + h)[0] - S(u, v - h)[0]) / (2 * h)
            dS2u = (S(u + h, v)[1] - S(u - h, v)[1]) / (2 * h)
            errs.append(np.max(np.abs(dS1v - dS2u + S2 @ S1 - S1 @ S2)))
        assert 2.8 <= errs[0] / errs[1] <= 5.5


class TestPointData:
    def test_one_jet_evaluation_per_point(self, monkeypatch):
        # point, stencil and isothermality probes come from a single batch
        import twistor4.geometry as geometry
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

    def test_undefined_probe_is_skipped(self):
        # a plane, defined for u >= 0.1 only: the probe at u - 0.002 is
        # undefined, the stencil at u -+ 2.8e-4 is not
        s = parse_surface("u, v, 0, 0*sqrt(u - 0.1)")
        pd = surface_point_data(s, 0.1005, 0.0)
        assert pd.isothermal and pd.connection is not None

    def test_undefined_stencil_point_is_a_domain_error(self):
        s = parse_surface("u, v, 0, 0*sqrt(u - 0.1)")
        with pytest.raises(DomainError) as err:
            surface_point_data(s, 0.1001, 0.0)
        assert "sqrt" in str(err.value) and "(u, v) = (0.0998" in str(err.value)
        pd = surface_point_data(s, 0.1001, 0.0, with_connection=False)
        assert pd.connection is None

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
        b1, b2, g = beta_gamma(pd)
        assert b1 == 0.0 and b2 == 0.0 and abs(g) <= 1e-12


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
                assert np.array_equal(a[i, j], b)


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

    def test_codazzi_sign_is_discriminated(self, grids):
        # the residual of d beta1/dwbar - beta2 gamma must be far smaller
        # than with the opposite sign of the right-hand side
        from twistor4.geometry import dwbar_field
        g = grids("holo_square", 41)
        g1, g2 = g.gamma_fields()
        gamma = 0.5 * (g1 + 1j * g2)
        lhs = dwbar_field(g.beta1, g.hu, g.hv)
        inner = np.s_[1:-1, 1:-1]
        good = np.abs(lhs - g.beta2[inner] * gamma).max()
        bad = np.abs(lhs + g.beta2[inner] * gamma).max()
        assert good < bad / 100

    def test_refuses_non_minimal(self, grids):
        with pytest.raises(NotMinimal):
            structure_residuals(grids("clifford_torus", 11))

    def test_refuses_non_isothermal(self, grids):
        with pytest.raises(NotIsothermal):
            structure_residuals(grids("nonisothermal_graph", 11))

    def test_grid_too_small_for_residuals(self, grids):
        with pytest.raises(GridTooSmall):
            structure_residuals(grids("plane", 3))
