"""Twistor lifts, stereographic charts, holomorphicity and isotropy."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor4.catalog import CATALOG
from twistor4.complex_structures import (
    OrientedPlane,
    pair_to_plane,
    phi_tilde,
    plane_to_pair,
)
from twistor4.errors import (
    DegenerateSeed,
    GridTooSmall,
    NonUnitCoords,
    NotIsothermal,
    NotMinimal,
    PoleOfChart,
)
from twistor4.geometry import (
    SEEDS,
    FieldGrid,
    build_frame_auto,
    dwbar_field,
    first_form,
    surface_point_data,
)
from twistor4.linalg4 import DERIVED_TOL, basis_I, pair_coords
from twistor4.surface_expr import eval_surface_jet, parse_surface
from twistor4 import twistor
from twistor4.twistor import (
    big_psi,
    chart,
    chart_residuals,
    g_plus_closed_field,
    g_plus_closed_form,
    gauss_map,
    holomorphicity_residual,
    inverse_chart,
    isotropy_fields,
    isotropy_report,
    lift_agreement_residual,
    lift_frame,
    lift_gradient_sups,
    lift_isothermal,
    lift_sphere_fields,
    psi,
    sphere_coords,
)
from helpers import (
    HO_DOMAIN,
    HO_SEED_E2,
    HO_SEED_E3,
    catalog_text,
    hoffman_osserman,
    inversion,
    random_catalog_point,
    random_unit3,
    rigid_motion,
)

ISOTHERMAL = ("plane", "holo_square", "holo_cube", "clifford_torus",
              "catenoid_E3", "round_sphere")
# catalog surfaces whose inversions (helpers.inversion) are tested as well
INVERTED = ("holo_cube", "catenoid_E3", "clifford_torus", "round_sphere")
# isothermal surfaces outside the catalog, as ('f1, f2, f3, f4' text, domain)
EXTRA = {
    "helicoid": ("sinh(v)*cos(u), sinh(v)*sin(u), u, 0", (-1.0, 1.0, 0.3, 1.3)),
    "ho_seed_e3": (hoffman_osserman(*HO_SEED_E3), HO_DOMAIN),
    "ho_seed_e2": (hoffman_osserman(*HO_SEED_E2), HO_DOMAIN),
    **{f"inverted_{name}": (inversion(catalog_text(name)), CATALOG[name].surface.domain)
       for name in INVERTED},
}


def text_and_domain(name):
    return EXTRA.get(name) or (catalog_text(name), CATALOG[name].surface.domain)


def psi_at(name, u, v):
    return psi(eval_surface_jet(CATALOG[name].surface, u, v))


def curvatures(grid):
    """A_k = b_k / e2a, K = sum_k det A_k and K_N = (A_1 A_2 - A_2 A_1)_12
    in the grid's normal frame."""
    A = grid.b / grid.e2a
    K = (A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2).sum(0)
    KN = (A[0, 0] * A[1, :, 1] - A[1, 0] * A[0, :, 1]).sum(0)
    return A, K, KN


def interior_grid(grid):
    """The grid of grid's interior nodes: n - 2 nodes on the domain shrunk by
    one step on each side, where the exact fields can be set against a
    stencil's interior values."""
    domain = (grid.us[1], grid.us[-2], grid.vs[1], grid.vs[-2])
    return FieldGrid(replace(grid.surface, domain=domain), grid.n - 2)


class TestPsi:
    def test_plane(self):
        assert np.array_equal(psi_at("plane", 0.3, 0.4),
                              [0.5, -0.5j, 0.0, 0.0])

    def test_holo_square_closed_form(self, rng):
        for _ in range(10):
            u, v = rng.uniform(-1, 1, size=2)
            w = u + 1j * v
            ps = psi_at("holo_square", u, v)
            assert np.max(np.abs(ps - [0.5, -0.5j, w, -1j * w])) <= 1e-14

    def test_isothermal_invariants(self, rng):
        for _ in range(60):
            name, surface, u, v = random_catalog_point(rng, names=list(ISOTHERMAL))
            jets = eval_surface_jet(surface, u, v)
            ps = psi(jets)
            e2a = first_form(jets).g11
            assert abs(np.sum(ps * ps)) <= 1e-12 * e2a
            assert abs(np.sum(np.abs(ps) ** 2) - e2a / 2) <= 1e-12 * e2a
            for eps in (1, -1):
                c = sphere_coords(ps, e2a, eps)
                assert abs(np.linalg.norm(c) - 1.0) <= 1e-10

    def test_components_holomorphic_when_minimal(self, grids):
        # per-component Cauchy-Riemann residual decays (or sits at roundoff)
        for name in ("holo_cube", "catenoid_E3"):
            gc, gf = grids(name, 21), grids(name, 41)
            for k in range(4):
                rc = holomorphicity_residual(gc.psi[k], gc.hu, gc.hv)
                rf = holomorphicity_residual(gf.psi[k], gf.hu, gf.hv)
                assert rf <= 1e-12 or 3.0 <= rc / rf <= 5.5


class TestBigPsi:
    def test_plane_sphere_coords(self):
        ps = psi_at("plane", 0.0, 0.0)
        assert np.allclose(sphere_coords(ps, 1.0, 1), [1, 0, 0], atol=1e-15)
        assert np.allclose(sphere_coords(ps, 1.0, -1), [1, 0, 0], atol=1e-15)

    def test_components_purely_imaginary(self, rng):
        for _ in range(40):
            _, surface, u, v = random_catalog_point(rng)
            ps = psi(eval_surface_jet(surface, u, v))
            for eps in (1, -1):
                assert np.max(np.abs(np.real(big_psi(ps, eps)))) <= 1e-12

    def test_holo_square_plus_coords_constant(self, rng):
        for _ in range(20):
            u, v = rng.uniform(-1, 1, size=2)
            jets = eval_surface_jet(CATALOG["holo_square"].surface, u, v)
            c = sphere_coords(psi(jets), first_form(jets).g11, 1)
            assert np.max(np.abs(c - [1, 0, 0])) <= 1e-12


class TestLifts:
    def test_plane_lifts_are_basis_structures(self):
        jets = eval_surface_jet(CATALOG["plane"].surface, 0.0, 0.0)
        e2a = first_form(jets).g11
        assert np.allclose(lift_isothermal(psi(jets), e2a, 1).matrix,
                           basis_I(1, 1), atol=1e-14)
        assert np.allclose(lift_isothermal(psi(jets), e2a, -1).matrix,
                           basis_I(-1, 1), atol=1e-14)

    def test_lift_frame_standard(self):
        jets = eval_surface_jet(CATALOG["plane"].surface, 0.2, 0.8)
        fr = build_frame_auto(jets)
        assert np.array_equal(lift_frame(fr, 1).matrix, basis_I(1, 1))
        assert np.array_equal(lift_frame(fr, -1).matrix, basis_I(-1, 1))

    def test_lift_frame_invariant_under_normal_rotation(self, rng):
        from twistor4.geometry import Frame
        for _ in range(30):
            _, surface, u, v = random_catalog_point(rng)
            fr = build_frame_auto(eval_surface_jet(surface, u, v))
            th = rng.uniform(0, 2 * math.pi)
            rot = Frame(fr.t1, fr.t2,
                        math.cos(th) * fr.n1 + math.sin(th) * fr.n2,
                        -math.sin(th) * fr.n1 + math.cos(th) * fr.n2)
            for eps in (1, -1):
                assert np.max(np.abs(lift_frame(fr, eps).matrix
                                     - lift_frame(rot, eps).matrix)) <= 1e-12

    def test_formula_agreement_pointwise(self, rng):
        for _ in range(60):
            _, surface, u, v = random_catalog_point(rng, names=list(ISOTHERMAL))
            jets = eval_surface_jet(surface, u, v)
            e2a = first_form(jets).g11
            fr = build_frame_auto(jets)
            for eps in (1, -1):
                a = lift_isothermal(psi(jets), e2a, eps)
                b = lift_frame(fr, eps)
                assert a.chirality == b.chirality == eps
                assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10

    def test_formula_agreement_on_grids(self, grids):
        for name in ISOTHERMAL:
            assert lift_agreement_residual(grids(name, 11)) <= 1e-10

    def test_lift_isothermal_rejects_anisothermal_psi(self):
        jets = eval_surface_jet(CATALOG["nonisothermal_graph"].surface, 1.0, 0.0)
        with pytest.raises(NotIsothermal):
            lift_isothermal(psi(jets), first_form(jets).g11, 1)


class TestGaussMap:
    def test_plane(self):
        pd = surface_point_data(CATALOG["plane"].surface, 0.0, 0.0)
        lp = gauss_map(pd)
        assert np.array_equal(lp.fplus.matrix, basis_I(1, 1))
        assert np.array_equal(lp.fminus.matrix, basis_I(-1, 1))
        assert lp.gplus.value == 1.0 + 0.0j and not lp.gplus.antipode

    def test_lifts_are_the_tangent_structure_pair(self, rng):
        # gauss_map reads both lifts off pair_coords(t1, t2) and charts them
        # in one call; the wedge route t1 ^ t2 + eps n1 ^ n2, classified back
        # by classify_ocs (lift_frame), stays the independent oracle
        for _ in range(40):
            _, surface, u, v = random_catalog_point(rng)
            pd = surface_point_data(surface, u, v)
            lp = gauss_map(pd)
            pair = pair_coords(pd.frame.t1, pd.frame.t2)
            assert (lp.fplus.chirality, lp.fminus.chirality) == (1, -1)
            for f, g, c, eps in ((lp.fplus, lp.gplus, pair[0], 1),
                                 (lp.fminus, lp.gminus, pair[1], -1)):
                assert type(f.chirality) is int
                assert f.coords.tobytes() == c.tobytes()
                assert repr(g) == repr(chart(c))
                assert type(g.value) is complex and type(g.antipode) is bool
                one = lift_frame(pd.frame, eps)
                assert one.chirality == eps
                assert np.max(np.abs(f.coords - one.coords)) <= 1e-13
                assert np.max(np.abs(f.matrix - one.matrix)) <= 1e-13

    def test_lifts_do_not_depend_on_the_seed_branch(self, rng):
        # no normal enters the lifts, so every seed branch that does not
        # degenerate gives the same doubles
        cases = 0
        for _ in range(40):
            _, surface, u, v = random_catalog_point(rng)
            want = gauss_map(surface_point_data(surface, u, v))
            for k in range(len(SEEDS)):
                try:
                    pd = surface_point_data(surface, u, v, seed_branch=k)
                except DegenerateSeed:
                    continue
                cases += 1
                lp = gauss_map(pd)
                for f, w in ((lp.fplus, want.fplus), (lp.fminus, want.fminus)):
                    assert f.matrix.tobytes() == w.matrix.tobytes()
                    assert f.coords.tobytes() == w.coords.tobytes()
                assert repr((lp.gplus, lp.gminus)) == repr((want.gplus, want.gminus))
        assert cases > 40

    def test_unit_check_guards_the_lifts(self):
        # chart's unit check (DERIVED_TOL) is the one check on a point's lifts
        pd = surface_point_data(CATALOG["catenoid_E3"].surface, 0.3, -0.2)

        def scaled(s):
            return replace(pd, frame=replace(pd.frame, t1=pd.frame.t1 * s))

        gauss_map(scaled(1 + 1e-9))
        with pytest.raises(NonUnitCoords):
            gauss_map(scaled(1 + 1e-6))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is float64 here")
    def test_lifts_within_roundoff_of_long_double(self, rng):
        for _ in range(200):
            _, surface, u, v = random_catalog_point(rng)
            pd = surface_point_data(surface, u, v)
            lp = gauss_map(pd)
            exact = pair_coords(*(np.asarray(t, np.longdouble)
                                  for t in (pd.frame.t1, pd.frame.t2)))
            assert np.max(np.abs(np.array([lp.cplus, lp.cminus]) - exact)) <= 1e-15

    def test_holo_square_plus_constant_minus_moving(self, grids):
        g = grids("holo_square", 11)
        cp, cm = lift_sphere_fields(g)
        assert np.max(np.abs(cp - np.array([1.0, 0.0, 0.0])[:, None, None])) <= 1e-12
        assert np.ptp(cm[2]) > 0.5  # genuinely varies

    def test_recovers_oriented_tangent_plane(self, rng):
        for _ in range(40):
            _, surface, u, v = random_catalog_point(rng, names=list(ISOTHERMAL))
            pd = surface_point_data(surface, u, v)
            lp = gauss_map(pd)
            plane = pair_to_plane(lp.fplus, lp.fminus)
            tangent = OrientedPlane(pd.frame.t1, pd.frame.t2)
            assert np.max(np.abs(plane.projector()
                                 - tangent.projector())) <= 1e-10
            p2, m2 = plane_to_pair(tangent)
            assert np.max(np.abs(p2.matrix - lp.fplus.matrix)) <= 1e-10
            assert np.max(np.abs(m2.matrix - lp.fminus.matrix)) <= 1e-10


class TestLiftStack:
    """The grid lifts are one (2, ...) stack over both chiralities."""

    @staticmethod
    def one_chirality(ps, e2a, eps):
        # -2i Psi_eps / e2a with Psi_eps built for eps alone, minor by minor
        cs = np.conj(ps)
        big = np.array([ps[i] * cs[j] - ps[j] * cs[i]
                        + eps * (ps[l] * cs[m] - ps[m] * cs[l])
                        for i, j, l, m in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))])
        return np.real(-2j * big / e2a)

    @pytest.mark.parametrize("name", ISOTHERMAL + ("helicoid",))
    def test_each_slice_is_that_chirality_alone(self, grids, name):
        g = (FieldGrid(parse_surface("sinh(v)*cos(u), sinh(v)*sin(u), u, 0",
                                     domain=(-1.0, 1.0, 0.3, 1.3)), 11)
             if name == "helicoid" else grids(name, 11))
        c = lift_sphere_fields(g)
        assert c.shape == (2, 3, 11, 11) and not c.flags.writeable
        for e, eps in enumerate((1, -1)):
            for want in (sphere_coords(g.psi, g.e2a, eps),
                         self.one_chirality(g.psi, g.e2a, eps)):
                assert c[e].tobytes() == want.tobytes()


    @pytest.mark.parametrize("name", ISOTHERMAL + ("helicoid", "ho_seed_e3",
                                                   "ho_seed_e2"))
    def test_rigid_motions_act_through_the_double_cover(self, name):
        # c+(R F + a) = P c+(F) and c-(R F + a) = M c-(F) at every node,
        # for (P, M) = phi_tilde(R): the paper's SO(4) -> SO(3) x SO(3)
        text, domain = text_and_domain(name)

        def lifts(text):
            return lift_sphere_fields(FieldGrid(parse_surface(text, domain=domain), 11))

        c = lifts(text)
        for seed in range(3):
            moved, r = rigid_motion(text, seed)
            want = np.einsum("eij,ej...->ei...", np.stack(phi_tilde(r)), c)
            assert np.abs(lifts(moved) - want).max() <= 1e-12


class TestChart:
    def test_south_pole(self):
        assert chart([0.0, 0.0, -1.0]).value == 0.0

    def test_equator_point(self):
        cv = chart([1.0, 0.0, 0.0])
        assert cv.value == 1.0 + 0.0j and not cv.antipode

    def test_north_pole_reported_from_antipode(self):
        cv = chart([0.0, 0.0, 1.0])
        assert cv.antipode and cv.value == 0.0

    def test_round_trip_away_from_pole(self, rng):
        for _ in range(200):
            c = random_unit3(rng)
            assert np.max(np.abs(inverse_chart(chart(c)) - c)) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitCoords):
            chart([1.0, 1.0, 1.0])

    def test_field_of_vectors_matches_one_by_one(self, rng):
        cs = np.array([random_unit3(rng) for _ in range(20)]
                      + [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]).reshape(2, 11, 3)
        field = chart(np.moveaxis(cs, -1, 0))
        assert field.value.shape == field.antipode.shape == (2, 11)
        for idx in np.ndindex(2, 11):
            one = chart(cs[idx])
            assert field.value[idx] == one.value
            assert field.antipode[idx] == one.antipode
        assert field.antipode.sum() == 1

    def test_plain_complex_inverse(self):
        assert np.allclose(inverse_chart(0j), [0, 0, -1], atol=1e-16)

    def test_round_trip_at_the_pole_goes_through_the_antipode(self, rng):
        # unit vectors within DERIVED_TOL of (0, 0, 1), the pole itself first
        for dist in (0.0, *rng.uniform(0.0, DERIVED_TOL, 50)):
            phase = rng.uniform(0.0, 2 * math.pi)
            t = 2 * math.asin(dist / 2)  # the angle of a chord of length dist
            c = np.array([math.sin(t) * math.cos(phase),
                          math.sin(t) * math.sin(phase), math.cos(t)])
            cv = chart(c)
            assert cv.antipode
            assert np.max(np.abs(inverse_chart(cv) - c)) <= 1e-15


class TestGPlusClosedForm:
    def test_plane_value_matches_chart(self):
        ps = psi_at("plane", 0.1, 0.2)
        g = g_plus_closed_form(ps)
        assert abs(g - 1.0) <= 1e-14
        c = sphere_coords(ps, 1.0, 1)
        assert abs(g - chart(c).value) <= 1e-14

    def test_holo_square_is_identically_one(self, rng):
        for _ in range(40):
            u, v = rng.uniform(-1, 1, size=2)
            assert abs(g_plus_closed_form(psi_at("holo_square", u, v)) - 1.0) <= 1e-12

    def test_tilted_plane_hits_the_pole(self):
        s = parse_surface("u, v, 0 - u, v")
        ps = psi(eval_surface_jet(s, 0.0, 0.0))
        c = sphere_coords(ps, first_form(eval_surface_jet(s, 0, 0)).g11, 1)
        assert abs(c[2] - 1.0) <= 1e-14
        with pytest.raises(PoleOfChart):
            g_plus_closed_form(ps)
        assert chart(c).antipode

    def test_agrees_with_chart_on_catalog_points(self, rng):
        for _ in range(60):
            _, surface, u, v = random_catalog_point(rng, names=list(ISOTHERMAL))
            jets = eval_surface_jet(surface, u, v)
            ps = psi(jets)
            c = sphere_coords(ps, first_form(jets).g11, 1)
            cv = chart(c)
            if cv.antipode:
                continue
            assert abs(g_plus_closed_form(ps) - cv.value) <= 1e-10

    def test_field_version_matches_scalar(self, grids):
        g = grids("holo_cube", 11)
        field = g_plus_closed_field(g.psi)
        assert np.nanmax(np.abs(field - 1.0)) <= 1e-12


class TestHolomorphicityResidual:
    def test_constant_field(self):
        f = np.full((5, 5), 2.3 + 1.1j)
        assert holomorphicity_residual(f, 0.1) == 0.0

    def test_linear_holomorphic_field(self):
        us = np.linspace(-1, 1, 9)
        w = us[:, None] + 1j * us[None, :]
        assert holomorphicity_residual(w, us[1] - us[0]) <= 1e-15

    def test_antiholomorphic_field_flagged(self):
        us = np.linspace(-1, 1, 9)
        wbar = us[:, None] - 1j * us[None, :]
        assert holomorphicity_residual(wbar, us[1] - us[0]) >= 0.9

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            holomorphicity_residual(np.zeros((2, 2), complex), 0.1)


class TestChartResiduals:
    @staticmethod
    def stencil(grid):
        # the residuals of g+ and conj(g-) by central differences of the chart
        # fields, each interior point in the chart that chart_residuals uses
        out = []
        for c, eps in zip(lift_sphere_fields(grid), (1, -1)):
            z = c[0] + 1j * c[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                north, south = z / (1.0 - c[2]), z / (1.0 + c[2])
            if eps < 0:
                north = np.conj(north)
            else:
                south = np.conj(south)
            res_n, res_s = (np.abs(dwbar_field(f, grid.hu, grid.hv))
                            for f in (north, south))
            out.append(float(np.where(c[2, 1:-1, 1:-1] <= 0.0, res_n, res_s).max()))
        return out

    def test_holo_square_minus_chart_second_order(self, grids):
        # The stencil's truncation error is O(h^2); the exact residuals' is not.
        rp_c, rm_c = self.stencil(grids("holo_square", 21))
        rp_f, rm_f = self.stencil(grids("holo_square", 41))
        assert rp_c <= 1e-12 and rp_f <= 1e-12  # g+ constant
        assert 3.5 <= rm_c / rm_f <= 4.5
        for n in (21, 41):
            assert max(chart_residuals(grids("holo_square", n))) <= 1e-12

    def test_exact_agrees_with_stencil_to_second_order(self, grids):
        # On a non-minimal surface the residuals are O(1); the exact values
        # and the stencil's must close in on each other like h^2, which a
        # zero field or a wrong chain rule would not do.  The stencil reads
        # the interior only, so the exact sups are taken on its nodes.
        diffs = []
        for n in (21, 41):
            g = grids("clifford_torus", n)
            exact = chart_residuals(interior_grid(g))
            stencil = self.stencil(g)
            diffs.append([abs(e - s) for e, s in zip(exact, stencil)])
        for coarse, fine in zip(*diffs):
            assert 3.5 <= coarse / fine <= 4.5

    def test_catenoid_exact_residuals_vanish(self, grids):
        # minimal, with non-constant g+ and g-; the stencil gives ~1e-4 here
        assert max(chart_residuals(grids("catenoid_E3", 41))) <= 1e-12

    def test_clifford_control_stays_large(self, grids):
        rp, rm = chart_residuals(grids("clifford_torus", 21))
        assert rp >= 1e-2 and rm >= 1e-2


class TestLiftGradientSups:
    @staticmethod
    def central(grid):
        # sup over the interior of the Euclidean norms of the central
        # differences of each lift's sphere coordinates along u and along v
        def sup(d):
            return np.linalg.norm(d, axis=0).max()
        return [max(sup(c[:, 2:, 1:-1] - c[:, :-2, 1:-1]) / (2 * grid.hu),
                    sup(c[:, 1:-1, 2:] - c[:, 1:-1, :-2]) / (2 * grid.hv))
                for c in lift_sphere_fields(grid)]

    @pytest.mark.parametrize("name", ["catenoid_E3", "clifford_torus"])
    def test_central_differences_approach_the_exact_sups(self, grids, name):
        # the stencil's O(h^2) error quarters when h halves; a dropped term
        # or a wrong factor in the exact gradient would leave an O(1) gap.
        # The stencil reads the interior only, so the exact sups are taken
        # on its nodes.
        def err(n):
            g = grids(name, n)
            return max(abs(e - c) for e, c in
                       zip(lift_gradient_sups(interior_grid(g)), self.central(g)))
        assert 3.5 <= err(21) / err(41) <= 4.5

    def test_constant_lift_reads_roundoff(self, grids):
        grad_plus, grad_minus = lift_gradient_sups(grids("holo_cube", 21))
        assert grad_plus <= 1e-12 and grad_minus >= 1.0


class TestLiftCurvatureIdentities:
    """The signed area and the energy of each lift c = c_eps in terms of
    K, K_N and |H| (Hoffman and Osserman, Proc. LMS 50, 1985): with
    A_k = b_k / e2a, K = sum_k det A_k and K_N = (A_1 A_2 - A_2 A_1)_12 in
    the grid's normal frame,

        <c, c_u x c_v> = e2a (eps K + K_N),
        |c_u|^2 + |c_v|^2 = 2 e2a (2 |H|^2 - K - eps K_N),

    on any isothermal surface, minimal or not.  Both are needed: the area
    cannot see a dropped term of the exact derivatives along c, the energy
    can.  Their sum and difference split into the lift's Cauchy-Riemann
    defect and its opposite (Eells and Salamon, Ann. SNS Pisa 12, 1985),

        |c_u - eps c x c_v|^2 = 4 e2a |H|^2,
        |c_u + eps c x c_v|^2 = 4 e2a (|H|^2 - K - eps K_N),

    so c_eps is holomorphic in the chart's sense exactly where H = 0, and
    the second is Wintgen's inequality K + |K_N| <= |H|^2 as a sum of
    squares (Wintgen, C. R. Acad. Sci. 288, 1979)."""

    @staticmethod
    def fields(name):
        """The grid of name at n = 21, e2a, A, K, K_N and the scale
        sup e2a sum_k |A_k|^2 + sup e2a sup |H|^2 of both sides of the
        identities."""
        text, domain = text_and_domain(name)
        grid = FieldGrid(parse_surface(text, domain=domain), 21)
        e2a, (A, K, KN) = grid.e2a, curvatures(grid)
        scale = (e2a * (A ** 2).sum((0, 1, 2))).max() + e2a.max() * (grid.H_norm ** 2).max()
        return grid, e2a, A, K, KN, scale

    @pytest.mark.parametrize("name", ISOTHERMAL + tuple(EXTRA))
    def test_exact_derivatives_satisfy_both_identities(self, name):
        grid, e2a, A, K, KN, scale = self.fields(name)
        bound = 1e-13 * (e2a * (A ** 2).sum((0, 1, 2))).max()
        H2 = grid.H_norm ** 2
        dc = twistor._lift_derivatives(grid)
        for eps, c, (cu, cv) in zip((1, -1), lift_sphere_fields(grid),
                                    dc.swapaxes(1, 2)):
            area = (c * np.cross(cu, cv, axis=0)).sum(0)
            energy = (cu ** 2 + cv ** 2).sum(0)
            assert np.abs(area - e2a * (eps * K + KN)).max() <= bound
            assert np.abs(energy - 2 * e2a * (2 * grid.H_norm ** 2 - K - eps * KN)
                          ).max() <= bound
            turned = eps * np.cross(c, cv, axis=0)
            assert (np.abs(((cu - turned) ** 2).sum(0) - 4 * e2a * H2).max()
                    <= 1e-13 * scale)
            assert (np.abs(((cu + turned) ** 2).sum(0) - 4 * e2a * (H2 - K - eps * KN)
                           ).max() <= 1e-13 * scale)
        # chart_residuals reads the first: sup e^alpha |H| / (1 + |c3|)
        want = [(np.sqrt(e2a) * grid.H_norm / (1 + np.abs(c[2]))).max()
                for c in lift_sphere_fields(grid)]
        assert np.abs(np.subtract(chart_residuals(grid), want)).max() <= 1e-13 * np.sqrt(scale)

    @pytest.mark.parametrize("name", INVERTED)
    def test_inversion_keeps_willmore_density_and_flips_normal_curvature(self, name):
        # an inversion of E^4 keeps the coordinates isothermal and
        # e2a (|H|^2 - K) (White, Proc. AMS 38, 1973; Chen, 1974) node for
        # node, and reverses the orientation, which flips e2a K_N
        (grid, e2a, _, K, KN, scale), (inv, ie2a, _, iK, iKN, iscale) = (
            self.fields(n) for n in (name, f"inverted_{name}"))
        assert inv.isothermal
        bound = 1e-13 * max(scale, iscale)
        assert (np.abs(ie2a * (inv.H_norm ** 2 - iK) - e2a * (grid.H_norm ** 2 - K)).max()
                <= bound)
        assert np.abs(ie2a * iKN + e2a * KN).max() <= bound


class TestIsotropyReport:
    def test_plane_both_lifts_constant(self, grids):
        rep = isotropy_report(grids("plane", 11))
        assert rep.consensus is True
        assert rep.constant_lift == "both"

    def test_holo_square_isotropic_plus(self, grids):
        rep = isotropy_report(grids("holo_square", 21))
        assert rep.consensus is True
        assert all(ok for _, _, ok in rep.conditions())
        assert rep.constant_lift == "+"
        assert rep.const_plus_residual <= 1e-12
        assert rep.const_minus_residual >= 1e-1

    def test_catenoid_non_isotropic(self, grids):
        rep = isotropy_report(grids("catenoid_E3", 21))
        assert rep.consensus is False
        assert all(not ok for _, _, ok in rep.conditions())
        assert min(r for _, r, _ in rep.conditions()) >= 1e-2
        assert rep.constant_lift == "none"

    def test_const_residuals_do_not_depend_on_the_normal_frame(self):
        # rotating the normal frame multiplies beta^1 -+ i beta^2 by
        # exp(-+i theta), so the three pinned frames of a surface on which
        # neither lift is constant give the same const residuals; the old
        # sup of max(|Re|, |Im|) read 1.31 to 1.38 and 1.57 to 1.64 here
        text = hoffman_osserman([0.25 + 0.27j, -0.88 + 0.40j, 0.02 - 0.25j],
                                [0.73 + 0.37j, -0.53 + 0.02j, -0.26 + 0.80j])
        s = parse_surface(text, domain=(-0.5, 0.5, -0.5, 0.5))
        reps = [isotropy_report(FieldGrid(s, 41, seed_branch=k)) for k in range(3)]
        for rep in reps:
            assert rep.const_plus_residual == pytest.approx(
                reps[0].const_plus_residual, rel=1e-12, abs=0)
            assert rep.const_minus_residual == pytest.approx(
                reps[0].const_minus_residual, rel=1e-12, abs=0)
        assert reps[0].const_plus_residual == pytest.approx(1.4230, abs=1e-4)
        assert reps[0].const_minus_residual == pytest.approx(1.7424, abs=1e-4)

    def test_residuals_are_sups_of_the_fields(self, grids):
        for name in ("holo_cube", "catenoid_E3"):
            g = grids(name, 21)
            rep = isotropy_report(g)
            sups = [float(f.max()) for f in isotropy_fields(g)]
            assert sups == [rep.residuals[k] for k in "abcd"]

    def test_as_dict_copies_the_tables(self, grids):
        rep = isotropy_report(grids("holo_square", 11))
        doc = rep.as_dict()
        doc["residuals"]["a"] = doc["verdicts"]["a"] = None
        assert isinstance(rep.residuals["a"], float) and rep.verdicts["a"] is True
        assert doc["isotropic"] is doc["consensus"] is rep.consensus

    def test_refusals(self, grids):
        with pytest.raises(NotMinimal):
            isotropy_report(grids("clifford_torus", 11))
        with pytest.raises(NotIsothermal):
            isotropy_report(grids("nonisothermal_graph", 11))

    @pytest.mark.parametrize("surface", [
        CATALOG["nonisothermal_graph"].surface,
        # g11 - g22 = 1e-4 and g12 = 0, isothermal within tolerance where
        # e^(6u) dominates; rounding alone sets the argmax of |g11 - g22| +
        # |g12|, which falls at u = 2, where the node passes
        parse_surface("exp(3*u)*cos(3*v)/3, exp(3*u)*sin(3*v)/3, 0.01*u, 0",
                      domain=(-2, 2, -0.5, 0.5)),
    ], ids=["nonisothermal_graph", "exp_3u"])
    def test_refusal_names_a_node_that_fails(self, surface):
        grid = FieldGrid(surface, 11)
        assert grid.isothermal_mask.any() and not grid.isothermal
        with pytest.raises(NotIsothermal) as exc:
            isotropy_report(grid)
        u, v = re.search(r"\(u, v\) = \((\S+), (\S+)\)", str(exc.value)).groups()
        i = [f"{x:g}" for x in grid.us].index(u)
        j = [f"{x:g}" for x in grid.vs].index(v)
        assert not grid.isothermal_mask[i, j]

    @pytest.mark.parametrize("n", [3, 5, 41])
    @pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.isotropic])
    def test_isotropic_catalog_reads_its_constant_lift(self, name, n):
        # at n = 3 the only interior node of holo_cube is the origin, where
        # b = 0 and both lifts are stationary, so the verdict needs the
        # boundary nodes
        entry = CATALOG[name]
        rep = isotropy_report(FieldGrid(entry.surface, n))
        assert rep.constant_lift == entry.constant_lift

    @pytest.mark.parametrize("n", [3, 5, 21])
    def test_constant_lift_reads_the_two_flags_of_e(self, n):
        want = {(True, True): "both", (True, False): "+", (False, True): "-",
                (False, False): "none"}
        surfaces = [e.surface for e in CATALOG.values() if e.isothermal and e.minimal]
        surfaces += [parse_surface(hoffman_osserman(*seed), domain=HO_DOMAIN)
                     for seed in (HO_SEED_E3, HO_SEED_E2)]
        for s in surfaces:
            rep = isotropy_report(FieldGrid(s, n))
            flags = (rep.grad_plus <= rep.grad_threshold,
                     rep.grad_minus <= rep.grad_threshold)
            assert rep.constant_lift == want[flags]
            assert rep.verdicts["e"] == any(flags)

    def test_catenoid_beta_square_sum_is_nonzero_but_holomorphic(self, grids):
        g = grids("catenoid_E3", 21)
        field = g.beta1 ** 2 + g.beta2 ** 2
        assert np.abs(field).min() >= 1e-2      # nowhere zero
        assert holomorphicity_residual(field, g.hu, g.hv) <= 1e-10


# (rho_k, theta_k) for k = 2..d, d in 2..5
_polar = st.tuples(st.floats(0.2, 1.0), st.floats(0.0, 2 * math.pi))
_weierstrass = st.integers(2, 5).flatmap(
    lambda d: st.lists(_polar, min_size=d - 1, max_size=d - 1))


class TestWeierstrassFamily:
    """Graphs F = (u, v, Re f, Im f) of polynomials f = sum_{k=2..d} a_k w^k
    are isotropic minimal surfaces whose + lift is constant, the lift
    (1, 0, 0) of the coordinate plane; their mirrors (u, v, Re f, -Im f)
    have the - lift constant instead (Hoffman-Osserman)."""

    @staticmethod
    def surface(polar, sign):
        # a_k = 0.3 rho_k e^(i theta_k) / (k r^(k-1) (d-1)) with r = sup |w| on
        # [-1, 1]^2 keeps sup |f'| <= 0.3; w^k expands into C(k, j) u^(k-j) (iv)^j
        d, r = len(polar) + 1, math.sqrt(2.0)
        re, im = [], []
        for k, (rho, theta) in enumerate(polar, start=2):
            a = 0.3 * rho * complex(math.cos(theta), math.sin(theta)) / (
                k * r ** (k - 1) * (d - 1))
            for j in range(k + 1):
                c = math.comb(k, j) * a * 1j ** j
                re.append(f"{c.real!r}*u^{k - j}*v^{j}")
                im.append(f"{sign * c.imag!r}*u^{k - j}*v^{j}")
        return parse_surface(f"u, v, {' + '.join(re)}, {' + '.join(im)}",
                             domain=(-1.0, 1.0, -1.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(_weierstrass)
    def test_graphs_lift_plus_and_mirrors_lift_minus(self, polar):
        for sign, lift, k in ((1, "+", 0), (-1, "-", 1)):
            grid = FieldGrid(self.surface(polar, sign), 21)
            rep = isotropy_report(grid)
            assert rep.consensus is True and rep.constant_lift == lift
            c = lift_sphere_fields(grid)[k]
            assert np.abs(c - np.array([1.0, 0.0, 0.0])[:, None, None]).max() <= 1e-12


# (degree of g1, degree of g2): every verdict, 'none' from degrees 1 to 3
_HO_DEGREES = ((0, 0), (0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (1, 3),
               (2, 2), (3, 1), (3, 3), (2, 1))


class TestHoffmanOssermanFamily:
    """Minimal surfaces F = Re of the integral of phi dz, z = u + iv, with
    phi = (1 + g1 g2, i(1 - g1 g2), g1 - g2, -i(g1 + g2)) / 2 for
    polynomials g1, g2 (helpers.hoffman_osserman), which are not isotropic
    unless g1 or g2 is constant: both Gauss maps are Moebius images of the
    data, the + lift holomorphic in g1 and the - lift antiholomorphic in g2.

    F_u = Re phi and F_v = -Im phi, so psi = F_w = phi / 2, e2a = 2 |psi|^2
    and the lift c = -2i Psi_eps / e2a, Psi_eps = B_eps(psi, conj psi), is
    c^k = 2 (Im phi_i conj(phi_j) + eps Im phi_l conj(phi_m)) / |phi|^2 over
    the index pairs (ij, lm) = (12, 34), (13, 42), (14, 23).  Expanding, with
    |phi|^2 = (1 + |g1|^2)(1 + |g2|^2) / 2,

        c+ = (|g1|^2 - 1, -2 Im g1, 2 Re g1) / (|g1|^2 + 1),
        c- = (|g2|^2 - 1,  2 Im g2, 2 Re g2) / (|g2|^2 + 1).

    In the standard chart g = (c1 + i c2) / (1 - c3), 1 - c+3 =
    |g1 - 1|^2 / (|g1|^2 + 1) and c+1 + i c+2 = (g1 + 1) conj(g1 - 1) /
    (|g1|^2 + 1), so g+ = (g1 + 1) / (g1 - 1); likewise g- = conj((g2 + 1) /
    (g2 - 1)).  Hence c+ = S((g1 + 1) / (g1 - 1)) and c- = S(conj((g2 + 1) /
    (g2 - 1))) for the inverse S of the chart, and a lift is constant
    exactly when its g is (Hoffman and Osserman, Proc. LMS 50, 1985)."""

    @staticmethod
    def S(g):
        """Inverse of the standard chart, written out for arrays of g."""
        r2 = np.abs(g) ** 2
        return np.stack([2 * g.real, 2 * g.imag, r2 - 1]) / (r2 + 1)

    @pytest.fixture(scope="class", params=_HO_DEGREES, ids="deg{0[0]}-{0[1]}".format)
    def member(self, request):
        """The member whose g1, g2 have the given degrees and coefficients
        0.4 N(0, 1) in each of the real and imaginary parts: its degrees, its
        grid (n = 21 on [-0.5, 0.5]^2), and g1, g2 on the grid."""
        rng = np.random.default_rng([1985, *request.param])
        coefs = [0.4 * (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
                 for d in request.param]
        text = hoffman_osserman(*coefs)
        grid = FieldGrid(parse_surface(text, domain=(-0.5, 0.5, -0.5, 0.5)), 21)
        z = grid.us[:, None] + 1j * grid.vs[None, :]
        g1, g2 = map(np.polynomial.Polynomial, coefs)
        return request.param, grid, g1(z), g2(z), g1.deriv()(z), g2.deriv()(z)

    def test_lifts_are_moebius_images_of_the_gauss_maps(self, member):
        _, grid, g1, g2, *_ = member
        cplus, cminus = lift_sphere_fields(grid)
        assert np.abs(cplus - self.S((g1 + 1) / (g1 - 1))).max() <= 1e-13
        assert np.abs(cminus - self.S(np.conj((g2 + 1) / (g2 - 1)))).max() <= 1e-13

    def test_verdict_names_the_constant_gauss_maps(self, member):
        degrees, grid, *_ = member
        want = {(True, True): "both", (True, False): "+", (False, True): "-",
                (False, False): "none"}
        constant = tuple(d == 0 for d in degrees)
        assert isotropy_report(grid).constant_lift == want[constant]

    def test_chart_residuals_at_roundoff(self, member):
        assert max(chart_residuals(member[1])) <= 1e-13

    def test_metric_and_curvatures_in_closed_form(self, member):
        # e2a = 2 |psi|^2 = |phi|^2 / 2, and K + K_N and K - K_N read g1'
        # and g2' alone (Hoffman and Osserman): b itself, not only the lifts,
        # in closed form over the family
        _, grid, g1, g2, dg1, dg2 = member
        r1, r2 = 1 + np.abs(g1) ** 2, 1 + np.abs(g2) ** 2
        assert np.abs(grid.e2a - r1 * r2 / 4).max() <= 1e-13 * (r1 * r2).max()
        A, K, KN = curvatures(grid)
        plus = -16 * np.abs(dg1) ** 2 / (r1 ** 3 * r2)
        minus = -16 * np.abs(dg2) ** 2 / (r1 * r2 ** 3)
        bound = 1e-13 * (A ** 2).sum((0, 1, 2)).max()
        assert np.abs(K + KN - plus).max() <= bound
        assert np.abs(K - KN - minus).max() <= bound
