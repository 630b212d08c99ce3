"""Twistor lifts, stereographic charts, holomorphicity and isotropy."""

import math

import numpy as np
import pytest

from twistor4.catalog import CATALOG
from twistor4.complex_structures import OrientedPlane, pair_to_plane, plane_to_pair
from twistor4.errors import (
    GridTooSmall,
    NonUnitCoords,
    NotIsothermal,
    NotMinimal,
    PoleOfChart,
)
from twistor4.geometry import build_frame_auto, first_form, surface_point_data
from twistor4.linalg4 import basis_I
from twistor4.surface_expr import eval_surface_jet, parse_surface
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
    lift_isothermal,
    lift_sphere_fields,
    psi,
    sphere_coords,
)
from helpers import random_catalog_point, random_unit3

ISOTHERMAL = ("plane", "holo_square", "holo_cube", "clifford_torus",
              "catenoid_E3", "round_sphere")


def psi_at(name, u, v):
    return psi(eval_surface_jet(CATALOG[name].surface, u, v))


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
                rc = holomorphicity_residual(gc.psi[..., k], gc.hu, gc.hv)
                rf = holomorphicity_residual(gf.psi[..., k], gf.hu, gf.hv)
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

    def test_holo_square_plus_constant_minus_moving(self, grids):
        g = grids("holo_square", 11)
        cp, cm = lift_sphere_fields(g)
        assert np.max(np.abs(cp - np.array([1.0, 0.0, 0.0]))) <= 1e-12
        assert np.ptp(cm[..., 2]) > 0.5  # genuinely varies

    def test_recovers_oriented_tangent_plane(self, rng):
        for _ in range(40):
            _, surface, u, v = random_catalog_point(rng, names=list(ISOTHERMAL))
            pd = surface_point_data(surface, u, v, with_connection=False)
            lp = gauss_map(pd)
            plane = pair_to_plane(lp.fplus, lp.fminus)
            tangent = OrientedPlane(pd.frame.t1, pd.frame.t2)
            assert np.max(np.abs(plane.projector()
                                 - tangent.projector())) <= 1e-10
            p2, m2 = plane_to_pair(tangent)
            assert np.max(np.abs(p2.matrix - lp.fplus.matrix)) <= 1e-10
            assert np.max(np.abs(m2.matrix - lp.fminus.matrix)) <= 1e-10


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
        field = chart(cs)
        assert field.value.shape == field.antipode.shape == (2, 11)
        for idx in np.ndindex(2, 11):
            one = chart(cs[idx])
            assert field.value[idx] == one.value
            assert field.antipode[idx] == one.antipode
        assert field.antipode.sum() == 1

    def test_plain_complex_inverse(self):
        assert np.allclose(inverse_chart(0j), [0, 0, -1], atol=1e-16)


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
    def test_holo_square_minus_chart_second_order(self, grids):
        # The stencil's truncation error is O(h^2); the exact default is not.
        rp_c, rm_c = chart_residuals(grids("holo_square", 21), method="stencil")
        rp_f, rm_f = chart_residuals(grids("holo_square", 41), method="stencil")
        assert rp_c <= 1e-12 and rp_f <= 1e-12  # g+ constant
        assert 3.5 <= rm_c / rm_f <= 4.5
        for n in (21, 41):
            assert max(chart_residuals(grids("holo_square", n))) <= 1e-12

    def test_exact_agrees_with_stencil_to_second_order(self, grids):
        # On a non-minimal surface the residuals are O(1); the exact values
        # and the stencil's must close in on each other like h^2, which a
        # zero field or a wrong chain rule would not do.
        diffs = []
        for n in (21, 41):
            g = grids("clifford_torus", n)
            exact = chart_residuals(g)
            stencil = chart_residuals(g, method="stencil")
            diffs.append([abs(e - s) for e, s in zip(exact, stencil)])
        for coarse, fine in zip(*diffs):
            assert 3.5 <= coarse / fine <= 4.5

    def test_catenoid_exact_residuals_vanish(self, grids):
        # minimal, with non-constant g+ and g-; the stencil gives ~1e-4 here
        assert max(chart_residuals(grids("catenoid_E3", 41))) <= 1e-12

    def test_unknown_method(self, grids):
        with pytest.raises(ValueError):
            chart_residuals(grids("plane", 11), method="spectral")

    def test_clifford_control_stays_large(self, grids):
        rp, rm = chart_residuals(grids("clifford_torus", 21))
        assert rp >= 1e-2 and rm >= 1e-2


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

    def test_residuals_are_sups_of_the_fields(self, grids):
        for name in ("holo_cube", "catenoid_E3"):
            g = grids(name, 21)
            rep = isotropy_report(g)
            sups = [float(f.max()) for f in isotropy_fields(g)]
            assert sups == [rep.res_a, rep.res_b, rep.res_c, rep.res_d]

    def test_refusals(self, grids):
        with pytest.raises(NotMinimal):
            isotropy_report(grids("clifford_torus", 11))
        with pytest.raises(NotIsothermal):
            isotropy_report(grids("nonisothermal_graph", 11))

    def test_catenoid_beta_square_sum_is_nonzero_but_holomorphic(self, grids):
        g = grids("catenoid_E3", 21)
        field = g.beta1 ** 2 + g.beta2 ** 2
        assert np.abs(field).min() >= 1e-2      # nowhere zero
        assert holomorphicity_residual(field, g.hu, g.hv) <= 1e-10
