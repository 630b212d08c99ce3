"""Chirality spheres, the oriented-plane correspondence and the double covers."""

import math

import numpy as np
import pytest

from twistor4.complex_structures import (
    _HALF_COLS,
    _HALF_ROWS,
    OrientedPlane,
    OrthogonalComplexStructure,
    chirality_via_frame,
    classify_ocs,
    compose_ocs,
    h1_matrix,
    h1h2_factorize,
    h2_matrix,
    pair_to_plane,
    phi,
    phi_tilde,
    plane_to_pair,
    same_oriented_plane,
)
from twistor4.errors import (
    DegeneratePair,
    FrameConditionViolated,
    NoCommonPlane,
    NonUnitCoords,
    NonUnitQuaternion,
    NotAComplexStructure,
    NotSO4,
    NumericError,
)
from twistor4.linalg4 import E4, basis_I, basis_vector, bivector_coords, mat_inner, wedge
from twistor4.twistor import chart
from helpers import (
    random_h1,
    random_ocs,
    random_plane,
    random_so3,
    random_so4,
    random_unit3,
    random_unit4,
)


def E(i):
    return basis_vector(i)


class TestClassifyCompose:
    def test_classify_basis_element(self):
        s = classify_ocs(basis_I(1, 3))
        assert s.chirality == 1
        assert np.allclose(s.coords, [0, 0, 1], atol=1e-15)

    def test_classify_linear_combination(self):
        m = (basis_I(-1, 1) + basis_I(-1, 2) + basis_I(-1, 3)) / math.sqrt(3)
        s = classify_ocs(m)
        assert s.chirality == -1
        assert np.allclose(s.coords, np.ones(3) / math.sqrt(3), atol=1e-15)

    def test_compose_basis(self):
        assert np.array_equal(compose_ocs(1, [1, 0, 0]).matrix, basis_I(1, 1))
        assert np.array_equal(compose_ocs(-1, [0, 0, 1]).matrix, basis_I(-1, 3))

    def test_compose_three_four_five(self):
        s = compose_ocs(1, [0.6, 0.0, 0.8])
        expect = 0.6 * basis_I(1, 1) + 0.8 * basis_I(1, 3)
        assert np.allclose(s.matrix, expect, atol=1e-15)
        assert np.max(np.abs(s.matrix @ s.matrix + E4)) <= 1e-15

    def test_round_trip_both_ways(self, rng):
        for _ in range(300):
            eps = 1 if rng.random() < 0.5 else -1
            c = random_unit3(rng)
            s = classify_ocs(compose_ocs(eps, c).matrix)
            assert s.chirality == eps
            assert np.max(np.abs(s.coords - c)) <= 1e-12
            back = compose_ocs(s.chirality, s.coords)
            assert np.max(np.abs(back.matrix - compose_ocs(eps, c).matrix)) <= 1e-12

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("c", [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1],
        # c2^2 + c3^2 = 1/2, the boundary of an earlier chirality heuristic
        [math.sqrt(0.5), 0.5, -0.5], [-math.sqrt(0.5), math.sqrt(0.5), 0],
        [math.sqrt(0.5), 0, -math.sqrt(0.5)],
    ])
    def test_classify_reads_chirality_and_coords(self, eps, c):
        s = classify_ocs(compose_ocs(eps, c).matrix)
        assert s.chirality == eps
        assert np.array_equal(s.coords, c)

    def test_structure_rotates_every_vector(self, rng):
        s = random_ocs(rng, -1)
        for _ in range(100):
            u = random_unit4(rng)
            assert abs((s.matrix @ u) @ u) <= 1e-12

    def test_classify_rejects_identity(self):
        with pytest.raises(NotAComplexStructure):
            classify_ocs(E4)

    def test_classify_rejects_non_orthogonal(self):
        with pytest.raises(NotAComplexStructure):
            classify_ocs(2.0 * basis_I(1, 1))

    def test_half_entries_are_read_off_the_pairs(self):
        # the (m, l) entries of I[eps, k] = e_i ^ e_j + eps e_l ^ e_m, 0-based:
        # (4,3), (2,4), (3,2) in 1-based indices
        assert np.array_equal(np.array([_HALF_ROWS, _HALF_COLS]),
                              [[3, 1, 2], [2, 3, 1]])
        for k, (r, c) in enumerate(zip(_HALF_ROWS, _HALF_COLS), 1):
            for eps in (1, -1):
                assert basis_I(eps, k)[r, c] == eps

    def test_stack_matches_each_matrix(self, rng):
        # a stack A[..., 4, 4] is classified matrix by matrix, bit for bit
        A = np.array([random_ocs(rng, eps).matrix
                      for eps in (1, -1, -1, 1, 1, -1)]).reshape(2, 3, 4, 4)
        s = classify_ocs(A)
        assert s.chirality.shape == (2, 3) and s.coords.shape == (2, 3, 3)
        for idx in np.ndindex(2, 3):
            one = classify_ocs(A[idx])
            assert s.chirality[idx] == one.chirality
            assert np.array_equal(s.coords[idx], one.coords)
            assert np.array_equal(s.matrix[idx], one.matrix)

    @pytest.mark.parametrize("bad", [E4, 2.0 * basis_I(1, 1)],
                             ids=["square_is_plus_identity", "not_orthogonal"])
    def test_stack_checks_every_matrix(self, rng, bad):
        with pytest.raises(NotAComplexStructure):
            classify_ocs(np.stack([random_ocs(rng, 1).matrix, bad]))

    def test_compose_rejects_non_unit(self):
        with pytest.raises(NonUnitCoords):
            compose_ocs(1, [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("make,error", [
        (lambda: OrientedPlane(np.full(4, np.nan), np.full(4, np.nan)),
         DegeneratePair),
        (lambda: OrientedPlane(E(1), [0.0, np.nan, 1.0, 0.0]), DegeneratePair),
        (lambda: compose_ocs(1, [np.nan] * 3), NonUnitCoords),
        (lambda: classify_ocs(np.full((4, 4), np.nan)), NotAComplexStructure),
        (lambda: chart([np.nan] * 3), NonUnitCoords),
    ], ids=["plane", "plane-one-nan", "compose", "classify", "chart"])
    def test_nan_is_refused(self, make, error):
        # a tolerance check that NaN fails, not one it slips through
        with pytest.raises(error) as exc:
            make()
        assert isinstance(exc.value, NumericError)


class TestPlaneToPair:
    def test_e1_e2(self):
        p, m = plane_to_pair(OrientedPlane(E(1), E(2)))
        assert np.array_equal(p.matrix, basis_I(1, 1))
        assert np.array_equal(m.matrix, basis_I(-1, 1))

    def test_e3_e4_flips_minus(self):
        p, m = plane_to_pair(OrientedPlane(E(3), E(4)))
        assert np.array_equal(p.matrix, basis_I(1, 1))
        assert np.array_equal(m.matrix, -basis_I(-1, 1))

    def test_maps_a_to_b_and_unit_coords(self, rng):
        for _ in range(200):
            plane = random_plane(rng)
            p, m = plane_to_pair(plane)
            for s in (p, m):
                assert np.max(np.abs(s.matrix @ plane.a - plane.b)) <= 1e-12
                assert abs(np.linalg.norm(s.coords) - 1.0) <= 1e-12

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePair):
            OrientedPlane(E(1), E(1))
        with pytest.raises(DegeneratePair):
            OrientedPlane(E(1), 2.0 * E(2))

    def test_rotation_in_orientation_class_fixes_pair(self, rng):
        for _ in range(50):
            plane = random_plane(rng)
            theta = rng.uniform(0, 2 * math.pi)
            a2 = math.cos(theta) * plane.a + math.sin(theta) * plane.b
            b2 = -math.sin(theta) * plane.a + math.cos(theta) * plane.b
            p1, m1 = plane_to_pair(plane)
            p2, m2 = plane_to_pair(OrientedPlane(a2, b2))
            assert np.max(np.abs(p1.matrix - p2.matrix)) <= 1e-12
            assert np.max(np.abs(m1.matrix - m2.matrix)) <= 1e-12

    def test_order_reversal_negates_both(self, rng):
        plane = random_plane(rng)
        p1, m1 = plane_to_pair(plane)
        p2, m2 = plane_to_pair(OrientedPlane(plane.b, plane.a))
        assert np.max(np.abs(p2.matrix + p1.matrix)) <= 1e-12
        assert np.max(np.abs(m2.matrix + m1.matrix)) <= 1e-12


class TestPairToPlane:
    def test_standard_pair_gives_e1e2_plane(self):
        plane = pair_to_plane(classify_ocs(basis_I(1, 1)),
                              classify_ocs(-basis_I(-1, 1) * -1.0))
        proj = np.zeros((4, 4))
        proj[0, 0] = proj[1, 1] = 1.0
        assert np.max(np.abs(plane.projector() - proj)) <= 1e-12

    def test_flipped_minus_gives_e3e4_plane(self):
        minus = classify_ocs(-basis_I(-1, 1))
        plane = pair_to_plane(classify_ocs(basis_I(1, 1)), minus)
        proj = np.zeros((4, 4))
        proj[2, 2] = proj[3, 3] = 1.0
        assert np.max(np.abs(plane.projector() - proj)) <= 1e-12

    def test_round_trip_plane_pair_plane(self, rng):
        for _ in range(100):
            plane = random_plane(rng)
            p, m = plane_to_pair(plane)
            back = pair_to_plane(p, m)
            assert np.max(np.abs(back.projector() - plane.projector())) <= 1e-10
            assert same_oriented_plane(back, plane)

    def test_same_oriented_plane_tells_orientations_apart(self, rng):
        # another basis of the plane, rotated within it, is the same oriented
        # plane; the swapped pair spans the same plane with the other one
        for _ in range(100):
            plane = random_plane(rng)
            t = rng.uniform(0, 2 * np.pi)
            a, b = plane.a, plane.b
            turned = OrientedPlane(np.cos(t) * a + np.sin(t) * b,
                                   -np.sin(t) * a + np.cos(t) * b)
            assert same_oriented_plane(turned, plane)
            assert not same_oriented_plane(OrientedPlane(b, a), plane)

    def test_round_trip_pair_plane_pair(self, rng):
        for _ in range(100):
            p = random_ocs(rng, 1)
            m = random_ocs(rng, -1)
            plane = pair_to_plane(p, m)
            p2, m2 = plane_to_pair(plane)
            assert np.max(np.abs(p2.matrix - p.matrix)) <= 1e-10
            assert np.max(np.abs(m2.matrix - m.matrix)) <= 1e-10

    def test_same_chirality_pair_has_no_plane(self):
        plus = classify_ocs(basis_I(1, 1))
        fake_minus = OrthogonalComplexStructure(basis_I(1, 2), -1,
                                                np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NoCommonPlane):
            pair_to_plane(plus, fake_minus)

    def test_chirality_checked(self):
        plus = classify_ocs(basis_I(1, 1))
        with pytest.raises(ValueError):
            pair_to_plane(plus, plus)


class TestH1H2:
    def test_identity(self):
        f = h1h2_factorize(E4)
        assert np.array_equal(f.b_quat, [1, 0, 0, 0])
        assert np.array_equal(f.c_block, np.eye(3))

    def test_pure_h1_factor(self):
        b0 = h1_matrix([0.0, 1.0, 0.0, 0.0])
        f = h1h2_factorize(b0)
        assert np.allclose(f.b_quat, [0, 1, 0, 0], atol=1e-15)
        assert np.allclose(f.c_block, np.eye(3), atol=1e-15)

    def test_construct_then_factor(self, rng):
        for _ in range(100):
            b = random_unit4(rng)
            c = random_so3(rng)
            A = h1_matrix(b) @ h2_matrix(c)
            f = h1h2_factorize(A)
            assert np.max(np.abs(f.b_quat - b)) <= 1e-10
            assert np.max(np.abs(f.c_block - c)) <= 1e-10
            assert np.max(np.abs(f.b_matrix @ f.c_matrix - A)) <= 1e-10

    def test_h1_elements_are_rotations(self, rng):
        B = random_h1(rng)
        assert np.max(np.abs(B.T @ B - E4)) <= 1e-12
        assert abs(np.linalg.det(B) - 1.0) <= 1e-12

    def test_rejects_non_rotation(self):
        with pytest.raises(NotSO4):
            h1h2_factorize(np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_h1_matrix_equals_the_table(self, rng):
        # values, not bytes: b1 E4 + sum_k b_(k+1) I[-,k] may give -0.0
        # where the table holds +0.0
        for b in [*np.eye(4), -np.eye(4)[2], np.zeros(4), [0.0, -0.0, 3.0, -2.0],
                  *(rng.normal(size=4) for _ in range(100))]:
            b1, b2, b3, b4 = b
            table = np.array([
                [b1, -b2, -b3, -b4],
                [b2, b1, b4, -b3],
                [b3, -b4, b1, b2],
                [b4, b3, -b2, b1],
            ])
            assert np.array_equal(h1_matrix(b), table)


class TestPhi:
    def test_identity_quaternion(self):
        assert np.array_equal(phi([1, 0, 0, 0]), np.eye(3))

    def test_double_cover_sign(self, rng):
        for _ in range(20):
            b = random_unit4(rng)
            assert np.array_equal(phi(b), phi(-b))

    def test_image_in_so3(self, rng):
        for _ in range(50):
            m = phi(random_unit4(rng))
            assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_homomorphism_under_h1_product(self, rng):
        for _ in range(100):
            b1 = random_unit4(rng)
            b2 = random_unit4(rng)
            prod = h1_matrix(b1) @ h1_matrix(b2)
            b12 = prod[:, 0]  # the H1 product is again H1; read its quaternion
            assert np.max(np.abs(prod - h1_matrix(b12))) <= 1e-12
            assert np.max(np.abs(phi(b12) - phi(b1) @ phi(b2))) <= 1e-12

    def test_transports_minus_wedges(self, rng):
        # columns b_i of an H1 matrix satisfy
        # (b1^b2 - b3^b4, b1^b3 - b4^b2, b1^b4 - b2^b3) = (I[-,k]) . phi(b)
        b = random_unit4(rng)
        B = h1_matrix(b)
        c = [B[:, k] for k in range(4)]
        combos = [
            wedge(c[0], c[1]) - wedge(c[2], c[3]),
            wedge(c[0], c[2]) - wedge(c[3], c[1]),
            wedge(c[0], c[3]) - wedge(c[1], c[2]),
        ]
        plus_combos = [
            wedge(c[0], c[1]) + wedge(c[2], c[3]),
            wedge(c[0], c[2]) + wedge(c[3], c[1]),
            wedge(c[0], c[3]) + wedge(c[1], c[2]),
        ]
        img = phi(b)
        for j in range(3):
            for i in range(3):
                assert abs(mat_inner(basis_I(-1, i + 1), combos[j]) - img[i, j]) <= 1e-12
            # the plus triple is fixed entirely
            assert np.max(np.abs(plus_combos[j] - basis_I(1, j + 1))) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitQuaternion):
            phi([1, 1, 0, 0])

    def test_keeps_its_own_tolerance(self, rng):
        # |b| - 1 up to EXACT_TOL is accepted, though is_special_orthogonal
        # already refuses h1_matrix(b) at |b| = 1 + 9e-11, and a b beyond it
        # is refused as a quaternion, not as a matrix outside SO(4)
        b = random_unit4(rng)
        m = phi(b * (1 + 9e-11))
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-9
        assert abs(np.linalg.det(m) - 1.0) <= 1e-9
        with pytest.raises(NonUnitQuaternion):
            phi(b * (1 + 2e-10))

    def test_equals_the_quadratic_polynomial(self, rng):
        # the entries of phi written out in b: an oracle for the conjugation
        # kernel that shares none of its basis tables
        for _ in range(200):
            b1, b2, b3, b4 = b = random_unit4(rng)
            table = np.array([
                [b1 * b1 + b2 * b2 - b3 * b3 - b4 * b4,
                 2 * b1 * b4 + 2 * b2 * b3,
                 -2 * b1 * b3 + 2 * b2 * b4],
                [-2 * b1 * b4 + 2 * b2 * b3,
                 b1 * b1 + b3 * b3 - b2 * b2 - b4 * b4,
                 2 * b1 * b2 + 2 * b3 * b4],
                [2 * b1 * b3 + 2 * b2 * b4,
                 -2 * b1 * b2 + 2 * b3 * b4,
                 b1 * b1 + b4 * b4 - b2 * b2 - b3 * b3],
            ])
            assert np.max(np.abs(phi(b) - table)) <= 1e-15


class TestPhiTilde:
    def test_identity(self):
        a, b = phi_tilde(E4)
        assert np.array_equal(a, np.eye(3))
        assert np.array_equal(b, np.eye(3))

    def test_pure_h2(self, rng):
        c = random_so3(rng)
        a, b = phi_tilde(h2_matrix(c))
        assert np.max(np.abs(a - c)) <= 1e-14
        assert np.max(np.abs(b - c)) <= 1e-14

    def test_double_cover_sign_exact(self, rng):
        for _ in range(20):
            A = random_so4(rng)
            p1, m1 = phi_tilde(A)
            p2, m2 = phi_tilde(-A)
            assert np.array_equal(p1, p2)
            assert np.array_equal(m1, m2)

    def test_homomorphism(self, rng):
        for _ in range(100):
            A1, A2 = random_so4(rng), random_so4(rng)
            p12, m12 = phi_tilde(A1 @ A2)
            p1, m1 = phi_tilde(A1)
            p2, m2 = phi_tilde(A2)
            assert np.max(np.abs(p12 - p1 @ p2)) <= 1e-11
            assert np.max(np.abs(m12 - m1 @ m2)) <= 1e-11

    def test_equals_the_factorization_route(self, rng):
        # (C, phi(b) C) for A = B C, the definition through H1 . H2
        for _ in range(100):
            A = random_so4(rng)
            f = h1h2_factorize(A)
            plus, minus = phi_tilde(A)
            assert np.max(np.abs(plus - f.c_block)) <= 1e-14
            assert np.max(np.abs(minus - phi(f.b_quat) @ f.c_block)) <= 1e-14

    def test_rejects_non_rotation(self):
        with pytest.raises(NotSO4):
            phi_tilde(np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_components_are_the_conjugation_actions(self, rng):
        # A I[eps,k] A^T expanded in the bivector basis reproduces the
        # corresponding column of the phi_tilde component.
        for _ in range(25):
            A = random_so4(rng)
            mp, mm = phi_tilde(A)
            for k in (1, 2, 3):
                cp, cm = bivector_coords(A @ basis_I(1, k) @ A.T)
                assert np.max(np.abs(cp - mp[:, k - 1])) <= 1e-12
                assert np.max(np.abs(cm)) <= 1e-12
                cp, cm = bivector_coords(A @ basis_I(-1, k) @ A.T)
                assert np.max(np.abs(cm - mm[:, k - 1])) <= 1e-12
                assert np.max(np.abs(cp)) <= 1e-12


class TestChiralityViaFrame:
    def test_plus_structure(self):
        assert chirality_via_frame(basis_I(1, 1), E(1), E(3)) == 1

    def test_minus_structure(self):
        assert chirality_via_frame(basis_I(-1, 1), E(1), E(3)) == -1

    def test_independent_of_frame_choice(self, rng):
        for _ in range(50):
            eps = 1 if rng.random() < 0.5 else -1
            s = random_ocs(rng, eps)
            results = set()
            for _ in range(2):
                u = random_unit4(rng)
                w = rng.normal(size=4)
                w -= (w @ u) * u
                Au = s.matrix @ u
                w -= (w @ Au) * Au
                up = w / np.linalg.norm(w)
                results.add(chirality_via_frame(s.matrix, u, up))
            assert results == {eps}

    def test_frame_condition_enforced(self):
        with pytest.raises(FrameConditionViolated):
            chirality_via_frame(basis_I(1, 1), E(1), E(1))
