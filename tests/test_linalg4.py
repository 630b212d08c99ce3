"""Exact algebra of vectors, wedges and basis bivectors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistor4.linalg4 import (
    E4,
    basis_I,
    basis_vector,
    bivector_coords,
    bivector_from_coords,
    det4,
    inner4,
    is_orthogonal,
    is_special_orthogonal,
    mat_inner,
    pair_coords,
    wedge,
)
from helpers import random_so4, random_unit4

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite)


def E(i):
    return basis_vector(i)


# The six I[eps, k] written out by hand: the reference the tables, which are
# built from wedges, are checked against.
I_PLUS_REF = np.array([
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
], dtype=float)

I_MINUS_REF = np.array([
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
], dtype=float)


class TestInner4:
    def test_unit_basis(self):
        assert inner4(E(1), E(1)) == 1.0
        assert inner4(E(1), E(2)) == 0.0

    def test_hand_sum(self):
        # 1*4 + 2*3 + 3*2 + 4*1
        assert inner4((1, 2, 3, 4), (4, 3, 2, 1)) == 20.0

    def test_orthogonal_invariance(self, rng):
        for _ in range(50):
            Q = random_so4(rng)
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert abs(inner4(Q @ a, Q @ b) - inner4(a, b)) <= 1e-12 * (
                1 + abs(inner4(a, b)))


class TestWedge:
    @given(vec4, vec4)
    def test_antisymmetry_exact(self, a, b):
        assert np.array_equal(wedge(a, b) + wedge(b, a), np.zeros((4, 4)))

    @given(vec4)
    def test_self_wedge_is_zero(self, a):
        assert np.array_equal(wedge(a, a), np.zeros((4, 4)))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_basis_identity(self, eps):
        # I[eps,1] = e1^e2 + eps e3^e4 and the two siblings: the tables are
        # built from wedges, so they must equal the hand-written entries
        ref = I_PLUS_REF if eps == 1 else I_MINUS_REF
        for k in (1, 2, 3):
            assert basis_I(eps, k).tobytes() == ref[k - 1].tobytes()

    def test_broadcasts_over_trailing_axes(self, rng):
        a, b = rng.normal(size=(2, 4, 5, 3))
        m = wedge(a, b)
        assert m.shape == (4, 4, 5, 3)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(m[..., i, j], wedge(a[:, i, j], b[:, i, j]))


class TestPairCoords:
    @staticmethod
    def reference(p, q, eps):
        # 2 <I[eps, k], p ^ q>, from the definition
        return np.array([2 * mat_inner(basis_I(eps, k), wedge(p, q))
                         for k in (1, 2, 3)])

    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_definition(self, rng, eps):
        for _ in range(100):
            p, q = rng.normal(size=(2, 4))
            got = pair_coords(p, q)
            assert got.shape == (2, 3)
            assert np.max(np.abs(got[(1 - eps) // 2]
                                 - self.reference(p, q, eps))) <= 1e-14 * (
                1 + np.linalg.norm(p) * np.linalg.norm(q))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_broadcasts_over_a_batch(self, rng, eps):
        p, q = rng.normal(size=(2, 4, 7))
        got = pair_coords(p, q)[(1 - eps) // 2]
        assert got.shape == (3, 7)
        for i in range(7):
            ref = self.reference(p[:, i], q[:, i], eps)
            assert np.max(np.abs(got[:, i] - ref)) <= 1e-13

    @pytest.mark.parametrize("eps", [1, -1])
    def test_bilinear_over_complex(self, rng, eps):
        p, q = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        expect = (self.reference(p.real, q.real, eps)
                  - self.reference(p.imag, q.imag, eps)
                  + 1j * (self.reference(p.real, q.imag, eps)
                          + self.reference(p.imag, q.real, eps)))
        got = pair_coords(p, q)[(1 - eps) // 2]
        assert np.max(np.abs(got - expect)) <= 1e-13

    @pytest.mark.parametrize("eps", [1, -1])
    def test_each_slice_is_the_one_chirality_formula(self, rng, eps):
        # minors (i, j) and (l, m) of _PAIRS's pattern, summed with eps:
        # exact on reals, signed zeros and a field with a trailing axis
        p, q = rng.normal(size=(2, 4, 5))
        p[2:, 0] = q[:, 0] = 0.0
        p[:, 1] = -0.0
        want = np.array([p[i] * q[j] - p[j] * q[i]
                         + eps * (p[l] * q[m] - p[m] * q[l])
                         for i, j, l, m in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))])
        got = pair_coords(p, q)[(1 - eps) // 2]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBasisI:
    def test_plus_one_entries(self):
        m = basis_I(1, 1)
        assert m[1, 0] == 1.0 and m[3, 2] == 1.0
        assert np.array_equal(m, -m.T)

    def test_minus_one_entries(self):
        m = basis_I(-1, 1)
        assert m[1, 0] == 1.0 and m[2, 3] == 1.0

    def test_all_square_to_minus_identity(self):
        for eps in (1, -1):
            for k in (1, 2, 3):
                m = basis_I(eps, k)
                assert np.array_equal(m @ m, -E4)

    def test_orthonormality_all_36_pairs_exact(self):
        for e1 in (1, -1):
            for k1 in (1, 2, 3):
                for e2 in (1, -1):
                    for k2 in (1, 2, 3):
                        val = mat_inner(basis_I(e1, k1), basis_I(e2, k2))
                        expect = 1.0 if (e1, k1) == (e2, k2) else 0.0
                        assert val == expect

    def test_chirality_subspaces_perpendicular(self):
        assert mat_inner(basis_I(1, 1), basis_I(-1, 2)) == 0.0

    def test_basis_is_special_orthogonal(self):
        m = basis_I(1, 1)
        assert is_orthogonal(m)
        assert is_special_orthogonal(m)
        assert abs(det4(m) - 1.0) <= 1e-14


class TestMatInner:
    def test_identity_norm(self):
        assert mat_inner(E4, E4) == 1.0

    def test_basis_norm(self):
        assert mat_inner(basis_I(1, 1), basis_I(1, 1)) == 1.0


class TestBivectorCoords:
    def test_basis_element(self):
        cp, cm = bivector_coords(basis_I(1, 2))
        assert np.array_equal(cp, [0.0, 1.0, 0.0])
        assert np.array_equal(cm, [0.0, 0.0, 0.0])

    def test_plain_wedge_splits_evenly(self):
        # e1^e2 = (I[+,1] + I[-,1]) / 2
        cp, cm = bivector_coords(wedge(E(1), E(2)))
        assert np.allclose(cp, [0.5, 0, 0], atol=1e-15)
        assert np.allclose(cm, [0.5, 0, 0], atol=1e-15)

    def test_zero(self):
        cp, cm = bivector_coords(np.zeros((4, 4)))
        assert not cp.any() and not cm.any()

    def test_round_trip_random_wedges(self, rng):
        for _ in range(100):
            m = wedge(rng.normal(size=4), rng.normal(size=4))
            cp, cm = bivector_coords(m)
            assert np.max(np.abs(bivector_from_coords(cp, cm) - m)) <= 1e-14 * (
                1 + np.max(np.abs(m)))

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            bivector_coords(E4)


class TestPredicates:
    def test_identity(self):
        assert is_orthogonal(E4)
        assert is_special_orthogonal(E4)

    def test_reflection(self):
        m = np.diag([1.0, 1.0, 1.0, -1.0])
        assert is_orthogonal(m)
        assert not is_special_orthogonal(m)
        assert det4(m) == -1.0

    def test_random_rotations(self, rng):
        for _ in range(20):
            assert is_special_orthogonal(random_so4(rng))

    def test_scaled_matrix_is_not_orthogonal(self):
        assert not is_orthogonal(2 * E4)

    def test_random_unit_columns_not_enough(self, rng):
        a = np.column_stack([random_unit4(rng) for _ in range(4)])
        # generically dependent-ish columns: just exercise the negative path
        assert is_orthogonal(a) == (np.max(np.abs(a.T @ a - E4)) <= 1e-10)
