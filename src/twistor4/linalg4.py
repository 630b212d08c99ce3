"""Small exact linear algebra for Euclidean 4-space.

Vectors are numpy arrays of shape (4,), matrices of shape (4, 4); a field of
vectors over points has its components first, (4, ...).  The wedge
product of two vectors is stored as a full alternating 4x4 matrix; the space
of such matrices is 6-dimensional and carries the quarter-trace inner product
<A, B> = tr(A^T B) / 4, under which the six basis bivectors I[eps, k]
(eps = +1/-1, k = 1..3) are orthonormal.  The +1 triple spans a 3-space
orthogonal to the -1 triple.

This module is the one home of the I[eps, k] layout, stacked over eps at
index (1 - eps) // 2: it builds their tables from the definition and holds
`pair_coords`, the one kernel for coordinates of a wedge in that basis, both
chiralities at once (a plane's structure pair, the lifts from psi).

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "E4",
    "CHIRALITIES",
    "basis_vector",
    "inner4",
    "wedge",
    "pair_coords",
    "mat_inner",
    "basis_I",
    "basis_I_stack",
    "bivector_coords",
    "bivector_from_coords",
    "det4",
    "is_orthogonal",
    "is_special_orthogonal",
]

E4 = np.eye(4)

CHIRALITIES = (1, -1)

# Tolerances of the algebraic checks: EXACT_TOL of identities that exact
# formulas hold to roundoff; DERIVED_TOL where roundoff compounds (a
# determinant, an SVD's rank, unit vectors or pairs from jets or a caller).
EXACT_TOL = 1e-10
DERIVED_TOL = 1e-8


def basis_vector(i: int) -> np.ndarray:
    """Standard basis vector e_i, i in 1..4."""
    if not 1 <= i <= 4:
        raise ValueError("basis index must be in 1..4")
    return E4[i - 1].copy()


def inner4(a, b) -> float:
    """Euclidean inner product a^1 b^1 + ... + a^4 b^4."""
    return float(np.dot(np.asarray(a, float), np.asarray(b, float)))


def wedge(a, b) -> np.ndarray:
    """Wedge product a ^ b = b a^T - a b^T (an alternating matrix), over
    the trailing axes of a[4, ...] and b[4, ...]: shape (4, 4, ...)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return b[:, None] * a[None] - a[:, None] * b[None]


# I[eps, k] = e_i ^ e_j + eps e_l ^ e_m for (i, j, l, m) = _PAIRS[k - 1], 0-based,
# stacked as _I_STACKS[(1 - eps) // 2, k - 1]
_PAIRS = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_I_STACKS = np.array([[wedge(E4[i], E4[j]) + eps * wedge(E4[l], E4[m])
                       for i, j, l, m in _PAIRS] for eps in CHIRALITIES])


def pair_coords(p, q) -> np.ndarray:
    """B[(1 - eps) // 2, k, ...] = 2 <I[eps, k], p ^ q> = A_k + eps B_k for the
    minors A_k of e_i ^ e_j and B_k of e_l ^ e_m (e.g. A_1 = p^1 q^2 - p^2 q^1),
    bilinear in p[4, ...], q[4, ...] (real or complex), broadcast over the rest."""
    p, q = np.asarray(p), np.asarray(q)
    out = np.empty((2, 3) + np.broadcast_shapes(p.shape[1:], q.shape[1:]),
                   np.result_type(p, q))
    for k, (i, j, l, m) in enumerate(_PAIRS):
        a, b = p[i] * q[j] - p[j] * q[i], p[l] * q[m] - p[m] * q[l]
        out[0, k], out[1, k] = a + b, a - b
    return out


def mat_inner(A, B) -> float:
    """Quarter-trace inner product tr(A^T B) / 4 on 4x4 matrices."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    return float(np.trace(A.T @ B)) / 4.0


def basis_I(eps: int, k: int) -> np.ndarray:
    """Basis bivector I[eps, k] with eps = +1/-1 and k in 1..3.

    I[eps, 1] = e1 ^ e2 + eps e3 ^ e4,
    I[eps, 2] = e1 ^ e3 + eps e4 ^ e2,
    I[eps, 3] = e1 ^ e4 + eps e2 ^ e3.
    """
    if not 1 <= k <= 3:
        raise ValueError("basis index k must be in 1..3")
    return basis_I_stack(eps)[k - 1]


def basis_I_stack(eps: int) -> np.ndarray:
    """The three I[eps, k] stacked into shape (3, 4, 4)."""
    if eps not in CHIRALITIES:
        raise ValueError(f"chirality must be +1 or -1, got {eps!r}")
    return _I_STACKS[(1 - eps) // 2].copy()


def bivector_coords(m):
    """Coordinates of an alternating matrix in the orthonormal basis
    {I[+,k]} u {I[-,k]}.

    Returns (cplus, cminus), each of shape (3,), with
    m = sum_k cplus[k] I[+,k] + sum_k cminus[k] I[-,k].
    """
    m = np.asarray(m, float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.max(np.abs(m + m.T)) <= EXACT_TOL:
        raise ValueError("matrix is not alternating")
    return tuple(np.array([mat_inner(I, m) for I in stack]) for stack in _I_STACKS)


def bivector_from_coords(cplus, cminus) -> np.ndarray:
    """Inverse of :func:`bivector_coords`."""
    return np.einsum("ek,ekij->ij", np.array([cplus, cminus], float), _I_STACKS)


def det4(A) -> float:
    return float(np.linalg.det(np.asarray(A, float)))


def is_orthogonal(A) -> bool:
    A = np.asarray(A, float)
    return bool(np.max(np.abs(A.T @ A - E4)) <= EXACT_TOL)


def is_special_orthogonal(A) -> bool:
    return is_orthogonal(A) and abs(det4(A) - 1.0) <= DERIVED_TOL
