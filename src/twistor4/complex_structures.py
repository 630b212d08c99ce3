"""Orthogonal complex structures of E^4 and the oriented-2-plane correspondence.

An orthogonal complex structure is a matrix A with A^T A = E4 and
A^2 = -E4.  Each such A is alternating and decomposes as

    A = c^1 I[eps,1] + c^2 I[eps,2] + c^3 I[eps,3],    |c| = 1,

for exactly one chirality eps, so each chirality class is a unit 2-sphere in
the corresponding bivector 3-space.  Ordered orthonormal pairs (a, b) span
oriented 2-planes; each oriented plane determines one structure of either
chirality mapping a to b, and conversely a (+,-) pair of structures shares a
unique oriented plane.  The module also provides the H1 * H2 factorization of
SO(4) and the two double covers onto SO(3) and SO(3) x SO(3) built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePair,
    FactorizationFailed,
    FrameConditionViolated,
    NoCommonPlane,
    NonUnitCoords,
    NonUnitQuaternion,
    NotAComplexStructure,
    NotSO4,
)
from .linalg4 import (CHIRALITIES, DERIVED_TOL, E4, EXACT_TOL, _I_STACKS,
                      basis_I_stack, det4, is_special_orthogonal, pair_coords)

__all__ = [
    "OrthogonalComplexStructure",
    "OrientedPlane",
    "SO4Factorization",
    "classify_ocs",
    "compose_ocs",
    "plane_to_pair",
    "pair_to_plane",
    "same_oriented_plane",
    "h1_matrix",
    "h2_matrix",
    "h1h2_factorize",
    "phi",
    "phi_tilde",
    "chirality_via_frame",
]

_HALF_ROWS, _HALF_COLS = np.array([[3, 1, 2], [2, 3, 1]])  # (4,3), (2,4), (3,2)


@dataclass(frozen=True, eq=False)
class OrthogonalComplexStructure:
    """An element of one chirality sphere: matrix, chirality and the unit
    coordinate vector in the I[eps, k] basis."""

    matrix: np.ndarray
    chirality: int
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class OrientedPlane:
    """An ordered orthonormal pair (a, b) representing an oriented 2-plane.

    The representative pair is not unique; planes are compared through their
    projectors plus the chirality pair, see :func:`same_oriented_plane`.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, float)
        b = np.asarray(self.b, float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not np.max(np.abs([a @ a - 1.0, b @ b - 1.0, a @ b])) <= DERIVED_TOL:
            raise DegeneratePair(
                "representative pair is not orthonormal within tolerance")

    def projector(self) -> np.ndarray:
        return np.outer(self.a, self.a) + np.outer(self.b, self.b)


def _check_structure_matrix(A: np.ndarray, tol: float) -> None:
    if not np.abs(A.swapaxes(-1, -2) @ A - E4).max() <= tol:
        raise NotAComplexStructure("matrix is not orthogonal")
    if not np.abs(A @ A + E4).max() <= tol:
        raise NotAComplexStructure("matrix squared is not minus the identity")


def classify_ocs(A) -> OrthogonalComplexStructure:
    """Recover (chirality, coords) of an orthogonal complex structure; for a
    stack A[..., 4, 4], arrays of both over its leading axes, every matrix
    checked.

    The matrix is necessarily alternating, so the coordinates can be read off
    the first column, where each I[eps, k] holds its e_1 ^ e_(k+1) part.  The
    entries (4,3), (2,4), (3,2) hold the eps halves, eps c, in either basis,
    so their inner product with c is eps |c|^2 = eps.
    """
    A = np.array(A, float)
    _check_structure_matrix(A, EXACT_TOL)
    c = A[..., 1:, 0]
    eps = np.where((c * A[..., _HALF_ROWS, _HALF_COLS]).sum(-1) > 0, 1, -1)
    recon = np.einsum("...k,...kij->...ij", c, _I_STACKS[(1 - eps) // 2])
    if not np.abs(recon - A).max() <= 20 * EXACT_TOL:
        raise NotAComplexStructure(
            "matrix does not decompose over a single chirality basis")
    return OrthogonalComplexStructure(A, eps if eps.ndim else int(eps), c)


def compose_ocs(eps: int, coords) -> OrthogonalComplexStructure:
    """Build the structure with given chirality and unit sphere coordinates."""
    return _compose_ocs(eps, coords, EXACT_TOL)


def _compose_ocs(eps, coords, tol) -> OrthogonalComplexStructure:
    # plane_to_pair and the twistor lifts pass coordinates unit to DERIVED_TOL
    c = np.asarray(coords, float)
    if c.shape != (3,):
        raise ValueError("coords must have shape (3,)")
    if not abs(np.linalg.norm(c) - 1.0) <= tol:
        raise NonUnitCoords(f"|coords| = {np.linalg.norm(c)!r} is not 1")
    A = np.einsum("k,kij->ij", c, basis_I_stack(eps))
    return OrthogonalComplexStructure(A, eps, c.copy())


def plane_to_pair(plane: OrientedPlane):
    """The unique pair (A+, A-) of structures mapping plane.a to plane.b.

    The sphere coordinates are pair_coords(a, b), the coordinates
    2 <I[eps, k], a ^ b> of the plane's bivector for both chiralities, and
    come out unit automatically.
    """
    return tuple(_compose_ocs(eps, c, DERIVED_TOL)
                 for eps, c in zip(CHIRALITIES, pair_coords(plane.a, plane.b)))


def pair_to_plane(plus: OrthogonalComplexStructure,
                  minus: OrthogonalComplexStructure) -> OrientedPlane:
    """Common oriented plane of a (+, -) pair of structures.

    The plane is the set of x with A+ x = A- x, i.e. the kernel of
    A- A+ + E4, which is exactly 2-dimensional for a valid pair.  Returns
    (u, A+ u) for a unit kernel vector u.
    """
    if plus.chirality != 1 or minus.chirality != -1:
        raise ValueError("expected a (+, -) pair of structures")
    K = minus.matrix @ plus.matrix + E4
    _, s, vt = np.linalg.svd(K)
    if not (s[2] <= DERIVED_TOL and s[1] > DERIVED_TOL):
        raise NoCommonPlane(
            f"kernel of the pair is not 2-dimensional (singular values {s})")
    u = vt[3]
    return OrientedPlane(u, plus.matrix @ u)


def same_oriented_plane(p: OrientedPlane, q: OrientedPlane) -> bool:
    """Equality of oriented planes: same projector and same structure pair,
    compared through its coordinates pair_coords(a, b), since each entry of
    its matrices is one of them, negated or not, or 0."""
    if np.max(np.abs(p.projector() - q.projector())) > EXACT_TOL:
        return False
    return bool(np.abs(pair_coords(p.a, p.b) - pair_coords(q.a, q.b)).max() <= EXACT_TOL)


# --- SO(4) = H1 . H2 and the double covers ---------------------------------

def h1_matrix(b) -> np.ndarray:
    """The H1 (unit quaternion) matrix with first column b = (b1, b2, b3, b4)."""
    b1, b2, b3, b4 = np.asarray(b, float)
    return np.array([
        [b1, -b2, -b3, -b4],
        [b2, b1, b4, -b3],
        [b3, -b4, b1, b2],
        [b4, b3, -b2, b1],
    ])


def h2_matrix(c_block) -> np.ndarray:
    """The H2 (stabilizer of e1) matrix with lower 3x3 block c_block."""
    C = np.eye(4)
    C[1:, 1:] = np.asarray(c_block, float)
    return C


@dataclass(frozen=True, eq=False)
class SO4Factorization:
    b_quat: np.ndarray    # defines the H1 factor
    c_block: np.ndarray   # 3x3 SO(3) block of the H2 factor

    @property
    def b_matrix(self) -> np.ndarray:
        return h1_matrix(self.b_quat)

    @property
    def c_matrix(self) -> np.ndarray:
        return h2_matrix(self.c_block)


def h1h2_factorize(A) -> SO4Factorization:
    """Unique factorization A = B C with B in H1 and C in H2.

    B is pinned by the first column of A (which equals B e1 = b), then
    C = B^T A must fix e1 on both sides.
    """
    A = np.asarray(A, float)
    if not is_special_orthogonal(A):
        raise NotSO4("matrix is not in SO(4) within tolerance")
    b = A[:, 0].copy()
    B = h1_matrix(b)
    C = B.T @ A
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    if not np.max(np.abs([C[0] - e1, C[:, 0] - e1])) <= 10 * EXACT_TOL:
        raise FactorizationFailed("H2 factor does not stabilize e1")
    c_block = C[1:, 1:].copy()
    if not np.max(np.abs(c_block.T @ c_block - np.eye(3))) <= 10 * EXACT_TOL:
        raise FactorizationFailed("H2 block is not orthogonal")
    return SO4Factorization(b, c_block)


def phi(b_quat) -> np.ndarray:
    """Double cover H1 -> SO(3); phi(b) = phi(-b).

    The image describes how the H1 element with first column b rotates the
    minus-chirality bivector triple.
    """
    b = np.asarray(b_quat, float)
    if not abs(np.linalg.norm(b) - 1.0) <= EXACT_TOL:
        raise NonUnitQuaternion(f"|b| = {np.linalg.norm(b)!r} is not 1")
    b1, b2, b3, b4 = b
    return np.array([
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


def phi_tilde(A):
    """Double cover SO(4) -> SO(3) x SO(3) through the H1 . H2 factorization.

    The two components are the actions of A, by conjugation, on the plus and
    minus bivector triples: (C, phi(b) C) for A = B C.
    """
    f = h1h2_factorize(A)
    return f.c_block.copy(), phi(f.b_quat) @ f.c_block


def chirality_via_frame(A, u, uprime) -> int:
    """Chirality of a structure A read off det [u  Au  u'  Au'].

    u, u' must be unit with u' orthogonal to both u and Au; the determinant
    is then +-1 independently of the choice of u, u'.
    """
    A = np.asarray(A, float)
    _check_structure_matrix(A, DERIVED_TOL)
    u = np.asarray(u, float)
    up = np.asarray(uprime, float)
    Au = A @ u
    if not np.max(np.abs([u @ u - 1.0, up @ up - 1.0, up @ u,
                          up @ Au])) <= DERIVED_TOL:
        raise FrameConditionViolated(
            "u, u' do not satisfy the frame conditions")
    X = np.column_stack([u, Au, up, A @ up])
    return 1 if det4(X) > 0 else -1
