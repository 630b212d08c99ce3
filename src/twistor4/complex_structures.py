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

from dataclasses import dataclass, field

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
from .linalg4 import E4, basis_I_stack, det4, is_special_orthogonal

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


@dataclass(frozen=True, eq=False)
class OrthogonalComplexStructure:
    """An element of one chirality sphere: matrix, chirality and the unit
    coordinate vector in the I[eps, k] basis."""

    matrix: np.ndarray
    chirality: int
    coords: np.ndarray

    @property
    def sign(self) -> str:
        return "+" if self.chirality == 1 else "-"


@dataclass(frozen=True, eq=False)
class OrientedPlane:
    """An ordered orthonormal pair (a, b) representing an oriented 2-plane.

    The representative pair is not unique; planes are compared through their
    projectors plus the chirality pair, see :func:`same_oriented_plane`.
    """

    a: np.ndarray
    b: np.ndarray
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, float)
        b = np.asarray(self.b, float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if (abs(a @ a - 1.0) > self.tol or abs(b @ b - 1.0) > self.tol
                or abs(a @ b) > self.tol):
            raise DegeneratePair(
                "representative pair is not orthonormal within tolerance")

    def projector(self) -> np.ndarray:
        return np.outer(self.a, self.a) + np.outer(self.b, self.b)


def _check_structure_matrix(A: np.ndarray, tol: float) -> None:
    if np.max(np.abs(A.T @ A - E4)) > tol:
        raise NotAComplexStructure("matrix is not orthogonal")
    if np.max(np.abs(A @ A + E4)) > tol:
        raise NotAComplexStructure("matrix squared is not minus the identity")


def classify_ocs(A, tol: float = 1e-10) -> OrthogonalComplexStructure:
    """Recover (chirality, coords) of an orthogonal complex structure.

    The matrix is necessarily alternating, so the coordinates can be read off
    the first column; the chirality comes from the orientation of the lower
    2x2 pair of the second column relative to the first (or, when that pair
    is too small, from the sign pattern tying entry (4,3) to entry (2,1)).
    """
    A = np.asarray(A, float)
    _check_structure_matrix(A, tol)
    c = np.array([A[1, 0], A[2, 0], A[3, 0]])
    if A[2, 0] ** 2 + A[3, 0] ** 2 >= 0.5:
        s = A[2, 1] * A[3, 0] - A[3, 1] * A[2, 0]
        eps = 1 if s > 0 else -1
    else:
        eps = 1 if A[3, 2] * A[1, 0] > 0 else -1
    recon = np.einsum("k,kij->ij", c, basis_I_stack(eps))
    if np.max(np.abs(recon - A)) > 20 * tol:
        raise NotAComplexStructure(
            "matrix does not decompose over a single chirality basis")
    return OrthogonalComplexStructure(A.copy(), eps, c)


def compose_ocs(eps: int, coords, tol: float = 1e-10) -> OrthogonalComplexStructure:
    """Build the structure with given chirality and unit sphere coordinates."""
    c = np.asarray(coords, float)
    if c.shape != (3,):
        raise ValueError("coords must have shape (3,)")
    if abs(np.linalg.norm(c) - 1.0) > tol:
        raise NonUnitCoords(f"|coords| = {np.linalg.norm(c)!r} is not 1")
    if eps not in (1, -1):
        raise ValueError("chirality must be +1 or -1")
    A = np.einsum("k,kij->ij", c, basis_I_stack(eps))
    return OrthogonalComplexStructure(A, eps, c.copy())


def plane_to_pair(plane: OrientedPlane, tol: float = 1e-8):
    """The unique pair (A+, A-) of structures mapping plane.a to plane.b.

    For a = (a^i), b = (b^i) the sphere coordinates are

        c_eps^1 = a^1 b^2 - a^2 b^1 + eps (a^3 b^4 - a^4 b^3)
        c_eps^2 = a^1 b^3 - a^3 b^1 + eps (a^4 b^2 - a^2 b^4)
        c_eps^3 = a^1 b^4 - a^4 b^1 + eps (a^2 b^3 - a^3 b^2)

    and come out unit automatically.
    """
    a, b = plane.a, plane.b
    out = []
    for eps in (1, -1):
        c = np.array([
            a[0] * b[1] - a[1] * b[0] + eps * (a[2] * b[3] - a[3] * b[2]),
            a[0] * b[2] - a[2] * b[0] + eps * (a[3] * b[1] - a[1] * b[3]),
            a[0] * b[3] - a[3] * b[0] + eps * (a[1] * b[2] - a[2] * b[1]),
        ])
        out.append(compose_ocs(eps, c, tol=max(tol, 1e-10)))
    return out[0], out[1]


def pair_to_plane(plus: OrthogonalComplexStructure,
                  minus: OrthogonalComplexStructure,
                  rank_tol: float = 1e-8) -> OrientedPlane:
    """Common oriented plane of a (+, -) pair of structures.

    The plane is the set of x with A+ x = A- x, i.e. the kernel of
    A- A+ + E4, which is exactly 2-dimensional for a valid pair.  Returns
    (u, A+ u) for a unit kernel vector u.
    """
    if plus.chirality != 1 or minus.chirality != -1:
        raise ValueError("expected a (+, -) pair of structures")
    K = minus.matrix @ plus.matrix + E4
    _, s, vt = np.linalg.svd(K)
    if not (s[2] <= rank_tol and s[1] > rank_tol):
        raise NoCommonPlane(
            f"kernel of the pair is not 2-dimensional (singular values {s})")
    u = vt[3]
    return OrientedPlane(u, plus.matrix @ u)


def same_oriented_plane(p: OrientedPlane, q: OrientedPlane,
                        tol: float = 1e-10) -> bool:
    """Equality of oriented planes: same projector and same structure pair."""
    if np.max(np.abs(p.projector() - q.projector())) > tol:
        return False
    pp, pm = plane_to_pair(p)
    qp, qm = plane_to_pair(q)
    return (np.max(np.abs(pp.matrix - qp.matrix)) <= tol
            and np.max(np.abs(pm.matrix - qm.matrix)) <= tol)


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


def h1h2_factorize(A, tol: float = 1e-10) -> SO4Factorization:
    """Unique factorization A = B C with B in H1 and C in H2.

    B is pinned by the first column of A (which equals B e1 = b), then
    C = B^T A must fix e1 on both sides.
    """
    A = np.asarray(A, float)
    if not is_special_orthogonal(A, tol):
        raise NotSO4("matrix is not in SO(4) within tolerance")
    b = A[:, 0].copy()
    B = h1_matrix(b)
    C = B.T @ A
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    if max(np.max(np.abs(C[0] - e1)), np.max(np.abs(C[:, 0] - e1))) > 10 * tol:
        raise FactorizationFailed("H2 factor does not stabilize e1")
    c_block = C[1:, 1:].copy()
    if np.max(np.abs(c_block.T @ c_block - np.eye(3))) > 10 * tol:
        raise FactorizationFailed("H2 block is not orthogonal")
    return SO4Factorization(b, c_block)


def phi(b_quat, tol: float = 1e-10) -> np.ndarray:
    """Double cover H1 -> SO(3); phi(b) = phi(-b).

    The image describes how the H1 element with first column b rotates the
    minus-chirality bivector triple.
    """
    b = np.asarray(b_quat, float)
    if abs(np.linalg.norm(b) - 1.0) > tol:
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


def phi_tilde(A, tol: float = 1e-10):
    """Double cover SO(4) -> SO(3) x SO(3) through the H1 . H2 factorization.

    The two components are the actions of A, by conjugation, on the plus and
    minus bivector triples: (C, phi(b) C) for A = B C.
    """
    f = h1h2_factorize(A, tol)
    return f.c_block.copy(), phi(f.b_quat, tol=10 * tol) @ f.c_block


def chirality_via_frame(A, u, uprime, tol: float = 1e-8) -> int:
    """Chirality of a structure A read off det [u  Au  u'  Au'].

    u, u' must be unit with u' orthogonal to both u and Au; the determinant
    is then +-1 independently of the choice of u, u'.
    """
    A = np.asarray(A, float)
    _check_structure_matrix(A, max(tol, 1e-10))
    u = np.asarray(u, float)
    up = np.asarray(uprime, float)
    Au = A @ u
    if (abs(u @ u - 1.0) > tol or abs(up @ up - 1.0) > tol
            or abs(up @ u) > tol or abs(up @ Au) > tol):
        raise FrameConditionViolated(
            "u, u' do not satisfy the frame conditions")
    X = np.column_stack([u, Au, up, A @ up])
    return 1 if det4(X) > 0 else -1
