"""Shared random generators and small oracles for the test suite."""

import math

import numpy as np

from twistor4.catalog import CATALOG
from twistor4.surface_expr import expr_text, parse_surface
from twistor4.complex_structures import (
    OrientedPlane,
    compose_ocs,
    h1_matrix,
    h2_matrix,
)


def unit(v):
    return v / np.linalg.norm(v)


def random_unit3(rng):
    return unit(rng.normal(size=3))


def random_unit4(rng):
    return unit(rng.normal(size=4))


def random_orthonormal_pair(rng):
    a = random_unit4(rng)
    w = rng.normal(size=4)
    b = unit(w - (w @ a) * a)
    return a, b


def random_plane(rng):
    a, b = random_orthonormal_pair(rng)
    return OrientedPlane(a, b)


def random_ocs(rng, eps):
    return compose_ocs(eps, random_unit3(rng))


def random_so3(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_so4(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_h1(rng):
    return h1_matrix(random_unit4(rng))


def random_h2(rng):
    return h2_matrix(random_so3(rng))


def hoffman_osserman(g1, g2):
    """'f1, f2, f3, f4' text of the minimal surface F = Re of the integral of
    phi dz, z = u + iv, phi = (1 + g1 g2, i(1 - g1 g2), g1 - g2,
    -i(g1 + g2)) / 2, for polynomials g1, g2 given by complex coefficients,
    lowest degree first: sum phi_k^2 = 0, so F is conformal and minimal
    (Hoffman and Osserman, Proc. LMS 50, 1985).  Each component is expanded
    into monomials: Re a_k (u + iv)^k = sum_j Re(a_k C(k, j) i^j) u^(k-j) v^j."""
    g1, g2 = np.polynomial.Polynomial(g1), np.polynomial.Polynomial(g2)
    phi = (1 + g1 * g2, 1j * (1 - g1 * g2), g1 - g2, -1j * (g1 + g2))
    comps = []
    for a in ((f / 2).integ().coef for f in phi):
        monomials = []
        for k, ak in enumerate(a):
            for j in range(k + 1):
                c = float((ak * math.comb(k, j) * 1j ** j).real)
                powers = [f"{x}^{m}" if m > 1 else x
                          for x, m in (("u", k - j), ("v", j)) if m]
                if c:
                    monomials.append("*".join([repr(c), *powers]))
        comps.append(" + ".join(monomials))
    return ", ".join(comps)


# Coefficients (g1, g2) of two Hoffman-Osserman members on [-0.5, 0.5]^2
# whose Gauss maps both move, so neither is isotropic: the first takes the
# seed-e3 frame, the second the seed-e2 one, since e3 comes within 1e-2 of
# some of its tangent planes.
HO_SEED_E3 = ([0.25 + 0.27j, -0.88 + 0.40j, 0.02 - 0.25j],
              [0.73 + 0.37j, -0.53 + 0.02j, -0.26 + 0.80j])
HO_SEED_E2 = ([0.6 - 0.17j, -0.36 + 0.3j, -0.4 - 0.16j, -0.16 - 0.08j],
              [-0.49 + 0.72j, 0.66 + 0.32j, 0.2 + 0.6j])
HO_DOMAIN = (-0.5, 0.5, -0.5, 0.5)


def catalog_text(name):
    """'f1, f2, f3, f4' text of a catalog surface."""
    return ", ".join(map(expr_text, CATALOG[name].surface.components))


def rigid_motion(text, seed):
    """('f1, f2, f3, f4' text of R F + a, R) for the surface F of text and a
    rotation R in SO(4) and a translation a drawn from seed."""
    rng = np.random.default_rng(seed)
    r, a = random_so4(rng), rng.normal(size=4)
    fs = [expr_text(f) for f in parse_surface(text).components]
    return ", ".join(" + ".join([*(f"{x!r}*{f}" for x, f in zip(row.tolist(), fs)),
                                 repr(float(ai))])
                     for row, ai in zip(r, a)), r


# A point of E^4 off every catalog surface, the centre of the tests' inversions.
INVERSION_CENTRE = (0.3, 0.2, 2.0, 0.7)


def inversion(text, p=INVERSION_CENTRE):
    """'f1, f2, f3, f4' text of p + (F - p) / |F - p|^2, the inversion about
    p of the surface F of text: a conformal map of E^4 that reverses its
    orientation, so it keeps isothermal coordinates isothermal."""
    d = [f"({expr_text(f)} - {x!r})"
         for f, x in zip(parse_surface(text).components, p)]
    r2 = " + ".join(f"{dk}^2" for dk in d)
    return ", ".join(f"{x!r} + {dk}/({r2})" for x, dk in zip(p, d))


def random_catalog_point(rng, names=None, margin=0.05):
    """A random interior parameter point of a random catalog surface."""
    if names is None:
        names = list(CATALOG)
    name = names[rng.integers(len(names))]
    surface = CATALOG[name].surface
    u0, u1, v0, v1 = surface.domain
    du, dv = u1 - u0, v1 - v0
    u = rng.uniform(u0 + margin * du, u1 - margin * du)
    v = rng.uniform(v0 + margin * dv, v1 - margin * dv)
    return name, surface, u, v
