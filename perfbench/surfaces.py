"""Seeded benchmark inputs and the closed forms that the output checks use.

Every surface is a `Case`: how to name it to the program (a catalog name, or
an expression string plus domain) and what the benchmark itself knows about
it in closed form -- the first fundamental form, |H|, isothermality and the
expected isotropy verdict.  None of the expectations is read from the
program.

Generated surfaces are graphs F = (u, v, Re f(w), Im f(w)) and mirrors
F = (u, v, Re f(w), -Im f(w)) with w = u + iv and f = sum_{k=2..d} a_k w^k.
Both are isotropic minimal surfaces: the + lift of a graph and the - lift of
a mirror is constant, equal to the lift (1, 0, 0) of the coordinate plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# One generated surface per degree d = 2..5: graphs for even d, mirrors for
# odd d, so each round holds both kinds and every degree once.
GENERATED = ((2, "graph"), (3, "mirror"), (4, "graph"), (5, "mirror"))
GEN_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
# sup |f'| on the domain is at most MAX_SLOPE: a_k is scaled by
# 1 / (k r^(k-1) (d-1)) with r = sup |w|, and |rho_k| <= 1.
MAX_SLOPE = 0.3

CATALOG_NAMES = ("plane", "holo_square", "holo_cube", "clifford_torus",
                 "catenoid_E3", "round_sphere", "nonisothermal_graph")
HELICOID_TEXT = "sinh(v)*cos(u), sinh(v)*sin(u), u, 0"
HELICOID_DOMAIN = (-1.0, 1.0, 0.3, 1.3)


@dataclass(frozen=True)
class Case:
    """One input surface and its closed-form expectations."""

    label: str
    catalog: Optional[str]           # catalog name, or None for --expr
    text: Optional[str]              # "f1, f2, f3, f4" when catalog is None
    domain: tuple
    metric: Callable                 # (u, v) arrays -> (g11, g12, g22)
    mean_curvature: Optional[float]  # |H| everywhere, None if not checked
    isothermal: bool
    constant_lift: str               # '+', '-', 'both' or 'none'

    @property
    def minimal(self) -> bool:
        return self.mean_curvature == 0.0

    @property
    def isotropic(self) -> bool:
        return self.constant_lift != "none"

    def cli_args(self) -> list:
        if self.catalog is not None:
            return ["--surface", self.catalog]
        return ["--expr", self.text, "--domain", *map(repr, self.domain)]


def _graph_metric(coeffs):
    """g11 = g22 = 1 + |f'(w)|^2, g12 = 0 for f = sum_k a_k w^k, k >= 2."""
    poly = np.array([0.0, 0.0, *coeffs], dtype=complex)[::-1]  # highest first
    dpoly = np.polyder(poly)

    def metric(u, v):
        g = 1.0 + np.abs(np.polyval(dpoly, np.asarray(u) + 1j * np.asarray(v))) ** 2
        return g, np.zeros_like(g), g
    return metric


def _conformal(factor):
    def metric(u, v):
        g = factor(np.asarray(u, float), np.asarray(v, float))
        return g, np.zeros_like(g), g
    return metric


def _nonisothermal(u, v):
    """F = (u, v, u^2, v^2): F_u = (1, 0, 2u, 0) and F_v = (0, 1, 0, 2v)."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return 1.0 + 4.0 * u * u, 0.0 * u * v, 1.0 + 4.0 * v * v


_COSH2 = _conformal(lambda u, v: np.cosh(v) ** 2 + 0.0 * u)

_SQUARE = (1.0,)
_CUBE = (0.0, 1.0)

_CATALOG_CASES = {
    "plane": dict(metric=_graph_metric(()), H=0.0, iso=True, lift="both"),
    "holo_square": dict(metric=_graph_metric(_SQUARE), H=0.0, iso=True,
                        lift="+"),
    "holo_cube": dict(metric=_graph_metric(_CUBE), H=0.0, iso=True, lift="+"),
    "clifford_torus": dict(metric=_conformal(lambda u, v: 0.5 + 0.0 * u),
                           H=1.0, iso=True, lift="none"),
    "catenoid_E3": dict(metric=_COSH2, H=0.0, iso=True, lift="none"),
    "round_sphere": dict(
        metric=_conformal(lambda u, v: 4.0 / (1.0 + u * u + v * v) ** 2),
        H=1.0, iso=True, lift="none"),
    "nonisothermal_graph": dict(metric=_nonisothermal, H=None, iso=False,
                                lift="none"),
}

# Catalog domains, restated so that grid coordinates can be checked without
# asking the program for them.
_CATALOG_DOMAINS = {
    "plane": (-1.0, 1.0, -1.0, 1.0),
    "holo_square": (-1.0, 1.0, -1.0, 1.0),
    "holo_cube": (-1.0, 1.0, -1.0, 1.0),
    "clifford_torus": (0.3, 1.2, 0.3, 1.2),
    "catenoid_E3": (-1.0, 1.0, 0.3, 1.3),
    "round_sphere": (-1.0, 1.0, -1.0, 1.0),
    "nonisothermal_graph": (-1.0, 1.0, -1.0, 1.0),
}


def catalog_case(name: str) -> Case:
    c = _CATALOG_CASES[name]
    return Case(name, name, None, _CATALOG_DOMAINS[name], c["metric"], c["H"],
                c["iso"], c["lift"])


def helicoid_case() -> Case:
    return Case("helicoid", None, HELICOID_TEXT, HELICOID_DOMAIN, _COSH2,
                0.0, True, "none")


def _fmt(c: float) -> str:
    return repr(abs(float(c)))


def _poly_text(terms: dict) -> str:
    """sum c_pq u^p v^q as grammar text with explicit * and ^."""
    parts = []
    for (p, q), c in sorted(terms.items(), reverse=True):
        if c == 0.0:
            continue
        factors = [_fmt(c)]
        if p:
            factors.append("u" if p == 1 else f"u^{p}")
        if q:
            factors.append("v" if q == 1 else f"v^{q}")
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    if not parts:
        return "0"
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    return text + "".join(f" {s} {t}" for s, t in parts[1:])


def _re_im_terms(coeffs):
    """Monomial coefficients of Re f and Im f for f = sum_k a_k w^k."""
    re, im = {}, {}
    for k, a in enumerate(coeffs, start=2):
        for j in range(k + 1):
            c = math.comb(k, j) * a * (1j ** j)
            re[(k - j, j)] = re.get((k - j, j), 0.0) + c.real
            im[(k - j, j)] = im.get((k - j, j), 0.0) + c.imag
    return re, im


def random_coeffs(rng: np.random.Generator, d: int) -> tuple:
    """a_k = MAX_SLOPE rho_k e^(i theta_k) / (k r^(k-1) (d-1)), k = 2..d,
    rho_k uniform on [0.2, 1], theta_k uniform on [0, 2 pi)."""
    u0, u1, v0, v1 = GEN_DOMAIN
    r = math.hypot(max(abs(u0), abs(u1)), max(abs(v0), abs(v1)))
    out = []
    for k in range(2, d + 1):
        rho = rng.uniform(0.2, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(MAX_SLOPE * rho * complex(math.cos(theta), math.sin(theta))
                   / (k * r ** (k - 1) * (d - 1)))
    return tuple(out)


def generated_case(coeffs: tuple, kind: str, label: str) -> Case:
    re, im = _re_im_terms(coeffs)
    if kind == "mirror":
        im = {key: -c for key, c in im.items()}
    text = f"u, v, {_poly_text(re)}, {_poly_text(im)}"
    return Case(label, None, text, GEN_DOMAIN, _graph_metric(coeffs), 0.0,
                True, "+" if kind == "graph" else "-")


def generated_cases(seed: int) -> list:
    rng = np.random.default_rng([seed, 7211])
    return [generated_case(random_coeffs(rng, d), kind, f"{kind}{d}")
            for d, kind in GENERATED]


def export_cases(seed: int) -> list:
    """Surfaces of grid-export and analyze-points."""
    return ([catalog_case(n) for n in CATALOG_NAMES] + [helicoid_case()]
            + generated_cases(seed))


def classify_cases(seed: int) -> list:
    """Minimal surfaces of classify."""
    return ([catalog_case(n) for n in ("plane", "holo_square", "holo_cube",
                                       "catenoid_E3")]
            + [helicoid_case()] + generated_cases(seed))


def random_points(seed: int, case_index: int, domain, count: int):
    """count seeded (u, v) in the domain, kept 2 % away from its edges."""
    rng = np.random.default_rng([seed, 5023, case_index])
    u0, u1, v0, v1 = domain
    a = rng.uniform(0.02, 0.98, size=(count, 2))
    return [(u0 + (u1 - u0) * x, v0 + (v1 - v0) * y) for x, y in a]
