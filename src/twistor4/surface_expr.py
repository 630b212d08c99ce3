"""Closed-form surface definitions and exact second-order jets.

A surface is four comma-separated expressions in the variables u, v:

    surface  := expr ( "," expr )*
    expr     := term ( ("+" | "-") term )*
    term     := unary ( ("*" | "/") unary )*
    unary    := "-" unary | power
    power    := atom [ "^" unary ]          right associative
    atom     := NUMBER | "pi" | "e" | "u" | "v"
              | NAME "(" expr ")" | "(" expr ")"

Functions: sin cos tan exp log sqrt sinh cosh atan.  The exponent of "^" must
fold to a finite numeric constant at parse time.  Implicit multiplication is
not recognized: write 2*u*v, not 2uv.

Evaluation walks the tree once over numpy arrays of (u, v) (a single point is
a 0-d batch) and returns a Jet2 carrying the value and all partial
derivatives up to second order, propagated by degree-2 truncated Taylor
arithmetic, so the derivatives are exact to roundoff.  Leaving the real
domain or overflowing leaves a non-finite jet, and one finiteness check names
the innermost such sub-expression and the first offending (u, v).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ArityError, DomainError, ExpressionError, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Expr",
    "Jet2",
    "SurfaceDef",
    "parse",
    "parse_surface",
    "surface_from_json",
    "expr_text",
    "surface_text",
    "eval_jet2",
    "eval_surface_jet",
    "finite_mask",
    "require_finite",
]


# --- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # "pi" | "e"


@dataclass(frozen=True)
class Var:
    name: str  # "u" | "v"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # "+", "-", "*", "/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float  # constant; integer-valued floats get integer semantics


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Const, Var, Neg, Bin, Pow, Call]

_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("u", "v")


# func -> x -> (value, first derivative, second derivative), elementwise.
# Outside a function's domain numpy returns nan or inf, which the finiteness
# check reports, so no function carries its own domain test.
_FUNCTIONS = {
    "sin": lambda x: (np.sin(x), np.cos(x), -np.sin(x)),
    "cos": lambda x: (np.cos(x), -np.sin(x), -np.cos(x)),
    "tan": lambda x: ((t := np.tan(x)), 1.0 + t * t, 2.0 * t * (1.0 + t * t)),
    "exp": lambda x: ((y := np.exp(x)), y, y),
    "log": lambda x: (np.log(x), 1.0 / x, -1.0 / (x * x)),
    "sqrt": lambda x: ((r := np.sqrt(x)), 0.5 / r, -0.25 / (x * r)),
    "sinh": lambda x: (np.sinh(x), np.cosh(x), np.sinh(x)),
    "cosh": lambda x: (np.cosh(x), np.sinh(x), np.cosh(x)),
    "atan": lambda x: (np.arctan(x), 1.0 / (1.0 + x * x),
                       -2.0 * x / (1.0 + x * x) ** 2),
}


# --- lexer / parser ---------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based scan position

    def _offset(self) -> int:
        return self.pos + 1  # reported offsets are 1-based

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str):
        if not self._take(ch):
            raise ExprSyntaxError(f"expected '{ch}'", self._offset())

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            c = self._peek()
            if c and c in "+-":
                self.pos += 1
                node = Bin(c, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            c = self._peek()
            if c and c in "*/":
                self.pos += 1
                node = Bin(c, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        if self._take("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self._take("^"):
            caret = self._offset() - 1
            # The evaluator folds the exponent: a sub-expression without u or v
            # evaluates to a plain number, which must also be finite.
            with np.errstate(all="ignore"):
                value = _eval(self.parse_unary(), *np.zeros(2))
            if isinstance(value, Jet2) or not np.isfinite(value):
                raise ExprSyntaxError("exponent must be a finite constant", caret)
            return Pow(base, float(value))
        return base

    def parse_atom(self) -> Expr:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ExprSyntaxError("unexpected end of input", self._offset())
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            node = self.parse_expr()
            self._expect(")")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group(0)))
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group(0)
            start = self.pos + 1
            self.pos = m.end()
            if self._peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifier(name, start)
                self.pos += 1
                if self._peek() == ")":
                    raise ArityError(f"{name} expects one argument, got none")
                arg = self.parse_expr()
                if self._peek() == ",":
                    raise ArityError(f"{name} expects one argument")
                self._expect(")")
                return Call(name, arg)
            if name in _VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Const(name)
            raise UnknownIdentifier(name, start)
        raise ExprSyntaxError(f"unexpected character {c!r}", self._offset())


def parse(text: str) -> Expr:
    """Parse a single expression."""
    p = _Parser(text)
    node = p.parse_expr()
    if not p.at_end():
        raise ExprSyntaxError(f"unexpected trailing input {p._peek()!r}", p._offset())
    return node


def expr_text(node: Expr) -> str:
    """Print an expression; re-parsing yields a structurally equal tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Const, Var)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{expr_text(node.arg)})"
    if isinstance(node, Bin):
        return f"({expr_text(node.left)} {node.op} {expr_text(node.right)})"
    if isinstance(node, Pow):
        return f"({expr_text(node.base)} ^ {repr(node.exponent)})"
    if isinstance(node, Call):
        return f"{node.func}({expr_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# --- surfaces ---------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceDef:
    """Four component expressions plus a rectangular parameter domain."""

    name: str
    components: tuple
    domain: tuple  # (u0, u1, v0, v1)

    def __post_init__(self):
        if len(self.components) != 4:
            raise ExpressionError(
                f"a surface needs exactly 4 components, got {len(self.components)}")
        u0, u1, v0, v1 = self.domain
        if not (u0 < u1 and v0 < v1):
            raise ExpressionError(f"empty domain {self.domain!r}")

    @property
    def text(self) -> str:
        return surface_text(self)

    def domain_diameter(self) -> float:
        u0, u1, v0, v1 = self.domain
        return math.hypot(u1 - u0, v1 - v0)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "f1": expr_text(self.components[0]),
            "f2": expr_text(self.components[1]),
            "f3": expr_text(self.components[2]),
            "f4": expr_text(self.components[3]),
            "domain": list(self.domain),
        }


def surface_text(surface: SurfaceDef) -> str:
    return ", ".join(expr_text(c) for c in surface.components)


def parse_surface(text: str, name: str = "unnamed",
                  domain=(-1.0, 1.0, -1.0, 1.0)) -> SurfaceDef:
    """Parse "f1, f2, f3, f4" into a SurfaceDef."""
    p = _Parser(text)
    comps = [p.parse_expr()]
    while p._peek() == ",":
        p.pos += 1
        comps.append(p.parse_expr())
    if not p.at_end():
        raise ExprSyntaxError(f"unexpected trailing input {p._peek()!r}", p._offset())
    if len(comps) != 4:
        raise ExpressionError(
            f"a surface needs exactly 4 components, got {len(comps)}")
    return SurfaceDef(name, tuple(comps), tuple(float(x) for x in domain))


def surface_from_json(obj) -> SurfaceDef:
    """Accept {"name", "f1".."f4", "domain": [u0, u1, v0, v1]}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        comps = tuple(parse(obj[f"f{i}"]) for i in range(1, 5))
    except KeyError as exc:
        raise ExpressionError(f"surface JSON is missing key {exc}") from None
    name = obj.get("name", "unnamed")
    domain = tuple(float(x) for x in obj.get("domain", (-1.0, 1.0, -1.0, 1.0)))
    if len(domain) != 4:
        raise ExpressionError("domain must be [u0, u1, v0, v1]")
    return SurfaceDef(name, comps, domain)


# --- second-order jets ------------------------------------------------------

class Jet2:
    """Value and exact partials (du, dv, duu, duv, dvv) of a scalar at a point
    or elementwise over points; constant parts may stay plain numbers."""

    __slots__ = ("val", "du", "dv", "duu", "duv", "dvv")
    # numpy numbers and arrays on the left defer to Jet2's reflected operators
    __array_ufunc__ = None

    def __init__(self, val, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0):
        self.val = val
        self.du = du
        self.dv = dv
        self.duu = duu
        self.duv = duv
        self.dvv = dvv

    @classmethod
    def variable(cls, name: str, u: float, v: float) -> "Jet2":
        if name == "u":
            return cls(u, 1.0, 0.0)
        return cls(v, 0.0, 1.0)

    def __repr__(self):
        return (f"Jet2(val={self.val!r}, du={self.du!r}, dv={self.dv!r}, "
                f"duu={self.duu!r}, duv={self.duv!r}, dvv={self.dvv!r})")

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.val + o.val, self.du + o.du, self.dv + o.dv,
                        self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)
        return Jet2(self.val + o, self.du, self.dv, self.duu, self.duv, self.dvv)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __sub__(self, o):
        return self + (-o if isinstance(o, Jet2) else -o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Jet2):
            return Jet2(
                self.val * o.val,
                self.du * o.val + self.val * o.du,
                self.dv * o.val + self.val * o.dv,
                self.duu * o.val + 2.0 * self.du * o.du + self.val * o.duu,
                self.duv * o.val + self.du * o.dv + self.dv * o.du + self.val * o.duv,
                self.dvv * o.val + 2.0 * self.dv * o.dv + self.val * o.dvv,
            )
        return Jet2(self.val * o, self.du * o, self.dv * o,
                    self.duu * o, self.duv * o, self.dvv * o)

    __rmul__ = __mul__

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given f(x), f'(x), f''(x) at x = val."""
        return Jet2(
            f0,
            f1 * self.du,
            f1 * self.dv,
            f2 * self.du * self.du + f1 * self.duu,
            f2 * self.du * self.dv + f1 * self.duv,
            f2 * self.dv * self.dv + f1 * self.dvv,
        )

    def reciprocal(self) -> "Jet2":
        x = self.val
        return self.chain(1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x))

    def __truediv__(self, o):
        if isinstance(o, Jet2):
            return self * o.reciprocal()
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def as_tuple(self):
        return (self.val, self.du, self.dv, self.duu, self.duv, self.dvv)


def _eval(node: Expr, u, v):
    """Jet of node over the points (u, v); a sub-expression without u or v
    gives a plain number.  Undefined points hold nan or inf, unchecked."""
    if isinstance(node, Var):
        return Jet2.variable(node.name, u, v)
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Const):
        return np.float64(_CONSTANTS[node.name])
    if isinstance(node, Neg):
        return -_eval(node.arg, u, v)
    if isinstance(node, Bin):
        lhs = _eval(node.left, u, v)
        rhs = _eval(node.right, u, v)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Pow):
        base, p = _eval(node.base, u, v), node.exponent
        if p == 0:  # 1 wherever the base is defined
            if not isinstance(base, Jet2):
                return np.float64(1.0 if np.isfinite(base) else np.nan)
            return Jet2(np.where(finite_mask((base,)), 1.0, np.nan))
        x = base.val if isinstance(base, Jet2) else base
        if not p.is_integer():  # a real power needs a positive base
            x = np.where(x > 0.0, x, np.nan)
        if not isinstance(base, Jet2):
            return x ** p
        f2 = p * (p - 1) * x ** (p - 2) if p != 1 else 0.0
        return base.chain(x ** p, p * x ** (p - 1), f2)
    if isinstance(node, Call):
        arg = _eval(node.arg, u, v)
        if isinstance(arg, Jet2):
            return arg.chain(*_FUNCTIONS[node.func](arg.val))
        return _FUNCTIONS[node.func](arg)[0]
    raise TypeError(f"not an expression node: {node!r}")


def _jets(exprs, u, v):
    u, v = np.asarray(u, float), np.asarray(v, float)
    with np.errstate(all="ignore"):
        jets = [_eval(e, np.atleast_1d(u), np.atleast_1d(v)) for e in exprs]
    jets = [j if isinstance(j, Jet2) else Jet2(j) for j in jets]
    if u.ndim == v.ndim == 0:
        # A point is evaluated as a 1-point batch and unwrapped: numpy's
        # scalar arithmetic can differ from its array loops in the last bit.
        jets = [Jet2(*(np.ravel(x)[0] for x in j.as_tuple())) for j in jets]
    return tuple(jets)


def finite_mask(jets) -> np.ndarray:
    """True at the points where every part of every jet is finite."""
    ok = True
    for x in (x for j in jets for x in j.as_tuple()):
        ok = ok & np.isfinite(x)
    return ok


def _culprit(node: Expr, u: float, v: float):
    """The innermost sub-expression of node whose jet at the point (u, v) is
    not finite, or None where node's own jet is finite."""
    if finite_mask(_jets((node,), u, v)):
        return None
    subs = (x for x in vars(node).values() if not isinstance(x, (str, float)))
    return next(filter(None, (_culprit(x, u, v) for x in subs)), node)


def require_finite(exprs, ok, u, v) -> None:
    """Raise DomainError at the first of the points (u, v) where the mask ok
    is False, naming the innermost sub-expression of exprs whose jet is not
    finite there."""
    ok = np.asarray(ok)
    if ok.all():
        return
    i = np.flatnonzero(~ok)[0]
    uu, vv = (float(np.broadcast_to(x, ok.shape).flat[i]) for x in (u, v))
    node = next(filter(None, (_culprit(e, uu, vv) for e in exprs)), None)
    raise DomainError(f"undefined or infinite at (u, v) = ({uu:g}, {vv:g})",
                      ", ".join(map(expr_text, exprs if node is None else [node])))


def eval_jet2(expr: Expr, u, v) -> Jet2:
    """Value and all partials up to order 2 of expr at the points (u, v),
    floats or arrays of one shape; raises DomainError where any is not
    finite (outside the real domain, or overflowing)."""
    jets = _jets((expr,), u, v)
    require_finite((expr,), finite_mask(jets), u, v)
    return jets[0]


def eval_surface_jet(surface: SurfaceDef, u, v):
    """Componentwise jets of a surface over the points (u, v), floats or
    arrays of one shape: a tuple of four Jet2.  An undefined point holds nan
    or inf instead of raising, so a batch may carry points allowed to fail;
    require_finite turns the ones that may not into a DomainError."""
    return _jets(surface.components, u, v)
