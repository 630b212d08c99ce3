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
not recognized: write 2*u*v, not 2uv.  Brackets, arguments and exponents may
nest, and the expression tree may grow, at most MAX_DEPTH levels deep.

Evaluation walks the tree once over numpy arrays of (u, v) (a single point is
a 0-d batch) and returns a Jet2 carrying the value and all partial
derivatives up to second order, propagated by degree-2 truncated Taylor
arithmetic, so the derivatives are exact to roundoff.  A surface object
evaluated again runs its walk compiled: the same numpy operations as
straight-line code, which gives the same bits.  Leaving the real domain or
overflowing leaves a non-finite jet, and one finiteness check names the
innermost such sub-expression and the first offending (u, v).
"""

from __future__ import annotations

import json
import math
import operator
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
    "sin": lambda x: ((s := np.sin(x)), np.cos(x), -s),
    "cos": lambda x: ((c := np.cos(x)), -np.sin(x), -c),
    "tan": lambda x: ((t := np.tan(x)), 1.0 + t * t, 2.0 * t * (1.0 + t * t)),
    "exp": lambda x: ((y := np.exp(x)), y, y),
    "log": lambda x: (np.log(x), 1.0 / x, -1.0 / (x * x)),
    "sqrt": lambda x: ((r := np.sqrt(x)), 0.5 / r, -0.25 / (x * r)),
    "sinh": lambda x: ((s := np.sinh(x)), np.cosh(x), s),
    "cosh": lambda x: ((c := np.cosh(x)), np.sinh(x), c),
    "atan": lambda x: (np.arctan(x), 1.0 / (1.0 + x * x),
                       -2.0 * x / (1.0 + x * x) ** 2),
}


# --- lexer / parser ---------------------------------------------------------

# Parsing, evaluating and printing recurse once per level of nesting, so
# deeper input would exhaust the interpreter's stack.
MAX_DEPTH = 100

# A token: optional whitespace, then a number, a name or any one other
# non-space character.  Offsets are reported 1-based, at a token's first
# non-space character.
_TOKEN_RE = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|"
                       r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<char>\S))")


class _Parser:
    def __init__(self, text: str, shared: dict):
        # (kind, text, offset) of each token, then the end: ("end", "", len + 1)
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) + 1)
                       for m in _TOKEN_RE.finditer(text)]
        self.tokens.append(("end", "", len(text) + 1))
        self.i = 0  # index of the next token
        self.depth = 0  # brackets, arguments and exponents open around it
        # powers and calls built so far in all components of the surface:
        # equal ones are made one object, computed once per batch
        self.shared = shared

    def share(self, node: Expr) -> Expr:
        return self.shared.setdefault(node, node)

    def _peek(self) -> str:
        return self.tokens[self.i][1]

    def _offset(self) -> int:
        return self.tokens[self.i][2]

    def _take(self, text: str) -> bool:
        if self._peek() == text:
            self.i += 1
            return True
        return False

    def _expect(self, text: str):
        if not self._take(text):
            raise ExprSyntaxError(f"expected '{text}'", self._offset())

    def nested(self, parse, at: int) -> Expr:
        """parse() one level deeper; refuse input nested deeper than
        MAX_DEPTH at offset at, or a tree grown deeper at the next token."""
        self.depth += 1
        node = parse() if self.depth <= MAX_DEPTH else None
        self.depth -= 1
        if node is None or _height(node) > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                at if node is None else self._offset())
        return node

    def expect_end(self):
        if self._peek():
            raise ExprSyntaxError(f"unexpected trailing input {self._peek()[0]!r}",
                                  self._offset())

    def parse_expr(self) -> Expr:
        return self.parse_binary(
            ("+", "-"), lambda: self.parse_binary(("*", "/"), self.parse_unary))

    def parse_binary(self, ops, operand) -> Expr:
        """operand ( op operand )* for the operators op in ops, left
        associative: an expr of terms, or a term of unary operands."""
        node = operand()
        while (op := self._peek()) in ops:
            self.i += 1
            node = Bin(op, node, operand())
        return node

    def parse_unary(self) -> Expr:
        signs = 0
        while self._take("-"):
            signs += 1
        node = self.parse_power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        caret = self._offset()
        if self._take("^"):
            exponent = self.nested(self.parse_unary, caret + 1)
            # A literal is its own value, and the evaluator folds any other
            # exponent without u or v to a plain number; both must be finite.
            if isinstance(exponent, Num):
                value = exponent.value
            else:
                with np.errstate(all="ignore"):
                    value = _eval(exponent, *np.zeros(2), {})
            if isinstance(value, Jet2) or not np.isfinite(value):
                raise ExprSyntaxError("exponent must be a finite constant", caret)
            return self.share(Pow(base, float(value)))
        return base

    def parse_atom(self) -> Expr:
        kind, text, at = self.tokens[self.i]
        self.i += 1
        if kind == "number":
            return Num(float(text))
        if text == "(":
            node = self.nested(self.parse_expr, at + 1)
            self._expect(")")
            return node
        if kind == "name":
            if self._take("("):
                if text not in _FUNCTIONS:
                    raise UnknownIdentifier(text, at)
                if self._peek() == ")":
                    raise ArityError(f"{text} expects one argument, got none")
                arg = self.nested(self.parse_expr, self._offset())
                if self._peek() == ",":
                    raise ArityError(f"{text} expects one argument")
                self._expect(")")
                return self.share(Call(text, arg))
            if text in _VARIABLES:
                return Var(text)
            if text in _CONSTANTS:
                return Const(text)
            raise UnknownIdentifier(text, at)
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", at)
        raise ExprSyntaxError(f"unexpected character {text!r}", at)


def parse(text: str) -> Expr:
    """Parse a single expression."""
    return _parse(text, {})


def _parse(text: str, shared: dict) -> Expr:
    p = _Parser(text, shared)
    node = p.nested(p.parse_expr, p._offset())
    p.expect_end()
    return node


def _height(node: Expr) -> int:
    """Height of an expression tree (0 for a leaf), found without recursion."""
    height, level = -1, [node]
    while level:
        height += 1
        level = [x for n in level for x in vars(n).values()
                 if not isinstance(x, (str, float))]
    return height


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
        u0, u1, v0, v1 = map(float, self.domain)
        # a finite extent has finite ends; a float difference overflows quietly
        if not (math.isfinite(u1 - u0) and math.isfinite(v1 - v0)
                and u0 < u1 and v0 < v1):
            raise ExpressionError(f"empty or non-finite domain {self.domain!r}")

    def __getstate__(self):  # a copy or an unpickled surface compiles its own
        return {k: x for k, x in vars(self).items() if k != "_program"}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "f1": expr_text(self.components[0]),
            "f2": expr_text(self.components[1]),
            "f3": expr_text(self.components[2]),
            "f4": expr_text(self.components[3]),
            "domain": list(self.domain),
        }


def parse_surface(text: str, name: str = "unnamed",
                  domain=(-1.0, 1.0, -1.0, 1.0)) -> SurfaceDef:
    """Parse "f1, f2, f3, f4" into a SurfaceDef."""
    p = _Parser(text, {})
    comps = [p.nested(p.parse_expr, p._offset())]
    while p._take(","):
        comps.append(p.nested(p.parse_expr, p._offset()))
    p.expect_end()
    return SurfaceDef(name, tuple(comps), tuple(float(x) for x in domain))


def surface_from_json(obj) -> SurfaceDef:
    """Accept {"name", "f1".."f4", "domain": [u0, u1, v0, v1]} or its JSON
    text, parsing the four components together as parse_surface does."""
    if isinstance(obj, (str, bytes)):
        try:  # an integer too large for a float reads as +-inf
            obj = json.loads(obj, parse_int=float)
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
            raise ExpressionError(f"invalid surface JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ExpressionError("surface JSON must be an object")
    texts = [obj.get(f"f{i}") for i in range(1, 5)]
    if not all(isinstance(t, str) for t in texts):
        raise ExpressionError("surface JSON needs keys f1..f4, each a string")
    name = obj.get("name", "unnamed")
    if not isinstance(name, str):
        raise ExpressionError("surface JSON name must be a string")
    shared = {}
    comps = tuple(_parse(t, shared) for t in texts)
    domain = obj.get("domain", [-1.0, 1.0, -1.0, 1.0])
    if not (isinstance(domain, (list, tuple)) and len(domain) == 4 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in domain)):
        raise ExpressionError("domain must be [u0, u1, v0, v1], four numbers")
    return SurfaceDef(name, comps, tuple(map(float, domain)))


# --- second-order jets ------------------------------------------------------

# A structural zero: a part of a jet that vanishes identically, as the v-part
# of u does.  Only the jets of u and v start with it (every other zero is
# numeric, so that 0 * inf still poisons a point); sums skip it and _terms
# skips each product it enters.  It is this one object, tested with "is".
_ZERO = float("0")


def _terms(*products):
    """Sum, in order, of the products (2 or 3 factors) free of _ZERO, or _ZERO."""
    total = _ZERO
    for factors in products:
        for x in factors:  # a loop, not any(): this runs on every product
            if x is _ZERO:
                break
        else:
            term = factors[0] * factors[1]
            term = term * factors[2] if len(factors) == 3 else term
            total = term if total is _ZERO else total + term
    return total


class Jet2:
    """Value and exact partials (du, dv, duu, duv, dvv) of a scalar at a point
    or elementwise over points; a part may be a plain number, _ZERO where it
    vanishes identically."""

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

    def __repr__(self):
        return (f"Jet2(val={self.val!r}, du={self.du!r}, dv={self.dv!r}, "
                f"duu={self.duu!r}, duv={self.duv!r}, dvv={self.dvv!r})")

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(*[y if x is _ZERO else x if y is _ZERO else x + y
                          for x, y in zip(self.as_tuple(), o.as_tuple())])
        return Jet2(self.val + o, self.du, self.dv, self.duu, self.duv, self.dvv)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(*[x if x is _ZERO else -x for x in self.as_tuple()])

    def __sub__(self, o):
        if isinstance(o, Jet2):
            return Jet2(*[x if y is _ZERO else -y if x is _ZERO else x - y
                          for x, y in zip(self.as_tuple(), o.as_tuple())])
        return Jet2(self.val - o, self.du, self.dv, self.duu, self.duv, self.dvv)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(*[x if x is _ZERO else x * o for x in self.as_tuple()])
        # Leibniz, each part's products in the order written
        a, au, av, auu, auv, avv = self.as_tuple()
        b, bu, bv, buu, buv, bvv = o.as_tuple()
        du = _terms((au, b), (a, bu))
        dv = _terms((av, b), (a, bv))
        uu = _terms((auu, b), (2.0, au, bu), (a, buu))
        uv = _terms((auv, b), (au, bv), (av, bu), (a, buv))
        vv = _terms((avv, b), (2.0, av, bv), (a, bvv))
        return Jet2(a * b, du, dv, uu, uv, vv)

    __rmul__ = __mul__

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given f(x), f'(x), f''(x) at x = val."""
        _, du, dv, duu, duv, dvv = self.as_tuple()
        f2u, f2v = _terms((f2, du)), _terms((f2, dv))
        uu = _terms((f2u, du), (f1, duu))
        uv = _terms((f2u, dv), (f1, duv))
        vv = _terms((f2v, dv), (f1, dvv))
        return Jet2(f0, _terms((f1, du)), _terms((f1, dv)), uu, uv, vv)

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


def _eval(node: Expr, u, v, memo: dict):
    """Jet of node over the points (u, v); a sub-expression without u or v
    gives a plain number.  Undefined points hold nan or inf, unchecked.  Each
    power and call object is computed once per memo (nothing mutates a jet)."""
    if isinstance(node, Bin):  # the most common node first
        lhs = _eval(node.left, u, v, memo)
        rhs = _eval(node.right, u, v, memo)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Var):
        return (Jet2(u, 1.0, _ZERO, _ZERO, _ZERO, _ZERO) if node.name == "u"
                else Jet2(v, _ZERO, 1.0, _ZERO, _ZERO, _ZERO))
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Const):
        return np.float64(_CONSTANTS[node.name])
    if isinstance(node, Neg):
        return -_eval(node.arg, u, v, memo)
    if not isinstance(node, (Pow, Call)):
        raise TypeError(f"not an expression node: {node!r}")
    if id(node) not in memo:
        memo[id(node)] = _operator(node, u, v, memo)
    return memo[id(node)]


# Integer powers 2 to this one are products: the same bits on every CPU,
# at most (p - 1) ulp from the exact power.  numpy's pow is about 20 times
# slower on an array holding a negative base, where it leaves its vector
# path for libm, whose last bit depends on the CPU.
MAX_PRODUCT_POWER = 8


def _power(x, k: int):
    """x^k for an integer k >= 0, by repeated squaring; x^0 is 1.0."""
    if k < 2:
        return x if k else 1.0
    half = _power(x * x, k // 2)
    return half * x if k % 2 else half


def _operator(node, u, v, memo: dict):
    """_eval of a power or a call."""
    if isinstance(node, Call):
        arg = _eval(node.arg, u, v, memo)
        if isinstance(arg, Jet2):
            return arg.chain(*_FUNCTIONS[node.func](arg.val))
        return _FUNCTIONS[node.func](arg)[0]
    base, p = _eval(node.base, u, v, memo), node.exponent
    if p == 0:  # 1 wherever the base is defined
        if not isinstance(base, Jet2):
            return np.float64(1.0 if np.isfinite(base) else np.nan)
        return Jet2(np.where(finite_mask((base,)), 1.0, np.nan))
    x = base.val if isinstance(base, Jet2) else base
    if not p.is_integer():  # a real power needs a positive base
        x = np.where(x > 0.0, x, np.nan)
    if not isinstance(base, Jet2):
        return x ** p
    if p.is_integer() and 2 <= p <= MAX_PRODUCT_POWER:
        xp2 = _power(x, int(p) - 2)  # x^(p-2), then x^(p-1) and x^p
        xp1 = xp2 * x
        return base.chain(xp1 * x, p * xp1, p * (p - 1) * xp2)
    f2 = p * (p - 1) * x ** (p - 2) if p != 1 else 0.0
    return base.chain(x ** p, p * x ** (p - 1), f2)


def _walk(exprs, u, v):
    memo = {}  # one per batch, for all components
    return [_eval(e, u, v, memo) for e in exprs]


def _jets(exprs, u, v, program=None):
    """Jets of exprs over the points (u, v), from program(u, v) when given,
    which must return what _walk does, else by walking the trees."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    points = np.atleast_1d(u, v)
    with np.errstate(all="ignore"):
        jets = program(*points) if program else _walk(exprs, *points)
    # a component without u or v is a plain number: give it the points' shape
    jets = [j if isinstance(j, Jet2) else Jet2(np.full(u.shape, j)) for j in jets]
    if u.ndim == v.ndim == 0:
        # A point is evaluated as a 1-point batch and unwrapped: numpy's
        # scalar arithmetic can differ from its array loops in the last bit.
        jets = [Jet2(*(np.ravel(x)[0] for x in j.as_tuple())) for j in jets]
    return tuple(jets)


# --- compiled jets ----------------------------------------------------------

class _Array(np.lib.mixins.NDArrayOperatorsMixin):
    """A placeholder for an array over the points while _compile records a
    walk: each numpy operation on it, an operator being its ufunc, appends
    (result, function, operands) to the tape, and operations on plain
    numbers run as in any walk."""

    __slots__ = ("tape", "i")

    def __init__(self, tape, func=None, args=()):
        self.tape, self.i = tape, len(tape)
        tape.append((self, func, args))

    def __array_ufunc__(self, ufunc, method, *args):
        return _Array(self.tape, ufunc, args) if method == "__call__" else NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        return NotImplemented if kwargs else _Array(self.tape, func, args)

    def __pow__(self, p):  # an array's ** may shortcut np.power: x ** 0.5 is sqrt
        return _Array(self.tape, operator.pow, (self, p))


def _compile(exprs):
    """A function of the points (u, v) that returns what _walk(exprs, u, v)
    does, bit for bit, as straight-line code: one walk recorded over two
    placeholders, with its numpy operations in their order on the same
    operands, and each temporary deleted after its last use.  The structural
    zeros and the shared powers and calls are resolved while recording."""
    tape = []
    with np.errstate(all="ignore"):
        jets = _walk(exprs, _Array(tape), _Array(tape))
    bound = {}  # id -> (name, object) of each constant and function

    def name(x):  # a placeholder's temporary, or a bound object
        if isinstance(x, _Array):
            return f"t{x.i}"
        return bound.setdefault(id(x), (f"k{len(bound)}", x))[0]

    out = [f"{name(Jet2)}({', '.join(map(name, j.as_tuple()))})"
           if isinstance(j, Jet2) else name(j) for j in jets]
    last = {a.i: r.i for r, _, args in tape for a in args if isinstance(a, _Array)}
    last.update((x.i, len(tape)) for j in jets if isinstance(j, Jet2)
                for x in j.as_tuple() if isinstance(x, _Array))
    lines = ["def program(t0, t1):"]
    for r, func, args in tape[2:]:
        lines.append(f" t{r.i} = {name(func)}({', '.join(map(name, args))})")
        dead = {f"t{a.i}" for a in args if isinstance(a, _Array) and last[a.i] == r.i}
        if dead:
            lines.append(f" del {', '.join(sorted(dead))}")
    lines.append(f" return ({', '.join(out)},)")
    env = {"__builtins__": {}, **dict(bound.values())}
    exec(compile("\n".join(lines), "<jets>", "exec"), env)
    return env["program"]


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
    require_finite turns the ones that may not into a DomainError.

    The first evaluation of a surface object walks its trees; the second
    compiles them for itself and every later one.  A compile costs tens of
    small walks, and a command evaluates the surface it parses once."""
    program = vars(surface).get("_program")  # None, "walked", then compiled
    if program == "walked":
        program = _compile(surface.components)
    object.__setattr__(surface, "_program", program or "walked")
    return _jets(surface.components, u, v, program)
