"""Parser behaviour and exactness of the second-order jet arithmetic."""

import copy
import importlib.util
import json
import math
import pickle
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twistor4 import surface_expr
from twistor4.catalog import CATALOG
from twistor4.errors import (
    ArityError,
    DomainError,
    ExpressionError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from twistor4.cli import main
from twistor4.geometry import surface_point_data
from twistor4.surface_expr import (
    MAX_PRODUCT_POWER,
    SurfaceDef,
    eval_jet2,
    eval_surface_jet,
    expr_text,
    finite_mask,
    parse,
    parse_surface,
    surface_from_json,
)
from helpers import HO_DOMAIN, HO_SEED_E2, HO_SEED_E3, catalog_text, hoffman_osserman


def jet(text, u, v):
    return eval_jet2(parse(text), u, v)


def fd_jet(expr, u, v, h):
    """Independent central-difference oracle for all five derivatives."""
    f = lambda uu, vv: eval_jet2(expr, uu, vv).val
    du = (f(u + h, v) - f(u - h, v)) / (2 * h)
    dv = (f(u, v + h) - f(u, v - h)) / (2 * h)
    duu = (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / h ** 2
    dvv = (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / h ** 2
    duv = (f(u + h, v + h) - f(u + h, v - h)
           - f(u - h, v + h) + f(u - h, v - h)) / (4 * h ** 2)
    return np.array([du, dv, duu, duv, dvv])


class TestParser:
    def test_four_component_surface(self):
        s = parse_surface("u, v, u^2 - v^2, 2*u*v")
        assert len(s.components) == 4

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(u")
        assert err.value.position == 6

    @pytest.mark.parametrize("text,message,position", [
        ("u +", "unexpected end of input", 4),
        ("", "unexpected end of input", 1),
        ("  ", "unexpected end of input", 3),   # the end is one past the text
        ("sin(", "unexpected end of input", 5),
        ("u + $", "unexpected character '$'", 5),
        ("u*(v - #)", "unexpected character '#'", 8),
        ("u, v, 0, u +", "unexpected end of input", 13),  # from the text's start
    ])
    def test_refusal_names_the_token_and_its_offset(self, text, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface(text)
        assert str(err.value) == f"{message} at offset {position}"
        assert err.value.position == position

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_surface("u, v, w, 0")
        assert err.value.name == "w"

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("sinc(u)")

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse("atan(u, v)")
        with pytest.raises(ArityError):
            parse("sin()")

    def test_wrong_component_count(self):
        with pytest.raises(ExpressionError):
            parse_surface("u, v, 0")

    @pytest.mark.parametrize("domain", [
        (0, math.inf, 0, 1), (0, 1, math.nan, 1), (-math.inf, 0, 0, 1),
        (1, 0, 0, 1), (0, 1, 1, 1), (-1e308, 1e308, 0, 1), (0, 1, -1.7e308, 1.7e308)])
    def test_domain_must_be_finite_and_non_empty(self, domain):
        with pytest.raises(ExpressionError, match="empty or non-finite domain"):
            parse_surface("u, v, 0, 0", domain=domain)

    def test_precedence_power_over_unary_minus(self):
        # -u^2 means -(u^2)
        assert jet("-u^2", 2.0, 0.0).val == -4.0

    def test_power_right_associative(self):
        assert jet("2^3^2", 0.0, 0.0).val == 512.0

    def test_negative_constant_exponent(self):
        j = jet("u^-2", 2.0, 0.0)
        assert j.val == 0.25
        assert abs(j.du - (-2.0 / 8.0)) <= 1e-15

    def test_constant_folded_exponent(self):
        assert jet("u^(1 + 1)", 3.0, 0.0).val == 9.0

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("u^v")

    @pytest.mark.parametrize("text", [
        "u^(0^-1)",          # the exponent is infinite
        "u^1e999",           # a literal exponent, read as inf
        "u^((-8)^(1/3))",    # a real power of a negative base: nan
        "u^(log(0))",
        "u^(u^0)",           # depends on u, though it is 1 wherever defined
    ])
    def test_exponent_must_fold_to_a_finite_constant(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert "exponent" in str(err.value) and err.value.position == 2

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("2u")

    def test_scientific_notation_and_constants(self):
        assert jet("2e3", 0.0, 0.0).val == 2000.0
        assert jet("pi", 0.0, 0.0).val == math.pi
        assert jet("e", 0.0, 0.0).val == math.e

    def test_print_round_trip_structural(self):
        samples = [
            "u, v, u^2 - v^2, 2*u*v",
            "sin(u)*cosh(v), -u/(1 + v^2), sqrt(u + 2), atan(u) - tan(v)",
            "u^-2, log(2 + u), exp(u*v), 1 - -u",
        ]
        for text in samples:
            s = parse_surface(text)
            for comp in s.components:
                assert parse(expr_text(comp)) == comp

    def test_catalog_round_trips(self):
        for entry in CATALOG.values():
            for comp in entry.surface.components:
                assert parse(expr_text(comp)) == comp


class TestJetExamples:
    def test_quadratic_at_1_2(self):
        j = jet("u^2 - v^2", 1.0, 2.0)
        assert j.as_tuple() == (-3.0, 2.0, -4.0, 2.0, 0.0, -2.0)

    def test_sin_cosh_at_origin(self):
        j = jet("sin(u)*cosh(v)", 0.0, 0.0)
        assert np.allclose(j.as_tuple(), (0, 1, 0, 0, 0, 0), atol=1e-16)

    def test_plane_surface(self):
        jets = eval_surface_jet(CATALOG["plane"].surface, 0.37, -0.91)
        assert [j.du for j in jets] == [1.0, 0.0, 0.0, 0.0]
        assert [j.dv for j in jets] == [0.0, 1.0, 0.0, 0.0]
        assert all(j.duu == j.duv == j.dvv == 0.0 for j in jets)

    def test_holo_square_second_derivatives(self):
        jets = eval_surface_jet(CATALOG["holo_square"].surface, 0.3, 0.7)
        assert [j.duu for j in jets] == [0.0, 0.0, 2.0, 0.0]
        assert [j.dvv for j in jets] == [0.0, 0.0, -2.0, 0.0]
        assert [j.duv for j in jets] == [0.0, 0.0, 0.0, 2.0]


class TestJetExactness:
    def test_exact_on_random_quadratics(self, rng):
        # p = a + b u + c v + d u^2 + e u v + f v^2 with analytic jets
        for _ in range(25):
            a, b, c, d, e, f = rng.uniform(-3, 3, size=6).round(3)
            text = (f"{a} + {b}*u + {c}*v + {d}*u^2 + {e}*u*v + {f}*v^2")
            u, v = rng.uniform(-2, 2, size=2)
            j = eval_jet2(parse(text), u, v)
            expect = (a + b * u + c * v + d * u * u + e * u * v + f * v * v,
                      b + 2 * d * u + e * v, c + e * u + 2 * f * v,
                      2 * d, e, 2 * f)
            assert np.max(np.abs(np.array(j.as_tuple()) - expect)) <= 1e-13

    @pytest.mark.parametrize("text,point", [
        ("sin(u)*cosh(v)", (0.4, -0.3)),
        ("exp(u*v) - log(3 + u)", (0.2, 0.5)),
        ("sqrt(2 + u) / (1 + v^2)", (0.1, -0.7)),
        ("atan(u - v) + tan(u/4)", (0.3, 0.9)),
        ("u^2.5 + sinh(v)*cos(u)", (1.2, 0.4)),
    ])
    def test_matches_central_differences_at_second_order(self, text, point):
        expr = parse(text)
        u, v = point
        j = eval_jet2(expr, u, v)
        exact = np.array([j.du, j.dv, j.duu, j.duv, j.dvv])
        err_h = np.max(np.abs(fd_jet(expr, u, v, 1e-2) - exact))
        err_h2 = np.max(np.abs(fd_jet(expr, u, v, 5e-3) - exact))
        assert err_h2 < err_h
        assert 2.8 <= err_h / err_h2 <= 5.5  # second-order decay

    def test_catalog_surfaces_evaluate_on_their_domains(self, rng):
        for entry in CATALOG.values():
            u0, u1, v0, v1 = entry.surface.domain
            for _ in range(20):
                u = rng.uniform(u0, u1)
                v = rng.uniform(v0, v1)
                jets = eval_surface_jet(entry.surface, u, v)  # must not raise
                assert finite_mask(jets)


class TestDomainErrors:
    def test_log_of_negative(self):
        with pytest.raises(DomainError) as err:
            jet("log(u - 2)", 0.0, 0.0)
        assert "log" in str(err.value)

    def test_division_by_zero_carries_subexpression(self):
        with pytest.raises(DomainError) as err:
            jet("1/(u - v)", 1.0, 1.0)
        assert "(u - v)" in str(err.value)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            jet("sqrt(v)", 0.0, -1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            jet("u^-1", 0.0, 0.0)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError):
            jet("u^0.5", -2.0, 0.0)

    def test_integer_power_of_negative_base_is_fine(self):
        assert jet("u^3", -2.0, 0.0).val == -8.0

    @pytest.mark.parametrize("text, u, culprit", [
        ("log(u)^0", -1.0, "'log(u)'"),
        ("(1/u)^0", 0.0, "'(1.0 / u)'"),
        ("(0^-1)^0", 0.5, "'(0.0 ^ -1.0)'"),
    ])
    def test_zeroth_power_of_undefined_base(self, text, u, culprit):
        with pytest.raises(DomainError) as err:
            jet(text, u, 0.0)
        assert culprit in str(err.value)

    def test_zeroth_power_is_one_where_the_base_is_defined(self):
        j = jet("u^0 + sqrt(v)^0", 0.0, 2.0)
        assert j.as_tuple() == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError) as err:
            jet("1e308*1e308*u", 0.1, 0.2)
        assert "(1e+308 * 1e+308)" in str(err.value)

    def test_error_names_innermost_subexpression_and_point(self):
        with pytest.raises(DomainError) as err:
            jet("sin(u) + 2*log(v - 1)", 0.25, 0.5)
        msg = str(err.value)
        assert "(u, v) = (0.25, 0.5)" in msg
        assert "'log((v - 1.0))'" in msg

    def test_infinite_derivative_is_a_domain_error(self):
        # sqrt(u) is 0 at u = 0, but its derivative is not finite there
        with pytest.raises(DomainError):
            jet("sqrt(u)", 0.0, 0.3)

    def test_first_offending_point_of_a_batch(self):
        u = np.array([0.5, 0.2, -0.1, -0.3])
        with pytest.raises(DomainError) as err:
            eval_jet2(parse("log(u)"), u, np.zeros(4))
        assert "(u, v) = (-0.1, 0)" in str(err.value)

    @pytest.mark.parametrize("text, culprit", [
        ("sqrt(u^0 - 1)", "'sqrt(((u ^ 0.0) - 1.0))'"),
        ("sqrt(u - u)", "'sqrt((u - u))'"),
        ("sqrt(0*u)", "'sqrt((0.0 * u))'"),
    ])
    def test_numeric_zero_times_infinity_poisons(self, capsys, text, culprit):
        # only u and v carry structural zeros: the zero derivatives of u^0,
        # u - u and 0*u are numbers, and sqrt's infinite slope at 0 times
        # them is nan, so the point stays undefined
        assert main(["analyze", "--expr", f"{text}, u, v, 0", "--at", "0.1", "0.2"]) == 2
        assert capsys.readouterr().err == (
            f"error: undefined or infinite at (u, v) = (0.1, 0.2) in {culprit}\n")
        with pytest.raises(DomainError, match=re.escape(culprit)):
            eval_jet2(parse(text), np.linspace(-1, 1, 5), np.zeros(5))


class TestIntegerPowers:
    # negative, signed zero, subnormal, overflowing, nan and inf bases
    BASES = np.array([-2.5, -1.0, -0.7, -1e-3, -0.0, 0.0, 5e-324, -5e-324,
                      -2.2e-310, 1e-3, 0.3, 1.5, 3.0, 1e30, -1e60, 1e100,
                      -1e103, 1e200, -1e300, np.nan, np.inf, -np.inf])

    @pytest.mark.parametrize("p", range(2, MAX_PRODUCT_POWER + 1))
    def test_products_match_pow(self, p):
        x = np.concatenate([self.BASES, np.linspace(-1.7, 1.3, 31)])
        j = eval_surface_jet(parse_surface(f"u^{p}, 0, 0, 0"), x, np.zeros_like(x))[0]
        with np.errstate(all="ignore"):
            want = (x ** float(p), p * x ** float(p - 1), p * (p - 1) * x ** float(p - 2))
        # u^2 has the constant duu 2.0, a plain number
        for got, ref in zip(np.broadcast_arrays(j.val, j.du, j.duu), want):
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
            err = np.abs(got[finite] - ref[finite])
            assert (err <= (p - 1) * np.spacing(np.abs(ref[finite]))).all()
        assert (j.dv, j.duv, j.dvv) == (0.0, 0.0, 0.0)


class TestSparseJets:
    # (text, closed form of (val, du, dv, duu, duv, dvv)); u^3*v^2 holds its
    # duv in the du*dv term of the product rule, cosh(v)*cos(u) in dv*du
    # and its duu and dvv in chain's f2 term
    CASES = [
        ("u^3*v^2", lambda u, v: (u ** 3 * v ** 2, 3 * u ** 2 * v ** 2,
                                  2 * u ** 3 * v, 6 * u * v ** 2, 6 * u ** 2 * v,
                                  2 * u ** 3)),
        ("cosh(v)*cos(u)", lambda u, v: (
            np.cosh(v) * np.cos(u), -np.cosh(v) * np.sin(u), np.sinh(v) * np.cos(u),
            -np.cosh(v) * np.cos(u), -np.sinh(v) * np.sin(u), np.cosh(v) * np.cos(u))),
        ("u - v", lambda u, v: (u - v, 1.0, -1.0, 0.0, 0.0, 0.0)),
    ]

    @pytest.mark.parametrize("text, exact", CASES, ids=[c[0] for c in CASES])
    def test_matches_closed_form(self, text, exact):
        U, V = np.meshgrid(np.linspace(-1.3, 1.1, 9), np.linspace(-0.9, 1.7, 7))
        jet = eval_surface_jet(parse_surface(f"{text}, u, v, 0"), U, V)[0]
        for got, want in zip(jet.as_tuple(), exact(U, V)):
            np.testing.assert_allclose(np.broadcast_to(got, U.shape), want,
                                       rtol=1e-15, atol=0)

    @pytest.mark.parametrize("text", [c[0] for c in CASES])
    def test_point_alone_equals_point_in_grid(self, text):
        surface = parse_surface(f"{text}, u, v, 0")
        U, V = np.meshgrid(np.linspace(-1.3, 1.1, 9), np.linspace(-0.9, 1.7, 7))
        grid = eval_surface_jet(surface, U, V)
        for i, j in ((0, 0), (3, 5), (6, 8), (2, 4)):
            alone = eval_surface_jet(surface, U[i, j], V[i, j])
            for g, a in zip(grid, alone):
                assert [np.broadcast_to(x, U.shape)[i, j].tobytes()
                        for x in g.as_tuple()] == _bits([a])


from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistor4.surface_expr import _ZERO, Bin, Call, Const, Jet2, Neg, Num, Pow, Var

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0, max_value=5, allow_nan=False)),
    st.builds(Var, st.sampled_from(["u", "v"])),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)
_funcs = st.sampled_from(
    ["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "atan"])
_trees = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Bin, st.sampled_from("+-*/"), kids, kids),
        st.builds(Call, _funcs, kids),
        st.builds(Pow, kids, st.sampled_from([2.0, 3.0, -1.0, 0.5, 0.0])),
    ),
    max_leaves=12)


_coords = st.floats(min_value=-2, max_value=2, allow_nan=False)


@given(_trees, st.lists(st.tuples(_coords, _coords), min_size=1, max_size=6))
def test_batch_matches_points_one_by_one(tree, points):
    # a stack of points gives each point's value and five partials, and marks
    # a point invalid exactly where evaluating it alone raises DomainError
    surface = SurfaceDef("t", (tree, Var("u"), Var("v"), Num(0.0)),
                         (-2.0, 2.0, -2.0, 2.0))
    us, vs = np.array(points).T
    batch = eval_surface_jet(surface, us, vs)[0]
    # a constant tree has plain-number partials, which broadcast over the batch
    ok = np.broadcast_to(finite_mask((batch,)), us.shape)
    parts = np.broadcast_arrays(*batch.as_tuple(), us)[:6]
    for i, (u, v) in enumerate(points):
        try:
            alone = eval_jet2(tree, u, v)
        except DomainError:
            assert not ok[i]
            continue
        assert ok[i]
        assert [p[i] for p in parts] == list(alone.as_tuple())


@given(_trees)
def test_printed_tree_reparses_identically(tree):
    # the lexer never emits negative literals, so trees with non-negative
    # Num leaves are exactly the parser-reachable ones
    assert parse(expr_text(tree)) == tree


def _bits(jets):
    """Every part of every jet as raw bytes, so that equal means equal bit for
    bit: shapes, nan and inf patterns and signed zeros included."""
    return [np.asarray(x, float).tobytes() for j in jets for x in j.as_tuple()]


def _nodes(node):
    """Every node of an expression, once per occurrence."""
    yield node
    for x in vars(node).values():
        if not isinstance(x, (str, float)):
            yield from _nodes(x)


@settings(deadline=None)
@given(_trees, _trees, _trees,
       st.lists(st.tuples(_coords, _coords), min_size=1, max_size=5))
def test_components_together_match_each_alone(a, b, c, points):
    # one batch shares equal powers and calls across a surface's components
    # (the parser makes them one object); each must read as if evaluated alone
    comps = (a, b, Bin("+", a, c), Bin("*", Call("sin", b), Pow(c, 2.0)))
    surface = parse_surface(", ".join(map(expr_text, comps)))
    us, vs = np.array(points).T
    # the same object twice: walked, then compiled, against fresh walks
    for u, v in ((us, vs), (us[0], vs[0])) * 2:
        together = eval_surface_jet(surface, u, v)
        for comp, jet in zip(comps, together):
            alone = SurfaceDef("alone", (comp, Num(0.0), Num(0.0), Num(0.0)),
                               (-2.0, 2.0, -2.0, 2.0))
            assert _bits([jet]) == _bits(eval_surface_jet(alone, u, v)[:1])


class TestJetMemo:
    # a degree-5 polynomial graph: u^2..u^5 and v^2..v^4 recur across the
    # monomials and across f3 and f4, and f4 repeats a call
    TEXT = ("u, v, 0.3*u^5 - 3*u^3*v^2 + u^2*v^3 + 0.5*u^4*v + v^4 - u^2*v^2, "
            "1.5*u^4*v - u^2*v^3 + 0.1*v^4 - u^5 + v^2*u^3 "
            "+ sin(u^2*v)*sin(u^2*v) - cos(v)")

    def test_each_distinct_power_and_call_is_evaluated_once(self, monkeypatch):
        surface = parse_surface(self.TEXT)
        ops = [n for f in surface.components for n in _nodes(f)
               if isinstance(n, (Pow, Call))]
        assert len(ops) > 2 * len(set(ops))
        chain, calls = Jet2.chain, []
        monkeypatch.setattr(Jet2, "chain",
                            lambda jet, *f: calls.append(1) or chain(jet, *f))
        eval_surface_jet(surface, np.linspace(-1, 1, 7), np.linspace(1, -0.5, 7))
        # no division: each chain rule applied is one power's or one call's
        assert len(calls) == len(set(ops))

    def test_batches_do_not_share_jets(self):
        # every surface is kept alive, so no object id is reused between them
        batches = [(np.linspace(-1, 1, 5), np.full(5, 0.3)),
                   (np.full(3, 0.7), np.linspace(0, 1, 3)), (0.2, -0.4),
                   (-0.9, 0.1)]
        surface = parse_surface(self.TEXT)
        fresh = [parse_surface(self.TEXT) for _ in batches]
        for (u, v), other in zip(batches, fresh):
            assert _bits(eval_surface_jet(surface, u, v)) == _bits(
                eval_surface_jet(other, u, v))


def _bench_surfaces():
    """The surfaces of the benchmark's grid-export round of seed 1 (the
    catalog, the helicoid and four generated graphs and mirrors) and the
    generated ones of seed 2, as (label, text, domain)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "surfaces.py"
    spec = importlib.util.spec_from_file_location("_perfbench_surfaces", path)
    # registered first: its dataclass looks its own module up
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = module.export_cases(1) + module.generated_cases(2)
    return [(f"{c.label}-{i}", c.text or catalog_text(c.catalog), c.domain)
            for i, c in enumerate(cases)]


class TestCompiledJets:
    # Each surface object walks its trees at its first evaluation and
    # compiles them at its second; a fresh object (a new parse, or
    # dataclasses.replace) walks again.
    SURFACES = [*_bench_surfaces(),
                ("ho_seed_e3", hoffman_osserman(*HO_SEED_E3), HO_DOMAIN),
                ("ho_seed_e2", hoffman_osserman(*HO_SEED_E2), HO_DOMAIN)]

    @pytest.mark.parametrize("text, domain", [c[1:] for c in SURFACES],
                             ids=[c[0] for c in SURFACES])
    def test_compiled_equals_walked_bit_for_bit(self, text, domain):
        surface = parse_surface(text, domain=domain)
        u0, u1, v0, v1 = domain
        rng = np.random.default_rng(3)
        batches = [(float(rng.uniform(u0, u1)), float(rng.uniform(v0, v1))),
                   (rng.uniform(u0, u1, 5), rng.uniform(v0, v1, 5)),
                   np.meshgrid(np.linspace(u0, u1, 31), np.linspace(v0, v1, 31))]
        for u, v in batches * 2:  # walked, then compiled, then run compiled
            assert _bits(eval_surface_jet(surface, u, v)) == _bits(
                eval_surface_jet(replace(surface), u, v))
        assert callable(vars(surface)["_program"])

    def test_second_evaluation_compiles_once_and_later_ones_reuse_it(self, monkeypatch):
        compiled = []
        compile_ = surface_expr._compile
        monkeypatch.setattr(surface_expr, "_compile",
                            lambda exprs: compiled.append(compile_(exprs)) or compiled[-1])
        surface = parse_surface(TestJetMemo.TEXT)
        for count in (0, 1, 1, 1):
            eval_surface_jet(surface, 0.3, -0.2)
            assert len(compiled) == count
        assert vars(surface)["_program"] is compiled[0]
        # an equal surface parsed again, or replaced, or copied, walks afresh
        for other in (parse_surface(TestJetMemo.TEXT), replace(surface),
                      pickle.loads(pickle.dumps(surface)), copy.copy(surface)):
            assert other == surface and "_program" not in vars(other)
            eval_surface_jet(other, 0.3, -0.2)
            assert len(compiled) == 1

    @pytest.mark.parametrize("argv, code", [
        *(pytest.param([command[0], *source, *command[1:]], 0,
                       id=f"source{i}-command{j}")
          for i, source in enumerate([("--surface", "holo_square"),
                                      ("--expr", catalog_text("holo_cube"))])
          for j, command in enumerate([
              ("grid", "--n", "5"), ("grid", "--n", "5", "--format", "csv"),
              ("isotropy", "--n", "5"), ("residuals", "--n", "5", "--json"),
              ("analyze", "--at", "0.3", "0.2")])),
        # residuals refused: after its h/2 grid failed, it builds the h grid
        # to name --n if that fails too (here at u = 0), else to refuse the
        # h/2 grid (here at u = 0.5) after all
        pytest.param(["residuals", "--expr", "u, v, 1/(u*(u + 0.5)), 0", "--n", "3"],
                     2, id="h-grid-refuses"),
        pytest.param(["residuals", "--expr", "u, v, 1/(u - 0.5), 0", "--n", "3"],
                     2, id="h2-grid-refuses")])
    def test_commands_never_compile(self, monkeypatch, capsys, argv, code):
        # each command evaluates the surface object it made once: a compile
        # would cost it tens of walks
        surface = CATALOG["holo_square"].surface
        monkeypatch.delitem(vars(surface), "_program", raising=False)
        eval_surface_jet(surface, 0.1, 0.1)  # the catalog's own object walked once
        compiled = []
        monkeypatch.setattr(surface_expr, "_compile", compiled.append)
        assert main(argv) == code
        assert compiled == []

    @pytest.mark.parametrize("text", ["u, v, sqrt(u - u), 0", "u, v, 0, log(v - 2)",
                                      "u, v, u^0.5 + 1/(v - 0.2), u*v"])
    def test_compiled_domain_error_names_the_same_sub_expression(self, text):
        surface = parse_surface(text)
        messages = []
        for s in (surface, surface, surface, parse_surface(text)):
            with pytest.raises(DomainError) as exc:
                surface_point_data(s, 0.2, 0.2)
            messages.append(str(exc.value))
        assert callable(vars(surface)["_program"])
        assert len(set(messages)) == 1, messages

    def test_generated_code_names_only_its_own_identifiers(self, monkeypatch):
        # numbers and functions reach the program bound by name, never as text
        sources = []
        monkeypatch.setattr(surface_expr, "compile", lambda text, *args: (
            sources.append(text) or compile(text, *args)), raising=False)
        surface = parse_surface("u, v, sin(u)*3.5 + exp(v), pi*u^2.5 - 1e-300")
        surface_expr._compile(surface.components)
        words = set(re.findall(r"\w+", sources[0]))
        assert all(re.fullmatch(r"[tk]\d+|program|def|del|return", w) for w in words)


# The structural-zero rules of Jet2 written apart from its _terms, with one
# helper call per product and per sum: the reference that Jet2's arithmetic
# must equal bit for bit.
def _ref_mul(a, b):
    return _ZERO if a is _ZERO or b is _ZERO else a * b


def _ref_sum(*terms):
    total = _ZERO
    for t in terms:
        if t is not _ZERO:
            total = t if total is _ZERO else total + t
    return total


def _ref_sub(a, b):
    return a if b is _ZERO else -b if a is _ZERO else a - b


def _ref_product(a, b):
    a0, au, av, auu, auv, avv = a
    b0, bu, bv, buu, buv, bvv = b
    return (a0 * b0,
            _ref_sum(_ref_mul(au, b0), _ref_mul(a0, bu)),
            _ref_sum(_ref_mul(av, b0), _ref_mul(a0, bv)),
            _ref_sum(_ref_mul(auu, b0), _ref_mul(_ref_mul(2.0, au), bu),
                     _ref_mul(a0, buu)),
            _ref_sum(_ref_mul(auv, b0), _ref_mul(au, bv), _ref_mul(av, bu),
                     _ref_mul(a0, buv)),
            _ref_sum(_ref_mul(avv, b0), _ref_mul(_ref_mul(2.0, av), bv),
                     _ref_mul(a0, bvv)))


def _ref_chain(a, f0, f1, f2):
    _, du, dv, duu, duv, dvv = a
    f2u, f2v = _ref_mul(f2, du), _ref_mul(f2, dv)
    return (f0, _ref_mul(f1, du), _ref_mul(f1, dv),
            _ref_sum(_ref_mul(f2u, du), _ref_mul(f1, duu)),
            _ref_sum(_ref_mul(f2u, dv), _ref_mul(f1, duv)),
            _ref_sum(_ref_mul(f2v, dv), _ref_mul(f1, dvv)))


def _weighted(*choices):
    """A draw from one of the strategies of (weight, strategy) choices."""
    return st.sampled_from([s for w, s in choices for _ in range(w)]).flatmap(
        lambda s: s)


# Mostly floats of one magnitude with full mantissas, which round differently
# when summed in another order; now and then a special value or any float.
_reals = _weighted((8, st.randoms().map(lambda r: r.uniform(-4.0, 4.0))),
                   (1, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
                   (1, st.floats()))
# A part of a jet: a structural zero, a Python float, a numpy float or a
# six-point array (one shape for all, so that every pair broadcasts).
_part = _weighted((1, st.just(_ZERO)), (2, _reals), (2, _reals.map(np.float64)),
                  (2, st.lists(_reals, min_size=6, max_size=6).map(np.array)))


def _same_part(got, want):
    """Bit for bit and of one type, except that any nan matches any nan; a
    structural zero is the object _ZERO.  (Once warm, CPython 3.11 adds and
    multiplies two floats by a specialized instruction, which returns the
    other operand's nan where both are nan, so nan bits vary run to run.)"""
    if want is _ZERO or got is _ZERO:
        return got is want
    bits = [np.where(np.isnan(x), np.nan, x).tobytes() for x in (got, want)]
    return (type(got), np.shape(got), bits[0]) == (type(want), np.shape(want), bits[1])


class TestJetArithmeticReference:
    # one example of generic parts, which any other order of a sum of three
    # or four terms rounds differently at some point
    GENERIC = list(np.random.default_rng(7).uniform(-4.0, 4.0, (15, 6)))

    @example(a=GENERIC[:6], b=GENERIC[6:12], f=GENERIC[12:], c=0.7)
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_part, min_size=6, max_size=6),
           st.lists(_part, min_size=6, max_size=6),
           st.lists(_part, min_size=3, max_size=3), _reals)
    def test_matches_helper_rules_bit_for_bit(self, a, b, f, c):
        x, y = Jet2(*a), Jet2(*b)
        with np.errstate(all="ignore"):
            cases = [
                (x + y, tuple(map(_ref_sum, a, b))),
                (x - y, tuple(map(_ref_sub, a, b))),
                (-x, tuple(_ref_sub(_ZERO, p) for p in a)),
                (x * y, _ref_product(a, b)),
                (x * c, tuple(_ref_mul(p, c) for p in a)),
                (x.chain(*f), _ref_chain(a, *f)),
            ]
        for got, want in cases:
            assert all(map(_same_part, got.as_tuple(), want)), (got, want)


class TestJson:
    def test_round_trip(self):
        s = CATALOG["holo_square"].surface
        s2 = surface_from_json(json.dumps(s.to_json()))
        assert s2.components == s.components
        assert s2.domain == s.domain

    def test_missing_key(self):
        with pytest.raises(ExpressionError):
            surface_from_json({"name": "x", "f1": "u"})

    @pytest.mark.parametrize("text", ["{not json", b"[1, 2", b'"\xff"'])
    def test_bad_text_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError, match="invalid surface JSON"):
            surface_from_json(text)

    def test_default_domain(self):
        s = surface_from_json({"f1": "u", "f2": "v", "f3": "0", "f4": "0"})
        assert s.domain == (-1.0, 1.0, -1.0, 1.0)

    def test_components_share_powers_and_calls(self):
        # f1..f4 are parsed together, as by parse_surface: an equal call or
        # power in two components is one object, evaluated once per batch,
        # and the jets are those of four separate parses, bit for bit
        texts = ("u + sin(u*v)", "v - 2*sin(u*v)", "u^3*v^2", "exp(v) + v^2")
        s = surface_from_json({f"f{i + 1}": t for i, t in enumerate(texts)})
        sins = {id(n) for f in s.components[:2] for n in _nodes(f)
                if isinstance(n, Call)}
        squares = {id(n) for f in s.components[2:] for n in _nodes(f)
                   if isinstance(n, Pow) and n.exponent == 2.0}
        assert len(sins) == len(squares) == 1
        alone = SurfaceDef("alone", tuple(map(parse, texts)), s.domain)
        assert alone.components[0].right is not alone.components[1].right.right
        for u, v in ((np.linspace(-1, 1, 7), np.linspace(1, -0.5, 7)), (0.2, 0.3)):
            assert _bits(eval_surface_jet(s, u, v)) == _bits(
                eval_surface_jet(alone, u, v))
