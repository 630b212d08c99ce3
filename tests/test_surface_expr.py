"""Parser behaviour and exactness of the second-order jet arithmetic."""

import json
import math

import numpy as np
import pytest

from twistor4.catalog import CATALOG
from twistor4.errors import (
    ArityError,
    DomainError,
    ExpressionError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from twistor4.surface_expr import (
    SurfaceDef,
    eval_jet2,
    eval_surface_jet,
    expr_text,
    finite_mask,
    parse,
    parse_surface,
    surface_from_json,
)


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


from hypothesis import given
from hypothesis import strategies as st

from twistor4.surface_expr import Bin, Call, Const, Neg, Num, Pow, Var

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
    # a constant tree gives plain numbers, which broadcast over the batch
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


class TestJson:
    def test_round_trip(self):
        s = CATALOG["holo_square"].surface
        s2 = surface_from_json(json.dumps(s.to_json()))
        assert s2.components == s.components
        assert s2.domain == s.domain

    def test_missing_key(self):
        with pytest.raises(ExpressionError):
            surface_from_json({"name": "x", "f1": "u"})

    def test_default_domain(self):
        s = surface_from_json({"f1": "u", "f2": "v", "f3": "0", "f4": "0"})
        assert s.domain == (-1.0, 1.0, -1.0, 1.0)
