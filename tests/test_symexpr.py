"""Exact arithmetic: ring/field axioms, canonical forms, parsing."""

from fractions import Fraction
from random import Random

import pytest

from involution_forge import (
    DivisionByZero,
    NegativeExponent,
    ParseError,
    Polynomial,
    RationalFunction,
    TableMismatch,
    UnknownVariable,
    VarKind,
    VarTable,
    parse_ratfun,
    sample_point,
)
from involution_forge.symexpr import MAX_NESTING, as_ratfun
from helpers import (
    random_polynomial,
    random_rational,
    ring_field_suite,
    schwartz_zippel_suite,
)


@pytest.fixture(scope="module")
def table():
    return VarTable.build(["x1", "x2", "x3"])


def test_ring_and_field_axioms():
    ring_field_suite(n=200)


def test_schwartz_zippel_equality_testing():
    schwartz_zippel_suite(n=40)


def test_quotient_reduction_cancels_common_factors(table):
    f = parse_ratfun("(x1^2 - x2^2)/(x1 - x2)", table)
    assert f == parse_ratfun("x1 + x2", table)
    assert f.den == Polynomial.one(table)
    g = parse_ratfun("((x1 + x2)*(x1 - x2))/((x1 + x2)*x3)", table)
    assert g == parse_ratfun("(x1 - x2)/x3", table)
    assert g.den == Polynomial.variable(table, "x3")


def test_random_quotients_share_no_factor(table):
    rng = Random(5)
    for _ in range(25):
        p = random_polynomial(table, rng, terms=2, degree=1, bound=3)
        q = random_polynomial(table, rng, terms=2, degree=1, bound=3)
        r = random_polynomial(table, rng, terms=2, degree=1, bound=3)
        if p.is_zero() or r.is_zero():
            continue
        assert (p * q) / (p * r) == q / r


def test_denominator_is_monic(table):
    f = parse_ratfun("x1/(2*x2)", table)
    assert f == parse_ratfun("(1/2)*x1/x2", table)
    assert f.den == Polynomial.variable(table, "x2")
    assert f.render() == "(1/2*x1)/(x2)"


def test_evaluation_is_a_homomorphism(table):
    rng = Random(9)
    for _ in range(50):
        f = random_rational(table, rng)
        g = random_rational(table, rng)
        point = sample_point(table, [f.den, g.den], rng)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert isinstance(f.evaluate(point), Fraction)


def test_parse_render_round_trip(table):
    rng = Random(13)
    for _ in range(100):
        f = random_rational(table, rng)
        assert parse_ratfun(f.render(), table) == f


def test_derivative_product_and_power_rules(table):
    rng = Random(17)
    idx = 0
    for _ in range(30):
        f = random_polynomial(table, rng)
        g = random_polynomial(table, rng)
        lhs = (f * g).derivative(idx)
        rhs = f.derivative(idx) * g + f * g.derivative(idx)
        assert lhs == rhs
        cube = f * f * f
        assert cube.derivative(idx) == f * f * f.derivative(idx) * Fraction(3)
    c = RationalFunction.constant(table, Fraction(7, 3))
    assert c.derivative(0).is_zero()
    assert parse_ratfun("x2", table).derivative(0).is_zero()


def test_quotient_rule(table):
    rng = Random(19)
    for _ in range(15):
        f = random_rational(table, rng)
        num, den = f.num, f.den
        lhs = f.derivative(1) * (RationalFunction.from_polynomial(den) ** 2)
        rhs = (RationalFunction.from_polynomial(num.derivative(1))
               * RationalFunction.from_polynomial(den)
               - RationalFunction.from_polynomial(num)
               * RationalFunction.from_polynomial(den.derivative(1)))
        assert lhs == rhs


def test_substitute_matches_composition(table):
    f = parse_ratfun("x1^2 + x2", table)
    g = parse_ratfun("x3 + 1", table)
    composed = f.substitute({"x1": g})
    assert composed == parse_ratfun("(x3 + 1)^2 + x2", table)


def test_integer_and_power_literals(table):
    assert parse_ratfun("2^3", table) == RationalFunction.constant(
        table, Fraction(8))
    assert parse_ratfun("x1^0", table) == RationalFunction.one(table)
    assert parse_ratfun("x1/2", table) == parse_ratfun("(1/2)*x1", table)


def test_parse_error_paths(table):
    with pytest.raises(NegativeExponent):
        parse_ratfun("x1^-2", table)
    with pytest.raises(UnknownVariable):
        parse_ratfun("x9", table)
    with pytest.raises(ParseError):
        parse_ratfun("1.5", table)
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_ratfun("x1 +", table)
    with pytest.raises(ParseError):
        parse_ratfun("(x1", table)
    with pytest.raises(ParseError):
        parse_ratfun("x1 x2", table)
    with pytest.raises(DivisionByZero):
        parse_ratfun("x1/(x2 - x2)", table)
    nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_ratfun(nested, table) == parse_ratfun("x1", table)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_ratfun(f"({nested})", table)


def test_table_kinds_and_lookup():
    table = VarTable.build([
        "a1", "a2",
        ("lambda", VarKind.PENCIL),
        ("s", VarKind.APPENDED),
        ("k1", VarKind.CONSTANT),
    ])
    # dim counts the geometric coordinates only: the pencil parameter
    # and declared constants never carry a differential
    assert table.dim == 3
    assert table.geometric_indices == (0, 1, 3)
    assert table.pencil_index == 2
    assert table.appended_index == 3
    assert table.kind_of("lambda") is VarKind.PENCIL
    assert table.kind_of("k1") is VarKind.CONSTANT


def test_as_ratfun_coerces_each_accepted_type(table):
    x1 = RationalFunction.variable(table, "x1")
    assert as_ratfun(table, "x1/2") == x1 * Fraction(1, 2)
    assert as_ratfun(table, x1) is x1
    assert as_ratfun(table, Polynomial.variable(table, "x1")) == x1
    assert as_ratfun(table, 3) == RationalFunction.constant(table, 3)
    assert as_ratfun(table, Fraction(1, 3)) == RationalFunction.constant(
        table, Fraction(1, 3))
    with pytest.raises(TypeError):
        as_ratfun(table, 0.5)
    other = VarTable.build(["x1", "x2"])
    with pytest.raises(TableMismatch):
        as_ratfun(table, Polynomial.variable(other, "x1"))
    with pytest.raises(TableMismatch):
        as_ratfun(table, RationalFunction.variable(other, "x1"))
