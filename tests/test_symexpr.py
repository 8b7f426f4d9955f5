"""Exact arithmetic: ring/field axioms, canonical forms, parsing."""

import copy
import json
import operator
import pickle
import time
from fractions import Fraction
from math import comb
from random import Random

import pytest

from involution_forge import (
    CasimirPolynomial,
    DivisionByZero,
    ExponentOverflow,
    ForbiddenVariable,
    NegativeExponent,
    ParseError,
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    RationalPoint,
    SamplingExhausted,
    TableMismatch,
    UnknownVariable,
    VarKind,
    VarTable,
    Verdict,
    parse_ratfun,
    sample_point,
    symexpr,
)
from involution_forge.symexpr import (
    FIELD_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    Frozen,
    Record,
    _cancel,
    _content_prs_gcd,
    _heuristic_gcd,
    _monomial_gcd,
    _monomial_lcm,
    _zz_quotient,
    as_ratfun,
    migrate_polynomial,
    over_common_denominator,
    poly_exact_div,
    poly_gcd,
    quotient_by_factor,
    sum_of_products,
)
from involution_forge.fixtures import FIXTURE_NAMES, fixture_file
from helpers import (
    BENCHMARKS,
    TuplePolynomial,
    exponent_terms,
    oracle_parse,
    poly_from_terms,
    random_expression,
    random_polynomial,
    random_rational,
    ring_field_suite,
    schwartz_zippel_suite,
    sympy_gcd_terms,
    tuple_exact_div,
    tuple_migrate,
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


def test_evaluation_at_a_pole_raises(table):
    f = parse_ratfun("x1/(x2 - 1)", table)
    point = RationalPoint(table, tuple(Fraction(1) for _ in table.names))
    with pytest.raises(PoleAtPoint, match=r"denominator x2 - 1 vanishes"):
        f.evaluate(point)


def test_sampling_off_a_zero_guard_is_exhausted(table):
    with pytest.raises(SamplingExhausted, match="no admissible point"):
        sample_point(table, [Polynomial.zero(table)], Random(0))


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


def test_derivative_comes_out_reduced(table):
    # denominators with squared factors and factors free of the variable
    # differentiated along; the result must equal (n'd - nd')/d^2 reduced
    # from scratch, term for term
    def poly(text):
        return parse_ratfun(text, table).num

    def check(f, i):
        n, d = f.num, f.den
        got = f.derivative(i)
        want = RationalFunction(n.derivative(i) * d - n * d.derivative(i),
                                d * d)
        assert (got.num, got.den) == (want.num, want.den)
        assert poly_gcd(got.num, got.den) == Polynomial.one(table)

    rng = Random(23)
    factors = [poly(text) for text in (
        "x1 + 1", "x1*x2 + x3", "x2 + 2*x3", "x2^2 + 1", "x3 - 1", "x1 - x3")]
    for _ in range(40):
        den = Polynomial.one(table)
        for factor in rng.sample(factors, rng.randint(1, 3)):
            den = den * factor ** rng.randint(1, 3)
        f = RationalFunction(random_polynomial(table, rng).num, den)
        for i in range(3):
            check(f, i)
    # t = -(x2 + 1) cancels against g = gcd(d, d') = x2 + 1
    f = RationalFunction(poly("x1*(x2 + 1) + 2"),
                         poly("(x2 + 1)*(x1*(x2 + 1) + 1)"))
    check(f, 0)
    assert f.derivative(0) == parse_ratfun("-1/(x1*(x2 + 1) + 1)^2", table)


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


def test_trailing_whitespace_ends_the_expression(table):
    assert parse_ratfun("x1 + 1  ", table) == parse_ratfun("x1 + 1", table)
    assert parse_ratfun(" x1\t\n", table) == parse_ratfun("x1", table)
    # what is missing after trailing blanks is missing at the end of the text
    with pytest.raises(ParseError) as raised:
        parse_ratfun("x1 +  ", table)
    assert str(raised.value) == "unexpected end of input (at position 6)"


def test_exponent_must_be_an_unsigned_integer_literal(table):
    # '^' takes a literal, not a variable or a parenthesized expression
    for text in ("x1^y1", "x1^(2)", "x1^x2", "x1^"):
        with pytest.raises(ParseError) as raised:
            parse_ratfun(text, table)
        assert str(raised.value) == (
            "expected an unsigned integer exponent (at position 3)")
        assert raised.value.position == 3


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
    assert parse_ratfun(f"x1^{MAX_EXPONENT}", table) == parse_ratfun(
        "x1", table) ** MAX_EXPONENT
    with pytest.raises(ParseError, match="exceeds") as raised:
        parse_ratfun(f"x1 + x2^{MAX_EXPONENT + 1}", table)
    assert raised.value.position == 8


def test_term_bound_is_checked_before_expanding(table, monkeypatch):
    # a power of a t-term base is bounded by C(n + t - 1, t - 1), a product
    # or quotient by the products of the numerator and denominator counts
    # it would multiply; a result at the bound is admitted.  The bounds of
    # one expression share one budget
    bound = comb(12 + 3, 3)
    monkeypatch.setattr(symexpr, "MAX_TERMS", bound)
    base = "(x1 + x2 + x3 + 1)"
    assert len(parse_ratfun(f"{base}^12", table).num.terms) == bound
    assert parse_ratfun(f"{base}^6/{base}^6", table) == parse_ratfun(
        "1", table)
    assert parse_ratfun(f"{base}^2*{base}^3", table) == parse_ratfun(
        f"{base}^5", table)
    with pytest.raises(ParseError) as raised:
        parse_ratfun(f"{base}^12/{base}^12", table)
    assert str(raised.value) == (
        f"may expand to {2 * bound} terms in all, more than {bound} "
        f"(at position 40)")
    # a one-term power or product expands nothing and takes nothing: a sum
    # of more such monomials than the budget holds still parses
    monomials = " + ".join(f"{k}*x1^{k % 5}*x2^{k % 3}*x3"
                           for k in range(1, 2 * bound))
    assert len(parse_ratfun(monomials, table).num.terms) == 15
    for text, terms, position in ((f"{base}^13", comb(16, 3), 18),
                                  (f"{base}^5*{base}^3", 56 * 20, 20),
                                  (f"1/{base}^5/{base}^3", 56 * 20, 22)):
        with pytest.raises(ParseError) as raised:
            parse_ratfun(text, table)
        assert str(raised.value) == (
            f"may expand to {terms} terms, more than {bound} "
            f"(at position {position})")
    # a zero numerator has no terms: its powers still parse
    zero, one = parse_ratfun("0", table), parse_ratfun("1", table)
    for text, expected in (("0^2", zero), ("(x1 - x1)^3", zero),
                           ("0^0", one), ("(x1 - x1)^0", one)):
        assert parse_ratfun(text, table) == expected


def test_token_cap_is_checked_while_tokenizing(table, monkeypatch):
    # an expression of exactly MAX_TOKENS tokens parses; the next token is
    # refused at its position, and whitespace does not count
    monkeypatch.setattr(symexpr, "MAX_TOKENS", 7)
    assert parse_ratfun(" x1 * ( x2 + 3 ) ", table) == parse_ratfun(
        "x1*x2 + 3*x1", table)
    with pytest.raises(ParseError) as raised:
        parse_ratfun("x1*(x2 + 3) - 1", table)
    assert str(raised.value) == "more than 7 tokens (at position 12)"


def test_long_coefficients_count_in_the_term_budget(table):
    # a power multiplies the bits of its base's coefficients by up to the
    # exponent, so nested powers of a constant grow them exponentially.  A
    # term whose coefficient may be w times longer than the longest default
    # literal (4300 digits) counts w^2 times, so the fourth power of 2 below
    # is refused before it is computed: it has 10^8 bits, and the fifth
    # would take more than a gigabyte.  A base of more than one term is
    # raised one factor at a time, and each p^k on the way counts: p^k has
    # C(k + t - 1, t - 1) terms of k words here.  Counting only p^n would
    # admit the powers ^46 and ^20 below, which take 1.5 s and 0.8 s
    constant = RationalFunction.constant
    assert parse_ratfun("((2^100)^100)^100", table) == constant(table,
                                                                2**10**6)
    long = "7" * 4300
    assert parse_ratfun(f"({long})^100", table) == constant(table,
                                                            int(long)**100)

    def steps(n, t):
        return sum(comb(k + t - 1, t - 1) * k**2 for k in range(1, n + 1))

    parser = symexpr._Parser(f"(x1 + {long})^5", table)
    assert parser.parse() == parse_ratfun(f"x1 + {long}", table) ** 5
    assert symexpr.MAX_TERMS - parser.budget == steps(5, 2)
    # a product's term pair counts u*v times for coefficients u and v words
    # long: here 3*3 pairs of two words each, after the two squares.  A
    # quotient multiplies the numerator by the divisor's denominator and
    # the denominator by its numerator, here 1*3 pairs of one and two words
    # and then 3*3 pairs of two words each
    parser = symexpr._Parser(f"(x1 + {long})^2*(x2 + {long})^2", table)
    parser.parse()
    assert symexpr.MAX_TERMS - parser.budget == 2 * steps(2, 2) + 9 * 2 * 2
    parser = symexpr._Parser(f"1/(x1 + {long})^2/(x2 + {long})^2", table)
    parser.parse()
    assert symexpr.MAX_TERMS - parser.budget == (2 * steps(2, 2) + 3 * 2
                                                 + 9 * 2 * 2)
    # The gcd that cancels a numerator against the divisor's numerator, or
    # against the other factor's denominator, costs u*v*min(u, v)^2 a term
    # pair for coefficients u and v words long: here 3*3 pairs of two words
    # each after the cross products.  A gcd with a constant or a monomial
    # costs nothing, as above, and neither does one of short coefficients.
    # With one side short the gcd evaluates at a short point: the quotient
    # of the two powers ^10 below, of 66 terms each, takes about 0.02 s in
    # its gcd, which costs 10*1*1^2 a pair.  The short power counts its
    # terms alone
    parser = symexpr._Parser(f"(x1 + {long})^2/(x2 + {long})^2", table)
    parser.parse()
    assert symexpr.MAX_TERMS - parser.budget == (2 * steps(2, 2) + 3 * 2
                                                 + 9 * (2 * 2)**2)
    parser = symexpr._Parser(f"(x1 + {long})^2*(1/(x2 + {long})^2)", table)
    parser.parse()
    assert symexpr.MAX_TERMS - parser.budget == (2 * steps(2, 2) + 2 * 3 * 2
                                                 + 9 * (2 * 2)**2)
    parser = symexpr._Parser(f"(x1 + x2 + {long})^10/(x2 + x3 + 1)^10",
                             table)
    parser.parse()
    assert symexpr.MAX_TERMS - parser.budget == (steps(10, 3) + 66
                                                 + 66 * 10 + 66 * 66 * 10)
    for text, cost, position in (
            ("(((2^100)^100)^100)^100", 6977**2, 19),
            ("((((2^100)^100)^100)^100)^100", 6977**2, 20),
            (f"(x1 + x2 + {long})^100", steps(100, 3), 4312),
            (f"(x1 + {long})^46", steps(46, 2), 4307),
            (f"(x1 + x2 + {long})^20", steps(20, 3), 4312)):
        with pytest.raises(ParseError) as raised:
            parse_ratfun(text, table)
        assert str(raised.value) == (
            f"may expand to {cost} terms of 4300 digits, more than 100000 "
            f"(at position {position})")


def test_degree_budget_is_checked_before_computing(table):
    # the true degrees of the operands count, not the exponents written
    assert parse_ratfun("(x1^100*x2^99)/x3", table) == parse_ratfun(
        "x1^100*x2^99/x3", table)
    assert parse_ratfun("((x1 - x1 + x2)^100)^2", table) == parse_ratfun(
        "x2^100", table) ** 2
    for text, degree, position in (("x1^100*x2^100*x3", 201, 13),
                                   ("x1^100*x2^50/(x3^51)", 201, 12),
                                   ("((x1^100)^100)^100", 10000, 9),
                                   ("((x1 + 1)^67)^3", 201, 13)):
        with pytest.raises(ParseError) as raised:
            parse_ratfun(text, table)
        assert str(raised.value) == (
            f"degree {degree} exceeds {MAX_DEGREE} (at position {position})")


def test_sums_of_fractions_are_inside_the_degree_budget(table):
    # each '+' multiplies in a new denominator, so the sum's degree grows
    # by one per fraction; polynomial sums are not measured at all
    def fractions(n):
        return " + ".join(f"1/(x1+{i})" for i in range(1, n + 1))

    assert parse_ratfun(fractions(200), table).den.degree_in(0) == 200
    text = fractions(201)
    with pytest.raises(ParseError) as raised:
        parse_ratfun(text, table)
    assert str(raised.value) == (
        f"degree 201 exceeds {MAX_DEGREE} "
        f"(at position {text.rindex(' + ') + 1})")
    assert parse_ratfun("x1^100*x2^50 + x2^100*x3^50", table).is_polynomial()


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
    plain = VarTable.build(["x1", ("k1", VarKind.CONSTANT)])
    assert (plain.geometric_indices, plain.pencil_index,
            plain.appended_index) == ((0,), None, None)
    assert table.kind_of("lambda") is VarKind.PENCIL
    assert table.kind_of("k1") is VarKind.CONSTANT


def test_value_types_are_immutable_values():
    # tables and their shared polynomial 1 are never written to, and a
    # value compares, hashes and copies by its fields
    table = VarTable.build(["x1", ("lambda", VarKind.PENCIL)])
    values = [
        table,
        RationalPoint(table, (1, Fraction(1, 2))),
        CasimirPolynomial(["f0", "f1"]),
        Verdict("jacobi[Pi0]", passed=True),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            value.names = ("x2",)
    assert table == VarTable.build(["x1", ("lambda", VarKind.PENCIL)])
    assert table != VarTable.build(["x1", "lambda"])
    assert copy.deepcopy(table).one == Polynomial.constant(table, 1)
    assert repr(values[3]) == (
        "Verdict(label='jacobi[Pi0]', passed=True, witness=None)")


class _Span(Record):
    __slots__ = _fields = ("start", "stop")


class _FrozenSpan(Frozen):
    __slots__ = _fields = ("start", "stop")


def test_record_takes_each_field_once_by_position_or_keyword():
    for span in (_Span(1, 2), _Span(1, stop=2), _Span(stop=2, start=1)):
        assert (span.start, span.stop) == (1, 2)
        assert repr(span) == "_Span(start=1, stop=2)"
    for args, kwargs in (((1,), {}),                       # missing
                         ((), {"start": 1}),               # missing
                         ((1, 2, 3), {}),                  # unknown
                         ((1, 2), {"step": 1}),            # unknown
                         ((1,), {"start": 1, "stop": 2})):  # twice
        with pytest.raises(TypeError, match=r"takes each field of "
                           r"\('start', 'stop'\) once"):
            _Span(*args, **kwargs)


def test_record_is_mutable_and_frozen_is_a_value():
    # a record is a mutable object compared by identity; a Frozen value
    # takes its fields the same way, refuses assignment and compares,
    # hashes and copies by its fields
    span, twin = _Span(1, 2), _Span(1, 2)
    assert span != twin and span == span
    span.stop = 3
    assert repr(span) == "_Span(start=1, stop=3)"
    value = _FrozenSpan(1, stop=2)
    assert value == _FrozenSpan(1, 2) and hash(value) == hash((1, 2))
    assert value != _Span(1, 2)
    assert copy.copy(value) == value and repr(value) == (
        "_FrozenSpan(start=1, stop=2)")
    for name in ("start", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
    with pytest.raises(AttributeError):
        del value.start
    with pytest.raises(TypeError):
        _FrozenSpan(1)


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


# --- gcd: the heuristic against the content/PRS fallback and SymPy ----------


def _gcd_case(rng: Random, size: int):
    """(a, b, c) with a = p*c*m and b = q*c*m over ``size`` variables:
    Fraction coefficients, a shared monomial m, and a last variable that
    only a involves."""
    table = VarTable.build([f"x{i}" for i in range(1, size + 1)])

    def poly(terms, degree, in_last):
        while True:
            out = {}
            for _ in range(terms):
                e = [rng.randint(0, degree) for _ in range(size)]
                e[-1] = e[-1] if in_last else 0
                out[tuple(e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            p = poly_from_terms(table, out)
            if not p.is_constant() and (p.involves(size - 1) or not in_last):
                return p

    c = poly(3, 2, in_last=False)
    shared = [rng.randint(0, 2) for _ in range(size - 1)] + [0]
    m = Polynomial.monomial(table, shared, Fraction(rng.randint(1, 5), 3))
    return poly(3, 2, True) * c * m, poly(3, 2, False) * c * m, c


def test_gcd_matches_the_prs_fallback():
    # the fallback runs only when the heuristic gives up, so call it directly
    rng = Random(23)
    for size in (2, 3, 4, 5, 6) * 4:
        a, b, c = _gcd_case(rng, size)
        g = poly_gcd(a, b)
        assert g == _content_prs_gcd(a, b)
        assert g.leading()[1] == 1
        poly_exact_div(g, c)
        poly_exact_div(a, g)
        poly_exact_div(b, g)


def test_gcd_falls_back_when_the_heuristic_gives_up(monkeypatch):
    # GCDHEU gives up on no input the engine meets; with no evaluation
    # point allowed it gives up at once, and poly_gcd must take the
    # content/PRS path to the same gcd
    rng = Random(31)
    table = VarTable.build(["x1", "x2", "x3", "x4"])
    cases = []
    for _ in range(200):
        c = random_polynomial(table, rng).num
        a, b = (random_polynomial(table, rng).num * c for _ in range(2))
        cases.append((a, b, poly_gcd(a, b)))
    calls = []
    real = symexpr._content_prs_gcd
    monkeypatch.setattr(symexpr, "HEU_GCD_MAX", 0)
    monkeypatch.setattr(symexpr, "_content_prs_gcd",
                        lambda a, b: calls.append(a) or real(a, b))
    for a, b, g in cases:
        assert poly_gcd(a, b) == g
    assert len(calls) >= 100


def test_subresultant_gcd_across_degree_gaps_matches_sympy(monkeypatch):
    # with GCDHEU giving up at once, poly_gcd runs the subresultant
    # sequence in x3.  Knuth's pair (TAOCP vol. 2, 4.6.1) has remainders of
    # degree 8, 6, 4, 2, 1, 0 in x: each of the first three steps has a
    # degree gap d = 2, so h = g^d / h^(d-1) is taken and divided by on the
    # next steps.  With x = x1*x3 the leading coefficients involve x1, and
    # each divisor of the sequence is SymPy's subresultant up to sign; an h
    # too large leaves a division inexact, one too small grows the
    # coefficients.  The pair is coprime, and sparse random pairs, with and
    # without a common factor, add gcds of 1 and of more
    sympy = pytest.importorskip("sympy")
    table = VarTable.build(["x1", "x2", "x3"])
    x = "(x1*x3)"
    a_text = f"{x}^8 + {x}^6 - 3*{x}^4 - 3*{x}^3 + 8*{x}^2 + 2*{x} - 5"
    b_text = f"3*{x}^6 + 5*{x}^4 - 4*{x}^2 - 9*{x} + 21"
    a, b = (parse_ratfun(text, table).num for text in (a_text, b_text))
    divisors = []
    real_prem = symexpr._prem

    def prem(p, q, v):
        if v == 2:
            divisors.append(exponent_terms(q))
        return real_prem(p, q, v)

    monkeypatch.setattr(symexpr, "HEU_GCD_MAX", 0)
    monkeypatch.setattr(symexpr, "_prem", prem)
    assert poly_gcd(a, b) == Polynomial.one(table)
    gens = sympy.symbols("x1 x2 x3")
    a_sym, b_sym = (sympy.sympify(text.replace("^", "**"))
                    for text in (a_text, b_text))
    expected = [{e: Fraction(int(v)) for e, v in
                 sympy.Poly(s, *gens).as_dict().items()}
                for s in sympy.subresultants(a_sym, b_sym, gens[2])[1:]]
    assert len(divisors) == 5
    for ours, theirs in zip(divisors, expected):
        assert ours in (theirs, {e: -c for e, c in theirs.items()})
    c = parse_ratfun("x2*x3^2 + x1*x3 + 1", table).num
    rng = Random(41)

    def sparse(top):
        # three powers of x3, the top one included, each with a coefficient
        # of degree at most 1 in x1 and in x2
        return poly_from_terms(table, {
            (rng.randint(0, 1), rng.randint(0, 1), k): rng.choice((-2, -1,
                                                                   1, 2))
            for k in {top, *rng.sample(range(top), 2)}})

    pairs = [(a * c, b * c)] + [
        pair for p, q, r in ((sparse(5), sparse(3), sparse(2))
                             for _ in range(6))
        for pair in ((p * r, q * r), (p, q))]
    coprime = 0
    for p, q in pairs:
        g = poly_gcd(p, q)
        assert exponent_terms(g) == sympy_gcd_terms(p, q)
        coprime += g == Polynomial.one(table)
    assert coprime >= 3


# pairs on which GCDHEU, with two evaluation points per level, gives up one
# level down at the first point of the level above (found by a search over
# random products with a common factor; the second pair gives up two levels
# down, so two levels take the branch)
INNER_GIVE_UP_CASES = [
    ("25*x2*x3^2 - 5*x2*x3 + 10*x3 - 2", "-25*x3^2 + 1"),
    ("-x1*x2*x3 - 2*x1 - 4*x2^2*x3 - 3*x2*x3 - 8*x2 - 6",
     "-x2^2*x3^2 + x2^2*x3 - 2*x2*x3 + 2*x2"),
    ("-2*x1*x2*x3^2 + 2*x1*x3^2 - x2*x3^2 - 3*x2*x3 + x3^2 + 3*x3",
     "4*x1^2*x3 - 8*x1*x2^2*x3 + 8*x1*x2*x3 + 2*x1*x3 + 6*x1 - 4*x2^2*x3"
     " - 12*x2^2 + 4*x2*x3 + 12*x2"),
]


@pytest.mark.parametrize("a, b", INNER_GIVE_UP_CASES,
                         ids=["two_variables", "two_levels", "one_level"])
def test_gcd_falls_back_when_an_inner_evaluation_gives_up(table, a, b,
                                                          monkeypatch):
    # an inner _heu_gcd that gives up makes its caller give up at once,
    # with an evaluation point still left, and poly_gcd then takes the
    # content/PRS path to SymPy's gcd.  Each call logs whether each of its
    # inner calls gave up, and whether it gave up itself.
    pytest.importorskip("sympy")
    a, b = (parse_ratfun(text, table).num for text in (a, b))
    real, stack, log = symexpr._heu_gcd, [], []

    def spying(f, g, shifts, table):
        stack.append([])
        result = real(f, g, shifts, table)
        inner = stack.pop()
        if stack:
            stack[-1].append(result is None)
        log.append((inner, result is None))
        return result

    monkeypatch.setattr(symexpr, "HEU_GCD_MAX", 2)
    monkeypatch.setattr(symexpr, "_heu_gcd", spying)
    assert exponent_terms(poly_gcd(a, b)) == sympy_gcd_terms(a, b)
    # some call gave up right after its first inner call gave up, of the
    # two evaluation points it had
    assert ([True], True) in log


@pytest.mark.parametrize("a, b", [
    *INNER_GIVE_UP_CASES,
    ("(x1*x2 - 3*x3 + 2)*(x1^2 + x2*x3)", "(x1*x2 - 3*x3 + 2)*(x2 - x3^2)"),
])
def test_gcd_falls_back_when_every_inner_evaluation_gives_up(table, a, b,
                                                             monkeypatch):
    # at the default HEU_GCD_MAX, every _heu_gcd call below the outermost
    # one gives up: the outermost call gives up after its first inner call,
    # with five points left, and poly_gcd takes the content/PRS path to the
    # same gcd
    a, b = (parse_ratfun(text, table).num for text in (a, b))
    expected = poly_gcd(a, b)
    real_heu, real_prs = symexpr._heu_gcd, symexpr._content_prs_gcd
    inner, outer, prs = [], [], []

    def inner_gives_up(f, g, shifts, table):
        if inner:
            inner[-1] += 1
            return None
        inner.append(0)
        result = real_heu(f, g, shifts, table)
        outer.append((inner.pop(), result))
        return result

    monkeypatch.setattr(symexpr, "_heu_gcd", inner_gives_up)
    monkeypatch.setattr(symexpr, "_content_prs_gcd",
                        lambda a, b: prs.append(a) or real_prs(a, b))
    assert poly_gcd(a, b) == expected
    assert outer[0] == (1, None) and prs


def test_truthiness_matches_fraction(table):
    assert not RationalFunction.zero(table)
    assert RationalFunction.one(table)
    assert not Polynomial.zero(table)
    assert Polynomial.one(table)
    assert parse_ratfun("x1 - x1", table).num.__bool__() is False
    assert parse_ratfun("x1 - x1", table).__bool__() is False
    assert parse_ratfun("x2/(x1 + 1)", table).__bool__() is True


def test_gcd_matches_sympy():
    pytest.importorskip("sympy")
    rng = Random(29)
    for size in (2, 3, 4, 5, 6) * 4:
        a, b, _ = _gcd_case(rng, size)
        assert exponent_terms(poly_gcd(a, b)) == sympy_gcd_terms(a, b)


# rationals in [-6, 6] with denominators 1-4, drawn as integers:
# st.fractions spends more time drawing than the gcd takes
def _coefficients(st):
    return st.integers(1, 4).flatmap(
        lambda d: st.integers(-6 * d, 6 * d).map(lambda n: Fraction(n, d)))


def _polynomials(st, table):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), _coefficients(st),
        min_size=1, max_size=4,
    ).map(lambda terms: poly_from_terms(table, terms))


def test_gcd_property_common_factor_divides():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3"])
    poly = _polynomials(st, table)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
    @hypothesis.given(poly, poly, poly)
    def check(a, b, c):
        hypothesis.assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
        ac, bc = a * c, b * c
        hypothesis.assume(not (ac.is_constant() or bc.is_constant()))
        g = poly_gcd(ac, bc)
        poly_exact_div(g, c)
        assert exponent_terms(g) == sympy_gcd_terms(ac, bc)

    check()
    # the content/PRS fallback costs up to 0.15 s on some inputs of this
    # shape, so it runs on a fixed set only, not on the drawn examples
    def poly(text):
        return parse_ratfun(text, table).num

    for a, b in (("(x1*x2 - 3)*(x2 + x3)^2", "(x1*x2 - 3)*(x1 - x3)"),
                 ("(x1^2 + x3/2)*x2", "(x1^2 + x3/2)*(x2^2 + 1)*x3"),
                 ("(2*x1 + x2*x3)*(x1 - 1)", "(x2 - x3)*(x1 + 1)")):
        assert poly_gcd(poly(a), poly(b)) == _content_prs_gcd(poly(a), poly(b))


def test_cancel_leaves_coprime_cofactors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3"])
    poly = _polynomials(st, table)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
    @hypothesis.given(poly, poly, poly)
    def check(a, b, c):
        hypothesis.assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
        p, q = a * c, b * c
        g, p1, q1 = _cancel(p, q)
        assert g * p1 == p and g * q1 == q
        assert poly_gcd(p1, q1).is_constant()

    check()


def test_constant_numerator_takes_no_gcd(table, monkeypatch):
    # a constant shares no factor with anything
    calls = []
    real = symexpr.poly_gcd
    monkeypatch.setattr(symexpr, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    value = RationalFunction(Polynomial.constant(table, 3),
                             parse_ratfun("x1 + 1", table).num)
    assert value.render() == "(3)/(x1 + 1)"
    assert calls == []


def test_coprime_inputs_take_no_division_test(table, monkeypatch):
    # a candidate of 1 divides everything, so GCDHEU accepts it untested
    calls = []
    real = symexpr._zz_quotient
    monkeypatch.setattr(symexpr, "_zz_quotient",
                        lambda f, h, t: calls.append(h) or real(f, h, t))

    def poly(text):
        return parse_ratfun(text, table).num

    for a, b in (("x1 + 1", "x2 + 2"), ("x1*x2 + 3", "x1 - x3"),
                 ("2*x1^2 + x2", "x2*x3 + 1"), ("x1*x3 + x2", "x3^2 + x2")):
        assert poly_gcd(poly(a), poly(b)) == Polynomial.one(table)
    assert calls == []


def test_gcd_of_the_largest_reject_sigma_pair():
    # shaped like the costliest pair in the reject-sigma benchmark:
    # 78 terms against 6, six variables, total degrees 13 and 10
    table = VarTable.build(["x1", "x2", "x3", "y1", "y2", "y3",
                            ("lambda", VarKind.PENCIL)])

    def poly(text):
        return parse_ratfun(text, table).num

    w = poly("x1*y2 - x2*y1")
    a = poly("2*x1^2*x3 - x1^2*y2^2 + 2*x1*x2*y1*y2 - x1*x3*y1*y3"
             " + 2*x2^2*x3 - x2^2*y1^2 - x2*x3*y2*y3 + x3^2*y1^2"
             " + x3^2*y2^2") * poly(
        "2*x1^2*y2*y3 + 2*x1*x3*y1*y2 - x1*y1*y2*y3^2 - 2*x2*x3*y1^2"
        " + x3*y1^2*y2*y3") * w ** 2 * Fraction(-1, 4)
    b = w ** 5
    assert (len(a.terms), len(b.terms)) == (78, 6)
    assert _heuristic_gcd(a, b) == w ** 2
    assert poly_gcd(a, b) == w ** 2 == _content_prs_gcd(a, b)


# --- denominator-aware arithmetic against the generic constructor ---------------

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _generic(op: str, x: RationalFunction, y: RationalFunction):
    """x op y rebuilt through __init__, which reduces from scratch."""
    a, b, c, d = x.num, x.den, y.num, y.den
    if op == "+":
        return RationalFunction(a * d + c * b, b * d)
    if op == "-":
        return RationalFunction(a * d - c * b, b * d)
    if op == "*":
        return RationalFunction(a * c, b * d)
    return RationalFunction(a * d, b * c)


def _assert_same(got: RationalFunction, want: RationalFunction):
    assert (got.num, got.den) == (want.num, want.den)


def _operands(mode: str, p, q, r, s, f):
    """Two reduced fractions whose denominators are related as ``mode``
    says; r involves only x1 and s only x2, so they are coprime."""
    one = Polynomial.one(p.table)
    pairs = {
        "unit": ((p, one), (q, one)),
        # the sum q/s cancels r out of the common denominator
        "equal": ((p, r * s), (q * r - p, r * s)),
        "coprime": ((p, r), (q, s)),
        "shared": ((p, f * r), (q, f * s)),
        # the sum q/r cancels f out of the denominators' gcd
        "shared-cancel": ((p, f), (f * q - p * r, f * r)),
    }[mode]
    return [RationalFunction(n, d) for n, d in pairs]


def test_arithmetic_matches_the_generic_constructor():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3"])
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def poly(exponents):
        return st.dictionaries(exponents, coeff, min_size=1, max_size=3).map(
            lambda terms: poly_from_terms(table, terms))

    degree = st.integers(0, 2)
    anywhere = poly(st.tuples(degree, degree, degree))
    in_x1 = poly(st.tuples(degree, st.just(0), st.just(0)))
    in_x2 = poly(st.tuples(st.just(0), degree, st.just(0)))
    modes = st.sampled_from(
        ["unit", "equal", "coprime", "shared", "shared-cancel"])

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
    @hypothesis.given(modes, anywhere, anywhere, in_x1, in_x2, anywhere)
    def check(mode, p, q, r, s, f):
        hypothesis.assume(not (r.is_zero() or s.is_zero() or f.is_zero()))
        x, y = _operands(mode, p, q, r, s, f)
        for op in ("+", "-", "*"):
            _assert_same(_OPS[op](x, y), _generic(op, x, y))
        if y:
            _assert_same(x / y, _generic("/", x, y))
        for n in range(4):
            _assert_same(x**n, RationalFunction(x.num**n, x.den**n))

    check()


def test_denominator_aware_edge_cases(table):
    def poly(text):
        return parse_ratfun(text, table).num

    one = Polynomial.one(table)
    x = RationalFunction(poly("x1"), poly("x1 + x2"))
    # equal non-unit denominators that cancel to the canonical zero
    for zero in (x + RationalFunction(poly("-x1"), poly("x1 + x2")), x - x):
        assert zero.is_zero() and zero.den == one
    product = x * RationalFunction(poly("x1 + x2"), poly("x1"))
    assert (product.num, product.den) == (one, one)
    # the flipped divisor's denominator 2*x1 + 1 is not monic
    y = RationalFunction(poly("x3"), poly("x1 + x3"))
    divisor = RationalFunction(poly("2*x1 + 1"), poly("x2"))
    quotient = y / divisor
    _assert_same(quotient, _generic("/", y, divisor))
    assert quotient.den.leading()[1] == 1
    assert quotient.render() == (
        "(1/2*x2*x3)/(x1^2 + x1*x3 + 1/2*x1 + 1/2*x3)")
    base = RationalFunction(poly("x1 + 1"), poly("3*x2 + x1"))
    _assert_same(base**3, RationalFunction(poly("(x1 + 1)^3"),
                                           poly("(3*x2 + x1)^3")))
    # the denominators share x1 + x2, and the sum cancels it
    shared = (RationalFunction(poly("x1 + x2 + x3"), poly("(x1 + x2)*x3"))
              - RationalFunction(one, poly("x1 + x2")))
    _assert_same(shared, RationalFunction(one, poly("x3")))
    # multiplying by a constant 1 shares the operand instead of copying it
    p = poly("x1 + 2*x3")
    assert p * one is p and one * p is p and p * 1 is p


def test_products_and_sums_hand_the_gcd_only_what_can_cancel(table,
                                                              monkeypatch):
    def poly(text):
        return parse_ratfun(text, table).num

    x = RationalFunction(poly("x1"), poly("x1 + x2"))
    y = RationalFunction(poly("x1 + x2"), poly("x2"))
    z = RationalFunction(poly("x2"), poly("x1 + x3"))
    calls = []
    real = symexpr.poly_gcd

    def spying(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(symexpr, "poly_gcd", spying)
    product = x * y
    assert (product.num, product.den) == (poly("x1"), poly("x2"))
    assert calls
    assert max(sum(e) for a, b in calls
               for e in (*exponent_terms(a), *exponent_terms(b))) <= 1
    calls.clear()
    x + z
    assert calls == [(x.den, z.den)]
    # over one shared denominator only the sum's numerator meets it
    w = RationalFunction(poly("x2"), poly("x1 + x2"))
    calls.clear()
    total = x + w
    assert total == RationalFunction.one(table)
    assert calls == [(poly("x1 + x2"), x.den)]


def test_arithmetic_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    table = VarTable.build(["x1", "x2", "x3"])
    gens = sympy.symbols(table.names)
    rng = Random(31)

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(g**k for g, k in zip(gens, e))
                    for e, c in exponent_terms(p).items()), sympy.Integer(0))

    def poly():
        return random_polynomial(table, rng, terms=3, degree=2, bound=4).num

    for mode in ("equal", "coprime", "shared", "shared-cancel"):
        p, q, f = poly(), poly(), poly()
        r = poly_from_terms(table, {(1, 0, 0): 1,
                                    (0, 0, 0): rng.randint(1, 5)})
        s = poly_from_terms(table, {(0, 2, 0): rng.randint(1, 3),
                                    (0, 0, 0): -1})
        if f.is_zero():
            continue
        x, y = _operands(mode, p, q, r, s, f)
        for op in ("+", "-", "*", "/"):
            if op == "/" and not y:
                continue
            got = _OPS[op](x, y)
            want = sympy.cancel(_OPS[op](to_sympy(x.num) / to_sympy(x.den),
                                         to_sympy(y.num) / to_sympy(y.den)))
            num, den = sympy.fraction(want)
            assert sympy.expand(to_sympy(got.num) * den
                                - num * to_sympy(got.den)) == 0
            reduced = sympy.Poly(to_sympy(got.num), *gens, domain="QQ").gcd(
                sympy.Poly(to_sympy(got.den), *gens, domain="QQ"))
            assert reduced.is_one or got.is_zero()


# --- packed monomials: the guard bit and the tuple/Fraction oracle -------------

_TOP = 2 ** (FIELD_BITS - 1) - 1  # the largest exponent below the guard bit


def test_exponent_below_the_guard_is_kept(table):
    x2 = Polynomial.variable(table, "x2")
    high = Polynomial.monomial(table, (0, _TOP - 1, 0), 3)
    # the neighbours of the x2 field stay untouched: nothing carries
    product = (high * x2) * parse_ratfun("x1 + x3", table).num
    assert exponent_terms(product) == {(1, _TOP, 0): 3, (0, _TOP, 1): 3}
    assert product.degree_in(1) == _TOP


def test_exponent_at_the_guard_raises(table):
    x2 = Polynomial.variable(table, "x2")
    high = Polynomial.monomial(table, (0, _TOP, 0))
    with pytest.raises(ExponentOverflow):
        high * x2
    with pytest.raises(ExponentOverflow):
        x2 * parse_ratfun("x1 + 1", table).num * high
    half = Polynomial.monomial(table, (0, _TOP // 2 + 1, 0))
    with pytest.raises(ExponentOverflow):
        half**2
    with pytest.raises(ExponentOverflow):
        Polynomial.monomial(table, (0, _TOP + 1, 0))


def _packed(table, exponents) -> int:
    return max(Polynomial.monomial(table, exponents).terms)


def _exponents(table, m: int) -> tuple:
    [exponents] = exponent_terms(Polynomial(table, {m: 1}))
    return exponents


def test_fieldwise_min_and_max_match_the_per_field_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3", ("lambda", VarKind.PENCIL)])
    # the extremes of a field, 0 and the largest exponent below the guard,
    # next to anything in between
    field = st.one_of(st.sampled_from((0, 1, _TOP - 1, _TOP)),
                      st.integers(0, _TOP))
    monomial = st.tuples(*[field] * table.size)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(st.lists(monomial, min_size=1, max_size=5))
    def check(exponents):
        packed = [_packed(table, e) for e in exponents]
        low = tuple(map(min, zip(*exponents)))
        high = tuple(map(max, zip(*exponents)))
        assert _exponents(table, _monomial_gcd(table, packed)) == low
        assert _exponents(table, _monomial_lcm(table, packed)) == high
        assert _monomial_gcd(table, set(packed)) == _packed(table, low)

    check()


def test_exact_division_room_per_field(table):
    def terms(text):
        return parse_ratfun(text, table).num.terms

    # h has a higher degree than f in one field: no quotient
    assert _zz_quotient(terms("x1^5*x2 + x3"), terms("x2^2 + 1"),
                        table) is None
    assert _zz_quotient(Polynomial.monomial(table, (_TOP, 0, 0)).terms,
                        terms("x1*x2"), table) is None
    # a variable h lacks takes its whole field below the guard
    top = Polynomial.monomial(table, (0, _TOP, 0)) + Polynomial.monomial(
        table, (0, 0, _TOP), 2)
    h = parse_ratfun("x1 + 1", table).num
    assert _zz_quotient((top * h).terms, h.terms, table) == top.terms
    f = Polynomial.monomial(table, (_TOP, _TOP - 1, 0))
    assert _zz_quotient(f.terms, terms("x2^3"), table) == {
        _packed(table, (_TOP, _TOP - 4, 0)): 1}


def test_kernel_matches_the_tuple_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies
    table = VarTable.build([f"x{i}" for i in range(1, 8)]
                           + [("lambda", VarKind.PENCIL)])
    wide = table.extend("s", VarKind.APPENDED)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * table.size),
                            _coefficients(st), max_size=3)
    values = st.tuples(*[st.builds(Fraction, st.integers(-9, 9),
                                   st.integers(1, 3))] * table.size)

    def same(p: Polynomial, oracle: TuplePolynomial):
        assert exponent_terms(p) == oracle.terms
        assert p.render() == oracle.render()

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
    @hypothesis.given(terms, terms, terms, st.integers(0, 3),
                      st.integers(0, table.size - 1), values)
    def check(ta, tb, tc, n, index, point):
        a, b, c = (poly_from_terms(table, t) for t in (ta, tb, tc))
        oa, ob, oc = (TuplePolynomial(table, t) for t in (ta, tb, tc))
        same(a, oa)
        same(a + b, oa + ob)
        same(a - b, oa - ob)
        same(a * b, oa * ob)
        same(a**n, oa**n)
        if table.kinds[index].geometric:
            same(a.derivative(index), oa.derivative(index))
        else:
            with pytest.raises(ForbiddenVariable):
                a.derivative(index)
        at = RationalPoint(table, point)
        assert a.evaluate(at) == oa.evaluate(at)
        if not b.is_zero():
            same(poly_exact_div(a * b, b), tuple_exact_div(oa * ob, ob))
            same(a * b // b, oa)
        if not c.is_zero():
            assert exponent_terms(poly_gcd(a * c, b * c)) == sympy_gcd_terms(
                a * c, b * c)
        same(migrate_polynomial(a, wide), tuple_migrate(oa, wide))
        same(migrate_polynomial(migrate_polynomial(a, wide), table), oa)

    check()


def test_values_over_a_common_denominator():
    # each value is its numerator over the monic lcm of the denominators,
    # with equal denominators counted once; all-polynomial values come
    # back as they are, with no denominator
    table = VarTable.build(["x1", "x2", "y1"])
    texts = ["x1/(x1*x2 + 1)", "y1/(2*x1)", "1/(x1^2*x2 + x1)", "x2 - y1",
             "3/(x1*x2 + 1)"]
    values = {k: parse_ratfun(t, table) for k, t in enumerate(texts)}
    [numerators], D = over_common_denominator(values)
    assert D == parse_ratfun("x1^2*x2 + x1", table)
    for k, v in values.items():
        assert numerators[k].is_polynomial()
        assert numerators[k] / D == v
    split = over_common_denominator({0: values[0]}, {1: values[1]})
    assert split == ([{0: numerators[0]}, {1: numerators[1]}], D)
    plain = {0: values[3], 1: values[3] * values[3]}
    assert over_common_denominator(plain) == ([plain], None)


# --- the fused sum of products -------------------------------------------------

# monic denominators: 1, coprime ones, and products that share a factor
DENOMINATORS = ("1", "x1 + 1", "x2 - 2", "x1*x3 + 1/2", "(x1 + 1)*(x2 - 2)",
                "(x1 + 1)^2")


def test_sum_of_products_matches_the_sum_of_fractions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3"])
    dens = [parse_ratfun(d, table).num for d in DENOMINATORS]
    fraction = st.builds(
        lambda num, den: RationalFunction(num, den),
        st.one_of(st.just(Polynomial.zero(table)), _polynomials(st, table)),
        st.sampled_from(dens))
    triple = st.tuples(st.sampled_from((1, -1, 2, -2)), fraction, fraction)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
    @hypothesis.given(st.lists(triple, max_size=6))
    def check(products):
        want = RationalFunction.zero(table)
        for sign, left, right in products:
            want = want + left * right * sign
        # a triple reused with the opposite sign cancels to zero
        twice = products + [(-sign, left, right)
                            for sign, left, right in products]
        got = sum_of_products(table, products)
        assert (got.num, got.den) == (want.num, want.den)
        assert sum_of_products(table, twice).is_zero()

    check()


def test_sum_of_products_forms_no_polynomial_product(table, monkeypatch):
    # with unit denominators everything lands in one group over 1: the
    # products go term pair by term pair into one dict, and nothing calls
    # Polynomial.__mul__ (more than one group adds its groups as fractions)
    values = [parse_ratfun(t, table) for t in ("x1 + 2*x2", "x3^2 - 1/3",
                                                "5", "x1*x2*x3 + x1")]
    products = [(sign, a, b) for sign in (1, -2)
                for a in values for b in values]
    want = sum((a * b * sign for sign, a, b in products),
               RationalFunction.zero(table))
    calls = []
    real = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert sum_of_products(table, products) == want
    assert calls == []


def test_sum_of_products_raises_just_at_the_guard(table):
    def rf(p, q=None):
        return RationalFunction(p, q or Polynomial.one(table))

    x1, x2 = (Polynomial.variable(table, n) for n in ("x1", "x2"))
    below = Polynomial.monomial(table, (0, _TOP - 1, 0))
    at = Polynomial.monomial(table, (0, _TOP, 0))
    # numerators: the largest exponent below the guard is kept, one more
    # raises, whichever factor carries it and whatever its other terms
    kept = sum_of_products(table, [(1, rf(below + x1), rf(x2 + 1))])
    assert kept == rf((below + x1) * (x2 + 1))
    assert kept.num.degree_in(1) == _TOP
    for left, right in ((at + x1, x2 + 1), (x2 + 3, at), (at, x2 * x1)):
        with pytest.raises(ExponentOverflow):
            sum_of_products(table, [(1, rf(left), rf(right))])
    # the check is per product, before its terms meet the sum's other terms
    with pytest.raises(ExponentOverflow):
        sum_of_products(table, [(1, rf(at), rf(x2)), (-1, rf(at), rf(x2))])
    # another field does not add up: x1^TOP * x2^TOP is below the guard
    wide = Polynomial.monomial(table, (_TOP, 0, 0))
    assert sum_of_products(table, [(1, rf(wide), rf(at))]) == rf(wide * at)
    # denominators: 1/x2^(TOP-1) * 1/x2 is kept, 1/x2^TOP * 1/x2 raises
    one = Polynomial.one(table)
    assert sum_of_products(table, [(1, rf(one, below), rf(one, x2))]) == rf(
        one, below * x2)
    with pytest.raises(ExponentOverflow):
        sum_of_products(table, [(1, rf(one, at), rf(one, x2))])


def test_quotient_by_a_power_divides_one_factor_at_a_time(table,
                                                           monkeypatch):
    def poly(text):
        return parse_ratfun(text, table).num

    D = parse_ratfun("x1*x2 + 1", table)
    calls = []
    real = symexpr.poly_gcd

    def spying(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(symexpr, "poly_gcd", spying)
    for num, den, gcds in (
            ("(x1*x2 + 1)^3*(x3 - 1)", "1", 0),   # D^3 divides: no gcd
            ("(x1*x2 + 1)^4*x3", "x2 + 1", 0),   # more than D^3 divides
            ("(x1*x2 + 1)*(x3 + 2)", "1", 1),    # coprime after one factor
            ("x3^2 + x1", "x1 + 2", 1),          # coprime at once
            ("(x1*x2 + 1)^2", "x3", 0),          # a constant is left
            ("0", "1", 0)):
        value = RationalFunction(poly(num), poly(den))
        calls.clear()
        got = quotient_by_factor(value, D, 3)
        assert len(calls) == gcds, num
        assert (got.num, got.den) == (
            (value / D**3).num, (value / D**3).den), num
    # a divisor that shares only a factor with the numerator, with a
    # non-monic leading coefficient: x1 cancels, x2 + 1 stays
    value = RationalFunction(poly("x1^2*(x3 + 1)"), poly("x3 - 5"))
    divisor = parse_ratfun("2*x1*(x2 + 1)", table)
    for power in (1, 2, 3):
        got = quotient_by_factor(value, divisor, power)
        want = value / divisor**power
        assert (got.num, got.den) == (want.num, want.den)
    # a divisor that is no polynomial takes the general quotient
    fraction = parse_ratfun("x1/(x2 + 1)", table)
    assert quotient_by_factor(value, fraction, 2) == value / fraction**2


# --- the parser against the token-by-token oracle ------------------------------


def _strings(payload):
    """Every string in a JSON payload."""
    if isinstance(payload, str):
        yield payload
    elif isinstance(payload, dict):
        for value in payload.values():
            yield from _strings(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _strings(value)


SPEC_FILES = ([fixture_file(name) for name in FIXTURE_NAMES]
              + sorted((BENCHMARKS / "specs").glob("*.json")))


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_spec_expressions_parse_to_the_oracle_form(path):
    # every expression of a bundled or benchmark spec, names included,
    # over a table of its variables and every other name it mentions
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = [v if isinstance(v, str) else (v["name"], v["kind"])
               for v in payload["variables"]]
    declared = {e if isinstance(e, str) else e[0] for e in entries}
    texts = [t for t in _strings(payload) if t != payload["name"]]
    mentioned = {name for t in texts for name in symexpr._IDENT_RE.findall(t)}
    extra = sorted(mentioned - declared)
    table = VarTable.build(entries + [(n, VarKind.CONSTANT) for n in extra])
    parsed = 0
    for text in texts:
        try:
            want = oracle_parse(text, table)
        except ParseError:  # a note or a message, not an expression
            with pytest.raises(ParseError):
                parse_ratfun(text, table)
            continue
        got = parse_ratfun(text, table)
        assert (got.num, got.den) == (want.num, want.den), text
        assert got.render() == want.render()
        parsed += 1
    assert parsed > 20


def test_random_expressions_parse_to_the_oracle_form(table):
    rng = Random(71)
    names = list(table.names)
    refused = 0
    for _ in range(300):
        text = random_expression(rng, names)
        try:
            want = oracle_parse(text, table)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                parse_ratfun(text, table)
            refused += 1
            continue
        got = parse_ratfun(text, table)
        assert (got.num, got.den) == (want.num, want.den), text
    assert refused < 30


def test_parse_time_grows_linearly(table):
    # ROADMAP item 5: a sum of n distinct monomials c*x1^a*x2^b*x3^c
    # parses in time about linear in n; quadratic growth would take 16
    # times as long for four times the terms
    def text(n):
        rng = Random(5)
        exponents = rng.sample(range(41**3), n)
        return " + ".join(
            f"{rng.randint(1, 99)}*x1^{e // 1681}*x2^{e // 41 % 41}"
            f"*x3^{e % 41}" for e in exponents)

    def best(text):
        times = []
        for _ in range(2):
            start = time.process_time()
            value = parse_ratfun(text, table)
            times.append(time.process_time() - start)
        return min(times), len(value.num.terms)

    small, n_small = best(text(1000))
    large, n_large = best(text(4000))
    assert (n_small, n_large) == (1000, 4000)
    assert large < 8 * small
