"""Exterior algebra: wedge, derivative, pairing, interior, Schouten.

A Hypothesis property over forms whose components share, nest or lack
denominators requires ``wedge``, ``interior``, ``pairing`` and
``bivector_sharp`` to equal the product-by-product oracles of ``helpers``
(each product by ``*``, added by ``+``) and to hold no zero component,
also where the products cancel to zero.  ``schouten`` is checked against
``oracle_schouten``."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from involution_forge.cli import assemble, elaborate
from involution_forge import (
    DegreeError,
    DimensionMismatch,
    ExponentOverflow,
    ForbiddenVariable,
    Form,
    MultiVector,
    Polynomial,
    RationalFunction,
    VarKind,
    UnsupportedDegrees,
    VarTable,
    bivector_sharp,
    differential,
    divided_power,
    exterior_derivative,
    from_records,
    interior,
    pairing,
    parse_ratfun,
    schouten,
    sharp,
    wedge,
)
from helpers import (
    exterior_laws_suite,
    load_spec,
    oracle_bivector_sharp,
    oracle_interior,
    oracle_pairing,
    oracle_schouten,
    oracle_wedge,
    random_form,
    random_multivector,
    random_polynomial,
    schouten_jacobiator_suite,
)


@pytest.fixture(scope="module")
def table():
    return VarTable.build(["x1", "x2", "y1", "y2"])


def test_graded_wedge_laws_and_d_squared():
    exterior_laws_suite(n=30)


def test_schouten_square_tracks_coordinate_jacobiators():
    schouten_jacobiator_suite(n=50)


def test_differential_leibniz_on_functions(table):
    rng = Random(61)
    for _ in range(20):
        f = random_polynomial(table, rng)
        g = random_polynomial(table, rng)
        lhs = differential(f * g, table)
        rhs = differential(f, table) * g + differential(g, table) * f
        assert lhs == rhs


def test_pairing_is_the_coefficient_sum(table):
    rng = Random(63)
    for degree in (1, 2, 3):
        for _ in range(8):
            a = random_form(table, degree, rng)
            P = random_multivector(table, degree, rng)
            brute = RationalFunction.zero(table)
            for idx in itertools.combinations(range(4), degree):
                brute = brute + a.coefficient(idx) * P.coefficient(idx)
            assert pairing(a, P) == brute


def test_pairing_rejects_degree_mismatch(table):
    one = RationalFunction.one(table)
    a = Form(table, 1, {(0,): one})
    P = MultiVector(table, 2, {(0, 1): one})
    with pytest.raises(DegreeError):
        pairing(a, P)


def test_interior_on_basis_elements(table):
    one = RationalFunction.one(table)
    dx1 = Form(table, 1, {(0,): one})
    dx2 = Form(table, 1, {(1,): one})
    d1 = MultiVector(table, 1, {(0,): one})
    d2 = MultiVector(table, 1, {(1,): one})
    assert interior(d1, wedge(dx1, dx2)) == dx2
    assert interior(d2, wedge(dx1, dx2)) == -dx1
    assert interior(d2, dx1).is_zero()


def test_interior_is_adjoint_to_wedging(table):
    # <i_P a, Q> = <a, P ^ Q>: contraction fills the leading slots
    rng = Random(67)
    for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)):
        for _ in range(6):
            P = random_multivector(table, p, rng)
            Q = random_multivector(table, q, rng)
            a = random_form(table, p + q, rng)
            assert pairing(interior(P, a), Q) == pairing(a, wedge(P, Q))


def test_wedge_power_matches_iterated_wedge(table):
    rng = Random(71)
    a = random_form(table, 2, rng)
    assert divided_power(a, 0) == Form.scalar(
        table, RationalFunction.one(table))
    assert divided_power(a, 1) == a
    assert divided_power(a, 2) == wedge(a, a) * Fraction(1, 2)
    assert divided_power(a, 3) == wedge(a, wedge(a, a)) * Fraction(1, 6)


def test_schouten_gradings(table):
    rng = Random(73)
    for _ in range(10):
        X = random_multivector(table, 1, rng)
        Y = random_multivector(table, 1, rng)
        P = random_multivector(table, 2, rng)
        Q = random_multivector(table, 2, rng)
        # (1,1): the classical commutator of vector fields
        assert schouten(X, Y) == -schouten(Y, X)
        # (2,2): symmetric
        assert schouten(P, Q) == schouten(Q, P)
        # bilinear over rational constants
        c = Fraction(3)
        assert schouten(P * c, Q) == schouten(P, Q) * c
        assert schouten(P + Q, Q) == schouten(P, Q) + schouten(Q, Q)


def test_schouten_of_a_bivector_and_a_3_vector_is_unsupported(table):
    rng = Random(79)
    P = random_multivector(table, 2, rng)
    R = random_multivector(table, 3, rng)
    with pytest.raises(UnsupportedDegrees, match=r"degrees \(2, 3\)"):
        schouten(P, R)


def test_schouten_vector_fields_is_the_commutator(table):
    rng = Random(79)
    geo = range(4)
    for _ in range(10):
        X = random_multivector(table, 1, rng)
        Y = random_multivector(table, 1, rng)
        comps = {}
        for j in geo:
            entry = RationalFunction.zero(table)
            for i in geo:
                entry = (entry
                         + X.coefficient((i,)) * Y.coefficient((j,)).derivative(i)
                         - Y.coefficient((i,)) * X.coefficient((j,)).derivative(i))
            if not entry.is_zero():
                comps[(j,)] = entry
        assert schouten(X, Y) == MultiVector(table, 1, comps)


def _full_component(Q, idx):
    """Q^idx for any tuple of indices, alternating in its slots."""
    if len(set(idx)) < len(idx):
        return RationalFunction.zero(Q.table)
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    value = Q.coefficient(tuple(sorted(idx)))
    return -value if inversions & 1 else value


def test_schouten_with_a_vector_field_is_the_lie_derivative():
    # (L_X Q)^J = X^k d_k Q^J - sum_m Q^(J with k in slot m) d_k X^(J_m),
    # over geometric indices interleaved with a constant and the pencil
    # parameter, which must stay inert
    table = VarTable.build(["x1", ("c", "constant"), "x2",
                            ("lam", "pencil_parameter"), "y1", "y2"])
    geo = table.geometric_indices
    inert = parse_ratfun("c + lam*x1", table)
    scale = parse_ratfun("1/(y1 - c)", table)
    rng = Random(89)
    for q in (0, 2, 3):
        for _ in range(5):
            X = random_multivector(table, 1, rng) * inert
            Q = random_multivector(table, q, rng) * scale
            comps = {}
            for J in itertools.combinations(geo, q):
                entry = RationalFunction.zero(table)
                for k in geo:
                    entry = entry + (X.coefficient((k,))
                                     * Q.coefficient(J).derivative(k))
                    for m, j in enumerate(J):
                        moved = J[:m] + (k,) + J[m + 1:]
                        entry = entry - (_full_component(Q, moved)
                                         * X.coefficient((j,)).derivative(k))
                if not entry.is_zero():
                    comps[J] = entry
            assert schouten(X, Q) == MultiVector(table, q, comps)


def test_schouten_matches_the_wedge_by_wedge_formula():
    # schouten signs every product as it goes and sums each result
    # component once; the reference wedges whole multivectors one l at a
    # time.  Degrees (2, 2), squares and (1, q), with shared and distinct
    # denominators and inert symbols
    table = VarTable.build(["x1", ("c", "constant"), "x2",
                            ("lam", "pencil_parameter"), "y1", "y2"])
    scales = (RationalFunction.one(table), parse_ratfun("1/(y1 - c)", table),
              parse_ratfun("x1/(x2 + lam*y2)", table))
    rng = Random(71)
    for trial in range(12):
        left, right = scales[trial % 3], scales[trial // 3 % 3]
        for p, q in ((2, 2), (1, 0), (1, 1), (1, 2), (1, 3)):
            P = random_multivector(table, p, rng) * left
            Q = random_multivector(table, q, rng) * right
            assert schouten(P, Q) == oracle_schouten(P, Q), (p, q)
        P = random_multivector(table, 2, rng) * left
        assert schouten(P, P) == oracle_schouten(P, P)


def test_schouten_of_the_rejected_sigma_pair_matches_the_oracle():
    # the lifted bivectors of reject_sigma: sigma1's components lie over
    # x3 and x3*(x1*y2 - x2*y1), sigma0's are polynomials, and the square
    # of the first fails Jacobi
    parts = elaborate(load_spec("reject_sigma"))
    lifted = parts.anchor.lifted
    P0, P1 = (sharp(lifted, s) for s in (parts.sigma0, parts.sigma1))
    assert not P1.comps[min(P1.comps)].is_polynomial()
    square = schouten(P1, P1)
    assert not square.is_zero() and square == oracle_schouten(P1, P1)
    assert schouten(P0, P1) == oracle_schouten(P0, P1)


def test_schouten_known_squares(table):
    one = RationalFunction.one(table)
    x1 = parse_ratfun("x1", table)
    x3 = parse_ratfun("y1", table)
    # canonical structure: flat, square vanishes
    canonical = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
    assert schouten(canonical, canonical).is_zero()
    # x3 d1^d2 + x1 d2^d3 + x1 d1^d3 fails Jacobi with Jacobiator x3,
    # so the square is (-2 x3) d1^d2^d3
    x3v = parse_ratfun("y1", table)
    P = MultiVector(table, 2, {(0, 1): x3v, (1, 2): x1, (0, 2): x1})
    expected = MultiVector(table, 3, {(0, 1, 2): x3v * Fraction(-2)})
    assert schouten(P, P) == expected


def test_records_round_trip(table):
    rng = Random(83)
    for degree in (1, 2, 3):
        a = random_form(table, degree, rng)
        assert from_records(table, degree, a.to_records()) == a
        P = random_multivector(table, degree, rng)
        assert from_records(table, degree, P.to_records(),
                            kind=MultiVector) == P


def test_records_outside_the_dimension_raise():
    # 1-based indices: 0 must not wrap around to the last variable, y1
    table = VarTable.build(["x1", "x2", "x3", "y1"])
    last = from_records(table, 1, [{"indices": [4], "coeff": "1"}])
    assert last == Form(table, 1, {(3,): 1})
    for index in (0, 5, -1):
        with pytest.raises(DimensionMismatch, match=r"1\.\.4"):
            from_records(table, 1, [{"indices": [index], "coeff": "1"}])


@pytest.mark.parametrize("indices, error, message", [
    ([1, 2, 3], DegreeError, "expected 2 indices, got 3"),
    ([1, 5], DimensionMismatch, "indices must lie in 1..4"),
    ([3, 1], DegreeError, "indices must be strictly increasing"),
    ([2, 2], DegreeError, "indices must be strictly increasing"),
])
def test_record_index_errors(table, indices, error, message):
    # the spec reader prints these messages at the record's JSON path
    with pytest.raises(error) as raised:
        from_records(table, 2, [{"indices": [1, 2], "coeff": "1"},
                                {"indices": indices, "coeff": "1"}])
    assert str(raised.value) == message


def test_operation_results_hold_no_zero_component(table):
    # results are built without the constructor's checks, so they must
    # still drop every component that cancels
    def clean(obj):
        assert all(c for c in obj.comps.values())
        assert obj == type(obj)(obj.table, obj.degree, obj.comps)
        return obj

    rng = Random(89)
    f = random_polynomial(table, rng)
    df = clean(differential(f, table))
    assert clean(exterior_derivative(df)).is_zero()
    assert clean(wedge(df, df)).is_zero()
    assert clean(df + (-df)).is_zero()
    for p in (1, 2, 3):
        a = random_form(table, p, rng)
        b = random_form(table, 4 - p, rng)
        P = random_multivector(table, p, rng)
        clean(exterior_derivative(a))
        clean(wedge(a, b))
        clean(wedge(a, a))
        clean(interior(P, a))
        clean(a + a * Fraction(-1, 2) + a * Fraction(-1, 2))
        clean(a + random_form(table, p, rng))
    # the two contributions to i_X a cancel: X = Dx1 + Dx2 into
    # a = dx1^dy1 - dx2^dy1 gives dy1 - dy1
    one = RationalFunction.one(table)
    X = MultiVector(table, 1, {(0,): one, (1,): one})
    a = Form(table, 2, {(0, 2): one, (1, 2): -one})
    assert clean(interior(X, a)).is_zero()
    # the bracket differentiates componentwise, which yields zeros
    P = MultiVector(table, 2, {(0, 1): parse_ratfun("x1", table), (0, 2): one})
    clean(schouten(P, random_multivector(table, 2, rng)))


def test_public_constructors_keep_their_checks(table):
    one = RationalFunction.one(table)
    with pytest.raises(DegreeError):
        Form(table, 2, {(0,): one})
    with pytest.raises(DegreeError):
        MultiVector(table, 2, {(1, 0): one})
    with pytest.raises(DegreeError):
        Form(table, -1, {})
    with pytest.raises(DegreeError):
        from_records(table, 2, [{"indices": [2, 1], "coeff": "1"}])
    pencil = VarTable.build(["x1", "x2", ("lambda", VarKind.PENCIL)])
    with pytest.raises(ForbiddenVariable):
        Form(pencil, 1, {(2,): RationalFunction.one(pencil)})
    with pytest.raises(ForbiddenVariable):
        MultiVector(pencil, 2, {(0, 2): 1})


# components whose denominators coincide, nest or are absent, as in the
# Lagrange top's sigma pair
DENOMINATORS = ("1", "x3", "x1*y2 - x2*y1", "x3*(x1*y2 - x2*y1)")
NUMERATORS = ("1", "-2", "x1", "y2/2", "x1*y2 - x2*y1", "x3 + y1")


def test_sums_of_products_match_the_product_by_product_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3", "y1", "y2"])
    values = [parse_ratfun(f"({n})/({d})", table)
              for n in NUMERATORS for d in DENOMINATORS]
    values += [-v for v in values]

    def alternating(kind, degree):
        slots = list(itertools.combinations(table.geometric_indices, degree))
        return st.dictionaries(
            st.sampled_from(slots), st.sampled_from(values), max_size=4,
        ).map(lambda comps: kind(table, degree, comps))

    def same(result, oracle):
        assert result == oracle
        if not isinstance(result, RationalFunction):
            assert all(c for c in result.comps.values())
        return result

    vector = alternating(MultiVector, 1)
    one_form = alternating(Form, 1)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(vector, vector, alternating(MultiVector, 2), one_form,
                      one_form, alternating(Form, 2), alternating(Form, 3))
    def check(X, Y, P, a1, b1, a2, beta):
        same(wedge(a1, b1), oracle_wedge(a1, b1))
        same(wedge(a1, a2), oracle_wedge(a1, a2))
        same(wedge(a2, a2), oracle_wedge(a2, a2))
        same(wedge(X, P), oracle_wedge(X, P))
        same(interior(X, a2), oracle_interior(X, a2))
        same(interior(P, beta), oracle_interior(P, beta))
        same(pairing(a2, P), oracle_pairing(a2, P))
        same(bivector_sharp(P, a1), oracle_bivector_sharp(P, a1))
        # products that cancel to zero: a^a for a 1-form, i_X i_X,
        # Pi(a, a), and (X^Y)# of a covector that annihilates X and Y
        assert same(wedge(a1, a1), oracle_wedge(a1, a1)).is_zero()
        inner = interior(X, a2)
        assert same(interior(X, inner), oracle_interior(X, inner)).is_zero()
        image = bivector_sharp(P, a1)
        assert same(pairing(a1, image), oracle_pairing(a1, image)).is_zero()
        XY = wedge(X, Y)
        alpha = interior(XY, beta)
        assert same(bivector_sharp(XY, alpha),
                    oracle_bivector_sharp(XY, alpha)).is_zero()

    check()


def test_products_are_multiplied_before_they_cancel():
    # a sum of products multiplies numerators and denominators before its
    # one cancellation, so a product whose factors cancel only against each
    # other can reach the exponent guard: here the denominator
    # (x1^20000 + 1)*x1^20000, where reducing each product on its own
    # leaves y/(x1^20000 + 1).  Parsed specs stay far below the guard.
    table = VarTable.build(["x1", "y"])
    x = Polynomial.monomial(table, (20000, 0))
    y = Polynomial.variable(table, "y")
    a = Form(table, 1, {(0,): RationalFunction(x * y, x + 1)})
    b = Form(table, 1, {(1,): RationalFunction(Polynomial.one(table), x)})
    assert oracle_wedge(a, b).render() == "((y)/(x1^20000 + 1))*dx1^dy"
    with pytest.raises(ExponentOverflow):
        wedge(a, b)


def _twin(obj):
    """An equal but distinct copy: wedge and schouten take their general
    two-operand path on (obj, _twin(obj)) and their square path on
    (obj, obj)."""
    twin = type(obj)(obj.table, obj.degree, dict(obj.comps))
    assert twin is not obj and twin == obj
    return twin


@pytest.mark.parametrize("name", ["lagrange_top", "toda_first",
                                  "toda_second", "certify_scaled"])
def test_schouten_square_matches_the_two_sum_formula(name):
    _, pencil = assemble(load_spec(name))
    for P in (pencil.Pi0, pencil.Pi1, pencil.Pi0 + pencil.Pi1):
        assert schouten(P, P) == schouten(P, _twin(P))


def test_squares_match_the_general_two_operand_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "x3", "y1", "y2"])
    values = [parse_ratfun(f"({n})/({d})", table)
              for n in NUMERATORS for d in DENOMINATORS]
    values += [-v for v in values]
    slots = list(itertools.combinations(table.geometric_indices, 2))

    def alternating(kind):
        return st.dictionaries(
            st.sampled_from(slots), st.sampled_from(values), max_size=6,
        ).map(lambda comps: kind(table, 2, comps))

    squares = []

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(alternating(MultiVector), alternating(Form))
    def check(P, s):
        square = schouten(P, P)
        assert square == schouten(P, _twin(P))
        assert all(c for c in square.comps.values())
        for a in (s, P):
            assert wedge(a, a) == wedge(a, _twin(a))
        squares.append(not square.is_zero())

    check()
    # most drawn bivectors fail Jacobi, so the comparison is not 0 == 0
    assert sum(squares) >= len(squares) // 2
