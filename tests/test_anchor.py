"""Anchor structures: musical maps, star, codifferential, lifting."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from involution_forge import (
    Form,
    MultiVector,
    NotReducible,
    NotSemiBasic,
    RationalFunction,
    VarKind,
    VarTable,
    build_cosymplectic,
    build_symplectic,
    codifferential,
    divided_power,
    exterior_derivative,
    interior,
    pairing,
    parse_ratfun,
    poisson_bracket,
    reduce_bivector,
    schouten,
    sharp,
    wedge,
)
from involution_forge import anchor as anchor_module
from involution_forge.cli import elaborate
from involution_forge.fixtures import FIXTURE_NAMES, load_fixture
from involution_forge.pencil import decompose_prime
from helpers import (
    flat,
    load_spec,
    oracle_sharp_extend,
    random_form,
    random_multivector,
    random_polynomial,
    random_rational,
    sigma_equivalence_suite,
    star,
)


@pytest.fixture(scope="module")
def canonical():
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    one = RationalFunction.one(table)
    lam = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
    return build_symplectic(lam)


@pytest.fixture(scope="module")
def toda_anchor():
    table = VarTable.build([
        "a1", "a2", "b1", "b2", "b3",
        ("lambda", VarKind.PENCIL),
    ])
    one = RationalFunction.one(table)
    vartheta = Form(table, 1, {(4,): one})
    theta = Form(table, 2, {(0, 2): one, (1, 3): one})
    return build_cosymplectic(vartheta, theta)


def test_canonical_brackets(canonical):
    table = canonical.table
    x1 = parse_ratfun("x1", table)
    x2 = parse_ratfun("x2", table)
    y1 = parse_ratfun("y1", table)
    y2 = parse_ratfun("y2", table)
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    lam = canonical.lambda_bi
    assert poisson_bracket(lam, x1, y1) == one
    assert poisson_bracket(lam, x2, y2) == one
    assert poisson_bracket(lam, y1, x1) == -one
    for f, g in ((x1, x2), (y1, y2), (x1, y2), (x2, y1)):
        assert poisson_bracket(lam, f, g) == zero


def test_sharp_and_flat_are_mutually_inverse(canonical):
    rng = Random(91)
    table = canonical.table
    for _ in range(12):
        a = random_form(table, 1, rng)
        X = random_multivector(table, 1, rng)
        assert flat(canonical, sharp(canonical, a)) == a
        assert sharp(canonical, flat(canonical, X)) == X


ANCHOR_SPECS = FIXTURE_NAMES + ("reject_sigma", "certify_scaled")


@pytest.mark.parametrize("name", ANCHOR_SPECS)
def test_sharp_extend_matches_the_wedge_by_wedge_oracle(name):
    # one sum of products per image component against the scalar ^ wedge
    # ^ ... ^ wedge pieces added one at a time, in degrees 0 to 4, with
    # polynomial and rational coefficients, on the spec's anchor and, for
    # an odd one, on its lift
    anchor = elaborate(load_spec(name)).anchor
    rng = Random(ANCHOR_SPECS.index(name))
    for structure in {id(a): a for a in (anchor, anchor.lifted)}.values():
        table = structure.table
        Pi = structure.lambda_bi
        for degree in range(5):
            for scale in (1, random_rational(table, rng)):
                a = random_form(table, degree, rng) * scale
                assert anchor_module._sharp_extend(Pi, a) == (
                    oracle_sharp_extend(Pi, a)), (degree, scale)


def test_sharp_is_multiplicative_on_wedges(canonical):
    rng = Random(93)
    table = canonical.table
    for _ in range(8):
        a = random_form(table, 1, rng)
        b = random_form(table, 1, rng)
        assert sharp(canonical, wedge(a, b)) == wedge(
            sharp(canonical, a), sharp(canonical, b))


def test_omega_inverts_the_bivector(canonical):
    table = canonical.table
    # evaluating omega on a pair of sharped 1-forms recovers the pairing
    # of their wedge with the bivector, entry by entry
    for i, j in itertools.combinations(range(4), 2):
        a = Form(table, 1, {(i,): RationalFunction.one(table)})
        b = Form(table, 1, {(j,): RationalFunction.one(table)})
        lhs = pairing(wedge(a, b), canonical.lambda_bi)
        rhs = pairing(canonical.omega,
                      wedge(sharp(canonical, a), sharp(canonical, b)))
        assert lhs == rhs


def test_volume_is_top_omega_power(canonical):
    table = canonical.table
    n = 2
    expected = divided_power(canonical.omega, n)
    assert canonical.volume == expected
    assert not canonical.volume.is_zero()


def test_star_squares_to_identity(canonical):
    rng = Random(97)
    table = canonical.table
    for degree in range(5):
        for _ in range(4):
            a = random_form(table, degree, rng)
            assert star(canonical, star(canonical, a)) == a


def test_star_of_scalar_is_volume(canonical):
    table = canonical.table
    one_form = Form.scalar(table, RationalFunction.one(table))
    assert star(canonical, one_form) == canonical.volume


def test_codifferential_squares_to_zero(canonical):
    rng = Random(101)
    table = canonical.table
    for degree in (1, 2, 3):
        for _ in range(5):
            a = random_form(table, degree, rng)
            da = codifferential(canonical, a)
            assert da.degree == degree - 1
            assert codifferential(canonical, da).is_zero()
    f = Form.scalar(table, random_polynomial(table, Random(5)))
    assert codifferential(canonical, f).is_zero()


def test_codifferential_is_the_koszul_bracket():
    # codifferential, the Koszul bracket (-1)^p [i_Lambda, d], equals *d*
    # by two Hodge stars, on the lifted anchor of every fixture
    rng = Random(97)
    for name in FIXTURE_NAMES:
        lifted = elaborate(load_fixture(name).spec).anchor.lifted
        for p in (1, 2, 3, 4):
            for _ in range(3):
                a = random_form(lifted.table, p, rng)
                hodge = star(lifted, exterior_derivative(star(lifted, a)))
                assert codifferential(lifted, a) == hodge


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "reject_sigma",
                                  "certify_scaled"])
def test_codifferential_matches_the_koszul_oracle_on_the_sigma_pair(name):
    # the five inputs of the sigma conditions, degrees 2 and 4, on the
    # anchor the conditions use, against *d* by two Hodge stars (every
    # spec anchor is closed)
    elab = elaborate(load_spec(name))
    anchor = elab.anchor.lifted
    s0, s1 = elab.sigma0, elab.sigma1
    for a in (s0, s1, wedge(s0, s0), wedge(s1, s1), wedge(s0, s1)):
        hodge = star(anchor, exterior_derivative(star(anchor, a)))
        assert codifferential(anchor, a) == hodge


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "reject_sigma",
                                  "certify_scaled"])
def test_sharp_of_the_koszul_residual_is_minus_the_bracket(name):
    # the sigma conditions are decided as brackets of the lifted bivectors:
    # for 2-forms R(a, b) = delta(a^b) - delta(a)^b - a^delta(b) satisfies
    # sharp(R(a, b)) = -[sharp a, sharp b], checked on the spec's pair and
    # with sigma1 perturbed so that R does not vanish; delta is the oracle
    elab = elaborate(load_spec(name))
    anchor = elab.anchor.lifted
    table = anchor.table
    x, y, z = (parse_ratfun(table.names[i], table)
               for i in table.geometric_indices[:3])
    s0, s1 = elab.sigma0, elab.sigma1
    P0 = sharp(anchor, s0)
    assert sharp(anchor, _koszul_residual(anchor, s0, s0)) == -schouten(P0,
                                                                        P0)
    nonzero = 0
    for t in (s1, s1 + s0 * (x * y + 1), s0 * (z - 3) + s1):
        P1 = sharp(anchor, t)
        for a, b, Pa, Pb in ((t, t, P1, P1), (s0, t, P0, P1)):
            R = _koszul_residual(anchor, a, b)
            assert sharp(anchor, R) == -schouten(Pa, Pb)
            nonzero += not R.is_zero()
    assert nonzero >= 2


def _koszul_residual(anchor, a, b):
    return (codifferential(anchor, wedge(a, b))
            - wedge(codifferential(anchor, a), b)
            - wedge(a, codifferential(anchor, b)))


def test_sharp_of_the_koszul_residual_needs_a_closed_anchor():
    # the identity holds on a Poisson anchor whose Lambda varies, so that
    # d i_Lambda a differentiates Lambda as well, and fails on a
    # nondegenerate anchor whose omega is not closed: the spec reader
    # refuses such an anchor
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    one = parse_ratfun("1", table)

    def anchor_with(coeff):
        return build_symplectic(Form(table, 2, {
            (0, 2): parse_ratfun(coeff, table), (1, 3): one}))

    closed, not_closed = anchor_with("x1^2 + 1"), anchor_with("x2^2 + 1")
    assert exterior_derivative(closed.omega).is_zero()
    assert not exterior_derivative(not_closed.omega).is_zero()
    rng = Random(103)
    pairs = []
    for _ in range(4):
        a, b = random_form(table, 2, rng), random_form(table, 2, rng)
        pairs += [(a, a), (a, b)]

    def holds(anchor, a, b):
        return sharp(anchor, _koszul_residual(anchor, a, b)) == -schouten(
            sharp(anchor, a), sharp(anchor, b))

    assert all(holds(closed, a, b) for a, b in pairs)
    assert not all(holds(not_closed, a, b) for a, b in pairs)


# coefficients whose denominators coincide, nest or are absent, and a
# closed anchor whose Lambda depends on the coordinates, so that
# d i_Lambda a differentiates Lambda as well: *d* equals the
# codifferential only where d omega = 0.  omega = dx1^dy1 + dx2^dy2
# + d theta, theta = -x1 x2^2 dx1 - (x1/(y1 + 2) + y1^2) dx2, is the
# canonical form pulled back by y1 += x1 x2^2, y2 += x1/(y1 + 2) + y1^2:
# two components of Lambda are rational and vary, and the volume is
# constant, which keeps the two stars of the oracle cheap
DENOMINATORS = ("1", "x1", "x1*y2 - x2*y1", "x1*(y1 + 2)")
NUMERATORS = ("1", "-3", "x2", "y1/2", "x1*y2 - x2*y1", "x2 + y2^2")


def test_codifferential_matches_the_koszul_oracle_on_a_varying_bivector():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = VarTable.build(["x1", "x2", "y1", "y2"])

    def ratfun(text):
        return parse_ratfun(text, table)

    theta = Form(table, 1, {(0,): ratfun("-x1*x2^2"),
                            (1,): ratfun("-x1/(y1 + 2) - y1^2")})
    anchor = build_symplectic(exterior_derivative(theta) + Form(
        table, 2, {(0, 2): ratfun("1"), (1, 3): ratfun("1")}))
    assert exterior_derivative(anchor.omega).is_zero()
    assert any(c.involves(i) for c in anchor.lambda_bi.comps.values()
               for i in table.geometric_indices)
    values = [ratfun(f"({n})/({d})")
              for n in NUMERATORS for d in DENOMINATORS]
    values += [-v for v in values]

    def forms(degree):
        slots = list(itertools.combinations(table.geometric_indices, degree))
        return st.dictionaries(
            st.sampled_from(slots), st.sampled_from(values), max_size=4,
        ).map(lambda comps: Form(table, degree, comps))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
    @hypothesis.given(st.integers(0, 4).flatmap(forms))
    def check(a):
        got = codifferential(anchor, a)
        assert got.degree == max(a.degree - 1, 0)
        if a.degree == 0:
            assert got.is_zero()
        else:
            assert got == star(anchor, exterior_derivative(star(anchor, a)))

    check()


def test_jacobi_iff_codifferential_identity():
    sigma_equivalence_suite(n=30)


def _spec_anchor(name):
    """The anchor of a bundled fixture or of a benchmark spec, elaborated
    the way the command line does it."""
    return elaborate(load_spec(name)).anchor


@pytest.mark.parametrize("name",
                         ["toda_first", "toda_second", "certify_scaled"])
def test_cosymplectic_identities(name):
    # build_cosymplectic reads (Lambda, E) off -W^-1 without re-checking
    # these; they are entries of L W = -I, so they pin the split of
    # Lambda' = Lambda + Ds^E and its signs
    anchor = _spec_anchor(name)
    one = RationalFunction.one(anchor.table)
    # i_E vartheta = 1 and i_E Theta = 0
    assert pairing(anchor.vartheta, anchor.reeb) == one
    assert interior(anchor.reeb, anchor.theta).is_zero()
    # Lambda#(vartheta) = 0: vartheta spans the kernel of the bivector
    assert sharp(anchor, anchor.vartheta).is_zero()
    assert schouten(anchor.lambda_bi, anchor.lambda_bi).is_zero()


def test_lift_adds_one_coordinate(toda_anchor):
    base = toda_anchor.table
    ltab = toda_anchor.lifted.table
    assert ltab.dim == base.dim + 1
    assert ltab.appended_index is not None
    # the lifted structure is symplectic: omega = theta + ds ^ vartheta
    one = RationalFunction.one(ltab)
    ds = Form(ltab, 1, {(ltab.appended_index,): one})
    from involution_forge.exterior import from_records
    theta_l = from_records(ltab, 2, toda_anchor.theta.to_records())
    vartheta_l = from_records(ltab, 1, toda_anchor.vartheta.to_records())
    assert toda_anchor.lifted.omega == theta_l + wedge(ds, vartheta_l)


def test_cosymplectic_anchor_inverts_once(toda_anchor, monkeypatch):
    calls = []
    real = anchor_module.invert

    def counting(rows, table):
        calls.append(len(rows))
        return real(rows, table)

    monkeypatch.setattr(anchor_module, "invert", counting)
    build_cosymplectic(toda_anchor.vartheta, toda_anchor.theta)
    # one inversion of the 6x6 matrix of omega'
    assert calls == [6]


def test_lift_reduce_round_trip(toda_anchor):
    ltab = toda_anchor.lifted.table
    rng = Random(103)
    # a semi-basic bivector with coefficients free of the appended
    # coordinate reduces back to itself
    geo = [i for i in ltab.geometric_indices if i != ltab.appended_index]
    comps = {}
    for idx in itertools.combinations(geo, 2):
        if rng.random() < 0.5:
            coeff = rng.randint(-3, 3)
            if coeff:
                comps[idx] = RationalFunction.constant(
                    ltab, Fraction(coeff))
    P = MultiVector(ltab, 2, comps)
    reduced = reduce_bivector(P, toda_anchor.table)
    assert reduced.table is toda_anchor.table
    assert reduced.table.dim == ltab.dim - 1
    assert reduced.to_records() == P.to_records()


def test_reduce_rejects_appended_dependence(toda_anchor):
    ltab = toda_anchor.lifted.table
    s = parse_ratfun(ltab.names[ltab.appended_index], ltab)
    geo = [i for i in ltab.geometric_indices if i != ltab.appended_index]
    P = MultiVector(ltab, 2, {(geo[0], geo[1]): s})
    with pytest.raises(NotReducible):
        reduce_bivector(P, toda_anchor.table)
    one = RationalFunction.one(ltab)
    legged = MultiVector(ltab, 2, {(geo[0], ltab.appended_index): one})
    with pytest.raises(NotReducible):
        reduce_bivector(legged, toda_anchor.table)
    # s no longer the last variable: the base table cannot be a prefix
    later = ltab.extend("c", VarKind.CONSTANT)
    with pytest.raises(NotReducible):
        reduce_bivector(MultiVector(later, 2, {(geo[0], geo[1]): 1}),
                        toda_anchor.table)


def test_sharp_of_a_form_with_a_reeb_leg_is_not_semi_basic(toda_anchor):
    # E = Db3 on toda_first's anchor, so i_E(da1^db3) = -da1
    table = toda_anchor.table
    one = RationalFunction.one(table)
    with pytest.raises(NotSemiBasic, match=r"i_E leaves \(-1\)\*da1"):
        sharp(toda_anchor, Form(table, 2, {(0, 4): one}))
    # without the db3 leg the degree-2 sharp is defined
    assert not sharp(toda_anchor, Form(table, 2, {(0, 2): one})).is_zero()


def test_decompose_prime_round_trip(toda_anchor):
    ltab = toda_anchor.lifted.table
    app = ltab.appended_index
    rng = Random(107)
    ds = Form(ltab, 1, {(app,): 1})
    Ds = MultiVector(ltab, 1, {(app,): 1})
    for degree in (1, 2, 3):
        for _ in range(3):
            a = random_form(ltab, degree, rng)
            rest, tail = decompose_prime(a)
            assert a == rest + wedge(tail, ds)
            P = random_multivector(ltab, degree, rng)
            rest_P, tail_P = decompose_prime(P)
            assert P == rest_P + wedge(tail_P, Ds)
            # neither part involves s any more
            for part in (rest, tail, rest_P, tail_P):
                assert all(app not in idx for idx in part.comps)


def test_lifted_bivector_is_lambda_plus_Ds_wedge_E(toda_anchor):
    lifted = toda_anchor.lifted
    ltab = lifted.table
    Ds = MultiVector(ltab, 1, {(ltab.appended_index,): 1})
    migrate = anchor_module.migrate_alternating
    assert lifted.lambda_bi == migrate(toda_anchor.lambda_bi, ltab) + wedge(
        Ds, migrate(toda_anchor.reeb, ltab)
    )
