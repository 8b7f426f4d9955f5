"""Pencil assembly: families, partitions, sigma conditions, ansatz,
closed-form brackets, determinant brackets."""

import copy
import itertools
from fractions import Fraction
from random import Random

import pytest

from involution_forge import (
    CasimirPolynomial,
    ConditionFailed,
    Form,
    FunctionFamily,
    Pencil,
    Polynomial,
    RankDrop,
    RankTooSmall,
    RationalFunction,
    SpecError,
    UnknownVariable,
    VarKind,
    VarTable,
    assemble_pencil,
    bracket_closed_form,
    build_cosymplectic,
    build_family,
    build_symplectic,
    casimir_function,
    closed_form_interior,
    codifferential,
    from_records,
    interior,
    jacobian_bracket,
    pairing,
    parse_ratfun,
    poisson_bracket,
    sample_point,
    sharp,
    wedge,
)
from involution_forge.symexpr import quotient_by_factor
from involution_forge import anchor as anchor_module
from involution_forge import symexpr
from involution_forge import pencil as pencil_module
from involution_forge.cli import (assemble, elaborate, elaborate_ansatz,
                                  resolve_basis)
from involution_forge.linalg import rank_at_point
from involution_forge.fixtures import FIXTURE_NAMES, load_fixture
from involution_forge.pencil import (
    SigmaPair,
    annihilator_basis,
    check_partition,
    check_recursion,
    check_sigma_conditions,
    closed_form_bivector,
    distribution,
    solve_recursion_ansatz,
)
from helpers import (jacobian_bracket_suite, load_spec,
                     oracle_bracket_closed_form)


@pytest.fixture(scope="module")
def lagrange():
    fixture = load_fixture("lagrange_top")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


@pytest.fixture(scope="module")
def toda():
    fixture = load_fixture("toda_first")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


def lifted_pair(anchor, pair):
    """Pi_i' = sharp(sigma_i) on the symplectic anchor the pair lives on."""
    lifted = anchor.lifted
    return sharp(lifted, pair.sigma0), sharp(lifted, pair.sigma1)


# ---------------------------------------------------------------------------
# families and partitions


def test_family_counts_dimension_and_corank():
    table = VarTable.build(["x1", "x2", "y1", "y2",
                            ("lambda", VarKind.PENCIL)])
    family = build_family(table, [("f1", "x1"), ("f2", "y1"),
                                  ("f3", "x2 + y2")])
    # r = dim - count, k = 2*count - dim
    assert family.r == 1
    assert family.k == 2
    assert family.names == ("f1", "f2", "f3")


def test_family_rejects_duplicates_and_dependence():
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    with pytest.raises(SpecError):
        build_family(table, [("f1", "x1"), ("f1", "x2")])
    # a functionally dependent family never reaches full Jacobian rank
    with pytest.raises(RankDrop):
        build_family(table, [("f1", "x1"), ("f2", "x1^2")])


def test_family_independence_point_is_recorded():
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    family = build_family(table, [("f1", "x1"), ("f2", "x2 + y1")])
    assert family.independence_point is not None


def test_check_partition_errors(lagrange):
    _, elab, _ = lagrange
    family = elab.family
    with pytest.raises(SpecError):
        check_partition(family, [CasimirPolynomial(("f1", "f3"))])
    with pytest.raises(SpecError):
        check_partition(family, [
            CasimirPolynomial(("f1", "f3")),
            CasimirPolynomial(("f2", "f1")),
        ])
    with pytest.raises(SpecError):
        check_partition(family, [
            CasimirPolynomial(("f1", "f3")),
            CasimirPolynomial(("f2", "nope")),
        ])


def test_casimir_polynomial_degree_and_function(toda):
    _, elab, _ = toda
    family = elab.family
    chain = CasimirPolynomial(("f0", "f1", "f2"))
    assert chain.degree == 2
    F = casimir_function(family, chain)
    lam = parse_ratfun("lambda", family.table)
    expected = (family.entry("f0") * lam * lam
                + family.entry("f1") * lam
                + family.entry("f2"))
    assert F == expected


def test_assembly_builds_each_casimir_polynomial_once(lagrange,
                                                      monkeypatch):
    _, elab, _ = lagrange
    calls = []
    real = pencil_module.casimir_function

    def counting(family, cp):
        calls.append(cp.names)
        return real(family, cp)

    monkeypatch.setattr(pencil_module, "casimir_function", counting)
    assemble_pencil(elab.anchor, SigmaPair(elab.sigma0, elab.sigma1),
                    elab.family, elab.partition)
    assert calls == [cp.names for cp in elab.partition]
    assert len(calls) == 2


def test_assembly_takes_each_sigma_bracket_once(lagrange, toda,
                                                monkeypatch):
    # the sigma conditions are [P0', P0'], [P1', P1'] and [P0', P1'] of the
    # lifted bivectors: three distinct brackets, the squares by their one
    # sum, and no codifferential
    def refuse(*args):
        raise AssertionError("assembly took a codifferential")

    monkeypatch.setattr(anchor_module, "codifferential", refuse)
    assert not hasattr(pencil_module, "codifferential")
    real = pencil_module.schouten
    for _, elab, _ in (lagrange, toda):
        pair = SigmaPair(elab.sigma0, elab.sigma1)
        brackets = []

        def counting(a, b):
            brackets.append((a, b))
            return real(a, b)

        monkeypatch.setattr(pencil_module, "schouten", counting)
        assemble_pencil(elab.anchor, pair, elab.family, elab.partition)
        P0, P1 = lifted_pair(elab.anchor, pair)
        assert brackets == [(P0, P0), (P1, P1), (P0, P1)]
        assert [a is b for a, b in brackets] == [True, True, False]


def test_assembly_without_pencil_parameter_fails_before_the_checks(
        lagrange, monkeypatch):
    fixture, _, _ = lagrange
    spec = copy.copy(fixture.spec)
    spec.variables = [
        (name, kind) for name, kind in fixture.spec.variables
        if kind is not VarKind.PENCIL
    ]
    elab = elaborate(spec)
    calls = []
    monkeypatch.setattr(pencil_module, "sigma_pair_invariants",
                        lambda *args: calls.append(args) or [])
    with pytest.raises(SpecError, match="declares no pencil parameter"):
        assemble_pencil(elab.anchor, SigmaPair(elab.sigma0, elab.sigma1),
                        elab.family, elab.partition)
    assert calls == []


def test_casimir_function_singleton_chain(toda):
    _, elab, _ = toda
    family = elab.family
    single = CasimirPolynomial(("f1",))
    assert single.degree == 0
    assert casimir_function(family, single) == family.entry("f1")


# ---------------------------------------------------------------------------
# sigma conditions, recursion, distributions


def test_sigma_conditions_pass_on_fixtures(lagrange, toda):
    for _, elab, _ in (lagrange, toda):
        pair = SigmaPair(elab.sigma0, elab.sigma1)
        verdicts = check_sigma_conditions(*lifted_pair(elab.anchor, pair))
        assert all(v.passed for v in verdicts)
        assert len(verdicts) == 3
        recursion = check_recursion(elab.anchor, pair, elab.family,
                                    elab.partition)
        assert all(v.passed for v in recursion)
        # an identity that vanishes has nothing to witness
        assert all(v.witness is None for v in verdicts + recursion)


def test_sigma_conditions_fail_with_witness(lagrange):
    _, elab, _ = lagrange
    table = elab.sigma_table
    x1 = parse_ratfun("x1", table)
    broken = elab.sigma1 + Form(table, 2, {(0, 1): x1})
    pair = SigmaPair(elab.sigma0, broken)
    verdicts = check_sigma_conditions(*lifted_pair(elab.anchor, pair))
    failing = [v for v in verdicts if not v.passed]
    assert failing
    assert all(v.witness is not None for v in failing)
    # the witness is the bracket: minus sharp of the codifferential residual
    assert [v.passed for v in verdicts] == [True, False]
    lifted = elab.anchor.lifted
    residual = (codifferential(lifted, wedge(broken, broken))
                - wedge(broken, codifferential(lifted, broken)) * 2)
    assert verdicts[1].witness == -sharp(lifted, residual)


def test_engine_keeps_the_pencil_parameter_out_of_its_inputs(lagrange,
                                                            toda):
    # lambda enters only through the partition: a lambda-dependent anchor,
    # sigma form or ansatz covector is refused like a lambda-dependent
    # family entry
    fixture, elab, _ = lagrange
    scale = 1 + parse_ratfun("lambda", elab.table)
    with pytest.raises(SpecError, match="the anchor involves the pencil "
                       "parameter 'lambda'"):
        build_symplectic(elab.anchor.lambda_bi * scale)
    odd = toda[1].anchor
    with pytest.raises(SpecError, match="the anchor involves"):
        build_cosymplectic(odd.vartheta * (1 + parse_ratfun(
            "lambda", odd.table)), odd.theta)
    with pytest.raises(SpecError, match="sigma1 involves"):
        SigmaPair(elab.sigma0, elab.sigma1 * scale)
    problem = elaborate_ansatz(fixture.spec, seed=0)
    basis = list(problem.basis)
    basis[1] = basis[1] * (1 + parse_ratfun("lambda", basis[1].table))
    with pytest.raises(SpecError, match="basis covector 2 involves"):
        solve_recursion_ansatz(problem.anchor, problem.sigma0, basis,
                               problem.family, problem.partition)


def test_assemble_rejects_broken_sigma(lagrange):
    _, elab, _ = lagrange
    table = elab.sigma_table
    x1 = parse_ratfun("x1", table)
    broken = elab.sigma1 + Form(table, 2, {(0, 1): x1})
    with pytest.raises(ConditionFailed):
        assemble_pencil(elab.anchor, SigmaPair(elab.sigma0, broken),
                        elab.family, elab.partition)


def test_sigmas_annihilate_their_distributions(lagrange, toda):
    for _, elab, _ in (lagrange, toda):
        for which, sigma in ((0, elab.sigma0), (1, elab.sigma1)):
            generators = distribution(elab.anchor, elab.family,
                                      elab.partition, which)
            for X in generators:
                assert interior(X, sigma).is_zero()
            basis = annihilator_basis(generators)
            for beta in basis:
                for X in generators:
                    assert pairing(beta, X).is_zero()


def _same_span_ranks(written, computed) -> list:
    """Ranks of the written covectors, the computed ones and both stacked,
    at one sampled point off the poles of every component."""
    table = computed[0].table
    zero = RationalFunction.zero(table)
    a, b = ([[beta.comps.get((i,), zero) for i in table.geometric_indices]
             for beta in part] for part in (written, computed))
    point = sample_point(table, [v.den for row in a + b for v in row],
                         Random(0))
    return [rank_at_point(rows, point) for rows in (a, b, a + b)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_written_bases_span_the_computed_annihilators(name):
    # a spec writes a basis of Ann D_j by hand for sigma_j (and for the
    # ansatz, over its constants); the computed Ann D_j spans the same
    # module: stacking the two adds no rank at a sample
    spec = load_fixture(name).spec
    plain = elaborate(spec)
    blocks = [(spec.sigma0, 0, plain), (spec.sigma1, 1, plain)]
    if "ansatz" in spec.sigma1:
        blocks.append((spec.sigma1["ansatz"], 1, elaborate_ansatz(spec)))
    checked = 0
    for block, which, parts in blocks:
        if "basis" not in block:
            continue
        written = resolve_basis(block, parts.sigma_table, spec.path)
        computed = annihilator_basis(distribution(
            parts.anchor, parts.family, parts.partition, which))
        assert _same_span_ranks(written, computed) == [4, 4, 4]
        checked += 1
    assert checked == len(blocks)


# k34 of each fixture's sigma1 in the basis of the computed Ann D_1
COMPUTED_BASIS_K34 = {
    "lagrange_top": "y1/2",
    "toda_first": "-a2*b3",
    "toda_second": "2*a2*b3^2",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_ansatz_over_the_computed_annihilator_gives_sigma1(name):
    # the recursion over Lambda^2(Ann D_1), with Ann D_1 computed instead of
    # written, leaves one free unknown; one value of it is the fixture's
    # sigma1
    elab = elaborate(load_fixture(name).spec)
    basis = annihilator_basis(distribution(elab.anchor, elab.family,
                                           elab.partition, 1))
    solution = solve_recursion_ansatz(elab.anchor, elab.sigma0, basis,
                                      elab.family, elab.partition)
    assert solution.free_names == ["k34"]
    assert solution.specialize(
        {"k34": COMPUTED_BASIS_K34[name]}) == elab.sigma1


# ---------------------------------------------------------------------------
# the recursion ansatz


def test_ansatz_reproduces_the_explicit_sigma1(lagrange):
    fixture, elab, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    assert list(solution.free_names) == ["k34"]
    special = solution.specialize(problem.specialize)
    # with the displayed constants the general solution collapses onto
    # the explicit form
    explicit = elab.sigma1
    assert special.to_records() == explicit.to_records()


def test_free_unknown_scope(lagrange):
    # the linear recursion system leaves k34 undetermined: the recursion
    # holds whatever value it takes.  The quadratic delta-conditions are a
    # separate filter and they single out the displayed choice.
    fixture, elab, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    outcomes = {}
    for value in ("y3/2", "0"):
        special = solution.specialize(
            {"l3": "1", "m3": "2", "k34": value})
        migrated = from_records(elab.sigma_table, 2,
                                special.to_records())
        pair = SigmaPair(elab.sigma0, migrated)
        assert all(v.passed for v in check_recursion(
            elab.anchor, pair, elab.family, elab.partition))
        outcomes[value] = all(v.passed for v in check_sigma_conditions(
            *lifted_pair(elab.anchor, pair)))
    assert outcomes["y3/2"] is True
    assert outcomes["0"] is False


def test_sigma_check_stops_at_its_first_failure(lagrange, monkeypatch):
    # assembly reads only the first failed identity, so at k34 = 0 the
    # check ends at delta(sigma1^sigma1) and never takes [P0', P1']
    fixture, elab, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    special = solution.specialize({"l3": "1", "m3": "2", "k34": "0"})
    pair = SigmaPair(elab.sigma0, from_records(elab.sigma_table, 2,
                                               special.to_records()))
    mixed = []
    real = pencil_module.schouten

    def counting(a, b):
        if a is not b:
            mixed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(pencil_module, "schouten", counting)
    verdicts = check_sigma_conditions(*lifted_pair(elab.anchor, pair))
    assert [v.passed for v in verdicts] == [True, False]
    assert verdicts[1].label.startswith("delta(sigma1^sigma1)")
    assert mixed == []


def test_ansatz_value_that_involves_the_pencil_parameter_is_refused(
        lagrange):
    # not only strings: a parsed value for a free unknown is fenced too
    fixture, _, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    lam = parse_ratfun("lambda", solution.table)
    with pytest.raises(SpecError, match="involves the pencil parameter"):
        solution.specialize({"k34": lam, "l3": "1", "m3": "2"})


def test_ansatz_rejects_unknown_assignment(lagrange):
    fixture, _, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    with pytest.raises(SpecError):
        solution.specialize({"nope": "1"})


# ---------------------------------------------------------------------------
# closed-form brackets


def test_closed_form_needs_rank_at_least_two(lagrange):
    # a fifth function on the 6-dimensional patch makes r = 1, k = 4
    _, elab, pencil = lagrange
    family = FunctionFamily(pencil.table,
                            [*pencil.family.entries.items(), ("c", "x1")])
    assert family.r == 1
    stub = Pencil(pencil.anchor, family, pencil.partition,
                  pencil.Pi0, pencil.Pi1, pencil.sigma_lambda,
                  pencil.g_lambda, pencil.F_lambda, pencil.F_functions)
    with pytest.raises(RankTooSmall):
        closed_form_interior(stub)
    with pytest.raises(RankTooSmall):
        bracket_closed_form(stub, "x1", "y1")


def test_closed_form_bracket_matches_contraction(lagrange):
    _, elab, pencil = lagrange
    table = pencil.table
    lam = parse_ratfun("lambda", table)
    pi_lam = pencil.Pi1 - pencil.Pi0 * lam
    for f, h in (("f1", "f2"), ("x1", "x2"), ("x1", "y1")):
        ff = (elab.family.entry(f) if f in elab.family.names
              else parse_ratfun(f, table))
        hh = (elab.family.entry(h) if h in elab.family.names
              else parse_ratfun(h, table))
        closed = bracket_closed_form(pencil, ff, hh)
        direct = poisson_bracket(pi_lam, ff, hh)
        assert closed == direct
        assert oracle_bracket_closed_form(pencil, ff, hh) == direct


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("certify_scaled",))
def test_closed_form_bivector_is_the_pencil(name):
    # each coordinate bracket read off Phi_lambda is the wedged one, and
    # together they are Pi_lambda
    _, pencil = assemble(load_spec(name))
    closed = closed_form_bivector(pencil)
    assert closed == pencil.pi_lambda()
    names = pencil.table.names
    for a, b in itertools.combinations(pencil.table.geometric_indices, 2):
        assert closed.coefficient((a, b)) == oracle_bracket_closed_form(
            pencil, names[a], names[b]), (names[a], names[b])


def _spy_gcd(monkeypatch) -> list:
    calls = []
    real = symexpr.poly_gcd
    monkeypatch.setattr(symexpr, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


@pytest.mark.parametrize("name", ["lagrange_top", "toda_first"])
def test_closed_form_interior_takes_no_gcd(name, monkeypatch):
    # F(lambda) divides every component of Phi' on these specs: one exact
    # division each, and no cancellation against F
    _, pencil = assemble(load_fixture(name).spec)
    calls = _spy_gcd(monkeypatch)
    phi = closed_form_interior(pencil)
    assert calls == []
    assert not phi.is_zero()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_closed_form_interior_matches_the_general_quotient(name,
                                                          monkeypatch):
    # the same reduced components as Phi' * (-1/F), the product the
    # exact division replaces
    _, pencil = assemble(load_fixture(name).spec)
    phi = closed_form_interior(pencil)
    monkeypatch.setattr(pencil_module, "quotient_by_factor",
                        lambda value, divisor: value * (1 / divisor))
    assert closed_form_interior(pencil).comps == phi.comps


def test_quotient_by_a_non_dividing_factor_falls_back(monkeypatch):
    table = VarTable.build(["x1", "x2"])
    value = parse_ratfun("(x1^2 + 1)/(x2 + 3)", table)
    divisor = parse_ratfun("-x1 - 1", table)
    assert symexpr.poly_quotient(value.num, divisor.num) is None
    assert quotient_by_factor(value, divisor) == value * (1 / divisor)
    # a dividing factor: (x1 + 1)^2/(x2 + 3) by -(x1 + 1) in one division
    square = parse_ratfun("(x1 + 1)^2/(x2 + 3)", table)
    calls = _spy_gcd(monkeypatch)
    quot = quotient_by_factor(square, divisor)
    assert calls == []
    assert quot.render() == "(-x1 - 1)/(x2 + 3)"
    assert quot == square * (1 / divisor)
    assert symexpr.poly_quotient(square.num, Polynomial.constant(
        table, Fraction(-1, 2))) == square.num * -2


def test_family_brackets_vanish_identically(lagrange):
    _, elab, pencil = lagrange
    names = elab.family.names
    for i, f in enumerate(names):
        for h in names[i + 1:]:
            ff, hh = elab.family.entry(f), elab.family.entry(h)
            assert bracket_closed_form(pencil, ff, hh).is_zero()
            assert oracle_bracket_closed_form(pencil, ff, hh).is_zero()


# ---------------------------------------------------------------------------
# determinant brackets


def test_jacobian_bracket_properties():
    jacobian_bracket_suite(n=20)


def test_jacobian_bracket_base_case():
    table = VarTable.build(["x1", "x2"])
    one = RationalFunction.one(table)
    volume = Form(table, 2, {(0, 1): one})
    g = parse_ratfun("x1", table)
    h = parse_ratfun("x2", table)
    prefactor = parse_ratfun("1 + x1^2", table)
    assert jacobian_bracket([], prefactor, volume, g, h) == prefactor
    assert jacobian_bracket([], prefactor, volume, h, g) == -prefactor


def test_specialize_needs_every_free_unknown(lagrange):
    fixture, _, _ = lagrange
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                      problem.basis, problem.family,
                                      problem.partition)
    for method in (solution.specialize, solution.values_at):
        with pytest.raises(SpecError, match="unassigned: k34"):
            method({"l3": "1", "m3": "2"})
        # values are read over the base table, so none names an unknown
        with pytest.raises(UnknownVariable):
            method({"l3": "1", "m3": "2", "k34": "k34 + 1"})
