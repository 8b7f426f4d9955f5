"""Acceptance gate: eleven end-to-end criteria, every comparison exact.

Each test covers one numbered criterion and runs inside a wall-clock
budget.  A conftest hook prints one PASS/FAIL line per criterion at the
end of the session.  All expected values live in the bundled fixture
files; nothing here is compared with a tolerance.
"""

import time
from contextlib import contextmanager
from random import Random

import pytest

from involution_forge import (
    MultiVector,
    RationalFunction,
    bivector_sharp,
    casimir_check,
    differential,
    from_records,
    parse_ratfun,
    poisson_bracket,
    schouten,
    sharp,
)
from involution_forge.cli import assemble, elaborate_ansatz
from involution_forge.fixtures import load_fixture
from involution_forge.linalg import det
from involution_forge.pencil import (
    casimir_function,
    closed_form_interior,
    solve_recursion_ansatz,
)
from involution_forge.symexpr import coefficients_in, migrate_ratfun
from involution_forge.verify import full_matrix, rank_at_sample
from helpers import (
    exterior_laws_suite,
    jacobian_bracket_suite,
    oracle_bracket_closed_form,
    ring_field_suite,
    schouten_jacobiator_suite,
    schwartz_zippel_suite,
    sigma_equivalence_suite,
)


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, (
        f"criterion exceeded its {seconds:.0f}s budget: {elapsed:.1f}s")


@pytest.fixture(scope="module")
def lagrange():
    fixture = load_fixture("lagrange_top")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


@pytest.fixture(scope="module")
def toda_first():
    fixture = load_fixture("toda_first")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


@pytest.fixture(scope="module")
def toda_second():
    fixture = load_fixture("toda_second")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


def parse_matrix(texts, table):
    return [[parse_ratfun(entry, table) for entry in row] for row in texts]


def vector_field(table, records):
    return from_records(table, 1, records, kind=MultiVector)


def test_criterion_01_sharp_images_match_the_displayed_matrices(lagrange):
    with budget(10.0):
        fixture, elab, pencil = lagrange
        table = pencil.table
        S0 = sharp(elab.anchor, elab.sigma0)
        S1 = sharp(elab.anchor, elab.sigma1)
        assert S0 == pencil.Pi0
        assert S1 == pencil.Pi1
        for computed, key in ((S0, "Pi0"), (S1, "Pi1")):
            rows = full_matrix(computed)
            expected = parse_matrix(fixture.expected[key], table)
            assert len(rows) == len(expected) == 6
            for i in range(6):
                for j in range(6):
                    assert rows[i][j] == expected[i][j]
        assert elab.anchor.volume == from_records(
            table, 6, fixture.expected["volume"])


def test_criterion_02_prefactor_and_defect(lagrange):
    with budget(5.0):
        fixture, elab, pencil = lagrange
        table = pencil.table
        # the linear coefficient of F is forced: it must equal
        # {f1,f4} + {f3,f2} under the anchor bracket, which evaluates to
        # 4*x3 - y1^2 - y2^2 - y3^2 for this family, and the quadratic
        # and constant coefficients follow from the determinant identity
        # F^2 = det({F^i, F^j})
        fam = elab.family
        lam_bi = elab.anchor.lambda_bi
        forced = (poisson_bracket(lam_bi, fam.entry("f1"), fam.entry("f4"))
                  + poisson_bracket(lam_bi, fam.entry("f3"),
                                    fam.entry("f2")))
        assert coefficients_in(
            pencil.F_lambda, pencil.pencil_name)[1] == forced
        assert pencil.F_lambda == parse_ratfun(fixture.expected["F"], table)
        assert pencil.g_lambda == parse_ratfun(fixture.expected["g"], table)
        assert pencil.g_lambda.is_zero()


def test_criterion_03_interior_form_and_vanishing_brackets(lagrange):
    with budget(60.0):
        fixture, elab, pencil = lagrange
        table = pencil.table
        phi = closed_form_interior(pencil)
        expected = from_records(table, 4, fixture.expected["phi"])
        assert len(fixture.expected["phi"]) == 12
        assert len(phi.comps) == 12
        assert phi == expected
        names = elab.family.names
        for i, f in enumerate(names):
            for h in names[i + 1:]:
                value = oracle_bracket_closed_form(pencil,
                                                   elab.family.entry(f),
                                                   elab.family.entry(h))
                assert value.is_zero()


def test_criterion_04_recursion_ansatz(lagrange):
    with budget(30.0):
        fixture, elab, _ = lagrange
        problem = elaborate_ansatz(fixture.spec, seed=0)
        solution = solve_recursion_ansatz(problem.anchor, problem.sigma0,
                                          problem.basis, problem.family,
                                          problem.partition)
        assert list(solution.free_names) == list(
            fixture.expected["ansatz_free"])
        for name, text in fixture.expected["ansatz_expressions"].items():
            assert solution.expressions[name] == parse_ratfun(
                text, solution.table)
        values = solution.values_at(problem.specialize)
        for name, text in fixture.expected["ansatz_special_values"].items():
            assert values[name] == parse_ratfun(text, solution.base_table)
        special = solution.specialize(problem.specialize)
        migrated = from_records(elab.sigma_table, 2, special.to_records())
        assert migrated == elab.sigma1


def test_criterion_05_hamiltonian_pair_fields(lagrange):
    with budget(10.0):
        fixture, elab, pencil = lagrange
        table = pencil.table
        # engine fields act as X_f = Pi#(df) = {f, .}; the stored
        # dynamics displays use the transposed slot x' = {x, h}, so the
        # engine field is the negative of each display
        for block in fixture.expected["hamiltonian_pairs"]:
            f0 = elab.family.entry(block["via0"])
            f1 = elab.family.entry(block["via1"])
            through0 = bivector_sharp(pencil.Pi0, differential(f0, table))
            through1 = bivector_sharp(pencil.Pi1, differential(f1, table))
            assert through0 == through1
            display = vector_field(table, block["display"])
            assert through0 == -display
        # the anchor Hamiltonian fields are stored in engine orientation
        for name, records in fixture.expected["anchor_fields"].items():
            engine = bivector_sharp(
                elab.anchor.lambda_bi,
                differential(elab.family.entry(name), table))
            assert engine == vector_field(table, records)


def test_criterion_06_toda_chain_first_selection(toda_first):
    with budget(60.0):
        fixture, elab, pencil = toda_first
        table = pencil.table
        for computed, key in ((pencil.Pi0, "Pi0"), (pencil.Pi1, "Pi1")):
            rows = full_matrix(computed)
            expected = parse_matrix(fixture.expected[key], table)
            assert len(rows) == len(expected) == 5
            for i in range(5):
                for j in range(5):
                    assert rows[i][j] == expected[i][j]
        assert pencil.F_lambda == parse_ratfun(fixture.expected["F"], table)
        assert pencil.g_lambda == parse_ratfun(fixture.expected["g"], table)
        phi = closed_form_interior(pencil)
        assert len(fixture.expected["phi"]) == 7
        assert phi == from_records(phi.table, phi.degree,
                                   fixture.expected["phi"])
        # ladder: Pi0 through the later function equals Pi1 through the
        # earlier one, and the first rung is the chain's vector field
        for block in fixture.expected["hamiltonian_pairs"]:
            f_later = elab.family.entry(block["via0"])
            f_earlier = elab.family.entry(block["via1"])
            lhs = bivector_sharp(pencil.Pi0, differential(f_later, table))
            rhs = bivector_sharp(pencil.Pi1, differential(f_earlier, table))
            assert lhs == rhs
            if "display" in block:
                display = vector_field(table, block["display"])
                assert lhs == -display
        # the lifted Hamiltonian fields match the stored ones exactly
        ltab = elab.sigma_table
        lifted_lambda = elab.anchor.lifted.lambda_bi
        for name, records in fixture.expected["lifted_fields"].items():
            if name == "s":
                func = parse_ratfun("s", ltab)
            else:
                func = migrate_ratfun(elab.family.entry(name), ltab)
            engine = bivector_sharp(lifted_lambda,
                                    differential(func, ltab))
            assert engine == vector_field(ltab, records)


def test_criterion_07_toda_chain_second_selection(toda_first, toda_second):
    with budget(60.0):
        fixture, elab, pencil = toda_second
        table = pencil.table
        for computed, key in ((pencil.Pi0, "Pi0"), (pencil.Pi1, "Pi1")):
            rows = full_matrix(computed)
            expected = parse_matrix(fixture.expected[key], table)
            for i in range(5):
                for j in range(5):
                    assert rows[i][j] == expected[i][j]
        _, _, first_pencil = toda_first
        crossing = {
            "first.Pi0 vs second.Pi0": schouten(first_pencil.Pi0,
                                                pencil.Pi0),
            "first.Pi1 vs second.Pi1": schouten(first_pencil.Pi1,
                                                pencil.Pi1),
            "first.Pi0 vs second.Pi1": schouten(first_pencil.Pi0,
                                                pencil.Pi1),
            "first.Pi1 vs second.Pi0": schouten(first_pencil.Pi1,
                                                pencil.Pi0),
        }
        for key, verdict in fixture.expected["cross_compatibility"].items():
            bracket = crossing[key]
            if verdict == "zero":
                assert bracket.is_zero(), key
            else:
                assert not bracket.is_zero(), key
        for block in fixture.expected["hamiltonian_pairs"]:
            f_later = elab.family.entry(block["via0"])
            f_earlier = elab.family.entry(block["via1"])
            lhs = bivector_sharp(pencil.Pi0, differential(f_later, table))
            rhs = bivector_sharp(pencil.Pi1, differential(f_earlier, table))
            assert lhs == rhs


def test_criterion_08_casimirs(lagrange, toda_first, toda_second):
    with budget(30.0):
        # every F^i annihilates the whole pencil on the Lagrange side
        _, elabL, pencilL = lagrange
        for F in pencilL.F_functions:
            assert casimir_check(pencilL.pi_lambda(), F).passed
        # chain ends are Casimirs of their own structure, for both
        # selections
        for fixture, elab, pencil in (toda_first, toda_second):
            table = pencil.table
            ends = fixture.expected["casimirs"]
            f0 = elab.family.entry(ends["Pi0"])
            f2 = elab.family.entry(ends["Pi1"])
            assert bivector_sharp(pencil.Pi0,
                                  differential(f0, table)).is_zero()
            assert bivector_sharp(pencil.Pi1,
                                  differential(f2, table)).is_zero()
        # the matrix characteristic polynomial, shifted by lambda^3,
        # equals the chain's Casimir coefficient by coefficient, and
        # annihilates the pencil identically in lambda
        fixture, elab, pencil = toda_first
        table = pencil.table
        lam = parse_ratfun("lambda", table)
        L = parse_matrix(fixture.expected["lax"]["L"], table)
        shifted = [[L[i][j] - (lam if i == j else
                               RationalFunction.zero(table))
                    for j in range(3)] for i in range(3)]
        char = det(shifted, table) + lam * lam * lam
        chain_casimir = casimir_function(elab.family, elab.partition[0])
        assert char == chain_casimir
        assert char == pencil.F_functions[0]
        assert casimir_check(pencil.pi_lambda(), char).passed
        # on the lifted symplectic cover the appended coordinate is a
        # Casimir of the lifted pencil
        ltab = elab.sigma_table
        lam_l = parse_ratfun("lambda", ltab)
        lifted = elab.anchor.lifted
        pi_lifted = (sharp(lifted, elab.sigma1)
                     - sharp(lifted, elab.sigma0) * lam_l)
        s_func = parse_ratfun("s", ltab)
        assert casimir_check(pi_lifted, s_func).passed


def test_criterion_09_determinant_identity(lagrange):
    with budget(30.0):
        _, elab, pencil = lagrange
        lam_bi = elab.anchor.lambda_bi
        F1, F2 = pencil.F_functions
        table = pencil.table
        zero = RationalFunction.zero(table)
        brackets = [
            [zero, poisson_bracket(lam_bi, F1, F2)],
            [poisson_bracket(lam_bi, F2, F1), zero],
        ]
        assert det(brackets, table) == pencil.F_lambda * pencil.F_lambda


def test_criterion_10_property_suites():
    for suite, size in (
        (sigma_equivalence_suite, 30),
        (schouten_jacobiator_suite, 50),
        (jacobian_bracket_suite, 20),
        (ring_field_suite, 200),
    ):
        with budget(120.0):
            suite(n=size)
    with budget(120.0):
        exterior_laws_suite(n=30)
        schwartz_zippel_suite(n=40)


def test_criterion_11_generic_rank(lagrange, toda_first):
    with budget(5.0):
        for fixture, _, pencil in (lagrange, toda_first):
            assert fixture.expected["rank"] == 4
            rank, _ = rank_at_sample(pencil.Pi0, Random(0))
            assert rank == 4
