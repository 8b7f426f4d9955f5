"""Certification layer: every verdict label, witnesses on failure,
determinism of the certificate."""

import copy
import itertools
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_forge import (
    CasimirPolynomial,
    Form,
    FunctionFamily,
    MultiVector,
    Pencil,
    RationalFunction,
    SigmaPair,
    SpecError,
    VarKind,
    VarTable,
    Verdict,
    assemble_pencil,
    build_family,
    casimir_check,
    casimir_function,
    certify,
    compatibility_check,
    differential,
    from_records,
    hamiltonian_vf,
    involution_table,
    jacobi_check,
    lenard_magri_check,
    parse_ratfun,
    rank_at_sample,
    schouten,
    wedge,
)
from involution_forge import linalg as linalg_module
from involution_forge import verify as verify_module
from involution_forge.anchor import full_matrix
from involution_forge.linalg import RANK_DRAWS, sampled_rank
from involution_forge.cli import assemble, build_table, elaborate, run
from involution_forge.fixtures import FIXTURE_NAMES, fixture_file, load_fixture
from helpers import (coordinate_jacobiator, load_spec,
                     oracle_bracket_closed_form, random_multivector,
                     random_polynomial)


@pytest.fixture(scope="module")
def lagrange():
    fixture = load_fixture("lagrange_top")
    elab, pencil = assemble(fixture.spec)
    return fixture, elab, pencil


@pytest.fixture(scope="module")
def toda_pair():
    first = assemble(load_fixture("toda_first").spec)
    second = assemble(load_fixture("toda_second").spec)
    return first, second


def test_jacobi_check_agrees_with_brute_cyclic_sums():
    rng = Random(113)
    table = VarTable.build(["x1", "x2", "x3", "x4"])
    for _ in range(10):
        Pi = random_multivector(table, 2, rng)
        verdict = jacobi_check(Pi)
        brute = all(
            coordinate_jacobiator(Pi, i, j, k).is_zero()
            for i, j, k in itertools.combinations(range(4), 3))
        assert verdict.passed == brute


def test_jacobi_failure_carries_a_witness(lagrange):
    _, _, pencil = lagrange
    table = pencil.table
    x1 = parse_ratfun("x1", table)
    perturbed = pencil.Pi0 + MultiVector(table, 2, {(0, 1): x1})
    verdict = jacobi_check(perturbed, label="jacobi[perturbed]")
    assert not verdict.passed
    assert verdict.witness is not None
    assert not verdict.witness.is_zero()
    assert verdict.render().startswith("FAIL  jacobi[perturbed]")
    # the honest structure still passes
    assert jacobi_check(pencil.Pi0).passed


def test_involution_table_flags_canonical_pair():
    table = VarTable.build(["x", "y"])
    one = RationalFunction.one(table)
    lam = MultiVector(table, 2, {(0, 1): one})
    family = build_family(table, [("f1", "x"), ("f2", "y")])
    entries = involution_table(lam, family)
    assert entries[0][1] == one
    assert entries[1][0] == -one
    assert entries[0][0].is_zero()


def test_involution_passes_on_fixture(lagrange):
    fixture, elab, pencil = lagrange
    entries = involution_table(pencil.pi_lambda(), elab.family)
    n = len(elab.family.names)
    assert len(entries) == n
    for i in range(n):
        for j in range(n):
            assert entries[i][j].is_zero()


def test_casimir_check_positive_and_negative(lagrange):
    _, elab, pencil = lagrange
    table = pencil.table
    for F in pencil.F_functions:
        assert casimir_check(pencil.pi_lambda(), F).passed
    not_casimir = parse_ratfun("x1", table)
    verdict = casimir_check(pencil.pi_lambda(), not_casimir)
    assert not verdict.passed
    assert verdict.witness is not None


def test_compatibility_check(toda_pair):
    (first_elab, first_pencil), (second_elab, second_pencil) = toda_pair
    assert compatibility_check(first_pencil.Pi0, first_pencil.Pi1).passed
    assert compatibility_check(second_pencil.Pi0, second_pencil.Pi1).passed
    # the two selections are compatible structure-by-structure but the
    # cross terms obstruct: [Pi0, P1] and [Pi1, P0] are nonzero
    cross = compatibility_check(first_pencil.Pi0, second_pencil.Pi1)
    assert not cross.passed
    assert not cross.witness.is_zero()
    cross2 = compatibility_check(first_pencil.Pi1, second_pencil.Pi0)
    assert not cross2.passed
    same0 = compatibility_check(first_pencil.Pi0, second_pencil.Pi0)
    assert same0.passed
    same1 = compatibility_check(first_pencil.Pi1, second_pencil.Pi1)
    assert same1.passed


def test_lenard_magri_check_links(toda_pair):
    (elab, pencil), _ = toda_pair
    family = elab.family
    chain = [family.entry(n) for n in ("f0", "f1", "f2")]
    verdicts = lenard_magri_check(pencil.Pi0, pencil.Pi1, chain)
    assert len(verdicts) == 2
    assert all(v.passed for v in verdicts)
    # a passing link's witness is the common Hamiltonian field
    assert not verdicts[0].witness.is_zero()
    # reversing the chain breaks the ladder
    broken = lenard_magri_check(pencil.Pi0, pencil.Pi1, chain[::-1])
    assert any(not v.passed for v in broken)
    with pytest.raises(SpecError):
        lenard_magri_check(pencil.Pi0, pencil.Pi1, chain[:1])


def test_failing_link_renders_its_first_component(toda_pair):
    # the witness is the whole residual field; its text is the component
    # of least index, in basis notation
    (elab, pencil), _ = toda_pair
    chain = [elab.family.entry(n) for n in ("f2", "f1", "f0")]
    link = lenard_magri_check(pencil.Pi0, pencil.Pi1, chain)[0]
    residual = (hamiltonian_vf(pencil.Pi0, chain[1])
                - hamiltonian_vf(pencil.Pi1, chain[0]))
    assert len(residual.comps) >= 2
    assert not link.passed
    assert link.witness == residual
    first = min(residual.comps)
    shown = MultiVector(residual.table, 1, {first: residual.comps[first]})
    assert link.render() == (
        f"FAIL  link[1]  [residual: {shown.render()}]")


def test_rank_at_sample_and_degenerate_cases(lagrange):
    _, elab, pencil = lagrange
    rng = Random(127)
    assert rank_at_sample(pencil.Pi0, rng)[0] == 4
    assert rank_at_sample(pencil.Pi1, Random(129))[0] == 4
    table = VarTable.build(["x1", "x2", "x3", "x4"])
    one = RationalFunction.one(table)
    single = MultiVector(table, 2, {(0, 1): one})
    assert rank_at_sample(single, Random(131))[0] == 2
    canonical = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
    assert rank_at_sample(canonical, Random(137))[0] == 4


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_skew_sampled_rank_matches_the_full_matrix(name):
    # the bivectors and the pencil that certify samples, and the sigma
    # pair (rational components on lagrange_top): each pair read once
    # gives the full matrix's rank at the same points, and leaves the rng
    # where the full matrix leaves it
    elab, pencil = assemble(load_fixture(name).spec)
    cases = [(pencil.Pi0, ()), (pencil.Pi1, ()),
             (pencil.pi_lambda(), [pencil.F_lambda]),
             (elab.sigma0, ()), (elab.sigma1, ())]
    for obj, avoid in cases:
        rows = full_matrix(obj)
        for seed in (0, 1):
            skew_rng, full_rng = Random(seed), Random(seed)
            skew = sampled_rank(rows, obj.table, skew_rng, avoid=avoid,
                                skew=True)
            assert skew == sampled_rank(rows, obj.table, full_rng,
                                        avoid=avoid)
            assert skew_rng.getstate() == full_rng.getstate()


def test_certificate_passes_and_renders(lagrange):
    fixture, elab, pencil = lagrange
    cert = certify(pencil, seed=0)
    assert cert.passed
    text = cert.render()
    assert "PASS" in text and "FAIL" not in text
    for label in ("jacobi[Pi0]", "jacobi[Pi1]", "jacobi[pencil]",
                  "involution[family]", "compatibility[Pi0,Pi1]",
                  "det[F^2]", "closed-form[coordinates]"):
        assert label in text


def test_certificate_is_deterministic(lagrange):
    fixture, elab, pencil = lagrange
    a = certify(pencil, seed=0).render()
    b = certify(pencil, seed=0).render()
    assert a == b
    # a different seed moves the sample point but not the verdicts
    c = certify(pencil, seed=7)
    assert c.passed


def test_certificate_is_partition_order_independent(toda_pair):
    # permuting the chains relabels but never changes any outcome; the
    # single-chain fixtures cannot exercise this, so permute the
    # two-chain case
    fixture = load_fixture("lagrange_top")
    elab, _ = assemble(fixture.spec)
    swapped = list(reversed(elab.partition))
    pencil = assemble_pencil(elab.anchor, SigmaPair(elab.sigma0, elab.sigma1),
                             elab.family, swapped)
    cert = certify(pencil, seed=0)
    assert cert.passed
    assert cert.rank_expected == 4


def test_certificate_rank_facts(lagrange):
    _, elab, pencil = lagrange
    cert = certify(pencil, seed=0)
    assert cert.rank0 == 4
    assert cert.rank1 == 4
    assert cert.rank_pencil_at_sample == 4
    assert cert.rank_expected == 2 * pencil.r


def _pencil_jacobi_by_bilinearity(Pi0, Pi1, lam):
    """[Pi1, Pi1] - 2 lambda [Pi0, Pi1] + lambda^2 [Pi0, Pi0]."""
    return (schouten(Pi1, Pi1) - schouten(Pi0, Pi1) * (2 * lam)
            + schouten(Pi0, Pi0) * lam**2)


def test_pencil_jacobi_is_bilinear_in_the_three_brackets(lagrange,
                                                         toda_pair):
    # the pencil parameter is inert under schouten, so [Pi_l, Pi_l] is the
    # bilinear combination component for component: same comps, same
    # first component, same witness
    pencils = [lagrange[2], toda_pair[0][1], toda_pair[1][1]]
    for pencil in pencils:
        lam = RationalFunction.variable(pencil.table, pencil.pencil_name)
        pi_lam = pencil.pi_lambda()
        assert (schouten(pi_lam, pi_lam).comps
                == _pencil_jacobi_by_bilinearity(
                    pencil.Pi0, pencil.Pi1, lam).comps)
    rng = Random(139)
    table = VarTable.build(["x1", "x2", "x3", "x4",
                            ("lambda", VarKind.PENCIL)])
    lam = RationalFunction.variable(table, "lambda")
    nonzero = 0
    for _ in range(20):
        Pi0 = random_multivector(table, 2, rng)
        Pi1 = random_multivector(table, 2, rng)
        pi_lam = Pi1 - Pi0 * lam
        direct = schouten(pi_lam, pi_lam)
        assert direct.comps == _pencil_jacobi_by_bilinearity(
            Pi0, Pi1, lam).comps
        nonzero += not direct.is_zero()
    assert nonzero >= 10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 3))
def test_casimir_residual_is_the_horner_sum_of_the_chain_fields(seed,
                                                                length):
    # with lambda inert, Pi_lambda#dF = sum_j lambda^(r-j) (X1[f_j] -
    # lambda X0[f_j]) for F = lambda^r f_0 + ... + f_r, the sum certify
    # reads each casimir[F^i] off; a 1-entry chain too, which no shipped
    # spec has.  Four functions on four coordinates fit r = 0, k = 4.
    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "x3", "x4",
                            ("lambda", VarKind.PENCIL)])
    lam = RationalFunction.variable(table, "lambda")
    Pi0 = random_multivector(table, 2, rng)
    Pi1 = random_multivector(table, 2, rng)
    family = FunctionFamily(table, [
        (f"f{j}", random_polynomial(table, rng)) for j in range(4)])
    chain = family.names[:length]
    X0, X1 = ({f: hamiltonian_vf(Pi, family.entry(f)) for f in chain}
              for Pi in (Pi0, Pi1))
    horner = X1[chain[0]] - X0[chain[0]] * lam
    for f in chain[1:]:
        horner = horner * lam + (X1[f] - X0[f] * lam)
    F = casimir_function(family, CasimirPolynomial(chain))
    assert horner.comps == hamiltonian_vf(Pi1 - Pi0 * lam, F).comps


@pytest.mark.parametrize("which", ["Pi1", "Pi0"])
def test_certify_failure_witnesses_match_the_direct_checks(lagrange,
                                                            toda_pair, which):
    # jacobi[pencil] comes from the three brackets by bilinearity, and each
    # casimir[F^i] is the Horner sum over its chain of Pi1#df - lambda
    # Pi0#df; on a broken Pi1 (or Pi0) their witnesses are the ones the
    # direct bracket and Pi_lambda#dF^i give.  The bump x4*Dx1^Dx3 (y1 on
    # the Lagrange top, b2 on toda_first with its 3-entry chain) makes the
    # jacobi witness mix the lambda-free and the lambda terms, so a wrong
    # sign or a dropped bracket shows.
    (_, _, lagrange_pencil), ((_, toda_pencil), _) = lagrange, toda_pair
    for pencil in (lagrange_pencil, toda_pencil):
        table = pencil.table
        fields = {name: getattr(pencil, name) for name in Pencil._fields}
        fields[which] = fields[which] + MultiVector(
            table, 2, {(0, 2): parse_ratfun(table.names[3], table)})
        broken = Pencil(**fields)
        verdicts = {v.label: v for v in certify(broken, seed=0).verdicts}
        direct = [
            jacobi_check(broken.pi_lambda(), "jacobi[pencil]"),
            compatibility_check(broken.Pi0, broken.Pi1,
                                "compatibility[Pi0,Pi1]"),
        ] + [
            casimir_check(broken.pi_lambda(), F, f"casimir[F^{i}]")
            for i, F in enumerate(broken.F_functions, start=1)
        ]
        assert "lambda" in direct[0].witness.render()
        for verdict in direct:
            assert not verdict.passed
            assert verdicts[verdict.label].render() == verdict.render()


def test_lambda_left_in_a_closed_form_denominator_is_a_failed_verdict(
        lagrange):
    # with F(lambda) off by a factor lambda + 1, Phi_lambda keeps it in its
    # denominators: the closed form is no polynomial in lambda, and the
    # certificate reports that as a FAIL with both sides, not an exception
    _, _, pencil = lagrange
    table = pencil.table
    lam = parse_ratfun("lambda", table)
    stub = Pencil(pencil.anchor, pencil.family, pencil.partition,
                  pencil.Pi0, pencil.Pi1, pencil.sigma_lambda,
                  pencil.g_lambda, pencil.F_lambda * (lam + 1),
                  pencil.F_functions)
    verdicts = {v.label: v for v in certify(stub, seed=0).verdicts}
    closed = verdicts["closed-form[coordinates]"]
    assert not closed.passed
    assert " vs contraction " in closed.witness
    assert "(lambda + 1)" in closed.witness
    # the line the wedge-by-wedge check prints, read off Phi_lambda
    assert closed.render() == _wedged_closed_form_verdict(
        stub, stub.pi_lambda()).render()


def _wedged_closed_form_verdict(pencil, pi_lam) -> Verdict:
    """The closed-form check by oracle_bracket_closed_form, which wedges
    dx_a^dx_b^Phi_lambda for every pair: the oracle for the read-off."""
    names = pencil.table.names
    for a, b in itertools.combinations(pencil.table.geometric_indices, 2):
        lhs = oracle_bracket_closed_form(pencil, names[a], names[b])
        rhs = pi_lam.coefficient((a, b))
        if lhs != rhs:
            return Verdict(
                "closed-form[coordinates]", False,
                f"{{{names[a]},{names[b]}}}: closed form {lhs.render()} "
                f"vs contraction {rhs.render()}")
    return Verdict("closed-form[coordinates]", True)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("certify_scaled",))
def test_closed_form_read_off_matches_the_wedge_on_every_pair(name):
    # shifting one contraction by 1 makes its pair the first to fail, so
    # the witness shows that pair's closed form as read off Phi_lambda
    _, pencil = assemble(load_spec(name))
    pi_lam = pencil.pi_lambda()
    table = pencil.table
    check = verify_module._closed_form_equivalence
    assert check(pencil, pi_lam).passed
    for a, b in itertools.combinations(table.geometric_indices, 2):
        shifted = pi_lam + MultiVector(table, 2, {(a, b): 1})
        got = check(pencil, shifted)
        assert not got.passed
        assert got.witness.startswith(
            f"{{{table.names[a]},{table.names[b]}}}: ")
        assert got.render() == _wedged_closed_form_verdict(
            pencil, shifted).render()


# sampled draws certify evaluates: every draw on lagrange_top, whose ranks 4
# stay below its dimension 6, and only the first per bivector on the 5-dim
# Toda pencils, whose first draws reach rank 4, the largest a 5x5 skew
# matrix can have
EVALUATED_DRAWS = {"lagrange_top": 3 * RANK_DRAWS, "toda_first": 3,
                   "toda_second": 3}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_certify_takes_each_bracket_once(name, monkeypatch):
    # no Schouten bracket on an assembled pencil, whose three brackets
    # assembly proved zero, and three on the same pencil rebuilt through
    # the constructor; two Hamiltonian fields per family function for the
    # Casimir residuals, the involution table and the links, none through
    # hamiltonian_vf, Poisson brackets only for the upper triangle of the
    # det[F^2] matrix, and one elimination per evaluated draw besides the
    # one of the Casimir Jacobian
    _, pencil = assemble(load_fixture(name).spec)
    rebuilt = Pencil(**{field: getattr(pencil, field)
                        for field in Pencil._fields})
    calls = dict.fromkeys(("schouten", "poisson_bracket", "bivector_sharp",
                           "hamiltonian_vf", "_rank"), 0)

    def counting(module, attr):
        real = getattr(module, attr)

        def wrapped(*args):
            calls[attr] += 1
            return real(*args)
        monkeypatch.setattr(module, attr, wrapped)

    for attr in ("schouten", "poisson_bracket", "bivector_sharp",
                 "hamiltonian_vf"):
        counting(verify_module, attr)
    counting(linalg_module, "_rank")
    k = len(pencil.family.functions())
    m = len(pencil.F_functions)
    if pencil.anchor.lifted.table.appended_index is not None:
        m += 1
    for subject, brackets in ((pencil, 0), (rebuilt, 3)):
        calls.update(dict.fromkeys(calls, 0))
        certify(subject, seed=0)
        assert calls == {
            "schouten": brackets,
            "poisson_bracket": m * (m - 1) // 2,
            "bivector_sharp": 2 * k,
            "hamiltonian_vf": 0,
            "_rank": EVALUATED_DRAWS[name] + 1,
        }


# the bracket verdicts of certify with x4*Dx1^Dx3 added to Pi1 after
# assembly, as the certificate printed them when it took every bracket
BUMPED_PI1_VERDICTS = {
    "lagrange_top": [
        "PASS  jacobi[Pi0]",
        "FAIL  jacobi[Pi1]  [residual: (-2)*Dx1^Dx2^Dx3]",
        "FAIL  jacobi[pencil]  [residual: (-2*x3*lambda - 2)*Dx1^Dx2^Dx3]",
        "FAIL  compatibility[Pi0,Pi1]  [residual: (x3)*Dx1^Dx2^Dx3]",
    ],
    "toda_first": [
        "PASS  jacobi[Pi0]",
        "FAIL  jacobi[Pi1]  [residual: (-a2*b2)*Da1^Da2^Db1]",
        "FAIL  jacobi[pencil]  [residual: (-a2*b2 + 2*a2*lambda)"
        "*Da1^Da2^Db1]",
        "FAIL  compatibility[Pi0,Pi1]  [residual: (-a2)*Da1^Da2^Db1]",
    ],
    "toda_second": [
        "PASS  jacobi[Pi0]",
        "FAIL  jacobi[Pi1]  [residual: (4*a1^2*a2 - 2*a2*b1*b2 + 2*a2*b2*b3)"
        "*Da1^Da2^Db1]",
        "FAIL  jacobi[pencil]  [residual: (4*a1^2*a2 - 2*a2*b1*b2 + "
        "2*a2*b2*b3 + 2*a2*b2*lambda - 4*a2*b3*lambda)*Da1^Da2^Db1]",
        "FAIL  compatibility[Pi0,Pi1]  [residual: (-a2*b2 + 2*a2*b3)"
        "*Da1^Da2^Db1]",
    ],
}


@pytest.mark.parametrize("how", ["constructor", "in_place"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_certify_retakes_the_brackets_of_a_pencil_changed_after_assembly(
        name, how):
    # assembly's proof of the three brackets holds for the components it
    # saw: a Pi1 bumped after assembly, in a pencil built through the
    # constructor or by editing Pi1.comps in place, fails jacobi[Pi1] and
    # compatibility[Pi0,Pi1] with the witnesses of the brackets themselves
    _, pencil = assemble(load_fixture(name).spec)
    assert pencil.brackets_proved()
    assert not copy.copy(pencil).brackets_proved()
    with pytest.raises(AttributeError):
        pencil.Pi1 = pencil.Pi0
    table = pencil.table
    bumped = pencil.Pi1 + MultiVector(
        table, 2, {(0, 2): parse_ratfun(table.names[3], table)})
    if how == "constructor":
        fields = {field: getattr(pencil, field) for field in Pencil._fields}
        pencil = Pencil(**dict(fields, Pi1=bumped))
    else:
        pencil.Pi1.comps.clear()
        pencil.Pi1.comps.update(bumped.comps)
    assert not pencil.brackets_proved()
    verdicts = [v for v in certify(pencil, seed=0).verdicts
                if v.label.startswith(("jacobi[", "compatibility["))]
    assert [v.render() for v in verdicts] == BUMPED_PI1_VERDICTS[name]
    assert verdicts[1] == jacobi_check(bumped, "jacobi[Pi1]")
    assert verdicts[3] == compatibility_check(pencil.Pi0, bumped,
                                              "compatibility[Pi0,Pi1]")


# x_i -> x_i + (x_{i+1} + ... + x_5 + 1) along the Toda chain: triangular
# with unit diagonal, so invertible with a polynomial inverse, and every
# verdict and rank of the pulled-back pencil must stay as it was
TRIANGULAR_CHAIN = ("a1", "a2", "b1", "b2", "b3")


def _triangular(table) -> dict:
    return {
        name: parse_ratfun(
            f"{name} + ({' + '.join(TRIANGULAR_CHAIN[i + 1:] + ('1',))})",
            table)
        for i, name in enumerate(TRIANGULAR_CHAIN)
    }


def _pullback(form: Form) -> Form:
    """phi^*(sum c_I dx_I) = sum (c_I o phi) dphi_{i1} ^ ... ^ dphi_{ip};
    the pencil parameter and the lifted coordinate are left alone."""
    table = form.table
    phi = _triangular(table)
    images = {
        i: differential(phi.get(table.names[i],
                                parse_ratfun(table.names[i], table)))
        for i in table.geometric_indices
    }
    total = Form.zero(table, form.degree)
    for idx, coeff in form.comps.items():
        term = Form.scalar(table, coeff.substitute(phi))
        for i in idx:
            term = wedge(term, images[i])
        total = total + term
    return total


def _verdict_lines(text: str) -> list:
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith(("PASS", "FAIL"))]


def test_report_is_invariant_under_a_triangular_pullback(tmp_path):
    fixture = load_fixture("toda_first")
    parts = elaborate(fixture.spec)
    table = build_table(fixture.spec)
    anchor = fixture.payload["anchor"]
    payload = {key: value for key, value in fixture.payload.items()
               if key != "expected"}
    payload["anchor"] = {
        "type": "cosymplectic",
        "vartheta": _pullback(
            from_records(table, 1, anchor["vartheta"])).to_records(),
        "theta": _pullback(
            from_records(table, 2, anchor["theta"])).to_records(),
    }
    phi = _triangular(table)
    payload["family"] = [
        {"name": name,
         "expression": parse_ratfun(text, table).substitute(phi).render()}
        for name, text in fixture.spec.family
    ]
    payload["sigma0"] = {"components": _pullback(parts.sigma0).to_records()}
    payload["sigma1"] = {"components": _pullback(parts.sigma1).to_records()}
    path = tmp_path / "toda_first_triangular.json"
    path.write_text(json.dumps(payload))

    code, text = run("report", str(path))
    _, reference = run("report", str(fixture_file("toda_first")))
    assert code == 0, text
    assert "status = PASS" in text
    assert _verdict_lines(text) == _verdict_lines(reference)
    assert all(line.startswith("PASS") for line in _verdict_lines(text))
    for name in ("Pi0", "Pi1", "pencil"):
        assert f"rank[{name}] = 4" in text


# metamorphic checks: transformations that must leave every verdict label,
# pass flag and rank of `report` as it was


def _outcome(text: str) -> list:
    """Each verdict's mark and label, and each rank line, of a report."""
    lines = [line.strip() for line in text.splitlines()]
    return ([line.split()[:2] for line in lines
             if line.startswith(("PASS", "FAIL"))]
            + [line for line in lines
               if line.startswith(("rank[", "expected"))])


def _report_outcome(payload, tmp_path, name: str):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    code, text = run("report", str(path))
    assert code == 0, text
    assert "status = PASS" in text
    return _outcome(text)


def _spec_payload(name: str) -> dict:
    payload = json.loads(fixture_file(name).read_text())
    payload.pop("expected", None)
    return payload


@pytest.mark.parametrize("name", ["toda_first", "toda_second"])
def test_report_is_invariant_under_the_swap_of_the_sigma_pair(name,
                                                              tmp_path):
    # Pi1 - lambda Pi0 and Pi0 - mu Pi1 are one pencil (mu = 1/lambda), and
    # each Lenard-Magri chain of the one is a chain of the other reversed
    # (Magri 1978; Gelfand & Zakharevich 1993)
    payload = _spec_payload(name)
    swapped = dict(payload, sigma0=payload["sigma1"],
                   sigma1=payload["sigma0"],
                   partition=[chain[::-1] for chain in payload["partition"]])
    assert (_report_outcome(swapped, tmp_path, name)
            == _report_outcome(payload, tmp_path, f"{name}_original"))


def test_report_is_invariant_under_the_swap_on_lagrange_top(tmp_path):
    # only sigma1 may carry an ansatz, so the swapped sigma0 is sigma1 by
    # its explicit components alone
    payload = _spec_payload("lagrange_top")
    swapped = dict(payload,
                   sigma0={"components": payload["sigma1"]["components"]},
                   sigma1=payload["sigma0"],
                   partition=[chain[::-1] for chain in payload["partition"]])
    outcome = _report_outcome(swapped, tmp_path, "lagrange_top")
    assert outcome == _report_outcome(payload, tmp_path, "original")
    assert len([line for line in outcome if isinstance(line, list)]) == 13
    assert "rank[pencil] = 4" in outcome


def _scaled(records, factor: str) -> list:
    """Coefficient records, or basis coefficients [a, b, text], times
    ``factor``."""
    return [dict(item, coeff=f"{factor}*({item['coeff']})")
            if isinstance(item, dict) else [*item[:2], f"{factor}*({item[2]})"]
            for item in records]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_is_invariant_under_a_rescaling_of_the_sigma_pair(
        name, tmp_path):
    # sigma_i -> c_i sigma_i scales Pi_i by c_i, so Pi0#df_{j+1} = Pi1#df_j
    # holds again for f_j -> (c1/c0)^j f_j along each chain
    payload = _spec_payload(name)
    factors = {"sigma0": "2", "sigma1": "3/5"}
    scaled = dict(payload)
    for key, factor in factors.items():
        block = dict(payload[key])
        for part in ("components", "coefficients"):
            if part in block:
                block[part] = _scaled(block[part], factor)
        scaled[key] = block
    position = {f: j for chain in payload["partition"]
                for j, f in enumerate(chain)}
    scaled["family"] = [
        dict(entry, expression=f"(3/10)^{position[entry['name']]}*"
                               f"({entry['expression']})")
        for entry in payload["family"]]
    assert (_report_outcome(scaled, tmp_path, name)
            == _report_outcome(payload, tmp_path, f"{name}_original"))


def _renamed(node, new: dict):
    """``node`` with every record's 1-based geometric indices renamed by
    ``new`` and sorted, its coefficient negated for an odd sort; indices
    past the declared coordinates (the appended s) are kept."""
    if isinstance(node, list):
        return [_renamed(item, new) for item in node]
    if not isinstance(node, dict):
        return node
    if "indices" in node:
        idx = [new.get(i, i) for i in node["indices"]]
        odd = sum(a > b for a, b in itertools.combinations(idx, 2)) % 2
        coeff = f"-({node['coeff']})" if odd else node["coeff"]
        return {"indices": sorted(idx), "coeff": coeff}
    if node.get("type") == "canonical":
        node = {"type": "symplectic", "bivector": [
            {"indices": pair, "coeff": "1"} for pair in node["pairs"]]}
    return {key: _renamed(value, new) for key, value in node.items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_is_invariant_under_a_permutation_of_the_coordinates(
        name, tmp_path):
    # reversing the declared coordinates, with the pencil parameter moved
    # to the front, reverses the packed monomial order of every polynomial
    payload = _spec_payload(name)
    variables = payload["variables"]
    coords = [v for v in variables if isinstance(v, str)]
    others = [v for v in variables if not isinstance(v, str)]
    n = len(coords)
    permuted = _renamed(payload, {i: n + 1 - i for i in range(1, n + 1)})
    permuted["variables"] = others + coords[::-1]
    assert (_report_outcome(permuted, tmp_path, name)
            == _report_outcome(payload, tmp_path, f"{name}_original"))



@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_involution_and_links_match_the_public_checks(name):
    # certify reads these off the fields Pi0#df and Pi1#df it takes once
    # per family function; involution_table and lenard_magri_check take
    # brackets and fields of their own.  Both must give the same labels,
    # flags and witnesses, on the pencil and on one whose last chain
    # function is perturbed so that a link and an involution entry fail
    _, pencil = assemble(load_fixture(name).spec)
    table, family = pencil.table, pencil.family
    chain = next(cp.names for cp in pencil.partition if len(cp.names) > 1)
    x = RationalFunction.variable(table, table.names[0])
    bent = FunctionFamily(table, [
        (f, family.entry(f) + (x if f == chain[-1] else 0))
        for f in family.names])
    for fam in (family, bent):
        stub = Pencil(pencil.anchor, fam, pencil.partition, pencil.Pi0,
                      pencil.Pi1, pencil.sigma_lambda, pencil.g_lambda,
                      pencil.F_lambda, pencil.F_functions)
        got = {v.label: v for v in certify(stub, seed=0).verdicts}
        entries = involution_table(stub.pi_lambda(), fam)
        failing = [
            Verdict("involution[family]", False,
                    f"{{{fam.names[i]},{fam.names[j]}}} = "
                    f"{entries[i][j].render()}")
            for i, j in itertools.combinations(range(len(fam.names)), 2)
            if entries[i][j]]
        expected = failing[:1] or [Verdict("involution[family]", True)]
        for ci, cp in enumerate(pencil.partition, start=1):
            if len(cp.names) > 1:
                expected.extend(
                    Verdict(f"chain[{ci}].{v.label}", v.passed, v.witness)
                    for v in lenard_magri_check(
                        stub.Pi0, stub.Pi1,
                        [fam.entry(f) for f in cp.names]))
        for verdict in expected:
            assert got[verdict.label] == verdict
            assert got[verdict.label].render() == verdict.render()
        if fam is bent:
            assert not got["involution[family]"].passed
            assert not all(v.passed for v in expected[1:])
