"""Independent certification of assembled pencils.

Every check in this module re-derives its verdict from the bivectors and
functions alone (Schouten brackets, sharp maps, pointwise ranks), so a
certificate is evidence about the output, not about the construction path
that produced it.  Verdicts always carry a symbolic witness on failure.

``certify`` computes each quantity once: Jacobi for the pencil is the
combination [Pi1, Pi1] - 2 lambda [Pi0, Pi1] + lambda^2 [Pi0, Pi0] of the
three brackets (Kosmann-Schwarzbach & Magri 1990, Ann. IHP 53), a square
[Pi, Pi] takes one of the two Schouten sums, and a bracket matrix takes
only its upper triangle.  The three brackets are the one exception to
re-deriving: on a pencil whose components are those ``assemble_pencil``
proved them zero for (``Pencil.brackets_proved``), they are not taken
again.  The Casimir residuals, involution entries and chain links are
all read off df, X0 = Pi0#df and X1 = Pi1#df, taken once per family
function, and Xl = X1 - lambda X0 = Pi_lambda#df:
with lambda inert, Pi_lambda#dF^i for F^i = lambda^r f_0 + ... + f_r is
the Horner sum of Xl over the chain, leading entry first, an entry {f, h}
is <dh, Xl[f]>, and a link compares X0 and X1 of neighbours.  Its
rank claims draw RANK_DRAWS points per bivector (``linalg.sampled_rank``
with no target), so the sample point depends only on the seed and pencil,
and evaluate them only while the rank can still rise, each pair once.
The closed-form check compares ``pencil.closed_form_bivector`` with
Pi_lambda: the sign and the volume of the read-off live there alone.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

from .anchor import (
    APPENDED_NAME,
    bivector_sharp,
    full_matrix,
    hamiltonian_vf,
    poisson_bracket,
)
from .errors import DegreeError, SpecError
from .exterior import MultiVector, differential, pairing, schouten
from .linalg import det, rank_at_point, sampled_rank
from .pencil import FunctionFamily, Pencil, closed_form_bivector
from .report import Verdict, vanishes
from .symexpr import (
    RationalFunction,
    Record,
    migrate_ratfun,
)


def jacobi_check(Pi, label: str = "jacobi") -> Verdict:
    """[Pi, Pi] = 0, the Jacobi identity in Schouten form."""
    return vanishes(label, schouten(Pi, Pi))


def casimir_check(Pi_lambda, F_i, label: str = "casimir") -> Verdict:
    """Pi_lambda#(dF_i) = 0 identically.

    The pencil parameter is an inert symbol of the coefficient field, so
    exact vanishing of the sharp image IS the coefficient-wise statement
    for every value of the parameter at once."""
    return vanishes(label, hamiltonian_vf(Pi_lambda, F_i))


def _bracket_matrix(Pi, funcs) -> list:
    """The antisymmetric matrix of brackets {f_i, f_j} under Pi, from the
    brackets with i < j alone."""
    rows = [[RationalFunction.zero(Pi.table)] * len(funcs) for _ in funcs]
    for i, j in combinations(range(len(funcs)), 2):
        b = poisson_bracket(Pi, funcs[i], funcs[j])
        rows[i][j], rows[j][i] = b, -b
    return rows


def involution_table(Pi_lambda, family: FunctionFamily) -> list:
    """The full antisymmetric matrix of brackets {f_i, f_j} under
    Pi_lambda, from the k(k-1)/2 with i < j; the family is in involution
    for every value of the pencil parameter iff every entry is zero."""
    return _bracket_matrix(Pi_lambda, family.functions())


def lenard_magri_check(Pi0, Pi1, chain) -> list:
    """Per-link verdicts for Pi0#(df_{j+1}) = Pi1#(df_j).

    On a passing link the witness holds the common vector field; on a
    failing one, the residual field."""
    if len(chain) < 2:
        raise SpecError("a Lenard-Magri chain needs at least two functions")
    verdicts = []
    for j in range(1, len(chain)):
        lhs = hamiltonian_vf(Pi0, chain[j])
        residual = lhs - hamiltonian_vf(Pi1, chain[j - 1])
        if residual.comps:
            verdicts.append(Verdict(f"link[{j}]", False, residual))
        else:
            verdicts.append(Verdict(f"link[{j}]", True, lhs))
    return verdicts


def compatibility_check(PiA, PiB, label: str = "compatibility") -> Verdict:
    """[PiA, PiB] = 0, so every linear combination is again Poisson."""
    if PiA.degree != 2 or PiB.degree != 2:
        raise DegreeError("compatibility is a statement about bivectors")
    return vanishes(label, schouten(PiA, PiB))


def rank_at_sample(Pi, rng: Random, avoid=()):
    """Best (rank, point) over RANK_DRAWS generic rational draws, all of
    them drawn (there is no target), so the rng advances whatever the rank."""
    return sampled_rank(full_matrix(Pi), Pi.table, rng, avoid=avoid,
                        skew=True)


class PencilCertificate(Record):
    """Outcome of every check on one assembled pencil.

    The rank claim is split into its two honest halves: equality with 2r
    is certified at a sampled point, while the global bound rank <= 2r is
    inferred from k independent Casimirs (corank at least k wherever their
    differentials stay independent)."""

    __slots__ = _fields = ("verdicts", "rank0", "rank1",
                           "rank_pencil_at_sample", "rank_expected", "sample")

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def render(self) -> str:
        lines = ["certificate:"]
        lines.append(f"  status = {'PASS' if self.passed else 'FAIL'}")
        lines.append("  ranks:")
        lines.append(f"    rank[Pi0] = {self.rank0}")
        lines.append(f"    rank[Pi1] = {self.rank1}")
        lines.append(f"    rank[pencil] = {self.rank_pencil_at_sample}")
        lines.append(f"    expected = {self.rank_expected}")
        point = ", ".join(
            f"{name}={value}"
            for name, value in zip(self.sample.table.names,
                                   self.sample.values)
        )
        lines.append(f"    sample = ({point})")
        lines.append("  verdicts:")
        for v in self.verdicts:
            lines.append(f"    {v.render()}")
        return "\n".join(lines)


def certify(pencil: Pencil, seed: int = 0) -> PencilCertificate:
    """Run every check on an assembled pencil against the family and
    partition it was assembled for; deterministic given seed.  jacobi[pencil]
    shows the direct bracket's witness: the combination is its exact equal."""
    table = pencil.table
    family = pencil.family
    Pi0, Pi1 = pencil.Pi0, pencil.Pi1
    pi_lam = pencil.pi_lambda()
    lam = RationalFunction.variable(table, pencil.pencil_name)
    if pencil.brackets_proved():
        # assembly proved these brackets zero; a PASS carries no witness
        s00 = s11 = s01 = MultiVector.zero(table, 3)
    else:
        s00 = schouten(Pi0, Pi0)
        s11 = schouten(Pi1, Pi1)
        s01 = schouten(Pi0, Pi1)

    verdicts = [
        vanishes("jacobi[Pi0]", s00),
        vanishes("jacobi[Pi1]", s11),
        vanishes("jacobi[pencil]", s11 - s01 * (2 * lam) + s00 * lam**2),
    ]
    df = {f: differential(family.entry(f), table) for f in family.names}
    X0 = {f: bivector_sharp(Pi0, d) for f, d in df.items()}
    X1 = {f: bivector_sharp(Pi1, d) for f, d in df.items()}
    Xl = {f: X1[f] - X0[f] * lam for f in family.names}
    for pos, cp in enumerate(pencil.partition, start=1):
        residual = Xl[cp.names[0]]
        for f in cp.names[1:]:
            residual = residual * lam + Xl[f]
        verdicts.append(vanishes(f"casimir[F^{pos}]", residual))
    involution = Verdict("involution[family]", True)
    for f, h in combinations(family.names, 2):
        b = pairing(df[h], Xl[f])
        if b:
            involution = Verdict("involution[family]", False,
                                 f"{{{f},{h}}} = {b.render()}")
            break
    verdicts.append(involution)
    verdicts.append(vanishes("compatibility[Pi0,Pi1]", s01))
    for ci, cp in enumerate(pencil.partition, start=1):
        for j in range(1, len(cp.names)):
            lhs = X0[cp.names[j]]
            residual = lhs - X1[cp.names[j - 1]]
            passed = residual.is_zero()
            verdicts.append(Verdict(f"chain[{ci}].link[{j}]", passed,
                                    lhs if passed else residual))

    rng = Random(seed)
    rank0, _ = rank_at_sample(Pi0, rng)
    rank1, _ = rank_at_sample(Pi1, rng)
    rank_pencil, sample = rank_at_sample(
        pi_lam, rng, avoid=[pencil.F_lambda]
    )
    expected = 2 * family.r
    verdicts.append(Verdict(
        "rank[sampled]=2r",
        rank0 == expected and rank1 == expected and rank_pencil == expected,
        f"(rank0, rank1, rank_pencil) = ({rank0}, {rank1}, {rank_pencil}),"
        f" expected {expected}",
    ))
    F_list = pencil.F_functions
    geo = table.geometric_indices
    jac = [[F.derivative(i) for i in geo] for F in F_list]
    verdicts.append(Verdict(
        "rank[bound]<=2r",
        rank_at_point(jac, sample) == family.k,
        f"Casimir Jacobian rank below {family.k} at the sampled point",
    ))
    verdicts.append(_det_identity(pencil, F_list))
    if pencil.r >= 2:
        verdicts.append(_closed_form_equivalence(pencil, pi_lam))

    return PencilCertificate(
        verdicts, rank0, rank1, rank_pencil, expected, sample
    )


def _det_identity(pencil: Pencil, F_list) -> Verdict:
    """F(lambda)^2 = det of the bracket matrix of the Casimir polynomials.

    The brackets are taken on the symplectic anchor the sigma pair lives
    on; a lifted table adjoins the appended coordinate as a final row and
    column, since on the lifted space it completes the F^i to a maximal
    bracket-nondegenerate set."""
    label = "det[F^2]"
    lifted = pencil.anchor.lifted
    table = lifted.table
    funcs = [migrate_ratfun(F, table) for F in F_list]
    if table.appended_index is not None:
        funcs.append(RationalFunction.variable(table, APPENDED_NAME))
    F_sq = migrate_ratfun(pencil.F_lambda, table) ** 2
    value = det(_bracket_matrix(lifted.lambda_bi, funcs), table)
    if value == F_sq:
        return Verdict(label, True)
    return Verdict(
        label, False,
        f"det = {value.render()}, F^2 = {F_sq.render()}",
    )


def _closed_form_equivalence(pencil: Pencil, pi_lam) -> Verdict:
    """The closed form {x_a, x_b} = dx_a^dx_b^Phi_lambda / Omega agrees
    with the sharp-contraction bracket Pi_lambda(dx_a, dx_b) on every
    coordinate pair: ``closed_form_bivector`` against Pi_lambda, component
    by component; both are polynomials in the pencil parameter."""
    label = "closed-form[coordinates]"
    names = pencil.table.names
    closed = closed_form_bivector(pencil)
    for a, b in combinations(pencil.table.geometric_indices, 2):
        lhs = closed.coefficient((a, b))
        rhs = pi_lam.coefficient((a, b))
        if lhs != rhs:
            witness = (
                f"{{{names[a]},{names[b]}}}: closed form {lhs.render()} "
                f"vs contraction {rhs.render()}"
            )
            return Verdict(label, False, witness)
    return Verdict(label, True)
