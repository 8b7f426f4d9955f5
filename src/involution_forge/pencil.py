"""Casimir polynomials, sigma conditions, recursion relations, the ansatz
solver, pencil assembly, and the closed-form bracket.

A family of r+k functions on a 2r+k dimensional table is organized by a
partition into k Casimir polynomials F^i(lambda) = lambda^{r_i} f^i_0 + ...
+ f^i_{r_i} (leading coefficient first, every family entry used exactly
once).  The sigma pair (sigma0, sigma1) of 2-forms, constrained by the
annihilator and recursion conditions, is turned into the bivector pencil
Pi_lambda = Pi1 - lambda Pi0 by the anchor's sharp; in odd dimension all of
this happens on the lifted table and is pushed back down at the end.

Identities in lambda are decided coefficient-wise, never by sampling
lambda.  The leading and trailing coefficients of F(lambda) are nonzero
exactly when they survive in its exact coefficient list; the remaining
genericity statements (independence, maximal rank) are certified at
sampled rational points.  Every power is divided (``divided_power``):
Lambda^l/l! in F(lambda), w^(r-2)/(r-2)! in Phi_lambda.  The closed form
{f,h} Omega = df^dh^Phi_lambda is stated once, as the bivector of
coordinate brackets read off Phi_lambda (``closed_form_bivector``)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

from .anchor import (
    CosymplecticAnchor,
    bivector_sharp,
    decompose_prime,
    full_matrix,
    hamiltonian_vf,
    migrate_alternating,
    poisson_bracket,
    reduce_bivector,
    sharp,
)
from .errors import (
    ConditionFailed,
    DegenerateLeading,
    DegenerateTrailing,
    DegenerateVolume,
    DegreeError,
    DimensionMismatch,
    RankDrop,
    RankTooSmall,
    SpecError,
)
from .exterior import (
    Form,
    MultiVector,
    differential,
    divided_power,
    interior,
    pairing,
    schouten,
    wedge,
)
from .linalg import nullspace, sampled_rank, solve_linear
from .report import Verdict, vanishes
from .symexpr import (
    Frozen,
    RationalFunction,
    Record,
    VarKind,
    VarTable,
    as_ratfun,
    coefficients_in,
    migrate_ratfun,
    parse_ratfun,
    quotient_by_factor,
)


# --- the function family and its partition -----------------------------------


class FunctionFamily:
    """Named functions in prescribed involution, with the integers r, k
    implied by |entries| = r+k and dim = 2r+k."""

    __slots__ = ("table", "names", "entries", "r", "k")

    def __init__(self, table: VarTable, entries):
        named = []
        seen = set()
        for name, value in entries:
            if name in seen:
                raise SpecError(f"family entry {name!r} repeated")
            seen.add(name)
            named.append((name, as_ratfun(table, value)))
        count = len(named)
        r = table.dim - count
        k = 2 * count - table.dim
        if r < 0 or k < 0:
            raise SpecError(
                f"{count} functions on a {table.dim}-dimensional table "
                "fit no 2r+k split"
            )
        for name, value in named:
            for bad in (table.pencil_index, table.appended_index):
                if bad is not None and value.involves(bad):
                    raise SpecError(
                        f"family entry {name!r} involves the reserved "
                        f"variable {table.names[bad]!r}"
                    )
        self.table = table
        self.names = tuple(name for name, _ in named)
        self.entries = dict(named)
        self.r = r
        self.k = k

    def entry(self, name: str) -> RationalFunction:
        try:
            return self.entries[name]
        except KeyError:
            raise SpecError(f"no family entry named {name!r}") from None

    def functions(self):
        return [self.entries[name] for name in self.names]

    def independence_point(self, rng: Random):
        """A rational point where the family Jacobian has full rank r+k."""
        geo = self.table.geometric_indices
        rows = [
            [f.derivative(i) for i in geo] for f in self.functions()
        ]
        want = self.r + self.k
        rank, point = sampled_rank(rows, self.table, rng, want)
        if rank != want:
            raise RankDrop(
                f"family Jacobian never reached rank {want} at sampled points"
            )
        return point


def build_family(table: VarTable, entries, seed: int = 0) -> FunctionFamily:
    """FunctionFamily with independence certified at a sampled point."""
    family = FunctionFamily(table, entries)
    family.independence_point(Random(seed))
    return family


class CasimirPolynomial(Frozen):
    """Ordered entry names, leading coefficient of lambda^{r_i} first."""

    __slots__ = ("names",)
    _fields = __slots__

    def __init__(self, names):
        object.__setattr__(self, "names", tuple(names))
        if not self.names:
            raise SpecError("a Casimir polynomial needs at least one entry")

    @property
    def degree(self) -> int:
        return len(self.names) - 1


def check_partition(family: FunctionFamily, partition) -> None:
    """Every entry used exactly once and Sum r_i = r.  Together they make
    k polynomials: the r+k entries in c chains have Sum r_i = r+k-c."""
    used = []
    for cp in partition:
        used.extend(cp.names)
    if sorted(used) != sorted(family.names):
        raise SpecError(
            "partition must use every family entry exactly once; got "
            f"{used} for entries {list(family.names)}"
        )
    total = sum(cp.degree for cp in partition)
    if total != family.r:
        raise SpecError(
            f"partition degrees sum to {total}, expected r = {family.r}"
        )


def casimir_function(family: FunctionFamily, cp: CasimirPolynomial
                     ) -> RationalFunction:
    """F^i(lambda) as a rational function over the family's table."""
    table = family.table
    if cp.degree > 0 and table.pencil_index is None:
        raise SpecError(
            "the table declares no pencil parameter but the partition "
            "has positive degree"
        )
    total = RationalFunction.zero(table)
    if table.pencil_index is not None:
        lam = RationalFunction.variable(
            table, table.names[table.pencil_index]
        )
    for j, name in enumerate(cp.names):
        piece = family.entry(name)
        power = cp.degree - j
        if power:
            piece = piece * lam**power
        total = total + piece
    return total


# --- distributions and annihilators ------------------------------------------


def _hamiltonian_fields(anchor, family: FunctionFamily, names) -> list:
    """Hamiltonian fields of family entries on the symplectic anchor the
    sigma pair lives on (the lifted one in odd dimension)."""
    lifted = anchor.lifted
    return [
        hamiltonian_vf(
            lifted.lambda_bi, migrate_ratfun(family.entry(name), lifted.table)
        )
        for name in names
    ]


def distribution(anchor, family: FunctionFamily, partition, which: int
                 ) -> list:
    """Generators of D_0 (which = 0, leading coefficients) or D_1
    (trailing); the odd case appends the Hamiltonian field of s."""
    pick = 0 if which == 0 else -1
    generators = _hamiltonian_fields(
        anchor, family, [cp.names[pick] for cp in partition]
    )
    if isinstance(anchor, CosymplecticAnchor):
        lifted = anchor.lifted
        ds = Form(lifted.table, 1, {(lifted.table.appended_index,): 1})
        generators.append(bivector_sharp(lifted.lambda_bi, ds))
    return generators


def annihilator_basis(generators: list):
    """Basis of the 1-forms annihilating every generator, by one exact
    nullspace computation with deterministic pivoting."""
    table = generators[0].table
    geo = table.geometric_indices
    zero = RationalFunction.zero(table)
    rows = [
        [X.comps.get((i,), zero) for i in geo] for X in generators
    ]
    kernel = nullspace(rows, table, len(geo))
    rank = len(geo) - len(kernel)
    if rank != len(generators):
        raise RankDrop(f"{len(generators)} generators span only rank {rank}")
    basis = []
    for vec in kernel:
        comps = {
            (geo[pos],): v for pos, v in enumerate(vec) if not v.is_zero()
        }
        basis.append(Form(table, 1, comps))
    return basis


# --- the sigma pair -----------------------------------------------------------


class SigmaPair:
    """The two constrained 2-forms; primed lifts in the odd case."""

    __slots__ = ("sigma0", "sigma1")

    def __init__(self, sigma0: Form, sigma1: Form):
        sigma0.table.require_same(sigma1.table)
        if sigma0.degree != 2 or sigma1.degree != 2:
            raise DegreeError("a sigma pair holds 2-forms")
        for name, form in (("sigma0", sigma0), ("sigma1", sigma1)):
            form.table.require_pencil_free(form.comps.values(), name)
        self.sigma0 = sigma0
        self.sigma1 = sigma1


def sigma_pair_invariants(anchor, family: FunctionFamily, partition,
                          pair: SigmaPair, seed: int = 0) -> list:
    """sigma_j annihilates D_j; both forms have rank 2r at a sample."""
    verdicts = []
    sigmas = (pair.sigma0, pair.sigma1)
    for j in (0, 1):
        generators = distribution(anchor, family, partition, j)
        for g, X in enumerate(generators):
            verdicts.append(vanishes(
                f"sigma{j} annihilates generator {g} of D{j}",
                interior(X, sigmas[j]),
            ))
    table = pair.sigma0.table
    rng = Random(seed)
    for j in (0, 1):
        best, _ = sampled_rank(full_matrix(sigmas[j]), table, rng,
                               2 * family.r, skew=True)
        verdicts.append(Verdict(
            f"sigma{j} has rank {2 * family.r} at a sampled point",
            best == 2 * family.r,
            f"best sampled rank {best}",
        ))
    return verdicts


def check_sigma_conditions(Pi0: MultiVector, Pi1: MultiVector) -> list:
    """The three codifferential identities of the sigma pair, up to and
    including the first that fails, as brackets of the lifted bivectors
    Pi_i' = sharp(sigma_i): on a Poisson symplectic anchor (d omega = 0,
    as the spec reader requires) sharp is injective and takes R(a, b) =
    delta(a^b) - delta(a)^b - a^delta(b) to -[sharp a, sharp b] (Koszul
    1985; Kosmann-Schwarzbach & Magri 1990).  The labels keep the
    codifferential form the CLI has always printed.  A failing verdict
    carries the bracket; failures are data, never exceptions."""
    verdicts = []
    for label, a, b in (
        ("delta(sigma0^sigma0) = 2 sigma0^delta(sigma0)", Pi0, Pi0),
        ("delta(sigma1^sigma1) = 2 sigma1^delta(sigma1)", Pi1, Pi1),
        ("delta(sigma0^sigma1) = delta(sigma0)^sigma1"
         " + sigma0^delta(sigma1)", Pi0, Pi1),
    ):
        verdicts.append(vanishes(label, schouten(a, b)))
        if not verdicts[-1].passed:
            break
    return verdicts


def check_recursion(anchor, pair: SigmaPair, family: FunctionFamily,
                    partition) -> list:
    """sigma0(X_{f^i_j}, .) = sigma1(X_{f^i_{j-1}}, .) for 1 <= j <= r_i."""
    verdicts = []
    for cp in partition:
        fields = _hamiltonian_fields(anchor, family, cp.names)
        for j in range(1, cp.degree + 1):
            verdicts.append(vanishes(
                f"sigma0(X_{cp.names[j]}, .) = sigma1(X_{cp.names[j - 1]}, .)",
                interior(fields[j], pair.sigma0)
                - interior(fields[j - 1], pair.sigma1),
            ))
    return verdicts


# --- the ansatz solver --------------------------------------------------------


def unknown_name(a: int, b: int) -> str:
    if a < 10 and b < 10:
        return f"k{a}{b}"
    return f"k{a}_{b}"


class AnsatzSolution(Record):
    """General solution sigma1 = sum k_ab basis_a ^ basis_b, expressed over
    the table extended by one symbolic constant per free unknown."""

    __slots__ = _fields = ("base_table", "table", "pairs", "expressions",
                           "free_names", "sigma1")

    def substitution(self, mapping) -> dict:
        """Values for free unknowns or constants, expression strings parsed
        over ``base_table`` (so no value names a free unknown); raises
        SpecError on any other name, and on a value that involves the
        pencil parameter."""
        values = {}
        for name, value in mapping.items():
            if name not in self.free_names and (
                name not in self.table.names
                or self.table.kind_of(name) is not VarKind.CONSTANT
            ):
                raise SpecError(
                    f"{name!r} is neither a free unknown nor a constant"
                )
            if isinstance(value, str):
                value = migrate_ratfun(
                    parse_ratfun(value, self.base_table), self.table
                )
            if not isinstance(value, (int, Fraction)):
                self.table.require_pencil_free([value], "expression")
            values[name] = value
        return values

    def _assignment(self, mapping) -> dict:
        """``substitution`` of a mapping that assigns every free unknown."""
        values = self.substitution(mapping)
        missing = [name for name in self.free_names if name not in values]
        if missing:
            raise SpecError(
                f"free unknowns left unassigned: {', '.join(missing)}"
            )
        return values

    def specialize(self, mapping) -> Form:
        """Substitute values for all free unknowns (and, if desired, for
        constants of the table) and push the resulting 2-form back to the
        original table."""
        values = self._assignment(mapping)
        comps = {}
        for idx, c in self.sigma1.comps.items():
            comps[idx] = migrate_ratfun(
                c.substitute(values), self.base_table
            )
        return Form(self.base_table, 2, comps)

    def values_at(self, mapping) -> dict:
        """The coefficient of each basis pair after the same substitution,
        pushed back to the original table; keys are the unknown names."""
        values = self._assignment(mapping)
        out = {}
        for a, b in self.pairs:
            name = unknown_name(a, b)
            out[name] = migrate_ratfun(
                self.expressions[name].substitute(values), self.base_table
            )
        return out

    def render(self) -> str:
        lines = []
        for a, b in self.pairs:
            name = unknown_name(a, b)
            expr = self.expressions[name]
            tag = " (free)" if name in self.free_names else ""
            lines.append(f"{name} = {expr.render()}{tag}")
        return "\n".join(lines)


def solve_recursion_ansatz(anchor, sigma0: Form, basis, family: FunctionFamily,
                           partition) -> AnsatzSolution:
    """Solve the recursion relations for sigma1 = sum k_ab basis_a^basis_b.

    The relations are linear in the unknowns; the exact general solution is
    particular + kernel with free unknowns left symbolic (adjoined to the
    table as inert constants, named k12, k13, ... in basis order)."""
    table = sigma0.table
    table.require_pencil_free(sigma0.comps.values(), "sigma0")
    for pos, covector in enumerate(basis, start=1):
        table.require_pencil_free(covector.comps.values(),
                                  f"basis covector {pos}")
    m = len(basis)
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    wedges = [wedge(basis[a - 1], basis[b - 1]) for a, b in pairs]
    geo = table.geometric_indices
    zero = RationalFunction.zero(table)

    rows = []
    rhs = []
    for cp in partition:
        fields = _hamiltonian_fields(anchor, family, cp.names)
        for j in range(1, cp.degree + 1):
            lhs_form = interior(fields[j], sigma0)
            col_forms = [interior(fields[j - 1], w) for w in wedges]
            for i in geo:
                rows.append(
                    [cf.comps.get((i,), zero) for cf in col_forms]
                )
                rhs.append(lhs_form.comps.get((i,), zero))
    particular, kernel, free = solve_linear(rows, rhs, table)

    ext = table
    free_names = []
    for col in free:
        name = unknown_name(*pairs[col])
        ext = ext.extend(name, VarKind.CONSTANT)
        free_names.append(name)
    expressions = {}
    for p, (a, b) in enumerate(pairs):
        expr = migrate_ratfun(particular[p], ext)
        for vec, col in zip(kernel, free):
            term = migrate_ratfun(vec[p], ext) * RationalFunction.variable(
                ext, unknown_name(*pairs[col])
            )
            expr = expr + term
        expressions[unknown_name(a, b)] = expr
    sigma1 = Form.zero(ext, 2)
    for p, w in enumerate(wedges):
        coeff = expressions[unknown_name(*pairs[p])]
        if not coeff.is_zero():
            sigma1 = sigma1 + migrate_alternating(w, ext) * coeff
    return AnsatzSolution(table, ext, pairs, expressions, free_names, sigma1)


# --- the pencil ----------------------------------------------------------------


class Pencil(Frozen):
    """The assembled pair of bivectors with its lambda-data, together with
    the anchor, family and partition it was assembled for.

    ``assemble_pencil`` also records the components of the ``Pi0`` and
    ``Pi1`` whose brackets [Pi0,Pi0], [Pi1,Pi1] and [Pi0,Pi1] it proved
    zero, as copies of their ``comps``.  A pencil built through this
    constructor, a copy included, carries no record, and an edit of
    ``Pi0.comps`` or ``Pi1.comps`` in place voids it (``brackets_proved``).
    As a Frozen value it cannot have Pi0 or Pi1 reassigned.  On an odd
    anchor the proof covers the reduced bivectors too, since
    ``reduce_bivector`` refuses any Ds leg and any s-dependence.  The
    lifted bivectors are not kept: take ``sharp(anchor.lifted, sigma_i)``."""

    __slots__ = (
        "anchor", "family", "partition", "Pi0", "Pi1", "sigma_lambda",
        "g_lambda", "F_lambda", "F_functions", "_proved",
    )
    _fields = __slots__[:-1]
    __hash__ = None  # its bivectors are unhashable

    def __init__(self, anchor, family, partition, Pi0, Pi1, sigma_lambda,
                 g_lambda, F_lambda, F_functions):
        for name, value in zip(self._fields, (
            anchor, family, list(partition), Pi0, Pi1, sigma_lambda,
            g_lambda, F_lambda, list(F_functions),
        )):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_proved", None)

    def brackets_proved(self) -> bool:
        """Whether assembly proved the three brackets of Pi0 and Pi1 zero
        for the components these bivectors hold now."""
        return self._proved == (self.Pi0.comps, self.Pi1.comps)

    @property
    def table(self) -> VarTable:
        return self.anchor.table

    @property
    def r(self) -> int:
        return self.family.r

    @property
    def k(self) -> int:
        return self.family.k

    @property
    def pencil_name(self) -> str:
        return self.table.names[self.table.pencil_index]

    def pi_lambda(self) -> MultiVector:
        lam = RationalFunction.variable(self.table, self.pencil_name)
        return self.Pi1 - self.Pi0 * lam


def compute_F_lambda(anchor, functions, r: int) -> RationalFunction:
    """F(lambda) = <dF^1^...^dF^k, Lambda^l/l!> (even anchor) or
    <..., E^Lambda^l/l!> (odd) for the Casimir polynomials F^i; degree
    exactly r in lambda with nonzero leading and trailing coefficients,
    read off its exact coefficients.  The table declares a pencil
    parameter, as assemble_pencil has checked."""
    k = len(functions)
    odd = isinstance(anchor, CosymplecticAnchor)
    if k % 2 != odd:
        parity = "odd" if odd else "even"
        raise DegreeError(
            f"an {parity} anchor pairs with an {parity} number of Casimir "
            f"polynomials, got {k}"
        )
    l = k // 2
    against = divided_power(anchor.lambda_bi, l)
    if odd:
        against = wedge(anchor.reeb, against)

    table = anchor.table
    covector = Form.scalar(table, 1)
    for f in functions:
        covector = wedge(covector, differential(f, table))
    value = pairing(covector, against)

    # the coefficients of the F^i are free of lambda, and so is Lambda^l:
    # F(lambda) is a polynomial of degree at most r in lambda
    coeffs = coefficients_in(value, table.names[table.pencil_index])
    if r not in coeffs:
        raise DegenerateLeading(
            f"the lambda^{r} coefficient of F(lambda) vanishes identically"
        )
    if 0 not in coeffs:
        raise DegenerateTrailing(
            "the constant coefficient of F(lambda) vanishes identically"
        )
    return value


def _require(title: str, verdicts) -> None:
    """Raise ConditionFailed on the first failed verdict of a group."""
    failed = next((v for v in verdicts if not v.passed), None)
    if failed is not None:
        raise ConditionFailed(f"{title}: {failed.label} does not hold")


def assemble_pencil(anchor, pair: SigmaPair, family: FunctionFamily,
                    partition, seed: int = 0) -> Pencil:
    """Build (Pi0, Pi1, sigma_lambda, g_lambda, F_lambda) after verifying
    every precondition; the first failed condition aborts assembly."""
    table = anchor.table
    if table.pencil_index is None:
        raise SpecError("the table declares no pencil parameter")
    check_partition(family, partition)
    _require("sigma pair invariants",
             sigma_pair_invariants(anchor, family, partition, pair, seed))
    lifted = anchor.lifted
    Pi0, Pi1 = sharp(lifted, pair.sigma0), sharp(lifted, pair.sigma1)
    _require("sigma conditions", check_sigma_conditions(Pi0, Pi1))
    _require("recursion relations",
             check_recursion(anchor, pair, family, partition))

    lam = RationalFunction.variable(
        lifted.table, table.names[table.pencil_index]
    )
    sigma_lambda = pair.sigma1 - pair.sigma0 * lam
    if isinstance(anchor, CosymplecticAnchor):
        Pi0, Pi1 = reduce_bivector(Pi0, table), reduce_bivector(Pi1, table)
        sigma_part, _ = decompose_prime(sigma_lambda)
        sigma_lambda = migrate_alternating(sigma_part, table)

    g_lambda = -pairing(sigma_lambda, anchor.lambda_bi)
    F_functions = [casimir_function(family, cp) for cp in partition]
    F_lambda = compute_F_lambda(anchor, F_functions, family.r)
    pencil = Pencil(anchor, family, partition, Pi0, Pi1, sigma_lambda,
                    g_lambda, F_lambda, F_functions)
    # the sigma conditions proved the three brackets of Pi0' and Pi1'
    # zero.  On an odd anchor that proof carries over to the reduced
    # bivectors: reduce_bivector refuses any Ds leg and any s-dependence,
    # so each bracket of the reduced pair is the lifted one with s dropped
    object.__setattr__(pencil, "_proved", (dict(Pi0.comps), dict(Pi1.comps)))
    return pencil


# --- closed-form brackets -------------------------------------------------------


def closed_form_interior(pencil: Pencil) -> Form:
    """Phi_lambda = -(1/F) (sigma_lambda + g_lambda/(r-1) w) ^ w^{r-2}/(r-2)!
    ^ dF^1 ^ ... ^ dF^k, with w the anchor 2-form (Theta when odd)."""
    if pencil.r < 2:
        raise RankTooSmall(
            f"the closed formula needs r >= 2, got r = {pencil.r}"
        )
    anchor = pencil.anchor
    table = pencil.table
    reference = (anchor.theta if isinstance(anchor, CosymplecticAnchor)
                 else anchor.omega)
    r = pencil.r
    core = pencil.sigma_lambda + reference * (
        pencil.g_lambda * Fraction(1, r - 1)
    )
    phi = wedge(core, divided_power(reference, r - 2))
    for f in pencil.F_functions:
        phi = wedge(phi, differential(f, table))
    # F divides each component on every bundled spec: one exact division
    # each, and the general quotient only where it does not divide
    minus_F = -pencil.F_lambda
    return Form(table, phi.degree, {
        idx: quotient_by_factor(c, minus_F) for idx, c in phi.comps.items()
    })


def volume_coefficient(volume: Form) -> RationalFunction:
    """The one component of a nonzero top form."""
    top = tuple(volume.table.geometric_indices)
    if volume.degree != len(top) or volume.is_zero():
        raise DegenerateVolume("volume form is not a nonzero top form")
    return volume.coefficient(top)


def closed_form_bivector(pencil: Pencil) -> MultiVector:
    """The bivector of coordinate brackets {x_a, x_b} = dx_a^dx_b^Phi_lambda
    / Omega, read off Phi_lambda: with a and b at positions p < q among
    the coordinates, dx_a^dx_b^Phi_lambda is (-1)^(p + q - 1) times the
    component of Phi_lambda on the other coordinates, times the top basis
    form.  On a correctly assembled pencil it is Pi_lambda."""
    geo = pencil.table.geometric_indices
    phi = closed_form_interior(pencil)
    volume = volume_coefficient(pencil.anchor.volume)
    comps = {}
    for (p, a), (q, b) in combinations(enumerate(geo), 2):
        rest = tuple(i for i in geo if i != a and i != b)
        c = phi.coefficient(rest) / volume
        comps[(a, b)] = c if (p + q) % 2 else -c
    return MultiVector(pencil.table, 2, comps)


def bracket_closed_form(pencil: Pencil, f, h) -> RationalFunction:
    """{f,h}(lambda) = df^dh^Phi_lambda / Omega, the bracket of f and h
    under ``closed_form_bivector``.  On a correctly assembled pencil it is
    the contraction Pi_lambda(df, dh), a polynomial in lambda; its callers
    compare the two, so a lambda left in the denominator shows as a
    mismatch with a witness."""
    return poisson_bracket(closed_form_bivector(pencil), f, h)


def jacobian_bracket(functions, prefactor, volume: Form, g, h
                     ) -> RationalFunction:
    """{g,h} Omega = prefactor dg^dh^dC_1^...^dC_m on a table with
    dim = m + 2."""
    table = volume.table
    if len(functions) + 2 != table.dim:
        raise DimensionMismatch(
            f"{len(functions)} Casimirs on a {table.dim}-dimensional "
            "table; need dim - 2"
        )
    g = as_ratfun(table, g)
    h = as_ratfun(table, h)
    prefactor = as_ratfun(table, prefactor)
    numerator = wedge(differential(g, table), differential(h, table))
    for c in functions:
        numerator = wedge(numerator, differential(as_ratfun(table, c), table))
    top = numerator.coefficient(table.geometric_indices)
    return top * prefactor / volume_coefficient(volume)
