"""Shared generators and reusable property suites for the test modules.

Everything here is deterministic: every generator takes an explicit
``random.Random`` instance and the suites build their own seeded ones, so
a failing case can be replayed by seed alone.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from random import Random

import involution_forge
from involution_forge import (
    DivisionByZero,
    ForbiddenVariable,
    Form,
    MultiVector,
    NegativeExponent,
    ParseError,
    Polynomial,
    RationalFunction,
    VarTable,
    build_symplectic,
    closed_form_interior,
    codifferential,
    differential,
    exterior_derivative,
    interior,
    jacobian_bracket,
    pairing,
    parse_ratfun,
    poisson_bracket,
    sample_point,
    schouten,
    sharp,
    wedge,
)
from involution_forge.exterior import _merge_sign, accumulate
from involution_forge.linalg import RANK_DRAWS
from involution_forge.symexpr import FIELD_BITS, _tokenize, as_ratfun

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark(name: str):
    """Import ``benchmarks/<name>.py`` (only read) as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # run.py declares dataclasses
    spec.loader.exec_module(module)
    return module


def fresh_cli(args, code=None, flags=()):
    """A fresh interpreter running ``python flags -m involution_forge args``,
    or ``python flags -c code args``, with stdout and stderr on pipes, as
    bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    head = ["-m", "involution_forge"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *flags, *head, *args], env=env,
                          capture_output=True, timeout=120)


def load_spec(name: str):
    """The parsed spec of a bundled fixture or of a committed benchmark
    spec (``benchmarks/specs/<name>.json``, only read)."""
    from involution_forge.cli import load_payload, parse_spec
    from involution_forge.fixtures import FIXTURE_NAMES, load_fixture
    if name in FIXTURE_NAMES:
        return load_fixture(name).spec
    path = str(BENCHMARKS / "specs" / f"{name}.json")
    return parse_spec(load_payload(path), path=path)


# ---------------------------------------------------------------------------
# random generators


def random_polynomial(table: VarTable, rng: Random, terms: int = 3,
                      degree: int = 2, bound: int = 5) -> RationalFunction:
    """A random polynomial with small integer coefficients."""
    names = [table.names[i] for i in table.geometric_indices]
    total = RationalFunction.zero(table)
    for _ in range(terms):
        coeff = rng.randint(-bound, bound)
        if coeff == 0:
            continue
        mono = RationalFunction.constant(table, Fraction(coeff))
        for _ in range(rng.randint(0, degree)):
            mono = mono * parse_ratfun(rng.choice(names), table)
        total = total + mono
    return total


def random_nonzero_polynomial(table: VarTable, rng: Random, terms: int = 3,
                              degree: int = 2,
                              bound: int = 5) -> RationalFunction:
    while True:
        p = random_polynomial(table, rng, terms, degree, bound)
        if not p.is_zero():
            return p


def random_rational(table: VarTable, rng: Random) -> RationalFunction:
    num = random_polynomial(table, rng)
    den = random_nonzero_polynomial(table, rng, terms=2, degree=1, bound=3)
    return num / den


def random_alternating(table: VarTable, degree: int, rng: Random,
                       kind=Form, density: float = 0.6,
                       terms: int = 2):
    """A random form or multivector with polynomial coefficients."""
    geo = table.geometric_indices
    comps = {}
    for idx in itertools.combinations(geo, degree):
        if rng.random() > density:
            continue
        coeff = random_polynomial(table, rng, terms=terms, degree=1,
                                  bound=3)
        if not coeff.is_zero():
            comps[idx] = coeff
    return kind(table, degree, comps)


def random_form(table: VarTable, degree: int, rng: Random, **kw) -> Form:
    return random_alternating(table, degree, rng, kind=Form, **kw)


def random_multivector(table: VarTable, degree: int, rng: Random,
                       **kw) -> MultiVector:
    return random_alternating(table, degree, rng, kind=MultiVector, **kw)


def coordinate_jacobiator(Pi: MultiVector, i: int, j: int, k: int
                          ) -> RationalFunction:
    """Sum over cyclic permutations of {x_i, {x_j, x_k}}."""
    table = Pi.table
    coords = [parse_ratfun(table.names[m], table) for m in (i, j, k)]
    total = RationalFunction.zero(table)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = poisson_bracket(Pi, coords[b], coords[c])
        total = total + poisson_bracket(Pi, coords[a], inner)
    return total


def star(anchor, a: Form) -> Form:
    """Hodge star *a = interior(sharp(a), Omega) on a symplectic anchor;
    the engine computes the codifferential as the Koszul bracket
    [i_Lambda, d] without it, so *d* serves here as an independent oracle
    wherever d omega = 0."""
    return interior(sharp(anchor, a), anchor.volume)


def mat_mul(a: list, b: list) -> list:
    """Matrix product by the schoolbook sum; the oracle for ``det``,
    ``invert`` and ``solve_linear``, which never multiply matrices."""
    assert len(a[0]) == len(b), "inner dimensions differ"
    zero = a[0][0] - a[0][0]
    return [
        [sum((v * b[k][j] for k, v in enumerate(row) if v), zero)
         for j in range(len(b[0]))]
        for row in a
    ]


def mat_vec(a: list, v: list) -> list:
    return [entry for [entry] in mat_mul(a, [[x] for x in v])]


def flat(anchor, X: MultiVector) -> Form:
    """The inverse of sharp on vector fields, -i_X omega: the oracle of the
    sharp/flat round trip."""
    return -interior(X, anchor.omega)


# ---------------------------------------------------------------------------
# the field loop: Gauss-Jordan elimination dividing by each pivot, the
# oracle of the package's fraction-free loop.  RREF is unique, so both must
# give the same canonical fractions, pivots and errors


def _eliminate(rows: list):
    """Gauss-Jordan elimination over any exact field whose elements are
    falsy exactly at zero and support ``1 / v``, ``v * w``, ``v - w``,
    ``v * 0`` and ``v ** 0``.

    Returns (reduced, pivot_columns, pivot_values, sign), where the pivot
    values are the entries divided out, in order, and sign is the parity
    of the row swaps."""
    work = [list(row) for row in rows]
    m, n = len(work), len(work[0]) if work else 0
    pivots, values, sign = [], [], 1
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if work[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        # rows are zero left of col from r down, so only columns col on
        # change; zero entries are never multiplied out
        pivot, rest = work[r][col], work[r][col + 1:]
        inv = 1 / pivot
        rest = [v * inv if v else v for v in rest]
        work[r][col:] = [pivot ** 0] + rest
        for i in range(m):
            factor = work[i][col]
            if i == r or not factor:
                continue
            work[i][col:] = [factor * 0] + [
                a - factor * b if b else a
                for a, b in zip(work[i][col + 1:], rest)
            ]
        pivots.append(col)
        values.append(pivot)
        r += 1
    return work, pivots, values, sign


def field_rref(rows: list):
    """(reduced, pivot_columns) by the field loop, as ``linalg.rref``
    returns them."""
    return _eliminate(rows)[:2]


def field_det(rows: list, table: VarTable) -> RationalFunction:
    """The determinant as the signed product of the field loop's pivots."""
    _, pivots, values, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return RationalFunction.zero(table)
    result = prod(values, start=RationalFunction.one(table))
    return result if sign > 0 else -result


# ---------------------------------------------------------------------------
# sums of products, one product at a time: each product reduced by
# RationalFunction ``*`` and added by ``+``, the oracle for the grouped sums
# of ``wedge``, ``interior``, ``pairing`` and ``bivector_sharp``


def _one_at_a_time(kind, table: VarTable, degree: int, pieces):
    """kind(table, degree, ...) from (index, sign, left, right) pieces."""
    comps: dict = {}
    for idx, sign, left, right in pieces:
        value = left * right
        accumulate(comps, idx, value if sign > 0 else -value)
    return kind(table, degree, comps)


def oracle_wedge(a, b):
    pieces = [(tuple(sorted(l + r)), _merge_sign(l, r), cl, cr)
              for l, cl in a.comps.items() for r, cr in b.comps.items()
              if not set(l) & set(r)]
    return _one_at_a_time(type(a), a.table, a.degree + b.degree, pieces)


def oracle_interior(P: MultiVector, a: Form) -> Form:
    pieces = []
    for J, w in P.comps.items():
        for I, c in a.comps.items():
            if set(J) <= set(I):
                K = tuple(i for i in I if i not in J)
                pieces.append((K, _merge_sign(J, K), w, c))
    return _one_at_a_time(Form, a.table, a.degree - P.degree, pieces)


def oracle_pairing(a: Form, P: MultiVector) -> RationalFunction:
    total = RationalFunction.zero(a.table)
    for idx, c in a.comps.items():
        if idx in P.comps:
            total = total + c * P.comps[idx]
    return total


def oracle_bivector_sharp(Pi: MultiVector, alpha: Form) -> MultiVector:
    pieces = []
    for (i, j), w in Pi.comps.items():
        if (i,) in alpha.comps:
            pieces.append(((j,), 1, w, alpha.comps[(i,)]))
        if (j,) in alpha.comps:
            pieces.append(((i,), -1, w, alpha.comps[(j,)]))
    return _one_at_a_time(MultiVector, Pi.table, 1, pieces)


def oracle_schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """[P, Q] for degrees (1, q) and (2, 2) by the coordinate formula in
    the odd generators, one l at a time, each term a wedge of whole
    multivectors:

        [P, Q] = eps * sum_l (P <d/dD_l) ^ dQ/dx_l - dP/dx_l ^ (d>/dD_l Q)

    with eps = +1 for p = 1 and -1 for (2, 2), and no second sum for
    q = 0: the oracle for ``schouten``,
    which sums every product of a result component at once."""
    total = MultiVector.zero(P.table, P.degree + Q.degree - 1)
    for l in P.table.geometric_indices:
        total = total + wedge(_odd_derivative(P, l, from_left=False),
                              _partial(Q, l))
        if Q.degree:
            total = total - wedge(_partial(P, l),
                                  _odd_derivative(Q, l, from_left=True))
    return total if P.degree == 1 else -total


def _odd_derivative(P: MultiVector, l: int, from_left: bool) -> MultiVector:
    """P differentiated in D_l from the left or from the right."""
    comps = {}
    for idx, c in P.comps.items():
        if l in idx:
            m = idx.index(l)
            flips = m if from_left else len(idx) - 1 - m
            comps[idx[:m] + idx[m + 1:]] = -c if flips & 1 else c
    return MultiVector(P.table, P.degree - 1, comps)


def _partial(P: MultiVector, l: int) -> MultiVector:
    """P with each component differentiated along x_l."""
    return MultiVector(P.table, P.degree,
                       {idx: c.derivative(l) for idx, c in P.comps.items()})


def oracle_sharp_extend(Pi: MultiVector, a: Form) -> MultiVector:
    """The degree-p extension of Pi# as scalar ^ wedge ^ ... ^ wedge of the
    images X_i = Pi#(dx_i), one component of a at a time, added by ``+``:
    the oracle for ``anchor._sharp_extend``, which sums the products of
    each result component at once (and which ``bivector_sharp`` is on a
    1-form, so the images here come from ``oracle_bivector_sharp``)."""
    table = a.table
    out = MultiVector.zero(table, a.degree)
    for idx, c in a.comps.items():
        piece = MultiVector.scalar(table, c)
        for i in idx:
            piece = wedge(piece, oracle_bivector_sharp(
                Pi, Form(table, 1, {(i,): 1})))
        out = out + piece
    return out


def oracle_bracket_closed_form(pencil, f, h) -> RationalFunction:
    """{f,h}(lambda) as the top component of df^dh^Phi_lambda, wedged, over
    that of the volume form: the oracle for ``pencil.closed_form_bivector``,
    which reads each coordinate bracket off one component of Phi_lambda."""
    table = pencil.table
    top = wedge(differential(as_ratfun(table, f), table),
                wedge(differential(as_ratfun(table, h), table),
                      closed_form_interior(pencil)))
    geo = table.geometric_indices
    return top.coefficient(geo) / pencil.anchor.volume.coefficient(geo)


def reference_sampled_rank(rows: list, table: VarTable, rng, target=None,
                           avoid=(), skew=False):
    """``linalg.sampled_rank`` evaluating at every draw, also once the rank
    is already the largest the shape allows, and ranking by the field
    loop: the oracle for the draws the package skips."""
    cells = [(i, j) for i, row in enumerate(rows)
             for j in range(i + 1 if skew else 0, len(row)) if row[j]]
    guards = [rows[i][j].den for i, j in cells
              if not rows[i][j].den.is_constant()]
    guards.extend(avoid)
    best, best_point = -1, None
    for _ in range(RANK_DRAWS):
        point = sample_point(table, guards, rng)
        values = [[0] * len(row) for row in rows]
        for i, j in cells:
            values[i][j] = value = rows[i][j].evaluate(point)
            if skew:
                values[j][i] = -value
        rank = len(_eliminate(values)[1])
        if rank > best:
            best, best_point = rank, point
        if best == target:
            break
    return best, best_point


# ---------------------------------------------------------------------------
# the expression grammar with a RationalFunction per token: the oracle for
# ``parse_ratfun``, which computes with polynomials until a '/'.  It keeps
# the grammar and the DivisionByZero check but none of the parser's
# bounds, so it is for admissible expressions only


class _OracleParser:
    """expr := ['-'] term (('+'|'-') term)*, term := factor (('*'|'/')
    factor)*, factor := base ('^' uint)?, base := uint | ident | '(' expr ')';
    every value a RationalFunction, every sum folded term by term."""

    def __init__(self, text: str, table: VarTable):
        self.tokens = _tokenize(text)
        self.table = table
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, op=None):
        kind, value, pos = self.tokens[self.i]
        if op is not None and (kind, value) != ("op", op):
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1
        return kind, value, pos

    def expr(self):
        negate = self.peek()[:2] == ("op", "-")
        if negate:
            self.take()
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, _ = self.take()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, pos = self.take()
            rhs = self.factor()
            if op == "*":
                acc = acc * rhs
            elif rhs.is_zero():
                raise DivisionByZero(f"division by zero at position {pos}")
            else:
                acc = acc / rhs
        return acc

    def factor(self):
        base = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, value, pos = self.take()
            if kind != "num":
                raise ParseError("expected an unsigned integer exponent", pos)
            base = base**value
        return base

    def base(self):
        kind, value, pos = self.take()
        if kind == "num":
            return RationalFunction.constant(self.table, value)
        if kind == "ident":
            return RationalFunction.variable(self.table, value)
        if (kind, value) == ("op", "("):
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected {value!r}", pos)


def oracle_parse(text: str, table: VarTable) -> RationalFunction:
    """``text`` parsed with a RationalFunction for every token."""
    parser = _OracleParser(text, table)
    value = parser.expr()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {tok!r}", pos)
    return value


def random_expression(rng: Random, names, depth: int = 0) -> str:
    """A random expression of the parser's grammar over ``names``: nested
    sums, products, quotients and powers of small integers and names."""
    pick = rng.random() if depth < 4 else 0.0
    if pick < 0.3:
        return (str(rng.randint(0, 9)) if rng.random() < 0.3
                else rng.choice(names))
    if pick < 0.45:
        inner = random_expression(rng, names, depth + 1)
        return f"({inner})^{rng.randint(0, 3)}"
    if pick < 0.6:
        return f"(-{random_expression(rng, names, depth + 1)})"
    ops = "+-" if pick < 0.8 else "*/"
    parts = [random_expression(rng, names, depth + 1)
             for _ in range(rng.randint(2, 4))]
    text = parts[0]
    for part in parts[1:]:
        text += f" {rng.choice(ops)} {part}"
    return f"({text})"


# ---------------------------------------------------------------------------
# the kernel polynomial as exponent tuples, and the tuple/Fraction oracle


def poly_from_terms(table: VarTable, terms: dict) -> Polynomial:
    """The kernel polynomial with the given {exponent tuple: coefficient}."""
    total = Polynomial.zero(table)
    for e, c in terms.items():
        total = total + Polynomial.monomial(table, e, c)
    return total


def exponent_terms(p: Polynomial) -> dict:
    """{exponent tuple: Fraction} of a kernel polynomial, decoded from the
    documented layout: the i-th of n exponents fills the FIELD_BITS-bit
    field at bit FIELD_BITS*(n-1-i), over the common denominator ``den``."""
    n = p.table.size
    mask = (1 << FIELD_BITS) - 1
    return {
        tuple(m >> FIELD_BITS * (n - 1 - i) & mask for i in range(n)):
            Fraction(c, p.den)
        for m, c in p.terms.items()
    }


class TuplePolynomial:
    """Sparse polynomial as {exponent tuple: Fraction}: the layout the
    kernel used before packed monomials, kept as the differential oracle."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: dict):
        self.table = table
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self):
        e = max(self.terms)
        return e, self.terms[e]

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TuplePolynomial(self.table, terms)

    def __neg__(self):
        return TuplePolynomial(
            self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TuplePolynomial(
                self.table, {e: c * other for e, c in self.terms.items()})
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
        return TuplePolynomial(self.table, terms)

    def __pow__(self, n: int):
        if n < 0:
            raise NegativeExponent(f"negative exponent {n}")
        result = TuplePolynomial(self.table, {(0,) * self.table.size: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self.table == other.table and self.terms == other.terms

    def derivative(self, index: int) -> "TuplePolynomial":
        kind = self.table.kinds[index]
        if not kind.geometric:
            raise ForbiddenVariable(f"cannot differentiate along {kind.value}")
        terms = {}
        for e, c in self.terms.items():
            if e[index]:
                new = list(e)
                new[index] -= 1
                terms[tuple(new)] = c * e[index]
        return TuplePolynomial(self.table, terms)

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            for value, p in zip(point.values, e):
                c *= value**p
            total += c
        return total

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.table.names, e) if p)
            mag = abs(c)
            text = str(mag.numerator) if mag.denominator == 1 else str(mag)
            body = text if not mono else mono if mag == 1 else f"{text}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        return out + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def tuple_exact_div(p: TuplePolynomial, q: TuplePolynomial) -> TuplePolynomial:
    """Exact quotient by leading terms over Q."""
    quot = TuplePolynomial(p.table, {})
    rem = p
    eq, cq = q.leading()
    while not rem.is_zero():
        er, cr = rem.leading()
        diff = tuple(a - b for a, b in zip(er, eq))
        if min(diff) < 0:
            raise DivisionByZero("polynomial division is not exact")
        t = TuplePolynomial(p.table, {diff: cr / cq})
        quot, rem = quot + t, rem - t * q
    return quot


def tuple_migrate(p: TuplePolynomial, table: VarTable) -> TuplePolynomial:
    """Pad or cut the exponent tuples to a table that extends p's or that
    p's extends by trailing variables."""
    n = table.size
    if any(any(e[n:]) for e in p.terms):
        raise ForbiddenVariable("a term involves a dropped variable")
    return TuplePolynomial(table, {
        (e + (0,) * n)[:n]: c for e, c in p.terms.items()})


def sympy_gcd_terms(a: Polynomial, b: Polynomial) -> dict:
    """{exponent tuple: Fraction} of SymPy's monic gcd of a and b, under
    the same lex order (the first variable weighs most)."""
    import sympy

    gens = sympy.symbols(a.table.names)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in exponent_terms(p).items()}, *gens, domain="QQ")

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    if not g.is_zero:
        g = g.monic()
    return {e: Fraction(int(c.p), int(c.q)) for e, c in g.as_dict().items()
            if c}


# ---------------------------------------------------------------------------
# reusable property suites (shared by the unit modules and the acceptance
# gate, which re-runs them under a wall-clock budget)


def ring_field_suite(n: int = 200, seed: int = 11) -> None:
    """Commutative-ring axioms on polynomials and field axioms on
    quotients, on n random triples."""
    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "x3"])
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    for trial in range(n):
        a = random_polynomial(table, rng)
        b = random_polynomial(table, rng)
        c = random_polynomial(table, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()
        if trial % 4 == 0:
            q = random_rational(table, rng)
            r = random_rational(table, rng)
            assert (q + r) - r == q
            if not q.is_zero():
                assert q * (one / q) == one
            if not r.is_zero():
                assert (q / r) * r == q


def schwartz_zippel_suite(n: int = 40, seed: int = 23) -> None:
    """Structural equality must match evaluation: equal expressions agree
    at every sample point, distinct ones separate within a few draws."""
    from involution_forge import sample_point

    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "x3"])
    for _ in range(n):
        a = random_polynomial(table, rng)
        b = random_polynomial(table, rng)
        same_path = (a + b) * (a + b)
        expanded = a * a + a * b * Fraction(2) + b * b
        assert same_path == expanded
        for _ in range(3):
            point = sample_point(table, [], rng)
            assert same_path.evaluate(point) == expanded.evaluate(point)
        perturbed = expanded + RationalFunction.one(table)
        assert same_path != perturbed
        separated = False
        for _ in range(5):
            point = sample_point(table, [], rng)
            if same_path.evaluate(point) != perturbed.evaluate(point):
                separated = True
                break
        assert separated


def exterior_laws_suite(n: int = 30, seed: int = 37) -> None:
    """Graded wedge laws, d^2 = 0, and the graded Leibniz rule."""
    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    for _ in range(n):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        a = random_form(table, p, rng)
        b = random_form(table, q, rng)
        c = random_form(table, r, rng)
        b_other = random_form(table, q, rng)
        sign = Fraction((-1) ** (p * q))
        assert wedge(a, b) == wedge(b, a) * sign
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a, b + b_other) == wedge(a, b) + wedge(a, b_other)
        if p % 2 == 1:
            assert wedge(a, a).is_zero()
        assert exterior_derivative(exterior_derivative(a)).is_zero()
        da_b = wedge(exterior_derivative(a), b)
        a_db = wedge(a, exterior_derivative(b)) * sign_of(p)
        assert exterior_derivative(wedge(a, b)) == da_b + a_db


def sign_of(p: int) -> Fraction:
    return Fraction((-1) ** p)


def schouten_jacobiator_suite(n: int = 50, seed: int = 41) -> None:
    """[P,P] against the coordinate Jacobiators on random bivectors.

    For every coordinate triple the pairing of dx_i^dx_j^dx_k with the
    Schouten square equals -2 times the cyclic Jacobiator sum, and the
    square vanishes exactly when every Jacobiator does.
    """
    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "x3", "x4"])
    one = RationalFunction.one(table)
    x1 = parse_ratfun("x1", table)
    x2 = parse_ratfun("x2", table)
    x3 = parse_ratfun("x3", table)
    poisson_seen = 0
    non_poisson_seen = 0
    for trial in range(n):
        mode = trial % 5
        if mode in (0, 1):
            comps = {}
            for idx in itertools.combinations(range(4), 2):
                if rng.random() > 0.8:
                    continue
                coeff = random_polynomial(table, rng, terms=2, degree=2,
                                          bound=3)
                if not coeff.is_zero():
                    comps[idx] = coeff
            Pi = MultiVector(table, 2, comps)
        elif mode == 2:
            # canonical structure
            Pi = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
        elif mode == 3:
            if trial % 2 == 0:
                # rotation-algebra structure in the first three
                # coordinates: {x1,x2}=x3, {x2,x3}=x1, {x1,x3}=-x2
                Pi = MultiVector(table, 2, {(0, 1): x3, (1, 2): x1,
                                            (0, 2): -x2})
            else:
                # constant coefficients always satisfy Jacobi
                comps = {}
                for idx in itertools.combinations(range(4), 2):
                    c = rng.randint(-3, 3)
                    if c:
                        comps[idx] = RationalFunction.constant(
                            table, Fraction(c))
                Pi = MultiVector(table, 2, comps)
        else:
            # decomposable X_f ^ X_g with commuting hamiltonians
            lam = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
            f = x1 * x1 * Fraction(rng.randint(1, 3))
            g = x2 * Fraction(rng.randint(1, 3))
            anchor = build_symplectic(lam)
            Xf = sharp(anchor, differential(f, table))
            Xg = sharp(anchor, differential(g, table))
            Pi = wedge(Xf, Xg)
        square = schouten(Pi, Pi)
        all_zero = True
        for i, j, k in itertools.combinations(range(4), 3):
            jac = coordinate_jacobiator(Pi, i, j, k)
            probe = Form(table, 3, {(i, j, k): one})
            assert pairing(probe, square) == jac * Fraction(-2)
            if not jac.is_zero():
                all_zero = False
        assert square.is_zero() == all_zero
        if all_zero:
            poisson_seen += 1
        else:
            non_poisson_seen += 1
    assert poisson_seen >= 10
    assert non_poisson_seen >= 10


def sigma_equivalence_suite(n: int = 30, seed: int = 53) -> None:
    """sharp(sigma) satisfies Jacobi exactly when
    delta(sigma^sigma) = 2 sigma^delta(sigma), on random 2-forms in
    dimension four."""
    rng = Random(seed)
    table = VarTable.build(["x1", "x2", "y1", "y2"])
    one = RationalFunction.one(table)
    lam = MultiVector(table, 2, {(0, 2): one, (1, 3): one})
    anchor = build_symplectic(lam)
    jacobi_seen = 0
    broken_seen = 0
    for trial in range(n):
        mode = trial % 4
        if mode == 0:
            sigma = random_form(table, 2, rng)
        elif mode == 1:
            comps = {}
            for idx in itertools.combinations(range(4), 2):
                c = rng.randint(-3, 3)
                if c:
                    comps[idx] = RationalFunction.constant(
                        table, Fraction(c))
            sigma = Form(table, 2, comps)
        elif mode == 2:
            f = parse_ratfun("x1", table) ** 2 * Fraction(rng.randint(1, 3))
            g = parse_ratfun("x2", table) * Fraction(rng.randint(1, 3))
            sigma = wedge(differential(f, table),
                          differential(g, table))
        else:
            sigma = anchor.omega * Fraction(rng.randint(1, 4))
        P = sharp(anchor, sigma)
        jacobi_holds = schouten(P, P).is_zero()
        lhs = codifferential(anchor, wedge(sigma, sigma))
        rhs = wedge(sigma, codifferential(anchor, sigma)) * Fraction(2)
        identity_holds = (lhs - rhs).is_zero()
        assert jacobi_holds == identity_holds
        if jacobi_holds:
            jacobi_seen += 1
        else:
            broken_seen += 1
    assert jacobi_seen >= 10
    assert broken_seen >= 5


def jacobian_bracket_suite(n: int = 20, seed: int = 67) -> None:
    """Determinant brackets with a functional prefactor: antisymmetry,
    Leibniz, and the Jacobi identity on random instances."""
    rng = Random(seed)
    for trial in range(n):
        dim = 3 + trial % 3
        names = [f"x{i}" for i in range(1, dim + 1)]
        table = VarTable.build(names)
        one = RationalFunction.one(table)
        volume = Form(table, dim, {tuple(range(dim)): one})
        fixed = [random_polynomial(table, rng, terms=2, degree=1, bound=3)
                 for _ in range(dim - 2)]
        prefactor = random_nonzero_polynomial(table, rng, terms=2,
                                              degree=1, bound=2)
        g = random_polynomial(table, rng, terms=2, degree=2, bound=3)
        h = random_polynomial(table, rng, terms=2, degree=2, bound=3)
        m = random_polynomial(table, rng, terms=2, degree=2, bound=3)

        def bracket(u, v):
            return jacobian_bracket(fixed, prefactor, volume, u, v)

        assert bracket(g, h) == -bracket(h, g)
        assert bracket(g, h * m) == bracket(g, h) * m + h * bracket(g, m)
        cyclic = (bracket(g, bracket(h, m))
                  + bracket(h, bracket(m, g))
                  + bracket(m, bracket(g, h)))
        assert cyclic.is_zero()
