"""Exterior algebra of differential forms and multivector fields.

Components are stored sparsely on strictly increasing tuples of geometric
variable indices; coefficients are rational functions that may involve the
pencil parameter and symbolic constants, which never appear as indices.

Sign conventions (fixed once, everything downstream is calibrated to them):

* pairing of identically indexed basis elements is +1, extended as a
  determinant: pairing(a1^...^ap, X1^...^Xp) = det pairing(ai, Xj);
* interior is the left contraction filling the first slots of the form:
  interior(X1^...^Xq, a) = a(X1, ..., Xq, . , ..., .).

Powers are divided: ``divided_power(a, n)`` is a^n/n!, the one
normalization of every volume form and contraction downstream
(omega^n/n!, Theta^n/n!, Lambda^l/l!, omega^(r-2)/(r-2)!).

``wedge``, ``interior``, ``pairing`` and ``schouten`` collect the signed
products of each output component and reduce them once per pair of
denominators (``symexpr.sum_of_products``); ``exterior_derivative`` and
form sums add term by term (``accumulate``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from .errors import (
    DegreeError,
    DimensionMismatch,
    ForbiddenVariable,
    UnsupportedDegrees,
)
from .symexpr import (
    RationalFunction,
    VarTable,
    as_ratfun,
    over_common_denominator,
    quotient_by_factor,
    sum_of_products,
)


def accumulate(comps: dict, idx, value: RationalFunction) -> None:
    """Add ``value`` into the sparse component ``comps[idx]``; an entry
    that cancels is dropped, so ``comps`` never holds a zero."""
    if value.is_zero():
        return
    acc = comps.get(idx)
    total = value if acc is None else acc + value
    if total.is_zero():
        comps.pop(idx, None)
    else:
        comps[idx] = total


def _merge_sign(left: tuple, right: tuple):
    """Sign of the permutation sorting ``left + right`` (both increasing,
    assumed disjoint): parity of the inversion count."""
    inversions = 0
    for r in right:
        for l in left:
            if l > r:
                inversions += 1
    return -1 if inversions & 1 else 1


class _Alternating:
    """Common machinery of Form and MultiVector."""

    __slots__ = ("table", "degree", "comps")

    def __init__(self, table: VarTable, degree: int, comps: dict):
        if degree < 0:
            raise DegreeError("negative degree")
        geo = set(table.geometric_indices)
        clean = {}
        for idx, value in comps.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(
                    f"index tuple {idx} has length {len(idx)}, expected {degree}"
                )
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise DegreeError(f"indices {idx} are not strictly increasing")
            for i in idx:
                if i not in geo:
                    raise ForbiddenVariable(
                        f"variable {table.names[i]!r} cannot carry a differential"
                    )
            value = as_ratfun(table, value)
            if not value.is_zero():
                clean[idx] = value
        self.table = table
        self.degree = degree
        self.comps = clean

    @classmethod
    def zero(cls, table: VarTable, degree: int):
        return cls(table, degree, {})

    @classmethod
    def scalar(cls, table: VarTable, value):
        return cls(table, 0, {(): value})

    # --- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def coefficient(self, idx) -> RationalFunction:
        return self.comps.get(tuple(idx), RationalFunction.zero(self.table))

    def _like(self, degree: int, comps: dict):
        """Same kind and table, from components an operation built out of
        valid ones: zero components are dropped, nothing is re-checked."""
        out = object.__new__(type(self))
        out.table = self.table
        out.degree = degree
        out.comps = {idx: c for idx, c in comps.items() if c}
        return out

    def _check_mate(self, other):
        if type(other) is not type(self):
            raise DegreeError(
                f"cannot combine {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        self.table.require_same(other.table)

    # --- linear operations ---------------------------------------------

    def __add__(self, other):
        self._check_mate(other)
        if self.degree != other.degree:
            raise DegreeError(
                f"degree {self.degree} vs {other.degree} in a sum"
            )
        comps = dict(self.comps)
        for idx, value in other.comps.items():
            accumulate(comps, idx, value)
        return self._like(self.degree, comps)

    def __neg__(self):
        return self._like(
            self.degree, {idx: -value for idx, value in self.comps.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = as_ratfun(self.table, scalar)
        if scalar.is_zero():
            return self._like(self.degree, {})
        return self._like(
            self.degree,
            {idx: value * scalar for idx, value in self.comps.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.table == other.table
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"

    # --- display -----------------------------------------------------------

    def _basis_symbol(self, i: int) -> str:
        raise NotImplementedError

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for idx in sorted(self.comps):
            coeff = self.comps[idx].render()
            basis = "^".join(self._basis_symbol(i) for i in idx)
            if not basis:
                pieces.append(f"({coeff})")
            else:
                pieces.append(f"({coeff})*{basis}")
        return " + ".join(pieces)

    def to_records(self):
        """Serializable component list with 1-based geometric indices."""
        geo = self.table.geometric_indices
        back = {v: k + 1 for k, v in enumerate(geo)}
        return [
            {
                "indices": [back[i] for i in idx],
                "coeff": self.comps[idx].render(),
            }
            for idx in sorted(self.comps)
        ]


class Form(_Alternating):
    """Differential form of fixed degree."""

    def _basis_symbol(self, i: int) -> str:
        return f"d{self.table.names[i]}"


class MultiVector(_Alternating):
    """Alternating multivector field of fixed degree."""

    def _basis_symbol(self, i: int) -> str:
        return f"D{self.table.names[i]}"


def record_indices(table: VarTable, degree: int, indices) -> tuple:
    """The table indices of one record's 1-based geometric ``indices``:
    ``degree`` of them, in range and strictly increasing."""
    geo = table.geometric_indices
    if len(indices) != degree:
        raise DegreeError(f"expected {degree} indices, got {len(indices)}")
    if any(not 1 <= i <= len(geo) for i in indices):
        raise DimensionMismatch(f"indices must lie in 1..{len(geo)}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DegreeError("indices must be strictly increasing")
    return tuple(geo[i - 1] for i in indices)


def from_records(table: VarTable, degree: int, records, kind=Form):
    """Inverse of ``to_records`` (indices as ``record_indices`` takes
    them); a coefficient is anything ``as_ratfun`` takes."""
    comps: dict = {}
    for rec in records:
        idx = record_indices(table, degree, rec["indices"])
        coeff = as_ratfun(table, rec["coeff"])
        prev = comps.get(idx)
        comps[idx] = coeff if prev is None else prev + coeff
    return kind(table, degree, comps)


# --- multiplicative structure ------------------------------------------------


def wedge(a, b):
    """Graded-commutative exterior product of two like objects.  The square
    of a degree-2 object takes each unordered pair of components once and
    doubles it: degree-2 components commute, and a component wedged with
    itself vanishes."""
    a._check_mate(b)
    if b is a and a.degree == 2:
        factor, pairs = 2, combinations(a.comps.items(), 2)
    else:
        factor, pairs = 1, product(a.comps.items(), b.comps.items())
    products: dict = {}
    for (left, cl), (right, cr) in pairs:
        if not set(left).isdisjoint(right):
            continue
        products.setdefault(tuple(sorted(left + right)), []).append(
            (factor * _merge_sign(left, right), cl, cr))
    return a._like(a.degree + b.degree, {
        idx: sum_of_products(a.table, terms)
        for idx, terms in products.items()
    })


def divided_power(a, n: int):
    """a^n/n!, the normalization of every volume and contraction."""
    out = type(a).scalar(a.table, 1)
    for _ in range(n):
        out = wedge(out, a)
    return out * Fraction(1, factorial(n))


def exterior_derivative(a: Form) -> Form:
    """d, with the pencil parameter and constants held inert."""
    if not isinstance(a, Form):
        raise DegreeError("exterior derivative acts on forms")
    comps: dict = {}
    for idx, coeff in a.comps.items():
        iset = set(idx)
        for v in a.table.geometric_indices:
            if v in iset:
                continue
            dc = coeff.derivative(v)
            if dc.is_zero():
                continue
            sign = _merge_sign((v,), idx)
            key = tuple(sorted((v,) + idx))
            accumulate(comps, key, dc if sign > 0 else -dc)
    return a._like(a.degree + 1, comps)


def differential(f, table: VarTable = None) -> Form:
    """df for a scalar (RationalFunction or Polynomial)."""
    if table is None:
        table = f.table
    return exterior_derivative(Form.scalar(table, f))


def interior(P: MultiVector, a: Form) -> Form:
    """Left contraction of a multivector into a form (first slots)."""
    if not isinstance(P, MultiVector) or not isinstance(a, Form):
        raise DegreeError("interior contracts a MultiVector into a Form")
    P.table.require_same(a.table)
    if P.degree > a.degree:
        raise DegreeError(
            f"cannot contract degree {P.degree} into degree {a.degree}"
        )
    products: dict = {}
    for J, w in P.comps.items():
        jset = set(J)
        for I, c in a.comps.items():
            if not jset <= set(I):
                continue
            K = tuple(i for i in I if i not in jset)
            products.setdefault(K, []).append((_merge_sign(J, K), w, c))
    return a._like(a.degree - P.degree, {
        K: sum_of_products(a.table, terms) for K, terms in products.items()
    })


def pairing(a: Form, P: MultiVector) -> RationalFunction:
    """Full contraction of equal degrees to a scalar."""
    if a.degree != P.degree:
        raise DegreeError(
            f"pairing needs equal degrees, got {a.degree} and {P.degree}"
        )
    a.table.require_same(P.table)
    return sum_of_products(a.table, [
        (1, c, P.comps[idx]) for idx, c in a.comps.items() if idx in P.comps
    ])


# --- Schouten bracket ------------------------------------------------------


def schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Schouten bracket for degrees (1, q) and (2, 2), by the coordinate
    formula in the odd generators D_l (Vaisman 1994, Lectures on the
    Geometry of Poisson Manifolds), l over the geometric variables:

        [P, Q] = eps * sum_l (P <d/dD_l) ^ dQ/dx_l - dP/dx_l ^ (d>/dD_l Q)

    The right derivative <d/dD_l drops l from an index tuple with sign
    (-1)^(number of indices after l), the left one d>/dD_l with sign
    (-1)^(position of l).  eps = +1 for p = 1 makes [X, Q] the Lie
    derivative L_X Q, so [X, f] = X(f); eps = -1 for (2, 2) makes
    dx_i^dx_j^dx_k pair with [P, P] to -2 times the cyclic Jacobiator of P.

    As d>/dD_l Q = (-1)^(q-1) (Q <d/dD_l), the second sum is
    -sum_l (Q <d/dD_l) ^ dP/dx_l for both degree pairs, and for the square
    of a bivector the two sums agree: [P, P] = -2 sum_l (P <d/dD_l) ^ dP/dx_l.
    Each component is one sum of products over every l, of numerators over
    D^3 for D the lcm of the denominators: D^2 d_l(N/D) = D d_lN - N d_lD.
    The sum is divided by D^3 one factor of D at a time, which stops at the
    first factor the numerator is coprime to, instead of taking its gcd
    with D^3.  All-polynomial operands (D = 1) take neither the quotient
    rule nor the division."""
    if not isinstance(P, MultiVector) or not isinstance(Q, MultiVector):
        raise UnsupportedDegrees("schouten acts on multivectors")
    P.table.require_same(Q.table)
    if P.degree != 1 and (P.degree, Q.degree) != (2, 2):
        raise UnsupportedDegrees(
            f"degrees ({P.degree}, {Q.degree}) not supported"
        )
    (NP, NQ), D = over_common_denominator(P.comps, Q.comps)
    products: dict = {}
    if Q is P and P.degree == 2:
        _right_products(products, NP, NP, D, -2)
    else:
        _right_products(products, NP, NQ, D, 1 if P.degree == 1 else -1)
        _right_products(products, NQ, NP, D, -1)
    comps = {idx: sum_of_products(P.table, terms)
             for idx, terms in products.items()}
    if D is not None:
        comps = {idx: quotient_by_factor(c, D, 3)
                 for idx, c in comps.items() if c}
    return P._like(P.degree + Q.degree - 1, comps)


def _right_products(products: dict, A: dict, B: dict, D, sign: int) -> None:
    """Add the signed products of sign * sum_l (A <d/dD_l) ^ D^2 dB/dx_l to
    ``products``, keyed by result index, for numerators A, B over D (None
    for 1); each d_l of a component of B is taken once."""
    partials: dict = {}
    for I, a in A.items():
        for m, l in enumerate(I):
            rest = I[:m] + I[m + 1:]
            flip = -sign if (len(I) - 1 - m) & 1 else sign
            terms = partials.get(l)
            if terms is None:
                dD = D and D.derivative(l)
                derivatives = ((J, b.derivative(l) * D - b * dD if D
                                else b.derivative(l)) for J, b in B.items())
                terms = partials[l] = [(J, db) for J, db in derivatives if db]
            for J, db in terms:
                if set(rest).isdisjoint(J):
                    products.setdefault(tuple(sorted(rest + J)), []).append(
                        (flip * _merge_sign(rest, J), a, db))
