"""Sparse multivariate polynomials and rational functions over exact rationals.

Everything downstream (forms, anchors, pencils, certificates) is built on the
two arithmetic classes here.  Design points that the rest of the package
relies on:

* a ``VarTable`` fixes the variable order once; monomials are compared
  lexicographically in declared order (earlier variables weigh more);
* ``Polynomial`` packs each monomial into one ``int`` (Monagan & Pearce,
  ISSAC 2009): the exponent of the i-th of n variables fills the
  FIELD_BITS-bit field at bit FIELD_BITS*(n-1-i).  The first declared
  variable has the highest field, so comparing the ints compares the
  monomials lexicographically, and a monomial product is one integer
  addition;
* the top bit of every field is a guard.  Exponents stay below
  2^(FIELD_BITS-1) = 32768, so the sum of two fields never carries into
  the next one, and a product whose exponent would reach the guard raises
  ExponentOverflow instead.  The parser admits expressions of total degree
  at most MAX_DEGREE = 200, which leaves a factor of 163 for the degree
  growth of derived results (products in wedges, brackets, determinants
  and remainder sequences) before the guard can trip;
* the coefficients are nonzero ``int`` numerators over one positive ``int``
  denominator that shares no factor with their content (1 for the zero
  polynomial), so structural equality is equality in Q[x];
* ``RationalFunction`` is always reduced (gcd of numerator and denominator is
  a unit) with a monic denominator under the monomial order, so structural
  equality coincides with equality in the fraction field;
* the pencil parameter and symbolic constants are ordinary ring variables but
  are fenced off from every differential operator.

Polynomial gcds run the heuristic GCDHEU first (Char, Geddes & Gonnet
1989): the numerators are in Z[x] already, the most significant variable is
evaluated at a large integer xi, recursively down to an integer gcd, and the
candidate is rebuilt from the symmetric xi-adic digits of that gcd.  It is
accepted only if it divides both inputs exactly over Z; a candidate of 1
needs no test.  After HEU_GCD_MAX
evaluation points the gcd falls back to contents and a fraction-free
subresultant remainder sequence, recursing on the most recently declared
variable that actually occurs.  Exact division divides by the primitive part
of the divisor over Z, where Gauss's lemma keeps every quotient integral.

Arithmetic on reduced fractions takes gcds only where a factor can cancel
(Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1), and every cancellation goes
through ``_cancel(p, q) -> (g, p/g, q/g)``, which takes no gcd when p or q
is constant and divides nothing when g is 1.  A sum a/b + c/d cancels
g = gcd(b, d) (g = b when b = d), so t = a*(d/g) + c*(b/g) over
(b/g)*(d/g)*g is reduced except for a factor of g, and a second cancel of
t against g removes it.  A product cancels a against d and c against b; a
quotient does the same with the divisor flipped and then makes its
denominator monic again.  A power of a reduced fraction needs no gcd.  A
constant factor in a polynomial product only scales the other factor, and
a factor of 1 returns it unchanged.  The quotient rule builds (n/d)' as
t/((d/g)*(d/g)*g) for g = gcd(d, d') and t = n'*(d/g) - n*(d'/g), and
cancels t only against g: a factor of d/g involves the variable and cannot
divide t.  A sum of products, sum +-(a/b)*(c/d) as in wedges,
contractions, pairings and substitutions, is reduced once per pair of
denominators, not once per product: ``sum_of_products`` multiplies the
numerators a*c term pair by term pair straight into one integer term dict
per pair b, d (Johnson 1974; Monagan & Pearce 2007), with no polynomial
built per product, cancels each group once against b*d, then adds the
groups as above.  It multiplies before it cancels, so a product whose
factors cancel only against each other can reach the exponent guard where
one reduced product at a time would not; the guard is checked on every
monomial of every product, cancelled or not, so it trips exactly when one
product reaches it.  Where a polynomial q is expected to divide the numerator a of a/b,
``quotient_by_factor`` divides by it exactly and takes no gcd: (a/q)/b
is reduced, since gcd(a/q, b) divides gcd(a, b) = 1.  Where q does not
divide a it cancels a against q alone, and a power of q is divided one
factor at a time, stopping at the first factor a is coprime to.  The
trial is kept out of ``_cancel``, where a failed trial would cost about
as much as the gcd that follows it.

The parser computes with polynomials and makes a fraction only at '/',
through the ``RationalFunction`` constructor; a one-term base is raised
to its power in one step, and a sum's polynomial terms are added in one
pass.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from functools import reduce
from math import comb, gcd, isqrt, lcm
from operator import or_
from random import Random

from .errors import (
    DivisionByZero,
    ExponentOverflow,
    ForbiddenVariable,
    IntegerTooLong,
    NegativeExponent,
    ParseError,
    PoleAtPoint,
    SamplingExhausted,
    SpecError,
    TableMismatch,
    UnknownVariable,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Bits per exponent field of a packed monomial, guard bit included.
FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
_GUARD_SHIFT = FIELD_BITS - 1
_GUARD = 1 << _GUARD_SHIFT


class VarKind(enum.Enum):
    """Role of a variable in the ambient ring."""

    MANIFOLD = "manifold"
    PENCIL = "pencil_parameter"
    APPENDED = "appended_coordinate"
    CONSTANT = "constant"

    @property
    def geometric(self) -> bool:
        # geometric variables carry differentials and coordinate indices
        return self in (VarKind.MANIFOLD, VarKind.APPENDED)


class Record:
    """Base of the record types: ``__init__`` takes the ``_fields`` a subclass
    names, by position or by keyword, and repr shows them.  A record stays
    mutable and compares by identity."""

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        if (len(given) < len(args) + len(kwargs)
                or given.keys() != set(self._fields)):
            raise TypeError(f"{type(self).__name__} takes each field of "
                            f"{self._fields} once; got {len(args)} by "
                            f"position and {sorted(kwargs)} by keyword")
        for name in self._fields:
            object.__setattr__(self, name, given[name])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """Base of the immutable value types: equality and hash go by the
    ``_fields``, and assignment raises AttributeError."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as the fields are its
        # arguments in order
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VarTable(Frozen):
    """Ordered list of variable names with their roles."""

    # besides names and kinds: each variable's bit offset in a packed
    # monomial, the mask of all guard bits, the polynomial 1 (shared, as
    # polynomials are never written to) and the indices of each kind
    __slots__ = ("names", "kinds", "shifts", "guard", "one",
                 "geometric_indices", "pencil_index", "appended_index")
    _fields = ("names", "kinds")

    def __init__(self, names: tuple[str, ...], kinds: tuple[VarKind, ...]):
        if len(names) != len(kinds):
            raise TableMismatch("names and kinds have different lengths")
        seen = set()
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ParseError(f"invalid variable name {name!r}")
            if name in seen:
                raise TableMismatch(f"duplicate variable {name!r}")
            seen.add(name)
        for kind, slot in ((VarKind.PENCIL, "pencil_index"),
                           (VarKind.APPENDED, "appended_index")):
            found = [i for i, k in enumerate(kinds) if k is kind]
            if len(found) > 1:
                raise TableMismatch(f"more than one {kind.value} variable")
            object.__setattr__(self, slot, found[0] if found else None)
        object.__setattr__(self, "geometric_indices", tuple(
            i for i, k in enumerate(kinds) if k.geometric))
        n = len(names)
        shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "guard", sum(_GUARD << s for s in shifts))
        object.__setattr__(self, "one", Polynomial(self, {0: 1}))

    @staticmethod
    def build(entries) -> "VarTable":
        """Create a table from ``[(name, kind-or-string), ...]`` or names."""
        names, kinds = [], []
        for entry in entries:
            if isinstance(entry, str):
                name, kind = entry, VarKind.MANIFOLD
            else:
                name, kind = entry
                if isinstance(kind, str):
                    kind = VarKind(kind)
            names.append(name)
            kinds.append(kind)
        return VarTable(tuple(names), tuple(kinds))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def kind_of(self, name: str) -> VarKind:
        return self.kinds[self.index(name)]

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        """Number of geometric variables (the manifold dimension)."""
        return len(self.geometric_indices)

    def extend(self, name: str, kind: VarKind) -> "VarTable":
        """New table with one variable appended (existing indices keep)."""
        return VarTable(self.names + (name,), self.kinds + (kind,))

    def require_same(self, other: "VarTable"):
        if self is not other and self != other:
            raise TableMismatch(
                f"variable tables differ: {self.names} vs {other.names}"
            )

    def require_pencil_free(self, values, what: str):
        """Raise SpecError when one of ``values`` involves the pencil
        parameter, which enters only through the Casimir polynomials."""
        i = self.pencil_index
        if i is not None and any(v.involves(i) for v in values):
            raise SpecError(
                f"{what} involves the pencil parameter {self.names[i]!r}"
            )


def _scalar(value):
    """value itself if it is an exact scalar (int or Fraction)."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def _pack(table: VarTable, exponents) -> int:
    """The packed monomial of an exponent tuple in table order."""
    exponents = tuple(exponents)
    if len(exponents) != table.size:
        raise TableMismatch(
            f"{len(exponents)} exponents for {table.size} variables")
    m = 0
    for p in exponents:
        if p < 0:
            raise NegativeExponent(f"negative exponent {p} in a monomial")
        if p >= _GUARD:
            raise ExponentOverflow(f"exponent {p} reaches 2^{FIELD_BITS - 1}")
        m = m << FIELD_BITS | p
    return m


def _unpack(table: VarTable, m: int) -> tuple:
    """The exponent tuple of a packed monomial."""
    return tuple(m >> s & _FIELD for s in table.shifts)


def _normal(table: VarTable, terms: dict, den: int) -> "Polynomial":
    """terms/den (nonzero numerators, den > 0) with their common factor
    cancelled."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return Polynomial(table, terms, den)


class Polynomial:
    """Sparse polynomial: {packed monomial: int numerator} over ``den``.

    The constructor takes the layout as it stands: nonzero numerators and a
    positive ``den`` coprime to their content.  Polynomials are never
    written to after construction, so results may share their terms."""

    __slots__ = ("table", "terms", "den")

    def __init__(self, table: VarTable, terms: dict, den: int = 1):
        self.table = table
        self.terms = terms
        self.den = den

    # --- constructors -----------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Polynomial":
        return Polynomial(table, {})

    @staticmethod
    def constant(table: VarTable, value) -> "Polynomial":
        value = _scalar(value)
        if not value:
            return Polynomial(table, {})
        return Polynomial(table, {0: value.numerator}, value.denominator)

    @staticmethod
    def one(table: VarTable) -> "Polynomial":
        return table.one

    @staticmethod
    def variable(table: VarTable, name: str) -> "Polynomial":
        return Polynomial(table, {1 << table.shifts[table.index(name)]: 1})

    @staticmethod
    def monomial(table: VarTable, exponents, coeff=1) -> "Polynomial":
        coeff = _scalar(coeff)
        if not coeff:
            return Polynomial(table, {})
        return Polynomial(table, {_pack(table, exponents): coeff.numerator},
                          coeff.denominator)

    # --- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False exactly for zero, as for ``int``."""
        return bool(self.terms)

    def is_constant(self) -> bool:
        # the zero monomial is the only constant one
        terms = self.terms
        return not terms or (0 in terms and len(terms) == 1)

    def leading(self):
        """(exponent tuple, coefficient) of the lex-largest monomial."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return _unpack(self.table, m), Fraction(self.terms[m], self.den)

    def degree_in(self, index: int) -> int:
        """Largest exponent of the variable at ``index`` (-1 for zero)."""
        s = self.table.shifts[index]
        return max((m >> s & _FIELD for m in self.terms), default=-1)

    def variables_present(self):
        bits = reduce(or_, self.terms, 0)
        return {i for i, s in enumerate(self.table.shifts) if bits >> s & _FIELD}

    def involves(self, index: int) -> bool:
        s = self.table.shifts[index]
        return any(m >> s & _FIELD for m in self.terms)

    # --- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self.table.require_same(other.table)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.table, other)
        return None

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other for sign = 1 or -1."""
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        if da == db:
            terms, den = dict(a), da
        else:
            g = gcd(da, db)
            scale, den = db // g, da // g * db
            sign *= da // g
            terms = {m: c * scale for m, c in a.items()}
        for m, c in b.items():
            acc = terms.get(m, 0) + c * sign
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return _normal(self.table, terms, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.table, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def _times(self, n: int, d: int) -> "Polynomial":
        """self times the rational n/d for d != 0; self itself when n/d is 1
        (polynomials are never written to, so sharing is safe)."""
        if d < 0:
            n, d = -n, -d
        if n == d:
            return self
        if not n:
            return Polynomial(self.table, {})
        terms = self.terms
        if n != 1:
            terms = {m: c * n for m, c in terms.items()}
        return _normal(self.table, terms, self.den * d)

    def __mul__(self, other):
        # Polynomial first: the Fraction check goes through its ABC
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self._times(other.numerator, other.denominator)
            return NotImplemented
        self.table.require_same(other.table)
        a, b = self.terms, other.terms
        # a constant operand only scales the other one
        if other.is_constant():
            return self._times(b.get(0, 0), other.den)
        if self.is_constant():
            return other._times(a.get(0, 0), self.den)
        terms: dict = {}
        _add_product(terms, a, b, 1)
        if len(terms) < len(a) * len(b):
            terms = {e: c for e, c in terms.items() if c}
        _require_below_guard(self.table, terms)
        return _normal(self.table, terms, self.den * other.den)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient, unlike ``int``'s floor: raises if the
        division leaves a remainder."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return poly_exact_div(self, other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise NegativeExponent(f"exponent must be an unsigned integer, got {n}")
        if len(self.terms) == 1:
            # a one-term base in one step: n times its packed monomial, with
            # every field checked against the guard first
            [(m, c)] = self.terms.items()
            if n * max(_unpack(self.table, m), default=0) >= _GUARD:
                raise ExponentOverflow(
                    f"an exponent reaches 2^{FIELD_BITS - 1} in a power")
            return Polynomial(self.table, {m * n: c**n}, self.den**n)
        # one factor at a time: for a dense base, squaring would spend most
        # of its work on the last product of two large powers
        result = Polynomial.one(self.table)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.table, other)
        return (self.den == other.den and self.terms == other.terms
                and (self.table is other.table or self.table == other.table))

    def __repr__(self):
        return f"Polynomial({self.render()!r})"

    # --- calculus / evaluation ----------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative along a geometric variable."""
        kind = self.table.kinds[index]
        if not kind.geometric:
            raise ForbiddenVariable(
                f"cannot differentiate along {self.table.names[index]!r} "
                f"({kind.value})"
            )
        s = self.table.shifts[index]
        unit = 1 << s
        terms = {}
        for m, c in self.terms.items():
            p = m >> s & _FIELD
            if p:
                terms[m - unit] = c * p
        return _normal(self.table, terms, self.den)

    def evaluate(self, point: "RationalPoint") -> Fraction:
        self.table.require_same(point.table)
        # integer coordinates keep the sum in int arithmetic
        values = [v.numerator if v.denominator == 1 else v
                  for v in point.values]
        total = 0
        for m, c in self.terms.items():
            for i, s in enumerate(self.table.shifts):
                p = m >> s & _FIELD
                if p:
                    c *= values[i] ** p
            total += c
        return Fraction(total) / self.den

    # --- display --------------------------------------------------------------

    def render(self) -> str:
        """Canonical text, re-parseable by ``parse_ratfun``."""
        if self.is_zero():
            return "0"
        names = self.table.names
        pieces = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for name, p in zip(names, _unpack(self.table, m)):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            g = gcd(c, self.den)
            num, den = abs(c) // g, self.den // g
            try:
                mag = str(num) if den == 1 else f"{num}/{den}"
            except ValueError:
                raise IntegerTooLong(
                    "a coefficient has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
            if not mono:
                body = mag
            elif num == den == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


# --- gcd machinery -----------------------------------------------------------


def poly_quotient(p: Polynomial, q: Polynomial):
    """Exact quotient p/q, or None if the division leaves a remainder."""
    p.table.require_same(q.table)
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if q.is_constant():
        return p._times(q.den, q.terms[0])
    # over Z by the primitive part of q (Gauss: the quotient stays integral)
    content = gcd(*q.terms.values())
    divisor = q.terms
    if content != 1:
        divisor = {m: c // content for m, c in divisor.items()}
    quot = _zz_quotient(p.terms, divisor, p.table)
    if quot is None:
        return None
    return Polynomial(p.table, quot)._times(q.den, p.den * content)


def poly_exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact quotient p/q; raises if the division leaves a remainder."""
    quot = poly_quotient(p, q)
    if quot is None:
        raise DivisionByZero("polynomial division is not exact")
    return quot


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    return Polynomial(p.table, p.terms)._times(1, p.terms[max(p.terms)])


# Fieldwise comparison of packed monomials, all fields at once: in
# ((x | guard) - y) & guard the guard bit of a field survives exactly where
# x >= y there (no borrow crosses a field), and ge - (ge >> (FIELD_BITS-1))
# turns each surviving guard bit into a mask of its field's exponent bits.


def _monomial_gcd(table: VarTable, monomials) -> int:
    """Fieldwise minimum of packed monomials (a non-empty collection)."""
    if 0 in monomials:
        return 0
    guard = table.guard
    it = iter(monomials)
    low = next(it)
    for m in it:
        ge = ((low | guard) - m) & guard
        low ^= (low ^ m) & (ge - (ge >> _GUARD_SHIFT))
    return low


def _monomial_lcm(table: VarTable, monomials) -> int:
    """Fieldwise maximum of packed monomials (a non-empty collection)."""
    guard = table.guard
    it = iter(monomials)
    high = next(it)
    for m in it:
        ge = ((m | guard) - high) & guard
        high ^= (high ^ m) & (ge - (ge >> _GUARD_SHIFT))
    return high


def _univariate_view(p: Polynomial, v: int):
    """Coefficients of powers of variable ``v``: {power: Polynomial}."""
    s = p.table.shifts[v]
    coeffs: dict = {}
    for m, c in p.terms.items():
        d = m >> s & _FIELD
        coeffs.setdefault(d, {})[m - (d << s)] = c
    return {d: _normal(p.table, t, p.den) for d, t in coeffs.items()}


def _lc_in(p: Polynomial, v: int) -> Polynomial:
    view = _univariate_view(p, v)
    return view[max(view)]


def _content_in(p: Polynomial, v: int) -> Polynomial:
    acc = None
    for coeff in _univariate_view(p, v).values():
        acc = coeff if acc is None else poly_gcd(acc, coeff)
        if acc.is_constant():
            break
    return _monic(acc)


def _prem(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    """Pseudo-remainder of a by b in the variable v."""
    n, m = a.degree_in(v), b.degree_in(v)
    lb = _lc_in(b, v)
    steps = n - m + 1
    r = a
    vpoly = Polynomial.variable(a.table, a.table.names[v])
    while not r.is_zero() and r.degree_in(v) >= m:
        d = r.degree_in(v) - m
        r = lb * r - _lc_in(r, v) * b * vpoly**d
        steps -= 1
    return lb**steps * r if steps else r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd under the table's monomial order (1 for coprime inputs)."""
    a.table.require_same(b.table)
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    table = a.table
    ma, mb = _monomial_gcd(table, a.terms), _monomial_gcd(table, b.terms)
    a0 = Polynomial(table, {m - ma: c for m, c in a.terms.items()}, a.den)
    b0 = Polynomial(table, {m - mb: c for m, c in b.terms.items()}, b.den)
    common = Polynomial(table, {_monomial_gcd(table, (ma, mb)): 1})
    if a0.is_constant() or b0.is_constant():
        return common
    g = _heuristic_gcd(a0, b0)
    if g is None:
        g = _content_prs_gcd(a0, b0)
    return common * g


def _content_prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of non-constant inputs by contents and the subresultant
    remainder sequence in the most recently declared variable present."""
    v = max(a.variables_present() | b.variables_present())
    if not a.involves(v):
        return poly_gcd(a, _content_in(b, v))
    if not b.involves(v):
        return poly_gcd(_content_in(a, v), b)
    ca, cb = _content_in(a, v), _content_in(b, v)
    pa, pb = poly_exact_div(a, ca), poly_exact_div(b, cb)
    return _monic(poly_gcd(ca, cb) * _prs_gcd(pa, pb, v))


def _prs_gcd(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    """Subresultant remainder sequence gcd of primitive-in-v inputs."""
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    g = Polynomial.one(a.table)
    h = Polynomial.one(a.table)
    while True:
        d = a.degree_in(v) - b.degree_in(v)
        r = _prem(a, b, v)
        if r.is_zero():
            # b free of v leaves no pseudo-remainder: coprime inputs end here
            prim = poly_exact_div(b, _content_in(b, v))
            return prim if prim.involves(v) else Polynomial.one(a.table)
        a, b = b, poly_exact_div(r, g * h**d)
        g = _lc_in(a, v)
        if d == 1:
            h = g
        elif d > 1:
            h = poly_exact_div(g**d, h ** (d - 1))


# --- heuristic gcd over Z ------------------------------------------------------
#
# Polynomials over Z are dicts {packed monomial: int} without zero entries.
# ``shifts`` lists the fields of the variables still to evaluate, most
# significant first; the fields of evaluated variables are zero.

HEU_GCD_MAX = 6


def _heuristic_gcd(a: Polynomial, b: Polynomial):
    """Monic gcd of non-constant inputs by GCDHEU, or None if it gives up."""
    table = a.table
    present = sorted(a.variables_present() | b.variables_present())
    h = _heu_gcd(a.terms, b.terms, [table.shifts[i] for i in present], table)
    if h is None:
        return None
    return _monic(Polynomial(table, h))


def _heu_gcd(f: dict, g: dict, shifts: list, table: VarTable):
    """gcd of nonzero f, g in Z[x] (integer content included, leading
    coefficient positive), or None after HEU_GCD_MAX evaluation points."""
    cont = gcd(gcd(*f.values()), gcd(*g.values()))
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(HEU_GCD_MAX):
        ff = _zz_evaluate(f, x, shifts[0])
        gg = _zz_evaluate(g, x, shifts[0])
        if ff and gg:
            if len(shifts) == 1:  # no variable left: ff, gg are integers
                image = {0: gcd(ff[0], gg[0])}
            else:
                image = _heu_gcd(ff, gg, shifts[1:], table)
                if image is None:
                    return None
            h = _zz_interpolate(image, x, shifts[0])
            content = gcd(*h.values())
            h = {e: c // content for e, c in h.items()}
            if h == {0: 1}:  # 1 divides f and g: no division test
                return {0: cont}
            if (_zz_quotient(f, h, table) is not None
                    and _zz_quotient(g, h, table) is not None):
                return {e: c * cont for e, c in h.items()}
        # the next point, about 2.73 x^(5/4) as in SymPy's heugcd
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _zz_evaluate(f: dict, x: int, s: int) -> dict:
    """f with the variable in the field at bit s replaced by the integer x."""
    powers = [1]
    for _ in range(max(m >> s & _FIELD for m in f)):
        powers.append(powers[-1] * x)
    out: dict = {}
    for m, c in f.items():
        p = m >> s & _FIELD
        rest = m - (p << s)
        out[rest] = out.get(rest, 0) + c * powers[p]
    return {e: c for e, c in out.items() if c}


def _zz_interpolate(h: dict, x: int, s: int) -> dict:
    """The polynomial with symmetric base-x digits (|digit| <= x/2) in the
    variable at bit s whose value there at x is h; leading coefficient
    positive."""
    half = x // 2
    out = {}
    power = 0
    while h:
        if power == _GUARD:
            raise ExponentOverflow(
                f"gcd image needs a digit at x^{power}")
        rest = {}
        for e, c in h.items():
            digit = c % x
            if digit > half:
                digit -= x
            if digit:
                out[(power << s) + e] = digit
            c = (c - digit) // x
            if c:
                rest[e] = c
        h = rest
        power += 1
    if out[max(out)] < 0:
        return {e: -c for e, c in out.items()}
    return out


def _zz_quotient(f: dict, h: dict, table: VarTable):
    """f/h over Z by leading terms, or None if h does not divide f."""
    if not f:
        return {}
    lead = max(h)
    lc = h[lead]
    guard = table.guard
    # exact division keeps every quotient exponent within deg f - deg h,
    # field by field; a variable h lacks gets the whole field below the
    # guard.  A field where deg h > deg f loses its guard bit
    top_h = _monomial_lcm(table, h)
    room = (_monomial_lcm(table, f) | guard) - top_h
    if room & guard != guard:
        return None
    lacks = guard ^ ((top_h | guard) - (guard >> _GUARD_SHIFT)) & guard
    room |= lacks - (lacks >> _GUARD_SHIFT)
    rem = dict(f)
    quot = {}
    while rem:
        top = max(rem)
        q, r = divmod(rem[top], lc)
        # a borrow out of a field clears its guard bit: lead does not
        # divide top there, or the quotient leaves the room
        shift = (top | guard) - lead
        if r or shift & guard != guard:
            return None
        shift ^= guard
        if (room - shift) & guard != guard:
            return None
        quot[shift] = q
        for e, c in h.items():
            m = shift + e
            v = rem.get(m, 0) - q * c
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quot


# --- rational functions --------------------------------------------------------


def _monic_pair(num: Polynomial, den: Polynomial):
    """num and den both divided by the leading coefficient of den."""
    lead = den.terms[max(den.terms)]
    if lead == den.den:
        return num, den
    return num._times(den.den, lead), den._times(den.den, lead)


def _cancel(p: Polynomial, q: Polynomial):
    """(g, p/g, q/g) for g = gcd(p, q), the one place where fractions
    cancel: no gcd when p or q is constant, and no division when g is 1."""
    if p.is_constant() or q.is_constant():
        return Polynomial.one(p.table), p, q
    g = poly_gcd(p, q)
    if g.is_constant():
        return g, p, q
    return g, poly_exact_div(p, g), poly_exact_div(q, g)


def _cross_cancelled(a, b, c, d):
    """Numerator and denominator of (a/b)*(c/d) for coprime a, b and coprime
    c, d: only a against d and c against b can share a factor (Henrici)."""
    _, a, d = _cancel(a, d)
    _, c, b = _cancel(c, b)
    return a * c, b * d


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num.table.require_same(den.table)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            num = Polynomial.zero(num.table)
            den = Polynomial.one(num.table)
        else:
            _, num, den = _cancel(num, den)
            num, den = _monic_pair(num, den)
        self.num = num
        self.den = den

    # --- constructors ----------------------------------------------------------

    @staticmethod
    def _reduced(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den that the caller knows to be reduced with a monic
        denominator; only a zero numerator is normalised (to 0/1)."""
        out = RationalFunction.__new__(RationalFunction)
        out.num = num
        out.den = den if num.terms else Polynomial.one(num.table)
        return out

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.one(p.table))

    @staticmethod
    def zero(table: VarTable) -> "RationalFunction":
        return RationalFunction.from_polynomial(Polynomial.zero(table))

    @staticmethod
    def one(table: VarTable) -> "RationalFunction":
        return RationalFunction.from_polynomial(Polynomial.one(table))

    @staticmethod
    def constant(table: VarTable, value) -> "RationalFunction":
        return RationalFunction.from_polynomial(Polynomial.constant(table, value))

    @staticmethod
    def variable(table: VarTable, name: str) -> "RationalFunction":
        return RationalFunction.from_polynomial(Polynomial.variable(table, name))

    # --- structure ---------------------------------------------------------------

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        """False exactly for zero, as for ``Fraction``."""
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        # the denominator is monic, so a constant one is 1
        return self.den.is_constant()

    def involves(self, index: int) -> bool:
        return self.num.involves(index) or self.den.involves(index)

    # --- arithmetic -----------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            self.table.require_same(other.table)
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.table, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Henrici: with g = gcd(b, d), b1 = b/g and d1 = d/g, a/b + c/d is
        # t/(b1*d1*g) for t = a*d1 + c*b1, and only a factor of g can cancel;
        # over equal denominators g = b and b1 = d1 = 1
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            _, t, den = _cancel(a + c, b)
            return RationalFunction._reduced(t, den)
        g, b1, d1 = _cancel(b, d)
        _, t, g = _cancel(a * d1 + c * b1, g)
        return RationalFunction._reduced(t, b1 * d1 * g)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction._reduced(
            *_cross_cancelled(self.num, self.den, other.num, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        # the divisor's numerator becomes a denominator that need not be monic
        return RationalFunction._reduced(*_monic_pair(
            *_cross_cancelled(self.num, self.den, other.den, other.num)
        ))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise NegativeExponent(f"exponent must be an unsigned integer, got {n}")
        # powers of coprime polynomials stay coprime, of monic ones monic
        return RationalFunction._reduced(self.num**n, self.den**n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"

    # --- calculus / evaluation ----------------------------------------------------

    def derivative(self, index: int) -> "RationalFunction":
        dn = self.num.derivative(index)
        dd = self.den.derivative(index)
        if dd.is_zero():
            return RationalFunction(dn, self.den)
        # n/d differentiates to t/(d1*d1*g) for g = gcd(d, d'), d1 = d/g and
        # t = n'*d1 - n*(d'/g); a factor of d1 involves x_l and cannot
        # divide t, so only a factor of g can cancel
        g, d1, dd1 = _cancel(self.den, dd)
        t = dn * d1 - self.num * dd1
        _, t, g = _cancel(t, g)
        return RationalFunction._reduced(t, d1 * d1 * g)

    def evaluate(self, point: "RationalPoint") -> Fraction:
        bottom = self.den.evaluate(point)
        if bottom == 0:
            raise PoleAtPoint(f"denominator {self.den.render()} vanishes")
        return self.num.evaluate(point) / bottom

    def substitute(self, mapping: dict) -> "RationalFunction":
        """Replace named variables by Fractions, Polynomials, or fractions
        of polynomials; the rest of the table is left symbolic."""
        table = self.table
        values = {}
        for name, value in mapping.items():
            i = table.index(name)
            if isinstance(value, (int, Fraction)):
                value = RationalFunction.constant(table, value)
            elif isinstance(value, Polynomial):
                value = RationalFunction.from_polynomial(value)
            values[i] = value
        # substitute in table order, whatever the order of the mapping
        values = sorted(values.items())

        one = RationalFunction.one(table)

        def sub_poly(p: Polynomial) -> RationalFunction:
            # each term is (weight of its substituted powers) * (the rest
            # of the term), and the terms are summed in one pass
            products = []
            for m, c in p.terms.items():
                weight = one
                for i, value in values:
                    power = m >> table.shifts[i] & _FIELD
                    if power:
                        weight = weight * value**power
                        m -= power << table.shifts[i]
                rest = _normal(table, {m: c}, p.den)
                products.append((1, weight, RationalFunction._reduced(
                    rest, table.one)))
            return sum_of_products(table, products)

        bottom = sub_poly(self.den)
        if bottom.is_zero():
            raise PoleAtPoint("substitution makes the denominator vanish")
        return sub_poly(self.num) / bottom

    def render(self) -> str:
        if self.is_polynomial():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


def _add_product(terms: dict, a: dict, c: dict, factor: int) -> None:
    """Add factor*a*c into ``terms`` for term dicts {packed monomial: int},
    term pair by term pair; every pair leaves its monomial as a key, even
    where the sum cancels its coefficient to 0."""
    if len(a) > len(c):
        a, c = c, a
    get = terms.get
    for ea, ca in a.items():
        k = ca * factor
        for ec, cc in c.items():
            e = ea + ec
            terms[e] = get(e, 0) + k * cc


def _require_below_guard(table: VarTable, monomials) -> None:
    """Raise ExponentOverflow when a monomial of a product of two
    polynomials has a field at the guard: no field of a factor reaches it,
    so no field of their sum carries into the next one."""
    if reduce(or_, monomials, 0) & table.guard:
        raise ExponentOverflow(
            f"an exponent reaches 2^{FIELD_BITS - 1} in a product")


def sum_of_products(table: VarTable, products) -> RationalFunction:
    """The sum of sign*(a/b)*(c/d) over triples (sign, a/b, c/d) of reduced
    fractions, for an integer sign factor: 1 or -1, or 2 or -2 for a pair
    counted twice.  The products over one pair of denominators b, d share
    b*d: each a*c is multiplied straight into the group's terms over the
    group's common integer denominator, with no polynomial per product, and
    the sum is cancelled once against b*d.  The groups are then added as
    fractions (Henrici)."""
    groups: dict = {}
    for sign, left, right in products:
        a, c = left.num, right.num
        a.table.require_same(c.table)
        if not (a.terms and c.terms):
            continue
        b, d = left.den, right.den
        bt, dt = b.terms, d.terms
        # a monic denominator is fixed by its numerators alone; the common
        # pair of two constant denominators, 1 and 1, needs no frozensets
        if len(bt) == len(dt) == 1 and 0 in bt and 0 in dt:
            key = None
        else:
            key = frozenset((frozenset(bt.items()), frozenset(dt.items())))
        group = groups.get(key)
        if group is None:
            group = groups[key] = (b, d, [])
        group[2].append((sign, a, c))
    total = None
    for key, (b, d, group) in groups.items():
        scale = lcm(*(a.den * c.den for _, a, c in group))
        terms: dict = {}
        for sign, a, c in group:
            _add_product(terms, a.terms, c.terms,
                         sign * (scale // (a.den * c.den)))
        # the keys hold every monomial of every product: one of them at
        # the guard is a product that reached it, whatever the sum cancels
        _require_below_guard(table, terms)
        den = table.one
        if key is not None:
            den = {}
            _add_product(den, b.terms, d.terms, 1)
            _require_below_guard(table, den)
            den = _normal(table, {m: v for m, v in den.items() if v},
                          b.den * d.den)
        terms = {m: v for m, v in terms.items() if v}
        if not terms:
            continue
        _, num, den = _cancel(_normal(table, terms, scale), den)
        part = RationalFunction._reduced(num, den)
        total = part if total is None else total + part
    return RationalFunction.zero(table) if total is None else total


def over_common_denominator(*parts) -> tuple:
    """([numerators], D) for dicts of RationalFunctions, each value n/D for
    D the lcm of the monic denominators, each fixed by its terms (None when
    all are 1), n and D polynomials; one gcd per distinct denominator."""
    if all(v.den.is_constant() for part in parts for v in part.values()):
        return list(parts), None
    dens = list({frozenset(v.den.terms.items()): v.den
                 for part in parts for v in part.values()}.values())
    D = reduce(lambda lcm_, d: lcm_ * _cancel(d, lcm_)[1], dens)
    one, cofactors = D.table.one, [poly_exact_div(D, d) for d in dens]
    return [{k: RationalFunction._reduced(
        v.num * cofactors[dens.index(v.den)], one) for k, v in part.items()}
        for part in parts], RationalFunction._reduced(D, one)


def quotient_by_factor(value: RationalFunction, divisor: RationalFunction,
                       power: int = 1) -> RationalFunction:
    """value/divisor^power where a polynomial divisor q is expected to
    divide the numerator a of value = a/b: then (a/q)/b is already reduced,
    since gcd(a/q, b) divides gcd(a, b) = 1, and b stays monic, so one
    exact division replaces the gcd of the general quotient.  The power is
    divided one factor of q at a time: an exact division where q divides,
    else one cancellation against q alone.  Once a is coprime to q it is
    coprime to every power of q, so the factors left join the denominator
    with no gcd.  Any other divisor takes the general quotient."""
    if not divisor.is_polynomial():
        return value / divisor**power
    a, b, q = value.num, value.den, divisor.num
    while power:
        quot = poly_quotient(a, q)
        if quot is None:
            g, a, rest = _cancel(a, q)
            if g.is_constant():
                break
            b = b * rest
        else:
            a = quot
        power -= 1
    return RationalFunction._reduced(*_monic_pair(a, b * q**power))


def migrate_polynomial(p: Polynomial, new_table: VarTable) -> Polynomial:
    """Move a polynomial between tables where one extends the other by
    trailing variables.  Restriction requires the dropped variables to be
    absent from every term."""
    old_table = p.table
    if old_table == new_table:
        return p
    small, large = sorted((old_table, new_table), key=lambda t: t.size)
    if (
        large.names[: small.size] != small.names
        or large.kinds[: small.size] != small.kinds
    ):
        raise TableMismatch(
            "tables differ beyond trailing variables; cannot migrate"
        )
    # the trailing variables have the lowest fields
    bits = FIELD_BITS * abs(new_table.size - old_table.size)
    if new_table is large:
        return Polynomial(
            new_table, {m << bits: c for m, c in p.terms.items()}, p.den)
    for m in p.terms:
        if m & ((1 << bits) - 1):
            extra = ", ".join(
                name for name, e in zip(old_table.names, _unpack(old_table, m))
                if e and name not in new_table.names
            )
            raise ForbiddenVariable(
                f"term involves {extra}; cannot restrict to the base table"
            )
    return Polynomial(
        new_table, {m >> bits: c for m, c in p.terms.items()}, p.den)


def migrate_ratfun(v: RationalFunction, new_table: VarTable) -> RationalFunction:
    """Table migration for reduced fractions; reduction and the monic
    denominator survive trailing-variable adjunction, so skip both."""
    if v.table == new_table:
        return v
    return RationalFunction._reduced(
        migrate_polynomial(v.num, new_table),
        migrate_polynomial(v.den, new_table),
    )


def coefficients_in(value: RationalFunction, name: str) -> dict:
    """Decompose by powers of one variable: {power: RationalFunction}.

    The denominator must be free of the variable (true for every pencil
    polynomial this package produces; anything else is a logic error)."""
    table = value.table
    i = table.index(name)
    if value.den.involves(i):
        raise DivisionByZero(
            f"denominator {value.den.render()} involves {name!r}; "
            "no coefficient decomposition"
        )
    out = {}
    for power, coeff in _univariate_view(value.num, i).items():
        rf = RationalFunction(coeff, value.den)
        if not rf.is_zero():
            out[power] = rf
    return out


# --- rational points -----------------------------------------------------------------


class RationalPoint(Frozen):
    """Exact values for every variable of a table."""

    __slots__ = ("table", "values")
    _fields = __slots__

    def __init__(self, table: VarTable, values: tuple):
        if len(values) != table.size:
            raise TableMismatch("point has the wrong number of values")
        object.__setattr__(self, "table", table)
        object.__setattr__(
            self, "values", tuple(Fraction(_scalar(v)) for v in values)
        )


SAMPLE_BOUND = 10**6
SAMPLE_RETRIES = 50


def sample_point(table: VarTable, avoid, rng: Random) -> RationalPoint:
    """Uniform integer point avoiding the vanishing loci of ``avoid``.

    ``avoid`` holds Polynomials or RationalFunctions that must be defined
    and nonzero at the sampled point.  Deterministic for a given rng state."""
    guards = list(avoid)
    for _ in range(SAMPLE_RETRIES):
        point = RationalPoint(
            table,
            tuple(
                Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))
                for _ in table.names
            ),
        )
        try:
            if all(g.evaluate(point) != 0 for g in guards):
                return point
        except PoleAtPoint:
            continue
    raise SamplingExhausted(
        f"no admissible point in {SAMPLE_RETRIES} draws "
        f"({len(guards)} guard polynomials)"
    )


# --- parsing ------------------------------------------------------------------


# Each level of parentheses costs the recursive-descent parser four stack
# frames; this bound keeps the deepest accepted expression far below
# Python's default recursion limit.
MAX_NESTING = 100
# The largest exponent '^' accepts.  Bundled and benchmark specs use at most
# ^3; an unbounded power would hand the gcd integers of unbounded size.
MAX_EXPONENT = 100
# The largest total degree that '^', '*' and '/' may produce, checked on the
# true degrees of their operands before computing, and that a sum of
# fractions may reach, checked on its result; it keeps exponents far below
# the guard of a packed field (see the module docstring).
MAX_DEGREE = 200
# The most terms the powers, products and quotients of one expression may
# give their numerators and denominators together, bounded before each is
# expanded: (x1+x2+x3+y1+y2+y3+1)^100 passes both bounds above but has
# C(106, 6), about 1.7e9, and three powers ^16 of that base have 74 613
# terms each; an expression of the shipped specs spends at most 19.
MAX_TERMS = 100_000
# The most tokens one expression may have.  A sum of monomials spends
# nothing from MAX_TERMS, so this bounds its length: an expression of the
# shipped and benchmark specs has at most 82 tokens, the largest of a
# toda_first pulled back through x_i -> x_i + (x_{i+1} + ... + x_5 + 1)^4
# (a 757 KB spec) has 55 763, and 100 000 tokens parse in about a second.
MAX_TOKENS = 100_000
# A term whose coefficients are longer than the longest integer literal
# int() reads by default counts in MAX_TERMS for as many terms of that
# length, one word (see _words), as it costs
_DIGITS = sys.int_info.default_max_str_digits
_LONG_TERMS = f"terms of {_DIGITS} digits"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    """The tokens (kind, value, position) of ``text``, ending in an "end"
    token; counted as they are read, so a text of more than MAX_TOKENS is
    refused after reading that many."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped),
            )
        kind = m.lastgroup
        value, start = m.group(kind), m.start(kind)
        if len(tokens) == MAX_TOKENS:
            raise ParseError(f"more than {MAX_TOKENS} tokens", start)
        if kind == "num":
            try:
                value = int(value)
            except ValueError:
                raise ParseError(
                    f"integer literal of {len(value)} digits exceeds "
                    f"{sys.get_int_max_str_digits()}", start) from None
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := uint | ident | '(' expr ')'

    '/' divides, left associative.  No implicit multiplication; whitespace
    is insignificant.  Parentheses nest at most MAX_NESTING deep, an
    exponent is at most MAX_EXPONENT, no power, product, quotient or
    sum of fractions has a total degree above MAX_DEGREE, and the powers,
    products and quotients of one expression may together expand to at
    most MAX_TERMS terms: each that can expand takes its bound from one
    budget, a term with long coefficients counting several times, and so
    do the gcds that cancel long coefficients.  An expression has at most
    MAX_TOKENS tokens.

    Values are polynomials until a '/' makes a fraction through
    ``RationalFunction(num, den)``; the polynomial terms of a sum up to its
    first fraction are added in one pass, and from there on the sum is
    folded term by term, so a sum of fractions is checked after each sign
    at that sign's position."""

    def __init__(self, text: str, table: VarTable):
        self.tokens = _tokenize(text)
        self.table = table
        self.i = 0
        self.depth = 0
        self.budget = MAX_TERMS

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def spend(self, bound: int, pos: int, unit: str = "terms"):
        """Take the term bound of one power, product or quotient, counted in
        ``unit``, from the expression's budget before expanding it.  A bound
        of 1 is one term times one term, which expands nothing: it takes
        nothing, so a long sum of monomials is not refused for its length."""
        if bound <= 1:
            return
        if bound > self.budget:
            total = f"{bound} {unit}" if bound > MAX_TERMS else (
                f"{MAX_TERMS - self.budget + bound} {unit} in all")
            raise ParseError(
                f"may expand to {total}, more than {MAX_TERMS}", pos)
        self.budget -= bound

    def parse(self) -> RationalFunction:
        value = self.expr()
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {tok!r}", pos)
        if isinstance(value, Polynomial):
            return RationalFunction._reduced(value, self.table.one)
        return value

    def expr(self):
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
        polys = []  # (sign, polynomial) up to the first fraction
        acc = None  # the sum from the first fraction on
        pos = None  # where the sign before the term stands
        while True:
            term = self.term()
            if acc is None and isinstance(term, Polynomial):
                polys.append((sign, term))
            else:
                if sign < 0:
                    term = -term
                if acc is not None:
                    acc = acc + term
                elif polys:
                    acc = term + _signed_sum(self.table, polys)
                else:
                    acc = term
                # a sum of fractions multiplies their denominators
                if pos is not None and not acc.is_polynomial():
                    _check_degree(_degree(acc), pos)
            kind, value, pos = self.peek()
            if kind != "op" or value not in "+-":
                return _signed_sum(self.table, polys) if acc is None else acc
            self.advance()
            sign = 1 if value == "+" else -1

    def term(self):
        acc = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/":
                return acc
            self.advance()
            rhs = self.factor()
            divide = value == "/"
            if divide and rhs.is_zero():
                raise DivisionByZero(f"division by zero at position {pos}")
            _check_degree(_degree(acc) + _degree(rhs), pos)
            # a term pair whose coefficients are u and v words long (see
            # _words) costs as much as u*v pairs of one word
            a, b, u, w = _shape(acc)
            c, d, v, z = _shape(rhs)
            if divide:  # (a/b) / (c/d) = (a*d) / (b*c)
                c, d, v, z = d, c, z, v
            # The gcds that cancel a against d and c against b cost
            # x*y*min(x, y)^2 a term pair for coefficients x and y words
            # long: GCDHEU evaluates at a point as long as the shorter ones,
            # and its images grow with both.  A gcd with a monomial side, or
            # of short coefficients, costs nothing
            gcds = sum(s * t * x * y * min(x, y) ** 2
                       for s, t, x, y in ((a, d, u, z), (c, b, v, w))
                       if x * y > 1 and s > 1 < t)
            long = u * v > 1 or w * z > 1
            self.spend(max(a * c * u * v, b * d * w * z) + gcds, pos,
                       _LONG_TERMS if long else "terms")
            if not divide:
                acc = acc * rhs
            elif isinstance(acc, Polynomial) and isinstance(rhs, Polynomial):
                acc = RationalFunction(acc, rhs)
            else:
                acc = acc / rhs

    def factor(self):
        base = self.base()
        kind, value, caret = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                raise NegativeExponent("negative exponent", pos)
            if kind != "num":
                raise ParseError("expected an unsigned integer exponent", pos)
            if value > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {value} exceeds {MAX_EXPONENT}", pos
                )
            self.advance()
            _check_degree(value * _degree(base), caret)
            # p^k has coefficients of at most k times the bits of p's largest
            # plus those of its term count.  A term w > 1 words long (see
            # _words) counts w^2 times, so nested powers stay bounded, and
            # as a base of more than one term is raised one factor at a time,
            # each p^k on the way then counts
            bits = max(map(_bits, _parts(base)))
            words = [_words(k * bits) for k in range(value + 1)]
            long = words[-1] > 1
            self.spend(max(sum(comb(k + t - 1, t - 1) * words[k] ** 2
                               for k in range(1 if long and t > 1 else value,
                                              value + 1))
                           for t in _sizes(base) if t), caret,
                       _LONG_TERMS if long else "terms")
            base = base**value
        return base

    def base(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return Polynomial.constant(self.table, value)
        if kind == "ident":
            self.advance()
            return Polynomial.variable(self.table, value)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def _signed_sum(table: VarTable, parts: list) -> Polynomial:
    """The sum of sign*p over (sign, p) pairs, in one pass over their
    common integer denominator."""
    if len(parts) == 1:
        [(sign, p)] = parts
        return p if sign > 0 else -p
    scale = lcm(*(p.den for _, p in parts))
    terms: dict = {}
    for sign, p in parts:
        _add_product(terms, p.terms, table.one.terms, sign * (scale // p.den))
    return _normal(table, {m: c for m, c in terms.items() if c}, scale)


def _parts(value) -> tuple:
    """A parsed value's numerator and denominator polynomials."""
    if isinstance(value, Polynomial):
        return value, value.table.one
    return value.num, value.den


def _degree(value) -> int:
    """Total degree of a parsed value: that of its numerator or
    denominator, whichever is larger.  As 2^FIELD_BITS is 1 modulo _FIELD,
    a packed monomial is the sum of its fields modulo _FIELD, and that sum
    is below _FIELD here: a value the parser measures has degree at most
    2*MAX_DEGREE (a sum of two fractions of degree at most MAX_DEGREE)."""
    return max(m % _FIELD for p in _parts(value) for m in p.terms)


def _check_degree(degree: int, pos: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds {MAX_DEGREE}", pos)


def _sizes(value) -> tuple:
    """Term counts of a parsed value's numerator and denominator."""
    return tuple(len(p.terms) for p in _parts(value))


def _bits(p: Polynomial) -> int:
    """Bits of p's longest coefficient, its denominator included, plus
    those of its term count."""
    longest = max(map(int.bit_length, p.terms.values()), default=0)
    return max(longest, p.den.bit_length()) + (len(p.terms) - 1).bit_length()


def _words(bits: int) -> int:
    """``bits`` in words as long as the longest default literal, at 10/3
    bits a digit, rounded up."""
    return -(-3 * bits // (10 * _DIGITS))


def _shape(value) -> tuple:
    """Term counts of a parsed value's numerator and denominator, then the
    lengths in words of their coefficients."""
    num, den = _parts(value)
    return (len(num.terms), len(den.terms), _words(_bits(num)),
            _words(_bits(den)))


def parse_ratfun(text: str, table: VarTable) -> RationalFunction:
    """Parse a rational expression ('/' divides, left associative)."""
    return _Parser(text, table).parse()


def as_ratfun(table: VarTable, value) -> RationalFunction:
    """Coerce an expression string, a Polynomial, a RationalFunction or an
    exact scalar to a RationalFunction over ``table``."""
    if isinstance(value, RationalFunction):
        table.require_same(value.table)
        return value
    if isinstance(value, str):
        return parse_ratfun(value, table)
    if isinstance(value, Polynomial):
        table.require_same(value.table)
        return RationalFunction.from_polynomial(value)
    return RationalFunction.constant(table, value)
