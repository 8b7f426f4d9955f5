"""Exterior algebra of differential forms and multivector fields.

Components are stored sparsely on strictly increasing tuples of geometric
variable indices; coefficients are rational functions that may involve the
pencil parameter and symbolic constants, which never appear as indices.

Sign conventions (fixed once, everything downstream is calibrated to them):

* pairing of identically indexed basis elements is +1, extended as a
  determinant: pairing(a1^...^ap, X1^...^Xp) = det pairing(ai, Xj);
* interior is the left contraction filling the first slots of the form:
  interior(X1^...^Xq, a) = a(X1, ..., Xq, . , ..., .).
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegreeError, ForbiddenVariable, UnsupportedDegrees
from .symexpr import RationalFunction, VarTable, as_ratfun


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

    # --- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def coefficient(self, idx) -> RationalFunction:
        return self.comps.get(tuple(idx), RationalFunction.zero(self.table))

    def _like(self, degree: int, comps: dict):
        return type(self)(self.table, degree, comps)

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

    @staticmethod
    def zero(table: VarTable, degree: int) -> "Form":
        return Form(table, degree, {})

    @staticmethod
    def scalar(table: VarTable, value) -> "Form":
        return Form(table, 0, {(): value})


class MultiVector(_Alternating):
    """Alternating multivector field of fixed degree."""

    def _basis_symbol(self, i: int) -> str:
        return f"D{self.table.names[i]}"

    @staticmethod
    def zero(table: VarTable, degree: int) -> "MultiVector":
        return MultiVector(table, degree, {})

    @staticmethod
    def scalar(table: VarTable, value) -> "MultiVector":
        return MultiVector(table, 0, {(): value})

    @staticmethod
    def basis_vector(table: VarTable, i: int) -> "MultiVector":
        return MultiVector(table, 1, {(i,): 1})


def from_records(table: VarTable, degree: int, records, kind=Form):
    """Inverse of ``to_records`` (1-based geometric indices)."""
    from .symexpr import parse_ratfun

    geo = table.geometric_indices
    comps: dict = {}
    for rec in records:
        idx = tuple(geo[i - 1] for i in rec["indices"])
        coeff = rec["coeff"]
        if isinstance(coeff, str):
            coeff = parse_ratfun(coeff, table)
        prev = comps.get(idx)
        comps[idx] = coeff if prev is None else prev + coeff
    return kind(table, degree, comps)


# --- multiplicative structure ------------------------------------------------


def wedge(a, b):
    """Graded-commutative exterior product of two like objects."""
    a._check_mate(b)
    comps: dict = {}
    for left, cl in a.comps.items():
        lset = set(left)
        for right, cr in b.comps.items():
            if lset & set(right):
                continue
            sign = _merge_sign(left, right)
            idx = tuple(sorted(left + right))
            accumulate(comps, idx, cl * cr if sign > 0 else -(cl * cr))
    return a._like(a.degree + b.degree, comps)


def wedge_power(a, n: int, scale=None):
    """a^n, optionally times a scalar (used for volume normalizations)."""
    out = type(a).scalar(a.table, 1)
    for _ in range(n):
        out = wedge(out, a)
    if scale is not None:
        out = out * scale
    return out


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
    return Form(a.table, a.degree + 1, comps)


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
    comps: dict = {}
    for J, w in P.comps.items():
        jset = set(J)
        for I, c in a.comps.items():
            if not jset <= set(I):
                continue
            K = tuple(i for i in I if i not in jset)
            sign = _merge_sign(J, K)
            accumulate(comps, K, w * c if sign > 0 else -(w * c))
    return Form(a.table, a.degree - P.degree, comps)


def pairing(a: Form, P: MultiVector) -> RationalFunction:
    """Full contraction of equal degrees to a scalar."""
    if a.degree != P.degree:
        raise DegreeError(
            f"pairing needs equal degrees, got {a.degree} and {P.degree}"
        )
    a.table.require_same(P.table)
    total = RationalFunction.zero(a.table)
    for idx, c in a.comps.items():
        w = P.comps.get(idx)
        if w is not None:
            total = total + c * w
    return total


# --- Schouten bracket ------------------------------------------------------


def _full_bivector(P: MultiVector) -> dict:
    """Antisymmetric component dictionary {(i, j): coeff} for i != j."""
    full: dict = {}
    for (i, j), c in P.comps.items():
        full[(i, j)] = c
        full[(j, i)] = -c
    return full


def schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Schouten bracket for degrees (1, q) and (2, 2).

    (1, q) is the Lie derivative of Q along the vector field P; (2, 2) is
    the coordinate formula whose vanishing on a bivector pair is exactly
    the compatibility (mixed Jacobi) condition."""
    if not isinstance(P, MultiVector) or not isinstance(Q, MultiVector):
        raise UnsupportedDegrees("schouten acts on multivectors")
    P.table.require_same(Q.table)
    if P.degree == 1:
        return _lie_derivative(P, Q)
    if P.degree == 2 and Q.degree == 2:
        return _schouten_22(P, Q)
    raise UnsupportedDegrees(
        f"degrees ({P.degree}, {Q.degree}) not supported"
    )


def _lie_derivative(X: MultiVector, Q: MultiVector) -> MultiVector:
    table = X.table
    comps: dict = {}
    for J, c in Q.comps.items():
        # transport of the coefficient along X
        for (xi,), xc in X.comps.items():
            accumulate(comps, J, xc * c.derivative(xi))
        # frame correction: [X, D_j] = -sum_b (d_j X^b) D_b in each slot
        for m, jm in enumerate(J):
            rest = J[:m] + J[m + 1 :]
            rest_set = set(rest)
            for (b,), xc in X.comps.items():
                if b in rest_set:
                    continue
                dx = xc.derivative(jm)
                if dx.is_zero():
                    continue
                if b == jm:
                    accumulate(comps, J, -(c * dx))
                    continue
                placed = J[:m] + (b,) + J[m + 1 :]
                sorted_idx = tuple(sorted(placed))
                sign = _permutation_sign(placed, sorted_idx)
                value = c * dx
                accumulate(comps, sorted_idx, -(value * sign))
    return MultiVector(table, Q.degree, comps)


def _permutation_sign(src: tuple, dst: tuple) -> int:
    """Sign of the permutation carrying src (distinct entries) onto dst."""
    src = list(src)
    sign = 1
    for i, want in enumerate(dst):
        j = src.index(want, i)
        if j != i:
            src[i], src[j] = src[j], src[i]
            sign = -sign
    return sign


def _schouten_22(P: MultiVector, Q: MultiVector) -> MultiVector:
    table = P.table
    geo = table.geometric_indices
    Pm = _full_bivector(P)
    Qm = _full_bivector(Q)
    zero = RationalFunction.zero(table)
    comps: dict = {}
    for h, i, j in combinations(geo, 3):
        acc = zero
        for l in geo:
            for A, B in ((Pm, Qm), (Qm, Pm)):
                for x, y, z in ((h, i, j), (i, j, h), (j, h, i)):
                    a = A.get((l, x))
                    if a is None:
                        continue
                    b = B.get((y, z))
                    if b is None:
                        continue
                    db = b.derivative(l)
                    if not db.is_zero():
                        acc = acc + a * db
        if not acc.is_zero():
            comps[(h, i, j)] = acc
    return MultiVector(table, 3, comps)
