"""Exact linear algebra over the rational-function field.

Matrices are plain lists of lists of RationalFunction sharing one variable
table.  Elimination uses deterministic pivoting: scan columns left to right
and take the first row whose entry is not identically zero.  A pivot chosen
this way may still vanish on a subvariety; results are generic in that sense,
which is the intended reading everywhere this module is used.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Degenerate, DimensionMismatch, Inconsistent
from .symexpr import (
    SAMPLE_RETRIES,
    RationalFunction,
    RationalPoint,
    VarTable,
    as_ratfun,
    sample_point,
)


def identity(table: VarTable, n: int) -> list:
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise DimensionMismatch(
            f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}"
        )
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for k, v in enumerate(row):
                if not v.is_zero():
                    acc = acc + v * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def mat_vec(a: list, v: list) -> list:
    return [row_col for [row_col] in mat_mul(a, [[x] for x in v])]


def rref(rows: list):
    """Reduced row echelon form.  Returns (reduced, pivot_columns)."""
    if not rows:
        return [], []
    work = [list(row) for row in rows]
    m, n = len(work), len(work[0])
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = None
        for i in range(r, m):
            if not work[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col].inverse()
        work[r] = [v * inv for v in work[r]]
        for i in range(m):
            if i == r:
                continue
            factor = work[i][col]
            if factor.is_zero():
                continue
            work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return work, pivots


def nullspace(rows: list, table: VarTable, width: int = None) -> list:
    """Basis of the right kernel, one vector per free column."""
    if width is None:
        if not rows:
            raise DimensionMismatch("cannot infer width of an empty matrix")
        width = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    zero = RationalFunction.zero(table)
    one = RationalFunction.one(table)
    basis = []
    for f in free:
        vec = [zero] * width
        vec[f] = one
        for r, col in enumerate(pivots):
            vec[col] = -reduced[r][f]
        basis.append(vec)
    return basis


def solve_linear(rows: list, rhs: list, table: VarTable):
    """General solution of A x = b.

    Returns (particular, kernel_basis, free_columns).  The particular
    solution sets every free column to zero; raises Inconsistent when the
    system has no solution."""
    if len(rows) != len(rhs):
        raise DimensionMismatch(
            f"{len(rows)} equations but {len(rhs)} right-hand sides"
        )
    if not rows:
        return [], [], []
    width = len(rows[0])
    augmented = [
        list(row) + [as_ratfun(table, b)] for row, b in zip(rows, rhs)
    ]
    reduced, pivots = rref(augmented)
    if width in pivots:
        raise Inconsistent("no solution: pivot in the right-hand column")
    zero = RationalFunction.zero(table)
    particular = [zero] * width
    for r, col in enumerate(pivots):
        particular[col] = reduced[r][width]
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    kernel = nullspace([row[:width] for row in reduced], table, width)
    return particular, kernel, free


def invert(rows: list, table: VarTable) -> list:
    """Matrix inverse; raises Degenerate when the matrix is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("inverse needs a square matrix")
    augmented = [list(row) + ident_row
                 for row, ident_row in zip(rows, identity(table, n))]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise Degenerate("component matrix is singular")
    return [row[n:] for row in reduced]


def det(rows: list, table: VarTable) -> RationalFunction:
    """Determinant by fraction-field Gaussian elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 0:
        return RationalFunction.one(table)
    work = [list(row) for row in rows]
    sign = 1
    result = RationalFunction.one(table)
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if not work[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return RationalFunction.zero(table)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        result = result * pivot
        inv = pivot.inverse()
        for i in range(col + 1, n):
            factor = work[i][col]
            if factor.is_zero():
                continue
            work[i] = [a - factor * inv * b
                       for a, b in zip(work[i], work[col])]
    return result if sign > 0 else -result


def rank_at_point(rows: list, point: RationalPoint) -> int:
    """Rank of the matrix evaluated at a rational point."""
    values = [[v.evaluate(point) for v in row] for row in rows]
    m = len(values)
    if m == 0:
        return 0
    n = len(values[0])
    rank = 0
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if values[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        values[rank], values[pivot_row] = values[pivot_row], values[rank]
        pivot = values[rank][col]
        for i in range(rank + 1, m):
            factor = values[i][col]
            if factor:
                ratio = Fraction(factor, pivot)
                values[i] = [a - ratio * b
                             for a, b in zip(values[i], values[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def sampled_rank(rows: list, table: VarTable, guards, rng, target: int):
    """Best rank of the matrix over up to SAMPLE_RETRIES sampled points,
    stopping at the first draw that reaches ``target``; returns
    (best rank, the point where it was first attained)."""
    best, best_point = -1, None
    for _ in range(SAMPLE_RETRIES):
        point = sample_point(table, guards, rng)
        rank = rank_at_point(rows, point)
        if rank > best:
            best, best_point = rank, point
        if best == target:
            break
    return best, best_point
