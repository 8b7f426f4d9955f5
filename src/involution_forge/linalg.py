"""Exact linear algebra over the rational-function field.

Matrices are plain lists of lists of RationalFunction sharing one variable
table.  Two Gauss-Jordan loops, one per domain, pivot alike: scan columns
left to right and take the first row whose entry is not identically zero.
Over Q(x) the elimination is fraction-free: each row is cleared to
polynomial numerators, every update is one exact polynomial division, and
each entry read off is cancelled once.  The field loop runs on Fraction
entries, for the rank at a point.  A pivot chosen this way may still
vanish on a subvariety; results are generic in that sense, which is the
intended reading everywhere this module is used.

``sampled_rank`` is the package's one sampled-rank loop.  A draw is uniform
on [-B, B]^n for B = symexpr.SAMPLE_BOUND, so by Schwartz-Zippel a nonzero
minor of degree D vanishes there with probability at most D/(2B + 1).
"""

from __future__ import annotations

from math import prod

from .errors import Degenerate, DimensionMismatch, Inconsistent
from .symexpr import (
    Polynomial,
    RationalFunction,
    RationalPoint,
    VarTable,
    as_ratfun,
    over_common_denominator,
    poly_exact_div,
    sample_point,
)


# points drawn per sampled rank; rank is lower semicontinuous, so the best
# rank over a few generic draws is attained at the returned point
RANK_DRAWS = 4


def identity(table: VarTable, n: int) -> list:
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _eliminate(rows: list):
    """Gauss-Jordan elimination over any exact field whose elements are
    falsy exactly at zero and support ``1 / v``, ``v * w``, ``v - w``,
    ``v * 0`` and ``v ** 0``: the loop for Fraction entries, and on
    RationalFunction entries the oracle of the fraction-free loop.

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


def _cleared(rows: list, table: VarTable):
    """Each row as polynomial numerators over the lcm of its monic
    denominators; returns (numerator rows, [row denominators])."""
    numerators, dens = [], []
    for row in rows:
        [part], common = over_common_denominator(dict(enumerate(row)))
        numerators.append([part[j].num for j in range(len(row))])
        dens.append(table.one if common is None else common.num)
    return numerators, dens


def _fraction_free(work: list, table: VarTable):
    """Fraction-free Gauss-Jordan elimination of polynomial rows, in place.

    Row i stands for level_i times its row in the field elimination, at
    level 1 to begin with.  A pivot step with pivot p brings each row i
    whose entry f in the pivot column is nonzero to level p, entry by
    entry as (p*a - f*b) / level_i against the pivot row's entry b; the
    division is exact.  A row with f = 0 keeps its level, as Gauss-Jordan
    leaves it.  The pivot row is first rescaled to the last pivot when its
    level lags, so that p is the leading minor of the rows and columns
    chosen so far (Bareiss), and then takes p as its level.  A pivot row
    reads off as its entries over its level.  Returns (levels,
    pivot_columns, sign), sign being the parity of the row swaps."""
    m, n = len(work), len(work[0]) if work else 0
    zero = Polynomial.zero(table)
    levels = [table.one] * m
    pivots, sign, current = [], 1, table.one
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if work[i][col].terms),
                         None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            levels[r], levels[pivot_row] = levels[pivot_row], levels[r]
            sign = -sign
        # rows are zero left of col from r down, so a lagging pivot row is
        # rescaled from col on
        row = work[r]
        if levels[r] != current:
            row[col:] = [poly_exact_div(v * current, levels[r])
                         if v.terms else v for v in row[col:]]
        pivot = row[col]
        # every other row's entry in the pivot column clears to zero
        rest = [zero] * (col + 1) + row[col + 1:]
        for i in range(m):
            factor = work[i][col]
            if i == r or not factor.terms:
                continue
            work[i][col] = zero
            level = levels[i]
            work[i] = [poly_exact_div(pivot * a - factor * b, level)
                       if a.terms or b.terms else a
                       for a, b in zip(work[i], rest)]
            levels[i] = pivot
        levels[r] = current = pivot
        pivots.append(col)
        r += 1
    return levels, pivots, sign


def rref(rows: list):
    """Reduced row echelon form, by the fraction-free loop over Q(x) and by
    the field loop otherwise.  Returns (reduced, pivot_columns)."""
    first = next((v for row in rows for v in row), None)
    if not isinstance(first, RationalFunction):
        return _eliminate(rows)[:2]
    table = first.table
    work, _ = _cleared(rows, table)
    levels, pivots, _ = _fraction_free(work, table)
    zero, one = RationalFunction.zero(table), RationalFunction.one(table)
    # the rows past the rank are zero; each pivot row is level times its
    # reduced row, so its pivot entry is its level
    reduced = [[zero] * len(row) for row in work]
    for r, col in enumerate(pivots):
        level = levels[r]
        reduced[r] = [one if j == col else
                      RationalFunction(v, level) if v.terms else zero
                      for j, v in enumerate(work[r])]
    return reduced, pivots


def _kernel(reduced: list, pivots: list, width: int, table: VarTable):
    """Basis of the right kernel read off a reduced matrix, one vector per
    free column among the first ``width``; returns (basis, free)."""
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
    return basis, free


def nullspace(rows: list, table: VarTable, width: int) -> list:
    """Basis of the right kernel of a matrix with ``width`` columns, one
    vector per free column."""
    reduced, pivots = rref(rows)
    return _kernel(reduced, pivots, width, table)[0]


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
    particular = [RationalFunction.zero(table)] * width
    for r, col in enumerate(pivots):
        particular[col] = reduced[r][width]
    kernel, free = _kernel(reduced, pivots, width, table)
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
    """Determinant: the last pivot of the fraction-free elimination, the
    determinant of the cleared rows up to the sign of the row swaps, over
    the product of the row denominators."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    work, dens = _cleared(rows, table)
    levels, pivots, sign = _fraction_free(work, table)
    if len(pivots) < n:
        return RationalFunction.zero(table)
    last = levels[-1] if levels else table.one
    return RationalFunction(last if sign > 0 else -last,
                            prod(dens, start=table.one))


def rank_at_point(rows: list, point: RationalPoint) -> int:
    """Rank of the matrix evaluated at a rational point."""
    return len(rref([[v.evaluate(point) for v in row] for row in rows])[1])


def sampled_rank(rows: list, table: VarTable, rng, target=None, avoid=(),
                 skew=False):
    """Best rank of the matrix over RANK_DRAWS points sampled off the poles
    of its entries and the zeros of ``avoid``, stopping early only at the
    first draw that reaches a given ``target``; returns (best rank, the
    point where it was first attained).  A ``skew`` (antisymmetric) matrix
    is read off its strict upper triangle: each pair gives one guard and
    one value per draw, and the value's negative fills the mirror entry.
    The guards it drops are copies, so the same points are accepted.  Past
    the largest rank the shape allows, points are drawn but not evaluated."""
    cells = [(i, j) for i, row in enumerate(rows)
             for j in range(i + 1 if skew else 0, len(row)) if row[j]]
    guards = [rows[i][j].den for i, j in cells
              if not rows[i][j].den.is_constant()]
    guards.extend(avoid)
    n = len(rows)
    full = n - n % 2 if skew else min(n, len(rows[0]) if rows else 0)
    best, best_point = -1, None
    for _ in range(RANK_DRAWS):
        point = sample_point(table, guards, rng)
        if best == full:
            continue
        values = [[0] * len(row) for row in rows]
        for i, j in cells:
            values[i][j] = value = rows[i][j].evaluate(point)
            if skew:
                values[j][i] = -value
        rank = len(rref(values)[1])
        if rank > best:
            best, best_point = rank, point
        if best == target:
            break
    return best, best_point
