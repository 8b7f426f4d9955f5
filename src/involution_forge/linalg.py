"""Exact linear algebra over the rational-function field.

Matrices are plain lists of lists of RationalFunction sharing one variable
table, or of Fraction and int entries for the rank at a point.  One
Gauss-Jordan loop serves both: it scans columns left to right and takes
the first row whose entry is not zero.  It is fraction-free: each row is
cleared to integer or polynomial numerators, every update is one exact
division, and each entry read off is cancelled once.  A pivot chosen this
way may still vanish on a subvariety; results are generic in that sense,
which is the intended reading everywhere this module is used.

``sampled_rank`` is the package's one sampled-rank loop.  A draw is uniform
on [-B, B]^n for B = symexpr.SAMPLE_BOUND, so by Schwartz-Zippel a nonzero
minor of degree D vanishes there with probability at most D/(2B + 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import Degenerate, DimensionMismatch, Inconsistent
from .symexpr import (
    RationalFunction,
    RationalPoint,
    VarTable,
    as_ratfun,
    over_common_denominator,
    sample_point,
)


# points drawn per sampled rank; rank is lower semicontinuous, so the best
# rank over a few generic draws is attained at the returned point
RANK_DRAWS = 4


def identity(table: VarTable, n: int) -> list:
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _cleared(rows: list):
    """Each row cleared of its denominators: a Fraction or int row by the
    lcm of its denominators, a RationalFunction row to polynomial
    numerators over the lcm of its monic denominators; returns (numerator
    rows, [row denominators])."""
    numerators, dens = [], []
    for row in rows:
        if row and isinstance(row[0], RationalFunction):
            [part], common = over_common_denominator(dict(enumerate(row)))
            numerators.append([part[j].num for j in range(len(row))])
            dens.append(row[0].table.one if common is None else common.num)
        else:
            den = lcm(*(v.denominator for v in row))
            numerators.append([v.numerator * (den // v.denominator)
                               for v in row])
            dens.append(den)
    return numerators, dens


def _fraction_free(work: list):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer or
    polynomial rows, in place: the one elimination loop.  Entries are
    falsy exactly at zero and divide exactly by ``//``.

    Row i stands for level_i times its row in the field elimination, at
    level 1 to begin with.  A pivot step with pivot p brings each row i
    whose entry f in the pivot column is nonzero to level p, entry by
    entry as (p*a - f*b) // level_i against the pivot row's entry b; the
    division is exact.  A row with f = 0 keeps its level, as Gauss-Jordan
    leaves it.  The pivot row is first rescaled to the last pivot when its
    level lags, so that p is the leading minor of the rows and columns
    chosen so far (Bareiss), and then takes p as its level.  A pivot row
    reads off as its entries over its level.  Returns (levels,
    pivot_columns, sign), sign being the parity of the row swaps."""
    m, n = len(work), len(work[0]) if work else 0
    if not n:
        return [], [], 1
    zero, one = work[0][0] * 0, work[0][0] ** 0
    levels = [one] * m
    pivots, sign, current = [], 1, one
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if work[i][col]), None)
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
            row[col:] = [v * current // levels[r] if v else v
                         for v in row[col:]]
        pivot = row[col]
        # every other row's entry in the pivot column clears to zero
        rest = [zero] * (col + 1) + row[col + 1:]
        for i in range(m):
            factor = work[i][col]
            if i == r or not factor:
                continue
            work[i][col] = zero
            level = levels[i]
            work[i] = [(pivot * a - factor * b) // level if a or b else a
                       for a, b in zip(work[i], rest)]
            levels[i] = pivot
        levels[r] = current = pivot
        pivots.append(col)
        r += 1
    return levels, pivots, sign


def _rank(rows: list) -> int:
    """Rank of a matrix, read off the loop with no reduced matrix built."""
    work, _ = _cleared(rows)
    return len(_fraction_free(work)[1])


def rref(rows: list):
    """Reduced row echelon form of a matrix of RationalFunction, Fraction
    or int entries; returns (reduced, pivot_columns)."""
    work, _ = _cleared(rows)
    levels, pivots, _ = _fraction_free(work)
    if not pivots:
        return [list(row) for row in rows], pivots
    sample = rows[0][0]
    zero, one = sample * 0, sample ** 0
    over = RationalFunction if isinstance(sample, RationalFunction) else Fraction
    # the rows past the rank are zero; each pivot row is level times its
    # reduced row, so its pivot entry is its level
    reduced = [[zero] * len(row) for row in work]
    for r, col in enumerate(pivots):
        level = levels[r]
        reduced[r] = [one if j == col else over(v, level) if v else zero
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
    work, dens = _cleared(rows)
    levels, pivots, sign = _fraction_free(work)
    if len(pivots) < n:
        return RationalFunction.zero(table)
    last = levels[-1] if levels else table.one
    return RationalFunction(last if sign > 0 else -last,
                            prod(dens, start=table.one))


def rank_at_point(rows: list, point: RationalPoint) -> int:
    """Rank of the matrix evaluated at a rational point."""
    return _rank([[v.evaluate(point) for v in row] for row in rows])


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
        rank = _rank(values)
        if rank > best:
            best, best_point = rank, point
        if best == target:
            break
    return best, best_point
