"""Dense exact linear algebra over the rational-function field."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from involution_forge import (
    Degenerate,
    DimensionMismatch,
    Inconsistent,
    PoleAtPoint,
    RationalFunction,
    RationalPoint,
    VarTable,
    linalg,
    parse_ratfun,
    sample_point,
)
from involution_forge.linalg import (
    RANK_DRAWS,
    det,
    identity,
    invert,
    nullspace,
    rank_at_point,
    rref,
    sampled_rank,
    solve_linear,
)
from helpers import (
    mat_mul,
    mat_vec,
    random_polynomial,
    reference_sampled_rank,
)


@pytest.fixture(scope="module")
def table():
    return VarTable.build(["x1", "x2", "x3"])


# entry sparsity matters a great deal here: exact elimination over the
# rational-function field reduces through multivariate gcds, so the dense
# multi-term cases stay tiny while the larger shapes use monomial entries
def random_matrix(table, rng, n, m=None, terms=1):
    m = n if m is None else m
    return [[random_polynomial(table, rng, terms=terms, degree=1, bound=3)
             for _ in range(m)] for _ in range(n)]


def det_by_permutation_expansion(rows, table):
    n = len(rows)
    total = RationalFunction.zero(table)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = RationalFunction.constant(table,
                                         Fraction((-1) ** inversions))
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_det_matches_permutation_expansion(table):
    rng = Random(31)
    for n, terms, draws in ((2, 2, 6), (3, 2, 3), (4, 1, 4)):
        for _ in range(draws):
            rows = random_matrix(table, rng, n, terms=terms)
            assert det(rows, table) == det_by_permutation_expansion(
                rows, table)


def test_det_is_multiplicative(table):
    rng = Random(33)
    for n, terms, draws in ((2, 2, 4), (3, 1, 4)):
        for _ in range(draws):
            a = random_matrix(table, rng, n, terms=terms)
            b = random_matrix(table, rng, n, terms=terms)
            assert det(mat_mul(a, b), table) == det(a, table) * det(b, table)


def test_det_alternates_under_row_swap(table):
    rng = Random(35)
    rows = random_matrix(table, rng, 3)
    swapped = [rows[1], rows[0], rows[2]]
    assert det(swapped, table) == -det(rows, table)


def test_det_requires_square(table):
    one = RationalFunction.one(table)
    with pytest.raises(DimensionMismatch):
        det([[one, one]], table)


def test_invert_round_trip(table):
    rng = Random(37)
    done = 0
    while done < 6:
        rows = random_matrix(table, rng, 3)
        if det(rows, table).is_zero():
            continue
        inv = invert(rows, table)
        assert mat_mul(rows, inv) == identity(table, 3)
        assert mat_mul(inv, rows) == identity(table, 3)
        done += 1


def test_invert_rejects_singular(table):
    x1 = random_polynomial(table, Random(39), terms=1, degree=1, bound=2)
    rows = [[x1, x1], [x1, x1]]
    with pytest.raises(Degenerate):
        invert(rows, table)


def test_rref_shape_and_idempotence(table):
    rng = Random(41)
    for _ in range(8):
        rows = random_matrix(table, rng, 3, 4)
        reduced, pivots = rref(rows)
        again, pivots2 = rref(reduced)
        assert again == reduced
        assert pivots == pivots2
        one = RationalFunction.one(table)
        for row_index, col in enumerate(pivots):
            assert reduced[row_index][col] == one
            for other in range(len(reduced)):
                if other != row_index:
                    assert reduced[other][col].is_zero()


def test_nullspace_vectors_annihilate(table):
    rng = Random(43)
    for _ in range(8):
        rows = random_matrix(table, rng, 2, 4)
        basis = nullspace(rows, table, width=4)
        _, pivots = rref([row[:] for row in rows])
        assert len(basis) == 4 - len(pivots)
        zero = RationalFunction.zero(table)
        for vec in basis:
            image = mat_vec(rows, vec)
            assert all(entry == zero for entry in image)


def test_solve_linear_particular_and_kernel(table):
    rng = Random(47)
    one = RationalFunction.one(table)
    x1 = random_polynomial(table, rng, terms=1, degree=1, bound=1)
    particular, kernel, free = solve_linear([[one, one]], [x1], table)
    assert mat_vec([[one, one]], particular) == [x1]
    for vec in kernel:
        assert all(e.is_zero() for e in mat_vec([[one, one]], vec))
    assert free == [1]


def test_solve_linear_full_rank_unique(table):
    rng = Random(49)
    done = 0
    while done < 5:
        rows = random_matrix(table, rng, 3)
        if det(rows, table).is_zero():
            continue
        rhs = [random_polynomial(table, rng, terms=2, degree=1, bound=3)
               for _ in range(3)]
        particular, kernel, free = solve_linear(rows, rhs, table)
        assert mat_vec(rows, particular) == rhs
        assert kernel == []
        assert free == []
        done += 1


def test_solve_linear_inconsistent(table):
    one = RationalFunction.one(table)
    zero = RationalFunction.zero(table)
    with pytest.raises(Inconsistent):
        solve_linear([[one, one], [one, one]], [one, zero], table)


def test_rank_at_point_agrees_with_det(table):
    rng = Random(53)
    for _ in range(10):
        rows = random_matrix(table, rng, 3)
        d = det(rows, table)
        point = sample_point(table, [d] if not d.is_zero() else [], rng)
        full = rank_at_point(rows, point) == 3
        assert full == (not d.is_zero())


def random_fraction_matrix(rng, m, n, rank=None):
    """A seeded m x n Fraction matrix; with ``rank`` given, the product of
    an m x rank and a rank x n factor, so its rank is at most ``rank``."""
    def draw(rows, cols):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(cols)] for _ in range(rows)]
    if rank is None:
        return draw(m, n)
    left, right = draw(m, rank), draw(rank, n)
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(n)] for i in range(m)]


def test_rref_over_fractions_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(57)
    shapes = [(n, n, None) for n in (1, 2, 3, 4, 5)]
    shapes += [(4, 4, 2), (5, 5, 3), (3, 5, 2), (5, 3, 1), (4, 6, 3)]
    for m, n, rank in shapes:
        for _ in range(3):
            rows = random_fraction_matrix(rng, m, n, rank)
            reduced, pivots = rref(rows)
            expected, expected_pivots = sympy.Matrix(rows).rref()
            assert pivots == list(expected_pivots)
            assert reduced == [
                [Fraction(int(v.p), int(v.q)) for v in expected.row(i)]
                for i in range(m)
            ]


def test_rank_at_point_matches_sympy_on_rank_deficient_matrices(table):
    sympy = pytest.importorskip("sympy")
    rng = Random(59)
    for m, n, rank in ((3, 3, 1), (3, 3, 2), (4, 3, 2), (3, 4, 1), (4, 4, 3)):
        left = random_matrix(table, rng, m, rank)
        right = random_matrix(table, rng, rank, n)
        rows = mat_mul(left, right)
        point = sample_point(table, [], rng)
        values = [[v.evaluate(point) for v in row] for row in rows]
        expected = sympy.Matrix(values).rank()
        assert expected <= rank
        assert rank_at_point(rows, point) == expected


def _scripted_draws(monkeypatch, table, values):
    """Make sampled_rank draw x1 = each of ``values`` in turn (x2 = x3 =
    1), passing over a point where a guard vanishes or has a pole as
    sample_point does; returns the list of points drawn so far, passed
    over or not."""
    drawn = []

    def admissible(point, guards):
        try:
            return all(g.evaluate(point) != 0 for g in guards)
        except PoleAtPoint:
            return False

    def draw(tab, guards, rng):
        while True:
            drawn.append(RationalPoint(tab, (values[len(drawn)], 1, 1)))
            if admissible(drawn[-1], guards):
                return drawn[-1]

    monkeypatch.setattr(linalg, "sample_point", draw)
    return drawn


def test_sampled_rank_without_a_target_takes_every_draw(table, monkeypatch):
    # generic rank 2, dropping to 1 on x1 = 0: the best rank is the one
    # first attained, and all RANK_DRAWS points are drawn
    rows = [[parse_ratfun("x1", table), parse_ratfun("x2", table)],
            [parse_ratfun("0", table), parse_ratfun("x1*x3", table)]]
    values = [0, 0, 7, 9]
    assert len(values) == RANK_DRAWS
    drawn = _scripted_draws(monkeypatch, table, values)
    rank, point = sampled_rank(rows, table, Random(0))
    assert (rank, point) == (2, drawn[2])
    assert len(drawn) == RANK_DRAWS


def test_sampled_rank_stops_at_the_first_draw_reaching_the_target(
        table, monkeypatch):
    rows = [[parse_ratfun("x1", table), parse_ratfun("x2", table)],
            [parse_ratfun("0", table), parse_ratfun("x1*x3", table)]]
    drawn = _scripted_draws(monkeypatch, table, [0, 0, 7, 9])
    assert sampled_rank(rows, table, Random(0), target=2) == (2, drawn[2])
    assert len(drawn) == 3
    # a target beyond reach draws RANK_DRAWS points and reports the best
    drawn.clear()
    assert sampled_rank(rows, table, Random(0), target=3)[0] == 2
    assert len(drawn) == RANK_DRAWS


def test_sampled_rank_draws_off_its_poles_and_the_avoided_zeros(
        table, monkeypatch):
    # x1 = 2 is a pole of an entry and x1 = 5 a zero of ``avoid``: both
    # draws are passed over without a guard from the caller
    rows = [[parse_ratfun("1/(x1 - 2)", table), parse_ratfun("x2", table)],
            [parse_ratfun("0", table), parse_ratfun("x3", table)]]
    avoid = [parse_ratfun("x1 - 5", table)]
    drawn = _scripted_draws(monkeypatch, table, [2, 5, 7])
    assert sampled_rank(rows, table, Random(0), target=2, avoid=avoid) == (
        2, drawn[2])
    assert [point.values[0] for point in drawn] == [2, 5, 7]
    # without ``avoid`` only the pole is passed over
    drawn.clear()
    assert sampled_rank(rows, table, Random(0), target=2) == (2, drawn[1])
    assert [point.values[0] for point in drawn] == [2, 5]


def test_skew_sampled_rank_reads_the_upper_triangle(table, monkeypatch):
    # rank 2, dropping to 0 on x1 = 0; a pole at x1 = 2 and, via
    # ``avoid``, a zero at x1 = 5.  Only the strict upper triangle is
    # read (the ones below would make the rank 3), and the points drawn
    # are those of the full antisymmetric matrix.
    upper = [["1", "x1/(x1 - 2)", "x1*x2"],
             ["1", "1", "x1*x3"],
             ["1", "1", "1"]]
    upper = [[parse_ratfun(v, table) for v in row] for row in upper]
    zero = RationalFunction.zero(table)
    full = [[upper[i][j] if i < j else -upper[j][i] if i > j else zero
             for j in range(3)] for i in range(3)]
    avoid = [parse_ratfun("x1 - 5", table)]
    values = [2, 0, 5, 0, 7, 9]
    for target, draws in ((None, 6), (2, 5)):
        drawn = _scripted_draws(monkeypatch, table, values)
        expected = sampled_rank(full, table, Random(0), target, avoid)
        assert expected == (2, drawn[4]) and len(drawn) == draws
        full_draws = list(drawn)
        drawn.clear()
        assert sampled_rank(upper, table, Random(0), target, avoid,
                            skew=True) == expected
        assert drawn == full_draws


def test_sampled_rank_skips_only_what_cannot_raise_the_rank(table,
                                                            monkeypatch):
    # once the best rank is the largest the shape allows, the remaining
    # points are drawn but neither evaluated nor eliminated: the rank, the
    # point and the final rng state are those of the loop that evaluates
    # every draw.  A full-rank skew matrix, a skew one of rank 2 in size 4,
    # and a full-rank 2x3 one, with a pole and an avoided zero
    def matrix(text):
        return [[parse_ratfun(v, table) for v in row] for row in text]

    def skew(text):
        upper = matrix(text)
        return [[upper[i][j] if i < j else -upper[j][i] if i > j
                 else upper[i][i] * 0 for j in range(len(upper))]
                for i in range(len(upper))]

    cases = [
        (skew([["0", "x1", "x2/(x1 - x3)", "1"], ["0", "0", "x3", "x2"],
               ["0", "0", "0", "x1*x2"], ["0", "0", "0", "0"]]), True, 1),
        (skew([["0", "x1", "x2", "0"], ["0", "0", "0", "0"],
               ["0", "0", "0", "0"], ["0", "0", "0", "0"]]), True, RANK_DRAWS),
        (matrix([["x1", "x2", "1/(x2 + 1)"], ["x2", "x3", "x1*x3"]]), False,
         1),
    ]
    avoid = [parse_ratfun("x1 - x2", table)]
    eliminations = []
    real_rref = linalg.rref

    def counting(rows):
        eliminations.append(rows)
        return real_rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    for rows, is_skew, evaluated in cases:
        for seed in range(3):
            eliminations.clear()
            rng, reference_rng = Random(seed), Random(seed)
            got = sampled_rank(rows, table, rng, avoid=avoid, skew=is_skew)
            assert got == reference_sampled_rank(
                rows, table, reference_rng, avoid=avoid, skew=is_skew)
            assert rng.getstate() == reference_rng.getstate()
            assert len(eliminations) == evaluated
