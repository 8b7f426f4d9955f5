"""Dense exact linear algebra over the rational-function field."""

import itertools
from fractions import Fraction
from random import Random
from unittest import mock

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
from involution_forge import pencil as pencil_module
from involution_forge import symexpr
from involution_forge.cli import elaborate_ansatz
from involution_forge.fixtures import load_fixture
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
    field_det,
    field_rref,
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
    cases = [random_fraction_matrix(rng, m, n, rank)
             for m, n, rank in shapes for _ in range(3)]
    # an all-zero matrix, one with no rows, and one of ints alone whose
    # second row is a multiple of its first
    cases += [[[Fraction(0)] * 4 for _ in range(3)], [],
              [[2, -4, 6, 1], [-4, 8, -12, -2], [0, 3, 1, 5]]]
    for rows in cases:
        reduced, pivots = rref(rows)
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [Fraction(int(v.p), int(v.q)) for v in expected.row(i)]
            for i in range(len(rows))
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
    real_rank = linalg._rank

    def counting(rows):
        eliminations.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(linalg, "_rank", counting)
    for rows, is_skew, evaluated in cases:
        for seed in range(3):
            eliminations.clear()
            rng, reference_rng = Random(seed), Random(seed)
            got = sampled_rank(rows, table, rng, avoid=avoid, skew=is_skew)
            assert got == reference_sampled_rank(
                rows, table, reference_rng, avoid=avoid, skew=is_skew)
            assert rng.getstate() == reference_rng.getstate()
            assert len(eliminations) == evaluated


# --- the fraction-free loop against the field loop ------------------------------

# field_rref and field_det, from the field loop in helpers, are the oracle

def _outcome(fn, *args):
    """fn's result, or the class of the Degenerate or Inconsistent it
    raises."""
    try:
        return fn(*args)
    except (Degenerate, Inconsistent) as err:
        return type(err)


def _results(rows, table, det_fn):
    """Everything linalg reads off an elimination of ``rows``: the RREF, the
    nullspace, the solution with the last column as right-hand side, and
    the inverse and determinant of the leading square block."""
    k = min(len(rows), len(rows[0]))
    square = [row[:k] for row in rows[:k]]
    return {
        "rref": linalg.rref(rows),
        "nullspace": linalg.nullspace(rows, table, len(rows[0])),
        "solve": _outcome(linalg.solve_linear, [row[:-1] for row in rows],
                          [row[-1] for row in rows], table),
        "invert": _outcome(linalg.invert, square, table),
        "det": det_fn(square, table),
    }


def assert_matches_field_loop(rows, table):
    """Assert that the fraction-free loop reads off what the field loop
    does; returns the field loop's pivot columns."""
    got = _results(rows, table, linalg.det)
    with mock.patch.object(linalg, "rref", field_rref):
        expected = _results(rows, table, field_det)
    assert got == expected
    return expected["rref"][1]


ORACLE_TABLE = VarTable.build(["x1", "x2", "x3", ("k", "constant")])
CONSTANTS = ("1", "-1", "2", "-3/2", "5")
# k is an inert symbolic constant, as the free unknowns of the ansatz are
POLYNOMIALS = ("x1", "x2 - 1", "x1*x2 + k", "k", "k*x3 - 2", "x3^2 - x1")
# x1 + 1 is shared by several entries, x2 - 2 and x1*x3 + 3 are coprime to it
FRACTIONS = ("1/(x1 + 1)", "x2/(x1 + 1)", "(x1 - k)/(x1 + 1)",
             "1/(x2 - 2)", "x1/(x1*x3 + 3)", "k/(x2 - 2)")


def _features(rows, pivots):
    """The cases a matrix with these pivot columns covers, among those the
    oracle test must see."""
    m, n = len(rows), len(rows[0])
    found = set()
    if len(pivots) < min(m, n):
        found.add("rank deficient")
    if any(not any(row[j] for row in rows) for j in range(n)):
        found.add("zero column")
    if pivots and not rows[0][pivots[0]]:
        found.add("row swap")
    entries = [v for row in rows for v in row if v]
    if entries and all(v.num.is_constant() and v.is_polynomial()
                       for v in entries):
        found.add("all constant")
    if any(v.involves(ORACLE_TABLE.index("k")) for v in entries):
        found.add("symbolic constant")
    for row in rows:
        dens = [v.den for v in row if not v.is_polynomial()]
        if len(dens) != len({frozenset(d.terms.items()) for d in dens}):
            found.add("shared denominators")
        if any(symexpr.poly_gcd(a, b).is_constant()
               for a, b in itertools.combinations(dens, 2)):
            found.add("coprime denominators")
    return found


def test_fraction_free_loop_matches_the_field_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = ORACLE_TABLE
    zero = RationalFunction.zero(table)

    @st.composite
    def matrices(draw):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
        palette = draw(st.sampled_from(
            [CONSTANTS, CONSTANTS + POLYNOMIALS, POLYNOMIALS + FRACTIONS]))
        # half the entries zero, as in the systems the package solves
        entry = st.one_of(st.just("0"), st.sampled_from(palette))
        rows = [[parse_ratfun(draw(entry), table) for _ in range(n)]
                for _ in range(m)]
        for col in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in rows:
                row[col] = zero
        if m > 1 and draw(st.booleans()):
            # one row a combination of two others: the rank drops
            i, j, l = (draw(st.integers(0, m - 1)) for _ in range(3))
            c = parse_ratfun(draw(st.sampled_from(palette)), table)
            rows[i] = [c * a + b for a, b in zip(rows[j], rows[l])]
        if m > 1 and draw(st.booleans()):
            # a zero leading entry over a nonzero one: the first pivot
            # needs a row swap
            rows[0][0] = zero
            rows[1][0] = parse_ratfun(draw(st.sampled_from(palette)), table)
        return rows

    seen = set()

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
    @hypothesis.given(matrices())
    def check(rows):
        seen.update(_features(rows, assert_matches_field_loop(rows, table)))

    check()
    assert seen == {"rank deficient", "zero column", "row swap",
                    "all constant", "symbolic constant",
                    "shared denominators", "coprime denominators"}


def test_rref_over_rational_functions_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = ORACLE_TABLE
    symbols = {name: sympy.Symbol(name) for name in table.names}

    def to_sympy(v):
        return sympy.sympify(v.render().replace("^", "**"), locals=symbols)

    cases = [
        [["x1", "1/(x1 + 1)", "x2", "k"],
         ["x1^2", "x1/(x1 + 1)", "x1*x2", "k*x1"],
         ["0", "x2/(x2 - 2)", "1", "x3"]],
        [["0", "k", "x1/(x1*x3 + 3)", "1"],
         ["x2 - 1", "0", "x3", "k*x3 - 2"],
         ["x2 - 1", "k", "x1/(x1*x3 + 3) + x3", "k*x3 - 1"]],
        [["2", "-3/2", "0", "5"], ["1", "1", "x1", "0"],
         ["0", "0", "0", "1/(x2 - 2)"]],
    ]
    for texts in cases:
        rows = [[parse_ratfun(t, table) for t in row] for row in texts]
        reduced, pivots = rref(rows)
        expected, expected_pivots = sympy.Matrix(
            [[to_sympy(v) for v in row] for row in rows]).rref(
                iszerofunc=lambda e: sympy.cancel(e) == 0,
                simplify=sympy.cancel)
        assert pivots == list(expected_pivots)
        for i, row in enumerate(reduced):
            for j, v in enumerate(row):
                assert sympy.cancel(to_sympy(v) - expected[i, j]) == 0


class _Captured(Exception):
    pass


@pytest.fixture(scope="module")
def ansatz_system():
    """The linear system of the recursion ansatz on lagrange_top:
    (rows, rhs, table), as solve_recursion_ansatz hands it over, captured
    before it is solved."""
    captured = []

    def capture(rows, rhs, table):
        captured.append((rows, rhs, table))
        raise _Captured

    problem = elaborate_ansatz(load_fixture("lagrange_top").spec, seed=0)
    with mock.patch.object(pencil_module, "solve_linear", capture), \
            pytest.raises(_Captured):
        pencil_module.solve_recursion_ansatz(
            problem.anchor, problem.sigma0, problem.basis, problem.family,
            problem.partition)
    [system] = captured
    return system


def test_ansatz_solution_is_invariant_under_row_operations(ansatz_system):
    # RREF is unique: permuting the equations, or multiplying each by a
    # nonzero polynomial, leaves the solution as it is, so a slip in the
    # per-row levels or denominators shows here
    rows, rhs, table = ansatz_system
    expected = solve_linear(rows, rhs, table)
    with mock.patch.object(linalg, "rref", field_rref):
        assert solve_linear(rows, rhs, table) == expected
    rng = Random(61)
    for _ in range(3):
        order = list(range(len(rows)))
        rng.shuffle(order)
        assert solve_linear([rows[i] for i in order], [rhs[i] for i in order],
                            table) == expected
    geo = [table.names[i] for i in table.geometric_indices]
    scales = [parse_ratfun(text, table) for text in
              ["2", "-1", f"{geo[0]} + 1", f"{geo[1]}*{geo[2]} - 3",
               f"{geo[0]}^2 - {geo[3]}"]]
    factors = [scales[i % len(scales)] for i in range(len(rows))]
    assert solve_linear([[c * v for v in row] for c, row in zip(factors, rows)],
                        [c * b for c, b in zip(factors, rhs)],
                        table) == expected


def test_ansatz_solve_cancels_once_per_entry(ansatz_system, monkeypatch):
    # the field loop takes 228 gcds on this system, one or two per
    # elimination step; the fraction-free loop takes one per entry read
    # off that is not already a polynomial over a constant level
    rows, rhs, table = ansatz_system
    calls = []
    real = symexpr.poly_gcd
    monkeypatch.setattr(symexpr, "poly_gcd",
                        lambda a, b: calls.append(1) or real(a, b))
    solve_linear(rows, rhs, table)
    assert len(calls) <= 12
