"""The certified mod-p elimination against a Fraction Gauss-Jordan oracle.

Every public elimination in ``linalg`` must return exactly what the plain
Fraction Gauss-Jordan in ``helpers.reference_rref_rows`` gives, and
``rank`` must be exact whether or not its certificate holds at the first prime.
``echelon_mod_p`` must find the rank of any row order, stop as soon as it
reaches its target and never before, and factor the rows it keeps.
``certified_rank`` must return the exact rank for every valid bound, read no
row past the one that reaches the bound, and take a second prime only when
a short rank mod p is below the rank over Q.
``integer_vector`` must scale a rational vector to its primitive integer
multiple by a positive scale, as ``poly.integer_terms`` does for a dict.
``lifted_kernel`` must return a basis of the kernel, one vector per free
column, exactly when the rank mod p is the rank over Q, and None otherwise;
``null_space``, ``reduce_rows`` and ``certified_rank`` must equal the
oracles at every corank, and take the next prime, never the same one, when
the prime is unlucky: ``_primes`` descends from ``_PRIME`` through
successive primes.  The subspaces read off one elimination (``null_space``,
``unit_columns``, ``ideals.intersect_with_coordinates``) must equal what
two eliminations give.
"""

import itertools
import math
from fractions import Fraction

import pytest
from helpers import (reference_in_row_space, reference_intersect_with_coordinates,
                     reference_null_space, reference_rank, reference_rref_rows)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assoform.ideals import intersect_with_coordinates
from assoform.linalg import (_PRIME, _primes, certified_rank, echelon_mod_p, from_rows,
                             in_row_space, integer_rows, integer_vector, kernel_basis,
                             lifted_kernel, null_space, rank, reduce_rows, row_space_basis,
                             rref, solve_square, unit_columns)
from assoform.poly import integer_terms

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-(1 << 40), 1 << 40)),
    st.builds(Fraction, st.sampled_from([_PRIME, -_PRIME, 2 * _PRIME])),
)


@st.composite
def matrices(draw, square=False):
    """Small rational matrices, often rank-deficient or with zero lines."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):  # a dependent row
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(ENTRIES)
        rows[dst] = [k * x for x in rows[src]]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = Fraction(0)
    return from_rows(rows, cols=ncols)


def _reference(m, extra=()):
    """Oracle RREF of m, with the rows of `extra` appended column-wise."""
    rows = [list(row) + list(tail) for row, tail in
            zip(m.entries, extra or [()] * m.rows)]
    return reference_rref_rows(rows, m.cols)


def _reference_kernel(m):
    reduced, pivots = _reference(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(tuple(vec))
    return basis


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_reference(m):
    reduced, pivots = _reference(m)
    got, got_pivots = rref(m)
    assert got.entries == tuple(tuple(row) for row in reduced)
    assert got_pivots == tuple(pivots)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == _reference_kernel(m)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.data())
def test_solve_square_matches_reference(m, data):
    n = m.rows
    rhs = [data.draw(ENTRIES) for _ in range(n)]
    reduced, pivots = _reference(m, [[b] for b in rhs])
    expected = tuple(row[n] for row in reduced) if len(pivots) == n else None
    assert solve_square(m, rhs) == expected


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(from_rows([], cols=0))
@example(from_rows([], cols=3))
@example(from_rows([[], [], []]))
def test_null_space_is_the_reduced_kernel(m):
    got = null_space(integer_rows(m.entries), m.cols)
    assert got == row_space_basis(from_rows(kernel_basis(m), cols=m.cols))
    assert got.rows == m.cols - rank(m)
    for v in got.entries:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.entries)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_intersect_with_coordinates_matches_reference(m, data):
    # any spanning set will do: the rows of m, not reduced
    keep = data.draw(st.lists(st.booleans(), min_size=m.cols, max_size=m.cols))
    assert (intersect_with_coordinates(integer_rows(m.entries), m.cols, keep)
            == reference_intersect_with_coordinates(row_space_basis(m), keep))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_unit_columns_agree_with_in_row_space(m):
    reduced, pivots = rref(m)
    basis = row_space_basis(m)  # the pivot rows, as a cached ideal piece keeps them
    units = unit_columns(basis, pivots)
    assert units == unit_columns(reduced, pivots)
    for j in range(m.cols):
        e_j = [int(i == j) for i in range(m.cols)]
        assert (j in units) == in_row_space(basis, pivots, e_j)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_in_row_space_matches_reference(m, data):
    _, pivots = rref(m)
    basis = row_space_basis(m)
    weights = [data.draw(ENTRIES) for _ in range(basis.rows)]
    member = [sum((w * row[j] for w, row in zip(weights, basis.entries)), Fraction(0))
              for j in range(m.cols)]
    other = [data.draw(ENTRIES) for _ in range(m.cols)]
    assert in_row_space(basis, pivots, member)
    free = [j for j in range(m.cols) if j not in pivots]
    if free:  # member plus a free unit vector lies outside the row space
        outside = [x + (j == free[0]) for j, x in enumerate(member)]
        assert not in_row_space(basis, pivots, outside)
    for vec in (member, other, [x + y for x, y in zip(member, other)]):
        assert in_row_space(basis, pivots, vec) == reference_in_row_space(basis, pivots, vec)


SYMPY_CASES = [
    [[2, 4, 1], [1, 2, 0], [3, 6, 1]],
    [[0, 0, 0], [0, 3, -1], [Fraction(1, 2), 0, 5]],
    [[1, Fraction(-2, 3), 0, 4], [2, Fraction(-4, 3), 1, 1], [0, 0, 7, -21]],
    [[_PRIME, 1], [2 * _PRIME, 2 + _PRIME]],
]


@pytest.mark.parametrize("rows", SYMPY_CASES)
def test_against_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = from_rows(rows)
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                       for row in m.entries])

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    reduced, pivots = sm.rref()
    got, got_pivots = rref(m)
    assert got.entries == tuple(tuple(frac(x) for x in reduced.row(i))
                                for i in range(reduced.rows))
    assert got_pivots == tuple(pivots)
    assert rank(m) == sm.rank()
    assert kernel_basis(m) == [tuple(frac(x) for x in v) for v in sm.nullspace()]


def _mod_p_rank(m):
    return len(echelon_mod_p(integer_rows(m.entries), m.rows + 1, _PRIME)[1])


def test_certificate_settles_full_rank():
    m = from_rows([[1, 2, 3], [0, Fraction(1, 2), 5]])
    assert _mod_p_rank(m) == 2
    assert rank(m) == 2


def test_entry_equal_to_prime_falls_back():
    # rank mod p drops, the exact rank is full
    m = from_rows([[_PRIME, 1], [0, 1]])
    assert _mod_p_rank(m) == 1
    assert rank(m) == 2
    m = from_rows([[1, 1], [1, 1 + _PRIME]])
    assert _mod_p_rank(m) == 1
    assert rank(m) == 2


def test_denominator_divisible_by_prime():
    full = from_rows([[Fraction(1, _PRIME), 1], [1, 1]])
    assert rank(full) == 2
    deficient = from_rows([[Fraction(1, _PRIME), Fraction(1, _PRIME)], [3, 3]])
    assert _mod_p_rank(deficient) == 1
    assert rank(deficient) == 1
    mixed = from_rows([[Fraction(1, 2 * _PRIME), Fraction(1, 3)], [1, 2 * _PRIME]])
    assert rank(mixed) == len(_reference(mixed)[1]) == 2


SCALED = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(1 << 40), 1 << 40),
    st.builds(Fraction, st.integers(-(1 << 40), 1 << 40), st.integers(1, 1 << 40)),
    st.builds(Fraction, st.sampled_from([_PRIME, -_PRIME, 2 * _PRIME]),
              st.integers(1, 1 << 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(SCALED, max_size=6))
@example([])
@example([Fraction(0), 0])
@example([6, Fraction(-4)])
@example([Fraction(_PRIME, 3), Fraction(-2 * _PRIME, 9)])
def test_integer_vector_is_the_primitive_multiple(values):
    scale, ints = integer_vector(values)
    assert all(type(x) is int for x in ints)
    assert [scale * x for x in values] == ints
    assert scale > 0
    if any(values):
        assert math.gcd(*ints) == 1
    else:
        assert scale == 1
    terms = {(i,): Fraction(x) for i, x in enumerate(values)}
    assert integer_terms(terms) == (scale, dict(zip(terms, ints)))


def _check_factors(rows, ncols, ids, cols, lower, upper):
    """Kept row k is sum_j L[k][j] U[j] mod p, with U[j] 1 at cols[j] and 0 at cols[:j]."""
    units = [{**up, c: 1} for c, up in zip(cols, upper)]
    for k, (i, low) in enumerate(zip(ids, lower)):
        assert [j for j, _ in low][-1] == k and all(j < k for j, _ in low[:-1])
        assert all(units[k].get(c, 0) == 0 for c in cols[:k])
        for c in range(ncols):
            combined = sum(a * units[j].get(c, 0) for j, a in low)
            assert (combined - rows[i].get(c, 0)) % _PRIME == 0


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_lu_factors_reproduce_the_pivot_block(m):
    rows = integer_rows(m.entries)
    ids, cols, lower, upper = echelon_mod_p(rows, m.rows + 1, _PRIME)
    assert len(cols) <= rank(m)
    assert len(set(cols)) == len(cols)
    _check_factors(rows, m.cols, ids, cols, lower, upper)


@st.composite
def ranked_matrices(draw):
    """A B with A rows x r in [-2, 2] and B r x cols in [-1, 1], rows and cols <= 6.

    Entries are at most 12 in size, so by Hadamard's bound every minor is
    below (12 sqrt 6)^6 < p: a minor vanishes mod p only if it is 0, and the
    rank mod p is the rank over Q.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    r = draw(st.integers(0, min(nrows, ncols)))
    a = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(nrows)]
    b = [[draw(st.integers(-1, 1)) for _ in range(ncols)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * ncols
            for row in a], ncols


@settings(max_examples=300, deadline=None)
@given(ranked_matrices(), st.data())
def test_echelon_rank_in_any_row_order(matrix, data):
    grid, ncols = matrix
    true_rank = reference_rank(grid, ncols)
    order = data.draw(st.permutations(range(len(grid))))
    rows = [{c: x for c, x in enumerate(grid[i]) if x} for i in order]
    read = []

    def reader():
        for row in rows:
            read.append(row)
            yield row

    # a target above the rank reads every row and finds the whole rank
    above = true_rank + data.draw(st.integers(1, 3))
    ids, cols, lower, upper = echelon_mod_p(reader(), above, _PRIME)
    assert len(cols) == true_rank and len(read) == len(rows)
    _check_factors(rows, ncols, ids, cols, lower, upper)
    # a target within the rank stops at the row that reaches it
    target = data.draw(st.integers(0, true_rank))
    read.clear()
    ids, cols, _, _ = echelon_mod_p(reader(), target, _PRIME)
    assert len(cols) == target
    assert len(read) == (ids[-1] + 1 if target else 0)


@settings(max_examples=300, deadline=None)
@given(ranked_matrices(), st.data())
def test_certified_rank_is_exact_for_every_bound(matrix, data):
    grid, ncols = matrix
    if data.draw(st.booleans()):  # multiples of p: the rank mod p stays that of A B
        grid = [[x + _PRIME * data.draw(st.integers(-1, 1)) for x in row] for row in grid]
    true_rank = reference_rank(grid, ncols)
    order = data.draw(st.permutations(range(len(grid))))
    rows = [{c: x for c, x in enumerate(grid[i]) if x} for i in order]
    short = len(echelon_mod_p(rows, len(rows) + 1, _PRIME)[1]) < true_rank
    for bound in range(true_rank, min(len(rows), ncols) + 1):
        read = []

        def reader():
            for row in rows:
                read.append(row)
                yield row

        assert certified_rank(reader(), ncols, bound) == true_rank
        if bound == true_rank and not short:
            # the echelon stops at the row that reaches the bound
            ids = echelon_mod_p(rows, bound, _PRIME)[0]
            assert len(read) == (ids[-1] + 1 if bound else 0)
        else:
            assert len(read) == len(rows)


def test_certified_rank_of_a_short_rank_mod_p_is_exact():
    # rank 1 mod p, 2 over Q: a bound of 2 takes a second prime
    rows = [{0: _PRIME, 1: 1}, {1: 1}]
    assert len(echelon_mod_p(rows, 2, _PRIME)[1]) == 1
    assert certified_rank(iter(rows), 2, 2) == 2
    assert certified_rank(iter([{0: 1, 1: 1}, {0: 1, 1: 1 + _PRIME}]), 2, 2) == 2


@st.composite
def corank_one_matrices(draw):
    """Matrices killing a drawn vector v: corank one unless rows are missing or dependent."""
    ncols = draw(st.integers(1, 6))
    v = [draw(ENTRIES) for _ in range(ncols - 1)] + [draw(ENTRIES.filter(bool))]
    nrows = draw(st.integers(0, ncols + 1))
    rows = []
    for _ in range(nrows):
        row = [draw(ENTRIES) for _ in range(ncols - 1)]
        rows.append(row + [-sum(x * y for x, y in zip(row, v)) / v[-1]])
    return from_rows(rows, cols=ncols)


def _lift(m, target=None):
    """lifted_kernel of m's integer rows, on their echelon up to target (default: every row)."""
    rows = integer_rows(m.entries)
    target = m.cols if target is None else target
    return lifted_kernel(rows, m.cols, echelon_mod_p(rows, target, _PRIME), _PRIME)


@settings(max_examples=300, deadline=None)
@given(st.one_of(corank_one_matrices(), matrices()))
def test_lifted_kernel_is_certified(m):
    # W exists exactly when the rank mod p is the rank over Q; then it is the
    # kernel's basis with unit vectors (times one denominator) at the free columns
    kernel = _reference_kernel(m)
    rows = integer_rows(m.entries)
    cols = echelon_mod_p(rows, m.cols, _PRIME)[1]
    w = _lift(m)
    if len(cols) == m.cols - len(kernel):
        free = [c for c in range(m.cols) if c not in cols]
        assert w is not None and len(w) == len(kernel)
        den = w[0][free[0]] if w else 1
        assert den > 0
        assert all(vec[g] == den * (f == g) for vec, f in zip(w, free) for g in free)
        assert all(sum(a * vec[c] for c, a in row.items()) == 0 for row in rows for vec in w)
    else:
        assert w is None


def _kernel(rows, cols=None):
    return _lift(from_rows(rows, cols=cols))


def test_corank_one_kernel_checks_every_row():
    # rank 1 mod p on the pivot row [1, 1]; over Q the second row kills (-1, 1)
    assert _kernel([[1, 1], [1, 1 + _PRIME]]) is None


def test_corank_one_kernel_refuses_a_short_rank():
    # rank 1 mod p, 2 over Q: the kernel is a line, but the certificate is off
    assert _kernel([[1, 1, 1], [1, 1 + _PRIME, 1 + 2 * _PRIME]]) is None
    # an echelon stopped below the rank leaves too many free columns
    assert _lift(from_rows([[1, 0, 0], [0, 1, 0]]), 1) is None


def test_corank_one_kernel_lifts_past_a_wrong_first_reconstruction():
    # after steps 1, 3 and 4 the reconstruction of -b/a succeeds with a wrong
    # fraction (numerator and denominator of at most 15, 45 and 58 bits); the row
    # check rejects each, and the lift goes on to step 8
    a, b = 2 ** 100 + 277, 3 ** 70 + 5
    assert _kernel([[a, b]]) == [[-b, a]]
    assert _kernel([[Fraction(a, 7), Fraction(b, 7)], [a, b]]) == [[-b, a]]


def test_lifted_kernel_beyond_corank_one():
    # a plane: the unit vectors at the free columns 1 and 2, completed
    assert _kernel([[1, 1, 0]]) == [[-1, 1, 0], [0, 0, 1]]
    assert _kernel([[1, 1, 1], [2, 2, 2]]) == [[-1, 1, 0], [-1, 0, 1]]
    # one common denominator for every vector
    assert _kernel([[2, 1, 3]]) == [[-1, 2, 0], [-3, 0, 2]]
    # no rows: the unit vectors; full column rank: the empty basis
    assert _kernel([], cols=1) == [[1]]
    assert _kernel([], cols=2) == [[1, 0], [0, 1]]
    assert _kernel([], cols=0) == []
    assert _kernel([[1, 2], [3, 4]]) == []


@st.composite
def unlucky_matrices(draw):
    """ranked_matrices, often with entries shifted by multiples of p.

    The shift leaves the matrix mod p, and so its rank mod p, as it was,
    while the rank over Q may grow past it: the certificates must fail then.
    """
    grid, ncols = draw(ranked_matrices())
    if draw(st.booleans()):
        grid = [[x + _PRIME * draw(st.integers(-1, 1)) for x in row] for row in grid]
    return grid, ncols


def _reference_reduced(grid, ncols):
    """Oracle for reduce_rows: the pivot rows of the Fraction RREF, and the pivots."""
    reduced, pivots = reference_rref_rows([[Fraction(x) for x in row] for row in grid], ncols)
    return from_rows(reduced[:len(pivots)], cols=ncols), tuple(pivots)


@settings(max_examples=300, deadline=None)
@given(unlucky_matrices())
def test_null_space_and_rank_match_the_oracles_at_every_corank(matrix):
    grid, ncols = matrix
    rows = [{c: x for c, x in enumerate(row) if x} for row in grid]
    assert null_space(rows, ncols) == reference_null_space(grid, ncols)
    assert (certified_rank(iter(rows), ncols, min(len(rows), ncols))
            == reference_rank(grid, ncols))
    assert reduce_rows(rows, ncols) == _reference_reduced(grid, ncols)


SECOND_PRIME = next(itertools.islice(_primes(), 1, None))


def test_the_primes_descend_through_successive_primes():
    sympy = pytest.importorskip("sympy")
    primes = list(itertools.islice(_primes(), 12))
    expected = [int(sympy.prevprime(1 << 30))]
    while len(expected) < len(primes):
        expected.append(int(sympy.prevprime(expected[-1])))
    assert primes == expected and primes[0] == _PRIME
    assert len(set(primes)) == len(primes) and min(primes) > 1 << 29


@pytest.mark.parametrize("grid, ncols", [
    ([[1, 1], [1, 1 + _PRIME]], 2),  # rank 1 mod p, 2 over Q
    ([[_PRIME, 1], [0, 1]], 2),
    ([[1, 1, 1], [1, 1 + _PRIME, 1 + 2 * _PRIME]], 3),  # corank 2 mod p, 1 over Q
    ([[2, 2, 4], [1, 1 + _PRIME, 2 + _PRIME], [0, _PRIME, 0]], 3),
])
def test_unlucky_prime_takes_the_fallback(grid, ncols, later_primes):
    # short mod _PRIME: each answer is the oracle's, from one echelon at the second prime
    rows = [{c: x for c, x in enumerate(row) if x} for row in grid]
    bound = min(len(rows), ncols)
    assert certified_rank(iter(rows), ncols, bound) == reference_rank(grid, ncols)
    assert later_primes == [(SECOND_PRIME, bound)]
    assert null_space(rows, ncols) == reference_null_space(grid, ncols)
    assert reduce_rows(rows, ncols) == _reference_reduced(grid, ncols)
    assert later_primes == [(SECOND_PRIME, bound)] + [(SECOND_PRIME, ncols)] * 2


def test_null_space_refuses_a_lift_off_the_canonical_pivots(later_primes):
    # mod p the row [1, p] is [1, 0]: the lift (1, -p) on the reversed columns
    # is a kernel over Z, but not the RREF, whose 1 leads at column 0; the
    # second prime gives the RREF
    assert null_space([{0: 1, 1: _PRIME}], 2) == from_rows([[1, Fraction(-1, _PRIME)]])
    assert later_primes == [(SECOND_PRIME, 2)]
    # the same row reversed: the lift is the RREF at the first prime
    assert null_space([{0: _PRIME, 1: 1}], 2) == from_rows([[1, -_PRIME]])
    assert later_primes == [(SECOND_PRIME, 2)]


def test_reduce_rows_refuses_a_lift_off_the_canonical_pivots(later_primes):
    # mod p the row [p, 1] is [0, 1]: its lift (1, -p) is a kernel over Z, but
    # nonzero at the pivot 1 past its free column 0; the second prime pivots at 0
    assert reduce_rows([{0: _PRIME, 1: 1}], 2) == (from_rows([[1, Fraction(1, _PRIME)]]), (0,))
    assert later_primes == [(SECOND_PRIME, 2)]
    # the same row reversed pivots at 0 mod p: the RREF is read at the first prime
    assert reduce_rows([{0: 1, 1: _PRIME}], 2) == (from_rows([[1, _PRIME]]), (0,))
    assert later_primes == [(SECOND_PRIME, 2)]
