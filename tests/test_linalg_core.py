"""The integer elimination core against a Fraction Gauss-Jordan oracle.

Every public elimination in ``linalg`` must return exactly what the plain
Fraction Gauss-Jordan in ``helpers.reference_rref_rows`` gives, and
``rank`` must be exact whether or not its mod-p certificate settles it.
``corank_one_kernel`` must return a vector spanning the kernel exactly when
the rank mod p and the rank over Q are both cols - 1, and None otherwise.
The subspaces read off one elimination (``null_space``, ``unit_columns``,
``ideals.intersect_with_coordinates``) must equal what two eliminations give.
"""

import math
from fractions import Fraction

import pytest
from helpers import (reference_in_row_space, reference_intersect_with_coordinates,
                     reference_rref_rows)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assoform.ideals import intersect_with_coordinates
from assoform.linalg import (_PRIME, _integer_row, _lu_mod_p, corank_one_kernel,
                             from_rows, in_row_space, kernel_basis,
                             null_space, rank, row_space_basis, rref,
                             solve_square, unit_columns)

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
    got = null_space(m)
    assert got == row_space_basis(from_rows(kernel_basis(m), cols=m.cols))
    assert got.rows == m.cols - rank(m)
    for v in got.entries:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.entries)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_intersect_with_coordinates_matches_reference(m, data):
    basis = row_space_basis(m)
    keep = data.draw(st.lists(st.booleans(), min_size=m.cols, max_size=m.cols))
    assert (intersect_with_coordinates(basis, keep)
            == reference_intersect_with_coordinates(basis, keep))


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
    return len(_lu_mod_p([_integer_row(row) for row in m.entries], m.cols)[1])


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


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_lu_factors_reproduce_the_pivot_block(m):
    ints = [_integer_row(row) for row in m.entries]
    ids, cols, factors = _lu_mod_p(ints, m.cols)
    assert len(cols) <= rank(m)
    # L has the multipliers below the diagonal and the pivots on it; U is unit
    # upper triangular; L U is the pivot rows at the pivot columns, mod p
    n = len(cols)
    lower = [[row[cols[j]] if j < k else pow(row[cols[k]], -1, _PRIME) if j == k else 0
              for j in range(n)] for k, row in enumerate(factors)]
    upper = [[1 if j == k else factors[k][cols[j]] if j > k else 0 for j in range(n)]
             for k in range(n)]
    for k in range(n):
        for j in range(n):
            product = sum(lower[k][t] * upper[t][j] for t in range(n)) % _PRIME
            assert product == ints[ids[k]][cols[j]] % _PRIME


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


def _spans(w, vector):
    """Whether the nonzero integer vector w spans the line of vector."""
    j = next(i for i, x in enumerate(vector) if x)
    return w[j] != 0 and all(w[j] * x == vector[j] * y for x, y in zip(vector, w))


@settings(max_examples=300, deadline=None)
@given(st.one_of(corank_one_matrices(), matrices()))
def test_corank_one_kernel_is_certified(m):
    kernel = _reference_kernel(m)
    w = corank_one_kernel(m)
    if len(kernel) == 1 and _mod_p_rank(m) == m.cols - 1:
        assert w is not None and _spans(w, kernel[0])
        assert math.gcd(*w) == 1
    else:
        assert w is None


def test_corank_one_kernel_checks_every_row():
    # rank 1 mod p on the pivot row [1, 1]; over Q the second row kills (-1, 1)
    assert corank_one_kernel(from_rows([[1, 1], [1, 1 + _PRIME]])) is None


def test_corank_one_kernel_refuses_a_short_rank():
    # a two-dimensional kernel: (-1, 1, 0) kills the row, but does not span
    assert corank_one_kernel(from_rows([[1, 1, 0]])) is None
    assert corank_one_kernel(from_rows([[1, 1, 1], [2, 2, 2]])) is None
    # rank 1 mod p, 2 over Q: the kernel is a line, but the certificate is off
    assert corank_one_kernel(from_rows([[1, 1, 1], [1, 1 + _PRIME, 1 + 2 * _PRIME]])) is None


def test_corank_one_kernel_lifts_past_a_wrong_first_reconstruction():
    # after 4 steps the reconstruction of -b/a succeeds with a wrong fraction
    # of 60 bits; the row check rejects it and the lift goes on to step 8
    a, b = 2 ** 100 + 277, 3 ** 70 + 5
    assert corank_one_kernel(from_rows([[a, b]])) == (-b, a)
    assert corank_one_kernel(from_rows([[Fraction(a, 7), Fraction(b, 7)], [a, b]])) == (-b, a)


def test_corank_one_kernel_of_no_rows():
    assert corank_one_kernel(from_rows([], cols=1)) == (1,)
    assert corank_one_kernel(from_rows([], cols=2)) is None
    assert corank_one_kernel(from_rows([], cols=0)) is None
