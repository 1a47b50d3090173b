"""The integer elimination core against a Fraction Gauss-Jordan oracle.

Every public elimination in ``linalg`` must return exactly what the plain
Fraction Gauss-Jordan in ``helpers.reference_rref_rows`` gives, and
``rank`` must be exact whether or not its mod-p certificate settles it.
The subspaces read off one elimination (``null_space``, ``unit_columns``,
``ideals.intersect_with_coordinates``) must equal what two eliminations give.
"""

from fractions import Fraction

import pytest
from helpers import (reference_in_row_space, reference_intersect_with_coordinates,
                     reference_rref_rows)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assoform.ideals import intersect_with_coordinates
from assoform.linalg import (_PRIME, _integer_row, _rank_mod_p, from_rows,
                             in_row_space, kernel_basis,
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
    return _rank_mod_p([_integer_row(row) for row in m.entries], m.cols)


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
