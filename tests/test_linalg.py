"""Tests for exact rational linear algebra."""

import random
from fractions import Fraction

from helpers import det, identity, zero_matrix

from assoform.linalg import (QMatrix, from_rows, in_row_space, kernel_basis, rank, rref,
                             solve_square)


def test_rref_rank_one():
    m = from_rows([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity_fixed():
    m = identity(3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_rref_permutation():
    m = from_rows([[0, 1], [1, 0]])
    reduced, pivots = rref(m)
    assert reduced == identity(2)
    assert pivots == (0, 1)


def test_kernel_examples():
    basis = kernel_basis(from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0  # (1, -1) up to scale

    assert kernel_basis(identity(4)) == []
    assert len(kernel_basis(zero_matrix(2, 3))) == 3


def test_rank_examples():
    assert rank(zero_matrix(3, 5)) == 0
    assert rank(identity(4)) == 4
    assert rank(from_rows([[1, 2], [2, 4]])) == 1


def test_rank_nullity_randomized():
    rng = random.Random(901)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        m = from_rows([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(cols)] for _ in range(rows)],
                      cols=cols)
        assert rank(m) + len(kernel_basis(m)) == cols
        # fraction-free and fraction ranks agree
        assert rank(m) == len(rref(m)[1])


def test_rref_idempotent():
    rng = random.Random(902)
    for _ in range(40):
        m = from_rows([[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)])
        once, pivots = rref(m)
        twice, pivots2 = rref(once)
        assert once == twice
        assert pivots == pivots2


def test_exact_arithmetic_reassociation():
    rng = random.Random(903)
    values = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(30)]
    forward = sum(values, Fraction(0))
    backward = sum(reversed(values), Fraction(0))
    assert forward == backward  # bit-for-bit: Fractions are canonical


def test_solve_square():
    rng = random.Random(904)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if det(m) == 0:
            assert solve_square(m, [0] * n) is None
            continue
        rhs = [rng.randint(-4, 4) for _ in range(n)]
        x = solve_square(m, rhs)
        assert x is not None
        assert [sum(a * b for a, b in zip(row, x)) for row in m.entries] == \
            [Fraction(v) for v in rhs]


def test_kernel_vectors_annihilate():
    rng = random.Random(905)
    for _ in range(25):
        m = from_rows([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        for v in kernel_basis(m):
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)


def test_in_row_space():
    m = from_rows([[1, 0, 2], [0, 1, 3]])
    basis, pivots = rref(m)
    assert in_row_space(basis, pivots, [2, 1, 7])
    assert not in_row_space(basis, pivots, [0, 0, 1])

