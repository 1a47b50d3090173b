"""The Wolfe min-norm-point destabilizer against the simplex and KKT oracle.

``torus_destabilizer`` must return exactly what the seed's phase-1 simplex
plus KKT enumeration (``helpers.reference_destabilizer``) returns, also at
the hull-stability benchmark's support sizes and on supports whose points
tie for the smallest b.X, and its exact certificates on the integer point X
and scale s must reject a wrong min-norm point.  A bordered Gram system of
Wolfe's minor cycle stops its lift at the first step that certifies it.
"""

import math
import random
from fractions import Fraction

import pytest
from helpers import reference_destabilizer
from hypothesis import given, settings
from hypothesis import strategies as st

from assoform import linalg, stability
from assoform.linalg import canonical_kernel
from assoform.poly import Polynomial, Space, monomials_of_degree
from assoform.stability import OnePS, support_weight_range, torus_destabilizer


def D(n, monos):
    return Polynomial(n, Space.DUAL, {m: 1 for m in monos})


@st.composite
def supports(draw):
    """Dual forms with small random supports; n = 5 only with <= 8 points."""
    n = draw(st.integers(2, 5))
    deg = draw(st.integers(1, 6 if n < 5 else 4))
    monos = monomials_of_degree(n, deg)
    cap = {2: 7, 3: 14, 4: 10, 5: 8}[n]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=cap,
                           unique=True))
    coeffs = st.integers(-3, 3).filter(bool)
    return Polynomial(n, Space.DUAL, {m: draw(coeffs) for m in chosen})


@settings(max_examples=300, deadline=None)
@given(supports())
def test_matches_reference(f):
    got = torus_destabilizer(f)
    assert got == reference_destabilizer(f)
    if got is not None:
        assert support_weight_range(f, got)[0] > 0


def _weight(u, mono):
    return sum(w * e for w, e in zip(u, mono))


def _unstable_support(rng, n, deg, size, swap=False):
    """size monomials on the positive side of a random zero-sum weight u.

    They are drawn from the 2 * size lowest such monomials, so many lie near
    the separating level.  With swap, u_1 = u_2 and the support is closed
    under exchanging x_1 and x_2: its points tie in pairs for the smallest b.X.
    """
    while True:
        u = [rng.randint(-3, 3) for _ in range(n - 1)]
        if swap:
            u[1] = u[0]
        u.append(-sum(u))
        above = sorted((m for m in monomials_of_degree(n, deg) if _weight(u, m) > 0),
                       key=lambda m: _weight(u, m))
        if len(above) >= size:
            break
    pool = above[:2 * size]
    if not swap:
        return rng.sample(pool, size)
    chosen: set = set()
    while len(chosen) < size:
        m = rng.choice(pool)
        chosen |= {m, (m[1], m[0], *m[2:])}
    return sorted(chosen)


def _inside_support(rng, n, deg, size):
    """Every pure power and size - n other monomials: the balanced point is inside."""
    pure = [tuple(deg * (i == j) for j in range(n)) for i in range(n)]
    rest = [m for m in monomials_of_degree(n, deg) if m not in pure]
    return rng.sample(rest, size - n) + pure


def _random_form(rng, n, monos):
    return Polynomial(n, Space.DUAL, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in monos})


@pytest.mark.parametrize("n, deg, size, swap", [
    # the unstable sizes of the hull-stability benchmark
    (3, 12, 36, False), (4, 5, 12, False), (5, 4, 10, False),
    # closed under x_1 <-> x_2
    (3, 12, 36, True), (4, 5, 12, True), (5, 4, 10, True),
])
def test_matches_reference_at_benchmark_sizes(n, deg, size, swap):
    rng = random.Random(f"{n},{deg},{size},{swap}")
    for _ in range(8):
        f = _random_form(rng, n, _unstable_support(rng, n, deg, size, swap))
        got = torus_destabilizer(f)
        assert got is not None and got == reference_destabilizer(f)
        assert support_weight_range(f, got)[0] > 0
        if swap:
            assert got.weights[0] == got.weights[1]


@pytest.mark.parametrize("n, deg, size", [(3, 9, 20), (4, 6, 24), (5, 5, 20)])
def test_inside_hull_at_benchmark_sizes(n, deg, size):
    rng = random.Random(f"{n},{deg},{size}")
    for _ in range(8):
        f = _random_form(rng, n, _inside_support(rng, n, deg, size))
        assert torus_destabilizer(f) is None
        assert reference_destabilizer(f) is None


@pytest.mark.parametrize("monos, expected", [
    # a support point is the balanced point (2, 2, 2)
    ([(2, 2, 2), (6, 0, 0), (5, 1, 0)], None),
    ([(2, 2, 2)], None),
    # a single monomial
    ([(4, 1, 1)], (2, -1, -1)),
    ([(3, 0, 1, 0)], (2, -1, 0, -1)),
    # a support on one face
    ([(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)], (1, 1, -2)),
    ([(2, 1, 0, 0), (0, 2, 1, 0), (1, 0, 2, 0), (1, 1, 1, 0)], (1, 1, 1, -3)),
    # collinear points, through the balanced point and beside it
    ([(4, 0, 2), (3, 1, 2), (1, 3, 2)], None),
    ([(5, 1, 0), (4, 1, 1), (3, 1, 2)], (1, -1, 0)),
])
def test_edge_cases(monos, expected):
    f = D(len(monos[0]), monos)
    want = None if expected is None else OnePS(expected)
    assert torus_destabilizer(f) == want
    assert reference_destabilizer(f) == want


@pytest.mark.parametrize("monos, expected", [
    # (6,0,0) and (4,1,1) point the same way from the balanced point
    ([(6, 0, 0), (4, 1, 1), (3, 2, 1), (1, 3, 2)], (1, 4, -5)),
    ([(1, 3, 0), (2, 1, 1), (1, 2, 1), (2, 0, 2)], None),
])
def test_minor_cycle_drop(monkeypatch, monos, expected):
    solutions = []
    kernel_of = stability.canonical_kernel

    def spy(rows, ncols, target):  # the bordered Gram system; minus its kernel is the solution
        free, kernel = kernel_of(rows, ncols, target)
        solutions.append([-a for a in kernel[0][:ncols - 2]])
        return free, kernel

    monkeypatch.setattr(stability, "canonical_kernel", spy)
    f = D(3, monos)
    want = None if expected is None else OnePS(expected)
    assert torus_destabilizer(f) == want
    assert any(a <= 0 for alpha in solutions for a in alpha)  # a point was dropped
    monkeypatch.undo()
    assert reference_destabilizer(f) == want


def test_a_second_free_column_is_refused(monkeypatch):
    # a zero column appended to the bordered system is free besides its right
    # side; the right side's kernel vector is unchanged, so only the check refuses it
    kernel_of = stability.canonical_kernel
    monkeypatch.setattr(stability, "canonical_kernel",
                        lambda rows, ncols, target: kernel_of(rows, ncols + 1, target + 1))
    with pytest.raises(ArithmeticError, match="affine independence"):
        torus_destabilizer(D(3, [(6, 0, 0), (4, 1, 1), (3, 2, 1), (1, 3, 2)]))


def test_a_small_bordered_system_stops_at_its_first_certified_step(monkeypatch):
    # the bordered Gram system of b = (12,-6,-6), (3,0,-3), (-3,3,0): its
    # Hadamard bound 2 H^2 has 43 bits, so the lift may run 2 steps, but the
    # solution (1, -2, 2) is certified by the reconstruction after the first
    rows = [{0: 216, 1: 54, 2: -54, 3: 1}, {0: 54, 1: 18, 2: -9, 3: 1},
            {0: -54, 1: -9, 2: 18, 3: 1}, {0: 1, 1: 1, 2: 1, 3: 0, 4: 1}]
    assert math.prod(sum(a * a for a in row.values()) for row in rows) > linalg._PRIME
    moduli = []
    reconstruct = linalg._reconstruct
    monkeypatch.setattr(linalg, "_reconstruct",
                        lambda vectors, modulus: moduli.append(modulus)
                        or reconstruct(vectors, modulus))
    assert canonical_kernel(rows, 5, 5) == ([4], [[-1, 2, -2, 0, 1]])
    assert moduli == [linalg._PRIME]


def _fake(x, s, corral, weights):
    return lambda points: (list(x), s, corral, [Fraction(w) for w in weights])


@pytest.mark.parametrize("monos, fake", [
    # b = (2,-2), (0,0), (-2,2): a zero weight
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), 1, [0, 1, 2], [Fraction(1, 2), 0, Fraction(1, 2)])),
    # weights that do not sum to 1
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), 1, [1], [2])),
    # x is not the combination the weights give
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), 1, [0], [1])),
    # b = (2,-2), (4,-4): x = (4,-4) is in the hull but not nearest to 0
    ([(3, 1), (4, 0)], _fake((4, -4), 1, [1], [1])),
    # X = 0 with the scale 0 stands for no point at all
    ([(3, 1), (4, 0)], _fake((0, 0), 0, [0], [1])),
])
def test_certificates_reject_wrong_points(monkeypatch, monos, fake):
    monkeypatch.setattr(stability, "_min_norm_point", fake)
    with pytest.raises(ArithmeticError):
        torus_destabilizer(D(2, monos))


def test_n5_larger_support_finishes():
    # out of reach for the KKT enumeration: C(35, k) solves for k <= 4
    f = D(5, [m for m in monomials_of_degree(5, 4) if m[4] == 0])
    u = torus_destabilizer(f)
    assert u is not None and support_weight_range(f, u)[0] > 0
    assert u == OnePS((1, 1, 1, 1, -4))
