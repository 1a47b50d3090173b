"""The Wolfe min-norm-point destabilizer against the simplex and KKT oracle.

``torus_destabilizer`` must return exactly what the seed's phase-1 simplex
plus KKT enumeration (``helpers.reference_destabilizer``) returns, and its
two exact certificates must reject a wrong min-norm point.
"""

from fractions import Fraction

import pytest
from helpers import reference_destabilizer
from hypothesis import given, settings
from hypothesis import strategies as st

from assoform import stability
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
    solve = stability.solve_square

    def spy(m, rhs):
        sol = solve(m, rhs)
        solutions.append(sol[:-1])
        return sol

    monkeypatch.setattr(stability, "solve_square", spy)
    f = D(3, monos)
    want = None if expected is None else OnePS(expected)
    assert torus_destabilizer(f) == want
    assert any(a <= 0 for alpha in solutions for a in alpha)  # a point was dropped
    monkeypatch.undo()
    assert reference_destabilizer(f) == want


def _fake(x, corral, weights):
    return lambda points: ([Fraction(v) for v in x], corral,
                           [Fraction(w) for w in weights])


@pytest.mark.parametrize("monos, fake", [
    # b = (2,-2), (0,0), (-2,2): a zero weight
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), [0, 1, 2], [Fraction(1, 2), 0, Fraction(1, 2)])),
    # weights that do not sum to 1
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), [1], [2])),
    # x is not the combination the weights give
    ([(3, 1), (2, 2), (1, 3)], _fake((0, 0), [0], [1])),
    # b = (2,-2), (4,-4): x = (4,-4) is in the hull but not nearest to 0
    ([(3, 1), (4, 0)], _fake((4, -4), [1], [1])),
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
