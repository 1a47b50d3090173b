"""The three monomial-product kernels against their tuple-key oracles.

Product rows and Koszul images (``ideals._koszul_images``), catalecticants
and ``jacobian_det`` key each monomial by its packed code, the exponents
in fields of ``bits`` bits (``poly.mono_code``).  Codes add as monomials
multiply only while no exponent reaches 2^bits, so the inputs here reach
the field-width edges: largest exponents of exactly 2^b - 1 and 2^b.  A
field one bit too narrow merges two monomials of equal degree only from
three variables on, at a degree of 2^(b-1) + 1 or more; the explicit cases
at degree 7, 15 and 31 in three variables are there to catch it.
"""

import random
from fractions import Fraction

import pytest
from helpers import reference_catalecticants, reference_jacobian_det, reference_koszul_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from assoform.ideals import (GradedIdeal, hilbert_function, koszul_exactness_check,
                             koszul_matrices)
from assoform.inverse_system import catalecticants
from assoform.poly import Polynomial, Space, dim_degree, jacobian_det, monomials_of_degree

EDGES = [1, 2, 3, 4, 7, 8, 15, 16]  # 2^b - 1 and 2^b for b = 0..4

COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                   st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 9)))


def P(n, terms):
    return Polynomial(n, Space.PRIMAL, terms)


def D(n, terms):
    return Polynomial(n, Space.DUAL, terms)


def _form(draw, n, degree, space=Space.PRIMAL, max_terms=4):
    monos = monomials_of_degree(n, degree)
    terms = draw(st.dictionaries(st.sampled_from(monos), COEFFS, min_size=1,
                                 max_size=min(max_terms, len(monos))))
    return Polynomial(n, space, terms)


@st.composite
def koszul_cases(draw):
    """m nonzero degree-d forms in n variables and a graded degree k at a width edge."""
    n, d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.sampled_from([k for k in EDGES if k >= d]))
    return [_form(draw, n, d) for _ in range(m)], k


@settings(max_examples=40, deadline=None)
@given(koszul_cases())
def test_koszul_images_match_the_tuple_oracle(case):
    gs, k = case
    for j in range(1, len(gs) + 1):
        assert koszul_matrices(gs, j, k) == reference_koszul_matrix(gs, j, k), j


@pytest.mark.parametrize("n, d, k", [(3, 2, 7), (3, 2, 8), (3, 2, 15), (3, 3, 16), (3, 9, 31),
                                     (2, 13, 32)])
def test_koszul_images_at_the_field_edges(n, d, k):
    rng = random.Random(100 * k + d)
    monos = monomials_of_degree(n, d)
    gs = [P(n, {m: rng.choice([-2, -1, 1, 3]) for m in rng.sample(monos, min(4, len(monos)))})
          for _ in range(3 if k < 31 else 2)]
    for j in range(1, len(gs) + 1):
        assert koszul_matrices(gs, j, k) == reference_koszul_matrix(gs, j, k), j


def test_hilbert_and_koszul_of_a_codimension_two_intersection_up_to_31():
    # x1^2, x2^2 + x1 x3 is a regular sequence in three variables: its
    # Hilbert function is dim S_k - 2 dim S_{k-2} + dim S_{k-4} = 4 from
    # degree 3 on, and its Koszul complex is exact in every degree
    gs = [P(3, {(2, 0, 0): 1}), P(3, {(0, 2, 0): 1, (1, 0, 1): 1})]
    ideal = GradedIdeal.of(gs)
    expected = tuple(dim_degree(3, k) - 2 * dim_degree(3, k - 2) + dim_degree(3, k - 4)
                     for k in range(32))
    assert hilbert_function(ideal, 31) == expected
    assert expected[3:] == (4,) * 29
    assert koszul_exactness_check(ideal, 16)


@st.composite
def dual_forms(draw):
    n, nu = draw(st.integers(1, 3)), draw(st.sampled_from([0] + EDGES))
    return _form(draw, n, nu, Space.DUAL, max_terms=6)


@settings(max_examples=60, deadline=None)
@given(dual_forms())
def test_catalecticants_match_the_tuple_oracle(f):
    nu = f.degree()
    for k, cat in enumerate(catalecticants(f, range(nu + 2))):
        assert cat == reference_catalecticants(f, k), k


@pytest.mark.parametrize("f", [
    D(1, {(15,): 1}), D(1, {(16,): 1}), D(3, {(15, 0, 0): 1}), D(3, {(0, 0, 16): 2}),
    D(3, {(14, 0, 1): 1, (6, 9, 0): 3}),  # the same code in 3-bit fields
    D(3, {m: i % 5 - 2 or 1 for i, m in enumerate(monomials_of_degree(3, 7))}),
    D(3, {m: i % 7 - 3 or 1 for i, m in enumerate(monomials_of_degree(3, 15))}),
    D(3, {m: Fraction(i % 3 + 1, i % 4 + 1) for i, m in enumerate(monomials_of_degree(3, 16))}),
], ids=lambda f: f"n{f.nvars}-nu{f.degree()}-{len(f.terms)}terms")
def test_catalecticants_at_the_field_edges(f):
    nu = f.degree()
    for k, cat in enumerate(catalecticants(f, range(nu + 2))):
        assert cat == reference_catalecticants(f, k), k


@st.composite
def jacobian_inputs(draw):
    """n polynomials in n variables of mixed degrees up to 17, zero and constants too."""
    n = draw(st.integers(1, 3))
    monos = [m for k in [0, 1, 2] + EDGES + [9, 17] for m in monomials_of_degree(n, k)]
    return [P(n, draw(st.dictionaries(st.sampled_from(monos), COEFFS, max_size=4)))
            for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(jacobian_inputs())
def test_jacobian_det_matches_the_tuple_oracle(gs):
    assert jacobian_det(gs) == reference_jacobian_det(gs)


@pytest.mark.parametrize("gs, bound", [
    ([P(2, {(8, 0): 1}), P(2, {(0, 1): 1})], 7),  # det 8 x1^7
    ([P(2, {(9, 0): 1}), P(2, {(1, 0): 1, (0, 1): 1})], 8),  # det 9 x1^8
    ([P(2, {(7, 1): 1, (0, 1): 2}), P(2, {(1, 0): 1, (0, 0): 5})], 7),  # x1^7 x2
    ([P(2, {(7, 1): 1, (1, 0): 1}), P(2, {(0, 2): 1, (0, 0): 1})], 8),
    ([P(3, {(16, 0, 0): 1}), P(3, {(0, 1, 0): 1}), P(3, {(0, 0, 1): 1, (1, 0, 0): 1})], 15),
    ([P(3, {(15, 0, 0): 1, (0, 2, 0): 1}), P(3, {(0, 1, 0): 1}), P(3, {(0, 0, 2): 1})], 15),
    ([P(1, {(17,): 3, (2,): 1})], 16),
])
def test_jacobian_det_at_the_field_edges(gs, bound):
    # bound is the degree bound sum of max(deg g_i - 1, 0), 2^b - 1 or 2^b
    assert sum(max(g.degree() - 1, 0) for g in gs) == bound
    assert jacobian_det(gs) == reference_jacobian_det(gs)
