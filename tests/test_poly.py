"""Tests for polynomials, grevlex, the apolarity action, and substitution."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import (identity, inverse_transpose, mat_mul, random_form, random_invertible,
                     reference_jacobian_det, reference_pow)
from hypothesis import given, settings
from hypothesis import strategies as st

from assoform.linalg import from_rows
from assoform.poly import (Polynomial, Space, apolar_apply, grevlex_key,
                           grevlex_less, jacobian_det,
                           mono_factorial, monomials_of_degree, pairing,
                           partial, substitute)


def P(n, terms):
    return Polynomial(n, Space.PRIMAL, terms)


def D(n, terms):
    return Polynomial(n, Space.DUAL, terms)


# -- grevlex ------------------------------------------------------------------


def test_grevlex_paper_example():
    # difference (-1, 1): last nonzero entry positive
    assert grevlex_less((1, 2), (2, 1))
    assert not grevlex_less((2, 1), (1, 2))


def test_grevlex_degree_dominates():
    assert grevlex_less((1, 1), (3, 0))


def test_grevlex_irreflexive():
    assert not grevlex_less((2, 3), (2, 3))


def test_grevlex_mismatched_arity():
    with pytest.raises(ValueError):
        grevlex_less((1, 2), (1, 2, 3))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_grevlex_total_order_exhaustive(nvars):
    monos = [m for k in range(6) for m in monomials_of_degree(nvars, k)]
    for a, b in itertools.combinations(monos, 2):
        assert grevlex_less(a, b) != grevlex_less(b, a)  # totality + antisymmetry
        assert grevlex_less(a, b) == (grevlex_key(a) < grevlex_key(b))
    for a, b, c in itertools.combinations(monos, 3):
        if grevlex_less(a, b) and grevlex_less(b, c):
            assert grevlex_less(a, c)


def test_monomials_descending():
    monos = monomials_of_degree(2, 2)
    assert monos == ((2, 0), (1, 1), (0, 2))


# -- apolarity ----------------------------------------------------------------


def test_apolar_single_derivative():
    assert apolar_apply(P(1, {(1,): 1}), D(1, {(2,): 1})) == D(1, {(1,): 2})


def test_apolar_full_contraction():
    assert apolar_apply(P(2, {(1, 1): 1}), D(2, {(1, 1): 1})) == \
        Polynomial.constant(2, Space.DUAL, 1)


def test_apolar_annihilation():
    assert apolar_apply(P(2, {(2, 0): 1}), D(2, {(0, 3): 1})).is_zero()


def test_apolar_space_check():
    with pytest.raises(ValueError):
        apolar_apply(D(2, {(1, 0): 1}), D(2, {(1, 0): 1}))
    with pytest.raises(ValueError):
        apolar_apply(P(2, {(1, 0): 1}), P(2, {(1, 0): 1}))


def test_apolar_operator_composition():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 3)
        g = random_form(rng, n, rng.randint(0, 2))
        h = random_form(rng, n, rng.randint(0, 2))
        f = random_form(rng, n, rng.randint(2, 4), space=Space.DUAL)
        assert apolar_apply(g * h, f) == apolar_apply(g, apolar_apply(h, f))


def test_pairing_values():
    assert pairing(P(1, {(2,): 1}), D(1, {(2,): 1})) == 2
    assert pairing(P(2, {(1, 1): 1}), D(2, {(2, 0): 1})) == 0
    assert pairing(P(2, {(1, 0): 1, (0, 1): 1}), D(2, {(1, 0): 1})) == 1


def test_pairing_requires_matching_degrees():
    with pytest.raises(ValueError):
        pairing(P(2, {(1, 0): 1}), D(2, {(2, 0): 1}))
    with pytest.raises(ValueError):
        pairing(P(2, {(1, 0): 1, (2, 0): 1}), D(2, {(2, 0): 1}))


def test_pairing_gram_matrix_diagonal():
    # the Gram matrix of S_d x D_d in monomial bases is diag(a!)
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        monos = monomials_of_degree(n, d)
        for a in monos:
            for b in monos:
                value = pairing(Polynomial.from_monomial(n, Space.PRIMAL, a),
                                Polynomial.from_monomial(n, Space.DUAL, b))
                assert value == (mono_factorial(a) if a == b else 0)


# -- calculus -----------------------------------------------------------------


def test_partial_examples():
    assert partial(P(1, {(3,): 1}), 0) == P(1, {(2,): 3})
    assert partial(P(2, {(3, 0): 1}), 1).is_zero()
    assert partial(P(2, {(1, 1): 1}), 0) == P(2, {(0, 1): 1})
    with pytest.raises(IndexError):
        partial(P(2, {(1, 1): 1}), 2)


def _det_by_permanent_expansion(mat, n):
    """Independent oracle: sum over permutations with sign."""
    total = Polynomial.zero(n, Space.PRIMAL)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.constant(n, Space.PRIMAL, sign)
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def test_jacobian_diagonal():
    gs = [P(2, {(2, 0): 1}), P(2, {(0, 2): 1})]
    assert jacobian_det(gs) == P(2, {(1, 1): 4})


def test_jacobian_monomial_powers():
    for n, d in [(2, 3), (3, 2), (3, 3)]:
        gs = [Polynomial.from_monomial(n, Space.PRIMAL,
                                       tuple(d if j == i else 0 for j in range(n)))
              for i in range(n)]
        expected = Polynomial.from_monomial(n, Space.PRIMAL, (d - 1,) * n, d ** n)
        assert jacobian_det(gs) == expected


def test_jacobian_degenerate():
    g = P(2, {(1, 0): 1})
    assert jacobian_det([g, g]).is_zero()


def test_jacobian_matches_permutation_expansion():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 3)
        gs = [random_form(rng, n, 2) for _ in range(n)]
        mat = [[partial(g, j) for j in range(n)] for g in gs]
        assert jacobian_det(gs) == _det_by_permanent_expansion(mat, n)


RATIONALS = st.one_of(st.integers(-5, 5),
                      st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12)),
                      st.builds(Fraction, st.integers(-(1 << 40), 1 << 40),
                                st.integers(1, 1 << 40)))


@st.composite
def polynomial_lists(draw):
    """n polynomials in n variables with rational coefficients, zero and mixed degrees too."""
    n = draw(st.integers(1, 3))
    monos = [m for k in range(4) for m in monomials_of_degree(n, k)]
    return [P(n, draw(st.dictionaries(st.sampled_from(monos), RATIONALS, max_size=6)))
            for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(polynomial_lists())
def test_jacobian_matches_the_fraction_expansion(gs):
    assert jacobian_det(gs) == reference_jacobian_det(gs)


# -- substitution -------------------------------------------------------------


def test_substitute_identity():
    f = P(2, {(1, 0): 1})
    assert substitute(f, identity(2)) == f


def test_substitute_swap():
    swap = from_rows([[0, 1], [1, 0]])
    assert substitute(P(2, {(2, 0): 1}), swap) == P(2, {(0, 2): 1})


def test_substitute_shear():
    # x1 -> x1 + x2, x2 -> x2 sends x1*x2 to x1*x2 + x2^2
    m = from_rows([[1, 1], [0, 1]])
    assert substitute(P(2, {(1, 1): 1}), m) == P(2, {(1, 1): 1, (0, 2): 1})


def test_substitute_composition_law():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(2, 3)
        f = random_form(rng, n, rng.randint(1, 3))
        a = random_invertible(rng, n)
        b = random_invertible(rng, n)
        assert substitute(substitute(f, a), b) == substitute(f, mat_mul(a, b))


def test_dual_action_preserves_pairing():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 3)
        d = rng.randint(1, 3)
        g = random_form(rng, n, d)
        f = random_form(rng, n, d, space=Space.DUAL)
        m = random_invertible(rng, n)
        assert pairing(substitute(g, m), substitute(f, inverse_transpose(m))) == \
            pairing(g, f)


def test_degree_preserved_by_substitution():
    rng = random.Random(15)
    for _ in range(8):
        n = rng.randint(2, 3)
        f = random_form(rng, n, 3)
        m = random_invertible(rng, n)
        g = substitute(f, m)
        assert g.is_homogeneous(3) and not g.is_zero()


# -- powers -------------------------------------------------------------------

_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                       _COEFF, max_size=4),
       st.integers(0, 6), st.sampled_from(list(Space)))
def test_power_matches_binary_powering(terms, e, space):
    # zero, monomial and multi-term bases, homogeneous or not
    f = Polynomial(3, space, terms)
    assert f ** e == reference_pow(f, e)


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        P(2, {(1, 0): 1}) ** -1


# -- rendering ----------------------------------------------------------------


def test_render_golden():
    f = D(2, {(1, 1): Fraction(1, 2)})
    assert f.render() == "(1/2)*z1*z2"
    g = P(2, {(2, 0): 1, (0, 2): -1})
    assert g.render() == "x1^2 - x2^2"
    assert Polynomial.zero(2, Space.PRIMAL).render() == "0"
    assert P(2, {(0, 0): Fraction(-3, 4)}).render() == "-3/4"
    assert P(3, {(1, 2, 0): 5}).render() == "5*x1*x2^2"
