"""Tests for associated forms, apolar ideals, and the Milnor pipeline."""

import math
import random
from fractions import Fraction

import pytest
from helpers import (det, identity, inverse_transpose, mat_mul, power_gens, random_form,
                     random_invertible, random_regular_sequence, random_unimodular,
                     reference_associated_form, reference_perp_piece, series_hilbert)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from assoform import inverse_system, poly
from assoform.ideals import GradedIdeal, hilbert_function, is_regular_sequence
from assoform.inverse_system import (AssociatedForm, NotRegularSequence,
                                     SingularHypersurface, apolar_hilbert,
                                     associated_form, direct_sum_assoc,
                                     hilbert_point_functional,
                                     catalecticants, macaulay_roundtrip,
                                     milnor_associated_form, perp_piece)
from assoform.linalg import _PRIME, from_rows
from assoform.parsing import parse_system
from assoform.poly import (Polynomial, Space, jacobian_det, monomials_of_degree, pairing,
                           partial, substitute)


def P(n, terms):
    return Polynomial(n, Space.PRIMAL, terms)


def D(n, terms):
    return Polynomial(n, Space.DUAL, terms)


# -- the normalizing functional -------------------------------------------------


def test_functional_two_squares():
    omega = hilbert_point_functional(power_gens(2, [2, 2]))
    assert omega.values == {(1, 1): Fraction(1, 4)}
    assert omega(P(2, {(1, 1): 4})) == 1  # det Jac
    assert omega(P(2, {(2, 0): 1})) == 0
    assert omega(P(2, {(0, 2): 5})) == 0


def test_functional_monomial_powers():
    for n, d in [(2, 3), (3, 2), (2, 4)]:
        omega = hilbert_point_functional(power_gens(n, [d] * n))
        assert omega.values == {(d - 1,) * n: Fraction(1, d ** n)}


def test_functional_requires_regular():
    with pytest.raises(NotRegularSequence):
        hilbert_point_functional([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})])


def test_functional_kills_ideal_piece():
    rng = random.Random(31)
    for _ in range(5):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        omega = hilbert_point_functional(gs)
        ideal = GradedIdeal(n, d, gs)
        nu = n * (d - 1)
        monos = monomials_of_degree(n, nu)
        basis = ideal.graded_piece(nu)
        for row in basis.entries:
            poly = Polynomial(n, Space.PRIMAL, dict(zip(monos, row)))
            assert omega(poly) == 0
        assert omega(jacobian_det(gs)) == 1


# -- associated forms ------------------------------------------------------------


def test_associated_form_two_squares():
    assoc = associated_form(power_gens(2, [2, 2]))
    assert assoc.form == D(2, {(1, 1): Fraction(1, 2)})


def test_associated_form_monomial_closed_form():
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        assoc = associated_form(power_gens(n, [d] * n))
        nu = n * (d - 1)
        scalar = Fraction(math.factorial(nu),
                          math.factorial(d - 1) ** n * d ** n)
        assert assoc.form == D(n, {(d - 1,) * n: scalar})


def test_associated_form_generator_mixing_scales_by_inverse_det():
    rng = random.Random(32)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        m = random_invertible(rng, n)
        mixed = [sum((Polynomial.constant(n, Space.PRIMAL, m.entries[i][j]) * gs[j]
                      for j in range(n)), Polynomial.zero(n, Space.PRIMAL))
                 for i in range(n)]
        assert associated_form(mixed).form == associated_form(gs).form * (1 / det(m))


def test_associated_form_normalization_pairing():
    rng = random.Random(33)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        assoc = associated_form(gs)
        nu = n * (d - 1)
        assert pairing(jacobian_det(gs), assoc.form) == math.factorial(nu)


def test_sl_equivariance():
    rng = random.Random(34)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        m = random_unimodular(rng, n)
        transformed = [substitute(g, m) for g in gs]
        lhs = associated_form(transformed).form
        rhs = substitute(associated_form(gs).form, inverse_transpose(m))
        assert lhs == rhs


# -- apolar ideals ----------------------------------------------------------------


def test_perp_piece_cross_term():
    piece = perp_piece(D(2, {(1, 1): 1}), 2)
    expected = from_rows([[1, 0, 0], [0, 0, 1]])  # x1^2, x2^2
    assert piece == expected


def test_perp_piece_single_variable():
    nu = 4
    f = D(1, {(nu,): 1})
    for k in range(nu + 1):
        assert perp_piece(f, k).rows == 0
    assert perp_piece(f, nu + 1) == identity(1)


def test_perp_of_monomial_is_power_ideal():
    # the apolar ideal of z1^{d1-1}...zn^{dn-1} is (x1^{d1},...,xn^{dn})
    for degrees in [(2, 3), (3, 3), (2, 2, 3), (4, 4, 4), (2, 3, 4)]:
        n = len(degrees)
        nu = sum(degrees) - n
        f = D(n, {tuple(d - 1 for d in degrees): 1})
        for k in range(nu + 2):
            monos = monomials_of_degree(n, k)
            expected_rows = [[Fraction(1 if j == i else 0) for j in range(len(monos))]
                             for i, m in enumerate(monos)
                             if any(e >= d for e, d in zip(m, degrees))]
            expected = from_rows(expected_rows, cols=len(monos))
            assert perp_piece(f, k) == expected


COEFFS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def dual_forms(draw):
    """Dual forms with n = 1..4 and degree 0..6, on sparse or dense supports."""
    n, nu = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    monos = monomials_of_degree(n, nu)
    if draw(st.booleans()):  # dense
        support = monos
    else:
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return D(n, {m: draw(COEFFS) for m in support})


@settings(max_examples=150, deadline=None)
@given(dual_forms())
def test_perp_piece_matches_reference(f):
    for k in range(f.degree() + 2):
        assert perp_piece(f, k) == reference_perp_piece(f, k)


def test_perp_piece_makes_no_apolar_apply_call(monkeypatch):
    calls = []

    def spy(g, f):
        calls.append((g, f))
        return poly.apolar_apply(g, f)

    monkeypatch.setattr(inverse_system, "apolar_apply", spy, raising=False)
    rng = random.Random(36)
    f = random_form(rng, 3, 4, space=Space.DUAL)
    pieces = [perp_piece(f, k) for k in range(6)]
    assert calls == []
    assert pieces == [reference_perp_piece(f, k) for k in range(6)]


def test_perp_rejects_zero_and_primal():
    with pytest.raises(ValueError):
        perp_piece(Polynomial.zero(2, Space.DUAL), 1)
    with pytest.raises(ValueError):
        perp_piece(P(2, {(2, 0): 1}), 1)


@pytest.mark.parametrize("f, k", [(Polynomial.zero(2, Space.DUAL), 1), (P(2, {(2, 0): 1}), 1),
                                  (D(2, {(2, 0): 1, (1, 0): 1}), 1), (D(2, {(2, 0): 1}), -1),
                                  (D(1, {(25,): 1}), 1)])
def test_catalecticant_errors_name_their_stage(f, k):
    for call in (lambda: perp_piece(f, k), lambda: catalecticants(f, (k,))):
        with pytest.raises(ValueError, match="^catalecticants"):
            call()


def test_perp_hilbert_matches_quotient():
    rng = random.Random(35)
    for _ in range(5):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        assoc = associated_form(gs)
        nu = n * (d - 1)
        from assoform.poly import dim_degree
        dims = [dim_degree(n, k) - perp_piece(assoc.form, k).rows
                for k in range(nu + 2)]
        assert dims == series_hilbert(n, d, nu + 1)


# -- omega from the certified modular kernel -------------------------------------


@st.composite
def rational_regular_sequences(draw):
    """Seeded dense regular sequences, each coefficient divided by a drawn integer.

    The division changes the forms, so a draw that is no longer a regular
    sequence (a common factor, say) is rejected.
    """
    n, d = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    dens = st.integers(1, 40) | st.sampled_from([_PRIME, 3 * _PRIME])
    gs = [P(n, {m: Fraction(c, draw(dens)) for m, c in g.terms.items()})
          for g in random_regular_sequence(rng, n, d)]
    assume(is_regular_sequence(gs))
    return gs


@settings(max_examples=60, deadline=None)
@given(rational_regular_sequences())
def test_associated_form_matches_the_exact_rref(gs):
    assert associated_form(gs).form == reference_associated_form(gs)


@pytest.mark.parametrize("text", [
    # a denominator equal to the prime
    "vars: x1 x2\nx1^2 + (1/1073741789)*x2^2\nx2^2 - x1*x2",
    # the prime as a coefficient: regularity's rank is short mod p and is
    # settled at the second prime
    "vars: x1 x2\n1073741789*x1^2 + x2^2\nx1*x2",
    # linear forms: nu = 0, and I_0 has no rows
    "vars: x1 x2\nx1 + x2\nx1 - 2*x2",
    "vars: x1\n3*x1",
])
def test_associated_form_at_the_prime(text):
    gs = list(parse_system(text).polynomials)
    assert associated_form(gs).form == reference_associated_form(gs)


# -- the Macaulay round trip -------------------------------------------------------


def test_roundtrip_examples():
    assert macaulay_roundtrip(power_gens(2, [2, 2]))
    assert macaulay_roundtrip(power_gens(3, [3, 3, 3]))


def test_roundtrip_random():
    rng = random.Random(36)
    for _ in range(10):
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2)])
        assert macaulay_roundtrip(random_regular_sequence(rng, n, d))


def test_roundtrip_requires_regular():
    with pytest.raises(NotRegularSequence):
        macaulay_roundtrip([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})])


def test_roundtrip_refuses_the_form_of_another_intersection(monkeypatch):
    rng = random.Random(38)
    gs, other = random_regular_sequence(rng, 2, 3), random_regular_sequence(rng, 2, 3)
    real = inverse_system.associated_form
    wrong = real(other).form
    monkeypatch.setattr(inverse_system, "associated_form",
                        lambda forms: AssociatedForm(wrong, GradedIdeal.of(forms)))
    # the Hilbert functions agree, but the g_i do not kill the other form
    assert apolar_hilbert(wrong, 5) == hilbert_function(GradedIdeal.of(gs), 5)
    assert not all(poly.apolar_apply(g, wrong).is_zero() for g in gs)
    assert not macaulay_roundtrip(gs)


def test_roundtrip_refuses_a_derivative_of_the_form(monkeypatch):
    gs = random_regular_sequence(random.Random(39), 3, 2)
    real = inverse_system.associated_form

    def derivative(forms):
        assoc = real(forms)
        return AssociatedForm(partial(assoc.form, 0), assoc.ideal)

    monkeypatch.setattr(inverse_system, "associated_form", derivative)
    # every g_i kills dA/dz_1, whose apolar ideal is larger than (gs)
    assert all(poly.apolar_apply(g, partial(real(gs).form, 0)).is_zero() for g in gs)
    assert not macaulay_roundtrip(gs)


# -- direct sums --------------------------------------------------------------------


def test_direct_sum_two_singles():
    one_var_sq = Polynomial(1, Space.PRIMAL, {(2,): 1})
    assoc = direct_sum_assoc([one_var_sq], [one_var_sq])
    assert assoc.form == D(2, {(1, 1): Fraction(1, 2)})
    assert assoc.form == associated_form(power_gens(2, [2, 2])).form


def test_direct_sum_two_plus_one():
    block1 = power_gens(2, [2, 2])
    block2 = [Polynomial(1, Space.PRIMAL, {(2,): 1})]
    assoc = direct_sum_assoc(block1, block2)
    assert assoc.form == associated_form(power_gens(3, [2, 2, 2])).form


def test_direct_sum_random_blocks():
    rng = random.Random(37)
    for _ in range(8):
        a = rng.randint(1, 2)
        b = rng.randint(1, 2)
        d = rng.randint(2, 3)
        gs1 = random_regular_sequence(rng, a, d)
        gs2 = random_regular_sequence(rng, b, d)
        product = direct_sum_assoc(gs1, gs2)
        combined = list(product.source)
        assert product.form == associated_form(combined).form
        assert product.omega.values == associated_form(combined).omega.values


def test_direct_sum_reads_ideal_blocks():
    block1 = power_gens(2, [2, 2])
    block2 = [Polynomial(1, Space.PRIMAL, {(2,): 1})]
    assoc = direct_sum_assoc(GradedIdeal.of(block1), GradedIdeal.of(block2))
    assert assoc.form == direct_sum_assoc(block1, block2).form


def test_direct_sum_rejects_empty_block():
    with pytest.raises(ValueError):
        direct_sum_assoc(power_gens(2, [2, 2]), [])


def test_direct_sum_rejects_irregular_block():
    bad = [P(2, {(2, 0): 1}), P(2, {(1, 1): 1})]
    with pytest.raises(NotRegularSequence):
        direct_sum_assoc(bad, [Polynomial(1, Space.PRIMAL, {(2,): 1})])


# -- Milnor algebras ------------------------------------------------------------------


def test_milnor_cubic_fermat():
    assoc = milnor_associated_form(P(2, {(3, 0): 1, (0, 3): 1}))
    assert assoc.form.normalized() == D(2, {(1, 1): 1})


def test_milnor_quartic_fermat():
    assoc = milnor_associated_form(P(2, {(4, 0): 1, (0, 4): 1}))
    assert assoc.form == D(2, {(2, 2): Fraction(1, 24)})


def test_milnor_singular():
    with pytest.raises(SingularHypersurface):
        milnor_associated_form(P(2, {(3, 0): 1}))  # dF/dx2 = 0
    with pytest.raises(SingularHypersurface):
        milnor_associated_form(P(2, {(2, 1): 1}))  # x1^2 x2 is singular


def test_milnor_equals_gradient_assoc():
    rng = random.Random(38)
    for _ in range(5):
        while True:
            F = random_form(rng, 2, 4)
            try:
                assoc = milnor_associated_form(F)
                break
            except SingularHypersurface:
                continue
        grads = [partial(F, i) for i in range(2)]
        assert assoc.form == associated_form(grads).form
