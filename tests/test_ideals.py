"""Tests for graded ideal pieces, Hilbert functions, regularity, and Koszul data."""

import math
import random

import pytest
from helpers import (from_monomial, mat_mul, power_gens, random_form, random_regular_sequence,
                     reference_koszul_basis, reference_koszul_matrix, reference_rank,
                     series_hilbert, zero_matrix)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assoform import ideals
from assoform.ideals import (DegreeCapError, GradedIdeal, hilbert_function,
                             is_regular_sequence, koszul_exactness_check,
                             koszul_matrices, min_nonideal_monomial)
from assoform.linalg import from_rows
from assoform.poly import Polynomial, Space, dim_degree, monomials_of_degree


def P(n, terms):
    return Polynomial(n, Space.PRIMAL, terms)


def squares(n):
    return power_gens(n, [2] * n)


# -- graded pieces --------------------------------------------------------------


def test_graded_piece_generating_degree():
    ideal = GradedIdeal(2, 2, squares(2))
    piece = ideal.graded_piece(2)
    assert piece.rows == 2
    assert ideal.contains(P(2, {(2, 0): 1}))
    assert ideal.contains(P(2, {(0, 2): 1}))
    assert not ideal.contains(P(2, {(1, 1): 1}))


def test_graded_piece_degree_three():
    # products: x1^3, x1^2 x2, x1 x2^2, x2^3 all appear
    ideal = GradedIdeal(2, 2, squares(2))
    assert ideal.graded_piece(3).rows == 4
    for mono in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        assert ideal.contains(from_monomial(2, Space.PRIMAL, mono))


def test_graded_piece_below_generators_empty():
    ideal = GradedIdeal(3, 2, squares(3))
    assert ideal.graded_piece(1).rows == 0


def test_graded_piece_caching_is_stable():
    ideal = GradedIdeal(2, 2, squares(2))
    first = ideal.graded_piece(4)
    second = ideal.graded_piece(4)
    assert first == second


# -- Hilbert functions ----------------------------------------------------------


def test_hilbert_three_squares():
    ideal = GradedIdeal(3, 2, squares(3))
    data = hilbert_function(ideal, 5)
    assert list(data) == [1, 3, 3, 1, 0, 0]
    assert list(data) == series_hilbert(3, 2, 5)


def test_hilbert_two_cubes():
    ideal = GradedIdeal(2, 3, power_gens(2, [3, 3]))
    data = hilbert_function(ideal, 6)
    assert list(data) == [1, 2, 3, 2, 1, 0, 0]
    assert list(data) == series_hilbert(2, 3, 6)


def test_hilbert_zero_ideal():
    ideal = GradedIdeal(3, 2, [])
    data = hilbert_function(ideal, 4)
    assert list(data) == [dim_degree(3, k) for k in range(5)]


def test_hilbert_first_value_and_trailing_zeros():
    rng = random.Random(21)
    for _ in range(6):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        values = hilbert_function(GradedIdeal(n, d, gs), n * (d - 1) + 3)
        assert values[0] == 1
        seen_zero = False
        for v in values:
            if seen_zero:
                assert v == 0
            seen_zero = seen_zero or v == 0


# -- regular sequences ----------------------------------------------------------


def test_regular_monomial_complete_intersection():
    assert is_regular_sequence(power_gens(2, [4, 4]))


def test_not_regular_common_zero():
    assert not is_regular_sequence([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})])


def test_regular_three_variables():
    gs = [P(3, {(2, 0, 0): 1}), P(3, {(0, 2, 0): 1}),
          P(3, {(0, 0, 2): 1, (1, 1, 0): -1})]
    assert is_regular_sequence(gs)


def test_regular_validation_errors():
    with pytest.raises(ValueError):
        is_regular_sequence([P(2, {(2, 0): 1})])  # wrong count
    with pytest.raises(ValueError):
        is_regular_sequence([P(2, {(2, 0): 1}), P(2, {(1, 1): 1, (1, 0): 1})])
    with pytest.raises(ValueError):
        is_regular_sequence([P(2, {(2, 0): 1}), P(2, {(0, 3): 1})])  # mixed degree


def test_graded_ideal_is_regular(monkeypatch):
    assert is_regular_sequence(GradedIdeal(2, 4, power_gens(2, [4, 4])))
    assert not is_regular_sequence(GradedIdeal(2, 2, [P(2, {(2, 0): 1}),
                                                      P(2, {(1, 1): 1})]))
    with pytest.raises(ValueError, match="exactly 2 forms"):  # one generator
        is_regular_sequence(GradedIdeal(2, 2, [P(2, {(2, 0): 1})]))
    with pytest.raises(ValueError, match="exactly 2 forms"):
        is_regular_sequence(GradedIdeal(2, 2, squares(2) + [P(2, {(1, 1): 1})]))
    ideal = GradedIdeal(3, 2, squares(3))
    assert is_regular_sequence(ideal)
    monkeypatch.setattr(ideals, "certified_rank", None)  # a second rank would fail
    assert is_regular_sequence(ideal)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapError):
        is_regular_sequence(power_gens(2, [14, 14]))  # socle degree 26 > 24


def test_socle_dim_dichotomy():
    # an (n+1)-generator degree-d ideal of finite colength has socle
    # dimension 1 when it is the complete intersection, 0 when strictly larger
    rng = random.Random(22)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        ci = GradedIdeal(n, d, gs)
        nu = n * (d - 1)
        top = dim_degree(n, nu) - ci.dim_piece(nu)
        assert top == 1
        extra = random_form(rng, n, d)
        bigger = GradedIdeal(n, d, list(gs) + [extra])
        top2 = dim_degree(n, nu) - bigger.dim_piece(nu)
        assert top2 in (0, 1)
        assert (top2 == 1) == ci.contains(extra)


# -- minimal non-ideal monomials -------------------------------------------------


def test_min_nonideal_squares():
    ideal = GradedIdeal(2, 2, squares(2))
    assert min_nonideal_monomial(ideal, 2) == (1, 1)


def test_min_nonideal_cubes_degree_four():
    ideal = GradedIdeal(2, 3, power_gens(2, [3, 3]))
    assert min_nonideal_monomial(ideal, 4) == (2, 2)


def test_min_nonideal_full_piece():
    ideal = GradedIdeal(2, 2, [P(2, {(2, 0): 1}), P(2, {(1, 1): 1}),
                               P(2, {(0, 2): 1})])
    assert min_nonideal_monomial(ideal, 2) is None


def test_min_nonideal_is_grevlex_minimal():
    rng = random.Random(23)
    for _ in range(6):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        ideal = GradedIdeal(n, d, gs)
        nu = n * (d - 1)
        mono = min_nonideal_monomial(ideal, nu)
        assert mono is not None
        from assoform.poly import grevlex_key
        for other in monomials_of_degree(n, nu):
            if grevlex_key(other) < grevlex_key(mono):
                assert ideal.contains(from_monomial(n, Space.PRIMAL, other))


def test_grevlex_lemma_partial_sums():
    rng = random.Random(24)
    for _ in range(12):
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
        gs = random_regular_sequence(rng, n, d)
        ideal = GradedIdeal(n, d, gs)
        mono = min_nonideal_monomial(ideal, n * (d - 1))
        assert mono is not None
        for i in range(1, n + 1):
            assert sum(mono[:i]) <= i * (d - 1)


# -- Koszul complex --------------------------------------------------------------


def test_koszul_single_generator_matrix():
    mat = koszul_matrices([P(2, {(2, 0): 1})], 1, 2)
    # one source column (constant * e1), target basis x1^2, x1x2, x2^2
    assert (mat.rows, mat.cols) == (3, 1)
    assert [mat.entries[i][0] for i in range(3)] == [1, 0, 0]


def test_koszul_sign_rule():
    # d2(e1 ^ e2) = g1 e2 - g2 e1 for (x1^2, x2^2) in graded degree 4
    mat = koszul_matrices(squares(2), 2, 4)
    assert (mat.rows, mat.cols) == (6, 1)
    column = [mat.entries[i][0] for i in range(6)]
    # target ordering: e1 block then e2 block, monomials x1^2, x1x2, x2^2
    assert column == [0, 0, -1, 1, 0, 0]


def test_koszul_composition_vanishes():
    rng = random.Random(25)
    for _ in range(6):
        n = rng.randint(2, 3)
        d = rng.randint(2, 3)
        m = rng.randint(2, 3)
        gs = [random_form(rng, n, d) for _ in range(m)]
        for j in range(2, m + 1):
            for k in range(j * d, j * d + 3):
                inner = koszul_matrices(gs, j, k)
                outer = koszul_matrices(gs, j - 1, k)
                product = mat_mul(outer, inner)
                assert product == zero_matrix(product.rows, product.cols)


def test_koszul_index_range():
    with pytest.raises(ValueError):
        koszul_matrices(squares(2), 3, 4)
    with pytest.raises(ValueError):
        koszul_matrices(squares(2), 0, 4)


def test_koszul_check_builds_no_matrix_of_a_zero_module(monkeypatch):
    built = []
    original = ideals._koszul_images

    def spy(forms, n, d, j, k, order):
        built.append((j, d, k))
        return original(forms, n, d, j, k, order)

    monkeypatch.setattr(ideals, "_koszul_images", spy)
    gs = [P(2, {(1, 0): 1, (0, 1): c}) for c in range(1, 7)]
    # c_1 = 2 - 6 < 0: six linear forms in two variables fail with nothing built
    assert not koszul_exactness_check(gs, 3)
    assert built == []
    # two squares in three variables: only the product rows of I_2 .. I_5, no d_j with j >= 2
    assert koszul_exactness_check(squares(3)[:2], 5)
    assert built and all(j == 1 and k >= d for j, d, k in built)


# every n <= 4, d <= 3, m <= 5, 1 <= j <= m and 0 <= k <= n(d-1) + d
GRID = [(n, d, m, j, k) for n in range(1, 5) for d in range(1, 4) for m in range(1, 6)
        for j in range(1, m + 1) for k in range(n * (d - 1) + d + 1)]


def test_koszul_basis_is_indexed_wedge_major():
    # the index keys decode, field by field, to the reference basis in order
    for n, d, m, j, k in GRID:
        bits = k.bit_length()
        for i in (j - 1, j):
            e = k - i * d
            wedges, monos, codes, index = ideals._koszul_basis(n, m, i, e, bits)
            reference = reference_koszul_basis(n, m, i, e)
            assert [(w, b) for w in wedges for b in monos] == reference
            assert list(index.values()) == list(range(math.comb(m, i) * dim_degree(n, e)))
            decoded = [(wedges[key >> n * bits],
                        tuple(key >> bits * t & ((1 << bits) - 1) for t in range(n)))
                       for key in index]
            assert decoded == reference
            assert list(index)[:len(monos)] == list(codes)  # wedge 0 adds nothing


def test_macaulay_order_permutes_the_source_basis():
    # a dropped or repeated row would make certified_rank read the wrong rows
    for n, d, m, k in sorted({(n, d, m, k) for n, d, m, _, k in GRID}):
        order = ideals._macaulay_order(n, d, m, k)
        assert sorted(order) == list(range(m * dim_degree(n, k - d)))


@st.composite
def koszul_systems(draw):
    """m in n-1 .. n+2 nonzero forms of degree d in n variables, small coefficients.

    The last form may repeat the first, so H_2 can be nonzero: x1, x1, x1 in
    one variable has H_2 != 0 in degree 2.
    """
    n, d = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1),
                                 (3, 2)]))
    m = draw(st.sampled_from([m for m in range(n - 1, n + 3) if m]))
    monos = monomials_of_degree(n, d)
    coeffs = st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos))
    gs = [P(n, dict(zip(monos, draw(coeffs.filter(any))))) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        gs[-1] = gs[0]
    return gs


@settings(max_examples=60, deadline=None)
@given(koszul_systems())
@example([P(1, {(1,): 1})] * 3)
def test_koszul_matrices_and_exactness_match_the_reference(gs):
    n, d, m = gs[0].nvars, gs[0].degree(), len(gs)
    k_max = n * (d - 1) + d
    exact, prefix = True, []  # prefix[k]: exactness of the reference up to degree k
    for k in range(k_max + 1):
        ranks = []
        for j in range(1, m + 1):
            mat = koszul_matrices(gs, j, k)
            assert mat == reference_koszul_matrix(gs, j, k)
            ranks.append(reference_rank(mat.entries, mat.cols))
        dims = [math.comb(m, j) * dim_degree(n, k - j * d) for j in range(1, m + 1)]
        exact &= all(a + b == dim for a, b, dim in zip(ranks, ranks[1:] + [0], dims))
        prefix.append(exact)
    for top in range(k_max + 1):
        assert koszul_exactness_check(gs, top) == prefix[top], top


def test_koszul_exactness_examples():
    assert koszul_exactness_check(squares(2), 6)
    assert not koszul_exactness_check([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})], 4)
    assert koszul_exactness_check([P(2, {(2, 0): 1})], 4)  # single nonzerodivisor


def test_koszul_matches_regularity():
    rng = random.Random(26)
    for _ in range(6):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = [random_form(rng, n, d) for _ in range(n)]
        k_max = n * (d - 1) + d
        assert koszul_exactness_check(gs, k_max) == is_regular_sequence(gs)


def test_gorenstein_symmetry():
    rng = random.Random(27)
    for _ in range(6):
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        nu = n * (d - 1)
        values = hilbert_function(GradedIdeal(n, d, gs), nu + 1)
        assert list(values) == series_hilbert(n, d, nu + 1)
        for k in range(nu + 1):
            assert values[k] == values[nu - k]
