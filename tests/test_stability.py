"""Tests for weight analysis, destabilizers, binary GIT, and decomposability."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import (lift_block, mixed_direct_sum, power_gens, random_form,
                     random_regular_sequence, reference_binary_stability,
                     reference_recognize_decomposable)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from assoform import ideals
from assoform.ideals import (GradedIdeal, is_regular_sequence,
                             min_nonideal_monomial)
from assoform.inverse_system import NotRegularSequence, associated_form
from assoform.linalg import from_rows, row_space_basis, unit_columns
from assoform.poly import Polynomial, Space, dim_degree, monomials_of_degree, substitute
from assoform.stability import (DecompositionCertificate, OnePS, RootWitness,
                                Verdict, binary_stability, degeneration_limit,
                                recognize_decomposable,
                                semistability_audit, support_weight_range,
                                torus_destabilizer)


def P(n, terms):
    return Polynomial(n, Space.PRIMAL, terms)


def D(n, terms):
    return Polynomial(n, Space.DUAL, terms)


# -- 1-PS and weights ------------------------------------------------------------


def test_oneps_validation():
    with pytest.raises(ValueError):
        OnePS((1, 1))
    with pytest.raises(ValueError):
        OnePS((0, 0))
    assert OnePS((2, -1, -1)).negated() == OnePS((-2, 1, 1))


def test_support_weight_range_examples():
    assert support_weight_range(D(2, {(1, 1): 1}), OnePS((-1, 1))) == (0, 0)
    assert support_weight_range(D(2, {(2, 0): 1, (0, 2): 1}), OnePS((-1, 1))) == (-2, 2)
    assert support_weight_range(D(2, {(3, 1): 1}), OnePS((1, -1))) == (2, 2)
    with pytest.raises(ValueError):
        support_weight_range(Polynomial.zero(2, Space.DUAL), OnePS((1, -1)))


def test_limit_exists_examples():
    # the t -> 0 limit exists iff the minimum support weight is >= 0
    assert support_weight_range(D(2, {(1, 1): 1}), OnePS((-1, 1)))[0] == 0  # fixed point
    assert support_weight_range(D(2, {(2, 0): 1}), OnePS((1, -1)))[0] > 0  # limit is 0
    assert support_weight_range(D(2, {(2, 0): 1, (0, 2): 1}), OnePS((1, -1)))[0] < 0


# -- torus destabilizer -----------------------------------------------------------


def test_torus_destabilizer_examples():
    assert torus_destabilizer(D(2, {(3, 3): 1})) is None  # centroid is support
    assert torus_destabilizer(D(2, {(5, 1): 1})) == OnePS((1, -1))
    assert torus_destabilizer(D(2, {(2, 1): 1, (1, 2): 1})) is None


def test_torus_destabilizer_strictly_positive():
    rng = random.Random(41)
    found = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        f = random_form(rng, n, rng.randint(2, 5), space=Space.DUAL)
        u = torus_destabilizer(f)
        if u is not None:
            found += 1
            assert sum(u.weights) == 0
            lo, _hi = support_weight_range(f, u)
            assert lo > 0
    assert found > 0  # sparse random forms do get destabilized sometimes


def test_torus_destabilizer_permutation_equivariant():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 3)
        nterms = rng.randint(1, 4)
        monos = monomials_of_degree(n, rng.randint(2, 5))
        chosen = rng.sample(monos, min(nterms, len(monos)))
        f = Polynomial(n, Space.DUAL, {m: rng.randint(1, 3) for m in chosen})
        base = torus_destabilizer(f)
        for perm in itertools.permutations(range(n)):
            permuted = Polynomial(n, Space.DUAL,
                                  {tuple(m[perm[i]] for i in range(n)): c
                                   for m, c in f.terms.items()})
            expected = None if base is None else \
                OnePS(tuple(base.weights[perm[i]] for i in range(n)))
            assert torus_destabilizer(permuted) == expected


def test_torus_destabilizer_none_for_associated_forms():
    rng = random.Random(43)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2)])
        gs = random_regular_sequence(rng, n, d)
        assert torus_destabilizer(associated_form(gs).form) is None


# -- root multiplicities ------------------------------------------------------------


def test_multiplicities_structure():
    # f(t, 1) = t^2 (t^2+1)^3: a double root at 0 and two triple roots
    f = D(2, {(2, 0): 1}) * (D(2, {(2, 0): 1}) + D(2, {(0, 2): 1})) ** 3
    assert binary_stability(f).multiplicities == ((3, 2), (2, 1))


def test_multiplicities_squarefree_input():
    f = D(2, {(0, 2): -2, (1, 1): 1, (2, 0): 1})  # (t+2)(t-1)
    assert binary_stability(f).multiplicities == ((1, 2),)


_LINEAR = st.one_of(
    st.just({(1, 0): 1}),  # a root at 0
    st.just({(0, 1): 1}),  # the root at infinity
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3))
    .map(lambda ab: {(1, 0): ab[0], (0, 1): ab[1]}))
_QUADRATIC = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda bc: {(2, 0): 1, (1, 1): bc[0], (0, 2): bc[1]})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_LINEAR, _QUADRATIC), st.integers(1, 4)),
                min_size=1, max_size=5),
       st.sampled_from([1, -2, Fraction(1, 3)]))
# a heavy root at z1 = 0, at infinity, and elsewhere, each beside a light one
@example([({(1, 0): 1}, 3), ({(1, 0): 1, (0, 1): 1}, 1)], 1)
@example([({(0, 1): 1}, 4), ({(1, 0): 2, (0, 1): -1}, 2)], -2)
@example([({(1, 0): 1, (0, 1): 2}, 3), ({(1, 0): 1}, 1)], Fraction(1, 3))
def test_binary_stability_matches_yun(factors, lead):
    f = D(2, {(0, 0): lead})
    for terms, e in factors:
        f = f * D(2, terms) ** e
    report = binary_stability(f)
    assert (report.verdict, report.witness, report.multiplicities) == \
        reference_binary_stability(f)


# -- binary stability ----------------------------------------------------------------


def test_binary_circle_powers_polystable():
    for d in (2, 3, 4):
        f = (D(2, {(2, 0): 1}) + D(2, {(0, 2): 1})) ** (d - 1)
        report = binary_stability(f)
        assert report.verdict is Verdict.POLYSTABLE_NOT_STABLE
        assert report.multiplicities == ((d - 1, 2),)


def test_binary_unstable_with_witness():
    report = binary_stability(D(2, {(3, 1): 1}))
    assert report.verdict is Verdict.UNSTABLE
    assert report.witness == OnePS((1, -1))
    lo, _ = support_weight_range(D(2, {(3, 1): 1}), report.witness)
    assert lo > 0


def test_binary_unstable_hidden_root():
    f = (D(2, {(1, 0): 1}) + D(2, {(0, 1): 1})) ** 4
    report = binary_stability(f)
    assert report.verdict is Verdict.UNSTABLE
    assert isinstance(report.witness, RootWitness)
    assert report.witness.multiplicity == 4


def test_binary_stable_four_distinct_roots():
    z1, z2 = D(2, {(1, 0): 1}), D(2, {(0, 1): 1})
    f = z1 * z2 * (z1 + z2) * (z1 - z2)
    report = binary_stability(f)
    assert report.verdict is Verdict.STABLE
    assert report.multiplicities == ((1, 4),)


def test_binary_semistable_not_polystable():
    z1, z2 = D(2, {(1, 0): 1}), D(2, {(0, 1): 1})
    f = z1 * z1 * z2 * (z1 + z2)
    report = binary_stability(f)
    assert report.verdict is Verdict.SEMISTABLE_NOT_POLYSTABLE
    assert report.multiplicities == ((2, 1), (1, 2))


def test_binary_validation():
    with pytest.raises(ValueError):
        binary_stability(D(3, {(1, 1, 0): 1}))
    with pytest.raises(ValueError):
        binary_stability(Polynomial.zero(2, Space.DUAL))
    with pytest.raises(ValueError):
        binary_stability(D(2, {(2, 0): 1, (1, 0): 1}))


def test_binary_verdict_invariant_under_unimodular_substitution():
    from helpers import random_unimodular
    rng = random.Random(44)
    for _ in range(10):
        f = random_form(rng, 2, 4, space=Space.DUAL)
        m = random_unimodular(rng, 2)
        g = substitute(f, m)
        assert binary_stability(f).verdict is binary_stability(g).verdict


# -- decomposability certificates ------------------------------------------------------


def test_recognize_monomial_squares():
    ideal = GradedIdeal(3, 2, power_gens(3, [2, 2, 2]))
    cert = recognize_decomposable(ideal, 1)
    assert isinstance(cert, DecompositionCertificate)
    assert cert.split_index == 1
    assert {g.render() for g in cert.generators} == {"x2^2", "x3^2"}


def test_recognize_mixed_basis():
    gens = [P(2, {(2, 0): 1, (0, 2): 1}), P(2, {(2, 0): 1, (0, 2): -1})]
    cert = recognize_decomposable(GradedIdeal(2, 2, gens), 1)
    assert cert is not None
    assert [g.render() for g in cert.generators] == ["x2^2"]


def test_recognize_rejects_hidden_split():
    gens = [P(2, {(2, 0): 1, (0, 2): -1}), P(2, {(1, 1): 1})]
    assert recognize_decomposable(GradedIdeal(2, 2, gens), 1) is None


def test_recognize_requires_complete_intersection():
    with pytest.raises(NotRegularSequence):
        recognize_decomposable(
            GradedIdeal(2, 2, [P(2, {(2, 0): 1}), P(2, {(1, 1): 1})]), 1)
    # I_2 meets k[x2]_2 in the full dimension n - b = 1, but x2 = 0 is a common zero
    with pytest.raises(NotRegularSequence):
        recognize_decomposable(
            GradedIdeal(2, 2, [P(2, {(1, 1): 1}), P(2, {(0, 2): 1})]), 1)


def test_recognize_certifies_regularity_once_per_ideal(monkeypatch):
    ideal = GradedIdeal(3, 2, power_gens(3, [2, 2, 2]))
    bounds = []
    real = ideals.certified_rank
    monkeypatch.setattr(ideals, "certified_rank",
                        lambda rows, ncols, bound: bounds.append(bound)
                        or real(rows, ncols, bound))
    assert recognize_decomposable(ideal, 1) is not None
    assert recognize_decomposable(ideal, 2) is not None
    assert bounds == [dim_degree(3, 4)]  # regularity at nu + 1 = 4, once


def test_recognize_split_index_range():
    ideal = GradedIdeal(2, 2, power_gens(2, [2, 2]))
    with pytest.raises(ValueError):
        recognize_decomposable(ideal, 0)
    with pytest.raises(ValueError):
        recognize_decomposable(ideal, 2)


def test_recognize_randomized_direct_sums():
    rng = random.Random(45)
    for _ in range(8):
        n = rng.choice([2, 3])
        b = rng.randint(1, n - 1)
        d = rng.randint(2, 3)
        lifted, mixed = mixed_direct_sum(rng, n, b, d)
        cert = recognize_decomposable(GradedIdeal(n, d, mixed), b)
        assert cert is not None
        monos = monomials_of_degree(n, d)
        got = row_space_basis(from_rows(
            [[g.terms.get(m, Fraction(0)) for m in monos] for g in cert.generators]))
        want = row_space_basis(from_rows(
            [[g.terms.get(m, Fraction(0)) for m in monos] for g in lifted[b:]]))
        assert got == want


@st.composite
def split_candidates(draw):
    """Random regular sequences, direct sums of embedded blocks, permuted sums
    and triangular sequences.

    A permutation of the variables moves a direct sum's split off its index.
    A triangular sequence, b dense forms and n-b forms in the last n-b
    variables, splits at b without being a direct sum.
    """
    n, d = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    family = draw(st.sampled_from(["random", "direct sum", "permuted direct sum",
                                   "triangular"]))
    if family == "random":
        return random_regular_sequence(rng, n, d)
    if family == "triangular":
        b = draw(st.integers(1, n - 1))
        while True:
            gs = [random_form(rng, n, d) for _ in range(b)]
            gs += [lift_block(random_form(rng, n - b, d), n, b) for _ in range(n - b)]
            if is_regular_sequence(gs):
                return gs
    gs = draw(st.sampled_from(mixed_direct_sum(rng, n, draw(st.integers(1, n - 1)), d)))
    if family == "permuted direct sum":
        perm = draw(st.permutations(range(n)))
        gs = [P(n, {tuple(m[i] for i in perm): c for m, c in g.terms.items()}) for g in gs]
    return gs


@settings(max_examples=80, deadline=None)
@given(split_candidates())
def test_recognize_matches_the_rref_of_the_power(gs):
    # one intersection with the tail subring agrees with the oracle, which
    # tests (A) and then reads (B) off the exact RREF of I_N
    ideal = GradedIdeal.of(gs)
    for b in range(1, ideal.nvars):
        assert recognize_decomposable(ideal, b) == reference_recognize_decomposable(gs, b), b


# -- degeneration to direct sums ----------------------------------------------------------


def test_degeneration_example():
    gs = [P(2, {(2, 0): 1, (1, 1): 1}), P(2, {(0, 2): 1})]
    limit = degeneration_limit(gs, 1)
    assert list(limit) == power_gens(2, [2, 2])


def test_degeneration_already_split():
    gs = power_gens(3, [2, 2, 2])
    assert list(degeneration_limit(gs, 1)) == gs
    assert list(degeneration_limit(gs, 2)) == gs


def test_degeneration_reads_an_ideal():
    gs = [P(2, {(2, 0): 1, (1, 1): 1}), P(2, {(0, 2): 1})]
    assert degeneration_limit(GradedIdeal.of(gs), 1) == degeneration_limit(gs, 1)
    with pytest.raises(ValueError):
        degeneration_limit([], 1)


def test_degeneration_precondition():
    with pytest.raises(ValueError):
        degeneration_limit([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})], 1)


def test_degeneration_limit_not_regular():
    # the truncation kills the first generator entirely
    gs = [P(2, {(1, 1): 1, (0, 2): 1}), P(2, {(0, 2): 1})]
    with pytest.raises(NotRegularSequence):
        degeneration_limit(gs, 1)


def test_binary_degeneration_limit_is_polystable():
    # a binary direct-sum limit has associated form c (z1 z2)^(d-1)
    rng = random.Random(46)
    checked = 0
    for d in (2, 3, 4):
        head = random_form(rng, 2, d)
        gs = [head + P(2, {(d, 0): 4}), P(2, {(0, d): 1})]
        try:
            limit = degeneration_limit(gs, 1)
        except NotRegularSequence:
            continue
        checked += 1
        report = binary_stability(associated_form(limit).form)
        assert report.verdict is Verdict.POLYSTABLE_NOT_STABLE
    assert checked > 0


# -- the audit ------------------------------------------------------------------------------


def test_audit_two_squares():
    report = semistability_audit(power_gens(2, [2, 2]), trials=10, seed=3)
    assert report.all_mins_nonpositive
    assert report.grevlex_ok
    assert report.min_monomial == (1, 1)
    assert report.decomposable_split == 1
    assert len(report.samples) == 10
    for sample in report.samples:
        assert sum(sample.weights) == 0
        assert list(sample.weights) == sorted(sample.weights)


def test_audit_three_cubes():
    report = semistability_audit(power_gens(3, [3, 3, 3]), trials=6, seed=9)
    assert report.all_mins_nonpositive
    assert report.grevlex_ok


def test_audit_empty():
    report = semistability_audit(power_gens(2, [2, 2]), trials=0, seed=0)
    assert report.samples == ()
    assert report.all_mins_nonpositive  # vacuous


def test_audit_deterministic():
    a = semistability_audit(power_gens(2, [3, 3]), trials=7, seed=123)
    b = semistability_audit(power_gens(2, [3, 3]), trials=7, seed=123)
    assert a == b


@st.composite
def sparse_regular_sequences(draw):
    """x_i^d plus a few other degree-d terms: A often misses many monomials."""
    n, d = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]))
    monos = monomials_of_degree(n, d)
    gs = []
    for i in range(n):
        terms = {m: draw(st.integers(-3, 3))
                 for m in draw(st.lists(st.sampled_from(monos), max_size=3))}
        terms[tuple(d * (j == i) for j in range(n))] = draw(st.sampled_from([1, 2, -1]))
        gs.append(P(n, terms))
    assume(all(not g.is_zero() for g in gs) and is_regular_sequence(gs))
    return GradedIdeal.of(gs)


@settings(max_examples=60, deadline=None)
@given(sparse_regular_sequences())
def test_audit_reads_the_nonideal_monomials_off_the_form(ideal):
    # the degree-nu monomials outside I_nu, read off the RREF of I_nu
    target = monomials_of_degree(ideal.nvars, ideal.nu)
    members = {target[j] for j in unit_columns(*ideal.piece_with_pivots(ideal.nu))}
    outside = set(target) - members
    assert set(associated_form(ideal).form.terms) == outside
    report = semistability_audit(ideal, trials=0, seed=0)
    assert report.min_monomial == min_nonideal_monomial(ideal, ideal.nu)


def test_audit_requires_regular():
    with pytest.raises(NotRegularSequence):
        semistability_audit([P(2, {(2, 0): 1}), P(2, {(1, 1): 1})], 5, 0)


def test_audit_one_variable_raises_before_sampling():
    with pytest.raises(ValueError, match="2 variables"):
        semistability_audit([P(1, {(3,): 1})], trials=5, seed=0)
