"""Acceptance suite.

Each test runs one acceptance criterion at exact (zero-tolerance) rational
equality and prints a PASS/FAIL line (visible with ``pytest -s``).  The
randomized instance pool is seeded and shared across criteria.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import (inverse_transpose, lift_block, mixed_direct_sum, power_gens,
                     random_form, random_regular_sequence, random_unimodular,
                     restrict_block, series_hilbert)

from assoform.ideals import (GradedIdeal, hilbert_function,
                             is_regular_sequence, koszul_exactness_check,
                             min_nonideal_monomial)
from assoform.inverse_system import (associated_form, direct_sum_assoc,
                                     perp_piece)
from assoform.invariants import mather_yau_point, points_equal
from assoform.linalg import from_rows, row_space_basis
from assoform.poly import Polynomial, Space, monomials_of_degree, partial, substitute
from assoform.stability import (Verdict, binary_stability, degeneration_limit,
                                recognize_decomposable, semistability_audit,
                                torus_destabilizer)

SEED = 20260809
CELLS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
PER_CELL = 20


class Instance:
    def __init__(self, n, d, gs):
        self.n, self.d, self.gs = n, d, gs
        self.nu = n * (d - 1)
        self.ideal = GradedIdeal(n, d, gs)
        self._assoc = None

    @property
    def assoc(self):
        if self._assoc is None:
            self._assoc = associated_form(self.gs)
        return self._assoc


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(SEED)
    return [Instance(n, d, random_regular_sequence(rng, n, d))
            for n, d in CELLS for _ in range(PER_CELL)]


def _report(number, ok, text):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_macaulay_roundtrip(pool):
    ok = all(
        perp_piece(inst.assoc.form, k) == inst.ideal.graded_piece(k)
        for inst in pool for k in range(inst.nu + 2))
    _report(1, ok, f"apolar ideal of A(U) reproduces I in all degrees <= nu+1 "
                   f"on {len(pool)} seeded regular sequences")


def test_criterion_02_hilbert_functions(pool):
    ok = True
    for inst in pool:
        values = hilbert_function(inst.ideal, inst.nu + 1)
        ok = ok and list(values) == series_hilbert(inst.n, inst.d, inst.nu + 1)
        ok = ok and all(values[k] == values[inst.nu - k]
                        for k in range(inst.nu + 1))
    _report(2, ok, "Hilbert functions match ((1-t^d)/(1-t))^n and are symmetric")


def test_criterion_03_product_formula():
    rng = random.Random(SEED + 3)
    ok = True
    for _ in range(50):
        a = rng.randint(1, 2)
        b = rng.randint(1, 3 - a)
        d = rng.randint(2, 4) if a + b == 2 else rng.randint(2, 3)
        gs1 = random_regular_sequence(rng, a, d)
        gs2 = random_regular_sequence(rng, b, d)
        product = direct_sum_assoc(gs1, gs2)
        direct = associated_form(product.source)
        ok = ok and product.form == direct.form
        ok = ok and product.omega.values == direct.omega.values
    _report(3, ok, "direct_sum_assoc equals associated_form exactly, "
                   "including the binomial scalar (50 block pairs)")


def test_criterion_04_monomial_example():
    ok = True
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            assoc = associated_form(power_gens(n, [d] * n))
            nu = n * (d - 1)
            scalar = Fraction(math.factorial(nu),
                              math.factorial(d - 1) ** n * d ** n)
            ok = ok and assoc.form == Polynomial(
                n, Space.DUAL, {(d - 1,) * n: scalar})
    for n in (2, 3):
        for degrees in itertools.product((2, 3, 4), repeat=n):
            nu = sum(degrees) - n
            f = Polynomial(n, Space.DUAL, {tuple(d - 1 for d in degrees): 1})
            for k in range(nu + 2):
                monos = monomials_of_degree(n, k)
                expected = from_rows(
                    [[Fraction(1 if j == i else 0) for j in range(len(monos))]
                     for i, m in enumerate(monos)
                     if any(e >= d for e, d in zip(m, degrees))],
                    cols=len(monos))
                ok = ok and perp_piece(f, k) == expected
    _report(4, ok, "A(x_i^d) is the single balanced monomial with the derived "
                   "scalar; perp of mixed monomials is the power ideal")


def test_criterion_05_semistability_evidence(pool):
    ok = all(torus_destabilizer(inst.assoc.form) is None for inst in pool)
    for i, inst in enumerate(pool):
        report = semistability_audit(inst.gs, trials=5, seed=SEED + i)
        ok = ok and report.all_mins_nonpositive
    _report(5, ok, "no torus destabilizer and no sampled 1-PS with strictly "
                   "positive minimum weight on any instance")


def test_criterion_06_binary_exactness(pool):
    # smooth pairs are gradient spans of smooth binary forms; those are
    # polystable, so their associated forms are never unstable and never
    # strictly semistable.  (A raw random regular pair can be decomposable
    # without being a direct sum, e.g. one generator a pure power of x2,
    # and its associated form is then honestly SemistableNotPolystable.)
    rng = random.Random(SEED + 6)
    allowed = {Verdict.STABLE, Verdict.POLYSTABLE_NOT_STABLE}
    ok = True
    count = 0
    while count < 100:
        e = 3 + count % 3  # deg F in 3..5, so generator degree d in 2..4
        F = random_form(rng, 2, e)
        grads = [partial(F, 0), partial(F, 1)]
        if any(g.is_zero() for g in grads) or not is_regular_sequence(grads):
            continue
        count += 1
        verdict = binary_stability(associated_form(grads).form).verdict
        ok = ok and verdict in allowed
    # general regular pairs are still never unstable (unconditional
    # semistability of associated forms)
    for inst in pool:
        if inst.n == 2:
            ok = ok and binary_stability(inst.assoc.form).verdict \
                is not Verdict.UNSTABLE
    circle = Polynomial(2, Space.DUAL, {(2, 0): 1, (0, 2): 1})
    for d in (2, 3, 4):
        verdict = binary_stability(circle ** (d - 1)).verdict
        ok = ok and verdict is Verdict.POLYSTABLE_NOT_STABLE
    _report(6, ok, "binary A(grad F) never Unstable nor SemistableNotPolystable "
                   "(100 smooth pairs); (z1^2+z2^2)^(d-1) polystable for d=2,3,4")


def test_criterion_07_grevlex_lemma(pool):
    ok = True
    for inst in pool:
        mono = min_nonideal_monomial(inst.ideal, inst.nu)
        ok = ok and mono is not None
        ok = ok and all(sum(mono[:i]) <= i * (inst.d - 1)
                        for i in range(1, inst.n + 1))
    _report(7, ok, "grevlex-minimal non-ideal monomial satisfies the "
                   "partial-sum inequalities on all 100 instances")


def test_criterion_08_recognition_certificate():
    rng = random.Random(SEED + 8)
    ok = True
    for _ in range(25):
        n = rng.choice([2, 3])
        b = rng.randint(1, n - 1)
        d = rng.randint(2, 3)
        split_gens, mixed = mixed_direct_sum(rng, n, b, d)
        cert = recognize_decomposable(GradedIdeal(n, d, mixed), b)
        if cert is None:
            ok = False
            continue
        monos = monomials_of_degree(n, d)
        got = row_space_basis(from_rows(
            [[g.terms.get(m, Fraction(0)) for m in monos]
             for g in cert.generators]))
        want = row_space_basis(from_rows(
            [[g.terms.get(m, Fraction(0)) for m in monos]
             for g in split_gens[b:]]))
        ok = ok and got == want and len(cert.generators) == n - b
    hidden = GradedIdeal(2, 2, [
        Polynomial(2, Space.PRIMAL, {(2, 0): 1, (0, 2): -1}),
        Polynomial(2, Space.PRIMAL, {(1, 1): 1})])
    ok = ok and recognize_decomposable(hidden, 1) is None
    _report(8, ok, "certificate with correct extracted generators on 25 "
                   "mixed-basis direct sums; none on (x1^2-x2^2, x1*x2)")


def test_criterion_09_degeneration():
    rng = random.Random(SEED + 9)
    ok = True
    done = 0
    while done < 25:
        n = rng.choice([2, 3])
        a = rng.randint(1, n - 1)
        d = rng.randint(2, 3)
        tail_small = random_regular_sequence(rng, n - a, d)
        tail = [lift_block(g, n, a) for g in tail_small]
        head = [random_form(rng, n, d) for _ in range(a)]
        gs = head + tail
        if not is_regular_sequence(gs):
            continue
        expected_head = [
            Polynomial(n, Space.PRIMAL,
                       {m: c for m, c in g.terms.items() if sum(m[a:]) == 0})
            for g in head]
        if any(g.is_zero() for g in expected_head) or \
                not is_regular_sequence(expected_head + tail):
            continue
        done += 1
        limit = degeneration_limit(gs, a)
        ok = ok and list(limit) == expected_head + tail
        head_small = [restrict_block(g, 0, a) for g in expected_head]
        product = direct_sum_assoc(head_small, tail_small)
        ok = ok and associated_form(limit).form == product.form
    _report(9, ok, "degeneration limit matches the substitution on 25 "
                   "instances and its associated form obeys the product formula")


def test_criterion_10_mather_yau_desk_demo():
    rng = random.Random(SEED + 10)
    fermat = mather_yau_point(
        Polynomial(2, Space.PRIMAL, {(4, 0): 1, (0, 4): 1}))
    harmonic = mather_yau_point(
        Polynomial(2, Space.PRIMAL, {(3, 1): 1, (1, 3): 1}))
    ok = points_equal(fermat, harmonic)
    F = Polynomial(2, Space.PRIMAL, {(4, 0): 1, (0, 4): 1})
    for _ in range(3):
        m = random_unimodular(rng, 2)
        ok = ok and points_equal(fermat, mather_yau_point(substitute(F, m)))
    shear = from_rows([[1, 2], [0, 1]])
    ok = ok and points_equal(fermat, mather_yau_point(substitute(F, shear)))
    other = mather_yau_point(
        Polynomial(2, Space.PRIMAL, {(4, 0): 1, (1, 3): 1}))
    ok = ok and not points_equal(fermat, other)
    _report(10, ok, "x1^4+x2^4 and x1^3*x2+x1*x2^3 share their invariant "
                    "point, unimodular transforms preserve it, x1^4+x1*x2^3 "
                    "differs")


def test_criterion_11_equivariance():
    rng = random.Random(SEED + 11)
    ok = True
    for trial in range(20):
        n, d = CELLS[trial % len(CELLS)]
        if (n, d) == (3, 3):
            n, d = (3, 2)  # keep the substitution suite fast; coverage unchanged
        gs = random_regular_sequence(rng, n, d)
        m = random_unimodular(rng, n)
        transformed = [substitute(g, m) for g in gs]
        lhs = associated_form(transformed).form
        rhs = substitute(associated_form(gs).form, inverse_transpose(m))
        ok = ok and lhs == rhs
    _report(11, ok, "20 determinant-1 substitutions commute exactly with the "
                    "associated form under the inverse-transpose dual action")


NON_REGULAR = [
    [{(2, 0): 1}, {(1, 1): 1}],
    [{(1, 1): 1}, {(0, 2): 1}],
    [{(2, 0): 1}, {(2, 0): 1}],
    [{(2, 0): 1, (0, 2): 1}, {(2, 0): 1, (0, 2): 1}],
    [{(3, 0): 1}, {(2, 1): 1}],
    [{(1, 2): 1}, {(0, 3): 1}],
    [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(1, 1, 0): 1}],
    [{(2, 0, 0): 1}, {(1, 1, 0): 1}, {(1, 0, 1): 1}],
    [{(2, 0, 0): 1, (0, 2, 0): 1}, {(0, 2, 0): 1, (0, 0, 2): 1},
     {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 1}],
    [{(1, 1, 0): 1}, {(0, 1, 1): 1}, {(1, 0, 1): 1}],
]


def test_criterion_12_koszul(pool):
    ok = all(
        koszul_exactness_check(inst.gs, inst.nu + inst.d) for inst in pool)
    count_bad = 0
    for terms_list in NON_REGULAR:
        n = len(terms_list)
        gs = [Polynomial(n, Space.PRIMAL, t) for t in terms_list]
        d = gs[0].degree()
        assert not is_regular_sequence(gs)  # constructed to fail
        count_bad += 1
        ok = ok and not koszul_exactness_check(gs, n * (d - 1) + d)
    ok = ok and count_bad == 10
    _report(12, ok, "Koszul exactness holds on every regular instance and "
                    "fails on all 10 constructed non-regular ones")
