"""One validated ideal per operation: each elimination of an intersection runs once.

The spies record the shape of every matrix passed to ``rank``,
``reduce_rows`` (the one RREF of integer rows) and ``lifted_kernel`` (the
certified kernel), and the target rank of every ``echelon_mod_p``, at
every module that binds them (``ideals`` binds its own ``reduce_rows``;
the echelon and the lift are called only inside ``linalg``), so a second
ideal built for the same forms shows up as a repeated call, and a subspace
reduced twice shows up as a second ``reduce_rows``.
"""

import random
import sys

import pytest
from helpers import (mixed_direct_sum, power_gens, random_form, random_regular_sequence,
                     series_hilbert)

from assoform import ideals, linalg, stability
from assoform.ideals import (GradedIdeal, hilbert_function, intersect_with_coordinates,
                             is_regular_sequence)
from assoform.invariants import mather_yau_point
from assoform.inverse_system import (associated_form, hilbert_point_functional,
                                     macaulay_roundtrip, perp_piece)
from assoform.poly import Polynomial, Space, dim_degree, monomials_of_degree
from assoform.stability import recognize_decomposable, semistability_audit


SHAPES = {  # name: (the call's shape, the modules binding the name)
    "rank": (lambda m: (m.rows, m.cols), (linalg,)),
    "reduce_rows": (lambda rows, ncols: (len(rows), ncols), (linalg, ideals)),
    "lifted_kernel": (lambda rows, ncols, echelon, p: (len(rows), ncols), (linalg,)),
    "echelon_mod_p": (lambda rows, target, p: (target,), (linalg,)),
}


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    for name, (shape, modules) in SHAPES.items():
        real = getattr(linalg, name)

        def spy(rows, *args, _name=name, _shape=shape, _real=real):
            if _name == "reduce_rows":  # its rows may come as a generator
                rows = list(rows)
            calls.append((_name, *_shape(rows, *args)))
            return _real(rows, *args)

        for module in modules:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_audit_certifies_and_reduces_once(eliminations):
    gs = random_regular_sequence(random.Random(3), 3, 3)
    eliminations.clear()
    semistability_audit(gs, trials=4, seed=0)
    # omega certifies regularity, and its support gives the grevlex monomial:
    # one echelon of the 30x28 rows of I_6 up to rank 27 and its certified
    # kernel, never through reduce_rows; no echelon of I_7 (dim S_7 = 36)
    assert eliminations.count(("echelon_mod_p", 27)) == 1
    assert ("echelon_mod_p", 36) not in eliminations
    assert not [call for call in eliminations if call[0] == "rank"]
    assert eliminations.count(("lifted_kernel", 30, 28)) == 1
    assert ("reduce_rows", 30, 28) not in eliminations


def test_hilbert_reads_the_regularity_rank(eliminations, monkeypatch):
    gs = random_regular_sequence(random.Random(3), 3, 3)
    built = []  # the degrees whose product rows are made
    real = GradedIdeal._macaulay_rows
    monkeypatch.setattr(GradedIdeal, "_macaulay_rows",
                        lambda self, k: built.append(k) or real(self, k))
    eliminations.clear()
    # past the socle: the one echelon of I_7 up to rank 36 decides every degree
    assert list(hilbert_function(GradedIdeal.of(gs), 7)) == series_hilbert(3, 3, 7)
    assert eliminations == [("echelon_mod_p", 36)]
    assert built == [7]
    # capped at the socle degree: I_7 is not ranked, and every degree below is
    built.clear()
    assert list(hilbert_function(GradedIdeal.of(gs), 6)) == series_hilbert(3, 3, 6)
    assert built == list(range(7))


def test_omega_records_the_regularity_rank(monkeypatch):
    # after associated_form, the audit's splits and the roundtrip's Hilbert
    # function read I_7 full from the rank cache: no row of I_7 is built
    ideal = GradedIdeal.of(random_regular_sequence(random.Random(3), 3, 3))
    built = []  # the degrees whose product rows are made
    real = GradedIdeal._macaulay_rows
    monkeypatch.setattr(GradedIdeal, "_macaulay_rows",
                        lambda self, k: built.append(k) or real(self, k))
    associated_form(ideal)
    assert built == [6]
    semistability_audit(ideal, trials=3, seed=0)
    assert built == [6, 6, 3, 3]  # omega once more, then I_3 for each split
    assert macaulay_roundtrip(ideal)
    assert built == [6, 6, 3, 3, 6]
    assert hilbert_function(ideal, 7) == tuple(series_hilbert(3, 3, 7))


def test_mather_yau_certifies_the_gradient_once(eliminations):
    rng = random.Random(7)
    quartics = []
    while len(quartics) < 3:
        F = random_form(rng, 2, 4)
        try:
            mather_yau_point(F)
        except ValueError:  # singular: the gradient is not a regular sequence
            continue
        quartics.append(F)
    eliminations.clear()
    for F in quartics:
        mather_yau_point(F)
    # omega certifies the gradient's regularity: its 2 * dim S_1 = 4 rows of
    # I_4 up to rank dim S_4 - 1 = 4, once each; I_5 (dim S_5 = 6) is never ranked
    assert eliminations.count(("echelon_mod_p", 4)) == len(quartics)
    assert ("echelon_mod_p", 6) not in eliminations


def test_associated_form_keeps_its_ideal(eliminations):
    gs = power_gens(3, [3, 3, 3])
    ideal = GradedIdeal.of(gs)
    assoc = associated_form(ideal)
    assert assoc.ideal is ideal and assoc.source == tuple(gs)
    assert is_regular_sequence(ideal)
    assert hilbert_point_functional(ideal) == assoc.omega
    # each solve reads the kernel of the 30x28 product rows of I_6 up to rank
    # 27; the first records I_7 full, so regularity ranks no row of I_7 (36)
    assert eliminations.count(("echelon_mod_p", 27)) == 2
    assert ("echelon_mod_p", 36) not in eliminations
    assert eliminations.count(("lifted_kernel", 30, 28)) == 2
    assert ("reduce_rows", 30, 28) not in eliminations
    assert macaulay_roundtrip(gs)


def test_of_reads_n_and_d_from_the_forms():
    ideal = GradedIdeal.of(power_gens(3, [4, 4, 4]))
    assert (ideal.nvars, ideal.d, len(ideal.generators)) == (3, 4, 3)
    assert GradedIdeal.of(ideal) is ideal
    with pytest.raises(ValueError, match="empty"):
        GradedIdeal.of([])
    with pytest.raises(ValueError, match="homogeneous of degree 2"):
        GradedIdeal.of([Polynomial(2, Space.PRIMAL, {(2, 0): 1}),
                        Polynomial(2, Space.PRIMAL, {(0, 3): 1})])
    with pytest.raises(ValueError, match="nonzero"):
        GradedIdeal.of([Polynomial.zero(2, Space.PRIMAL)])


def test_associated_form_reads_omega_off_the_cached_piece(eliminations, later_primes,
                                                         monkeypatch):
    gs = random_regular_sequence(random.Random(3), 3, 3)
    expected = associated_form(gs).form
    # without a kernel certificate at the first prime, omega is read at the second
    real = linalg.lifted_kernel
    monkeypatch.setattr(linalg, "lifted_kernel", lambda rows, ncols, echelon, p:
                        None if p == linalg._PRIME else real(rows, ncols, echelon, p))
    eliminations.clear()
    assoc = associated_form(gs)
    # the 30x28 product rows of I_6 are echelonned once more, at the second
    # prime, up to rank 27; nothing goes through reduce_rows
    assert [target for _, target in later_primes] == [27]
    assert not [call for call in eliminations if call[0] == "reduce_rows"]
    assert assoc.form == expected
    assert assoc.omega(assoc.ideal.generators[0] * assoc.ideal.generators[1]) == 0


@pytest.mark.parametrize("n, d, seed", [(2, 2, 0), (3, 3, 3), (2, 9, 5), (3, 4, 1)])
def test_associated_form_makes_no_rref_call(eliminations, n, d, seed):
    gs = random_regular_sequence(random.Random(seed), n, d)
    eliminations.clear()
    associated_form(gs)
    # omega, which also certifies regularity, is the certified kernel at nu,
    # whose echelon stops at corank one; nothing is ranked at nu + 1, and
    # nothing goes through reduce_rows
    nu = n * (d - 1)
    cols = len(monomials_of_degree(n, nu))
    assert eliminations == [("echelon_mod_p", cols - 1),
                            ("lifted_kernel", n * len(monomials_of_degree(n, nu - d)), cols)]


def test_perp_piece_reduces_once_per_degree(eliminations):
    form = associated_form(random_regular_sequence(random.Random(3), 3, 3)).form
    for k in range(form.degree() + 2):
        eliminations.clear()
        perp_piece(form, k)
        # one echelon of the catalecticant, whose lifted kernel is the basis:
        # nothing goes through reduce_rows
        assert [call[0] for call in eliminations] == ["echelon_mod_p", "lifted_kernel"], k


def test_intersect_with_coordinates_reduces_once(eliminations):
    ideal = GradedIdeal.of(power_gens(3, [3, 3, 3]))
    touches_tail = [sum(m[1:]) > 0 for m in monomials_of_degree(3, 3)]
    eliminations.clear()
    assert intersect_with_coordinates(ideal._macaulay_rows(3), 10, touches_tail).rows == 2
    # one reduction: one echelon of the 3 rows and its lifted kernel, at one prime
    assert eliminations == [("reduce_rows", 3, 10), ("echelon_mod_p", 10),
                            ("lifted_kernel", 3, 10)]


@pytest.fixture
def kernels(monkeypatch):
    """The function behind every certified kernel read, at each module binding canonical_kernel.

    ``reduce_rows`` reads its RREF off the kernel too; ``eliminations``
    records those calls, so they are left out here.
    """
    calls = []
    real = linalg.canonical_kernel

    def spy(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller != "reduce_rows":
            calls.append(caller)
        return real(*args)

    for module in (linalg, ideals, stability):
        monkeypatch.setattr(module, "canonical_kernel", spy)
    return calls


# a dense intersection (no split) and a direct sum in a scrambled basis (split at 2)
MEMBERSHIP_CASES = [random_regular_sequence(random.Random(3), 3, 3),
                    mixed_direct_sum(random.Random(4), 3, 2, 3)[1]]


@pytest.mark.parametrize("gs", MEMBERSHIP_CASES, ids=["dense", "direct sum"])
def test_membership_reduces_only_the_generating_degree(eliminations, kernels, gs):
    # with every certificate holding, reduce_rows sees no piece past I_d,
    # and omega is the one kernel: the roundtrip compares ranks, and the
    # audit solves omega once more on the same ideal
    ideal = GradedIdeal.of(gs)
    assert macaulay_roundtrip(ideal)
    assert kernels == ["socle_kernel"]
    semistability_audit(ideal, trials=3, seed=0)
    splits = [recognize_decomposable(ideal, b) is not None for b in (1, 2)]
    assert splits == [False, gs is MEMBERSHIP_CASES[1]]
    assert kernels == ["socle_kernel"] * 2
    assert not [call for call in eliminations
                if call[0] == "reduce_rows" and call[2] > dim_degree(3, 3)]


@pytest.mark.parametrize("gs", MEMBERSHIP_CASES, ids=["dense", "direct sum"])
def test_decomposability_reduces_only_the_generating_degree(eliminations, kernels,
                                                           monkeypatch, gs):
    # once regularity is certified, every split is one reduction of the n
    # generator rows of I_d: omega is never solved, and no RREF piece is read
    pieces = []
    real = GradedIdeal.piece_with_pivots
    monkeypatch.setattr(GradedIdeal, "piece_with_pivots",
                        lambda self, k: pieces.append(k) or real(self, k))
    ideal = GradedIdeal.of(gs)
    assert is_regular_sequence(ideal)
    eliminations.clear()
    splits = [recognize_decomposable(ideal, b) is not None for b in (1, 2)]
    assert splits == [False, gs is MEMBERSHIP_CASES[1]]
    assert kernels == []
    dim = dim_degree(3, 3)
    assert eliminations == [("reduce_rows", 3, dim), ("echelon_mod_p", dim),
                            ("lifted_kernel", 3, dim)] * 2
    assert pieces == []
