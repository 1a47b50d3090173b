"""One validated ideal per operation: each elimination of an intersection runs once.

The spies record the shape of every matrix passed to ``rank``, ``rref`` and
``corank_one_kernel`` at both places they are called from (``ideals`` binds
its own names), so a second ideal built for the same forms shows up as a
repeated shape, and a subspace reduced twice shows up as a second ``rref``.
"""

import random

import pytest
from helpers import power_gens, random_form, random_regular_sequence

from assoform import ideals, linalg
from assoform.ideals import (GradedIdeal, intersect_with_coordinates,
                             is_regular_sequence)
from assoform.invariants import mather_yau_point
from assoform.inverse_system import (associated_form, hilbert_point_functional,
                                     macaulay_roundtrip, perp_piece)
from assoform.poly import Polynomial, Space, monomials_of_degree
from assoform.stability import semistability_audit


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    for name in ("rank", "rref", "corank_one_kernel"):
        real = getattr(linalg, name)

        def spy(m, _name=name, _real=real):
            calls.append((_name, m.rows, m.cols))
            return _real(m)

        for module in (linalg, ideals):
            monkeypatch.setattr(module, name, spy)
    return calls


def test_audit_certifies_and_reduces_once(eliminations):
    gs = random_regular_sequence(random.Random(3), 3, 3)
    eliminations.clear()
    semistability_audit(gs, trials=4, seed=0)
    # regularity: the 45x36 product matrix of I_7; omega (whose support gives
    # the grevlex monomial): the certified kernel of the 30x28 rows of I_6,
    # which are never reduced exactly
    assert eliminations.count(("rank", 45, 36)) == 1
    assert eliminations.count(("corank_one_kernel", 30, 28)) == 1
    assert ("rref", 30, 28) not in eliminations


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
    # the gradient's regularity matrix: dim S_2 * 2 = 6 rows, dim S_5 = 6 columns
    assert eliminations.count(("rank", 6, 6)) == len(quartics)


def test_associated_form_keeps_its_ideal(eliminations):
    gs = power_gens(3, [3, 3, 3])
    ideal = GradedIdeal.of(gs)
    assoc = associated_form(ideal)
    assert assoc.ideal is ideal and assoc.source == tuple(gs)
    assert is_regular_sequence(ideal)
    assert hilbert_point_functional(ideal) == assoc.omega
    # the 45x36 regularity matrix of I_7 and the 30x28 product rows of I_6
    assert eliminations.count(("rank", 45, 36)) == 1
    assert eliminations.count(("corank_one_kernel", 30, 28)) == 1
    assert ("rref", 30, 28) not in eliminations
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


def test_associated_form_reads_omega_off_the_cached_piece(eliminations, monkeypatch):
    gs = random_regular_sequence(random.Random(3), 3, 3)
    expected = associated_form(gs).form
    # without a kernel certificate, omega is read off the exact RREF of I_6
    monkeypatch.setattr(ideals, "corank_one_kernel", lambda m: None)
    eliminations.clear()
    assoc = associated_form(gs)
    # the 30x28 product matrix of I_6 is reduced once; its 27x28 RREF basis
    # is not reduced again to find the kernel
    assert eliminations.count(("rref", 30, 28)) == 1
    assert ("rref", 27, 28) not in eliminations
    assert assoc.form == expected
    assert assoc.omega(assoc.ideal.generators[0] * assoc.ideal.generators[1]) == 0


@pytest.mark.parametrize("n, d, seed", [(2, 2, 0), (3, 3, 3), (2, 9, 5), (3, 4, 1)])
def test_associated_form_makes_no_rref_call(eliminations, n, d, seed):
    gs = random_regular_sequence(random.Random(seed), n, d)
    eliminations.clear()
    associated_form(gs)
    # one rank certifies regularity at nu + 1; omega is the certified kernel
    # at nu; nothing is reduced exactly
    nu = n * (d - 1)
    assert [name for name, _, _ in eliminations] == ["rank", "corank_one_kernel"]
    assert eliminations[1][2] == len(monomials_of_degree(n, nu))


def test_perp_piece_reduces_once_per_degree(eliminations):
    form = associated_form(random_regular_sequence(random.Random(3), 3, 3)).form
    for k in range(form.degree() + 2):
        eliminations.clear()
        perp_piece(form, k)
        assert [name for name, _, _ in eliminations] == ["rref"], k


def test_intersect_with_coordinates_reduces_once(eliminations):
    ideal = GradedIdeal.of(power_gens(3, [3, 3, 3]))
    basis = ideal.graded_piece(3)
    touches_tail = [sum(m[1:]) > 0 for m in monomials_of_degree(3, 3)]
    eliminations.clear()
    assert intersect_with_coordinates(basis, touches_tail).rows == 2
    assert [name for name, _, _ in eliminations] == ["rref"]
