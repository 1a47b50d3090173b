"""The mod-p certificates of regularity, omega, Hilbert functions and Koszul exactness.

On a seeded dense regular sequence, ``assoc``, ``regseq``, ``hilbert`` and
``koszul-check`` are settled at the first prime, so no echelon runs at a
second.  Fixed inputs pin down what no certificate may trust: Macaulay's
square matrix alone (short on the permuted squares, whose I_{nu+1} is
full), the generic rank of n forms with m > n generators, and a Koszul degree whose
ranks mod p fall short.  Inputs whose ranks are short mod p take a second
prime and give the exact answers.  With n forms, ``koszul-check`` is
the regularity verdict at every degree from nu + 1 on; below it, and for
any other number of forms, it ranks only the pieces I_k against
dim S_k - c_k, c_k the coefficient of t^k in (1 - t^d)^m / (1 - t)^n.
"""

import itertools
import random

import pytest
from helpers import (random_regular_sequence, reference_associated_form, reference_rank,
                     series_hilbert)

from assoform import ideals
from assoform.cli import main
from assoform.ideals import (GradedIdeal, coeff_vector, hilbert_function,
                             is_regular_sequence, koszul_exactness_check)
from assoform.inverse_system import associated_form
from assoform.linalg import _PRIME, echelon_mod_p
from assoform.parsing import parse_system
from assoform.poly import Polynomial, Space, dim_degree, monomials_of_degree


def _ideal(text: str) -> GradedIdeal:
    return GradedIdeal.of(parse_system(text).polynomials)


def _exact_hilbert(ideal: GradedIdeal, bound: int) -> tuple[int, ...]:
    """dim (S/I)_k from the exact rank of the products x^b g, multiplied out as polynomials."""
    n, values = ideal.nvars, []
    for k in range(bound + 1):
        basis = monomials_of_degree(n, k)
        rows = [coeff_vector(Polynomial(n, Space.PRIMAL, {b: 1}) * g, basis)
                for b in monomials_of_degree(n, k - ideal.d) for g in ideal.generators]
        values.append(len(basis) - reference_rank(rows, len(basis)))
    return tuple(values)


@pytest.mark.parametrize("n, d, seed", [(2, 5, 0), (3, 3, 1), (4, 2, 2), (3, 4, 3)])
def test_dense_regular_sequence_needs_no_exact_core(n, d, seed, later_primes, tmp_path, capsys):
    gs = random_regular_sequence(random.Random(seed), n, d)
    names = [f"x{i + 1}" for i in range(n)]
    path = tmp_path / "f.txt"
    path.write_text(f"vars: {' '.join(names)}\n"
                    + "".join(g.render(names) + "\n" for g in gs), encoding="utf-8")
    later_primes.clear()
    for command in ("assoc", "regseq", "hilbert", "koszul-check"):
        assert main([command, str(path)]) == 0, command
        assert later_primes == [], command
    out = capsys.readouterr().out.splitlines()
    nu = n * (d - 1)
    assert out[1:] == ["REGULAR SEQUENCE",
                       " ".join(map(str, series_hilbert(n, d, nu + 1))),
                       "Koszul complex exact away from degree 0 up to graded degree "
                       f"{nu + d}: yes"]
    assert associated_form(gs).form.render() == out[0]
    assert out[0] == reference_associated_form(gs).render()


@pytest.mark.parametrize("text, d", [
    ("vars: x1 x2 x3\nx2^2\nx1^2\nx3^2", 2),
    ("vars: x1 x2 x3\nx2^3\nx3^3\nx1^3", 3),
])
def test_permuted_squares_need_the_other_rows(text, d, later_primes):
    ideal = _ideal(text)
    k = ideal.nu + 1
    dim = dim_degree(3, k)
    # Macaulay's square (one row per monomial of degree nu + 1) is short mod p
    square = list(itertools.islice(ideal._macaulay_rows(k), dim))
    assert len(square) == dim and len(echelon_mod_p(square, dim, _PRIME)[1]) < dim
    # the other product rows complete the rank at the first prime
    assert is_regular_sequence(ideal)
    assert hilbert_function(ideal, k) == tuple(series_hilbert(3, d, k))
    assert koszul_exactness_check(ideal, ideal.nu + d)
    form = associated_form(ideal).form
    assert later_primes == []
    assert form == reference_associated_form(list(ideal.generators))


@pytest.mark.parametrize("text", [
    # a denominator equal to the prime: mod p the forms are x2^2, x2^2 - x1*x2
    "vars: x1 x2\nx1^2 + (1/1073741789)*x2^2\nx2^2 - x1*x2",
    # the prime as a coefficient: mod p the forms are x2^2, x1*x2
    "vars: x1 x2\n1073741789*x1^2 + x2^2\nx1*x2",
])
def test_short_rank_mod_p_falls_back(text, later_primes):
    ideal = _ideal(text)
    assert is_regular_sequence(ideal)
    # regularity was settled by one echelon at the second prime
    assert [target for _, target in later_primes] == [dim_degree(2, 3)]
    assert hilbert_function(ideal, 3) == tuple(series_hilbert(2, 2, 3))
    assert koszul_exactness_check(ideal, 4)
    assert associated_form(ideal).form == reference_associated_form(list(ideal.generators))


@pytest.mark.parametrize("text", [
    "vars: x1 x2\nx1^2\nx1*x2",
    "vars: x1 x2 x3\nx1^2\nx2^2\nx1*x2",
    "vars: x1 x2 x3\nx1*x3 + x2^2\nx2*x3\nx3^2",
])
def test_non_regular_sequence_is_short_at_nu_plus_one(text):
    ideal = _ideal(text)
    k = ideal.nu + 1
    assert not is_regular_sequence(ideal)
    assert ideal.dim_piece(k) < dim_degree(ideal.nvars, k)
    assert hilbert_function(ideal, k) == _exact_hilbert(ideal, k)
    # the Koszul ranks fall short, mod p and over Q
    assert not koszul_exactness_check(ideal, ideal.nu + ideal.d)


@pytest.mark.parametrize("text, values, koszul", [
    # more generators than variables: the generic rank of n forms is below dim I_2
    ("vars: x1 x2\nx1^2\nx2^2\nx1*x2", (1, 2, 0, 0), False),
    ("vars: x1 x2\nx1^2 + x2^2\nx1^2 - x2^2\nx1*x2 + x2^2", (1, 2, 0, 0), False),
    # fewer generators than variables, a regular sequence
    ("vars: x1 x2 x3\nx1^2\nx2^2", (1, 3, 4, 4, 4), True),
    # I_3 is full, yet dim I_2 = 2 is below the full-rank bound 3: I_2 is ranked
    ("vars: x1 x2\nx1^2\nx2^2\nx1^2 + x2^2", (1, 2, 1, 0), False),
])
def test_hilbert_with_m_not_n_is_exact(text, values, koszul):
    ideal = _ideal(text)
    bound = len(values) - 1
    assert hilbert_function(ideal, bound) == values == _exact_hilbert(ideal, bound)
    assert koszul_exactness_check(ideal, 4) is koszul


def test_koszul_check_of_a_regular_sequence_walks_no_differential(monkeypatch):
    ideal = GradedIdeal.of(random_regular_sequence(random.Random(4), 3, 3))
    degrees = []  # the homological degree j of every _koszul_images call
    real = ideals._koszul_images

    def spy(forms, n, d, j, k, order):
        degrees.append(j)
        return real(forms, n, d, j, k, order)

    monkeypatch.setattr(ideals, "_koszul_images", spy)
    for k_max in (0, ideal.nu, ideal.nu + 1, ideal.nu + ideal.d):
        assert koszul_exactness_check(ideal, k_max)
    # only product rows: of I_d .. I_nu up to nu, and of I_{nu+1} for the regularity rank
    assert degrees and set(degrees) == {1}


@pytest.mark.parametrize("text, first_failure", [
    ("vars: x1 x2\nx1^2\nx1*x2", 3),  # nu = 2: the syzygy x2 g_1 - x1 g_2 in degree 3
    ("vars: x1 x2 x3\nx1^3\nx1^2*x2\nx3^3", 4),  # nu = 6: it fails below nu + 1
])
def test_non_regular_koszul_check_walks_below_nu_plus_one(text, first_failure, tmp_path):
    ideal = _ideal(text)
    assert not is_regular_sequence(ideal)
    for k_max in range(ideal.nu + ideal.d + 1):
        assert koszul_exactness_check(ideal, k_max) is (k_max < first_failure), k_max
    path = tmp_path / "f.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["koszul-check", str(path), "--degree-cap", str(first_failure - 1)]) == 0
    assert main(["koszul-check", str(path)]) == 2
