"""Fixtures shared by the test modules."""

import pytest

from assoform import linalg


@pytest.fixture
def later_primes(monkeypatch):
    """(prime, target) of every echelon run at a prime after the first, ``_PRIME``.

    An echelon run twice at one prime on the same rows fails the test at
    once: a certificate refused there would be refused again.
    """
    calls, seen = [], []
    real = linalg.echelon_mod_p

    def spy(rows, target, p):
        assert not any(r is rows and q == p for r, q in seen), f"prime {p} tried twice"
        seen.append((rows, p))
        if p != linalg._PRIME:
            calls.append((p, target))
        return real(rows, target, p)

    monkeypatch.setattr(linalg, "echelon_mod_p", spy)
    return calls
