"""Fixtures shared by the test modules."""

import pytest

from assoform import linalg


@pytest.fixture
def exact_core(monkeypatch):
    """The shapes of the matrices the exact integer Gauss-Jordan reduces."""
    calls = []
    real = linalg._gauss_jordan

    def spy(rows, ncols):
        calls.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", spy)
    return calls
