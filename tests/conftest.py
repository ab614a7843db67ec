"""Fixtures shared by the test modules."""

import pytest

from bidisk import approximants


@pytest.fixture
def reciprocal_orders(monkeypatch):
    """The orders of the reciprocals that ``approximants`` computes, one entry per computation."""
    calls = []

    def counted(real):
        def reciprocal(f, d, *rest):
            calls.append(d)
            return real(f, d, *rest)
        return reciprocal

    for name in ("_reciprocal2", "_reciprocal1"):
        monkeypatch.setattr(approximants, name, counted(getattr(approximants, name)))
    return calls
