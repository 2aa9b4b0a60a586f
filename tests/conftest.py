"""Helpers shared by the test modules."""

import math

import pytest

from polyprime.poly import IntPolynomial


@pytest.fixture
def shift():
    """shift(f, c) is the expanded composition f(x + c)."""
    def expand(f, c):
        out = [0] * len(f.coeffs)
        for i, a in enumerate(f.coeffs):
            for j in range(i + 1):
                out[j] += a * math.comb(i, j) * c ** (i - j)
        return IntPolynomial(tuple(out))

    return expand
