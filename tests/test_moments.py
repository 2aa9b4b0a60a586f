"""Exact moment combinatorics: Stirling, Poisson, Gaussian, sign variance."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from polyprime.moments import (
    MomentPolynomial,
    gaussian_coefficient_sum,
    gaussian_moment,
    poisson_central_moment,
    poisson_raw_moment,
    sigma_squared,
    stein_chen_check,
    stirling2,
)


def brute_force_partitions(k, r):
    """Count partitions of range(k) into exactly r nonempty blocks."""
    if k == 0:
        return 1 if r == 0 else 0
    count = 0

    def place(i, blocks):
        nonlocal count
        if i == k:
            if len(blocks) == r:
                count += 1
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        if len(blocks) < r:
            blocks.append([i])
            place(i + 1, blocks)
            blocks.pop()

    place(0, [])
    return count


def test_stirling2_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(0, 3) == 0
    assert stirling2(4, 2) == 7
    for k in range(1, 10):
        assert stirling2(k, 1) == 1
        assert stirling2(k, k) == 1
        assert stirling2(k, 0) == 0
        assert stirling2(k, k + 1) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling2_against_brute_force():
    for k in range(0, 8):
        for r in range(0, k + 2):
            assert stirling2(k, r) == brute_force_partitions(k, r), (k, r)


def test_gaussian_moment():
    assert gaussian_moment(0) == 1
    assert gaussian_moment(1) == 0
    assert gaussian_moment(2) == 1
    assert gaussian_moment(3) == 0
    assert gaussian_moment(4) == 3
    assert gaussian_moment(6) == 15
    assert gaussian_moment(8) == 105
    assert gaussian_moment(10) == 945
    for k in range(4, 20, 2):
        assert gaussian_moment(k) == (k - 1) * gaussian_moment(k - 2)
    with pytest.raises(ValueError):
        gaussian_moment(-2)


def test_gaussian_moment_numeric_oracle():
    # Quadrature over a wide grid; the double factorial must match.
    import numpy as np
    xs = np.linspace(-12, 12, 200001)
    dens = np.exp(-xs * xs / 2) / math.sqrt(2 * math.pi)
    for k in (2, 4, 6):
        est = float(np.trapezoid(dens * xs ** k, xs))
        assert est == pytest.approx(gaussian_moment(k), rel=1e-8)


def test_poisson_raw_moment_examples():
    assert poisson_raw_moment(0).coeffs == (1,)
    assert poisson_raw_moment(1).coeffs == (0, 1)
    assert poisson_raw_moment(2).coeffs == (0, 1, 1)
    assert poisson_raw_moment(3).coeffs == (0, 1, 3, 1)
    for ell in range(0, 11):
        m = poisson_raw_moment(ell)
        for r in range(ell + 1):
            assert m.coeff(r) == stirling2(ell, r)


def test_poisson_raw_moment_numeric_oracle():
    lam = 0.7
    for ell in range(0, 7):
        est = sum(math.exp(-lam) * lam ** n / math.factorial(n) * n ** ell
                  for n in range(0, 80))
        assert poisson_raw_moment(ell).eval(lam) == pytest.approx(est,
                                                                  abs=1e-10)


def test_poisson_central_moment_examples():
    assert poisson_central_moment(0).coeffs == (1,)
    assert poisson_central_moment(1).coeffs == (0,)
    assert poisson_central_moment(2).coeffs == (0, 1)
    assert poisson_central_moment(3).coeffs == (0, 1)
    assert poisson_central_moment(4).coeffs == (0, 1, 3)


def test_poisson_central_moment_degree_and_leading():
    for k in range(0, 13):
        mu = poisson_central_moment(k)
        assert mu.degree <= k // 2
        if k >= 2 and k % 2 == 0:
            assert mu.coeff(k // 2) == gaussian_moment(k)


def test_poisson_central_moment_numeric_oracle():
    lam = 0.7
    for k in range(0, 7):
        est = sum(math.exp(-lam) * lam ** n / math.factorial(n)
                  * (n - lam) ** k for n in range(0, 80))
        assert poisson_central_moment(k).eval(lam) == pytest.approx(
            est, abs=1e-10)


def test_poisson_central_moment_exact_rational_eval():
    lam = Fraction(1, 3)
    assert poisson_central_moment(2).eval(lam) == lam
    assert poisson_central_moment(4).eval(lam) == lam + 3 * lam ** 2


def test_stein_chen_identity():
    for ell in range(0, 13):
        assert stein_chen_check(ell)


def test_moment_polynomial_algebra():
    a = MomentPolynomial((1, 2))
    b = MomentPolynomial((0, 1))
    assert (a + b).coeffs == (1, 3)
    assert a.scale(0).coeffs == (0,)
    assert a.scale(3).coeffs == (3, 6)
    assert b.shift_up(2).coeffs == (0, 0, 0, 1)
    assert a.degree == 1
    assert a.coeff(5) == 0
    assert a.eval(10) == 21


def gaussian_coefficient_sum_oracle(k, X):
    """Literal triple sum with explicit composition enumeration."""
    total = Fraction(0)
    for u in range(1, k + 1):
        for comp in itertools.product(range(2, k + 1, 2), repeat=u):
            if sum(comp) != k:
                continue
            mult = math.factorial(k)
            for part in comp:
                mult //= math.factorial(part)
            sites = sum(1 for _ in itertools.combinations(range(X), u))
            total += mult * sites
    return total / X ** (k // 2)


def test_gaussian_coefficient_sum_examples():
    for X in (1, 2, 10, 1000):
        assert gaussian_coefficient_sum(2, X) == 1
    assert gaussian_coefficient_sum(4, 10) == Fraction(14, 5)
    assert gaussian_coefficient_sum(3, 10) == 0
    assert gaussian_coefficient_sum(5, 7) == 0
    with pytest.raises(ValueError):
        gaussian_coefficient_sum(0, 5)
    with pytest.raises(ValueError):
        gaussian_coefficient_sum(2, 0)


def test_gaussian_coefficient_sum_against_oracle():
    for k in (2, 4, 6):
        for X in (3, 5, 9):
            assert gaussian_coefficient_sum(k, X) == \
                gaussian_coefficient_sum_oracle(k, X), (k, X)


def test_gaussian_coefficient_sum_converges_to_moment():
    for k in (2, 4, 6, 8):
        lo = gaussian_coefficient_sum(k, 2 ** 10)
        hi = gaussian_coefficient_sum(k, 2 ** 14)
        ck = gaussian_moment(k)
        assert abs(hi - ck) <= abs(lo - ck)
        assert abs(float(hi) - ck) < 0.05 * ck


def test_sigma_squared_examples():
    assert sigma_squared((1,)) == Fraction(1, 4)
    assert sigma_squared((-1,)) == Fraction(1, 4)
    assert sigma_squared((1, 1)) == Fraction(5, 16)
    assert sigma_squared((1, -1)) == Fraction(1, 16)
    assert sigma_squared((1, 1, 1)) == Fraction(15, 64)


def test_sigma_squared_flip_invariance_and_nonnegativity():
    for s in range(1, 5):
        for eps in itertools.product((-1, 1), repeat=s):
            v = sigma_squared(eps)
            assert v >= 0
            flipped = tuple(-e for e in eps)
            assert sigma_squared(flipped) == v


def test_sigma_squared_validation():
    with pytest.raises(ValueError):
        sigma_squared(())
    with pytest.raises(ValueError):
        sigma_squared((1, 0))


def sigma_squared_by_subsets(eps):
    """The defining sum of sigma_squared: the sign product over ordered
    pairs of nonempty subsets of {1..s} that are translates of each other
    (the identity translate included), scaled by 4**(-s)."""
    s = len(eps)
    total = 0
    for mask in range(1, 1 << s):
        t1 = [i for i in range(s) if mask >> i & 1]
        p1 = math.prod(eps[i] for i in t1)
        for c in range(-(s - 1), s):
            if t1[0] + c < 0 or t1[-1] + c >= s:
                continue
            total += p1 * math.prod(eps[i + c] for i in t1)
    return Fraction(total, 4 ** s)


def test_sigma_squared_closed_form_against_subset_sum():
    patterns = [eps for s in range(1, 9)
                for eps in itertools.product((-1, 1), repeat=s)]
    rng = random.Random(20261019)
    patterns += [tuple(rng.choice((-1, 1))
                       for _ in range(rng.randrange(9, 13)))
                 for _ in range(6)]
    # Patterns that agree with themselves at many shifts.
    patterns += [(1,) * 12, (1, -1) * 6, (1, 1, -1) * 4]
    for eps in patterns:
        assert sigma_squared(eps) == sigma_squared_by_subsets(eps), eps
