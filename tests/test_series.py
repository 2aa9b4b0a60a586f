"""Exact truncated singular series and their identities."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from polyprime.arith import primes_upto
from polyprime.config import SeriesConfig
from polyprime.errors import BudgetError, ConfigError
from polyprime.experiments import ExperimentConfig
from polyprime.poly import IntPolynomial, sample_uniform
from polyprime.rng import stream
from polyprime.runio import format_cell
from polyprime.series import (
    TruncatedSeries,
    interchange_identity_check,
    lemma_lower_bound,
    lemma_upper_bound,
    prime_factors_at_most,
    series_f,
    series_f_tuple,
    series_linear_system,
)

X = IntPolynomial((0, 1))
X2_X_2 = IntPolynomial((2, 1, 1))
X2_1 = IntPolynomial((1, 0, 1))


def test_primorial():
    assert math.prod(primes_upto(2).tolist()) == 2
    assert math.prod(primes_upto(3).tolist()) == 6
    assert math.prod(primes_upto(10).tolist()) == 210
    assert math.prod(primes_upto(1).tolist()) == 1


def test_series_f_identity_poly():
    for w in (2, 3, 10, 30):
        ts = series_f(X, w)
        assert ts.value == 1
        for p, fac in ts.local_factors:
            assert fac == 1, p


def test_series_f_always_even_vanishes():
    ts = series_f(X2_X_2, 2)
    assert ts.value == 0
    assert dict(ts.local_factors)[2] == 0
    assert format_cell(ts.value) == "0/1"


def test_series_f_x2_plus_1():
    ts = series_f(X2_1, 3)
    assert ts.value == Fraction(3, 2)
    assert dict(ts.local_factors)[2] == 1
    assert dict(ts.local_factors)[3] == Fraction(3, 2)


def test_series_f_rejects_tiny_w():
    # The config refuses w < 2; the kernel's empty product is 1.
    with pytest.raises(ConfigError, match="^w must be >= 2$"):
        SeriesConfig(poly=(0, 1), w=1)
    assert series_f(X, 1).value == 1


def test_truncated_series_product_invariant():
    ts = series_f(X2_1, 20)
    prod = Fraction(1)
    for _, fac in ts.local_factors:
        prod *= fac
    assert prod == ts.value
    given = TruncatedSeries(((2, Fraction(2)), (3, Fraction(3, 4))))
    assert given.value == Fraction(3, 2)
    with pytest.raises(KeyError):
        dict(ts.local_factors)[23]


def test_series_f_tuple_single_shift_reduces():
    for w in (2, 5, 13):
        assert series_f_tuple(X, [0], w).value == series_f(X, w).value


def test_series_f_tuple_examples():
    assert series_f_tuple(X, [0, 1], 2).value == 0
    ts = series_f_tuple(X, [0, 2], 3)
    assert dict(ts.local_factors)[2] == 2
    assert dict(ts.local_factors)[3] == Fraction(3, 4)
    assert ts.value == Fraction(3, 2)


def test_series_f_tuple_distinct_shifts_required():
    with pytest.raises(ConfigError, match="^shifts must be distinct$"):
        SeriesConfig(poly=(0, 1), w=5, shifts=(0, 0))


def test_series_f_tuple_shift_invariance(shift):
    rng = stream(20260818, 21)
    for _ in range(50):
        f = sample_uniform(2, 15, rng)
        c = rng.randrange(-8, 9)
        w = (3, 5, 7)[rng.randrange(3)]
        assert series_f_tuple(f, [c], w).value == \
            series_f(shift(f, c), w).value


def test_series_residue_dependence_mod_primorial():
    rng = stream(20260818, 22)
    for w in (3, 5):
        P = math.prod(primes_upto(w).tolist())
        for _ in range(40):
            f = sample_uniform(3, 50, rng)
            assert series_f(f, w).value == series_f(f.reduce_mod(P), w).value


def test_series_bounds_and_dichotomy():
    rng = stream(20260818, 23)
    for _ in range(300):
        d = rng.randrange(1, 4)
        f = sample_uniform(d, 30, rng)
        w = (2, 3, 5, 11)[rng.randrange(4)]
        v = series_f(f, w).value
        assert v <= lemma_upper_bound(w, 1)
        vanishes = any(_is_zero_poly_mod_p(f, int(p))
                       for p in range(2, w + 1) if is_prime_small(p))
        assert (v == 0) == vanishes
        if v != 0:
            assert v >= lemma_lower_bound(w, d)


def _is_zero_poly_mod_p(f, p):
    """True when f vanishes at every residue mod p.

    For p > deg f that is the same as p dividing every coefficient; for
    small p the reduced polynomial is evaluated on all of F_p.
    """
    if p > f.degree:
        return all(c % p == 0 for c in f.coeffs)
    g = f.reduce_mod(p)
    return all(g.eval(x) % p == 0 for x in range(p))


def is_prime_small(p):
    return p >= 2 and all(p % q for q in range(2, p))


def test_series_tuple_upper_bound():
    rng = stream(20260818, 24)
    for _ in range(200):
        f = sample_uniform(2, 20, rng)
        k = rng.randrange(1, 4)
        shifts = []
        while len(shifts) < k:
            c = rng.randrange(-5, 6)
            if c not in shifts:
                shifts.append(c)
        w = (3, 5, 7)[rng.randrange(3)]
        assert series_f_tuple(f, shifts, w).value <= lemma_upper_bound(w, k)


def test_series_linear_system_examples():
    assert series_linear_system([1], IntPolynomial((0,)), 1, 2, 1).value == 1
    assert series_linear_system([0, 1], IntPolynomial((0,)), 1, 3, 1).value == 1


def test_series_linear_system_indicator_kills_factor():
    # f0(0) = 0, so the p=2 factor (p | M) must vanish.
    f0 = IntPolynomial((0, 1))
    ts = series_linear_system([0], f0, 2, 3, 1)
    assert ts.value == 0
    assert dict(ts.local_factors)[2] == 0
    # With evaluation point 1, f0(1) = 1 is a unit mod 2: factor p/(p-1).
    factors = dict(series_linear_system([1], f0, 2, 3, 1).local_factors)
    assert factors[2] == Fraction(2, 1)
    assert factors[3] == Fraction(3 * 6, 9 * 2)  # count 6 over 3^2


LINEAR_FORMS = dict(kind="linear-forms", d=1, H=30, X=1, samples=1,
                    seed=1, f0=(1,))


def test_series_linear_system_modulus_above_w():
    with pytest.raises(ConfigError, match="^M must have no prime factor"):
        ExperimentConfig(**LINEAR_FORMS, M=10, w=3)
    # M = 10 = 2 * 5 is fine once w reaches 5.
    ts = series_linear_system([1], IntPolynomial((1,)), 10, 5, 1)
    assert ts.value > 0


def test_series_linear_system_duplicate_points():
    with pytest.raises(ConfigError, match="^ns must be distinct$"):
        ExperimentConfig(**LINEAR_FORMS, ns=(1, 1), w=3)


def test_series_linear_system_m1_matches_direct_product():
    # With M = 1 every prime goes through the tuple count; re-derive the
    # p=2, p=3 factors for d=2, points (0, 1) by brute force.
    import itertools
    for p in (2, 3):
        count = 0
        for vec in itertools.product(range(p), repeat=3):
            vals = [sum(a * n ** j for j, a in enumerate(vec)) % p
                    for n in (0, 1)]
            if all(vals):
                count += 1
        got = series_linear_system([0, 1], IntPolynomial((0,)), 1, p, 2)
        assert dict(got.local_factors)[p] == Fraction(
            count * p ** 2, p ** 3 * (p - 1) ** 2)


def test_interchange_identity_examples():
    assert interchange_identity_check(X, 3, 2)
    assert interchange_identity_check(IntPolynomial((3, 3)), 3, 1)
    assert interchange_identity_check(X2_1, 5, 2)


def test_interchange_identity_random_sweep():
    rng = stream(20260818, 25)
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            for _ in range(10):
                f = sample_uniform(2, 12, rng)
                assert interchange_identity_check(f, p, r)


def test_interchange_budget():
    with pytest.raises(BudgetError):
        interchange_identity_check(X, 101, 4)


TUPLE_SUM_BUDGET = 10 ** 6


def tuple_sum_identity_residual(f: IntPolynomial, L: int, r: int,
                                w: int) -> Fraction:
    """(L * series)^r minus the sum of tuple series over distinct shifts.

    The shifts range over ordered r-tuples of distinct values in 1..L.
    The result stays exact; the caller compares it against the expected
    lower-order growth in L.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    n_tuples = 1
    for i in range(r):
        n_tuples *= L - i
    if n_tuples > TUPLE_SUM_BUDGET:
        raise BudgetError(f"{n_tuples} shift tuples exceed the budget")
    total = (L * series_f(f, w).value) ** r
    acc = Fraction(0)
    for shifts in permutations(range(1, L + 1), r):
        acc += series_f_tuple(f, shifts, w).value
    return total - acc


def test_tuple_sum_residual_r1_is_zero():
    assert tuple_sum_identity_residual(X, 2, 1, 2) == 0
    assert tuple_sum_identity_residual(X, 7, 1, 3) == 0
    assert tuple_sum_identity_residual(X2_1, 5, 1, 3) == 0


def test_tuple_sum_residual_frozen():
    # (L * S)^r = 16; the 12 ordered distinct pairs from 1..4 sum to 8
    # (pairs with even gap contribute 2, odd gap contribute 0 at w=2).
    assert tuple_sum_identity_residual(X, 4, 2, 2) == 8


def test_tuple_sum_residual_linear_growth():
    # Residual divided by L^{r-1} stays bounded (here exactly constant)
    # as L runs through multiples of the primorial P(3) = 6.
    vals = {}
    for m in (1, 2, 4):
        L = 6 * m
        res = tuple_sum_identity_residual(X2_1, L, 2, 3)
        vals[L] = res
    assert vals[6] == 27
    assert vals[12] == 54
    assert vals[24] == 108
    ratios = {L: Fraction(res, L) for L, res in vals.items()}
    assert len(set(ratios.values())) == 1
    assert ratios[6] == Fraction(9, 2)


def test_tuple_sum_budget():
    with pytest.raises(BudgetError):
        tuple_sum_identity_residual(X, 3000, 3, 2)
    with pytest.raises(ValueError):
        tuple_sum_identity_residual(X, 0, 1, 2)


def test_prime_factors_at_most_against_sympy():
    for M in range(1, 2000):
        fac = sympy.factorint(M)
        for w in (2, 3, 4, 5, 6, 7, 41, 43, 44):
            assert prime_factors_at_most(M, w) == \
                all(p <= w for p in fac), (M, w)
    assert prime_factors_at_most(2 ** 40 * 3 ** 20 * 65521, 65521)
    assert not prime_factors_at_most(3 * (2 ** 61 - 1), 10 ** 6)
