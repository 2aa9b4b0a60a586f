"""Gowers uniformity norms on cyclic groups and embedded intervals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprime.arith import least_prime_at_least, liouville_sieve, mobius_sieve
from polyprime.errors import BudgetError
from polyprime.gowers import (
    DEFAULT_OP_BUDGET,
    gowers_average,
    gowers_norm_cyclic,
    gowers_norm_interval,
    interval_embedding,
)
from polyprime.rng import stream


def u_average_peel(values, s):
    """Recursion oracle: the box average peeled one shift at a time
    all the way down to s = 1."""
    if s == 1:
        m = float(values.mean())
        return m * m
    acc = 0.0
    M = values.shape[0]
    for h in range(M):
        acc += u_average_peel(values * np.roll(values, -h), s - 1)
    return acc / M


def u2_average_exact(values):
    """The U^2 average of an integer sequence on Z/MZ as a Fraction, from
    its cyclic autocorrelation c(h) in Python ints."""
    v = [int(x) for x in values]
    M = len(v)
    total = sum(sum(v[n] * v[(n + h) % M] for n in range(M)) ** 2
                for h in range(M))
    return Fraction(total, M ** 3)


def u2_interval_exact(seq, N, multiplier=5):
    """Exact U^2 average of seq[1..N] zero-padded in Z/MZ, M the least
    prime at least multiplier*N: with no wraparound, c(h) is the linear
    autocorrelation, taken here in int64 (|c(h)| <= N)."""
    v = np.asarray(seq[1:N + 1], dtype=np.int64)
    c = np.correlate(v, v, "full")
    M = least_prime_at_least(multiplier * N)
    return Fraction(sum(int(x) ** 2 for x in c), M ** 3)


def u2_average_fft(arr):
    """Fourier oracle: the U^2 average is the sum of |f_hat|^4."""
    fhat = np.fft.fft(np.asarray(arr, dtype=np.float64)) / len(arr)
    return float(np.sum(np.abs(fhat) ** 4))


def u2_average_loops(arr):
    """Literal expectation over (n, h1, h2) with explicit indexing."""
    M = len(arr)
    acc = 0.0
    for n in range(M):
        for h1 in range(M):
            a = arr[n] * arr[(n + h1) % M]
            if a == 0.0:
                continue
            for h2 in range(M):
                acc += a * arr[(n + h2) % M] * arr[(n + h1 + h2) % M]
    return acc / M ** 3


def test_constant_one_has_norm_one():
    for M in (5, 12):
        for s in (1, 2, 3):
            assert gowers_norm_cyclic(np.ones(M), s) == pytest.approx(
                1.0, abs=1e-12)


def test_point_mass_norm():
    for M in (11, 40):
        for s in (1, 2, 3):
            arr = np.zeros(M)
            arr[0] = 1.0
            want = M ** (-(s + 1) / 2 ** s)
            assert gowers_norm_cyclic(arr, s) == pytest.approx(want,
                                                               rel=1e-10)


def test_u2_matches_fourier_oracle_random():
    rng = stream(20260818, 31)
    for M in (8, 17, 32):
        vals = np.array([rng.choice((-1.0, 1.0)) for _ in range(M)])
        avg = gowers_average(vals, 2)
        assert avg == pytest.approx(u2_average_fft(vals), abs=1e-10)


def test_u2_liouville_cyclic_101_against_both_oracles():
    M = 101
    lam = liouville_sieve(M)
    arr = np.zeros(M)
    for n in range(1, M + 1):
        arr[n % M] = float(lam[n])
    avg = gowers_average(arr, 2)
    assert avg == pytest.approx(u2_average_fft(arr), abs=1e-10)
    assert avg == pytest.approx(u2_average_loops(arr), abs=1e-10)
    norm = gowers_norm_cyclic(arr, 2)
    assert norm == pytest.approx(avg ** 0.25, abs=1e-12)


def test_interval_embedding_layout():
    arr, M = interval_embedding(lambda n: float(n), 4)
    assert M == 23  # least prime at least 20
    assert arr[0] == 0.0
    assert arr[1:5].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert not arr[5:].any()
    with pytest.raises(ValueError):
        interval_embedding(lambda n: 1.0, 0)
    with pytest.raises(ValueError):
        interval_embedding(lambda n: 1.0, 10, multiplier=1)


def test_interval_indicator_matches_lattice_count():
    # No wraparound at multiplier 5, so the U^2 average of 1_[1,N] is a
    # plain lattice point count over (n, h1, h2) divided by M^3.
    N = 20
    M = least_prime_at_least(5 * N)
    count = 0
    for n in range(1, N + 1):
        for h1 in range(-N, N + 1):
            if not 1 <= n + h1 <= N:
                continue
            for h2 in range(-N, N + 1):
                if 1 <= n + h2 <= N and 1 <= n + h1 + h2 <= N:
                    count += 1
    want = (count / M ** 3) ** 0.25
    got = gowers_norm_interval(lambda n: 1.0, N, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_interval_mobius_against_fourier_oracle():
    N = 50
    mu = mobius_sieve(N)
    arr, M = interval_embedding(lambda n: float(mu[n]), N)
    got = gowers_norm_interval(lambda n: float(mu[n]), N, 2)
    assert got == pytest.approx(u2_average_fft(arr) ** 0.25, abs=1e-10)


def test_interval_liouville_decreases_with_n():
    lam = liouville_sieve(300)
    vals = []
    for N in (100, 300):
        vals.append(gowers_norm_interval(lambda n: float(lam[n]), N, 2))
    assert vals[0] == pytest.approx(0.10621257874233213, rel=1e-9)
    assert vals[1] == pytest.approx(0.08255570605794765, rel=1e-9)
    assert vals[1] < vals[0]


def test_u2_below_u3():
    rng = stream(20260818, 32)
    for M in (16, 31, 64):
        vals = np.array([rng.choice((-1.0, 1.0)) for _ in range(M)])
        u2 = gowers_norm_cyclic(vals, 2)
        u3 = gowers_norm_cyclic(vals, 3)
        assert u2 <= u3 + 1e-9


def test_translation_and_scaling_invariance():
    rng = stream(20260818, 33)
    vals = np.array([rng.uniform(-1, 1) for _ in range(37)])
    base = gowers_norm_cyclic(vals, 2)
    for c in (1, 5, 17):
        assert gowers_norm_cyclic(np.roll(vals, c), 2) == pytest.approx(
            base, abs=1e-12)
    assert gowers_norm_cyclic(3.5 * vals, 2) == pytest.approx(3.5 * base,
                                                              rel=1e-12)


def test_embedding_multiplier_comparability():
    lam = liouville_sieve(200)
    f = lambda n: float(lam[n])
    lo = gowers_norm_interval(f, 200, 2, multiplier=5)
    hi = gowers_norm_interval(f, 200, 2, multiplier=9)
    ratio = lo / hi
    assert 0.25 < ratio < 4.0


_REALS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0),
                   st.floats(-10.0, -1e-3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_average_matches_recursion_oracle(data):
    # Sizes stop where the oracle's M^(s-1) Python calls stay cheap; M = 1
    # and M = 2 are the edges of the base case's extended cycle.
    s = data.draw(st.integers(1, 4), label="s")
    M = data.draw(st.integers(1, (40, 40, 14, 7)[s - 1]), label="M")
    vals = np.array(data.draw(st.lists(_REALS, min_size=M, max_size=M),
                              label="values"))
    assert gowers_average(vals, s) == pytest.approx(
        u_average_peel(vals, s), rel=1e-12, abs=0.0)


def test_average_matches_recursion_oracle_edges():
    for vals in ([3.0], [-2.5], [0.0], [1.0, -1.0], [0.5, 2.0]):
        arr = np.array(vals)
        for s in (1, 2, 3, 4):
            assert gowers_average(arr, s) == pytest.approx(
                u_average_peel(arr, s), rel=1e-12, abs=0.0)


def test_u2_of_integer_sequences_is_correctly_rounded():
    rng = stream(20260818, 34)
    cases = []
    for M in (1, 2, 3, 29, 64, 101):
        lam = liouville_sieve(M)
        mu = mobius_sieve(M)
        cases.append(np.array([lam[n] for n in range(1, M + 1)]))
        cases.append(np.array([mu[n] for n in range(1, M + 1)]))
        cases.append(np.array([rng.choice((-1, 0, 1)) for _ in range(M)]))
    for v in cases:
        want = float(u2_average_exact(v))
        assert gowers_average(v.astype(np.float64), 2) == want


def test_bench_liouville_u2_norms_are_exact():
    # The U^2 rows of the gowers-liouville benchmark workload.
    lam = liouville_sieve(3000)
    for N, norm in ((1000, 0.06188575575736718),
                    (3000, 0.04724873706241213)):
        arr, _ = interval_embedding(lambda n: float(lam[n]), N)
        avg = gowers_average(arr, 2)
        assert avg == float(u2_interval_exact(lam, N))
        assert gowers_norm_interval(lambda n: float(lam[n]), N, 2) == norm
        assert norm == avg ** 0.25


def test_budget_error():
    with pytest.raises(BudgetError):
        gowers_average(np.ones(100000), 2, op_budget=10 ** 6)
    # The check is M^s against the budget, whatever the base case costs.
    budget = 10 ** 4
    for s, M in ((1, 10 ** 4), (2, 100), (3, 21), (4, 10)):
        gowers_average(np.ones(M), s, op_budget=budget)
        with pytest.raises(BudgetError):
            gowers_average(np.ones(M + 1), s, op_budget=budget)
    assert DEFAULT_OP_BUDGET == 5 * 10 ** 9
    for s, M in ((2, 70711), (3, 1710), (4, 266)):
        with pytest.raises(BudgetError):
            gowers_average(np.ones(M), s)
    with pytest.raises(ValueError):
        gowers_average(np.ones(5), 0)
    with pytest.raises(ValueError):
        gowers_average([], 2)
