"""Gowers uniformity norms on cyclic groups and embedded intervals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprime.arith import least_prime_at_least, liouville_sieve, mobius_sieve
from polyprime.errors import BudgetError
from polyprime import gowers
from polyprime.gowers import (
    MULTIPLIER,
    OP_BUDGET,
    PEEL_CALL_CAP,
    S_CAP,
    SIZE_CAP,
    TARGETS,
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


def u2_interval_exact(values):
    """Exact U^2 average of the values f(1..N) zero-padded in Z/MZ, M the
    least prime at least 5N: with no wraparound, c(h) is the linear
    autocorrelation, taken here in int64 (|c(h)| <= N)."""
    v = np.asarray(values, dtype=np.int64)
    c = np.correlate(v, v, "full")
    M = least_prime_at_least(5 * len(v))
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
    assert MULTIPLIER == 5
    arr = interval_embedding([1, 2, 3, 4])
    assert len(arr) == 23  # least prime at least 20
    assert arr.dtype == np.float64
    assert arr[0] == 0.0
    assert arr[1:5].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert not arr[5:].any()
    with pytest.raises(ValueError):
        interval_embedding([])
    with pytest.raises(ValueError):
        interval_embedding(np.ones(0))


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
    got = gowers_norm_interval(np.ones(N), 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_interval_mobius_against_fourier_oracle():
    N = 50
    mu = mobius_sieve(N)
    arr = interval_embedding(mu[1:])
    got = gowers_norm_interval(mu[1:], 2)
    assert got == pytest.approx(u2_average_fft(arr) ** 0.25, abs=1e-10)


def test_interval_liouville_decreases_with_n():
    # The rows of README's `gowers --target liouville --N 100,300,1000 --s 2`.
    lam = liouville_sieve(1000)
    vals = [gowers_norm_interval(lam[1:N + 1], 2) for N in (100, 300, 1000)]
    assert vals == [0.1062125787423321, 0.0825557060579477,
                    0.06188575575736718]
    assert vals[2] < vals[1] < vals[0]


def test_u3_rows_are_pinned():
    # The U^3 row of the gowers-liouville benchmark workload, and the rows
    # of README's `gowers --target delta --M 53,101 --s 3`, whose cyclic
    # array puts f(n) at n mod M for n = 1..M.
    lam = liouville_sieve(80)
    assert gowers_norm_interval(lam[1:], 3) == 0.27960244328688194
    for M, norm in ((53, 0.13736056394868904), (101, 0.09950371902099892)):
        arr = np.roll(TARGETS["delta"](M)[1:], 1)
        assert gowers_norm_cyclic(arr, 3) == norm


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


@st.composite
def _on_an_arc(draw, M):
    """M reals that are zero off one arc of Z/MZ, which may wrap past
    M - 1 or be empty, with the zero runs of _REALS inside it."""
    vals = np.array(draw(st.lists(_REALS, min_size=M, max_size=M)))
    lo = draw(st.integers(0, M - 1))
    L = draw(st.integers(0, M))
    keep = np.zeros(M, dtype=bool)
    keep[np.arange(lo, lo + L) % M] = True
    return np.where(keep, vals, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_average_matches_oracles(data):
    s = data.draw(st.integers(1, 4), label="s")
    M = data.draw(st.integers(1, (40, 40, 14, 7)[s - 1]), label="M")
    vals = data.draw(_on_an_arc(M), label="values")
    assert gowers_average(vals, s) == pytest.approx(
        u_average_peel(vals, s), rel=1e-12, abs=0.0)
    signs = np.sign(vals)
    assert gowers_average(signs, 2) == float(u2_average_exact(signs))


def _arc_of_signs(M, lo, L):
    """Values in {-1, 0, 1} on the L points lo, lo + 1, ... of Z/MZ, taken
    mod M, both ends nonzero; 0 elsewhere."""
    rng = stream(20260818, 35)
    arr = np.zeros(M)
    arr[np.arange(lo, lo + L) % M] = [rng.choice((-1, 0, 1))
                                      for _ in range(L)]
    arr[lo % M] = arr[(lo + L - 1) % M] = 1.0
    return arr


@pytest.mark.parametrize("M, lo, L", [
    (23, 20, 6),  # wraps past M - 1: nonzero at both ends of the array
    (11, 0, 6), (11, 3, 6), (11, 5, 6),  # 2L - 1 = M
    (10, 0, 6), (10, 2, 6), (10, 4, 6),  # 2L - 1 = M + 1
    (13, 4, 6),  # 2L - 1 < M < 3L - 2
    (17, 0, 1), (17, 9, 1), (17, 16, 1),  # a single point
    (12, 0, 12),  # full support
])
def test_arc_edges_match_oracles(M, lo, L):
    arr = _arc_of_signs(M, lo, L)
    assert gowers_average(arr, 2) == float(u2_average_exact(arr))
    for s in (1, 3, 4):
        assert gowers_average(arr, s) == pytest.approx(
            u_average_peel(arr, s), rel=1e-12, abs=0.0)


def test_interval_work_is_on_the_arc(monkeypatch):
    # Each U^2 correlation takes the arc of f(1..N), never the M >= 5N
    # points of the cycle, and U^3 makes at most 2N - 1 of them, not M.
    shapes = []
    real = np.correlate
    monkeypatch.setattr(np, "correlate", lambda a, v, mode: (
        shapes.append((len(a), len(v))) or real(a, v, mode)))
    lam = liouville_sieve(300)
    for N in (1, 2, 80, 300):
        arr = interval_embedding(lam[1:N + 1])
        for s, calls in ((2, 1), (3, 2 * N - 1)):
            shapes.clear()
            gowers_average(arr, s)
            assert 1 <= len(shapes) <= calls
            assert all(v <= N and a < 3 * N for a, v in shapes)


def test_average_matches_recursion_oracle_edges():
    # All zeros average exactly 0.0, with no ConsistencyError.
    for vals in ([3.0], [-2.5], [0.0], [1.0, -1.0], [0.5, 2.0], [0.0] * 2,
                 [0.0] * 17):
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
        arr = interval_embedding(lam[1:N + 1])
        avg = gowers_average(arr, 2)
        assert avg == float(u2_interval_exact(lam[1:N + 1]))
        assert gowers_norm_interval(lam[1:N + 1], 2) == norm
        assert norm == avg ** 0.25


def test_budget_error(monkeypatch):
    monkeypatch.setattr(gowers, "OP_BUDGET", 10 ** 6)
    with pytest.raises(BudgetError):
        gowers_average(np.ones(100000), 2)
    # The check is M^s against the budget, whatever the base case costs.
    monkeypatch.setattr(gowers, "OP_BUDGET", 10 ** 4)
    for s, M in ((1, 10 ** 4), (2, 100), (3, 21), (4, 10)):
        gowers_average(np.ones(M), s)
        with pytest.raises(BudgetError):
            gowers_average(np.ones(M + 1), s)
    monkeypatch.undo()
    assert OP_BUDGET == 5 * 10 ** 9
    for s, M in ((2, 70711), (3, 1710), (4, 266)):
        with pytest.raises(BudgetError):
            gowers_average(np.ones(M), s)
    with pytest.raises(ValueError):
        gowers_average(np.ones(5), 0)
    with pytest.raises(ValueError):
        gowers_average([], 2)


def test_peel_call_cap(monkeypatch):
    # M^s is within the budget, but the peel would make M^(s-2) calls.
    calls = []
    real = gowers._u_average
    monkeypatch.setattr(gowers, "_u_average",
                        lambda values, s: calls.append(s) or real(values, s))
    assert 3 ** 20 <= OP_BUDGET and 3 ** 18 > PEEL_CALL_CAP
    with pytest.raises(BudgetError, match="peels"):
        gowers_average(np.ones(3), 20)
    assert calls == []  # refused before any work
    assert gowers_average(np.ones(4), 5) == 1.0
    assert calls.count(2) == 4 ** 3
    # The cap is on M^(s-2) itself; a stub stands in for the 10^6 calls.
    assert PEEL_CALL_CAP == 10 ** 6
    monkeypatch.setattr(gowers, "_u_average", lambda values, s: 0.0)
    monkeypatch.setattr(gowers, "OP_BUDGET", 10 ** 13)
    gowers_average(np.ones(1000), 4)
    with pytest.raises(BudgetError, match="peels"):
        gowers_average(np.ones(1001), 4)


def test_size_cap_bounds_the_group_at_s_1():
    # At s = 1 the operation budget alone would admit M up to 5e9.
    assert SIZE_CAP < OP_BUDGET
    gowers.check_budget(SIZE_CAP, 1)
    with pytest.raises(BudgetError, match=r"^U\^1 on Z/10000001Z: the group "
                       r"is larger than the cap of 10000000$"):
        gowers.check_budget(SIZE_CAP + 1, 1)
    # Past both, the operation budget is named first.
    with pytest.raises(BudgetError, match="over the budget"):
        gowers.check_budget(10 ** 9, 2)


def test_s_cap_is_checked_before_any_power_of_m():
    # At M = 1 the other caps admit every s; the peel would recurse s - 2
    # calls deep.  At M >= 2 the operation budget refuses s past the cap.
    assert 2 ** (S_CAP + 1) > OP_BUDGET
    assert gowers_average(np.ones(1), S_CAP) == 1.0
    for s in (S_CAP + 1, 5000, 10 ** 12):
        with pytest.raises(BudgetError, match=rf"^s: U\^{s} is past the "
                           rf"cap of s = {S_CAP}$"):
            gowers.check_budget(1, s)


def test_targets_call_the_sieves_at_call_time(monkeypatch):
    calls = []
    for name in ("liouville_sieve", "mobius_sieve"):
        real = getattr(gowers, name)
        monkeypatch.setattr(
            gowers, name,
            lambda n, real=real, name=name: calls.append(name) or real(n))
    assert np.array_equal(TARGETS["liouville"](30), liouville_sieve(30))
    assert np.array_equal(TARGETS["mobius"](30), mobius_sieve(30))
    assert calls == ["liouville_sieve", "mobius_sieve"]
    assert TARGETS["one"](3).tolist() == [1.0] * 4
    assert TARGETS["delta"](3).tolist() == [False, True, False, False]
