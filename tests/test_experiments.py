"""Monte Carlo harness: statistics, distributions, determinism."""

import csv
import itertools
import math
import multiprocessing
import os
import statistics
from collections import Counter
from dataclasses import MISSING, fields
from fractions import Fraction

import numpy as np
import pytest

import polyprime.experiments as experiments
from polyprime.arith import (is_prime, is_prime_many, liouville, primes_upto,
                             von_mangoldt)
from polyprime.errors import ConfigError
from polyprime.experiments import (
    K_MAX_CAP,
    KINDS,
    ExperimentConfig,
    SampleRecord,
    iid_sign_simulation,
    interval_count_distribution,
    ks_statistic_gaussian,
    run_chunk,
    run_experiment,
    run_sample,
    tv_poisson,
)
from polyprime.poly import IntPolynomial, sample_uniform
from polyprime.rng import child_seed, stream
from polyprime.runio import write_run
from polyprime.series import series_f, series_f_tuple

X_POLY = IntPolynomial((0, 1))


def lam_by_trial_division(m):
    """Independent Liouville evaluation by plain trial division."""
    m = abs(m)
    if m == 0:
        return 0
    omega = 0
    d = 2
    while d * d <= m:
        while m % d == 0:
            omega += 1
            m //= d
        d += 1
    if m > 1:
        omega += 1
    return -1 if omega % 2 else 1


def vm_by_trial_division(m):
    """Independent von Mangoldt evaluation by plain trial division."""
    m = abs(m)
    if m < 2:
        return 0.0
    p = None
    d = 2
    while d * d <= m:
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
        d += 1
    if p is None:
        return math.log(m)  # m itself prime
    return math.log(p) if m == 1 else 0.0


def sample_stats(kind, f, X, series=None, **keys):
    """f's (stats, zero_evals) as a run of kind computes them: a config of
    kind at X and keys, the entry's points of f, one call of its kernel on
    them and its stats, with series as f's series."""
    cfg = ExperimentConfig(kind=kind, d=max(1, len(f.coeffs) - 1),
                           H=max(1, *map(abs, f.coeffs)), X=X, samples=1,
                           seed=1, **keys)
    entry = KINDS[kind]
    vals = entry.points(cfg, f, series)
    return entry.stats(cfg, series, vals, entry.kernel(cfg)(vals))


@pytest.fixture
def window_counts(monkeypatch):
    """The Counters that `interval_count_distribution` returns, in call
    order, when the poisson-gaps stats call it through the module."""
    counts = []
    inner = experiments.interval_count_distribution

    def spy(flags, L):
        counts.append(inner(flags, L))
        return counts[-1]

    monkeypatch.setattr(experiments, "interval_count_distribution", spy)
    return counts


# The bh-moments statistic is the tuple statistic at the one shift 0.

def test_bh_statistic_zero_poly():
    f = IntPolynomial((0,))
    assert sample_stats("bh-moments", f, 50, series_f(f, 5)) == \
        ({"stat": 0.0}, 50)


def test_bh_statistic_2x():
    # Lambda(2n) is log 2 exactly when 2n is a power of two: n in
    # {1, 2, 4, 8} for X = 8; the series vanishes at p = 2.
    f = IntPolynomial((0, 2))
    stats, zeros = sample_stats("bh-moments", f, 8, series_f(f, 2), w=2)
    assert stats["stat"] == pytest.approx(4 * math.log(2) / 8, abs=1e-14)
    assert zeros == 0


def test_bh_statistic_identity_poly_against_sieve():
    psi = 0.0
    for p in primes_upto(100).tolist():
        pk = p
        while pk <= 100:
            psi += math.log(p)
            pk *= p
    want = psi / 100 - 1.0
    stats, _ = sample_stats("bh-moments", X_POLY, 100, series_f(X_POLY, 5))
    assert stats["stat"] == pytest.approx(want, abs=1e-12)
    assert stats["stat"] == pytest.approx(-0.059546887706426, abs=1e-12)


def test_tuple_statistic_single_shift_reduces_to_bh():
    for f in (X_POLY, IntPolynomial((1, 0, 1)), IntPolynomial((3, 2)),
              IntPolynomial((-7, 1))):
        sv = series_f(f, 3).value
        tuple_sv = series_f_tuple(f, [0], 3)
        assert sample_stats("tuples", f, 40, tuple_sv, w=3, shifts=[0]) \
            == ref_bh(f, 40, sv)


def test_tuple_statistic_always_composite_with_zero_series():
    # 30n has three distinct prime factors for every n >= 1, so the
    # von Mangoldt product vanishes termwise, and the series is 0 at
    # p = 2 already.
    f = IntPolynomial((0, 30))
    sv = series_f_tuple(f, [0, 1], 5)
    assert sv.value == 0
    assert sample_stats("tuples", f, 30, sv, shifts=[0, 1]) == \
        ({"stat": 0.0}, 0)


def test_tuple_statistic_twin_shifts_against_oracle():
    X, w = 200, 3
    sv = series_f_tuple(X_POLY, [0, 2], w)
    acc = math.fsum(vm_by_trial_division(n) * vm_by_trial_division(n + 2)
                    for n in range(1, X + 1))
    want = acc / X - float(sv.value)
    stats, zeros = sample_stats("tuples", X_POLY, X, sv, w=w, shifts=[0, 2])
    assert stats["stat"] == pytest.approx(want, abs=1e-12)
    assert zeros == 0


def test_chowla_constant_polynomial_degenerate():
    assert sample_stats("chowla-clt", IntPolynomial((1,)), 100) == \
        ({"stat": 10.0}, 0)


def test_chowla_identity_poly_frozen():
    # L(100) = -2 from a sieve, so the normalized sum is exactly -0.2.
    stats, zeros = sample_stats("chowla-clt", X_POLY, 100)
    assert stats["stat"] == pytest.approx(-0.2, abs=1e-15)
    assert zeros == 0


def test_chowla_x2_plus_1_against_trial_division():
    X = 100
    want = sum(lam_by_trial_division(n * n + 1)
               for n in range(1, X + 1)) / math.sqrt(X)
    stats, _ = sample_stats("chowla-clt", IntPolynomial((1, 0, 1)), X)
    assert stats["stat"] == pytest.approx(want, abs=1e-12)


def test_sign_pattern_s1_relates_to_liouville_sum():
    X = 100
    total = sum(liouville(n) for n in range(2, X + 2))
    stats, _ = sample_stats("sign-patterns", X_POLY, X, pattern=(-1,))
    # count(-1) = (X - total)/2 because no window value is 0 here.
    want = ((X - total) / 2 - X / 2) / math.sqrt(X)
    assert stats["stat"] == pytest.approx(want, abs=1e-12)


def test_sign_pattern_pair_count_against_enumeration():
    X = 100
    count = 0
    for n in range(1, X + 1):
        if liouville(n + 1) == 1 and liouville(n + 2) == 1:
            count += 1
    want = (count - X / 4) / math.sqrt(X)
    stats, _ = sample_stats("sign-patterns", X_POLY, X, pattern=(1, 1))
    assert stats["stat"] == pytest.approx(want, abs=1e-12)


def test_sign_pattern_counts_partition_x():
    X = 60
    f = IntPolynomial((1, 0, 1))
    total = 0.0
    for pattern in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        stats, _ = sample_stats("sign-patterns", f, X, pattern=pattern)
        total += stats["stat"] * math.sqrt(X) + X / 4
    assert total == pytest.approx(X, abs=1e-9)


def test_sign_pattern_tolerates_zero_values():
    # f(5) = 0 puts a zero into some windows; those windows never match,
    # and the product identity gives them 0 as well.
    f = IntPolynomial((-5, 1))
    stats, zeros = sample_stats("sign-patterns", f, 10, pattern=(-1,))
    assert zeros > 0
    count = sum(1 for n in range(1, 11) if lam_by_trial_division(n - 4) == -1)
    assert stats["stat"] == pytest.approx((count - 5) / math.sqrt(10),
                                          abs=1e-12)


# The poisson-gaps stats count the windows of the length that calL tunes;
# each test states the window its calL gives.

def test_interval_distribution_window_one(window_counts):
    stats, _ = sample_stats("poisson-gaps", X_POLY, 30, series_f(X_POLY, 5),
                            calL=0.01)
    assert stats["window"] == 1
    [counts] = window_counts
    assert sum(counts.values()) == 30
    assert counts[1] / 30 == 10 / 30  # ten primes up to 30
    assert counts[0] / 30 == 20 / 30
    with pytest.raises(ValueError):
        interval_count_distribution([True], 2)


def test_interval_distribution_against_recount(window_counts):
    X, L = 20, 5
    stats, _ = sample_stats("poisson-gaps", X_POLY, X, series_f(X_POLY, 5),
                            calL=2.3)
    assert stats["window"] == L
    [counts] = window_counts
    acc = {}
    for x in range(1, X + 1):
        c = sum(1 for m in range(x, x + L)
                if m >= 2 and all(m % q for q in range(2, m)))
        acc[c] = acc.get(c, 0) + 1
    assert counts == acc


def test_interval_double_counting_identity(window_counts):
    f = IntPolynomial((1, 0, 1))
    X, L = 50, 3
    stats, _ = sample_stats("poisson-gaps", f, X, series_f(f, 5), calL=0.6)
    assert stats["window"] == L
    [counts] = window_counts
    lhs = sum(k * c for k, c in counts.items())
    rhs = 0
    for x in range(1, X + 1):
        rhs += sum(1 for m in range(x, x + L)
                   if lam_by_trial_division(f.eval(m)) == -1
                   and vm_by_trial_division(f.eval(m)) > 0
                   and abs(f.eval(m)) > 1
                   and is_prime_naive(f.eval(m)))
    assert lhs == rhs


def is_prime_naive(m):
    m = abs(m)
    if m < 2:
        return False
    return all(m % q for q in range(2, math.isqrt(m) + 1))


def test_interval_moment_large_against_direct_sum(window_counts):
    X, L, k = 10 ** 4, 20, 2
    stats, _ = sample_stats("poisson-gaps", X_POLY, X, series_f(X_POLY, 5),
                            calL=2.4)
    assert stats["window"] == L
    [counts] = window_counts
    sieve = np.zeros(X + L + 1, dtype=bool)
    for p in primes_upto(X + L).tolist():
        sieve[p] = True
    direct = 0
    for x in range(1, X + 1):
        direct += int(sieve[x: x + L].sum()) ** k
    assert sum(c * kk ** k for kk, c in counts.items()) == direct


def test_tv_poisson_point_mass():
    d = Counter({0: 10})
    want = 1.0 - math.exp(-1.0)
    assert tv_poisson(d, 1.0) == pytest.approx(want, abs=1e-12)
    assert tv_poisson(d, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_ks_statistic():
    assert ks_statistic_gaussian([0.0]) == pytest.approx(0.5)
    g = np.random.Generator(np.random.PCG64(7)).normal(size=2000)
    assert ks_statistic_gaussian(g.tolist()) < 0.04
    with pytest.raises(ValueError):
        ks_statistic_gaussian([])


# Oracles for the aggregation layer, which prints every stderr and
# verdict: the stdlib statistics module and brute force.
def seeded_values(n, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    return (g.normal(size=n) * 3.0 + 1.0).tolist()


def test_mean_stderr_against_statistics():
    for n in (2, 3, 10, 57):
        vals = seeded_values(n, n)
        mean, se = experiments._mean_stderr(vals)
        assert mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
        assert se == pytest.approx(statistics.stdev(vals) / math.sqrt(n),
                                   rel=1e-12)
    assert experiments._mean_stderr([2.5]) == (2.5, 0.0)


def test_quantile_against_statistics():
    for n in (2, 5, 10, 33):
        vals = sorted(seeded_values(n, 100 + n))
        for k in (4, 10):
            cuts = statistics.quantiles(vals, n=k, method="inclusive")
            for i, cut in enumerate(cuts, 1):
                assert experiments._quantile(vals, i / k) \
                    == pytest.approx(cut, rel=1e-12, abs=1e-12), (n, k, i)
        assert experiments._quantile(vals, 0.0) == vals[0]
        assert experiments._quantile(vals, 1.0) == vals[-1]
    assert experiments._quantile([4.0], 0.25) == 4.0


def test_verdict_boundaries():
    verdict = experiments._verdict
    # Within 3 standard errors, the bound itself included; past it, not.
    for estimate in (3.0, -3.0, 2.5, -2.5, 0.0):
        assert verdict(estimate + 1.0, 1.0, 1.0) == "consistent", estimate
    assert verdict(0.75, 0.25, 0.0) == "consistent"
    assert verdict(math.nextafter(3.0, 4.0), 1.0, 0.0) == "deviates"
    assert verdict(-3.5, 1.0, 0.0) == "deviates"
    # A stderr of 0 measures no spread: only equality is consistent, and
    # anything else is info, not deviates.
    assert verdict(1.5, 0.0, 1.5) == "consistent"
    assert verdict(1.5, 0.0, 1.25) == "info"
    # Without a prediction there is nothing to compare.
    for estimate, stderr in ((1.0, 0.5), (1.0, 0.0), (1.0, math.nan)):
        assert verdict(estimate, stderr, math.nan) == "info"


def ks_by_brute_force(values):
    """sup |F_n - Phi| over the real line: at each distinct value both
    one-sided limits of the empirical CDF, #{v < x} / n and #{v <= x} / n."""
    n = len(values)
    d = 0.0
    for x in set(values):
        c = experiments._phi(x)
        below = sum(v < x for v in values)
        upto = sum(v <= x for v in values)
        d = max(d, abs(upto / n - c), abs(below / n - c))
    return d


def test_ks_statistic_against_brute_force():
    for n, seed in ((1, 1), (7, 2), (40, 3)):
        vals = seeded_values(n, seed)
        assert ks_statistic_gaussian(vals) == ks_by_brute_force(vals)
    # Ties, and samples whose supremum is at a left limit (all values
    # far to the right) or at a right limit (far to the left).
    for vals in ([0.0, 0.0, 1.0, 1.0, 1.0, -2.0], [5.0, 6.0, 6.0],
                 [-6.0, -5.0], [0.3] * 4):
        assert ks_statistic_gaussian(vals) == ks_by_brute_force(vals), vals
    assert ks_statistic_gaussian([5.0, 6.0, 6.0]) \
        == pytest.approx(experiments._phi(5.0))


def test_sign_pattern_rows_against_their_formulas():
    cfg = ExperimentConfig(kind="sign-patterns", d=1, H=10, X=10,
                           samples=9, seed=1, pattern=(1, -1))
    vals = seeded_values(9, 17)
    records = [SampleRecord(index=i, coeffs=(0, 1), series=Fraction(1),
                            stats={"stat": v}, attempts=1, zero_evals=0)
               for i, v in enumerate(vals)]
    (mean_key, mean, se, zero), (var_key, var, se_var, sigma2) = \
        KINDS["sign-patterns"].rows(cfg, records, [])
    assert (mean_key, var_key, zero, sigma2) == ("mean", "variance", 0.0,
                                                 1 / 16)
    assert mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
    assert se == pytest.approx(statistics.stdev(vals) / 3.0, rel=1e-12)
    # The variance and its standard error under normality, var * sqrt(2 /
    # (n - 1)).
    assert var == pytest.approx(statistics.variance(vals), rel=1e-12)
    assert se_var == pytest.approx(statistics.variance(vals) * 0.5,
                                   rel=1e-12)


def window_cdf_by_recount(windows, p, L):
    """The share of the window counts at or below p*L + t*sd, sd the
    binomial sd sqrt(L p (1 - p)) (0 once p >= 1), one window at a time."""
    sd = math.sqrt(L * p * (1 - p)) if p < 1 else 0.0
    return {tag: sum(1 for c in windows if c <= p * L + t * sd)
            / len(windows)
            for tag, t in (("cdf_tm1", -1), ("cdf_t0", 0), ("cdf_tp1", 1))}


def test_gaussian_window_stats_against_a_recount():
    # p = 1/2 and L = 4 put the thresholds on the counts 1, 2 and 3, so a
    # window equal to a threshold is counted; p = 1.5 has sd 0.
    for windows, p, L in (([0, 1, 1, 2, 2, 2, 3, 4, 4, 1], 0.5, 4),
                          ([0, 1, 2, 3, 4, 5, 6], 1.5, 4),
                          ([3], 0.25, 12)):
        assert experiments._gaussian_window_stats(
            Counter(windows), len(windows), p, L) \
            == window_cdf_by_recount(windows, p, L), (windows, p, L)
    assert window_cdf_by_recount([0, 1, 1, 2, 2, 2, 3, 4, 4, 1], 0.5, 4) \
        == {"cdf_tm1": 0.4, "cdf_t0": 0.7, "cdf_tp1": 0.8}
    rng = stream(22, 9)
    for _ in range(200):
        L = rng.randint(1, 60)
        p = rng.uniform(0.001, 0.999)
        windows = [rng.randint(0, L) for _ in range(rng.randint(1, 300))]
        assert experiments._gaussian_window_stats(
            Counter(windows), len(windows), p, L) \
            == window_cdf_by_recount(windows, p, L), (windows, p, L)


def test_iid_sign_simulation_matches_sigma():
    [var] = iid_sign_simulation(500, [(1,)], 2000, 20260818)
    assert var == pytest.approx(0.25, rel=0.12)
    [var2] = iid_sign_simulation(500, [(1, 1)], 2000, 20260819)
    assert var2 == pytest.approx(5 / 16, rel=0.12)
    with pytest.raises(ValueError):
        iid_sign_simulation(10, [(1,)], 1, 0)


def test_iid_sign_simulation_reads_each_pattern_its_own_draw():
    # One draw per trial serves every pattern only because numpy's draw of
    # N values is the first N of a draw of N + 1 from the same seed.
    for t in range(40):
        for n in (1, 2, 7, 64, 1001, 10 ** 4 + 1):
            short, long_ = (np.random.Generator(np.random.PCG64(
                child_seed(20260818, t))).integers(0, 2, size=m)
                for m in (n, n + 1))
            assert np.array_equal(short, long_[:n]), (t, n)
    patterns = [(1,), (-1, 1), (1, 1, -1), (-1,)]
    together = iid_sign_simulation(60, patterns, 50, 7)
    alone = [v for p in patterns for v in iid_sign_simulation(60, [p], 50, 7)]
    assert together == alone


def test_run_sample_deterministic():
    cfg = ExperimentConfig(kind="chowla-clt", d=2, H=10 ** 6, X=40,
                           samples=5, seed=424242)
    a = run_sample(cfg, 3, None)
    b = run_sample(cfg, 3, None)
    assert a == b
    c = run_sample(cfg, 4, None)
    assert c.coeffs != a.coeffs


def test_run_experiment_chowla_shape():
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=100, X=50,
                           samples=30, seed=1, k_max=3)
    res = run_experiment(cfg)
    assert len(res.records) == 30
    keys = [row.key for row in res.aggregates]
    assert keys == ["moment_1", "moment_2", "moment_3", "ks_gaussian"]
    for row in res.aggregates[:3]:
        assert row.verdict in ("consistent", "deviates")
    assert res.aggregates[3].verdict == "info"


def test_run_experiment_zero_variance_warning():
    # With H = 1 and M = 3 each coefficient's residue class contains a
    # single value, so every sample draws the same polynomial f = 1 and
    # the statistic is constant; the aggregator must say so.
    cfg = ExperimentConfig(kind="linear-forms", d=1, H=1, X=10,
                           samples=5, seed=31, w=3, ns=(1,), M=3,
                           f0=(1, 0), target="von-mangoldt")
    res = run_experiment(cfg)
    assert all(rec.coeffs == (1, 0) for rec in res.records)
    assert all(rec.stats["stat"] == 0.0 for rec in res.records)
    assert any("zero variance" in wrn for wrn in res.warnings)


def test_run_experiment_workers_match_sequential():
    cfg1 = ExperimentConfig(kind="chowla-clt", d=2, H=1000, X=30,
                            samples=12, seed=5150, workers=1)
    cfg2 = ExperimentConfig(kind="chowla-clt", d=2, H=1000, X=30,
                            samples=12, seed=5150, workers=2)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert r1.records == r2.records
    for a, b in zip(r1.aggregates, r2.aggregates):
        assert (a.experiment, a.key, a.verdict) == \
            (b.experiment, b.key, b.verdict)
        for fa, fb in ((a.estimate, b.estimate), (a.stderr, b.stderr),
                       (a.predicted, b.predicted)):
            assert repr(fa) == repr(fb)  # nan-aware bitwise equality


# One small run per kind.  A chunk of all 7 chowla-clt or sign-patterns
# samples has enough Miller-Rabin values for the numpy test, and one sample
# alone too few; the 21 linear-forms values of a chunk are sieved, and the
# 3 of one sample trial-divided.
CHUNK_RUNS = {
    "bh-moments": dict(d=2, H=10 ** 20, X=30),
    "tuples": dict(d=1, H=10 ** 7, X=60, shifts=(0, 2)),
    "chowla-clt": dict(d=2, H=10 ** 9, X=60),
    "sign-patterns": dict(d=2, H=10 ** 9, X=60, pattern=(1, -1)),
    "poisson-gaps": dict(d=1, H=10 ** 3, X=60, w=11),
    "linear-forms": dict(d=2, H=10 ** 8, X=1, w=11, ns=(1, 2, 3), M=3,
                         f0=(1, 0)),
}


def test_records_do_not_depend_on_chunks(monkeypatch):
    # One sample per chunk, chunks of 3 and one chunk give the same
    # records, at one and at two workers (where a chunk holds at most 4 of
    # the 7 samples), as each sample alone.
    import polyprime.arith as arith
    lanes = []
    inner = arith._strong_probable_many

    def spy(n):
        lanes.append(len(n))
        return inner(n)

    monkeypatch.setattr(arith, "_strong_probable_many", spy)
    assert set(CHUNK_RUNS) == set(KINDS)
    for kind, keys in CHUNK_RUNS.items():
        cfg = ExperimentConfig(kind=kind, samples=7, seed=20261021, **keys)
        series = KINDS[kind].run_series(cfg)
        lanes.clear()
        lone = [run_sample(cfg, i, series) for i in range(cfg.samples)]
        assert lanes == []
        assert run_chunk(cfg, range(cfg.samples), series) == lone, kind
        assert bool(lanes) == (kind in ("chowla-clt", "sign-patterns"))
        for per in (1, 3, 7):
            monkeypatch.setattr(experiments, "CHUNK_POINTS",
                                per * experiments._sample_points(cfg))
            for workers in (1, 2):
                cfg = ExperimentConfig(kind=kind, samples=7, seed=20261021,
                                       workers=workers, **keys)
                size = min(per, 7 if workers == 1 else 4)
                assert [len(c) for c in experiments._chunks(cfg)] == \
                    [size] * (7 // size) + [7 % size] * (7 % size > 0)
                assert run_experiment(cfg).records == lone, \
                    (kind, per, workers)


def test_pool_forks_no_more_workers_than_chunks(monkeypatch):
    # A pool of min(workers, chunks) processes; one chunk, or one
    # worker, runs in process.  The records do not depend on it.
    ctx = multiprocessing.get_context("fork")
    sizes = []
    inner = ctx.Pool

    def pool(processes):
        sizes.append(processes)
        return inner(processes)

    monkeypatch.setattr(ctx, "Pool", pool)
    for samples, workers, want in ((3, 8, [3]), (1, 2, []), (12, 2, [2]),
                                   (5, 1, [])):
        keys = dict(kind="chowla-clt", d=2, H=1000, X=20, samples=samples,
                    seed=5)
        alone = run_experiment(ExperimentConfig(**keys)).records
        sizes.clear()
        cfg = ExperimentConfig(**keys, workers=workers)
        assert run_experiment(cfg).records == alone
        assert sizes == want, (samples, workers)


def test_points_stay_within_the_span():
    # The POINTS_CAP refusal and the chunk sizes trust each kind's span to
    # bound the points of every sample the kind draws.
    extras = {
        "bh-moments": [{}],
        "tuples": [{"shifts": s} for s in ((0, 2), (2, 0), (-3, 1, 4),
                                           (-5, -1))],
        "chowla-clt": [{}],
        "sign-patterns": [{"pattern": p} for p in ((1,), (1, -1, 1),
                                                   (-1,) * 8)],
        "poisson-gaps": [{"calL": c, "w": w} for c in (0.01, 1.0, 25.0)
                         for w in (2, 5, 20)],
        "linear-forms": [{"ns": (-1, 1, 2, 3)}],
    }
    assert set(extras) == set(KINDS)
    for kind, entry in KINDS.items():
        for extra, X, (d, H) in itertools.product(
                extras[kind], (6, 30), ((1, 10), (2, 10 ** 6), (3, 5))):
            cfg = ExperimentConfig(kind=kind, d=d, H=H, X=X, samples=5,
                                   seed=20261022, **extra)
            series = entry.run_series(cfg)
            for i in range(cfg.samples):
                f, _, sv = entry.draw(cfg, stream(cfg.seed, i), series)
                assert len(entry.points(cfg, f, sv)) <= \
                    experiments._sample_points(cfg), (cfg, f)


def test_run_experiment_tuples_and_bh_rows():
    cfg = ExperimentConfig(kind="tuples", d=1, H=50, X=40, samples=10,
                           seed=2, w=3, k_max=2, shifts=(0, 2))
    res = run_experiment(cfg)
    assert [r.key for r in res.aggregates] == ["moment_1", "moment_2"]
    assert res.aggregates[0].predicted == 0.0
    assert math.isnan(res.aggregates[1].predicted)


def test_run_experiment_sign_patterns_rows():
    cfg = ExperimentConfig(kind="sign-patterns", d=1, H=30, X=40,
                           samples=8, seed=3, pattern=(1, -1))
    res = run_experiment(cfg)
    keys = [r.key for r in res.aggregates]
    assert keys == ["mean", "variance"]
    assert res.aggregates[1].predicted == pytest.approx(1 / 16)


# A small config of each kind, but for samples and seed.
ONE_SAMPLE_KEYS = {
    "bh-moments": dict(d=1, H=1000, X=20),
    "tuples": dict(d=1, H=1000, X=20, shifts=(0, 2)),
    "chowla-clt": dict(d=2, H=1000, X=20),
    "sign-patterns": dict(d=2, H=1000, X=20, pattern=(1, -1, -1)),
    "poisson-gaps": dict(d=1, H=1000, X=40, calL=2.0),
    "linear-forms": dict(d=2, H=1000, X=1, ns=(1, 2), M=3, f0=(1, 0)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_one_sample_run_writes_rows_with_zero_stderr(kind, tmp_path):
    cfg = ExperimentConfig(kind=kind, samples=1, seed=7,
                           **ONE_SAMPLE_KEYS[kind])
    res = run_experiment(cfg)
    write_run(str(tmp_path), res, "start", "finish")
    with open(tmp_path / "samples.csv", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 1
    with open(tmp_path / "aggregates.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["key"] for r in rows] == [a.key for a in res.aggregates]
    for row in rows:
        # A row with a standard error has 0.0 from one sample; the
        # others (quantiles, KS) write nan as an empty cell.
        assert row["stderr"] in ("0.0", ""), row
        assert row["estimate"] not in ("", "nan"), row
    if kind == "poisson-gaps":
        tv = repr(res.records[0].stats["tv"])
        assert [r["estimate"] for r in rows if r["key"] in
                ("tv_min", "tv_q25", "tv_median", "tv_q75", "tv_max")] \
            == [tv] * 5
    if kind == "sign-patterns":
        assert rows[1]["key"] == "variance"
        assert rows[1]["estimate"] == "0.0"


def test_run_experiment_linear_forms_vonmangoldt_zero_class():
    # f == x mod 2 makes f(2) even, so the product is rarely nonzero and
    # the truncated series is exactly zero at p = 2.
    cfg = ExperimentConfig(kind="linear-forms", d=1, H=20, X=10,
                           samples=15, seed=4, w=3, ns=(2,), M=2,
                           f0=(0, 1), target="von-mangoldt")
    res = run_experiment(cfg)
    [mean_row] = res.aggregates
    assert mean_row.key == "mean"
    assert mean_row.predicted == 0.0
    for rec in res.records:
        assert rec.attempts == 1
        assert rec.coeffs[0] % 2 == 0
        assert rec.coeffs[1] % 2 == 1


def test_run_experiment_linear_forms_liouville_prediction():
    cfg = ExperimentConfig(kind="linear-forms", d=1, H=100, X=10,
                           samples=40, seed=6, w=3, ns=(1, 2), M=1,
                           f0=(0,), target="liouville")
    res = run_experiment(cfg)
    assert res.aggregates[0].predicted == 0.0
    assert all(rec.stats["stat"] in (-1.0, 0.0, 1.0)
               for rec in res.records)


def test_run_experiment_poisson_gaps_shape_and_override():
    cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=60, X=50,
                           samples=6, seed=8, w=3, calL=0.5)
    res = run_experiment(cfg)
    for rec in res.records:
        assert rec.stats["window"] == max(1, round(rec.stats["window_real"]))
        assert 0.0 <= rec.stats["tv"] <= 1.0
    keys = [r.key for r in res.aggregates]
    assert keys[:7] == ["tv_mean", "tv_min", "tv_q25", "tv_median",
                        "tv_q75", "tv_max", "mean_count"]
    assert "cdf_t0" in keys and "attempts_mean" in keys


def test_run_experiment_poisson_gaps_degenerate_window_warns():
    cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=60, X=40,
                           samples=5, seed=12, w=3, calL=1e-6)
    res = run_experiment(cfg)
    assert any("window length below 1" in wrn for wrn in res.warnings)
    assert any("L = 1" in wrn for wrn in res.warnings)
    for rec in res.records:
        assert rec.stats["window"] == 1
        assert rec.series != 0


def test_poisson_gaps_rejects_fixed_prime_divisors():
    # At this seed a filter on S_w alone keeps 9 polynomials of content > 1
    # at w=2 (among them the constant 23) and 3 at w=5: their fixed prime
    # divisor lies above w, so S_w != 0 although f has no prime values.
    drawn = {}
    for w in (2, 5):
        cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=60, X=40,
                               samples=50, seed=12, w=w)
        records = run_experiment(cfg).records
        for rec in records:
            assert rec.coeffs[1] != 0, rec.coeffs
            assert math.gcd(*rec.coeffs) == 1, rec.coeffs
        drawn[w] = [(rec.coeffs, rec.attempts) for rec in records]
    # For linear f, content 1 already forces every local factor nonzero,
    # so the accepted draws do not depend on w.
    assert drawn[2] == drawn[5]


def test_poisson_gaps_window_from_own_log_scale():
    X, calL = 12, 2.0
    cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=4, X=X, samples=40,
                           seed=3, w=7, calL=calL)
    res = run_experiment(cfg)
    saw_zero = False
    for rec in res.records:
        f = IntPolynomial(rec.coeffs)
        logs = []
        for n in range(1, X + 1):
            v = abs(f.eval(n))
            saw_zero = saw_zero or v == 0
            logs.append(math.log(v) if v >= 2 else math.log(2))
        assert float(rec.series) == float(series_f(f, 7).value)
        want = calL * (sum(logs) / X) / float(rec.series)
        assert rec.stats["window_real"] == pytest.approx(want, rel=1e-12)
        assert rec.stats["window"] == max(1, round(want))
    assert saw_zero


def test_poisson_gaps_evaluates_each_point_once(monkeypatch):
    # One is_prime_many call per chunk, on each sample's f(1..X+L-1) in
    # turn, built from the two ranges 1..X (the scale) and X+1..X+L-1 (the
    # window tails).
    import polyprime.experiments as experiments
    ranges, lists = [], []
    inner_values, inner_is_prime = IntPolynomial.values, is_prime_many

    def values(f, lo, hi):
        ranges.append((f.coeffs, lo, hi))
        return inner_values(f, lo, hi)

    def spy_is_prime(vals):
        lists.append(list(vals))
        return inner_is_prime(vals)

    monkeypatch.setattr(IntPolynomial, "values", values)
    monkeypatch.setattr(experiments, "is_prime_many", spy_is_prime)
    X = 25
    for extra in ({"calL": 3.0}, {"calL": 7.0}, {"calL": 1e-6}):
        ranges.clear()
        lists.clear()
        cfg = ExperimentConfig(kind="poisson-gaps", d=2, H=50, X=X,
                               samples=4, seed=5, w=5, **extra)
        records = run_experiment(cfg).records
        assert len(lists) == len(experiments._chunks(cfg))
        want_vals, want_ranges = [], []
        for rec in records:
            f, L = IntPolynomial(rec.coeffs), rec.stats["window"]
            want_vals += [f.eval(n) for n in range(1, X + L)]
            want_ranges += [(f.coeffs, 1, X), (f.coeffs, X + 1, X + L - 1)]
        assert sum(lists, []) == want_vals
        assert ranges == want_ranges
        assert any(rec.stats["window"] > 1 for rec in records) \
            or extra == {"calL": 1e-6}


def test_moment_rows_stay_finite_at_the_k_max_cap():
    # The chowla-clt stat is at most sqrt(X) <= 1000 under the points cap.
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=10, X=10, samples=3,
                           seed=1, k_max=K_MAX_CAP)
    records = [SampleRecord(index=i, coeffs=(0, 1), series=Fraction(1),
                            stats={"stat": v}, attempts=1, zero_evals=0)
               for i, v in enumerate((1000.0, -1000.0, 999.0))]
    rows = KINDS["chowla-clt"].rows(cfg, records, [])
    assert [key for key, *_ in rows][-2:] == [f"moment_{K_MAX_CAP}",
                                               "ks_gaussian"]
    # Each moment's estimate, stderr and prediction, and the KS distance.
    assert all(math.isfinite(v) for row in rows[:-1] for v in row[1:])
    assert math.isfinite(rows[-1][1])


def test_config_validation_errors():
    good = dict(kind="chowla-clt", d=1, H=10, X=10, samples=2, seed=0)
    ExperimentConfig(**good)
    bad_cases = [
        dict(good, kind="nope"),
        dict(good, d=0),
        dict(good, H=0),
        dict(good, X=0),
        dict(good, samples=0),
        dict(good, seed=-1),
        dict(good, w=1),
        dict(good, workers=0),
        dict(good, k_max=0),
        dict(good, kind="tuples"),
        dict(good, kind="tuples", shifts=(1, 1)),
        dict(good, kind="tuples", shifts=(0, 100)),
        dict(good, kind="sign-patterns"),
        dict(good, kind="sign-patterns", pattern=(1, 0)),
        dict(good, kind="poisson-gaps", calL=0.0),
        dict(good, kind="poisson-gaps", calL=math.inf),
        dict(good, kind="linear-forms", ns=()),
        dict(good, kind="linear-forms", ns=(1, 1)),
        dict(good, kind="linear-forms", target="theta"),
    ]
    for case in bad_cases:
        with pytest.raises(ConfigError):
            ExperimentConfig(**case)


def test_each_config_key_is_declared_once_on_its_field():
    names = [f.name for f in fields(ExperimentConfig)]
    for f in fields(ExperimentConfig):
        if f.name != "kind":
            assert f.metadata["help"], f.name
            assert callable(f.metadata["parse"]), f.name
            if f.default is not MISSING:  # a default passes its parser
                assert f.metadata["parse"](f.default, f.name) == f.default
    owners = Counter(name for entry in KINDS.values() for name in entry.keys)
    assert set(owners) <= set(names) - {"kind"}
    # k_max is a key of the three moment kinds; every other named key is
    # one kind's own.
    assert {kind for kind, entry in KINDS.items() if "k_max" in entry.keys} \
        == {"bh-moments", "tuples", "chowla-clt"}
    assert all(count == 1 for name, count in owners.items()
               if name != "k_max")


def test_zero_eval_audit_surfaces_in_records():
    # f = x - 5 evaluates to zero at n = 5.
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=5, X=10, samples=50,
                           seed=13)
    res = run_experiment(cfg)
    hit = [rec for rec in res.records
           if rec.coeffs[1] != 0 and
           rec.coeffs[0] % rec.coeffs[1] == 0 and
           1 <= -rec.coeffs[0] // rec.coeffs[1] <= 10]
    for rec in hit:
        assert rec.zero_evals >= 1
    if any(rec.zero_evals for rec in res.records):
        assert any("zero evaluations" in wrn for wrn in res.warnings)


def test_run_sample_repeats_after_a_run_of_another_kind():
    # f = a*x + b with |a|, |b| <= 3 hits zeros; nothing a run of another
    # kind leaves behind in the process may change a record.
    cfg = ExperimentConfig(kind="bh-moments", d=1, H=3, X=40, samples=20,
                           seed=11, w=3)
    first = [run_sample(cfg, i, None) for i in range(cfg.samples)]
    assert any(rec.zero_evals for rec in first)
    other = run_experiment(ExperimentConfig(kind="chowla-clt", d=1, H=5,
                                            X=50, samples=60, seed=13))
    assert any(rec.zero_evals for rec in other.records)
    assert [run_sample(cfg, i, None) for i in range(cfg.samples)] == first


# Per-n reference loops: the statistics as they were computed before the
# batched kernels, one scalar arithmetic call per point, each as a
# sample's (stats, zero_evals): its stat and the number of zero values of
# f it evaluated.

def ref_bh(f, X, sv):
    vals = [f.eval(n) for n in range(1, X + 1)]
    total = math.fsum(von_mangoldt(v) for v in vals)
    return {"stat": total / X - float(sv)}, sum(1 for v in vals if v == 0)


def ref_tuple(f, X, shifts, sv):
    def term(n):
        v = 1.0
        for l in shifts:
            v *= von_mangoldt(f.eval(n + l))
            if v == 0.0:
                return 0.0
        return v

    total = math.fsum(term(n) for n in range(1, X + 1))
    points = range(1 + min(shifts), X + max(shifts) + 1)
    return ({"stat": total / X - float(sv)},
            sum(1 for m in points if f.eval(m) == 0))


def ref_chowla(f, X):
    vals = [f.eval(n) for n in range(1, X + 1)]
    return ({"stat": sum(liouville(v) for v in vals) / math.sqrt(X)},
            sum(1 for v in vals if v == 0))


def ref_sign(f, X, pattern):
    s = len(pattern)
    lam = [0] * (X + s + 1)
    zeros = 0
    for m in range(2, X + s + 1):
        zeros += f.eval(m) == 0
        lam[m] = liouville(f.eval(m))
    count = sum(1 for n in range(1, X + 1)
                if lam[n + 1: n + 1 + s] == list(pattern))
    return {"stat": (count - X / 2 ** s) / math.sqrt(X)}, zeros


def ref_interval(f, X, L):
    flags = [is_prime(f.eval(m)) for m in range(1, X + L)]
    return Counter(sum(flags[x - 1: x - 1 + L]) for x in range(1, X + 1))


def small_polys(seed, count):
    """Seeded polynomials with tiny coefficients, so zeros of f occur."""
    rng = stream(seed, 0)
    return [sample_uniform(rng.randrange(1, 4), rng.randrange(2, 7), rng)
            for _ in range(count)]


def test_statistics_match_reference_loops(window_counts):
    X, w = 30, 5
    zeros, windows = 0, set()
    for f in small_polys(20261018, 60):
        sv = series_f(f, w)
        got = sample_stats("bh-moments", f, X, sv, w=w)
        assert got == ref_bh(f, X, sv.value), f
        zeros += got[1]
        assert sample_stats("chowla-clt", f, X) == ref_chowla(f, X), f
        for pattern in ((1,), (-1, 1), (1, 1, -1)):
            assert sample_stats("sign-patterns", f, X, pattern=pattern) == \
                ref_sign(f, X, pattern), (f, pattern)
        if sv.value == 0:
            continue  # no window: the poisson-gaps draw refuses such f
        for calL in (0.01, 1.0):
            window_counts.clear()
            stats, _ = sample_stats("poisson-gaps", f, X, sv, w=w,
                                    calL=calL)
            L = stats["window"]
            assert window_counts == [ref_interval(f, X, L)], (f, L)
            windows.add(L)
    assert zeros > 0
    assert 1 in windows and max(windows) > 1


def test_statistics_match_reference_loops_across_2_52():
    # Quartics with coefficients near 1e9: f(1..X) crosses 2**52, so one
    # call mixes the batched route and the scalar one.
    X, w = 70, 5
    rng = stream(20261020, 0)
    for _ in range(6):
        f = IntPolynomial(tuple(rng.randrange(-10 ** 9, 10 ** 9 + 1)
                                for _ in range(4)) + (10 ** 9 - 7,))
        assert abs(f.eval(1)) < 2 ** 52 < abs(f.eval(X))
        sv = series_f(f, w)
        assert sample_stats("bh-moments", f, X, sv, w=w) == \
            ref_bh(f, X, sv.value), f
        assert sample_stats("chowla-clt", f, X) == ref_chowla(f, X), f


def test_tuple_statistic_matches_reference_loop():
    X, w = 25, 3
    zeros = 0
    for f in small_polys(20261019, 40):
        for shifts in ((0, 2), (2, 0), (-3, 1, 4), (0, 1, 2, 3, 6)):
            sv = series_f_tuple(f, shifts, w)
            got = sample_stats("tuples", f, X, sv, w=w, shifts=shifts)
            assert got == ref_tuple(f, X, shifts, sv.value), (f, shifts)
            zeros += got[1]
    assert zeros > 0


def test_tuple_statistic_zero_behind_zero_weight_not_audited():
    # f(6) = 0 is a factor at n = 6 (shift 0) and at n = 4 (shift 2),
    # behind the zero weight Lambda(|f(4)|) = Lambda(6); it is one value
    # of f and counts once.  3 divides every value, so the series is 0.
    f = IntPolynomial((-18, 3))
    sv = series_f_tuple(f, (0, 2), 5)
    assert sv.value == 0
    got = sample_stats("tuples", f, 10, sv, shifts=(0, 2))
    assert got[1] == 1
    assert got == ref_tuple(f, 10, (0, 2), 0)


def test_tuples_zero_evals_counts_a_zero_once():
    # f = x - 5 has the one zero f(5).  At shifts 0, 2 it is a factor of
    # the products at n = 5 and at n = 3, and it still counts once, as in
    # bh-moments and poisson-gaps.
    f = IntPolynomial((-5, 1))
    for kind, keys in (("tuples", {"shifts": (0, 2)}), ("bh-moments", {}),
                       ("poisson-gaps", {})):
        sv = series_f_tuple(f, keys.get("shifts", (0,)), 5)
        assert sample_stats(kind, f, 10, sv, **keys)[1] == 1, kind


def test_zero_evals_counts_each_evaluated_zero_once():
    # Lines and quadratics with coefficients up to 3 often vanish at some
    # point; each kind counts the zeros of f among the points at which
    # it evaluates f, by brute force.
    evaluated_points = {
        "bh-moments": lambda cfg, rec: range(1, cfg.X + 1),
        "chowla-clt": lambda cfg, rec: range(1, cfg.X + 1),
        "tuples": lambda cfg, rec: range(1 + min(cfg.shifts),
                                         cfg.X + max(cfg.shifts) + 1),
        "sign-patterns": lambda cfg, rec: range(
            2, cfg.X + len(cfg.pattern) + 1),
        "poisson-gaps": lambda cfg, rec: range(
            1, cfg.X + rec.stats["window"]),
        "linear-forms": lambda cfg, rec: cfg.ns,
    }
    assert set(evaluated_points) == set(KINDS)
    keys = {"tuples": {"shifts": (-2, 0, 3)}, "sign-patterns": {"pattern":
            (1, -1, 1)}, "linear-forms": {"ns": (-1, 1, 2, 3)}}
    for kind, points in evaluated_points.items():
        zeros = 0
        for d in (1, 2):
            cfg = ExperimentConfig(kind=kind, d=d, H=3, X=12, samples=60,
                                   seed=20261020, **keys.get(kind, {}))
            for rec in run_experiment(cfg).records:
                f = IntPolynomial(rec.coeffs)
                want = sum(1 for m in points(cfg, rec) if f.eval(m) == 0)
                assert rec.zero_evals == want, (kind, rec)
                zeros += want
        assert zeros > 0, kind


def test_tv_poisson_matches_a_log_space_pmf():
    # The pmf recurrence from exp(-lam) against each pmf in log space,
    # exp(k log lam - lam - lgamma(k + 1)), up to the largest calL.
    def oracle(counts, lam):
        total = sum(counts.values())
        pmf = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
               for k in range(max(counts) + 1)]
        return 0.5 * (math.fsum(abs(counts[k] / total - p)
                                for k, p in enumerate(pmf))
                      + max(0.0, 1.0 - math.fsum(pmf)))

    for lam in (1, 25, 300, experiments.CALL_CAP):
        r = math.isqrt(lam)
        for counts in (Counter({lam: 3}), Counter({0: 1, lam: 5}),
                       Counter({lam - r: 4, lam + 1: 2, lam + 3 * r: 1})):
            assert abs(tv_poisson(counts, lam) - oracle(counts, lam)) \
                <= 1e-12, (lam, counts)


def test_linear_forms_matches_reference_products():
    for target in ("von-mangoldt", "liouville"):
        cfg = ExperimentConfig(kind="linear-forms", d=2, H=3, X=1,
                               samples=40, seed=17, w=3, ns=(1, 2, 3),
                               target=target)
        zeros = 0
        series = KINDS[cfg.kind].run_series(cfg)
        for i in range(cfg.samples):
            rec = run_sample(cfg, i, series)
            vals = [IntPolynomial(rec.coeffs).eval(n) for n in cfg.ns]
            fn = von_mangoldt if target == "von-mangoldt" else liouville
            prod = 1.0 if target == "von-mangoldt" else 1
            for v in vals:
                prod *= fn(v)
            assert rec.stats["stat"] == float(prod)
            assert rec.zero_evals == sum(1 for v in vals if v == 0)
            zeros += rec.zero_evals
        assert zeros > 0


LINEAR_FORMS_CFG = dict(kind="linear-forms", d=2, H=30, X=1, samples=9,
                        seed=20261018, w=13, ns=(1, 2, 3), M=3, f0=(1, 0))


def test_linear_forms_series_once_per_run(monkeypatch):
    import polyprime.experiments as experiments
    calls = []
    main_pid = os.getpid()
    inner = experiments.series_linear_system

    def counted(*args):
        # A call in a forked worker would fail its sample, and the run.
        assert os.getpid() == main_pid, "series computed in a worker"
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(experiments, "series_linear_system", counted)
    for workers in (1, 2):
        calls.clear()
        run_experiment(ExperimentConfig(**LINEAR_FORMS_CFG,
                                        workers=workers))
        assert len(calls) == 1
    run_experiment(ExperimentConfig(**dict(LINEAR_FORMS_CFG,
                                           kind="chowla-clt", X=20)))
    assert len(calls) == 1


def test_linear_forms_records_match_lone_samples():
    for workers in (1, 2):
        cfg = ExperimentConfig(**LINEAR_FORMS_CFG, workers=workers)
        records = run_experiment(cfg).records
        series = KINDS[cfg.kind].run_series(cfg)
        assert records == [run_sample(cfg, i, series)
                           for i in range(cfg.samples)]


def test_linear_forms_modulus_above_w_fails_before_sampling(
        monkeypatch, capsys, tmp_path):
    import polyprime.experiments as experiments
    from polyprime.cli import main

    def no_sampling(*args):
        raise AssertionError("sampled before the series was checked")

    monkeypatch.setattr(experiments, "sample_uniform_residue", no_sampling)
    rc = main(["linear-forms", "--d", "1", "--H", "30", "--X", "1",
               "--samples", "4", "--workers", "2", "--ns", "1,2",
               "--M", "14", "--f0", "1;0", "--w", "5", "--seed", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "M must have no prime factor above w" in capsys.readouterr().err


def test_traced_functions_are_called_through_module_globals(monkeypatch):
    # A wrapper bound to the module attribute, as the benchmark's span
    # tracer installs it, must see every call the experiment table makes:
    # one kernel call per chunk, and the draw's calls and one call of the
    # kind's public statistic per sample.
    import polyprime.experiments as experiments
    calls = Counter()

    def counting(name):
        inner = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("liouville_many", "von_mangoldt_many", "is_prime_many",
                 "series_f", "series_f_tuple", "series_linear_system",
                 "sample_uniform_residue", "tuple_statistic",
                 "chowla_normalized_sum", "sign_pattern_statistic",
                 "interval_count_distribution"):
        monkeypatch.setattr(experiments, name, counting(name))
    cfg = ExperimentConfig(kind="chowla-clt", d=2, H=100, X=20, samples=5,
                           seed=3)
    run_experiment(cfg)
    assert calls == {"liouville_many": 1, "series_f": 5,
                     "chowla_normalized_sum": 5}
    calls.clear()
    # 40 points take two chowla-clt or bh-moments samples of 20 (chunks
    # of 2, 2 and 1) and one tuples or sign-patterns sample of 22 or 21.
    monkeypatch.setattr(experiments, "CHUNK_POINTS", 40)
    run_experiment(cfg)
    assert calls == {"liouville_many": 3, "series_f": 5,
                     "chowla_normalized_sum": 5}
    calls.clear()
    run_experiment(ExperimentConfig(kind="tuples", d=1, H=100, X=20,
                                    samples=4, seed=3, shifts=(0, 2)))
    assert calls == {"von_mangoldt_many": 4, "series_f_tuple": 4,
                     "tuple_statistic": 4}
    calls.clear()
    run_experiment(ExperimentConfig(kind="bh-moments", d=1, H=100, X=20,
                                    samples=2, seed=3))
    assert calls == {"von_mangoldt_many": 1, "series_f": 2,
                     "tuple_statistic": 2}
    calls.clear()
    run_experiment(ExperimentConfig(kind="sign-patterns", d=1, H=100, X=20,
                                    samples=3, seed=3, pattern=(1, -1)))
    assert calls == {"liouville_many": 3, "series_f": 3,
                     "sign_pattern_statistic": 3}
    calls.clear()
    cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=100, X=10, samples=3,
                           seed=3)
    run_experiment(cfg)
    assert calls["is_prime_many"] == len(experiments._chunks(cfg))
    assert calls["interval_count_distribution"] == 3
    calls.clear()
    run_experiment(ExperimentConfig(**dict(LINEAR_FORMS_CFG, samples=3)))
    assert calls == {"von_mangoldt_many": 1, "series_linear_system": 1,
                     "sample_uniform_residue": 3}
