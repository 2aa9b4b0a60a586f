"""End-to-end acceptance gate for the package.

Each test below covers one numbered acceptance criterion and prints a
single `criterion N: PASS/FAIL ...` line (visible under `pytest -s`, or
in the captured output of a failing test).  The statistical criteria use
fixed seeds, so every run sees the same samples and the same verdicts.

Criterion 9 tunes each window from the sample's own mean log|f(n)| and
its series S_w(f), so the truncation w must be fine enough that the
omitted Euler factors stay well inside the tolerances; the test prints
the measured numbers next to the assertion so the margin is on record.

The whole module takes about 53 s on one core of a 2-core Xeon VM
(Python 3.11, numpy 2.4): about 23 s in criterion 6 and 18 s in
criterion 7, both mostly the batched Liouville kernel along f(1..X).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyprime.arith import (liouville, liouville_many, liouville_sieve,
                             mobius_sieve)
from polyprime.cli import main
from polyprime.experiments import (ExperimentConfig, iid_sign_simulation,
                                   run_experiment)
from polyprime.gowers import gowers_norm_cyclic, gowers_norm_interval
from polyprime.moments import (gaussian_coefficient_sum, gaussian_moment,
                               poisson_central_moment, sigma_squared,
                               stein_chen_check)
from polyprime.poly import sample_uniform
from polyprime.rng import stream
from polyprime.series import (interchange_identity_check, lemma_lower_bound,
                              lemma_upper_bound, series_f)

SEED = 20260818

PATTERNS = [(1,), (-1,), (1, 1), (1, -1), (-1, 1), (-1, -1)]


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _rows(result):
    return {row.key: row for row in result.aggregates}


def test_criterion_01_exact_moment_identities():
    for ell in range(13):
        assert stein_chen_check(ell)
    # poisson_central_moment raises internally if the binomial expansion
    # and the recurrence ever disagree, so calling it is the check.
    for k in range(13):
        poisson_central_moment(k)
    assert poisson_central_moment(1).coeffs == (0,)
    assert poisson_central_moment(2).coeffs == (0, 1)
    assert poisson_central_moment(4).coeffs == (0, 1, 3)
    for k in range(0, 13, 2):
        assert poisson_central_moment(k).coeff(k // 2) == gaussian_moment(k)
    _report(1, True, "Stein-Chen and central moment identities exact for "
                     "k, ell <= 12; leading coefficients match double "
                     "factorials")


def test_criterion_02_gaussian_coefficient_sums():
    for X in list(range(1, 65)) + [10 ** 3, 10 ** 6 + 7, 2 ** 14]:
        assert gaussian_coefficient_sum(2, X) == 1
    worst = 0.0
    for k in (4, 6, 8):
        ck = gaussian_moment(k)
        vals = [abs(gaussian_coefficient_sum(k, 2 ** e) - ck) * (2 ** e)
                for e in range(4, 15)]
        for a, b in zip(vals, vals[1:]):
            step = float(abs(b - a) / a)
            worst = max(worst, step)
            assert step < 0.05, (k, a, b, step)
    _report(2, True, f"k=2 sum is exactly 1; scaled k=4,6,8 error varies "
                     f"by at most {worst:.1%} per doubling of X up to 2^14")


def test_criterion_03_interchange_rearrangement():
    rng = stream(SEED, 3)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for r in (1, 2, 3):
            for i in range(100):
                f = sample_uniform(1 + i % 3, 10 ** 6, rng)
                assert interchange_identity_check(f, p, r), (f.coeffs, p, r)
                checked += 1
    _report(3, True, f"shift-average rearrangement exact in {checked} "
                     f"random cases, p <= 13, r <= 3")


def test_criterion_04_series_bounds_dichotomy():
    rng = stream(SEED, 4)
    zeros = 0
    nonzeros = 0
    for i in range(1000):
        d = 1 + i % 3
        w = rng.randint(2, 50)
        f = sample_uniform(d, 10 ** 6, rng)
        s = series_f(f, w)
        assert s.value <= lemma_upper_bound(w), (f.coeffs, w, s.value)
        if s.value == 0:
            # a vanishing series must come from a prime that divides
            # every value of f, and that prime must confess directly
            bad = [p for p, c in s.local_factors if c == 0]
            assert bad, (f.coeffs, w)
            for p in bad:
                assert all(f.eval(x) % p == 0 for x in range(p))
            zeros += 1
        else:
            assert s.value >= lemma_lower_bound(w, d), (f.coeffs, w, s.value)
            nonzeros += 1
    _report(4, True, f"series bounds and zero dichotomy hold for 1000 "
                     f"random f ({nonzeros} nonzero, {zeros} zero), w <= 50")


def test_criterion_05_liouville_mobius_identity():
    n = 10 ** 6
    lam = liouville_sieve(n).astype(np.int64)
    mu = mobius_sieve(n).astype(np.int64)
    acc = np.zeros(n + 1, dtype=np.int64)
    r = 1
    while r * r <= n:
        step = r * r
        acc[step::step] += mu[1: n // step + 1]
        r += 1
    ok = bool(np.array_equal(acc[1:], lam[1:]))
    _report(5, ok, "liouville(n) equals mobius summed over square "
                   "divisors for every n <= 10^6")


def test_criterion_06_chowla_central_limit():
    cfg = ExperimentConfig(kind="chowla-clt", d=2, H=10 ** 9, X=400,
                           samples=2000, seed=SEED, k_max=3)
    rows = _rows(run_experiment(cfg))
    m1, m2, m3 = rows["moment_1"], rows["moment_2"], rows["moment_3"]
    ks = rows["ks_gaussian"].estimate
    ok = (abs(m1.estimate) <= 3 * m1.stderr
          and 0.85 <= m2.estimate <= 1.15
          and abs(m3.estimate) <= 3 * m3.stderr
          and ks <= 0.05)
    _report(6, ok, f"normalized Liouville sums over 2000 random f: "
                   f"m1={m1.estimate:.4f} (3se={3 * m1.stderr:.4f}), "
                   f"m2={m2.estimate:.4f} in [0.85, 1.15], "
                   f"m3={m3.estimate:.4f} (3se={3 * m3.stderr:.4f}), "
                   f"KS={ks:.4f} <= 0.05")


def test_criterion_07_sign_pattern_variance():
    worst_iid = 0.0
    for pat in PATTERNS:
        var = iid_sign_simulation(10 ** 4, pat, 10 ** 4, SEED)
        rel = abs(var - float(sigma_squared(pat))) / float(sigma_squared(pat))
        worst_iid = max(worst_iid, rel)
        assert rel < 0.05, (pat, var, rel)

    # Liouville along random quadratics, one shared sign window per
    # sample so the six patterns see identical draws.
    X, samples, smax = 400, 1000, 2
    stats = {pat: [] for pat in PATTERNS}
    for i in range(samples):
        f = sample_uniform(2, 10 ** 9, stream(SEED, i))
        lam = [0, 0] + liouville_many([f.eval(m)
                                       for m in range(2, X + smax + 1)])
        for pat in PATTERNS:
            s = len(pat)
            want = list(pat)
            count = sum(1 for n in range(1, X + 1)
                        if lam[n + 1: n + 1 + s] == want)
            stats[pat].append((count - X / 2 ** s) / math.sqrt(X))
    worst_lam = 0.0
    for pat in PATTERNS:
        var = float(np.var(stats[pat], ddof=1))
        rel = abs(var - float(sigma_squared(pat))) / float(sigma_squared(pat))
        worst_lam = max(worst_lam, rel)
        assert rel < 0.15, (pat, var, rel)
    _report(7, True, f"pattern count variances match sigma^2 for all "
                     f"patterns up to length 2: iid within {worst_iid:.1%} "
                     f"(5% allowed), Liouville along f within "
                     f"{worst_lam:.1%} (15% allowed)")


def test_criterion_08_prime_value_moments():
    out = {}
    for X in (300, 600):
        cfg = ExperimentConfig(kind="bh-moments", d=1, H=10 ** 7, X=X,
                               samples=500, seed=SEED, w=11, k_max=2)
        out[X] = _rows(run_experiment(cfg))
    m1 = out[300]["moment_1"]
    m1b = out[600]["moment_1"]
    v300 = out[300]["moment_2"].estimate
    v600 = out[600]["moment_2"].estimate
    ok = (abs(m1.estimate) <= 3 * m1.stderr
          and abs(m1b.estimate) <= 3 * m1b.stderr
          and v600 < v300)
    _report(8, ok, f"centered prime-count averages: m1={m1.estimate:.4f} "
                   f"(3se={3 * m1.stderr:.4f}) at X=300, "
                   f"m1={m1b.estimate:.4f} (3se={3 * m1b.stderr:.4f}) at "
                   f"X=600, second moment falls {v300:.4f} -> {v600:.4f}")


def test_criterion_09_interval_statistics():
    runs = {}
    # w=100, not 5: the window is tuned with S_w(f), and for linear f the
    # Euler factors left out above w average prod_{p>w} (1 + 1/(p(p-1))),
    # which is 1.058 at w=5 (windows 5.8% too long, beyond what the
    # tolerances below absorb) but 1.0018 at w=100.
    for calL in (1.0, 25.0):
        cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=10 ** 6, X=2000,
                               samples=200, seed=SEED, w=100, calL=calL)
        runs[calL] = _rows(run_experiment(cfg))
    tv = runs[1.0]["tv_mean"].estimate
    count_lo = runs[1.0]["mean_count"].estimate
    count_hi = runs[25.0]["mean_count"].estimate
    errs = []
    for key in ("cdf_tm1", "cdf_t0", "cdf_tp1"):
        row = runs[25.0][key]
        errs.append(abs(row.estimate - row.predicted))
    # diagnostics printed unconditionally so the margin is on record: a
    # realized mean count off its target points at the window tuning
    # (scale mean log|f(n)|, series S_w), a TV or CDF error with the mean
    # on target at the count distribution itself
    print(f"  [diagnostic] mean TV at calL=1: {tv:.4f} "
          f"(quartiles {runs[1.0]['tv_q25'].estimate:.4f}/"
          f"{runs[1.0]['tv_median'].estimate:.4f}/"
          f"{runs[1.0]['tv_q75'].estimate:.4f})")
    print(f"  [diagnostic] realized mean count {count_lo:.4f} vs 1.0 "
          f"and {count_hi:.4f} vs 25.0")
    print(f"  [diagnostic] Gaussian CDF errors at t=-1,0,1: "
          f"{errs[0]:.4f}, {errs[1]:.4f}, {errs[2]:.4f}")
    ok = tv <= 0.1 and all(e <= 0.05 for e in errs)
    _report(9, ok, f"interval counts: mean TV {tv:.4f} (need <= 0.10), "
                   f"CDF errors {errs[0]:.4f}/{errs[1]:.4f}/{errs[2]:.4f} "
                   f"(need <= 0.05 each)")


def test_criterion_10_uniformity_norms():
    for M, s in ((11, 2), (31, 2), (11, 3), (53, 3)):
        assert gowers_norm_cyclic(np.ones(M), s) == 1.0
    for M in (11, 53, 101):
        delta = np.zeros(M)
        delta[3] = 1.0
        for s in (2, 3):
            want = M ** (-(s + 1) / 2 ** s)
            assert abs(gowers_norm_cyclic(delta, s) - want) < 1e-10
    rng = stream(SEED, 10)
    for _ in range(100):
        arr = np.array([1.0 if rng.random() < 0.5 else -1.0
                        for _ in range(64)])
        assert (gowers_norm_cyclic(arr, 2)
                <= gowers_norm_cyclic(arr, 3) + 1e-12)
    norms = [gowers_norm_interval([liouville(n) for n in range(1, N + 1)], 2)
             for N in (100, 300, 1000, 3000)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a, norms
    _report(10, True, f"norm of 1 is exactly 1, point masses match the "
                      f"closed form to 1e-10, U2 <= U3 on 100 random "
                      f"sign vectors, Liouville U2 norms fall "
                      f"{norms[0]:.4f} -> {norms[-1]:.4f} as N grows")


def test_criterion_11_parallel_reproducibility(tmp_path):
    cases = [
        ("chowla-clt", ["--d", "2", "--H", "1e6", "--X", "50",
                        "--samples", "16"]),
        ("poisson-gaps", ["--d", "1", "--H", "1e4", "--X", "200",
                          "--samples", "12", "--calL", "2.0"]),
    ]
    for kind, extra in cases:
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"{kind}-w{workers}"
            rc = main([kind, "--seed", str(SEED), "--workers", str(workers),
                       "--out-dir", str(out)] + extra)
            assert rc == 0
            blobs.append((out / "samples.csv").read_bytes())
        assert blobs[0] == blobs[1], kind
    _report(11, True, "samples.csv byte-identical between 1 and 8 workers "
                      "for chowla-clt and poisson-gaps runs")
