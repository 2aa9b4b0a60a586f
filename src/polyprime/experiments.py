"""Seeded Monte Carlo experiments over random integer polynomials.

Each experiment draws polynomials from the uniform family (degree at
most d, coefficients bounded by H), computes one statistic per sample,
and aggregates moments against the matching prediction.  Sample i always
uses the random stream derived from (master seed, i), so results do not
depend on how samples are distributed over worker processes, and the
per-sample output is byte-identical for any worker count.

Statistic conventions.  Sums over n always mean 1 <= n <= X.  A zero
value of f(n) contributes 0 wherever an arithmetic function is applied
and increments the zero-evaluation audit counter, which is reported per
sample.  Each statistic evaluates f once at its points and hands the
values to the batched kernels of `arith` (`liouville_many`,
`von_mangoldt_many`, `is_prime_many`).
"""

import functools
import math
import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (is_prime_many, liouville_many, von_mangoldt_many,
                    zero_audit)
from .errors import BudgetError, ConfigError, ConsistencyError
from .moments import gaussian_moment, sigma_squared
from .poly import IntPolynomial, sample_uniform, sample_uniform_residue
from .rng import child_seed, stream
from .series import series_f, series_f_tuple, series_linear_system

EXPERIMENT_KINDS = ("bh-moments", "tuples", "chowla-clt", "sign-patterns",
                    "poisson-gaps", "linear-forms")

REJECTION_CAP = 10 ** 6


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    d: int
    H: int
    X: int
    samples: int
    seed: int
    w: int = 5
    workers: int = 1
    k_max: int = 4
    shifts: tuple = ()
    pattern: tuple = ()
    calL: float = 1.0
    L: int = 0  # explicit window override; 0 means derive from calL
    ns: tuple = (1,)
    M: int = 1
    f0: tuple = (0,)
    target: str = "von-mangoldt"
    deterministic_reduction: bool = True

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for key in ("d", "H", "X", "samples"):
            v = getattr(self, key)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{key} must be a positive integer")
        if self.w < 2:
            raise ConfigError("w must be >= 2")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.k_max < 1:
            raise ConfigError("k-max must be >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.kind == "tuples":
            if not self.shifts:
                raise ConfigError("shifts is required for tuple statistics")
            if len(set(self.shifts)) != len(self.shifts):
                raise ConfigError("shifts must be distinct")
            if any(abs(l) > self.X for l in self.shifts):
                raise ConfigError("shifts must satisfy |shift| <= X")
        if self.kind == "sign-patterns":
            if not self.pattern:
                raise ConfigError("pattern is required for sign patterns")
            if any(e not in (-1, 1) for e in self.pattern):
                raise ConfigError("pattern entries must be +1 or -1")
        if self.kind == "poisson-gaps":
            if not self.calL > 0:
                raise ConfigError("calL must be positive")
            if self.L < 0:
                raise ConfigError("L must be >= 1 when set")
        if self.kind == "linear-forms":
            if not self.ns:
                raise ConfigError("ns is required for linear forms")
            if len(set(self.ns)) != len(self.ns):
                raise ConfigError("ns entries must be distinct")
            if self.M < 1:
                raise ConfigError("M must be >= 1")
            if self.target not in ("von-mangoldt", "liouville"):
                raise ConfigError("target must be von-mangoldt or liouville")
        return self


@dataclass(frozen=True)
class SampleRecord:
    index: int
    coeffs: tuple
    series: Fraction
    stats: dict
    attempts: int
    zero_evals: int


@dataclass(frozen=True)
class AggregateRow:
    experiment: str
    key: str
    estimate: float
    stderr: float  # nan when not applicable
    predicted: float  # nan when there is no numeric prediction
    verdict: str


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list
    aggregates: list
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Counts of a nonnegative integer statistic over `total` trials."""

    counts: tuple  # ((k, count), ...) ascending in k
    total: int

    def __post_init__(self):
        if sum(c for _, c in self.counts) != self.total:
            raise ValueError("counts must sum to total")
        if any(c < 0 for _, c in self.counts):
            raise ValueError("counts must be nonnegative")

    @staticmethod
    def from_values(values) -> "EmpiricalDistribution":
        acc = {}
        n = 0
        for v in values:
            acc[int(v)] = acc.get(int(v), 0) + 1
            n += 1
        return EmpiricalDistribution(tuple(sorted(acc.items())), n)

    def probability(self, k: int) -> float:
        for kk, c in self.counts:
            if kk == k:
                return c / self.total
        return 0.0

    def moment(self, k: int) -> float:
        return math.fsum(c * kk ** k for kk, c in self.counts) / self.total

    def tv_poisson(self, lam: float) -> float:
        """Total variation distance to Poisson(lam)."""
        kmax = self.counts[-1][0] if self.counts else 0
        pmf = math.exp(-lam)
        acc = 0.0
        covered = 0.0
        got = dict(self.counts)
        for k in range(kmax + 1):
            acc += abs(got.get(k, 0) / self.total - pmf)
            covered += pmf
            pmf *= lam / (k + 1)
        acc += max(0.0, 1.0 - covered)
        return 0.5 * acc


def bh_statistic(f: IntPolynomial, X: int, w: int,
                 series_value=None) -> float:
    """Average of the von Mangoldt weight along f minus its series."""
    if series_value is None:
        series_value = series_f(f, w).value
    total = math.fsum(von_mangoldt_many([f.eval(n)
                                         for n in range(1, X + 1)]))
    return total / X - float(series_value)


def tuple_statistic(f: IntPolynomial, X: int, shifts, w: int,
                    series_value=None) -> float:
    """Average of the product of von Mangoldt weights at shifted points.

    The product at n is taken in shift order and stops at its first zero
    weight, so a zero value f(n + l) is audited only when every earlier
    shift's weight at n was nonzero.
    """
    if series_value is None:
        series_value = series_f_tuple(f, shifts, w).value
    shifts = list(shifts)
    lo = 1 + min(shifts)
    vals = [f.eval(m) for m in range(lo, X + max(shifts) + 1)]
    # Zeros stay out of the kernel, which would audit every one of them.
    lams = iter(von_mangoldt_many([v for v in vals if v]))
    weight = [next(lams) if v else 0.0 for v in vals]
    terms = []
    for n in range(1, X + 1):
        v = 1.0
        for l in shifts:
            i = n + l - lo
            v *= weight[i]
            if v == 0.0:
                if vals[i] == 0:
                    zero_audit.count += 1
                break
        terms.append(v)
    return math.fsum(terms) / X - float(series_value)


def chowla_normalized_sum(f: IntPolynomial, X: int) -> float:
    """Sum of the Liouville function along f, scaled by X**(-1/2)."""
    total = sum(liouville_many([f.eval(n) for n in range(1, X + 1)]))
    return total / math.sqrt(X)


def sign_pattern_statistic(f: IntPolynomial, X: int, pattern) -> float:
    """Normalized count of n <= X whose Liouville window matches pattern.

    The plain indicator count is cross-checked against the product
    identity 1{window = pattern} = 2^(-s) prod(1 + eps_i * lam_i) at
    every n whose window is free of zero values; a mismatch raises.
    """
    eps = tuple(pattern)
    s = len(eps)
    lam = [0, 0] + liouville_many([f.eval(m) for m in range(2, X + s + 1)])
    count = 0
    for n in range(1, X + 1):
        window = lam[n + 1: n + 1 + s]
        match = window == list(eps)
        if match:
            count += 1
        if all(v != 0 for v in window):
            prod = 1
            for e, v in zip(eps, window):
                prod *= 1 + e * v
            if (prod >> s) != int(match):
                raise ConsistencyError(
                    f"sign indicator mismatch at n={n}: window {window}")
    return (count - X / 2 ** s) / math.sqrt(X)


def interval_count_distribution(f: IntPolynomial, X: int,
                                L: int) -> EmpiricalDistribution:
    """Distribution of the prime count of f over windows [x, x+L), x <= X."""
    if L < 1:
        raise ConfigError("L must be >= 1")
    flags = is_prime_many([f.eval(m) for m in range(1, X + L)])
    running = sum(flags[:L])
    acc = {}
    for x in range(1, X + 1):
        acc[running] = acc.get(running, 0) + 1
        if x < X:
            running += -int(flags[x - 1]) + int(flags[x + L - 1])
    return EmpiricalDistribution(tuple(sorted(acc.items())), X)


def _phi(t: float) -> float:
    """Standard Gaussian CDF."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def ks_statistic_gaussian(values) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the standard Gaussian."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one value")
    d = 0.0
    for i, x in enumerate(xs):
        c = _phi(x)
        d = max(d, (i + 1) / n - c, c - i / n)
    return d


def iid_sign_simulation(X: int, pattern, trials: int, seed: int) -> float:
    """Empirical variance of the pattern count over iid uniform signs."""
    eps = tuple(pattern)
    s = len(eps)
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    stats = np.empty(trials, dtype=np.float64)
    norm = math.sqrt(X)
    for t in range(trials):
        g = np.random.Generator(np.random.PCG64(child_seed(seed, t)))
        y = g.integers(0, 2, size=X + s).astype(np.int8) * 2 - 1
        match = np.ones(X, dtype=bool)
        for i in range(s):
            match &= y[i: i + X] == eps[i]
        stats[t] = (int(match.sum()) - X / 2 ** s) / norm
    return float(np.var(stats, ddof=1))


def _gaussian_window_stats(dist: EmpiricalDistribution, p: float, L: int):
    """Empirical CDF of the window count at the three reference thresholds."""
    sd = math.sqrt(max(p - p * p, 0.0) * L)
    out = {}
    for tag, t in (("cdf_tm1", -1.0), ("cdf_t0", 0.0), ("cdf_tp1", 1.0)):
        thr = p * L + t * sd
        out[tag] = sum(c for k, c in dist.counts if k <= thr) / dist.total
    return out


def _run_series(cfg: ExperimentConfig):
    """The series shared by every sample of a run, or None.

    Only linear-forms has one: its series depends on (ns, f0, M, w, d)
    and not on the sampled f.  The other kinds' series depend on f.
    """
    if cfg.kind != "linear-forms":
        return None
    return series_linear_system(cfg.ns, IntPolynomial(cfg.f0), cfg.M,
                                cfg.w, cfg.d)


def run_sample(cfg: ExperimentConfig, index: int,
               series=None) -> SampleRecord:
    """Compute one sample record; fully determined by (cfg.seed, index).

    For linear-forms, `series` is the run's series from `_run_series`,
    which `run_experiment` computes once and hands to every sample; when
    it is None (a sample computed on its own) it is computed here, with
    the same value.

    For poisson-gaps the scale of f's prime density is its own mean of
    log|f(n)| over 1 <= n <= X, where a value with |f(n)| < 2 (0 or +-1)
    counts as log 2, so the scale is at least log 2.  The prime density
    is p = S_w(f) / scale, and the window length is calL / p rounded to
    an integer >= 1 (window_real keeps the unrounded value), so a window
    holds calL primes on average.  An explicit L overrides the window.
    """
    rng = stream(cfg.seed, index)
    zero_audit.reset()
    attempts = 1
    kind = cfg.kind
    if kind == "poisson-gaps":
        # Keep only f meeting the Bateman-Horn hypotheses: nonconstant,
        # coefficient gcd 1, and no local obstruction up to w (S_w != 0).
        # A fixed prime divisor above w would otherwise slip through.
        while True:
            f = sample_uniform(cfg.d, cfg.H, rng)
            if any(f.coeffs[1:]) and math.gcd(*f.coeffs) == 1:
                sv = series_f(f, cfg.w)
                if sv.value != 0:
                    break
            attempts += 1
            if attempts > REJECTION_CAP:
                raise BudgetError("rejection sampling found no polynomial "
                                  "meeting the Bateman-Horn hypotheses")
    elif kind == "linear-forms":
        sv = series if series is not None else _run_series(cfg)
        f, attempts = sample_uniform_residue(cfg.d, cfg.H, rng,
                                             IntPolynomial(cfg.f0), cfg.M)
    else:
        f = sample_uniform(cfg.d, cfg.H, rng)
        if kind == "tuples":
            sv = series_f_tuple(f, cfg.shifts, cfg.w)
        else:
            sv = series_f(f, cfg.w)

    if kind == "bh-moments":
        stats = {"stat": bh_statistic(f, cfg.X, cfg.w,
                                      series_value=sv.value)}
    elif kind == "tuples":
        stats = {"stat": tuple_statistic(f, cfg.X, cfg.shifts, cfg.w,
                                         series_value=sv.value)}
    elif kind == "chowla-clt":
        stats = {"stat": chowla_normalized_sum(f, cfg.X)}
    elif kind == "sign-patterns":
        stats = {"stat": sign_pattern_statistic(f, cfg.X, cfg.pattern)}
    elif kind == "linear-forms":
        vals = [f.eval(n) for n in cfg.ns]
        if cfg.target == "von-mangoldt":
            prod = math.prod(von_mangoldt_many(vals), start=1.0)
        else:
            prod = math.prod(liouville_many(vals))
        stats = {"stat": float(prod)}
    elif kind == "poisson-gaps":
        logscale = math.fsum(math.log(max(abs(f.eval(n)), 2))
                             for n in range(1, cfg.X + 1)) / cfg.X
        if cfg.L:
            L = cfg.L
            window_real = float(cfg.L)
        else:
            window_real = cfg.calL * logscale / float(sv.value)
            L = max(1, round(window_real))
        dist = interval_count_distribution(f, cfg.X, L)
        p = float(sv.value) / logscale
        stats = {"window": L,
                 "window_real": window_real,
                 "mean_count": dist.moment(1),
                 "tv": dist.tv_poisson(cfg.calL)}
        stats.update(_gaussian_window_stats(dist, p, L))
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return SampleRecord(index=index, coeffs=f.coeffs, series=sv.value,
                        stats=stats, attempts=attempts,
                        zero_evals=zero_audit.reset())


def _mean_stderr(vals):
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def _verdict(estimate, stderr, predicted):
    if math.isnan(predicted):
        return "info"
    if stderr > 0:
        return "consistent" if abs(estimate - predicted) <= 3 * stderr \
            else "deviates"
    return "consistent" if estimate == predicted else "deviates"


def _quantile(sorted_vals, q: float) -> float:
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac)


def _aggregate(cfg: ExperimentConfig, records) -> RunResult:
    nan = float("nan")
    rows = []
    warnings = []
    kind = cfg.kind
    if kind in ("bh-moments", "tuples", "chowla-clt", "sign-patterns",
                "linear-forms"):
        vals = [r.stats["stat"] for r in records]
        if len(vals) > 1 and max(vals) == min(vals):
            warnings.append("zero variance: all sample statistics are "
                            f"identical ({vals[0]!r})")
    if kind in ("bh-moments", "tuples"):
        for k in range(1, cfg.k_max + 1):
            mean, se = _mean_stderr([v ** k for v in vals])
            predicted = 0.0 if k == 1 else nan
            rows.append(AggregateRow(kind, f"moment_{k}", mean, se,
                                     predicted,
                                     _verdict(mean, se, predicted)))
    elif kind == "chowla-clt":
        for k in range(1, cfg.k_max + 1):
            mean, se = _mean_stderr([v ** k for v in vals])
            predicted = float(gaussian_moment(k))
            rows.append(AggregateRow(kind, f"moment_{k}", mean, se,
                                     predicted,
                                     _verdict(mean, se, predicted)))
        ks = ks_statistic_gaussian(vals)
        rows.append(AggregateRow(kind, "ks_gaussian", ks, nan, nan, "info"))
    elif kind == "sign-patterns":
        mean, se = _mean_stderr(vals)
        rows.append(AggregateRow(kind, "mean", mean, se, 0.0,
                                 _verdict(mean, se, 0.0)))
        n = len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / max(n - 1, 1)
        se_var = var * math.sqrt(2.0 / max(n - 1, 1))
        predicted = float(sigma_squared(cfg.pattern))
        rows.append(AggregateRow(kind, "variance", var, se_var, predicted,
                                 _verdict(var, se_var, predicted)))
    elif kind == "linear-forms":
        mean, se = _mean_stderr(vals)
        predicted = float(records[0].series) \
            if cfg.target == "von-mangoldt" else 0.0
        rows.append(AggregateRow(kind, "mean", mean, se, predicted,
                                 _verdict(mean, se, predicted)))
        att, att_se = _mean_stderr([r.attempts for r in records])
        rows.append(AggregateRow(kind, "attempts_mean", att, att_se, nan,
                                 "info"))
    elif kind == "poisson-gaps":
        tvs = [r.stats["tv"] for r in records]
        mean, se = _mean_stderr(tvs)
        rows.append(AggregateRow(kind, "tv_mean", mean, se, nan, "info"))
        svals = sorted(tvs)
        for tag, q in (("tv_min", 0.0), ("tv_q25", 0.25),
                       ("tv_median", 0.5), ("tv_q75", 0.75),
                       ("tv_max", 1.0)):
            rows.append(AggregateRow(kind, tag, _quantile(svals, q),
                                     nan, nan, "info"))
        cm, cse = _mean_stderr([r.stats["mean_count"] for r in records])
        rows.append(AggregateRow(kind, "mean_count", cm, cse, cfg.calL,
                                 _verdict(cm, cse, cfg.calL)))
        for tag, t in (("cdf_tm1", -1.0), ("cdf_t0", 0.0),
                       ("cdf_tp1", 1.0)):
            cmean, cse = _mean_stderr([r.stats[tag] for r in records])
            rows.append(AggregateRow(kind, tag, cmean, cse, _phi(t),
                                     _verdict(cmean, cse, _phi(t))))
        att, att_se = _mean_stderr([r.attempts for r in records])
        rows.append(AggregateRow(kind, "attempts_mean", att, att_se, nan,
                                 "info"))
        below = sum(1 for r in records if r.stats["window_real"] < 1.0)
        if below:
            warnings.append(f"window length below 1 before rounding for "
                            f"{below} samples (clamped to 1)")
        if all(r.stats["window"] == 1 for r in records):
            warnings.append("degenerate runs: every window has L = 1")
    zero_total = sum(r.zero_evals for r in records)
    if zero_total:
        warnings.append(f"{zero_total} zero evaluations of f were audited")
    return RunResult(config=cfg, records=list(records), aggregates=rows,
                     warnings=warnings)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run all samples (possibly in a worker pool) and aggregate.

    The run's shared series (linear-forms only, see `_run_series`) is
    computed once, before any worker starts, and bound with cfg into the
    one callable that both the pool and the single-worker loop map over
    the sample indices; a bad modulus therefore fails before sampling.
    """
    cfg = cfg.validate()
    run = functools.partial(run_sample, cfg, series=_run_series(cfg))
    indices = range(cfg.samples)
    if cfg.workers > 1:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, cfg.samples // (cfg.workers * 4))
        with ctx.Pool(cfg.workers) as pool:
            records = pool.map(run, indices, chunksize=chunk)
    else:
        records = [run(i) for i in indices]
    return _aggregate(cfg, records)
