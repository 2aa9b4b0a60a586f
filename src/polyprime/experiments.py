"""Seeded Monte Carlo experiments over random integer polynomials.

Each experiment draws polynomials from the uniform family (degree at
most d, coefficients bounded by H), computes one statistic per sample,
and aggregates moments against the matching prediction.  Sample i always
uses the random stream derived from (master seed, i), so results do not
depend on how samples are distributed over worker processes, and the
per-sample output is byte-identical for any worker count.

Each experiment kind is one `Kind` entry of `KINDS`: its own config
keys, validation, sampler, series, points, kernel, stats (its
samples.csv columns, from the kernel's output), aggregation, and the
span that bounds its points; each config key is one `ExperimentConfig`
field.  The command line, the run and the CSV writer read the table and
the fields and hold no per-kind code.

Statistic conventions.  Sums over n always mean 1 <= n <= X.  A zero
value of f(n) contributes 0 wherever an arithmetic function is applied.
Each sample evaluates f once at each of its points, a range of
consecutive n by `IntPolynomial.values` (linear-forms: the points ns).
A run computes its samples in chunks of consecutive indices (see
`run_chunk`): one call of the kind's pure batched kernel of `arith`
(`liouville_many`, `von_mangoldt_many`, `is_prime_many`) takes the
values of every sample of a chunk, and each sample's stats hand its
values and its own slice of the output to the kind's public statistic
(`tuple_statistic`, `chowla_normalized_sum`, `sign_pattern_statistic`,
`interval_count_distribution`; linear-forms takes the product of the
slice), which neither evaluates f nor calls a kernel.  A config whose
samples would each evaluate f at more than POINTS_CAP points is refused
when it is built.  The Bateman-Horn statistic of `bh-moments` is the
tuple statistic at the one shift 0.  The samples.csv column zero_evals
counts the zero values among the values of f a sample evaluated, each
once.
"""

import functools
import math
import multiprocessing
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import is_prime_many, liouville_many, von_mangoldt_many
from .config import (Config, _key, _parse_coeffs, check_w, parse_float,
                     parse_pattern, parse_points)
from .errors import BudgetError, ConsistencyError
from .moments import gaussian_moment, sigma_squared
from .poly import IntPolynomial, sample_uniform, sample_uniform_residue
from .rng import child_seed, stream
from .series import (lemma_lower_bound, prime_factors_at_most, series_f,
                     series_f_tuple, series_linear_system)

# Cap on the points at which one sample evaluates f.  At X = 10**6 one
# chowla-clt sample (d = 1, H = 10) takes about 6.5 s and 300 MiB.
POINTS_CAP = 10 ** 6
# Largest moment order: (k-1)!! and the squares of the k-th powers of
# the moment rows stay finite in float64 while |stat| < 6 * 10**4 (the
# chowla-clt stat is at most sqrt(X) <= 1000 under POINTS_CAP).
K_MAX_CAP = 32
# Most worker processes a run may start.
WORKERS_CAP = 64
# Cap on the degree bound d.  One bh-moments sample at H = 10**9,
# X = 300, w = 5 takes 0.06-0.1 s at d = 10, 0.11-0.18 s at d = 100 and
# 86-88 s at d = 1000 (one core of a 2-core Xeon).
D_CAP = 100
# Cap on the samples of one run, which keeps every record until the end.
# By tracemalloc a record takes about 0.5-0.85 KB (linear-forms 490 B,
# chowla-clt 600 B, poisson-gaps 830 B), so a run at the cap holds under
# 1 GB of them.  The values of f are held one chunk at a time, at most
# CHUNK_POINTS of them or one sample's, at any number of samples.
SAMPLES_CAP = 10 ** 6
# Most points of the samples of one chunk, whose values go to the kernel
# in one call; a chunk holds one sample at least.  On quadratics near 1e14
# (samples of 400 points) a run took 2.94, 2.73 and 2.62 ms per sample in
# chunks of 2,400, 4,800 and 9,600 points (medians of 11 rounds of 8
# seeds, one core of a 2-core Xeon): the numpy Miller-Rabin and Lucas
# passes cost less per value as chunks grow.  Larger chunks cost memory
# instead: at 4,800 points the chunk's arrays add about 1 MiB to the peak
# memory of a run.
CHUNK_POINTS = 4800
# Cap on the signs of a sign pattern.  One sample makes 2s numpy passes
# over its X windows: at X = 10**6 they take 0.03 s at s = 64 and 0.6 s
# at s = 1000 (one core of a 2-core Xeon).  Longer patterns add nothing:
# in at most 10**6 windows, fewer than 10**-13 are expected to match 64
# iid signs.
PATTERN_CAP = 64
# Largest calL.  tv_poisson starts the Poisson pmf at exp(-calL), which
# is subnormal past 708 and 0.0 past 745, where the TV reads up to 1.
CALL_CAP = 700


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Config):
    """One run's configuration, checked as it is built.  Every field but
    `kind` is a config key; the keys no `Kind` names are common to all."""

    kind: str
    d: int = _key("polynomial degree bound")
    H: int = _key("coefficient bound (scientific notation ok, e.g. 1e7)")
    X: int = _key("summation range 1..X")
    w: int = _key("series truncation: primes p <= w (default 5)", 5)
    samples: int = _key("number of sampled polynomials")
    seed: int = _key("master seed for the per-sample streams")
    workers: int = _key("worker processes (default 1)", 1)
    k_max: int = _key("largest moment order reported (default 4)", 4)
    shifts: tuple = _key("comma-separated distinct shifts, e.g. 0,2", (),
                         parse_points)
    pattern: tuple = _key("sign pattern, e.g. ++ or +1,-1", (),
                          parse_pattern)
    calL: float = _key("target mean window count (default 1.0); the "
                       "window length is calL * mean log|f(n)| / S_w(f)",
                       1.0, parse_float)
    ns: tuple = _key("comma-separated distinct evaluation points "
                     "(default 1)", (1,), parse_points)
    M: int = _key("residue modulus (default 1)", 1)
    f0: tuple = _key("residue polynomial, a0;a1;... (default 0)", (0,),
                     _parse_coeffs)
    target: str = _key("von-mangoldt or liouville", "von-mangoldt",
                       lambda value, key: str(value))

    def _checks(self):
        yield isinstance(self.kind, str) and self.kind in KINDS, \
            f"unknown experiment kind {self.kind!r}"
        for key in ("d", "H", "X", "samples"):
            yield getattr(self, key) >= 1, f"{key} must be a positive integer"
        yield self.workers >= 1, "workers must be >= 1"
        yield self.workers <= WORKERS_CAP, \
            f"workers must be <= {WORKERS_CAP}"
        yield self.k_max >= 1, "k-max must be >= 1"
        yield self.k_max <= K_MAX_CAP, f"k-max must be <= {K_MAX_CAP}"
        yield self.seed >= 0, "seed must be a nonnegative integer"
        # Before the kind's checks: linear-forms trial-divides M up to w.
        check_w(self.w)
        if self.d > D_CAP:
            raise BudgetError(f"d: a polynomial of degree up to {self.d} is "
                              f"past the cap of {D_CAP}")
        if self.samples > SAMPLES_CAP:
            raise BudgetError(f"samples: more than the cap of {SAMPLES_CAP} "
                              "samples in one run")
        kind = KINDS[self.kind]
        for ok, message in kind.checks:
            yield ok(self), message
        if (span := kind.span(self)) is not None:
            for key, points in (("X", self.X), (span[0], self.X + span[1])):
                if points > POINTS_CAP:
                    raise BudgetError(f"{key}: a sample would evaluate f at "
                                      f"more than the cap of {POINTS_CAP} "
                                      "points")


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


def tuple_statistic(X, shifts, series_value, values, weights) -> tuple:
    """Average of the product of von Mangoldt weights at shifted points.

    `values` are f(1+min(shifts)..X+max(shifts)) and `weights` their von
    Mangoldt weights.  Returns (the average minus series_value, the number
    of zero values among them).  series_value is f's tuple series at
    shifts, and the product at n is taken in shift order.  At the one
    shift 0 this is the Bateman-Horn statistic, the average of the von
    Mangoldt weight along f minus its series.
    """
    weight = np.array(weights)
    lo = min(shifts)
    prod = np.ones(X)
    for l in shifts:
        prod *= weight[l - lo: l - lo + X]
    return math.fsum(prod.tolist()) / X - float(series_value), \
        values.count(0)


def chowla_normalized_sum(X, values, signs) -> tuple:
    """(sum of the Liouville signs of values = f(1..X) scaled by
    X**(-1/2), number of zero values among them)."""
    return sum(signs) / math.sqrt(X), values.count(0)


def _window_count(signs: np.ndarray, X: int, pattern) -> tuple:
    """The windows signs[n : n + s], 0 <= n < X, that equal pattern, in
    one numpy pass per pattern position: (their count less X / 2**s, over
    sqrt(X); the boolean array of the windows that match)."""
    match = np.ones(X, dtype=bool)
    for i, e in enumerate(pattern):
        match &= signs[i: i + X] == e
    return (int(match.sum()) - X / 2 ** len(pattern)) / math.sqrt(X), match


def sign_pattern_statistic(X, pattern, values, signs) -> tuple:
    """Normalized count of n <= X whose Liouville window matches pattern.

    `values` are the window values f(2..X+s) and `signs` their Liouville
    signs; the window of n is lambda(f(n+1..n+s)).  Returns (normalized
    count, number of zero values among the window values).  The match of
    every window is cross-checked against the product identity
    1{window = pattern} = prod((1 + eps_i * lam_i) // 2), in which a zero
    value gives 0 as it gives no match; a mismatch raises.
    """
    lam = np.array(signs, dtype=np.int8)
    stat, match = _window_count(lam, X, pattern)
    prod = np.ones(X, dtype=np.int8)
    for i, e in enumerate(pattern):
        prod *= (1 + e * lam[i: i + X]) // 2
    if (bad := np.flatnonzero(prod != match)).size:
        n = int(bad[0]) + 1
        raise ConsistencyError(f"sign indicator mismatch at n={n}: window "
                               f"{lam[n - 1: n - 1 + len(pattern)].tolist()}")
    return stat, values.count(0)


def interval_count_distribution(flags, L: int) -> Counter:
    """Prime counts of f over the windows [x, x+L), 1 <= x <= X.

    `flags` are the primality flags of |f(1..X+L-1)|.  The Counter maps k
    to the number of windows holding exactly k values whose absolute
    value is prime.
    """
    if L < 1 or len(flags) < L:
        raise ValueError("need L >= 1 and at least L values")
    running = sum(flags[:L])
    counts = Counter([running])
    for x in range(L, len(flags)):
        running += flags[x] - flags[x - L]
        counts[running] += 1
    return counts


def tv_poisson(counts: Counter, lam: float) -> float:
    """Total variation distance between the distribution of the counts
    (k -> number of trials with value k) and Poisson(lam), for lam up to
    about 708, where exp(-lam) is still a normal float."""
    total = sum(counts.values())
    pmf = math.exp(-lam)
    acc = 0.0
    covered = 0.0
    for k in range(max(counts, default=0) + 1):
        acc += abs(counts[k] / total - pmf)
        covered += pmf
        pmf *= lam / (k + 1)
    acc += max(0.0, 1.0 - covered)
    return 0.5 * acc


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


def iid_sign_simulation(X: int, patterns, trials: int, seed: int) -> list:
    """Empirical variance of each pattern's count over iid uniform signs.

    Trial t draws X plus the longest pattern's length of signs, once, from
    child_seed(seed, t).  A pattern of s signs counts its windows in the
    first X + s of them, which are the signs a trial of that pattern alone
    draws: numpy's draw of N values is the first N of a longer draw.
    """
    pats = [tuple(p) for p in patterns]
    if trials < 2:
        raise ValueError("trials must be >= 2")
    stats = np.empty((len(pats), trials), dtype=np.float64)
    width = X + max(map(len, pats))
    for t in range(trials):
        g = np.random.Generator(np.random.PCG64(child_seed(seed, t)))
        y = g.integers(0, 2, size=width).astype(np.int8) * 2 - 1
        for i, eps in enumerate(pats):
            stats[i, t] = _window_count(y, X, eps)[0]
    return [float(np.var(row, ddof=1)) for row in stats]


_CDF_POINTS = (("cdf_tm1", -1.0), ("cdf_t0", 0.0), ("cdf_tp1", 1.0))


def _gaussian_window_stats(counts: Counter, X: int, p: float, L: int):
    """Empirical CDF of the X window counts at the three reference
    thresholds."""
    sd = math.sqrt(max(p - p * p, 0.0) * L)
    out = {}
    for tag, t in _CDF_POINTS:
        thr = p * L + t * sd
        out[tag] = sum(c for k, c in counts.items() if k <= thr) / X
    return out


def run_chunk(cfg: ExperimentConfig, indices, series) -> list:
    """The sample records at indices, consecutive, in order; each is fully
    determined by (cfg.seed, its index).

    Each sample draws its f from its own stream and evaluates f at its
    points, in index order.  Then one call of the kind's kernel takes the
    values of every sample together, and each sample's stats read its
    slice of the result.  The kernels are pure and settle each value on
    its own, so a record does not depend on the chunk it was computed in.
    `series` is the run's shared series, the kind's `run_series(cfg)`,
    which `run_experiment` computes once and hands to every chunk.
    """
    kind = KINDS[cfg.kind]
    drawn, values = [], []
    for index in indices:
        f, attempts, sv = kind.draw(cfg, stream(cfg.seed, index), series)
        vals = kind.points(cfg, f, sv)
        drawn.append((index, f, attempts, sv, vals))
        values += vals
    out = kind.kernel(cfg)(values)
    records, start = [], 0
    for index, f, attempts, sv, vals in drawn:
        stats, zero_evals = kind.stats(cfg, sv, vals,
                                       out[start:start + len(vals)])
        start += len(vals)
        records.append(SampleRecord(index=index, coeffs=f.coeffs,
                                    series=sv.value, stats=stats,
                                    attempts=attempts,
                                    zero_evals=zero_evals))
    return records


def run_sample(cfg: ExperimentConfig, index: int, series) -> SampleRecord:
    """One sample record, as a chunk of one (see `run_chunk`)."""
    return run_chunk(cfg, (index,), series)[0]


def _mean_stderr(vals):
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def _verdict(estimate, stderr, predicted):
    """Within 3 stderr of the prediction is consistent, past it deviates.
    A stderr of 0 (one sample, or all samples equal) measures no spread
    to judge by: only an exact match is consistent, anything else info."""
    if math.isnan(predicted):
        return "info"
    if stderr > 0:
        return "consistent" if abs(estimate - predicted) <= 3 * stderr \
            else "deviates"
    return "consistent" if estimate == predicted else "info"


def _quantile(sorted_vals, q: float) -> float:
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac)


def _draw(cfg, rng, series):
    """f uniform in the family, with its single-point series."""
    f = sample_uniform(cfg.d, cfg.H, rng)
    return f, 1, series_f(f, cfg.w)


def _draw_tuples(cfg, rng, series):
    """f uniform in the family, with its tuple series at cfg.shifts."""
    f = sample_uniform(cfg.d, cfg.H, rng)
    return f, 1, series_f_tuple(f, cfg.shifts, cfg.w)


# Draws the Bateman-Horn sampler makes for one sample before it gives
# up with BudgetError.
REJECTION_CAP = 10 ** 6


def _draw_bateman_horn(cfg, rng, series):
    """f uniform among those meeting the Bateman-Horn hypotheses.

    f is kept when it is nonconstant, its coefficient gcd is 1, and it
    has no local obstruction up to w (S_w != 0); a fixed prime divisor
    above w would otherwise slip through.
    """
    attempts = 1
    while True:
        f = sample_uniform(cfg.d, cfg.H, rng)
        if any(f.coeffs[1:]) and math.gcd(*f.coeffs) == 1:
            sv = series_f(f, cfg.w)
            if sv.value != 0:
                return f, attempts, sv
        attempts += 1
        if attempts > REJECTION_CAP:
            raise BudgetError("rejection sampling found no polynomial "
                              "meeting the Bateman-Horn hypotheses")


def _stat(value_zeros):
    """A statistic's (value, zero_evals) as a Kind's (stats, zero_evals)."""
    value, zeros = value_zeros
    return {"stat": value}, zeros


def _poisson_window(cfg, head, sv) -> tuple:
    """(logscale, window_real, L): the window of f that holds calL primes on
    average, from head = f(1..X).

    The scale of f's prime density is its own mean of log|f(n)| over
    1 <= n <= X, where a value with |f(n)| < 2 (0 or +-1) counts as
    log 2, so the scale is at least log 2.  The prime density is
    p = S_w(f) / scale, and the window length L is calL / p rounded to an
    integer >= 1 (window_real keeps the unrounded value).
    """
    logscale = math.fsum(math.log(max(abs(v), 2)) for v in head) / cfg.X
    window_real = cfg.calL * logscale / float(sv.value)
    return logscale, window_real, max(1, round(window_real))


def _poisson_gaps_points(cfg, f, sv):
    """f(1..X), evaluated once for the window length L, extended by
    f(X+1..X+L-1) for the windows."""
    vals = f.values(1, cfg.X)
    L = _poisson_window(cfg, vals, sv)[2]
    return vals + f.values(cfg.X + 1, cfg.X + L - 1)


def _poisson_gaps_stats(cfg, sv, vals, flags):
    """Prime counts of f in windows holding calL primes on average (see
    `_poisson_window`)."""
    logscale, window_real, L = _poisson_window(cfg, vals[:cfg.X], sv)
    counts = interval_count_distribution(flags, L)
    return {"window": L,
            "window_real": window_real,
            "mean_count": sum(k * c for k, c in counts.items()) / cfg.X,
            "tv": tv_poisson(counts, cfg.calL),
            **_gaussian_window_stats(counts, cfg.X,
                                     float(sv.value) / logscale, L)}, \
        vals.count(0)


def _stat_values(records, warnings):
    """The samples' "stat" values; warns when they are all identical."""
    vals = [r.stats["stat"] for r in records]
    if len(vals) > 1 and max(vals) == min(vals):
        warnings.append("zero variance: all sample statistics are "
                        f"identical ({vals[0]!r})")
    return vals


def _moment_rows(cfg, vals, predicted):
    """moment_k of vals for k = 1..k_max, against predicted(k)."""
    return [(f"moment_{k}", *_mean_stderr([v ** k for v in vals]),
             predicted(k)) for k in range(1, cfg.k_max + 1)]


def _centred_rows(cfg, records, warnings):
    """The stat is centred by its series: mean 0, higher moments open."""
    return _moment_rows(cfg, _stat_values(records, warnings),
                        lambda k: 0.0 if k == 1 else math.nan)


def _chowla_rows(cfg, records, warnings):
    vals = _stat_values(records, warnings)
    return (_moment_rows(cfg, vals, lambda k: float(gaussian_moment(k)))
            + [("ks_gaussian", ks_statistic_gaussian(vals), math.nan,
                math.nan)])


def _sign_pattern_rows(cfg, records, warnings):
    vals = _stat_values(records, warnings)
    mean, se = _mean_stderr(vals)
    n = len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / max(n - 1, 1)
    se_var = var * math.sqrt(2.0 / max(n - 1, 1))
    return [("mean", mean, se, 0.0),
            ("variance", var, se_var, float(sigma_squared(cfg.pattern)))]


def _linear_forms_rows(cfg, records, warnings):
    mean, se = _mean_stderr(_stat_values(records, warnings))
    predicted = float(records[0].series) \
        if cfg.target == "von-mangoldt" else 0.0
    return [("mean", mean, se, predicted)]


def _poisson_gaps_rows(cfg, records, warnings):
    tvs = [r.stats["tv"] for r in records]
    rows = [("tv_mean", *_mean_stderr(tvs), math.nan)]
    svals = sorted(tvs)
    for tag, q in (("tv_min", 0.0), ("tv_q25", 0.25), ("tv_median", 0.5),
                   ("tv_q75", 0.75), ("tv_max", 1.0)):
        rows.append((tag, _quantile(svals, q), math.nan, math.nan))
    rows.append(("mean_count",
                 *_mean_stderr([r.stats["mean_count"] for r in records]),
                 cfg.calL))
    for tag, t in _CDF_POINTS:
        rows.append((tag, *_mean_stderr([r.stats[tag] for r in records]),
                     _phi(t)))
    rows.append(("attempts_mean",
                 *_mean_stderr([r.attempts for r in records]), math.nan))
    below = sum(1 for r in records if r.stats["window_real"] < 1.0)
    if below:
        warnings.append(f"window length below 1 before rounding for "
                        f"{below} samples (clamped to 1)")
    if all(r.stats["window"] == 1 for r in records):
        warnings.append("degenerate runs: every window has L = 1")
    return rows


def _poisson_gaps_span(cfg):
    """A bound on the window of every f the draw accepts: calL times the
    largest log|f(n)|, at most log((d+1) H X**d), over the least nonzero
    series, `lemma_lower_bound(w, d)`."""
    log_top = (math.log(cfg.d + 1) + math.log(cfg.H)
               + cfg.d * math.log(cfg.X))
    return "calL", cfg.calL * log_top / float(lemma_lower_bound(cfg.w, cfg.d))


@dataclass(frozen=True)
class Kind:
    """Everything the program knows about one experiment kind.

    `keys` names the ExperimentConfig fields that are this kind's own
    config keys; each field declares its key's default, help text and
    parser.  A field no kind names is common to all kinds, and one that
    kinds name (k_max: the three moment kinds) is theirs only.  `checks`
    pairs a test of the parsed config with the ConfigError message for
    when it fails; an own key that must be given is required by one.
    `run_series(cfg)` is the series shared by every sample of a run, or
    None when it depends on f.  `draw(cfg, rng, series)` returns (f,
    attempts, f's series), given the run's series.  `points(cfg, f,
    series)` is the list of values of f the sample reads, and
    `kernel(cfg)` the `arith` kernel that takes them (`run_chunk` calls
    it once on the values of a chunk of samples).  `stats(cfg, series,
    values, out)` returns (stats, zero_evals) from the sample's values and
    its slice of the kernel's output, by the kind's public statistic of
    them (linear-forms: the product of the slice): the sample's
    statistics as a dict by samples.csv column, in column order and with
    the same keys for every sample, and the kind's count of zero values
    (see the module docstring).  `points` is the one place a kind
    evaluates f.  `rows(cfg, records, warnings)` are the aggregates.csv
    rows as (key, estimate, stderr, predicted); it may append run
    warnings.  `span(cfg)`, read once `checks` pass, is
    (key, extra) when one sample evaluates f at X + extra points at most,
    extra set by key, or None when it evaluates f at the points ns only;
    the config refuses X or X + extra past POINTS_CAP, naming X or key.
    Entries reach the kernels and the public statistics through this
    module's globals, at call time, so a wrapper on the module attribute
    sees every call.
    """

    blurb: str
    draw: Callable
    points: Callable
    kernel: Callable
    stats: Callable
    rows: Callable
    keys: tuple = ()
    checks: tuple = ()
    run_series: Callable = lambda cfg: None
    span: Callable = lambda cfg: ("X", 0)


KINDS = {
    "bh-moments": Kind(
        "moments of the averaged von Mangoldt statistic minus its "
        "truncated series",
        keys=("k_max",),
        draw=_draw,
        points=lambda cfg, f, sv: f.values(1, cfg.X),
        kernel=lambda cfg: von_mangoldt_many,
        stats=lambda cfg, sv, vals, out: _stat(tuple_statistic(
            cfg.X, (0,), sv.value, vals, out)),
        rows=_centred_rows),
    "tuples": Kind(
        "shifted-tuple version of the von Mangoldt statistic",
        keys=("shifts", "k_max"),
        checks=((lambda cfg: cfg.shifts,
                 "shifts is required for tuple statistics"),
                (lambda cfg: all(abs(l) <= cfg.X for l in cfg.shifts),
                 "shifts must satisfy |shift| <= X")),
        draw=_draw_tuples,
        points=lambda cfg, f, sv: f.values(1 + min(cfg.shifts),
                                           cfg.X + max(cfg.shifts)),
        kernel=lambda cfg: von_mangoldt_many,
        stats=lambda cfg, sv, vals, out: _stat(tuple_statistic(
            cfg.X, cfg.shifts, sv.value, vals, out)),
        rows=_centred_rows,
        span=lambda cfg: ("shifts", max(cfg.shifts) - min(cfg.shifts))),
    "chowla-clt": Kind(
        "normalized Liouville sums along random polynomials against "
        "Gaussian moments",
        keys=("k_max",),
        draw=_draw,
        points=lambda cfg, f, sv: f.values(1, cfg.X),
        kernel=lambda cfg: liouville_many,
        stats=lambda cfg, sv, vals, out: _stat(chowla_normalized_sum(
            cfg.X, vals, out)),
        rows=_chowla_rows),
    "sign-patterns": Kind(
        "Liouville sign-pattern counts against the predicted variance",
        keys=("pattern",),
        checks=((lambda cfg: cfg.pattern,
                 "pattern is required for sign patterns"),
                (lambda cfg: len(cfg.pattern) <= PATTERN_CAP,
                 f"pattern must have at most {PATTERN_CAP} signs")),
        draw=_draw,
        points=lambda cfg, f, sv: f.values(2, cfg.X + len(cfg.pattern)),
        kernel=lambda cfg: liouville_many,
        stats=lambda cfg, sv, vals, out: _stat(sign_pattern_statistic(
            cfg.X, cfg.pattern, vals, out)),
        rows=_sign_pattern_rows,
        span=lambda cfg: ("pattern", len(cfg.pattern) - 1)),
    "poisson-gaps": Kind(
        "prime counts in tuned windows against Poisson and Gaussian "
        "predictions",
        keys=("calL",),
        checks=((lambda cfg: 0 < cfg.calL < math.inf,
                 "calL must be positive and finite"),
                (lambda cfg: cfg.calL <= CALL_CAP,
                 f"calL must be at most {CALL_CAP}")),
        draw=_draw_bateman_horn,
        points=_poisson_gaps_points,
        kernel=lambda cfg: is_prime_many,
        stats=_poisson_gaps_stats,
        rows=_poisson_gaps_rows,
        span=_poisson_gaps_span),
    "linear-forms": Kind(
        "products of arithmetic functions at fixed points over a "
        "residue-constrained family",
        keys=("ns", "M", "f0", "target"),
        checks=((lambda cfg: cfg.ns, "ns is required for linear forms"),
                (lambda cfg: cfg.M >= 1, "M must be >= 1"),
                (lambda cfg: prime_factors_at_most(cfg.M, cfg.w),
                 "M must have no prime factor above w"),
                (lambda cfg: cfg.M <= 2 * cfg.H + 1,
                 "M must be at most 2H+1, or the residue class "
                 "may be empty"),
                (lambda cfg: len(cfg.f0) <= cfg.d + 1,
                 "f0 must have at most d+1 coefficients"),
                (lambda cfg: cfg.target in ("von-mangoldt", "liouville"),
                 "target must be von-mangoldt or liouville")),
        run_series=lambda cfg: series_linear_system(
            cfg.ns, IntPolynomial(cfg.f0), cfg.M, cfg.w, cfg.d),
        draw=lambda cfg, rng, series: (sample_uniform_residue(
            cfg.d, cfg.H, rng, IntPolynomial(cfg.f0), cfg.M), 1, series),
        points=lambda cfg, f, sv: [f.eval(n) for n in cfg.ns],
        kernel=lambda cfg: von_mangoldt_many
        if cfg.target == "von-mangoldt" else liouville_many,
        stats=lambda cfg, sv, vals, out: (
            {"stat": float(math.prod(out))}, vals.count(0)),
        rows=_linear_forms_rows,
        span=lambda cfg: None),
}


def _aggregate(cfg: ExperimentConfig, records) -> RunResult:
    warnings = []
    rows = [AggregateRow(cfg.kind, key, estimate, stderr, predicted,
                         _verdict(estimate, stderr, predicted))
            for key, estimate, stderr, predicted
            in KINDS[cfg.kind].rows(cfg, records, warnings)]
    zero_total = sum(r.zero_evals for r in records)
    if zero_total:
        warnings.append(f"{zero_total} zero evaluations of f were audited")
    return RunResult(config=cfg, records=list(records), aggregates=rows,
                     warnings=warnings)


def _sample_points(cfg: ExperimentConfig) -> int:
    """The most points at which one sample evaluates f, by the kind's
    `span`."""
    span = KINDS[cfg.kind].span(cfg)
    return len(cfg.ns) if span is None else cfg.X + math.ceil(span[1])


def _chunks(cfg: ExperimentConfig) -> list:
    """The chunks of a run, as ranges of sample indices: each of as many
    samples as CHUNK_POINTS points take, one at least, and of at most
    ceil(samples / workers) samples, so that every worker gets one."""
    size = max(1, min(-(-cfg.samples // cfg.workers),
                      CHUNK_POINTS // _sample_points(cfg)))
    return [range(i, min(i + size, cfg.samples))
            for i in range(0, cfg.samples, size)]


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run all samples, chunk by chunk, and aggregate.

    The chunks go to a pool of min(workers, chunks) processes, or run in
    this process when that is 1.  The run's shared series (the kind's
    `run_series`, if any) depends on cfg alone, not on the sampled f, so
    it is computed once, before any worker starts, and bound with cfg
    into the one callable that both the pool and the in-process loop map
    over the chunks.
    """
    run = functools.partial(run_chunk, cfg,
                            series=KINDS[cfg.kind].run_series(cfg))
    chunks = _chunks(cfg)
    if (workers := min(cfg.workers, len(chunks))) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(run, chunks, chunksize=1)
    else:
        parts = [run(chunk) for chunk in chunks]
    return _aggregate(cfg, [rec for part in parts for rec in part])
