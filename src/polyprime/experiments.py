"""Seeded Monte Carlo experiments over random integer polynomials.

Each experiment draws polynomials from the uniform family (degree at
most d, coefficients bounded by H), computes one statistic per sample,
and aggregates moments against the matching prediction.  Sample i always
uses the random stream derived from (master seed, i), so results do not
depend on how samples are distributed over worker processes, and the
per-sample output is byte-identical for any worker count.

Each experiment kind is one `Kind` entry of `KINDS`: its own config
keys, validation, sampler, series, statistic, aggregation and samples.csv
columns; each config key is one `ExperimentConfig` field.  The command
line, the run and the CSV writer read the table and the fields and hold
no per-kind code.

Statistic conventions.  Sums over n always mean 1 <= n <= X.  A zero
value of f(n) contributes 0 wherever an arithmetic function is applied.
Each statistic evaluates f once at its points, hands the values to the
pure batched kernels of `arith` (`liouville_many`, `von_mangoldt_many`,
`is_prime_many`), and counts the zero values it met from that same list;
the count is reported per sample as zero_evals.  The Bateman-Horn
statistic of `bh-moments` is the tuple statistic at the one shift 0.
"""

import contextlib
import functools
import math
import multiprocessing
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .arith import is_prime_many, liouville_many, von_mangoldt_many
from .errors import BudgetError, ConfigError, ConsistencyError
from .moments import gaussian_moment, sigma_squared
from .poly import (REJECTION_CAP, IntPolynomial, sample_uniform,
                   sample_uniform_residue)
from .rng import child_seed, stream
from .series import series_f, series_f_tuple, series_linear_system


class Text(str):
    """A config value as typed in a --flag or a config file.  Only a Text
    is read as text: ExperimentConfig refuses any other str but `target`."""


def parse_int_exact(value, key: str) -> int:
    """An int (not a bool), or its text, exact in scientific notation:
    "1e9" is 10**9, "2.5e1" is 25, and "2.5" is not integral."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{key}: {value!r} is not an integer")
    try:
        dec = Decimal(value)
    except InvalidOperation:
        raise ConfigError(f"{key}: {value!r} is not an integer")
    if not dec.is_finite() or dec != dec.to_integral_value():
        raise ConfigError(f"{key}: {value!r} is not integral")
    return int(dec)


def parse_float(value, key: str) -> float:
    """An int or float (not a bool), or its text."""
    if isinstance(value, str | int | float) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    raise ConfigError(f"{key}: {value!r} is not a number")


def parse_int_list(value, key: str) -> tuple:
    """A list or tuple of ints, or its comma-separated text."""
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip() != ""]
        if not value:
            raise ConfigError(f"{key}: empty list")
    elif not isinstance(value, list | tuple):
        raise ConfigError(f"{key}: {value!r} is not a list")
    return tuple(parse_int_exact(v, key) for v in value)


def parse_pattern(value, key: str = "pattern") -> tuple:
    """Sign pattern: entries +1/-1, or the text "+-" or "+1,-1"."""
    t = value.strip() if isinstance(value, str) else ""
    if t and all(c in "+-" for c in t):
        return tuple(1 if c == "+" else -1 for c in t)
    vals = parse_int_list(value, key)
    if any(v not in (-1, 1) for v in vals):
        raise ConfigError(f"{key}: entries must be +1 or -1")
    return vals


def _parse_coeffs(value, key: str) -> tuple:
    """Polynomial coefficients a0, a1, ...: ints, or the text a0;a1;..."""
    coeffs = parse_int_list(
        value.split(";") if isinstance(value, str) else value, key)
    if not coeffs:
        raise ConfigError(f"{key}: no coefficients")
    return coeffs


def _key(help: str, default=MISSING, parse=parse_int_exact):
    """A config key's field: its default (none: required), its --flag
    help text and its parser, parse(value or text, key) -> value."""
    return field(default=default, metadata={"help": help, "parse": parse})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One run's configuration, checked as it is built.  Every field but
    `kind` is a config key, spelled with - for _; the keys no `Kind`
    names are common to all.  A bad key raises ConfigError naming it."""

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
                         parse_int_list)
    pattern: tuple = _key("sign pattern, e.g. ++ or +1,-1", (),
                          parse_pattern)
    calL: float = _key("target mean window count (default 1.0); the "
                       "window length is calL * mean log|f(n)| / S_w(f)",
                       1.0, parse_float)
    L: int = _key("fixed window length override", 0)  # 0: from calL
    ns: tuple = _key("comma-separated distinct evaluation points "
                     "(default 1)", (1,), parse_int_list)
    M: int = _key("residue modulus (default 1)", 1)
    f0: tuple = _key("residue polynomial, a0;a1;... (default 0)", (0,),
                     _parse_coeffs)
    target: str = _key("von-mangoldt or liouville", "von-mangoldt",
                       lambda value, key: str(value))

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for f in fields(self)[1:]:  # each field after `kind` is a key
            key, value = f.name.replace("_", "-"), getattr(self, f.name)
            if not isinstance(value, Text) \
                    and isinstance(value, str) != (f.type is str):
                raise ConfigError(f"{key}: {value!r} is not of type "
                                  f"{f.type.__name__}")
            object.__setattr__(self, f.name, f.metadata["parse"](value, key))
        for key in ("d", "H", "X", "samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be a positive integer")
        if self.w < 2:
            raise ConfigError("w must be >= 2")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.k_max < 1:
            raise ConfigError("k-max must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        for ok, message in KINDS[self.kind].checks:
            if not ok(self):
                raise ConfigError(message)

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        """The config of outside input, a manifest's values or the flags'
        Text, by field name; names an unknown or missing required key."""
        known = {f.name: f.default for f in fields(cls)}
        for key in values:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for key, default in known.items():
            if default is MISSING and key not in values:
                raise ConfigError(f"missing required config value {key!r}")
        return cls(**values)


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


def tuple_statistic(f: IntPolynomial, X: int, shifts, w: int,
                    series_value=None) -> tuple:
    """Average of the product of von Mangoldt weights at shifted points.

    Returns (average minus the tuple series, zero values met).  The
    product at n is taken in shift order and stops at its first zero
    weight, so a zero value f(n + l) is counted only when every earlier
    shift's weight at n was nonzero.  At the one shift 0 this is the
    Bateman-Horn statistic, the average of the von Mangoldt weight along
    f minus its series, with every zero value counted.
    """
    if series_value is None:
        series_value = series_f_tuple(f, shifts, w).value
    shifts = list(shifts)
    lo = 1 + min(shifts)
    vals = [f.eval(m) for m in range(lo, X + max(shifts) + 1)]
    weight = von_mangoldt_many(vals)
    terms = []
    zeros = 0
    for n in range(1, X + 1):
        v = 1.0
        for l in shifts:
            i = n + l - lo
            v *= weight[i]
            if v == 0.0:
                zeros += vals[i] == 0
                break
        terms.append(v)
    return math.fsum(terms) / X - float(series_value), zeros


def chowla_normalized_sum(f: IntPolynomial, X: int) -> tuple:
    """(sum of the Liouville function along f scaled by X**(-1/2), number
    of zero values of f among f(1..X))."""
    vals = [f.eval(n) for n in range(1, X + 1)]
    return sum(liouville_many(vals)) / math.sqrt(X), vals.count(0)


def sign_pattern_statistic(f: IntPolynomial, X: int, pattern) -> tuple:
    """Normalized count of n <= X whose Liouville window matches pattern.

    Returns (normalized count, number of zero values of f among the
    window values f(2..X+s)).  The plain indicator count is
    cross-checked against the product identity 1{window = pattern} =
    2^(-s) prod(1 + eps_i * lam_i) at every n whose window is free of
    zero values; a mismatch raises.
    """
    eps = tuple(pattern)
    s = len(eps)
    vals = [f.eval(m) for m in range(2, X + s + 1)]
    lam = [0, 0] + liouville_many(vals)
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
    return (count - X / 2 ** s) / math.sqrt(X), vals.count(0)


def interval_count_distribution(f: IntPolynomial, X: int,
                                L: int) -> EmpiricalDistribution:
    """Distribution of the prime count of f over windows [x, x+L), x <= X."""
    if L < 1:
        raise ConfigError("L must be >= 1")
    flags = is_prime_many([f.eval(m) for m in range(1, X + L)])
    running = sum(flags[:L])
    counts = []
    for x in range(1, X + 1):
        counts.append(running)
        if x < X:
            running += -int(flags[x - 1]) + int(flags[x + L - 1])
    return EmpiricalDistribution.from_values(counts)


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


_CDF_POINTS = (("cdf_tm1", -1.0), ("cdf_t0", 0.0), ("cdf_tp1", 1.0))


def _gaussian_window_stats(dist: EmpiricalDistribution, p: float, L: int):
    """Empirical CDF of the window count at the three reference thresholds."""
    sd = math.sqrt(max(p - p * p, 0.0) * L)
    out = {}
    for tag, t in _CDF_POINTS:
        thr = p * L + t * sd
        out[tag] = sum(c for k, c in dist.counts if k <= thr) / dist.total
    return out


def run_sample(cfg: ExperimentConfig, index: int,
               series=None) -> SampleRecord:
    """Compute one sample record; fully determined by (cfg.seed, index).

    `series` is the run's shared series, which `run_experiment` computes
    once with the kind's `run_series` and hands to every sample; when it
    is None (a sample computed on its own) it is computed here, with the
    same value.
    """
    kind = KINDS[cfg.kind]
    rng = stream(cfg.seed, index)
    if series is None:
        series = kind.run_series(cfg)
    f, attempts, sv = kind.draw(cfg, rng, series)
    stats, zero_evals = kind.stats(cfg, f, sv)
    return SampleRecord(index=index, coeffs=f.coeffs, series=sv.value,
                        stats=stats, attempts=attempts,
                        zero_evals=zero_evals)


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


def _draw(cfg, rng, series):
    """f uniform in the family, with its single-point series."""
    f = sample_uniform(cfg.d, cfg.H, rng)
    return f, 1, series_f(f, cfg.w)


def _draw_tuples(cfg, rng, series):
    """f uniform in the family, with its tuple series at cfg.shifts."""
    f = sample_uniform(cfg.d, cfg.H, rng)
    return f, 1, series_f_tuple(f, cfg.shifts, cfg.w)


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


def _linear_forms_stats(cfg, f, sv):
    fn = von_mangoldt_many if cfg.target == "von-mangoldt" \
        else liouville_many
    vals = [f.eval(n) for n in cfg.ns]
    return {"stat": float(math.prod(fn(vals)))}, vals.count(0)


def _poisson_gaps_stats(cfg, f, sv):
    """Prime counts of f in windows holding calL primes on average.

    Primality counts no zero values, so zero_evals is 0.

    The scale of f's prime density is its own mean of log|f(n)| over
    1 <= n <= X, where a value with |f(n)| < 2 (0 or +-1) counts as
    log 2, so the scale is at least log 2.  The prime density is
    p = S_w(f) / scale, and the window length is calL / p rounded to an
    integer >= 1 (window_real keeps the unrounded value).  An explicit L
    overrides the window.
    """
    logscale = math.fsum(math.log(max(abs(f.eval(n)), 2))
                         for n in range(1, cfg.X + 1)) / cfg.X
    if cfg.L:
        L = cfg.L
        window_real = float(cfg.L)
    else:
        window_real = cfg.calL * logscale / float(sv.value)
        L = max(1, round(window_real))
    dist = interval_count_distribution(f, cfg.X, L)
    return {"window": L,
            "window_real": window_real,
            "mean_count": dist.moment(1),
            "tv": dist.tv_poisson(cfg.calL),
            **_gaussian_window_stats(dist, float(sv.value) / logscale, L)}, 0


def _stat_values(records, warnings):
    """The samples' "stat" values; warns when they are all identical."""
    vals = [r.stats["stat"] for r in records]
    if len(vals) > 1 and max(vals) == min(vals):
        warnings.append("zero variance: all sample statistics are "
                        f"identical ({vals[0]!r})")
    return vals


def _attempts_row(records):
    return ("attempts_mean", *_mean_stderr([r.attempts for r in records]),
            math.nan)


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
    return [("mean", mean, se, predicted), _attempts_row(records)]


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
    rows.append(_attempts_row(records))
    below = sum(1 for r in records if r.stats["window_real"] < 1.0)
    if below:
        warnings.append(f"window length below 1 before rounding for "
                        f"{below} samples (clamped to 1)")
    if all(r.stats["window"] == 1 for r in records):
        warnings.append("degenerate runs: every window has L = 1")
    return rows


@dataclass(frozen=True)
class Kind:
    """Everything the program knows about one experiment kind.

    `keys` names the ExperimentConfig fields that are this kind's own
    config keys; each field declares its key's default, help text and
    parser, and no two kinds name the same field.  `checks` pairs a test
    of the parsed config with the ConfigError message for when it fails;
    an own key that must be given is required by one of them.
    `run_series(cfg)` is the series shared by every sample of a run, or
    None when it depends on f.  `draw(cfg, rng, series)` returns (f,
    attempts, f's series), given the run's series.  `stats(cfg, f,
    series)` returns (stats, zero_evals): the sample's statistics, named
    by `columns` in samples.csv order, and the number of zero values of
    f the statistic met.  `rows(cfg, records, warnings)` are the
    aggregates.csv rows as (key, estimate, stderr, predicted); it may
    append run warnings.  Entries reach the traced public functions
    through this module's globals, at call time.
    """

    blurb: str
    draw: Callable
    stats: Callable
    rows: Callable
    keys: tuple = ()
    checks: tuple = ()
    run_series: Callable = lambda cfg: None
    columns: tuple = ("stat",)


KINDS = {
    "bh-moments": Kind(
        "moments of the averaged von Mangoldt statistic minus its "
        "truncated series",
        draw=_draw,
        stats=lambda cfg, f, sv: _stat(tuple_statistic(
            f, cfg.X, (0,), cfg.w, series_value=sv.value)),
        rows=_centred_rows),
    "tuples": Kind(
        "shifted-tuple version of the von Mangoldt statistic",
        keys=("shifts",),
        checks=((lambda cfg: cfg.shifts,
                 "shifts is required for tuple statistics"),
                (lambda cfg: len(set(cfg.shifts)) == len(cfg.shifts),
                 "shifts must be distinct"),
                (lambda cfg: all(abs(l) <= cfg.X for l in cfg.shifts),
                 "shifts must satisfy |shift| <= X")),
        draw=_draw_tuples,
        stats=lambda cfg, f, sv: _stat(tuple_statistic(
            f, cfg.X, cfg.shifts, cfg.w, series_value=sv.value)),
        rows=_centred_rows),
    "chowla-clt": Kind(
        "normalized Liouville sums along random polynomials against "
        "Gaussian moments",
        draw=_draw,
        stats=lambda cfg, f, sv: _stat(chowla_normalized_sum(f, cfg.X)),
        rows=_chowla_rows),
    "sign-patterns": Kind(
        "Liouville sign-pattern counts against the predicted variance",
        keys=("pattern",),
        checks=((lambda cfg: cfg.pattern,
                 "pattern is required for sign patterns"),),
        draw=_draw,
        stats=lambda cfg, f, sv: _stat(sign_pattern_statistic(
            f, cfg.X, cfg.pattern)),
        rows=_sign_pattern_rows),
    "poisson-gaps": Kind(
        "prime counts in tuned windows against Poisson and Gaussian "
        "predictions",
        keys=("calL", "L"),
        checks=((lambda cfg: cfg.calL > 0, "calL must be positive"),
                (lambda cfg: cfg.L >= 0, "L must be >= 1 when set")),
        draw=_draw_bateman_horn,
        stats=_poisson_gaps_stats,
        rows=_poisson_gaps_rows,
        columns=("window", "window_real", "mean_count", "tv",
                 *(tag for tag, _ in _CDF_POINTS))),
    "linear-forms": Kind(
        "products of arithmetic functions at fixed points over a "
        "residue-constrained family",
        keys=("ns", "M", "f0", "target"),
        checks=((lambda cfg: cfg.ns, "ns is required for linear forms"),
                (lambda cfg: len(set(cfg.ns)) == len(cfg.ns),
                 "ns entries must be distinct"),
                (lambda cfg: cfg.M >= 1, "M must be >= 1"),
                (lambda cfg: cfg.target in ("von-mangoldt", "liouville"),
                 "target must be von-mangoldt or liouville")),
        run_series=lambda cfg: series_linear_system(
            cfg.ns, IntPolynomial(cfg.f0), cfg.M, cfg.w, cfg.d),
        draw=lambda cfg, rng, series: (*sample_uniform_residue(
            cfg.d, cfg.H, rng, IntPolynomial(cfg.f0), cfg.M), series),
        stats=_linear_forms_stats,
        rows=_linear_forms_rows),
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


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run all samples (possibly in a worker pool) and aggregate.

    The run's shared series (the kind's `run_series`, if any) is
    computed once, before any worker starts, and bound with cfg into the
    one callable that both the pool and the single-worker loop map over
    the sample indices; a bad modulus therefore fails before sampling.
    """
    run = functools.partial(run_sample, cfg,
                            series=KINDS[cfg.kind].run_series(cfg))
    indices = range(cfg.samples)
    if cfg.workers > 1:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, cfg.samples // (cfg.workers * 4))
        with ctx.Pool(cfg.workers) as pool:
            records = pool.map(run, indices, chunksize=chunk)
    else:
        records = [run(i) for i in indices]
    return _aggregate(cfg, records)
