"""Spans around polyprime's public functions, recorded from outside.

The tracer replaces each listed function in its defining module and in
every polyprime module that imported it by name (for example
`experiments.liouville`, `series.count_unit_values_mod_p`,
`cli.run_experiment`, `gowers.least_prime_at_least`), so calls made
inside the package are seen too.  Private helpers are not wrapped: their
time lands in the self time of the public function that called them
(`_brent_rho` inside `factorize`, `iroot` inside `perfect_power`).

Spans are aggregated in memory per (name, parent name): calls, total
seconds, and self seconds, which is the span's duration minus the time
covered by its child spans.  A run makes 10^5-10^6 arithmetic calls, so
no per-call record is kept except the durations of spans asked for.
Spans in forked workers would be lost, so the tracer is only used on
workers=1 runs.
"""

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    module: str
    func: str
    distinct: bool = False  # count distinct argument tuples
    truth: bool = False  # count truthy results
    durations: bool = False  # keep each call's duration
    suffix: object = None  # (args, kwargs) -> name suffix
    work: object = None  # (args, kwargs) -> operation count

    @property
    def name(self):
        return f"{self.module}.{self.func}"


def _gowers_s(args, kwargs):
    return kwargs["s"] if "s" in kwargs else args[1]


SPANS = (
    Span("arith", "factorize"),
    Span("arith", "is_prime", truth=True),
    Span("arith", "perfect_power"),
    Span("arith", "von_mangoldt", distinct=True),
    Span("arith", "liouville"),
    Span("arith", "liouville_sieve"),
    Span("arith", "least_prime_at_least"),
    Span("poly", "count_unit_values_mod_p"),
    Span("poly", "count_unit_tuples_linear_system"),
    Span("poly", "sample_uniform_residue"),
    Span("series", "series_f"),
    Span("series", "series_f_tuple"),
    Span("series", "series_linear_system", distinct=True),
    Span("gowers", "gowers_norm_cyclic"),
    Span("gowers", "gowers_average",
         suffix=lambda a, k: f"s{_gowers_s(a, k)}",
         work=lambda a, k: len(a[0]) ** _gowers_s(a, k)),
    Span("gowers", "interval_embedding"),
    Span("experiments", "run_experiment"),
    Span("experiments", "run_sample", durations=True),
    Span("experiments", "chowla_normalized_sum"),
    Span("experiments", "tuple_statistic"),
    Span("runio", "write_run"),
    Span("cli", "main"),
)


class Tracer:
    """Install with `with tracer.installed():`; read with `take()`."""

    def __init__(self):
        self.patched = []  # (module object, attribute, original)
        self.sites = set()  # "module.attribute" names ever patched
        self._stack = []
        self._clear()

    def _clear(self):
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.durations = {}
        self.distinct = {}
        self.truths = {}
        self.work = {}

    def _wrap(self, span, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span.name
            if span.suffix is not None:
                name = f"{name}.{span.suffix(args, kwargs)}"
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                rec = self.agg.get((name, parent))
                if rec is None:
                    rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if span.durations:
                self.durations.setdefault(name, []).append(dt)
            if span.distinct:
                self.distinct.setdefault(name, set()).add(
                    (args, tuple(sorted(kwargs.items()))))
            if span.truth and result:
                self.truths[name] = self.truths.get(name, 0) + 1
            if span.work is not None:
                self.work[name] = (self.work.get(name, 0)
                                   + span.work(args, kwargs))
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        for span in SPANS:
            home = importlib.import_module(f"polyprime.{span.module}")
            orig = getattr(home, span.func)
            wrapper = self._wrap(span, orig)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.patched.append((mod, attr, orig))
                        self.sites.add(f"{mod.__name__}.{attr}")
                        setattr(mod, attr, wrapper)

    def restore(self):
        while self.patched:
            mod, attr, orig = self.patched.pop()
            setattr(mod, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def take(self):
        """Everything recorded since the last take(), then clear it."""
        out = {"agg": self.agg, "durations": self.durations,
               "distinct": {k: len(v) for k, v in self.distinct.items()},
               "truths": self.truths, "work": self.work}
        self._clear()
        return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyprime"
                                  or name.startswith("polyprime."))]


def leftover_wrappers():
    """Attributes of polyprime modules still bound to a tracer wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items()
            if getattr(value, "__bench_traced__", False)]
