"""Command line front end.

One subcommand per entry of `experiments.KINDS`, plus series, gowers and
selftest.  Each but selftest builds one config (`ExperimentConfig` for
an experiment kind, else its class in `config.CONFIGS`) with a flag per
config key, made from its field; an experiment's keys can also come from
a key=value file (--config), under the flags.  A flag is read only by
its whole name, and its value may start with -, as in --poly "-1;0;1".
The merged text goes as `Text` to the config's `from_dict`, which parses
and checks it.  Experiments, and gowers given --out-dir, write their
files through `runio.write_files`; an --out-dir that is empty, or cannot
be made a directory, is refused before the run.  Exit codes: 0 success,
1 a ConfigError (a configuration problem, including the limits on
pattern, calL, k-max and workers), 2 a BudgetError (a size past any
other cap, or an exhausted budget), 3 self-test failure.
"""

import argparse
import math
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from .arith import (_TRIAL_BOUND, _split, factorize, is_prime_many,
                    liouville_many, liouville_sieve, mobius_sieve,
                    von_mangoldt_many)
from .config import CONFIGS, GowersConfig, SeriesConfig, Text
from .errors import BudgetError, ConfigError
from .experiments import KINDS, ExperimentConfig, run_experiment
from .gowers import TARGETS, gowers_norm_cyclic, gowers_norm_interval
from .moments import poisson_central_moment, stein_chen_check
from .poly import IntPolynomial, sample_uniform
from .rng import stream
from .runio import (format_cell, load_config_file, utc_now_iso, write_files,
                    write_run)
from .series import (interchange_identity_check, series_f_tuple,
                     tuple_sum_identity_residual)

OUT_DIR_HELP = "output directory (default runs/<subcommand>)"


class _Parser(argparse.ArgumentParser):
    """argparse that reads a flag only by its whole name and reports bad
    usage as a ConfigError (exit code 1)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _config_keys(name: str) -> dict:
    """A subcommand's config keys in --help order, each with its help text
    and whether its flag is required (no default and no --config file):
    for a kind, the ExperimentConfig keys no kind names, out-dir (the one
    key only the command line has) and its own; else its config's keys,
    and out-dir for gowers."""
    keys = {f.name: (f.metadata["help"],
                     name not in KINDS and f.default is MISSING)
            for f in fields(CONFIGS.get(name, ExperimentConfig))
            if f.metadata}
    if name in KINDS:
        named = {key for entry in KINDS.values() for key in entry.keys}
        keys = {**{key: v for key, v in keys.items() if key not in named},
                "out_dir": (OUT_DIR_HELP, False),
                **{key: keys[key] for key in KINDS[name].keys}}
    elif name == "gowers":
        keys["out_dir"] = ("also write gowers.csv and a manifest here", False)
    return {key.replace("_", "-"): v for key, v in keys.items()}


def _build_cfg(name: str, args) -> tuple:
    """A subcommand's config from its flags over a --config file's keys,
    and its out-dir (default: runs/<kind> for a kind, else None; never
    empty).  The out-dir is made here, once the config is built, so that
    a refused config makes no directory and a path that cannot be one is
    refused before the run."""
    keys = _config_keys(name)
    merged = load_config_file(args.config) \
        if getattr(args, "config", None) else {}
    for key in merged:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} for {name}")
    for key in keys:
        v = getattr(args, key.replace("-", "_"))
        if v is not None:
            # argparse removes a value that is exactly "--" (as in
            # --pattern=--) and hands the flag an empty list instead.
            merged[key] = "--" if v == [] else v
    values = {key.replace("-", "_"): Text(v) for key, v in merged.items()}
    if name in KINDS:
        values = {"kind": name, "out_dir": f"runs/{name}", **values}
    out_dir = values.pop("out_dir", None)
    if out_dir == "":
        raise ConfigError("out-dir: empty path")
    cfg = CONFIGS.get(name, ExperimentConfig).from_dict(values)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out-dir: cannot make directory {out_dir!r}: "
                              f"{exc.strerror}") from None
    return cfg, out_dir


def _run_experiment_cmd(cfg: ExperimentConfig, out_dir: str) -> int:
    started = utc_now_iso()
    result = run_experiment(cfg)
    finished = utc_now_iso()
    paths = write_run(out_dir, result, started, finished)
    print(f"{cfg.kind}: {cfg.samples} samples, seed {cfg.seed}")
    def short(x):
        return "-" if math.isnan(x) else f"{x:.6g}"

    print(f"{'key':<14}{'estimate':>14}{'stderr':>12}"
          f"{'predicted':>12}  verdict")
    for row in result.aggregates:
        print(f"{row.key:<14}{row.estimate:>14.6g}"
              f"{short(row.stderr):>12}{short(row.predicted):>12}"
              f"  {row.verdict}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    print(f"wrote {paths['samples']}, {paths['aggregates']}, "
          f"{paths['manifest']}")
    return 0


def _series_cmd(cfg: SeriesConfig, factors: bool) -> int:
    ts = series_f_tuple(IntPolynomial(cfg.poly), cfg.shifts, cfg.w)
    if factors:
        for p, fac in ts.local_factors:
            print(f"p={p} factor={format_cell(fac)}")
    print(format_cell(ts.value))
    return 0


def _gowers_norm(cfg: GowersConfig, size: int) -> float:
    """The U^s norm of cfg.target on the interval [1, size] when cfg has
    N, else on Z/(size)Z with f(n) at n mod size for n = 1..size."""
    values = TARGETS[cfg.target](size)[1:]
    if cfg.N:
        return gowers_norm_interval(values, cfg.s)
    return gowers_norm_cyclic(np.roll(values, 1), cfg.s)


def _gowers_cmd(cfg: GowersConfig, out_dir) -> int:
    started = utc_now_iso()
    rows = [[size, cfg.s, _gowers_norm(cfg, size)]
            for size in cfg.N or cfg.M]
    finished = utc_now_iso()
    for row in rows:
        print(",".join(format_cell(v) for v in row))
    if out_dir:
        paths = write_files(
            out_dir, "gowers", cfg,
            {"csv": ("gowers.csv", ["N" if cfg.N else "M", "s", "norm"],
                     rows)},
            started, finished)
        print(f"wrote {paths['csv']}")
    return 0


def _selftest_cmd() -> int:
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    report("stein-chen identity (l <= 12)",
           all(stein_chen_check(ell) for ell in range(13)))

    try:
        for k in range(13):
            poisson_central_moment(k)
        ok = (poisson_central_moment(1).coeffs == (0,)
              and poisson_central_moment(2).coeffs == (0, 1)
              and poisson_central_moment(4).coeffs == (0, 1, 3))
    except Exception:
        ok = False
    report("central moment definition vs recurrence (k <= 12)", ok)

    n = 10 ** 6
    lam = liouville_sieve(n).astype(np.int64)
    mu = mobius_sieve(n).astype(np.int64)
    acc = np.zeros(n + 1, dtype=np.int64)
    r = 1
    while r * r <= n:
        step = r * r
        m = n // step
        acc[step:: step] += mu[1: m + 1]
        r += 1
    report("liouville equals mobius summed over square divisors (n <= 1e6)",
           bool(np.array_equal(acc[1:], lam[1:])))

    rng = stream(20260818, 0)
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for r in (1, 2, 3):
            for _ in range(20):
                f = sample_uniform(3, 50, rng)
                if not interchange_identity_check(f, p, r):
                    ok = False
    report("series interchange identity (p <= 13, r <= 3)", ok)

    # (L S_w(f))^r minus the tuple series summed over distinct shifts in
    # 1..L: 0 at r = 1, and frozen exact values at r = 2.
    x, x2_1 = IntPolynomial((0, 1)), IntPolynomial((1, 0, 1))
    got = [tuple_sum_identity_residual(f, L, r, w) for f, L, r, w in (
        (x, 2, 1, 2), (x, 7, 1, 3), (x2_1, 5, 1, 3), (x, 4, 2, 2),
        (x2_1, 6, 2, 3), (x2_1, 12, 2, 3), (x2_1, 24, 2, 3))]
    report("tuple series sum identity (x, x^2 + 1; L <= 24, r <= 2)",
           got == [0, 0, 0, 8, 27, 54, 108])

    # The batched kernels split values below 2**52 with the numpy sieve;
    # factorize trial-divides every value instead.  The list holds the
    # bounds of the Miller-Rabin bands, each a strong pseudoprime to the
    # bases below it, a row that leaves the sieve part-way (65521 once its
    # 3s are off), and rows that must not leave after the first block of
    # primes 3 to 23 (29**2 and 29 * 31 times small primes).
    def by_factorize(v):
        if v == 0:
            return 0, 0.0, False
        f = factorize(v)
        return ((-1) ** sum(e for _, e in f),
                math.log(f[0][0]) if len(f) == 1 else 0.0,
                f == ((abs(v), 1),))

    pseudo = [4_759_123_141, 1_122_004_669_633, 2_152_302_898_747,
              3_474_749_660_383, 341_550_071_728_321]
    mixed = [0, 1, -1, 2, -2, 2 ** 51, -(3 ** 30), 1031 ** 5, 65521 ** 3,
             -65537 * 65539, 3 * 65537, 999_999_999_989 * 2 ** 9,
             10 ** 14 + 31, 2 ** 52 - 1, 2 ** 52 + 1, -(2 ** 61 - 1),
             (2 ** 61 - 1) ** 2, 1031 ** 7, 3 * 5 * 7 * 11 * 1031 ** 4,
             *pseudo, 3 ** 20 * 65521, -(2 ** 20) * 29 ** 2, 3 ** 9 * 29 * 31]
    ok = (list(zip(liouville_many(mixed), von_mangoldt_many(mixed),
                   is_prime_many(mixed))) == [by_factorize(v) for v in mixed]
          and not any(is_prime_many(pseudo)))
    # Each row of the split has a rest free of primes below its bound,
    # and below the bound squared unless the row ran every sieve block
    # or was trial-divided.
    bounds, small, rest = _split(mixed, full=True)
    top = max(bounds)
    ok = ok and all(v == 0 or m * math.prod(ps) == abs(v)
                    and all(p >= b for p, _ in factorize(m))
                    and (m < b * b or b in (top, _TRIAL_BOUND))
                    for v, b, ps, m in zip(mixed, bounds, small, rest))
    report("batched kernels agree with factorize (mixed list)", ok)

    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polyprime",
                     description="Prime values of random polynomials: "
                                 "exact series, moment identities, and "
                                 "seeded Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    blurbs = {**{kind: entry.blurb for kind, entry in KINDS.items()},
              "series": "print an exact truncated series",
              "gowers": "uniformity norms of standard sequences"}
    for name, blurb in blurbs.items():
        s = sub.add_parser(name, help=blurb)
        if name in KINDS:
            s.add_argument("--config", help="key=value config file")
        for key, (help, required) in _config_keys(name).items():
            s.add_argument(f"--{key}", dest=key.replace("-", "_"),
                           metavar="V", help=help, required=required)
        if name == "series":
            s.add_argument("--factors", action="store_true",
                           help="also print the per-prime local factors")

    sub.add_parser("selftest", help="run the exact identity suites")
    return parser


def _join_values(argv: list) -> list:
    """argv with each `--key value` of its subcommand's config keys (and
    an experiment's --config) written `--key=value`, so that a value that
    starts with -, as in --poly "-1;0;1" or --pattern -+, is read as the
    value rather than as a flag.  A value that is one of those flags
    itself stays apart, and argparse reports the missing value."""
    name = argv[0] if argv else None
    if name not in KINDS and name not in CONFIGS:
        return argv
    flags = {f"--{key}" for key in _config_keys(name)}
    if name in KINDS:
        flags.add("--config")
    out = argv[:1]
    for arg in argv[1:]:
        if out[-1] in flags and arg not in flags:
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_values(argv))
        if not args.subcommand:
            parser.print_help()
            return 1
        if args.subcommand == "selftest":
            return _selftest_cmd()
        cfg, out_dir = _build_cfg(args.subcommand, args)
        if args.subcommand == "series":
            return _series_cmd(cfg, args.factors)
        if args.subcommand == "gowers":
            return _gowers_cmd(cfg, out_dir)
        return _run_experiment_cmd(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
