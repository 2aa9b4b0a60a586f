"""Command line front end.

One subcommand per entry of `experiments.KINDS`, with a flag per config
key built from its ExperimentConfig field, plus exact-computation
helpers.  Config can come from a key=value file (--config) with
individual flags taking precedence; the merged text goes as `Text` to
`ExperimentConfig.from_dict`, which parses and checks it.  Exit codes:
0 success, 1 configuration problem, 2 exhausted arithmetic budget, 3
self-test failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .arith import liouville_sieve, mobius_sieve
from .errors import BudgetError, ConfigError
from .experiments import (KINDS, ExperimentConfig, Text, parse_int_exact,
                          parse_int_list, run_experiment)
from .gowers import gowers_norm_cyclic, interval_embedding
from .moments import poisson_central_moment, stein_chen_check
from .poly import IntPolynomial, poly_from_text, sample_uniform
from .rng import stream
from .runio import (format_cell, load_config_file, utc_now_iso, write_csv,
                    write_manifest, write_run)
from .series import (interchange_identity_check, series_f, series_f_tuple,
                     tuple_sum_identity_residual)

OUT_DIR_HELP = "output directory (default runs/<subcommand>)"


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _config_keys(kind: str) -> dict:
    """A kind's config keys in --help order, each with its help text:
    the ExperimentConfig fields no kind names (`kind` has no metadata
    and is no key), then out-dir, the one key only the command line has,
    then the kind's own."""
    named = {name for entry in KINDS.values() for name in entry.keys}
    helps = {f.name: f.metadata["help"] for f in fields(ExperimentConfig)
             if f.metadata}
    helps["out_dir"] = OUT_DIR_HELP
    names = [*(name for name in helps if name not in named),
             *KINDS[kind].keys]
    return {name.replace("_", "-"): helps[name] for name in names}


def _build_cfg(kind: str, args) -> tuple[ExperimentConfig, str]:
    keys = _config_keys(kind)
    merged = load_config_file(args.config) if args.config else {}
    for key in merged:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} for {kind}")
    for key in keys:
        v = getattr(args, key.replace("-", "_"))
        if v is not None:
            merged[key] = v
    out_dir = merged.pop("out-dir", f"runs/{kind}")
    return ExperimentConfig.from_dict(
        {"kind": kind, **{key.replace("-", "_"): Text(v)
                          for key, v in merged.items()}}), out_dir


def _run_experiment_cmd(kind: str, args) -> int:
    cfg, out_dir = _build_cfg(kind, args)
    started = utc_now_iso()
    result = run_experiment(cfg)
    finished = utc_now_iso()
    paths = write_run(out_dir, result, started, finished)
    print(f"{kind}: {cfg.samples} samples, seed {cfg.seed}")
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


def _series_cmd(args) -> int:
    f = poly_from_text(args.poly)
    w = parse_int_exact(args.w, "w")
    if args.shifts:
        ts = series_f_tuple(f, parse_int_list(args.shifts, "shifts"), w)
    else:
        ts = series_f(f, w)
    if args.factors:
        for p, fac in ts.local_factors:
            print(f"p={p} factor={fac.numerator}/{fac.denominator}")
    print(ts.to_text())
    return 0


def _gowers_values(target: str, mode: str, size: int, multiplier: int):
    """(values array, domain label) for one gowers CSV row."""
    if mode == "cyclic":
        M = size
        if target == "one":
            return np.ones(M), M
        if target == "delta":
            arr = np.zeros(M)
            arr[0] = 1.0
            return arr, M
        sieve = liouville_sieve(M) if target == "liouville" \
            else mobius_sieve(M)
        arr = sieve[:M].astype(np.float64)
        arr[0] = sieve[M]
        return arr, M
    N = size
    if target == "one":
        func = lambda n: 1.0
    elif target == "delta":
        func = lambda n: 1.0 if n == 1 else 0.0
    else:
        sieve = liouville_sieve(N) if target == "liouville" \
            else mobius_sieve(N)
        func = lambda n: float(sieve[n])
    arr, M = interval_embedding(func, N, multiplier=multiplier)
    return arr, N


def _gowers_cmd(args) -> int:
    if bool(args.N) == bool(args.M):
        raise ConfigError("give exactly one of --N (interval) or "
                          "--M (cyclic)")
    mode = "interval" if args.N else "cyclic"
    sizes = parse_int_list(args.N or args.M, "N" if args.N else "M")
    s = parse_int_exact(args.s, "s")
    multiplier = parse_int_exact(args.multiplier, "multiplier")
    if args.target not in ("one", "delta", "liouville", "mobius"):
        raise ConfigError(f"unknown gowers target {args.target!r}")
    started = utc_now_iso()
    rows = []
    for size in sizes:
        values, label = _gowers_values(args.target, mode, size, multiplier)
        norm = gowers_norm_cyclic(values, s)
        rows.append([label, s, norm])
    finished = utc_now_iso()
    fields = ["N" if mode == "interval" else "M", "s", "norm"]
    for row in rows:
        print(",".join(format_cell(v) for v in row))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "gowers.csv")
        write_csv(path, fields, rows)
        write_manifest(
            os.path.join(args.out_dir, "manifest.json"),
            {"subcommand": "gowers",
             "config": {"target": args.target, "mode": mode,
                        "sizes": list(sizes), "s": s,
                        "multiplier": multiplier},
             "outputs": {"csv": "gowers.csv"}},
            started, finished)
        print(f"wrote {path}")
    return 0


def _selftest_cmd(args) -> int:
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

    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polyprime",
                     description="Prime values of random polynomials: "
                                 "exact series, moment identities, and "
                                 "seeded Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    for kind, entry in KINDS.items():
        s = sub.add_parser(kind, help=entry.blurb)
        s.add_argument("--config", help="key=value config file")
        for key, help in _config_keys(kind).items():
            s.add_argument(f"--{key}", dest=key.replace("-", "_"),
                           metavar="V", help=help)

    s = sub.add_parser("series", help="print an exact truncated series")
    s.add_argument("--poly", required=True, metavar="V",
                   help="coefficients a0;a1;... e.g. 2;1;1")
    s.add_argument("--w", required=True, metavar="V",
                   help="truncation bound")
    s.add_argument("--shifts", metavar="V",
                   help="optional distinct shifts for the tuple series")
    s.add_argument("--factors", action="store_true",
                   help="also print the per-prime local factors")

    s = sub.add_parser("gowers", help="uniformity norms of standard "
                                      "sequences")
    s.add_argument("--target", required=True, metavar="V",
                   help="one, delta, liouville, or mobius")
    s.add_argument("--N", metavar="V",
                   help="comma list of interval lengths")
    s.add_argument("--M", metavar="V",
                   help="comma list of cyclic group sizes")
    s.add_argument("--s", default="2", metavar="V", help="norm order")
    s.add_argument("--multiplier", default="5", metavar="V",
                   help="embedding modulus is least prime >= "
                        "multiplier*N (default 5)")
    s.add_argument("--out-dir", dest="out_dir", metavar="V",
                   help="also write gowers.csv and a manifest here")

    sub.add_parser("selftest", help="run the exact identity suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            parser.print_help()
            return 1
        if args.subcommand in KINDS:
            return _run_experiment_cmd(args.subcommand, args)
        if args.subcommand == "series":
            return _series_cmd(args)
        if args.subcommand == "gowers":
            return _gowers_cmd(args)
        if args.subcommand == "selftest":
            return _selftest_cmd(args)
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
