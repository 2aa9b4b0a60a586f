"""Command line front end.

One subcommand per entry of `experiments.KINDS`, plus series, gowers and
selftest, which repeats the pinned runs of `GOLDEN` at one and at two
workers and compares the sha256 of their CSVs.  Each but selftest builds
one config (`ExperimentConfig` for an experiment kind, else its class in
`config.CONFIGS`) with a flag per config key, made from its field; an
experiment's keys can also come from a key=value file (--config), under
the flags.  A flag is read only by its whole name, and its value may
start with -, as in --poly "-1;0;1".  The merged text goes as `Text` to
the config's `from_dict`, which parses and checks it.  Experiments, and
gowers given --out-dir, write their files through `runio.write_files`;
an --out-dir that is empty, or cannot be made a directory, is refused
before the run.  Exit codes: 0 success, 1 a ConfigError (a configuration
problem, including the limits on pattern, calL, k-max and workers), 2 a
BudgetError (a size past any other cap, or an exhausted budget), 3 a
pinned run's bytes differ (selftest).
"""

import argparse
import math
import os
import sys
import tempfile
from dataclasses import MISSING, fields

import numpy as np

from .config import CONFIGS, GowersConfig, SeriesConfig, Text
from .errors import BudgetError, ConfigError
from .experiments import KINDS, ExperimentConfig, run_experiment
from .gowers import TARGETS, gowers_norm_cyclic, gowers_norm_interval
from .poly import IntPolynomial
from .runio import (format_cell, load_config_file, utc_now_iso, write_files,
                    write_run)
from .series import series_f_tuple

# The pinned runs that selftest repeats: one small seeded run per
# experiment kind, with the sha256 of its samples.csv and aggregates.csv,
# the same at one and at two workers.  Together they reach both splitting
# routes (values below and above 2**52), perfect powers, rho and every
# kind.  The hashes include math.log bytes from the platform's libm; they
# hold on Linux under CPython 3.10 and 3.11, and a libm whose log differs
# in the last place fails them on a correct program.  A change that moves
# output bytes on purpose updates the hashes it moves.
GOLDEN = {
    "bh-moments": (
        {"d": 2, "H": 10 ** 20, "X": 40, "w": 7, "samples": 20,
         "seed": 11},
        "ae9c7c84b0043ed553335cdbd7bac48b3f0830da90854e57bd9b58f7a595a4e1",
        "d2f7c1b64dfa6a1abacc4171eb17b07766cb034c6027b3dbbfad3ec259a2021f"),
    "tuples": (
        {"d": 1, "H": 10 ** 7, "X": 300, "w": 11, "shifts": (0, 2),
         "samples": 20, "seed": 12},
        "bb1719c32ad669467df291bd4f8fca54ce4b368a64e69f2af6e3d88412734bb6",
        "2693a1c7e533be01e305897605c8125d7c4d826887cdc400e571761dc80de204"),
    "chowla-clt": (
        {"d": 3, "H": 10 ** 12, "X": 40, "samples": 20, "seed": 13},
        "765b2c82e389697f5d316efae122202222a2fd6434d91b53df4baae58844ce8f",
        "21207d9d6ceddb84b7ba216bae3b3286bdbfe8971237c4fb96a8e26ece625b79"),
    "sign-patterns": (
        {"d": 2, "H": 10 ** 9, "X": 60, "pattern": (1, -1), "samples": 20,
         "seed": 14},
        "1953d73ca151bcee70600c9e4bef841a4e3d128dbc2eb0dce05ed448c2c7117e",
        "0527664cb5152504e446966a2f92343c44b8102535186418caa38849b3bdc95d"),
    "poisson-gaps": (
        {"d": 2, "H": 10 ** 6, "X": 200, "w": 20, "samples": 20,
         "seed": 15},
        "a9806580a20314a712c80d1686d3534c14ef1a8e7f2187bca380402a90ab4ccd",
        "4c0eb7b2ba5d9b5203f9c2278d1102c70ef0f1c0b5ac4a38956cbbece9e3d41b"),
    "linear-forms": (
        {"d": 2, "H": 10 ** 8, "X": 1, "w": 11, "ns": (1, 2, 3), "M": 3,
         "f0": (1, 0), "samples": 20, "seed": 16},
        "bb24580c4ddbf0991fb0a88ec6f87631e47ef735953d7f34c0ccd70302542ad4",
        "ef5799ead71ef45ed1b29aa9887f5215ddf57df194579b10e636bbe268a1eb8c"),
}

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
    # hashlib is imported here, as no other subcommand needs it: at the
    # top it would slow every start of the CLI.
    import hashlib

    failures = 0
    for kind, (keys, *hashes) in GOLDEN.items():
        verdict = "ok"
        for workers in (1, 2):
            cfg = ExperimentConfig(kind=kind, workers=workers, **keys)
            with tempfile.TemporaryDirectory() as tmp:
                paths = write_run(tmp, run_experiment(cfg), "", "")
                wrong = []
                for role, want in zip(("samples", "aggregates"), hashes):
                    with open(paths[role], "rb") as fh:
                        if hashlib.sha256(fh.read()).hexdigest() != want:
                            wrong.append(os.path.basename(paths[role]))
            if wrong:
                verdict = f"FAIL {wrong[0]} at workers {workers}"
                break
        print(f"{kind}: {verdict}")
        failures += verdict != "ok"
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

    sub.add_parser("selftest", help="check the pinned runs' output bytes")
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
