"""Command line entry points, exercised in process."""

import csv
import json
import math
import re
import shlex
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import polyprime.experiments as experiments
from polyprime.arith import liouville
from polyprime.cli import _build_cfg, _gowers_cmd, build_parser, main
from polyprime.config import (DIGITS_CAP, W_CAP, GowersConfig,
                              SeriesConfig, parse_int_exact)
from polyprime.errors import BudgetError, ConfigError
from polyprime.experiments import ExperimentConfig, run_experiment
from polyprime.gowers import S_CAP, SIZE_CAP, gowers_norm_cyclic
from polyprime.runio import format_cell, load_manifest_config, write_run
from polyprime.series import lemma_lower_bound


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "polyprime" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_series_always_even(capsys):
    assert main(["series", "--poly", "2;1;1", "--w", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0/1"


def test_series_with_factors(capsys):
    assert main(["series", "--poly", "1;0;1", "--w", "3",
                 "--factors"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p=2 factor=1/1"
    assert out[1] == "p=3 factor=3/2"
    assert out[2] == "3/2"


def test_series_tuple_shifts(capsys):
    assert main(["series", "--poly", "0;1", "--shifts", "0,2",
                 "--w", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_series_bad_poly_exits_one(capsys):
    assert main(["series", "--poly", "1;x", "--w", "3"]) == 1
    assert "config error" in capsys.readouterr().err


def test_series_poly_takes_scientific_notation(capsys):
    assert main(["series", "--poly", "1e2;1", "--w", "7"]) == 0
    assert main(["series", "--poly", "100;1", "--w", "7"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_chowla_pipeline(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["chowla-clt", "--d", "1", "--H", "1e3", "--X", "30",
               "--samples", "5", "--seed", "7", "--k-max", "2",
               "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "moment_1" in stdout and "moment_2" in stdout
    with open(out / "aggregates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[1] for r in rows[1:]] == ["moment_1", "moment_2",
                                        "ks_gaussian"]
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["H"] == 1000  # scientific notation expanded
    assert doc["config"]["seed"] == 7
    with open(out / "samples.csv", newline="") as fh:
        srows = list(csv.reader(fh))
    assert len(srows) == 6


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("d=1\nH=100\nX=30\nsamples=3\nseed=5\n")
    out = tmp_path / "run"
    rc = main(["bh-moments", "--config", str(cfgfile), "--X", "40",
               "--w", "3", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["X"] == 40
    assert doc["config"]["H"] == 100


def test_unknown_config_key_named(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("d=1\nH=10\nX=10\nsamples=2\nseed=1\nshifts=0,2\n")
    rc = main(["chowla-clt", "--config", str(cfgfile)])
    assert rc == 1
    assert "shifts" in capsys.readouterr().err


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(b"d=1\nH=\xff\xfe\n")
    out = tmp_path / "run"
    assert main(["chowla-clt", "--config", str(cfgfile), "--X", "5",
                 "--samples", "2", "--seed", "1", "--out-dir",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfgfile}")
    assert not out.exists()


def test_missing_required_key_named(capsys):
    rc = main(["bh-moments", "--d", "1", "--H", "10", "--samples", "2",
               "--seed", "1"])
    assert rc == 1
    assert "'X'" in capsys.readouterr().err
    for kind, key in (("tuples", "shifts"), ("sign-patterns", "pattern")):
        assert main([kind, "--d", "1", "--H", "10", "--X", "10",
                     "--samples", "2", "--seed", "1"]) == 1
        assert key in capsys.readouterr().err


def test_duplicate_shifts_rejected(capsys):
    rc = main(["tuples", "--d", "1", "--H", "10", "--X", "10",
               "--samples", "2", "--seed", "1", "--shifts", "0,0"])
    assert rc == 1
    assert "shifts" in capsys.readouterr().err


def test_bad_integer_flag_names_key(capsys):
    rc = main(["chowla-clt", "--d", "1", "--H", "2.5", "--X", "10",
               "--samples", "2", "--seed", "1"])
    assert rc == 1
    assert "H" in capsys.readouterr().err


def test_bad_f0_and_infinite_integer_name_key(capsys):
    argv = ["linear-forms", "--d", "1", "--H", "30", "--X", "10",
            "--samples", "2", "--seed", "9"]
    for flags, key in ((["--f0", ""], "f0"), (["--f0", "1;x"], "f0"),
                       (["--H", "inf"], "H")):
        assert main(argv + flags) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_linear_forms_refused_when_built(monkeypatch, capsys):
    # Each of these once failed only after the run had started; now the
    # config refuses it, naming the key, before any sampling or series.
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "run_experiment", refuse)
    monkeypatch.setattr("polyprime.cli.run_experiment", refuse)
    argv = ["linear-forms", "--H", "30", "--X", "1", "--samples", "2",
            "--seed", "9"]
    for flags, key in ((["--f0", "1;2;3", "--d", "1"], "f0"),
                       (["--f0", "1;0;0", "--d", "1"], "f0"),
                       (["--M", "14", "--w", "5", "--d", "1"], "M"),
                       (["--M", "200", "--H", "3", "--d", "1"], "M")):
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must "), err
    keys = {"kind": "linear-forms", "d": 1, "H": 30, "X": 1, "samples": 2,
            "seed": 9}
    for bad in ({"f0": (1, 2, 3)}, {"M": 14}, {"M": 61, "H": 30}):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**keys, **bad})
    # The edges themselves are fine: d+1 coefficients, M = 2H+1 when its
    # prime factors are at most w, a prime M = w.
    for good in ({"f0": (1, 2)}, {"M": 9, "H": 4, "w": 3}, {"M": 7, "w": 7}):
        ExperimentConfig(**{**keys, **good})


def test_all_minus_pattern_of_length_two(tmp_path):
    # argparse hands a flag whose value is exactly "--" an empty list.
    argv = ["sign-patterns", "--d", "1", "--H", "20", "--X", "20",
            "--samples", "4", "--seed", "3"]
    for i, pattern in enumerate(("--pattern=--", "--pattern=-1,-1")):
        assert main(argv + [pattern, "--out-dir", str(tmp_path / str(i))]) \
            == 0
    doc = json.loads((tmp_path / "0" / "manifest.json").read_text())
    assert doc["config"]["pattern"] == [-1, -1]
    for name in ("samples.csv", "aggregates.csv"):
        assert (tmp_path / "0" / name).read_bytes() == \
            (tmp_path / "1" / name).read_bytes()
    assert main(argv[:1] + ["--d=--"] + argv[3:] + ["--pattern=+-"]) == 1


def test_sign_patterns_end_to_end(tmp_path):
    out = tmp_path / "run"
    rc = main(["sign-patterns", "--d", "1", "--H", "20", "--X", "20",
               "--samples", "4", "--seed", "3", "--pattern", "+-",
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "aggregates.csv", newline="") as fh:
        rows = {r[1]: r for r in list(csv.reader(fh))[1:]}
    assert rows["variance"][4] == "0.0625"  # predicted sigma^2 = 1/16
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["pattern"] == [1, -1]


def test_run_warnings_are_printed_and_kept_in_the_manifest(tmp_path,
                                                           capsys):
    # At H = 2 the sampled lines vanish at some n <= X (f = 0 vanishes at
    # all ten), and the audit of those zero values warns.
    out = tmp_path / "run"
    assert main(["chowla-clt", "--d", "1", "--H", "2", "--X", "10",
                 "--samples", "4", "--seed", "1", "--out-dir",
                 str(out)]) == 0
    warning = "10 zero evaluations of f were audited"
    assert f"warning: {warning}" in capsys.readouterr().out.splitlines()
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["warnings"] == [warning]


def test_linear_forms_flags(tmp_path):
    out = tmp_path / "run"
    rc = main(["linear-forms", "--d", "1", "--H", "30", "--X", "10",
               "--samples", "4", "--seed", "9", "--w", "3",
               "--ns", "1,2", "--M", "2", "--f0", "1;0",
               "--target", "liouville", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config"]["ns"] == [1, 2]
    assert doc["config"]["f0"] == [1, 0]
    assert doc["config"]["target"] == "liouville"


# Per kind: flags beyond the common ones, and the config fields they set.
REPLAY_RUNS = {
    "bh-moments": ({"w": "3"}, {"w": 3}),
    "tuples": ({"shifts": "0,2"}, {"shifts": (0, 2)}),
    "chowla-clt": ({"k-max": "2"}, {"k_max": 2}),
    "sign-patterns": ({"pattern": "+-"}, {"pattern": (1, -1)}),
    "poisson-gaps": ({"calL": "0.5"}, {"calL": 0.5}),
    "linear-forms": ({"ns": "1,2", "M": "2", "f0": "1;0",
                      "target": "liouville"},
                     {"ns": (1, 2), "M": 2, "f0": (1, 0),
                      "target": "liouville"}),
}


def test_manifest_config_replays_each_kind(tmp_path, capsys):
    assert set(REPLAY_RUNS) == set(experiments.KINDS)
    for kind, (flags, values) in REPLAY_RUNS.items():
        out = tmp_path / kind
        argv = [kind, "--d", "1", "--H", "1e2", "--X", "12", "--samples",
                "3", "--seed", "4", "--out-dir", str(out)]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        assert main(argv) == 0
        cfg = load_manifest_config(str(out / "manifest.json"))
        assert cfg == ExperimentConfig(kind=kind, d=1, H=100, X=12,
                                       samples=3, seed=4, **values)
        paths = write_run(str(tmp_path / f"{kind}-replay"),
                          run_experiment(cfg), "t0", "t1")
        for name in ("samples", "aggregates"):
            with open(paths[name], "rb") as fh:
                assert fh.read() == (out / f"{name}.csv").read_bytes()
    capsys.readouterr()


def test_empty_out_dir_is_refused_before_the_run(monkeypatch, tmp_path,
                                                 capsys):
    import polyprime.cli as cli
    ran = []
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    monkeypatch.setattr(cli, "_gowers_norm", lambda *args: ran.append(args))
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("out-dir=\n")
    argvs = [["gowers", "--target", "one", "--N", "10", "--out-dir", ""]]
    for kind, (flags, _) in REPLAY_RUNS.items():
        argv = [kind, *SMALL_RUN,
                *(f"--{key}={value}" for key, value in flags.items())]
        argvs += [argv + ["--out-dir", ""], argv + ["--config", str(cfgfile)]]
    for argv in argvs:
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("",
                                       "config error: out-dir: empty path\n")
    assert ran == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_out_dir_that_cannot_be_made_is_refused_before_the_run(
        monkeypatch, tmp_path, capsys):
    # A path naming a file, or a directory under a file, exits 1 naming
    # out-dir before any sample or norm; a fresh nested path is made.
    import polyprime.cli as cli
    ran = []
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    monkeypatch.setattr(cli, "_gowers_norm", lambda *args: ran.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("x")
    for out_dir, why in (("taken", "File exists"),
                         ("taken/sub", "Not a directory")):
        for argv in (["chowla-clt", *SMALL_RUN],
                     ["gowers", "--target", "one", "--N", "10"]):
            assert main(argv + ["--out-dir", out_dir]) == 1, argv
            assert capsys.readouterr() == (
                "", f"config error: out-dir: cannot make directory "
                    f"{out_dir!r}: {why}\n")
    assert ran == []
    assert (tmp_path / "taken").read_text() == "x"
    assert main(["gowers", "--target", "one", "--N", "10",
                 "--out-dir", "a/b"]) == 0
    assert ran and sorted(p.name for p in (tmp_path / "a/b").iterdir()) \
        == ["gowers.csv", "manifest.json"]


def int_text(lo, hi):
    """An int in [lo, hi] as a flag writes it, at times as 1eK."""
    return st.one_of(st.integers(lo, hi).map(str),
                     st.integers(0, 12).filter(lambda e: lo <= 10 ** e <= hi)
                     .map(lambda e: f"1e{e}"))


def distinct_ints(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4,
                    unique=True).map(lambda v: ",".join(map(str, v)))


def own_flags(kind, X, d, H, w):
    """A kind's own flags, valid beside the common keys d, H and w."""
    # A modulus is a product of primes up to w, and at most 2H+1.
    moduli = st.lists(st.sampled_from(list(sympy.primerange(2, w + 1))),
                      max_size=3).map(math.prod).filter(
                          lambda M: M <= min(100, 2 * H + 1))
    k_max = {"k-max": int_text(1, 8)}
    return {
        "bh-moments": st.fixed_dictionaries({}, optional=k_max),
        "tuples": st.fixed_dictionaries({"shifts": distinct_ints(-X, X)},
                                        optional=k_max),
        "chowla-clt": st.fixed_dictionaries({}, optional=k_max),
        "sign-patterns": st.fixed_dictionaries({"pattern": st.one_of(
            st.text("+-", min_size=1, max_size=4),
            st.lists(st.sampled_from(["1", "-1", "+1"]), min_size=1,
                     max_size=4).map(",".join))}),
        "poisson-gaps": st.fixed_dictionaries({}, optional={
            "calL": st.floats(1e-3, 1e3).map(repr)}),
        "linear-forms": st.fixed_dictionaries({}, optional={
            "ns": distinct_ints(-20, 20), "M": moduli.map(str),
            "f0": st.lists(st.integers(-9, 9), min_size=1,
                           max_size=min(4, d + 1))
            .map(lambda c: ";".join(map(str, c))),
            "target": st.sampled_from(["von-mangoldt", "liouville"])}),
    }[kind]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flags_and_manifest_json_build_one_config(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(experiments.KINDS)))
    X = data.draw(st.integers(1, 500))
    flags = data.draw(st.fixed_dictionaries(
        {"d": int_text(1, 4), "H": int_text(1, 10 ** 12),
         "samples": int_text(1, 10 ** 4), "seed": int_text(0, 2 ** 64)},
        optional={"w": int_text(2, 100), "workers": int_text(1, 8)}))
    flags["X"] = str(X)
    d, H, w = (parse_int_exact(flags.get(key, "5"), key)
               for key in ("d", "H", "w"))
    flags.update(data.draw(own_flags(kind, X, d, H, w)))
    # Building makes the out-dir, so it is a scratch one, not runs/<kind>.
    argv = [kind, f"--out-dir={tmp_path_factory.getbasetemp()}",
            *(f"--{key}={v}" for key, v in flags.items())]
    args = build_parser().parse_args(argv)
    # Past CALL_CAP a calL is refused.  Below it only a poisson-gaps
    # window can pass the points cap at these sizes: at d = 4, w = 100 a
    # calL of 700 bounds it by about 5.2e6 points.
    if kind == "poisson-gaps":
        calL = float(flags.get("calL", "1"))
        if calL > experiments.CALL_CAP:
            with pytest.raises(ConfigError, match="^calL must be at most "):
                _build_cfg(kind, args)
            return
        window = calL * math.log((d + 1) * H * X ** d) \
            / float(lemma_lower_bound(w, d))
        if X + window > experiments.POINTS_CAP:
            with pytest.raises(BudgetError, match="^calL: "):
                _build_cfg(kind, args)
            return
    cfg, _ = _build_cfg(kind, args)
    doc = json.loads(json.dumps(asdict(cfg)))
    assert ExperimentConfig.from_dict(doc) == cfg
    assert ExperimentConfig(**doc) == cfg


COMMON_FLAGS = ("config", "d", "H", "X", "w", "samples", "seed", "workers",
                "out-dir")
OWN_FLAGS = {
    "bh-moments": ("k-max",),
    "tuples": ("shifts", "k-max"),
    "chowla-clt": ("k-max",),
    "sign-patterns": ("pattern",),
    "poisson-gaps": ("calL",),
    "linear-forms": ("ns", "M", "f0", "target"),
}


def help_flags(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main([kind, "--help"])
    assert exc.value.code == 0
    return re.findall(r"^ +--([\w-]+)", capsys.readouterr().out, re.M)


def test_each_kind_takes_common_keys_and_its_own(tmp_path, capsys):
    assert set(experiments.KINDS) == set(OWN_FLAGS)
    for kind, own in OWN_FLAGS.items():
        assert help_flags(kind, capsys) == [*COMMON_FLAGS, *own]
        foreign = next(key for keys in OWN_FLAGS.values() for key in keys
                       if key not in own)
        cfgfile = tmp_path / f"{kind}.cfg"
        cfgfile.write_text("d=1\nH=10\nX=10\nsamples=2\nseed=1\n"
                           f"{foreign}=1\n")
        assert main([kind, "--config", str(cfgfile)]) == 1
        assert f"unknown config key {foreign!r} for {kind}" \
            in capsys.readouterr().err


def test_series_and_gowers_flags_are_their_config_fields(capsys):
    assert help_flags("series", capsys) == ["poly", "w", "shifts", "factors"]
    assert help_flags("gowers", capsys) == [
        *(f.name for f in fields(GowersConfig)), "out-dir"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_build_their_configs(monkeypatch, tmp_path):
    # Parsed and built, not run: a flag the program no longer has fails
    # here rather than in the docs.  Building makes each default out-dir,
    # runs/<kind>, so it runs in a scratch directory.
    monkeypatch.chdir(tmp_path)
    lines = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("polyprime ")]
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        if args.subcommand != "selftest":
            _build_cfg(args.subcommand, args)


def test_deterministic_reduction_is_an_unknown_key(tmp_path, capsys):
    argv = ["bh-moments", "--d", "1", "--H", "10", "--X", "10",
            "--samples", "2", "--seed", "1", "--out-dir",
            str(tmp_path / "run")]
    assert main(argv + ["--deterministic-reduction", "true"]) == 1
    assert "--deterministic-reduction" in capsys.readouterr().err
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("deterministic-reduction=true\n")
    assert main(argv + ["--config", str(cfgfile)]) == 1
    assert "'deterministic-reduction'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_toy_kind_needs_one_table_entry(monkeypatch, tmp_path, capsys):
    toy = experiments.Kind(
        "a constant statistic",
        keys=("M",),
        checks=((lambda cfg: cfg.M <= 9, "M must be <= 9 for toy"),),
        draw=experiments.KINDS["chowla-clt"].draw,
        stats=lambda cfg, f, sv: ({"stat": 0.0}, 0),
        rows=lambda cfg, records, warnings: [
            ("M", float(cfg.M), math.nan, math.nan)])
    monkeypatch.setitem(experiments.KINDS, "toy", toy)
    assert help_flags("toy", capsys) == [*COMMON_FLAGS, "M"]

    cfgfile = tmp_path / "toy.cfg"
    cfgfile.write_text("d=1\nH=10\nX=10\nsamples=3\nseed=1\nM=3\n")
    out = tmp_path / "run"
    assert main(["toy", "--config", str(cfgfile), "--workers", "2",
                 "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("toy: 3 samples, seed 1\n")
    with open(out / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "coeffs", "series", "stat",
                       "attempts", "zero_evals"]
    assert [r[3] for r in rows[1:]] == ["0.0"] * 3
    with open(out / "aggregates.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["toy", "M", "3.0", "", "",
                                             "info"]]

    assert main(["toy", "--config", str(cfgfile), "--M", "10"]) == 1
    assert "M must be <= 9 for toy" in capsys.readouterr().err
    cfgfile.write_text("d=1\nH=10\nX=10\nsamples=3\nseed=1\ncalL=3\n")
    assert main(["toy", "--config", str(cfgfile)]) == 1
    assert "unknown config key 'calL' for toy" in capsys.readouterr().err


def test_linear_forms_bad_target(capsys):
    rc = main(["linear-forms", "--d", "1", "--H", "30", "--X", "10",
               "--samples", "2", "--seed", "9", "--target", "theta"])
    assert rc == 1
    assert "target" in capsys.readouterr().err


SMALL_RUN = ["--d", "1", "--H", "10", "--X", "10", "--samples", "2",
             "--seed", "1"]
# argv, and the one line it writes to stderr as it exits 1.
CONFIG_ERRORS = [
    (["gowers", "--target", "one", "--N", "0"], "N entries must be >= 1"),
    (["gowers", "--target", "one", "--M", "0"], "M entries must be >= 1"),
    (["gowers", "--target", "one", "--M", "5", "--s", "0"],
     "s must be >= 1"),
    (["gowers", "--target", "one", "--N", "5", "--multiplier", "5"],
     "unrecognized arguments: --multiplier 5"),
    (["gowers", "--target", "theta", "--M", "5"],
     "unknown gowers target 'theta'"),
    (["gowers", "--target", "one", "--N", "5", "--s", "2.5"],
     "s: '2.5' is not integral"),
    (["gowers", "--M", "5"],
     "the following arguments are required: --target"),
    (["series", "--poly", "1;x", "--w", "3"], "poly: 'x' is not an integer"),
    (["series", "--w", "3"], "the following arguments are required: --poly"),
    (["chowla-clt", *SMALL_RUN, "--k-max", "0"], "k-max must be >= 1"),
    (["sign-patterns", *SMALL_RUN, "--pattern", "+", "--k-max", "2"],
     "unrecognized arguments: --k-max 2"),
    (["poisson-gaps", *SMALL_RUN, "--k-max", "2"],
     "unrecognized arguments: --k-max 2"),
    (["linear-forms", *SMALL_RUN, "--k-max", "2"],
     "unrecognized arguments: --k-max 2"),
    (["poisson-gaps", *SMALL_RUN, "--calL", "inf"],
     "calL must be positive and finite"),
    # A flag is read only by its whole name; a prefix is no flag.
    (["chowla-clt", *SMALL_RUN, "--samp", "2"],
     "unrecognized arguments: --samp 2"),
    (["sign-patterns", *SMALL_RUN, "--pat", "+-"],
     "unrecognized arguments: --pat +-"),
    (["sign-patterns", *SMALL_RUN, "--pat", "-+"],
     "unrecognized arguments: --pat -+"),
    (["series", "--po", "1;0;1", "--w", "5"],
     "the following arguments are required: --poly"),
    (["gowers", "--tar", "one", "--N", "5"],
     "the following arguments are required: --target"),
]


@pytest.mark.parametrize("argv, message", CONFIG_ERRORS)
def test_config_errors_exit_one(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_flag_prefixes_are_unknown_arguments(monkeypatch, capsys):
    # Every proper prefix of a flag, of three characters or more, that is
    # not itself a flag of the subcommand, given with a value when its
    # flag takes one, after the subcommand's required flags.
    import polyprime.cli as cli

    def refuse(name, args):
        raise AssertionError(f"{name}: a config was built")

    monkeypatch.setattr(cli, "_build_cfg", refuse)
    for name in [*experiments.KINDS, "series", "gowers"]:
        keys = cli._config_keys(name)
        required = [arg for key, (_, req) in keys.items() if req
                    for arg in (f"--{key}", "1")]
        flags = {f"--{key}": ["1"] for key in keys}
        if name in experiments.KINDS:
            flags["--config"] = ["run.cfg"]
        if name == "series":
            flags["--factors"] = []
        for flag, value in flags.items():
            for prefix in (flag[:n] for n in range(3, len(flag))):
                if prefix in flags:
                    continue
                argv = [name, *required, prefix, *value]
                assert main(argv) == 1, argv
                assert capsys.readouterr().err == (
                    "config error: unrecognized arguments: "
                    f"{' '.join([prefix, *value])}\n"), argv


def test_gowers_cyclic_stdout(capsys):
    assert main(["gowers", "--target", "one", "--M", "11",
                 "--s", "2"]) == 0
    assert capsys.readouterr().out.strip() == "11,2,1.0"


def test_gowers_cyclic_places_f_n_at_n_mod_m(capsys):
    sizes = (1, 2, 31, 101)
    for target, func in (("liouville", liouville), ("mobius", sympy.mobius)):
        assert main(["gowers", "--target", target, "--M",
                     ",".join(map(str, sizes)), "--s", "2"]) == 0
        want = []
        for M in sizes:
            arr = np.zeros(M)
            for n in range(1, M + 1):
                arr[n % M] = float(func(n))
            want.append(f"{M},2,{format_cell(gowers_norm_cyclic(arr, 2))}")
        assert capsys.readouterr().out.split() == want


def test_gowers_delta_interval_files(tmp_path, capsys):
    out = tmp_path / "g"
    rc = main(["gowers", "--target", "delta", "--N", "10", "--s", "2",
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "gowers.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "s", "norm"]
    # Embedding modulus is the least prime >= 50; a single point mass
    # has U^2 norm M**(-3/4).
    assert float(rows[1][2]) == pytest.approx(53 ** -0.75, rel=1e-12)
    assert (out / "manifest.json").exists()


def test_gowers_manifest_times_bracket_the_norms(monkeypatch, tmp_path,
                                                capsys):
    import polyprime.cli as cli
    import polyprime.gowers as gowers
    import polyprime.runio as runio
    ticks = iter(range(100))
    norms_at = []

    def now():
        return f"t{next(ticks):03d}"

    def norm(values, s, **kwargs):
        norms_at.append(now())
        return gowers_norm_cyclic(values, s, **kwargs)

    for module in (cli, runio):
        monkeypatch.setattr(module, "utc_now_iso", now)
    # Interval rows reach the norm through gowers_norm_interval.
    monkeypatch.setattr(gowers, "gowers_norm_cyclic", norm)
    out = tmp_path / "g"
    assert main(["gowers", "--target", "liouville", "--N", "10,20",
                 "--s", "2", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert len(norms_at) == 2
    assert doc["started_at"] < norms_at[0] < norms_at[1] < \
        doc["finished_at"]


def test_gowers_manifest_replays(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gowers", "--target", "liouville", "--N", "10,20",
                 "--out-dir", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    # No master_seed or warnings: the writer it shares with the
    # experiments adds only the version and the two times.
    assert sorted(doc) == ["config", "finished_at", "outputs",
                           "package_version", "started_at", "subcommand"]
    assert doc["outputs"] == {"csv": "gowers.csv"}
    assert doc["subcommand"] == "gowers"
    assert doc["config"] == {"target": "liouville", "N": [10, 20], "M": [],
                             "s": 2}
    cfg = load_manifest_config(str(out / "manifest.json"))
    assert cfg == GowersConfig(target="liouville", N=(10, 20))
    assert _gowers_cmd(cfg, str(tmp_path / "replay")) == 0
    assert (tmp_path / "replay" / "gowers.csv").read_bytes() == \
        (out / "gowers.csv").read_bytes()
    capsys.readouterr()


def test_gowers_requires_exactly_one_domain(capsys):
    assert main(["gowers", "--target", "one"]) == 1
    assert main(["gowers", "--target", "one", "--M", "5",
                 "--N", "5"]) == 1
    capsys.readouterr()


def test_gowers_budget_exit_code(capsys):
    rc = main(["gowers", "--target", "one", "--M", "100000", "--s", "3"])
    assert rc == 2
    # 3^20 is within the operation budget; the 3^18 peel calls are not.
    assert main(["gowers", "--target", "one", "--M", "3", "--s", "20"]) == 2
    assert "peels" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["chowla-clt", "--X", "1e10"], "X"),
    (["tuples", "--X", "1e6", "--shifts", "0,2"], "shifts"),
    (["sign-patterns", "--X", "1e6", "--pattern", "+-"], "pattern"),
    (["tuples", "--X", "5e5", "--shifts=-5e5,5e5"], "shifts"),
    (["poisson-gaps", "--X", "999000", "--calL", "700"], "calL"),
])
def test_sizes_past_the_points_cap_are_refused_before_work(
        argv, key, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("f evaluated before the size was checked")

    monkeypatch.setattr(experiments.IntPolynomial, "values", refuse)
    out = tmp_path / "run"
    rc = main(argv + ["--d", "1", "--H", "10", "--samples", "1",
                      "--seed", "1", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"budget error: {key}: a sample would evaluate f at more than the "
        f"cap of {experiments.POINTS_CAP} points\n")
    assert not out.exists()


def test_call_past_its_cap_is_refused_before_the_out_dir(tmp_path, capsys):
    # tv_poisson starts its pmf at exp(-calL), which is 0.0 past 745.
    out = tmp_path / "run"
    argv = ["poisson-gaps", "--d", "1", "--H", "10", "--X", "10",
            "--samples", "1", "--seed", "1", "--out-dir", str(out)]
    for calL in ("700.5", "1000", "1e9"):
        assert main(argv + ["--calL", calL]) == 1
        assert capsys.readouterr().err == \
            "config error: calL must be at most 700\n"
        assert not out.exists()
    assert ExperimentConfig(kind="poisson-gaps", d=1, H=10, X=10, samples=1,
                            seed=1, calL=700).calL == 700


def test_flag_values_may_start_with_a_dash(monkeypatch, tmp_path, capsys):
    import polyprime.cli as cli
    assert main(["series", "--poly", "-1;0;1", "--w", "5"]) == 0
    assert capsys.readouterr().out == "3/8\n"
    built = []
    monkeypatch.setattr(cli, "_run_experiment_cmd",
                        lambda cfg, out_dir: built.append(cfg) or 0)
    run = [*SMALL_RUN, "--out-dir", str(tmp_path)]
    for argv, key, want in (
            (["tuples", "--shifts", "-3,0"], "shifts", (-3, 0)),
            (["linear-forms", "--ns", "-1,2"], "ns", (-1, 2)),
            (["linear-forms", "--f0", "-1;0"], "f0", (-1, 0)),
            (["sign-patterns", "--pattern", "-+"], "pattern", (-1, 1)),
            (["sign-patterns", "--pattern", "--"], "pattern", (-1, -1))):
        assert main(argv + run) == 0, argv
        assert getattr(built.pop(), key) == want, argv
    # A flag of the subcommand is never taken as the value before it.
    assert main(["series", "--w", "--poly", "1"]) == 1
    assert capsys.readouterr().err == \
        "config error: argument --w: expected one argument\n"


def test_gate_and_readme_sizes_are_well_inside_the_points_cap(monkeypatch):
    # At a hundredth of the cap, every experiment size of the acceptance
    # gate and the README still builds its config.
    monkeypatch.setattr(experiments, "POINTS_CAP",
                        experiments.POINTS_CAP // 100)
    common = dict(samples=1, seed=1)
    for keys in (
            dict(kind="chowla-clt", d=2, H=10 ** 9, X=400),
            dict(kind="bh-moments", d=1, H=10 ** 7, X=600, w=11),
            dict(kind="tuples", d=1, H=10 ** 5, X=500, shifts=(0, 2), w=7),
            dict(kind="sign-patterns", d=2, H=10 ** 9, X=400,
                 pattern=(1, -1)),
            dict(kind="poisson-gaps", d=1, H=10 ** 6, X=2000, w=100,
                 calL=25.0),
            dict(kind="poisson-gaps", d=1, H=10 ** 4, X=200, calL=2.0),
            dict(kind="linear-forms", d=2, H=10 ** 8, X=1, ns=(1, 2), M=3,
                 f0=(1, 0))):
        ExperimentConfig(**keys, **common)


def test_w_past_its_cap_is_refused_before_any_sieve(monkeypatch, tmp_path,
                                                    capsys):
    # poisson-gaps sieves to w for its window bound, and linear-forms
    # trial-divides M up to w, both as the config is built.
    import polyprime.series as series

    def refuse(*args):
        raise AssertionError("primes sieved before w was checked")

    monkeypatch.setattr(series, "primes_upto", refuse)
    out = tmp_path / "run"
    for argv in (["chowla-clt", *SMALL_RUN, f"--out-dir={out}"],
                 ["poisson-gaps", *SMALL_RUN, f"--out-dir={out}"],
                 ["linear-forms", *SMALL_RUN, "--M=19", f"--out-dir={out}"],
                 ["series", "--poly", "1;0;1"]):
        assert main(argv + ["--w", "1e10"]) == 2
        assert capsys.readouterr().err == (
            "budget error: w: a series would run over the primes up to "
            f"10000000000, past the cap of {W_CAP}\n")
        assert not out.exists()
    monkeypatch.undo()
    SeriesConfig(poly=(1, 0, 1), w=W_CAP)
    ExperimentConfig(kind="poisson-gaps", d=1, H=10, X=10, samples=1,
                     seed=1, w=W_CAP)


def test_k_max_and_workers_past_their_caps_exit_one(monkeypatch, tmp_path,
                                                    capsys):
    def refuse(*args):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(experiments.multiprocessing, "get_context", refuse)
    for flag, message in (("--k-max=302", "k-max must be <= 32"),
                          ("--workers=1e9", "workers must be <= 64")):
        out = tmp_path / "run"
        assert main(["chowla-clt", *SMALL_RUN, flag, "--out-dir",
                     str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
    ExperimentConfig(kind="chowla-clt", d=1, H=10, X=10, samples=1, seed=1,
                     k_max=experiments.K_MAX_CAP,
                     workers=experiments.WORKERS_CAP)


def test_pattern_past_its_cap_exits_one(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("f drawn before the pattern was checked")

    monkeypatch.setattr(experiments, "sample_uniform", refuse)
    out = tmp_path / "run"
    cap = experiments.PATTERN_CAP
    assert main(["sign-patterns", *SMALL_RUN, "--pattern",
                 "+" * (cap + 1), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"config error: pattern must have at most {cap} signs\n"
    assert not out.exists()
    ExperimentConfig(kind="sign-patterns", d=1, H=10, X=10, samples=1,
                     seed=1, pattern=(1, -1) * (cap // 2))


def test_integer_past_the_digits_cap_exits_two_at_once(tmp_path, capsys):
    # Converting 1e1000000 to an int would take tens of seconds; the
    # config refuses it from its exponent and makes no out-dir.
    out = tmp_path / "run"
    started = time.monotonic()
    assert main(["chowla-clt", *SMALL_RUN, "--H", "1e1000000",
                 "--out-dir", str(out)]) == 2
    assert time.monotonic() - started < 5
    assert capsys.readouterr().err == (
        f"budget error: H: more than {DIGITS_CAP} digits, past the cap of "
        "Python's int/str conversion\n")
    assert not out.exists()


def test_rare_residue_class_runs_in_one_draw_per_sample(tmp_path):
    # At H = 1 each coefficient's class mod 3 holds one of -1, 0, 1, so
    # one draw of the whole box lands in the class of f0 = 1 with
    # probability 3**-(d+1): 3**-12 at d = 11, 3**-13 at d = 12.  Each
    # sample still takes one draw, and every run writes its files.
    for d, samples, seed in (("11", "3", "2"), ("12", "1", "1")):
        out = tmp_path / f"d{d}"
        assert main(["linear-forms", "--ns", "1", "--M", "3", "--f0", "1",
                     "--d", d, "--H", "1", "--X", "1", "--samples",
                     samples, "--seed", seed, "--out-dir", str(out)]) == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == int(samples)
        for row in rows:
            assert row["coeffs"] == ";".join(["1"] + ["0"] * int(d))
            assert row["attempts"] == "1"


def test_gowers_budget_is_checked_before_any_array(monkeypatch, tmp_path,
                                                   capsys):
    # At s = 1 the operation budget admits M up to 5e9; the size cap of
    # 10^7 refuses it.  At M = 1 every cap but the one on s admits any s.
    import polyprime.cli as cli
    import polyprime.gowers as gowers

    def refuse(*args, **kwargs):
        raise AssertionError("array built before the budget was checked")

    for name in ("liouville_sieve", "mobius_sieve"):
        monkeypatch.setattr(gowers, name, refuse)
    for name in ("gowers_norm_interval", "gowers_norm_cyclic",
                 "_gowers_norm"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "g"
    for target, size, s, message in (
            ("liouville", "--N=1e9", "2", "over the budget"),
            ("mobius", "--M=1e9", "2", "over the budget"),
            ("mobius", "--N=1e5", "3", "over the budget"),
            ("liouville", "--M=3", "20", "peels"),
            ("one", "--M=1e9", "1", "U^1 on Z/1000000000Z: the group is "
             f"larger than the cap of {SIZE_CAP}"),
            ("liouville", "--N=1e9", "1", "Z/5000000000Z: the group"),
            # 5 N = 70,710 passes, but the run's modulus is the prime
            # 70,717, and 70,717**2 is past the budget.
            ("liouville", "--N=14142", "2", "U^2 on Z/70717Z needs"),
            ("one", f"--N={SIZE_CAP // 5}", "1", "Z/10000019Z: the group"),
            ("one", "--M=1", "5000", "s: U^5000 is past the cap"),
            ("liouville", "--M=1", "1e12", "s: U^1000000000000 is past")):
        assert main(["gowers", "--target", target, *size.split(), "--s", s,
                     f"--out-dir={out}"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    GowersConfig(target="one", M=(SIZE_CAP,), s=1)
    # The least prime >= 5 N is 9,999,991 at the largest N admitted.
    GowersConfig(target="one", N=(1_999_998,), s=1)
    GowersConfig(target="liouville", N=(14_141,), s=2)
    monkeypatch.undo()
    assert main(["gowers", "--target", "one", "--M", "1",
                 "--s", str(S_CAP)]) == 0
    assert capsys.readouterr().out == f"1,{S_CAP},1.0\n"


def test_d_past_its_cap_is_refused_before_any_draw(monkeypatch, tmp_path,
                                                   capsys):
    def refuse(*args):
        raise AssertionError("f drawn before d was checked")

    monkeypatch.setattr(experiments, "sample_uniform", refuse)
    out = tmp_path / "run"
    assert main(["chowla-clt", "--d", "1e9", "--H", "10", "--X", "10",
                 "--samples", "1", "--seed", "1", "--out-dir",
                 str(out)]) == 2
    assert capsys.readouterr().err == (
        "budget error: d: a polynomial of degree up to 1000000000 is past "
        f"the cap of {experiments.D_CAP}\n")
    assert not out.exists()
    ExperimentConfig(kind="chowla-clt", d=experiments.D_CAP, H=10, X=10,
                     samples=1, seed=1)


def test_samples_past_their_cap_are_refused_before_any_draw(monkeypatch,
                                                            tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("f drawn before samples was checked")

    monkeypatch.setattr(experiments, "sample_uniform", refuse)
    out = tmp_path / "run"
    for samples in ("1e300", str(experiments.SAMPLES_CAP + 1)):
        assert main(["chowla-clt", "--d", "1", "--H", "10", "--X", "10",
                     "--samples", samples, "--seed", "1", "--out-dir",
                     str(out)]) == 2
        assert capsys.readouterr().err == (
            "budget error: samples: more than the cap of "
            f"{experiments.SAMPLES_CAP} samples in one run\n")
        assert not out.exists()
    assert experiments.SAMPLES_CAP == 10 ** 6
    ExperimentConfig(kind="chowla-clt", d=1, H=10, X=10,
                     samples=experiments.SAMPLES_CAP, seed=1)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 6
    assert "FAIL" not in out


def test_selftest_names_the_kind_and_file_that_differ(monkeypatch, capsys):
    import polyprime.cli as cli

    golden = dict(cli.GOLDEN)
    golden["tuples"] = golden["tuples"][:2] + ("0" * 64,)
    monkeypatch.setattr(cli, "GOLDEN", golden)
    assert main(["selftest"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "tuples: FAIL aggregates.csv at workers 1" if kind == "tuples"
        else f"{kind}: ok" for kind in golden]
