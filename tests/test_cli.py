"""Command line entry points, exercised in process."""

import csv
import json
import math
import re
import shlex
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
from polyprime.config import GowersConfig, parse_int_exact
from polyprime.errors import ConfigError
from polyprime.experiments import ExperimentConfig, run_experiment
from polyprime.gowers import gowers_norm_cyclic
from polyprime.runio import format_cell, load_manifest_config, write_run


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
    "poisson-gaps": ({"calL": "0.5", "L": "3"}, {"calL": 0.5, "L": 3}),
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
            "calL": st.floats(1e-3, 1e3).map(repr),
            "L": int_text(0, 50)}),
        "linear-forms": st.fixed_dictionaries({}, optional={
            "ns": distinct_ints(-20, 20), "M": moduli.map(str),
            "f0": st.lists(st.integers(-9, 9), min_size=1,
                           max_size=min(4, d + 1))
            .map(lambda c: ";".join(map(str, c))),
            "target": st.sampled_from(["von-mangoldt", "liouville"])}),
    }[kind]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flags_and_manifest_json_build_one_config(data):
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
    argv = [kind, *(f"--{key}={v}" for key, v in flags.items())]
    cfg, _ = _build_cfg(kind, build_parser().parse_args(argv))
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
    "poisson-gaps": ("calL", "L"),
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


def test_readme_examples_build_their_configs():
    # Parsed and built, not run: a flag the program no longer has fails
    # here rather than in the docs.
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
        keys=("L",),
        checks=((lambda cfg: cfg.L <= 9, "L must be <= 9 for toy"),),
        draw=experiments.KINDS["chowla-clt"].draw,
        stats=lambda cfg, f, sv: ({"stat": 0.0}, 0),
        rows=lambda cfg, records, warnings: [
            ("L", float(cfg.L), math.nan, math.nan)])
    monkeypatch.setitem(experiments.KINDS, "toy", toy)
    assert help_flags("toy", capsys) == [*COMMON_FLAGS, "L"]

    cfgfile = tmp_path / "toy.cfg"
    cfgfile.write_text("d=1\nH=10\nX=10\nsamples=3\nseed=1\nL=3\n")
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
        assert list(csv.reader(fh))[1:] == [["toy", "L", "3.0", "", "",
                                             "info"]]

    assert main(["toy", "--config", str(cfgfile), "--L", "10"]) == 1
    assert "L must be <= 9 for toy" in capsys.readouterr().err
    cfgfile.write_text("d=1\nH=10\nX=10\nsamples=3\nseed=1\nM=3\n")
    assert main(["toy", "--config", str(cfgfile)]) == 1
    assert "unknown config key 'M' for toy" in capsys.readouterr().err


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
    (["gowers", "--target", "one", "--N", "5", "--multiplier", "1"],
     "multiplier must be >= 2"),
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
]


@pytest.mark.parametrize("argv, message", CONFIG_ERRORS)
def test_config_errors_exit_one(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


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
                             "s": 2, "multiplier": 5}
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


def test_gowers_budget_exit_code():
    rc = main(["gowers", "--target", "one", "--M", "100000", "--s", "3"])
    assert rc == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 6
    assert "FAIL" not in out
