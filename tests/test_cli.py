"""Command line entry points, exercised in process."""

import csv
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import polyprime.experiments as experiments
from polyprime.arith import liouville
from polyprime.cli import _build_cfg, build_parser, main
from polyprime.experiments import ExperimentConfig, run_experiment
from polyprime.gowers import gowers_norm_cyclic
from polyprime.runio import (config_from_dict, format_cell,
                             load_manifest_config, write_run)


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


def int_text(lo, hi):
    """An int in [lo, hi] as a flag writes it, at times as 1eK."""
    return st.one_of(st.integers(lo, hi).map(str),
                     st.integers(0, 12).filter(lambda e: lo <= 10 ** e <= hi)
                     .map(lambda e: f"1e{e}"))


def distinct_ints(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4,
                    unique=True).map(lambda v: ",".join(map(str, v)))


def own_flags(kind, X):
    return {
        "tuples": st.fixed_dictionaries({"shifts": distinct_ints(-X, X)}),
        # argparse drops a flag value that is exactly "--", so that one
        # pattern can be given only as -1,-1 on the command line.
        "sign-patterns": st.fixed_dictionaries({"pattern": st.one_of(
            st.text("+-", min_size=1, max_size=4).filter(
                lambda t: t != "--"),
            st.lists(st.sampled_from(["1", "-1", "+1"]), min_size=1,
                     max_size=4).map(",".join))}),
        "poisson-gaps": st.fixed_dictionaries({}, optional={
            "calL": st.floats(1e-3, 1e3).map(repr),
            "L": int_text(0, 50)}),
        "linear-forms": st.fixed_dictionaries({}, optional={
            "ns": distinct_ints(-20, 20), "M": int_text(1, 100),
            "f0": st.lists(st.integers(-9, 9), min_size=1, max_size=4)
            .map(lambda c: ";".join(map(str, c))),
            "target": st.sampled_from(["von-mangoldt", "liouville"])}),
    }.get(kind, st.just({}))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flags_and_manifest_json_build_one_config(data):
    kind = data.draw(st.sampled_from(sorted(experiments.KINDS)))
    X = data.draw(st.integers(1, 500))
    flags = data.draw(st.fixed_dictionaries(
        {"d": int_text(1, 4), "H": int_text(1, 10 ** 12),
         "samples": int_text(1, 10 ** 4), "seed": int_text(0, 2 ** 64)},
        optional={"w": int_text(2, 100), "workers": int_text(1, 8),
                  "k-max": int_text(1, 8)}))
    flags["X"] = str(X)
    flags.update(data.draw(own_flags(kind, X)))
    argv = [kind, *(f"--{key}={v}" for key, v in flags.items())]
    cfg, _ = _build_cfg(kind, build_parser().parse_args(argv))
    doc = json.loads(json.dumps(asdict(cfg)))
    assert config_from_dict(doc) == cfg
    assert ExperimentConfig(**doc) == cfg


COMMON_FLAGS = ("config", "d", "H", "X", "w", "samples", "seed", "workers",
                "k-max", "out-dir")
OWN_FLAGS = {
    "bh-moments": (),
    "tuples": ("shifts",),
    "chowla-clt": (),
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
    import polyprime.runio as runio
    ticks = iter(range(100))
    norms_at = []

    def now():
        return f"t{next(ticks):03d}"

    def norm(values, s):
        norms_at.append(now())
        return gowers_norm_cyclic(values, s)

    for module in (cli, runio):
        monkeypatch.setattr(module, "utc_now_iso", now)
    monkeypatch.setattr(cli, "gowers_norm_cyclic", norm)
    out = tmp_path / "g"
    assert main(["gowers", "--target", "liouville", "--N", "10,20",
                 "--s", "2", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert len(norms_at) == 2
    assert doc["started_at"] < norms_at[0] < norms_at[1] < \
        doc["finished_at"]


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
    assert out.count(": ok") == 5
    assert "FAIL" not in out
