"""Config parsing, CSV formatting, manifest roundtrips."""

import csv
import json
from dataclasses import asdict
from fractions import Fraction

import pytest

from polyprime.errors import ConfigError
from polyprime.experiments import (
    ExperimentConfig,
    parse_float,
    parse_int_exact,
    parse_int_list,
    parse_pattern,
    run_experiment,
)
from polyprime.runio import (
    config_from_dict,
    format_cell,
    load_config_file,
    load_manifest_config,
    sample_fieldnames,
    write_run,
)


def test_parse_int_exact():
    assert parse_int_exact("42", "k") == 42
    assert parse_int_exact(" -3 ", "k") == -3
    assert parse_int_exact("1e9", "H") == 10 ** 9
    assert parse_int_exact("2.5e1", "H") == 25
    assert parse_int_exact("1e18", "H") == 10 ** 18


def test_parse_int_exact_rejects_non_integers():
    with pytest.raises(ConfigError, match="H"):
        parse_int_exact("2.5", "H")
    with pytest.raises(ConfigError, match="X"):
        parse_int_exact("abc", "X")
    with pytest.raises(ConfigError):
        parse_int_exact("", "X")


def test_parse_float():
    assert parse_float("0.25", "calL") == 0.25
    with pytest.raises(ConfigError, match="calL"):
        parse_float("x", "calL")


def test_parse_int_list():
    assert parse_int_list("0,2", "shifts") == (0, 2)
    assert parse_int_list(" 1 , -4 ", "ns") == (1, -4)
    with pytest.raises(ConfigError):
        parse_int_list("", "shifts")
    with pytest.raises(ConfigError):
        parse_int_list("1,b", "shifts")


def test_parse_pattern():
    assert parse_pattern("++") == (1, 1)
    assert parse_pattern("+-") == (1, -1)
    assert parse_pattern("1,-1") == (1, -1)
    assert parse_pattern("+1,-1") == (1, -1)
    with pytest.raises(ConfigError):
        parse_pattern("2,1")
    with pytest.raises(ConfigError):
        parse_pattern("ab")


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n\nd=2\nH = 1e6\nseed=7\n")
    assert load_config_file(str(p)) == {"d": "2", "H": "1e6", "seed": "7"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("d=1\njust words\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        load_config_file(str(bad))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(Fraction(3, 2)) == "3/2"
    assert format_cell(float("nan")) == ""
    assert format_cell(0.1) == "0.1"
    assert format_cell((2, 1, 1)) == "2;1;1"
    assert format_cell(None) == ""
    assert format_cell(17) == "17"


def test_sample_fieldnames():
    assert sample_fieldnames("chowla-clt") == [
        "sample_index", "coeffs", "series", "stat", "attempts",
        "zero_evals"]
    assert "window_real" in sample_fieldnames("poisson-gaps")


def test_config_roundtrip():
    cfg = ExperimentConfig(kind="tuples", d=2, H=100, X=50, samples=10,
                           seed=99, w=3, shifts=(0, 2))
    assert config_from_dict(asdict(cfg)) == cfg


# One malformed value each, on a valid manifest config of the kind; GONE
# deletes the key.
GONE = object()
VALID = dict(d=1, H=30, X=20, samples=3, seed=8)
BAD_MANIFEST_VALUES = [
    ("tuples", "shifts", 2),
    ("chowla-clt", "w", "5"),
    ("chowla-clt", "k_max", "4"),
    ("chowla-clt", "H", GONE),
    ("chowla-clt", "kind", GONE),
    ("poisson-gaps", "calL", "x"),
    ("chowla-clt", "d", True),
    ("chowla-clt", "workers", 2.0),
    ("linear-forms", "target", 3),
    ("linear-forms", "f0", []),
    ("tuples", "pattern", [1, 0]),
]


def names_key(exc, key):
    """The message names key as a flag spells it."""
    key = key.replace("_", "-")
    msg = str(exc.value)
    return msg.startswith(f"{key}: ") or f"'{key}'" in msg


@pytest.mark.parametrize("kind, key, value", BAD_MANIFEST_VALUES)
def test_bad_manifest_value_is_config_error_naming_key(tmp_path, kind, key,
                                                       value):
    d = dict(asdict(ExperimentConfig(kind=kind, shifts=(0, 2), **VALID)),
             **{key: value})
    if value is GONE:
        del d[key]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(d)
    assert names_key(exc, key), exc.value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": d}))
    with pytest.raises(ConfigError) as exc:
        load_manifest_config(str(path))
    assert names_key(exc, key), exc.value


@pytest.mark.parametrize("kind, key, value",
                         [case for case in BAD_MANIFEST_VALUES
                          if case[2] is not GONE])
def test_bad_value_type_is_config_error_naming_key(kind, key, value):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(**dict(dict(VALID, kind=kind, shifts=(0, 2)),
                                **{key: value}))
    assert names_key(exc, key), exc.value


def test_value_forms_are_normalized():
    cfg = ExperimentConfig(kind="linear-forms", ns=[1, 2], f0=[1, 0],
                           shifts=[], pattern=[1, -1], calL=2, **VALID)
    assert cfg == ExperimentConfig(kind="linear-forms", ns=(1, 2),
                                   f0=(1, 0), pattern=(1, -1), calL=2.0,
                                   **VALID)
    assert (cfg.ns, cfg.f0, cfg.shifts) == ((1, 2), (1, 0), ())
    assert isinstance(cfg.calL, float)


def test_write_run_and_manifest_roundtrip(tmp_path):
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=50, X=30,
                           samples=6, seed=11, k_max=2)
    res = run_experiment(cfg)
    out = tmp_path / "run"
    paths = write_run(str(out), res, "2026-08-18T00:00:00+00:00",
                      "2026-08-18T00:00:01+00:00")
    with open(paths["samples"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == sample_fieldnames("chowla-clt")
    assert len(rows) == 7
    assert rows[1][0] == "0"
    assert "/" in rows[1][2]  # series as num/den
    assert ";" in rows[1][1]  # coeffs a0;a1
    with open(paths["aggregates"], newline="") as fh:
        arows = list(csv.reader(fh))
    assert arows[0] == ["experiment", "key", "estimate", "stderr",
                        "predicted", "verdict"]
    assert [r[1] for r in arows[1:]] == ["moment_1", "moment_2",
                                         "ks_gaussian"]
    with open(paths["manifest"]) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["config", "finished_at", "master_seed",
                           "outputs", "package_version", "started_at",
                           "subcommand", "warnings"]
    assert doc["started_at"] == "2026-08-18T00:00:00+00:00"
    assert doc["finished_at"] == "2026-08-18T00:00:01+00:00"
    assert doc["outputs"] == {"samples": "samples.csv",
                              "aggregates": "aggregates.csv"}
    assert doc["subcommand"] == "chowla-clt"
    assert doc["master_seed"] == 11
    assert doc["config"]["H"] == 50
    assert load_manifest_config(paths["manifest"]) == cfg


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(kind="bh-moments", d=1, H=40, X=25,
                           samples=8, seed=123, w=3, k_max=2)
    res1 = run_experiment(cfg)
    p1 = write_run(str(tmp_path / "a"), res1, "t0", "t1")
    cfg2 = None
    cfg2 = load_manifest_config(p1["manifest"])
    res2 = run_experiment(cfg2)
    p2 = write_run(str(tmp_path / "b"), res2, "t2", "t3")
    for key in ("samples", "aggregates"):
        with open(p1[key], "rb") as fh:
            b1 = fh.read()
        with open(p2[key], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


def test_manifest_with_retired_key_loads_and_reruns(tmp_path):
    cfg = ExperimentConfig(kind="sign-patterns", d=1, H=30, X=20,
                           samples=5, seed=8, pattern=(1, -1))
    p1 = write_run(str(tmp_path / "a"), run_experiment(cfg), "t0", "t1")
    with open(p1["manifest"]) as fh:
        doc = json.load(fh)
    assert "deterministic_reduction" not in doc["config"]
    doc["config"]["deterministic_reduction"] = True
    with open(p1["manifest"], "w") as fh:
        json.dump(doc, fh)
    with pytest.warns(UserWarning, match="'deterministic_reduction'"):
        cfg2 = load_manifest_config(p1["manifest"])
    assert cfg2 == cfg
    p2 = write_run(str(tmp_path / "b"), run_experiment(cfg2), "t2", "t3")
    for key in ("samples", "aggregates"):
        with open(p1[key], "rb") as fh:
            b1 = fh.read()
        with open(p2[key], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


def test_manifest_with_unknown_key_is_config_error(tmp_path):
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=30, X=20, samples=3,
                           seed=8)
    with pytest.raises(ConfigError, match="'progress'"):
        config_from_dict(dict(asdict(cfg), progress=True))
    p1 = write_run(str(tmp_path / "a"), run_experiment(cfg), "t0", "t1")
    with open(p1["manifest"]) as fh:
        doc = json.load(fh)
    doc["config"]["progress"] = 10
    with open(p1["manifest"], "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ConfigError, match="'progress'"):
        load_manifest_config(p1["manifest"])


def test_worker_count_does_not_change_bytes(tmp_path):
    base = dict(kind="poisson-gaps", d=1, H=80, X=40, samples=8,
                seed=321, w=3, calL=1.0)
    r1 = run_experiment(ExperimentConfig(workers=1, **base))
    r2 = run_experiment(ExperimentConfig(workers=2, **base))
    p1 = write_run(str(tmp_path / "w1"), r1, "t", "t")
    p2 = write_run(str(tmp_path / "w2"), r2, "t", "t")
    for key in ("samples", "aggregates"):
        with open(p1[key], "rb") as fh:
            b1 = fh.read()
        with open(p2[key], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2
