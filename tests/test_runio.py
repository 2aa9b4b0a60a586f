"""Config parsing, CSV formatting, manifest roundtrips."""

import csv
import json
import re
from dataclasses import asdict
from fractions import Fraction

import pytest

from polyprime.config import (
    DIGITS_CAP,
    GowersConfig,
    parse_float,
    parse_int_exact,
    parse_int_list,
    parse_pattern,
)
from polyprime.errors import BudgetError, ConfigError
from polyprime.experiments import ExperimentConfig, run_experiment
from polyprime.runio import (
    format_cell,
    load_config_file,
    load_manifest_config,
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


def test_parse_int_exact_refuses_more_digits_than_python_converts():
    # The text is refused from its exponent, before any conversion: an
    # int of 10**6 digits alone takes tens of seconds to build.
    largest = 10 ** DIGITS_CAP - 1
    assert parse_int_exact("9" * DIGITS_CAP, "H") == largest
    assert parse_int_exact(-largest, "H") == -largest
    assert str(largest) == "9" * DIGITS_CAP
    assert parse_int_exact("0e1000000", "H") == 0
    message = f"^H: more than {DIGITS_CAP} digits"
    for value in (10 ** DIGITS_CAP, -10 ** 5000, f"1e{DIGITS_CAP}",
                  "-1" + "0" * DIGITS_CAP, "1e1000000", "1e3000000"):
        with pytest.raises(BudgetError, match=message):
            parse_int_exact(value, "H")
    with pytest.raises(BudgetError, match="^ns: more than"):
        ExperimentConfig(kind="linear-forms", d=1, H=10, X=1, samples=1,
                         seed=1, ns=(1, 10 ** 5000))
    # A Python-built config past the cap is refused as it is built, not
    # when its run writes the config.
    with pytest.raises(BudgetError, match=message):
        ExperimentConfig(kind="chowla-clt", d=1, H=10 ** 5000, X=1,
                         samples=1, seed=1)


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
    assert format_cell(Fraction(3, 2)) == "3/2"
    assert format_cell(float("nan")) == ""
    assert format_cell(0.1) == "0.1"
    assert format_cell((2, 1, 1)) == "2;1;1"
    assert format_cell(17) == "17"


def samples_header(tmp_path, kind, **keys):
    """The header row of the samples.csv a small run of kind writes."""
    cfg = ExperimentConfig(kind=kind, d=1, H=30, X=20, samples=2, seed=8,
                           **keys)
    paths = write_run(str(tmp_path / kind), run_experiment(cfg), "t0", "t1")
    with open(paths["samples"], newline="") as fh:
        return next(csv.reader(fh))


def test_sample_fieldnames(tmp_path):
    assert samples_header(tmp_path, "chowla-clt") == [
        "sample_index", "coeffs", "series", "stat", "attempts",
        "zero_evals"]
    assert "window_real" in samples_header(tmp_path, "poisson-gaps", w=3,
                                           calL=1.0)


def test_config_roundtrip():
    cfg = ExperimentConfig(kind="tuples", d=2, H=100, X=50, samples=10,
                           seed=99, w=3, shifts=(0, 2))
    assert ExperimentConfig.from_dict(asdict(cfg)) == cfg


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
        ExperimentConfig.from_dict(d)
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


# One malformed value each, on a valid gowers manifest config, with the
# error it gives; GONE deletes the key.  A retired key is an unknown key,
# in gowers and experiment manifests alike: "mode" is a key of the config
# that gowers manifests held before GowersConfig, "multiplier" one they
# held until the embedding multiplier became the constant
# gowers.MULTIPLIER, and deterministic_reduction an experiment key that
# was never a gowers key (RETIRED_EXPERIMENT_KEYS below).
BAD_GOWERS_VALUES = [
    ("target", "theta", "unknown gowers target 'theta'"),
    ("target", GONE, "missing required config value 'target'"),
    ("N", [10, 0], "N entries must be >= 1"),
    ("N", 10, "N: 10 is not a list"),
    ("M", [5], "give exactly one of --N (interval) or --M (cyclic)"),
    ("s", "2", "s: '2' is not of type int"),
    ("s", 0, "s must be >= 1"),
    ("multiplier", 5, "unknown config key 'multiplier'"),
    ("mode", "interval", "unknown config key 'mode'"),
    ("deterministic_reduction", True,
     "unknown config key 'deterministic_reduction'"),
]


@pytest.mark.parametrize("key, value, message", BAD_GOWERS_VALUES)
def test_bad_gowers_manifest_value_is_config_error(tmp_path, key, value,
                                                   message):
    d = dict(asdict(GowersConfig(target="one", N=(10, 20))), **{key: value})
    if value is GONE:
        del d[key]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subcommand": "gowers", "config": d}))
    with pytest.raises(ConfigError) as exc:
        load_manifest_config(str(path))
    assert str(exc.value) == message


# Retired experiment keys, with the value older manifests recorded:
# deterministic_reduction, which never changed a run, and the fixed
# window L, 0 in every manifest whose window came from calL.
RETIRED_EXPERIMENT_KEYS = [
    ("deterministic_reduction", True), ("L", 0), ("L", 3)]


@pytest.mark.parametrize("key, value", RETIRED_EXPERIMENT_KEYS)
def test_retired_experiment_manifest_key_is_unknown(tmp_path, key, value):
    cfg = ExperimentConfig(kind="poisson-gaps", d=1, H=30, X=20, samples=3,
                           seed=8, calL=2.0)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subcommand": "poisson-gaps",
                                "config": dict(asdict(cfg), **{key: value})}))
    with pytest.raises(ConfigError) as exc:
        load_manifest_config(str(path))
    assert str(exc.value) == f"unknown config key {key!r}"


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
    assert rows[0] == ["sample_index", "coeffs", "series", "stat",
                       "attempts", "zero_evals"]
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


@pytest.mark.parametrize("subcommand, config, message", [
    ("chowla-clt", dict(kind="chowla-clt", d=1, H=10, X=10 ** 7,
                        samples=1, seed=1), "X: a sample would evaluate"),
    ("chowla-clt", dict(kind="chowla-clt", d=1, H=10, X=10, samples=1,
                        seed=1, w=10 ** 5), "w: a series would run"),
    ("gowers", dict(target="one", N=[], M=[10 ** 9], s=1),
     "U^1 on Z/1000000000Z: the group is larger"),
])
def test_manifest_past_a_cap_is_refused(tmp_path, subcommand, config,
                                        message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subcommand": subcommand, "config": config}))
    with pytest.raises(BudgetError, match="^" + re.escape(message)):
        load_manifest_config(str(path))


@pytest.mark.parametrize("text, error", [
    ("{not json", "cannot read manifest"),
    ("[1, 2]", "a manifest is a JSON object"),
    ('{"subcommand": "chowla-clt"}', "a manifest is a JSON object"),
    ('{"config": [1, 2]}', "a manifest is a JSON object"),
    ('{"subcommand": ["gowers"], "config": {}}',
     "a manifest is a JSON object"),
    ('{"config": {"H": 1' + "0" * 5000 + "}}", "cannot read manifest"),
    ("\udcff", "cannot read manifest"),
    (None, "cannot read manifest"),
])
def test_malformed_manifest_is_config_error(tmp_path, text, error):
    # None: no file.  The last but one is not UTF-8, and the int before
    # it is past Python's own limit on int/str conversion.
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ConfigError, match=re.escape(error)):
        load_manifest_config(str(path))


# A manifest names its run twice, by its subcommand and by its config's
# kind; a replay could not tell which run to make if the two differ or
# the subcommand is missing (None: no subcommand).
@pytest.mark.parametrize("subcommand, kind", [
    ("tuples", "chowla-clt"), ("chowla-clt", "bh-moments"),
    (None, "chowla-clt"), ("gowers", "chowla-clt")])
def test_manifest_kind_other_than_subcommand_is_config_error(
        tmp_path, subcommand, kind):
    doc = {"config": asdict(ExperimentConfig(kind=kind, **VALID))}
    if subcommand is not None:
        doc["subcommand"] = subcommand
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_manifest_config(str(path))
    assert names_key(exc, "kind"), exc.value


def test_manifest_with_unknown_key_is_config_error(tmp_path):
    cfg = ExperimentConfig(kind="chowla-clt", d=1, H=30, X=20, samples=3,
                           seed=8)
    with pytest.raises(ConfigError, match="'progress'"):
        ExperimentConfig.from_dict(dict(asdict(cfg), progress=True))
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
