"""Command line entry points, exercised in process."""

import csv
import json

import numpy as np
import pytest

from polyprime.arith import liouville, mobius
from polyprime.cli import main
from polyprime.gowers import gowers_norm_cyclic
from polyprime.runio import format_cell


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
    for target, func in (("liouville", liouville), ("mobius", mobius)):
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
    assert out.count(": ok") == 4
    assert "FAIL" not in out
