"""Golden outputs: the sha256 of samples.csv and aggregates.csv of one
small seeded run per experiment kind, at one and at two workers.

The hashes pin the bytes, so a change to the arithmetic kernels, to
polynomial evaluation or to the sampler that moves any printed digit
fails here.  A change that alters the outputs on purpose must say so and
update the hash it moves.
"""

import hashlib
from pathlib import Path

import pytest

from polyprime.experiments import KINDS, ExperimentConfig, run_experiment
from polyprime.runio import write_run

# Each run is small, but together they reach both splitting routes
# (values below and above 2**52), perfect powers, rho and every kind.
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


def test_golden_covers_every_kind():
    assert set(GOLDEN) == set(KINDS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_output_hashes(kind, workers, tmp_path):
    keys, samples_sha, aggregates_sha = GOLDEN[kind]
    cfg = ExperimentConfig(kind=kind, workers=workers, **keys)
    paths = write_run(str(tmp_path), run_experiment(cfg), "start", "end")
    got = [hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
           for name in ("samples", "aggregates")]
    assert got == [samples_sha, aggregates_sha]
