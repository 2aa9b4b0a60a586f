"""Golden outputs: the sha256 of samples.csv and aggregates.csv of one
small seeded run per experiment kind, at one and at two workers.

The hashes pin the bytes, so a change to the arithmetic kernels, to
polynomial evaluation or to the sampler that moves any printed digit
fails here.  A change that alters the outputs on purpose must say so and
update the hash it moves.  The table, `GOLDEN`, lives in `polyprime.cli`,
whose selftest repeats it; the runs and hashes here are this file's own.
"""

import hashlib
from pathlib import Path

import pytest

from polyprime.cli import GOLDEN
from polyprime.experiments import KINDS, ExperimentConfig, run_experiment
from polyprime.runio import write_run


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
