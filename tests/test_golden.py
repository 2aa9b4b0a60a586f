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

import polyprime.arith as arith
import polyprime.experiments as experiments
from polyprime.cli import GOLDEN
from polyprime.experiments import (KINDS, ExperimentConfig, run_chunk,
                                   run_experiment)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_golden_run_takes_the_numpy_miller_rabin(workers, monkeypatch):
    # The hashes pin the bytes of the numpy Miller-Rabin only if a pinned
    # run reaches it.  The chunks of the run at each worker count are run
    # here, in this process, so that the spy sees them.
    lanes = []
    inner = arith._strong_probable_many

    def spy(n):
        lanes.append(len(n))
        return inner(n)

    monkeypatch.setattr(arith, "_strong_probable_many", spy)
    taken = []
    for kind, (keys, *_) in GOLDEN.items():
        cfg = ExperimentConfig(kind=kind, workers=workers, **keys)
        series = KINDS[kind].run_series(cfg)
        lanes.clear()
        for chunk in experiments._chunks(cfg):
            run_chunk(cfg, chunk, series)
        if lanes:
            taken.append(kind)
    assert taken
