"""Run persistence: config files, manifests, and CSV emission.

Reproducibility contract: rerunning the experiment described by a
manifest produces byte-identical samples.csv and aggregates.csv.  That
pins down the formatting here: floats are written with repr (shortest
round-trip form), rationals as "num/den", coefficient tuples in the
semicolon format, and rows always in sample-index order.  A manifest's
config is checked on loading like the flags.
"""

import csv
import json
import math
import os
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

from ._version import __version__
from .errors import ConfigError
from .experiments import KINDS, ExperimentConfig, RunResult

SAMPLES_CSV = "samples.csv"
AGGREGATES_CSV = "aggregates.csv"
MANIFEST_JSON = "manifest.json"


def load_config_file(path: str) -> dict:
    """key=value file to a raw string dict; later flags override these."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return raw


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def sample_fieldnames(kind: str):
    return (["sample_index", "coeffs", "series"]
            + list(KINDS[kind].columns)
            + ["attempts", "zero_evals"])


def write_csv(path: str, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def write_samples_csv(path: str, result: RunResult) -> None:
    kind = result.config.kind
    keys = KINDS[kind].columns
    rows = []
    for r in result.records:
        rows.append([r.index, r.coeffs, r.series]
                    + [r.stats[k] for k in keys]
                    + [r.attempts, r.zero_evals])
    write_csv(path, sample_fieldnames(kind), rows)


def write_aggregates_csv(path: str, result: RunResult) -> None:
    rows = [[a.experiment, a.key, a.estimate, a.stderr, a.predicted,
             a.verdict] for a in result.aggregates]
    write_csv(path, ["experiment", "key", "estimate", "stderr",
                     "predicted", "verdict"], rows)


def config_from_dict(d: dict) -> ExperimentConfig:
    """ExperimentConfig from a manifest's config, the JSON of asdict(cfg),
    built by `ExperimentConfig.from_dict` and so checked like the flags.

    Manifests written by older versions may carry the retired key
    deterministic_reduction, which never changed a run; it is dropped
    with a warning.
    """
    d = dict(d)
    if d.pop("deterministic_reduction", None) is not None:
        warnings.warn("ignoring retired manifest key "
                      "'deterministic_reduction'")
    return ExperimentConfig.from_dict(d)


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(path: str, doc: dict, started: str,
                   finished: str) -> None:
    """doc as JSON, with the package version and the times the caller
    took just before and just after its work."""
    doc = dict(doc, package_version=__version__, started_at=started,
               finished_at=finished)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest_config(path: str) -> ExperimentConfig:
    """Rebuild the exact ExperimentConfig a manifest records."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return config_from_dict(doc["config"])


def write_run(out_dir: str, result: RunResult, started: str,
              finished: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "manifest": os.path.join(out_dir, MANIFEST_JSON),
        "samples": os.path.join(out_dir, SAMPLES_CSV),
        "aggregates": os.path.join(out_dir, AGGREGATES_CSV),
    }
    write_samples_csv(paths["samples"], result)
    write_aggregates_csv(paths["aggregates"], result)
    cfg = result.config
    write_manifest(paths["manifest"],
                   {"subcommand": cfg.kind,
                    "config": asdict(cfg),
                    "master_seed": cfg.seed,
                    "outputs": {"samples": SAMPLES_CSV,
                                "aggregates": AGGREGATES_CSV},
                    "warnings": list(result.warnings)},
                   started, finished)
    return paths
