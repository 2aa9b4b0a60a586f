"""Run persistence: config files, and the one writer (`write_files`: CSV
tables, then the manifest naming them) and one loader
(`load_manifest_config`) of every run's files.

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
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

from ._version import __version__
from .config import CONFIGS, Config
from .errors import ConfigError
from .experiments import ExperimentConfig, RunResult

def load_config_file(path: str) -> dict:
    """key=value file to a raw string dict; later flags override these.

    The file is UTF-8, with or without a byte order mark."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return raw


def format_cell(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return str(value)


def write_csv(path: str, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def load_manifest_config(path: str) -> Config:
    """Rebuild the exact config a manifest records, of the class its
    subcommand has in `CONFIGS` (an experiment kind's: ExperimentConfig),
    checked like the flags.  A file that cannot be read, or is not such
    a manifest, raises ConfigError, and so does an experiment config in
    a manifest whose subcommand is missing or names another kind.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}")
    if not (isinstance(doc, dict) and isinstance(doc.get("config"), dict)
            and isinstance(doc.get("subcommand", ""), str)):
        raise ConfigError(f"{path}: a manifest is a JSON object with a "
                          "config object and a subcommand string")
    subcommand = doc.get("subcommand")
    cfg = CONFIGS.get(subcommand, ExperimentConfig).from_dict(doc["config"])
    if subcommand not in CONFIGS and cfg.kind != subcommand:
        raise ConfigError(f"kind: {cfg.kind!r}, but the manifest's "
                          f"subcommand is {subcommand!r}")
    return cfg


def write_files(out_dir: str, subcommand: str, cfg: Config, tables: dict,
                started: str, finished: str, **extra) -> dict:
    """Write each table {role: (file name, header, rows)} as CSV under
    out_dir, then a manifest of the run: its subcommand, config, the
    file of each role as `outputs`, the extra keys, the package version
    and the times the caller took just before and just after its work.
    Returns the path of each role and of the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"manifest": os.path.join(out_dir, "manifest.json")}
    for role, (name, header, rows) in tables.items():
        paths[role] = os.path.join(out_dir, name)
        write_csv(paths[role], header, rows)
    doc = dict(extra, subcommand=subcommand, config=asdict(cfg),
               outputs={role: name for role, (name, _, _) in tables.items()},
               package_version=__version__, started_at=started,
               finished_at=finished)
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def write_run(out_dir: str, result: RunResult, started: str,
              finished: str) -> dict:
    cfg = result.config
    # A kind's stats dict holds its columns in order (samples >= 1).
    columns = list(result.records[0].stats)
    samples = [[r.index, r.coeffs, r.series]
               + [r.stats[key] for key in columns]
               + [r.attempts, r.zero_evals] for r in result.records]
    aggregates = [[a.experiment, a.key, a.estimate, a.stderr, a.predicted,
                   a.verdict] for a in result.aggregates]
    return write_files(
        out_dir, cfg.kind, cfg,
        {"samples": ("samples.csv",
                     ["sample_index", "coeffs", "series", *columns,
                      "attempts", "zero_evals"], samples),
         "aggregates": ("aggregates.csv",
                        ["experiment", "key", "estimate", "stderr",
                         "predicted", "verdict"], aggregates)},
        started, finished, master_seed=cfg.seed,
        warnings=list(result.warnings))
