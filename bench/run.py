"""polyprime benchmark: CLI wall time end to end, per-module spans traced.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every rep drives `polyprime.cli.main(argv)` in this process on one of the
workloads in `workloads.py`; the program sees only the generated argv.
Rep seeds are drawn from --seed, so one seed always gives the same inputs.

--trace 0 times reps at workers=1 and in their two-way parallel form for
--seconds, each rep on a fresh seed, and compares the two outputs byte for
byte.  Around every rep it times a fixed reference kernel that does not
touch polyprime, and reports each rep's wall time in units of the
kernel's, so that the shared machine's changing speed cancels out.  It
also times set-up in fresh interpreters, measures the peak RSS of a
process that runs one rep, and checks a seeded subset of the outputs
through `oracles`.  It reports the end-to-end metrics as medians over reps
and prints the raw wall times beside them.

--trace 1 runs every rep on the first rep seed, three ways: plain, in
parallel, and under the tracer.  The traced outputs must match the plain
ones byte for byte and the span counts must repeat exactly from rep to
rep.  It reports the per-layer metrics.

A failed operation is a non-zero exit, an exception such as BudgetError or
ConsistencyError, an oracle mismatch, or a mismatch between outputs that
must be identical.  The last line of stdout is the JSON result.  The exit
code is 0 after a measurement and non-zero when nothing could be measured,
for instance when the program's sources are missing.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 150

END_TO_END = {"wall_ref": "ratio", "wall_ref_2w": "ratio", "setup_s": "s",
              "peak_rss_mb": "MiB"}

# The reference kernel: a fixed amount of the two kinds of work polyprime
# does, modular powers of word-sized integers (what Miller-Rabin is made
# of) and passes of numpy integer arithmetic over an array (as in series
# enumeration), in alternating rounds.  The passes write into a buffer
# allocated once, so that the kernel's speed does not depend on the state
# the program's large allocations left the memory allocator in.
REF_ROUNDS = 6
REF_MODULUS = (1 << 61) - 1
REF_BASES = range(2, 627)
REF_ARRAY = np.arange(1 << 18, dtype=np.int64)
REF_BUFFER = np.empty_like(REF_ARRAY)
REF_ARRAY_PASSES = 8

# Spans reported with .calls and .self_s, and spans with .self_s only.
CALLS_AND_SELF = (
    "arith.factorize", "arith.is_prime", "arith.perfect_power",
    "arith.von_mangoldt", "arith.liouville",
    "poly.count_unit_values_mod_p", "poly.count_unit_tuples_linear_system",
    "poly.sample_uniform_residue",
    "series.series_f", "series.series_f_tuple", "series.series_linear_system",
)
SELF_ONLY = (
    "arith.liouville_sieve", "arith.least_prime_at_least",
    "gowers.interval_embedding", "gowers.gowers_average.s2",
    "gowers.gowers_average.s3", "experiments.chowla_normalized_sum",
    "experiments.tuple_statistic", "runio.write_run",
)
GOWERS_AVERAGES = ("gowers.gowers_average.s2", "gowers.gowers_average.s3")

PER_LAYER = dict(
    [(f"{n}.calls", "count") for n in CALLS_AND_SELF]
    + [(f"{n}.self_s", "s") for n in CALLS_AND_SELF + SELF_ONLY]
    + [("arith.is_prime.true_ratio", "ratio"),
       ("arith.von_mangoldt.distinct_ratio", "ratio"),
       ("series.series_linear_system.distinct_ratio", "ratio"),
       ("experiments.accept_ratio", "ratio"),
       ("experiments.run_sample.p50_ms", "ms"),
       ("experiments.run_sample.p90_ms", "ms"),
       ("experiments.aggregate_s", "s"),
       ("experiments.pool.speedup_2w", "ratio"),
       ("gowers.elem_ops", "count"),
       ("gowers.elem_ops_per_s", "1/s"),
       ("runio.bytes_written", "bytes"),
       ("cli.overhead_s", "s"),
       ("trace.overhead_ratio", "ratio")])

# Per-layer values that must repeat exactly from one traced rep to the next.
EXACT = ([f"{n}.calls" for n in CALLS_AND_SELF]
         + ["arith.is_prime.true_ratio", "arith.von_mangoldt.distinct_ratio",
            "series.series_linear_system.distinct_ratio",
            "experiments.accept_ratio", "gowers.elem_ops"])


class Ops:
    """Operations attempted and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def attempt(self, name, fn):
        """fn(), or None after recording the exception it raised."""
        try:
            value = fn()
        except Exception as exc:  # one failed operation; the run goes on
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.record(name, False, tb)
            return None
        self.record(name, True)
        return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def load_cli():
    """polyprime.cli imported from this checkout's sources, else None."""
    if not (SRC / "polyprime" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import polyprime.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        return None
    return cli


def check_declared_metrics(trace):
    """The metrics produced must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    produced = PER_LAYER if trace else END_TO_END
    workloads = [w["name"] for w in spec["workloads"]]
    if declared != produced or sorted(workloads) != sorted(WORKLOADS):
        raise SystemExit("bench/run.py and BENCHMARK.json disagree on "
                         "metrics or workloads")


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "seed": seed,
            "loadavg_1m_start": os.getloadavg()[0]}


def rep_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1 << 31)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    return str(path)


def read_outputs(wl, out_dir):
    return {k: Path(p).read_text(encoding="utf-8")
            for k, p in wl.output_files(out_dir).items()}


def probe(*args):
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-300:])
    return proc.stdout.strip()


def reference_kernel_s():
    """Wall seconds of the reference kernel, run once in this process."""
    m = REF_MODULUS * 1000003
    buf = REF_BUFFER
    acc = 0
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        for a in REF_BASES:
            acc ^= pow(a, REF_MODULUS - 1, m)
        for k in range(REF_ARRAY_PASSES):
            np.multiply(REF_ARRAY, REF_ARRAY, out=buf)
            np.add(buf, k, out=buf)
            np.remainder(buf, 97, out=buf)
            acc ^= int(buf.sum())
    return time.perf_counter() - t0


def repeat(seconds, body, between=None):
    """Call body(rep) until it has run for `seconds`, at least MIN_REPS
    times; between(), if given, runs before each rep and is not counted."""
    spent, rep = 0.0, 0
    while rep < MIN_REPS or spent < seconds:
        if between is not None:
            between()
        t0 = time.perf_counter()
        body(rep)
        spent += time.perf_counter() - t0
        rep += 1


def oracle_checks(wl, kept, seed, ops):
    """Check a seeded subset of the kept workers=1 outputs."""
    rng = random.Random(seed ^ 0x5EED)
    picks = {}
    for _ in range(wl.checks_per_run):
        rep = rng.randrange(len(kept))
        picks.setdefault(rep, []).append(rng.randrange(wl.samples))
    if not picks:  # nothing to sample from: check the first rep whole
        picks = {0: []}
    for rep, rows in sorted(picks.items()):
        checks = ops.attempt(f"oracle checks of rep {rep}",
                             lambda: wl.check(kept[rep], sorted(set(rows))))
        for name, ok, detail in checks or ():
            ops.record(f"oracle: {name}", ok, detail)


def measure_end_to_end(cli, name, wl, seed, seconds, ops):
    base = WORK / name
    seeds = rep_seeds(seed)
    first = next(seeds)

    rss = ops.attempt("rss probe", lambda: json.loads(probe(
        "rss", str(SRC),
        json.dumps(wl.argvs(first, fresh_dir(base / "rss"))))))
    if rss is not None:
        ops.record("rss probe exit codes", not any(rss["codes"]),
                   str(rss["codes"]))

    setup, walls, walls_2w, kept = [], [], [], []
    refs, rel, rel_2w = [], [], []

    def setup_probe():
        if len(setup) >= SETUP_PROBES:
            return
        v = ops.attempt("setup probe", lambda: float(probe("setup", str(SRC))))
        if v is not None:
            setup.append(v)

    def body(rep):
        s = first if rep == 0 else next(seeds)
        d1, d2 = fresh_dir(base / "w1"), fresh_dir(base / "w2")
        k0 = reference_kernel_s()
        t1 = ops.attempt(f"seed {s} workers=1", lambda: wl.run(cli, s, d1))
        k1 = reference_kernel_s()
        t2 = ops.attempt(f"seed {s} parallel",
                         lambda: wl.run(cli, s, d2, parallel=True))
        k2 = reference_kernel_s()
        if t1 is None or t2 is None:
            return
        walls.append(t1)
        walls_2w.append(t2)
        refs.extend((k0, k1, k2))
        # Each rep against the mean of the kernel times just before and
        # just after it.
        rel.append(2 * t1 / (k0 + k1))
        rel_2w.append(2 * t2 / (k1 + k2))
        out1, out2 = read_outputs(wl, d1), read_outputs(wl, d2)
        ops.record(f"seed {s}: parallel output equals workers=1 output",
                   out1 == out2, "outputs differ")
        kept.append(out1)

    # A set-up probe before each of the first reps spreads them in time.
    repeat(seconds, body, between=setup_probe)
    if kept:
        oracle_checks(wl, kept, seed, ops)
    if not (walls and setup and rss):
        raise SystemExit("no complete measurement: " + "; ".join(
            ops.failures[:5]))
    info = {"reps": len(walls), "samples_per_rep": wl.samples,
            "wall_s": statistics.median(walls),
            "wall_s_2w": statistics.median(walls_2w),
            "reference_kernel_s": statistics.median(refs),
            "wall_s_reps": walls, "wall_s_2w_reps": walls_2w,
            "reference_kernel_s_runs": refs, "setup_s_probes": setup}
    metrics = {"wall_ref": statistics.median(rel),
               "wall_ref_2w": statistics.median(rel_2w),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss["peak_rss_mb"]}
    return metrics, info


def _sum_by_name(agg):
    calls, total, self_s = {}, {}, {}
    for (name, _parent), (n, tot, slf) in agg.items():
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + slf
    return calls, total, self_s


def _ratio(a, b):
    return a / b if b else 0.0


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def rep_layers(rec, wl, outputs, out_dir):
    """Per-layer values of one traced rep."""
    calls, total, self_s = _sum_by_name(rec["agg"])
    v = {f"{n}.calls": calls.get(n, 0) for n in CALLS_AND_SELF}
    for n in CALLS_AND_SELF + SELF_ONLY:
        v[f"{n}.self_s"] = self_s.get(n, 0.0)
    v["arith.is_prime.true_ratio"] = _ratio(
        rec["truths"].get("arith.is_prime", 0), calls.get("arith.is_prime", 0))
    for n in ("arith.von_mangoldt", "series.series_linear_system"):
        v[f"{n}.distinct_ratio"] = _ratio(rec["distinct"].get(n, 0),
                                          calls.get(n, 0))
    attempts = 0
    if "samples.csv" in outputs:
        rows = outputs["samples.csv"].splitlines()[1:]
        attempts = sum(int(r.rsplit(",", 2)[1]) for r in rows)
    v["experiments.accept_ratio"] = _ratio(wl.samples, attempts)
    v["experiments.aggregate_s"] = self_s.get("experiments.run_experiment",
                                              0.0)
    v["gowers.elem_ops"] = sum(rec["work"].values())
    v["gowers_average_s"] = sum(total.get(n, 0.0) for n in GOWERS_AVERAGES)
    v["runio.bytes_written"] = _dir_bytes(out_dir)
    v["cli.overhead_s"] = self_s.get("cli.main", 0.0)
    return v


def measure_layers(cli, name, wl, seed, seconds, ops):
    base = WORK / name
    s = next(rep_seeds(seed))
    tracer = Tracer()
    plain, parallel, traced, per_rep, durations = [], [], [], [], []
    spans = {}

    def body(rep):
        d0, d2, dt = (fresh_dir(base / tag) for tag in ("plain", "par", "tr"))
        t0 = ops.attempt("plain rep", lambda: wl.run(cli, s, d0))
        t2 = ops.attempt("parallel rep",
                         lambda: wl.run(cli, s, d2, parallel=True))
        with tracer.installed():
            t1 = ops.attempt("traced rep", lambda: wl.run(cli, s, dt))
        rec = tracer.take()
        ops.record("tracer restored the originals", not leftover_wrappers(),
                   ", ".join(leftover_wrappers()))
        if None in (t0, t1, t2):
            return
        out0 = read_outputs(wl, d0)
        ops.record("parallel output equals plain output",
                   read_outputs(wl, d2) == out0, "outputs differ")
        out1 = read_outputs(wl, dt)
        ops.record("traced output equals plain output", out1 == out0,
                   "outputs differ")
        plain.append(t0)
        parallel.append(t2)
        traced.append(t1)
        per_rep.append(rep_layers(rec, wl, out1, dt))
        durations.extend(rec["durations"].get("experiments.run_sample", []))
        for key, (n, tot, slf) in rec["agg"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += tot
            acc[2] += slf
        if rep == 0:
            oracle_checks(wl, [out0], seed, ops)

    repeat(seconds, body)
    if not per_rep:
        raise SystemExit("no complete traced rep: " + "; ".join(
            ops.failures[:5]))
    for key in EXACT:
        values = {r[key] for r in per_rep}
        ops.record(f"{key} repeats across traced reps", len(values) == 1,
                   str(sorted(values)))
    metrics = {key: per_rep[0][key] if key in EXACT
               else statistics.median(r[key] for r in per_rep)
               for key in per_rep[0]}
    ms = sorted(d * 1e3 for d in durations)
    metrics["experiments.run_sample.p50_ms"] = (statistics.median(ms)
                                                if ms else 0.0)
    metrics["experiments.run_sample.p90_ms"] = (
        statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else
        (ms[0] if ms else 0.0))
    metrics["experiments.pool.speedup_2w"] = (statistics.median(plain)
                                              / statistics.median(parallel))
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    metrics["gowers.elem_ops_per_s"] = _ratio(
        metrics["gowers.elem_ops"], metrics["gowers_average_s"])
    metrics = {key: metrics[key] for key in PER_LAYER}
    info = {"reps": len(per_rep), "rep_seed": s,
            "run_sample_durations": len(ms),
            "patched_sites": sorted(tracer.sites)}
    span_table = [{"name": n, "parent": p, "calls": c, "total_s": t,
                   "self_s": sf} for (n, p), (c, t, sf) in
                  sorted(spans.items(), key=lambda kv: -kv[1][1])]
    return metrics, info, span_table


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    if cli is None:
        print(f"polyprime sources not found under {SRC}", file=sys.stderr)
        return 2
    check_declared_metrics(args.trace)
    wl = WORKLOADS[args.workload]
    ops = Ops()
    env = environment(args.seed)
    spans = None
    if args.trace:
        metrics, info, spans = measure_layers(cli, args.workload, wl,
                                              args.seed, args.seconds, ops)
        units = PER_LAYER
    else:
        metrics, info = measure_end_to_end(cli, args.workload, wl, args.seed,
                                           args.seconds, ops)
        units = END_TO_END
    env["loadavg_1m_end"] = os.getloadavg()[0]

    failed = len(ops.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()
                      if not isinstance(v, (list, float))))
    print("env " + json.dumps(env))
    for msg in ops.failures:
        print(f"FAILED {msg}")
    if spans:
        print(f"{'span':<44}{'parent':<36}{'calls':>9}{'total_s':>10}"
              f"{'self_s':>10}  (all traced reps)")
        for row in spans[:12]:
            print(f"{row['name']:<44}{row['parent'] or '-':<36}"
                  f"{row['calls']:>9}{row['total_s']:>10.4f}"
                  f"{row['self_s']:>10.4f}")
    for key, value in metrics.items():
        print(f"{key:<48} {value:>14.6g} {units[key]}")
    if not args.trace:
        for key in ("wall_s", "wall_s_2w", "reference_kernel_s"):
            print(f"{key + ' (raw, not a metric)':<48} {info[key]:>14.6g} s")
    if not args.trace and wl.samples:
        print(f"{'samples/s (workers=1)':<48} "
              f"{wl.samples / info['wall_s']:>14.6g} 1/s")
        print(f"{'samples/s (workers=2)':<48} "
              f"{wl.samples / info['wall_s_2w']:>14.6g} 1/s")
    print(f"{'failed_ratio':<48} {failed / ops.attempted:>14.6g} ratio "
          f"({failed} of {ops.attempted} operations)")

    result = {"correct": failed == 0, "attempted": ops.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {"env": env, "info": info, "failures": ops.failures,
         "result": result, "spans": spans}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
