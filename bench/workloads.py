"""The benchmark's workloads: the CLI calls one repetition makes.

A repetition ("rep") is one user-visible operation.  For the experiment
workloads it is one `main(argv)` call; for the Gowers workload it is the
two `gowers` calls the workload consists of.  `run` executes a rep either
serially or in its two-way parallel form and returns its wall time; the
program sees nothing but the generated argv.  `check` verifies a rep's
outputs through the independent routes in `oracles`.
"""

import contextlib
import io
import multiprocessing
import os
import time

import oracles


class RunFailed(RuntimeError):
    """A CLI call of the benchmark exited with a non-zero code."""


def _call(cli, argv):
    """Run main(argv) with its stdout captured; return the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _child(cli, argv):
    os._exit(_call(cli, argv))


class _Workload:
    def run(self, cli, seed, out_dir, parallel=False):
        """Wall seconds of one rep; raises RunFailed on a non-zero exit."""
        argvs = self.argvs(seed, out_dir, workers=2 if parallel else 1)
        t0 = time.perf_counter()
        codes = self._execute(cli, argvs, parallel)
        dt = time.perf_counter() - t0
        for code, argv in zip(codes, argvs):
            if code != 0:
                raise RunFailed(f"exit code {code} for {' '.join(argv)}")
        return dt


class Experiment(_Workload):
    """One experiment subcommand at a fixed size, seeded per rep."""

    def __init__(self, kind, flags, samples, check, checks_per_run):
        self.kind = kind
        self.flags = flags
        self.samples = samples
        self._check = check
        self.checks_per_run = checks_per_run

    def argvs(self, seed, out_dir, workers=1):
        argv = [self.kind]
        for key, value in self.flags.items():
            argv += [f"--{key}", str(value)]
        return [argv + ["--samples", str(self.samples), "--seed", str(seed),
                        "--workers", str(workers), "--out-dir", out_dir]]

    def _execute(self, cli, argvs, parallel):
        return [_call(cli, argvs[0])]

    def output_files(self, out_dir):
        """Files compared byte for byte; the manifest holds timestamps."""
        return {name: os.path.join(out_dir, name)
                for name in ("samples.csv", "aggregates.csv")}

    def check(self, outputs, picks):
        return self._check(outputs["samples.csv"], outputs["aggregates.csv"],
                           self.flags, picks)


class Gowers(_Workload):
    """Fixed `gowers` calls; the seed does not reach the program.

    The parallel form runs the calls at the same time in two forked
    processes, since the subcommand has no worker flag.
    """

    samples = 0
    checks_per_run = 0

    def __init__(self, calls):
        self.calls = calls

    def argvs(self, seed, out_dir, workers=1):
        return [["gowers"] + call + ["--out-dir", os.path.join(out_dir, str(i))]
                for i, call in enumerate(self.calls)]

    def _execute(self, cli, argvs, parallel):
        if not parallel:
            return [_call(cli, a) for a in argvs]
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_child, args=(cli, a)) for a in argvs]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        return [p.exitcode for p in procs]

    def output_files(self, out_dir):
        return {f"{i}/gowers.csv": os.path.join(out_dir, str(i), "gowers.csv")
                for i in range(len(self.calls))}

    def check(self, outputs, picks):
        return [c for name in sorted(outputs)
                for c in oracles.check_gowers(outputs[name])]


WORKLOADS = {
    "quadratic-liouville": Experiment(
        "chowla-clt", {"d": 2, "H": "1e9", "X": 400, "w": 5},
        samples=12, check=oracles.check_chowla, checks_per_run=3),
    "linear-tuples": Experiment(
        "tuples", {"d": 1, "H": "1e7", "X": 300, "shifts": "0,2", "w": 11},
        samples=150, check=oracles.check_tuples, checks_per_run=4),
    "linear-forms-series": Experiment(
        "linear-forms", {"ns": "1,2,3", "M": 3, "f0": "1;0", "d": 2,
                         "H": "1e8", "X": 1, "w": 61},
        samples=12, check=oracles.check_linear_forms, checks_per_run=12),
    "gowers-liouville": Gowers(
        [["--target", "liouville", "--N", "1000,3000", "--s", "2"],
         ["--target", "liouville", "--N", "80", "--s", "3"]]),
}
