"""Kernel mutants: each one-line fault must fail the tests.

    python tests/mutants.py [NAME ...]

Each mutant replaces one line of the program, in a temporary copy of the
repository, and runs tests/test_arith.py, test_golden.py and
test_experiments.py there.  A mutant is killed when a test fails, and
survives when every test passes.  The runs are not under `-W error`: the
hypothesis plugin may warn while it reports a failing example, which
would abort the session, and the tests that need warnings as errors set
them themselves.  The script prints one row per mutant, and exits 1 if
any survived and 2 if one could not be applied (its line was not found)
or its tests could not run.  pytest does not collect this file: its name
does not start with test_.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_arith.py", "tests/test_golden.py",
         "tests/test_experiments.py"]
ARITH = "src/polyprime/arith.py"

# (name, file, anchor, old, new): the first `old` after the one `anchor`
# in file becomes `new`.
MUTANTS = [
    ("lucas-halves-without-n", ARITH, "def _strong_lucas_many(",
     "h = (h + (h & 1) * n) >> 1", "h = h >> 1"),
    ("lucas-tail-one-short", ARITH, "def _strong_lucas_many(",
     "live = live[s[live] > r]", "live = live[s[live] > r + 1]"),
    ("lucas-q-sign-flipped", ARITH, "def _strong_lucas_many(",
     "q = np.remainder((1 - D[lane]) // 4, n)",
     "q = np.remainder((D[lane] - 1) // 4, n)"),
    ("mulmod-no-correction", ARITH, "def _mulmod(",
     "return np.remainder(x * y - q * n, n)", "return x * y - q * n"),
    ("mr-squarings-one-short", ARITH, "def _strong_probable(",
     "live = live[s[live] > r]", "live = live[s[live] > r + 1]"),
]


def mutate(text: str, anchor: str, old: str, new: str) -> str:
    if text.count(anchor) != 1:
        raise LookupError(f"anchor {anchor!r} is not in the file once")
    at = text.find(old, text.index(anchor))
    if at < 0:
        raise LookupError(f"{old!r} is not after {anchor!r}")
    return text[:at] + new + text[at + len(old):]


def run(name, path, anchor, old, new, work: Path):
    """(verdict, pytest's summary line) of one mutant."""
    copy = work / name
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", ".bench_work", ".hypothesis", ".pytest_cache",
        "__pycache__", "runs"))
    target = copy / path
    target.write_text(mutate(target.read_text(), anchor, old, new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    where = subprocess.run(
        [sys.executable, "-c", "import polyprime; print(polyprime.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(copy):
        raise RuntimeError(f"the copy imports {where.stdout.strip()}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *TESTS],
        cwd=copy, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else done.stderr.strip()[-200:]
    verdict = {0: "SURVIVED", 1: "killed"}.get(done.returncode, "ERROR")
    return verdict, re.sub(r"=+", "", summary).strip()


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if argv and len(chosen) != len(set(argv)):
        print(f"unknown mutant; choose from {[m[0] for m in MUTANTS]}")
        return 2
    worst = 0
    with tempfile.TemporaryDirectory(prefix="polyprime-mutants-") as tmp:
        for name, *spec in chosen:
            try:
                verdict, summary = run(name, *spec, Path(tmp))
            except (LookupError, RuntimeError) as err:
                verdict, summary = "ERROR", str(err)
            print(f"{name:26} {verdict:9} {summary}", flush=True)
            worst = max(worst, {"killed": 0, "SURVIVED": 1}.get(verdict, 2))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
