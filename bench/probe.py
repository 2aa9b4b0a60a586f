"""Measurements that need a fresh interpreter.

    python3 bench/probe.py setup SRC
        seconds to import polyprime.cli and build its parser
    python3 bench/probe.py rss SRC ARGVS_JSON
        exit code of each CLI call, then the peak RSS in MiB of a process
        that ran only those calls

The peak RSS is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  getrusage's ru_maxrss would not do: Linux
carries it over exec from the process that spawned the probe, so it reads
the benchmark's own, larger, footprint.
"""

import sys
import time


def main():
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "setup":
        t0 = time.perf_counter()
        import polyprime.cli
        polyprime.cli.build_parser()
        print(repr(time.perf_counter() - t0))
        return 0
    if mode == "rss":
        import contextlib
        import io
        import json

        import polyprime.cli
        codes = []
        for argv in json.loads(sys.argv[3]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(polyprime.cli.main(argv))
        with open("/proc/self/status", encoding="ascii") as fh:
            peak_kib = next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:"))
        print(json.dumps({"codes": codes, "peak_rss_mb": peak_kib / 1024}))
        return 0
    print(f"unknown probe {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
