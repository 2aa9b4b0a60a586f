"""Output checks that take a route independent of the code they check.

Arithmetic statistics are recomputed with `sympy.factorint`, series
local factors by brute-force residue counts (and, for linear systems, by
the program's own inclusion-exclusion path, a different counting method
from the direct enumeration it uses at these sizes), and Gowers norms by
the Fourier identity ||f||_{U^2}^4 = sum |f^(xi)|^4.  Each check returns
a list of (name, ok, detail) tuples; the benchmark counts every entry as
one operation and every False as a failure.
"""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import sympy

BRUTE_FORCE_BELOW = 14  # primes whose unit-tuple counts are also enumerated
GOWERS_MULTIPLIER = 5  # the CLI's default --multiplier
GOWERS_REL_TOL = 1e-9


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _coeffs(cell):
    return [int(c) for c in cell.split(";")]


def _eval(coeffs, n):
    return sum(c * n ** i for i, c in enumerate(coeffs))


def _liouville(v):
    if v == 0:
        return 0
    return -1 if sum(sympy.factorint(abs(v)).values()) % 2 else 1


def _von_mangoldt(v):
    if abs(v) < 2:
        return 0.0
    f = sympy.factorint(abs(v))
    return math.log(next(iter(f))) if len(f) == 1 else 0.0


def _primes(w):
    return list(sympy.primerange(2, w + 1))


def _tuple_series(coeffs, shifts, w):
    """Single-polynomial (one shift) or tuple series by residue counting."""
    k = len(shifts)
    value = Fraction(1)
    for p in _primes(w):
        count = sum(1 for x in range(p)
                    if all(_eval(coeffs, x + l) % p for l in shifts))
        value *= Fraction(count * p ** (k - 1), (p - 1) ** k)
    return value


def _mean_row(aggregates, key, stats):
    """The aggregate row's estimate against fsum of the sample stats."""
    row = next(r for r in _rows(aggregates) if r["key"] == key)
    want = math.fsum(stats) / len(stats)
    return (f"aggregate {key}", row["estimate"] == repr(want),
            f"{row['estimate']} vs {want!r}")


def check_chowla(samples, aggregates, flags, picks):
    X, w = int(flags["X"]), int(flags["w"])
    rows = _rows(samples)
    out = [_mean_row(aggregates, "moment_1",
                     [float(r["stat"]) for r in rows])]
    for i in picks:
        r = rows[i]
        c = _coeffs(r["coeffs"])
        vals = [_eval(c, n) for n in range(1, X + 1)]
        stat = sum(_liouville(v) for v in vals) / math.sqrt(X)
        out.append((f"liouville sum, sample {r['sample_index']}",
                    repr(stat) == r["stat"], f"{r['stat']} vs {stat!r}"))
        zeros = sum(1 for v in vals if v == 0)
        out.append((f"zero evals, sample {r['sample_index']}",
                    str(zeros) == r["zero_evals"], r["zero_evals"]))
        series = _tuple_series(c, [0], w)
        out.append((f"series, sample {r['sample_index']}",
                    Fraction(r["series"]) == series, r["series"]))
    return out


def check_tuples(samples, aggregates, flags, picks):
    X, w = int(flags["X"]), int(flags["w"])
    shifts = [int(l) for l in flags["shifts"].split(",")]
    rows = _rows(samples)
    out = [_mean_row(aggregates, "moment_1",
                     [float(r["stat"]) for r in rows])]
    for i in picks:
        r = rows[i]
        c = _coeffs(r["coeffs"])
        series = _tuple_series(c, shifts, w)
        out.append((f"tuple series, sample {r['sample_index']}",
                    Fraction(r["series"]) == series, r["series"]))
        vm = {}
        terms = []
        for n in range(1, X + 1):
            v = 1.0
            for l in shifts:
                m = n + l
                if m not in vm:
                    vm[m] = _von_mangoldt(_eval(c, m))
                v *= vm[m]
                if v == 0.0:
                    break
            terms.append(v)
        stat = math.fsum(terms) / X - float(series)
        out.append((f"von Mangoldt tuple sum, sample {r['sample_index']}",
                    repr(stat) == r["stat"], f"{r['stat']} vs {stat!r}"))
    return out


def _unit_tuples_brute(ns, d, p):
    count = 0
    for idx in range(p ** (d + 1)):
        a = [(idx // p ** j) % p for j in range(d + 1)]
        if all(sum(a[j] * n ** j for j in range(d + 1)) % p for n in ns):
            count += 1
    return count


def linear_system_series(ns, f0, M, w, d):
    """(series, checks) with counts from inclusion-exclusion (direct_cap=0).

    Primes below BRUTE_FORCE_BELOW are also counted by brute force.
    """
    from polyprime.poly import count_unit_tuples_linear_system

    t = len(ns)
    value = Fraction(1)
    checks = []
    for p in _primes(w):
        if M % p == 0:
            ok = all(_eval(f0, n) % p for n in ns)
            value *= Fraction(p ** t, (p - 1) ** t) if ok else 0
            continue
        count = count_unit_tuples_linear_system(ns, d, p, direct_cap=0)
        if p < BRUTE_FORCE_BELOW:
            brute = _unit_tuples_brute(ns, d, p)
            checks.append((f"unit tuples mod {p}, brute force",
                           brute == count, f"{brute} vs {count}"))
        value *= Fraction(count * p ** t, p ** (d + 1) * (p - 1) ** t)
    return value, checks


def check_linear_forms(samples, aggregates, flags, picks):
    ns = [int(n) for n in flags["ns"].split(",")]
    f0 = _coeffs(flags["f0"])
    M, w, d = int(flags["M"]), int(flags["w"]), int(flags["d"])
    rows = _rows(samples)
    out = [_mean_row(aggregates, "mean", [float(r["stat"]) for r in rows])]
    series, counts = linear_system_series(ns, f0, M, w, d)
    out.extend(counts)
    want = [c % M for c in f0] + [0] * (d + 1 - len(f0))
    for i in picks:
        r = rows[i]
        c = _coeffs(r["coeffs"])
        out.append((f"linear system series, sample {r['sample_index']}",
                    Fraction(r["series"]) == series, r["series"]))
        out.append((f"residue class, sample {r['sample_index']}",
                    [x % M for x in c] == want and int(r["attempts"]) >= 1,
                    r["coeffs"]))
        prod = 1.0
        for n in ns:
            prod *= _von_mangoldt(_eval(c, n))
        out.append((f"von Mangoldt product, sample {r['sample_index']}",
                    repr(prod) == r["stat"], f"{r['stat']} vs {prod!r}"))
    return out


def _u2_average(arr):
    M = arr.shape[-1]
    return np.sum(np.abs(np.fft.fft(arr)) ** 4, axis=-1) / float(M) ** 4


def gowers_fft(values, s):
    """U^2 by the Fourier identity; U^3 as the mean over h of U^2 of
    f * shift_h f, all shifts at once."""
    arr = np.asarray(values, dtype=np.float64)
    if s == 2:
        avg = float(_u2_average(arr))
    elif s == 3:
        M = arr.shape[0]
        idx = (np.arange(M)[:, None] + np.arange(M)[None, :]) % M
        avg = float(np.mean(_u2_average(arr[None, :] * arr[idx])))
    else:
        raise ValueError("only s = 2 and s = 3 are checked")
    return max(avg, 0.0) ** (1.0 / 2 ** s)


def check_gowers(csv_text):
    out = []
    for r in _rows(csv_text):
        N, s = int(r["N"]), int(r["s"])
        M = sympy.nextprime(GOWERS_MULTIPLIER * N - 1)
        arr = np.zeros(M)
        for n in range(1, N + 1):
            arr[n] = _liouville(n)
        want = gowers_fft(arr, s)
        got = float(r["norm"])
        out.append((f"U^{s} of liouville on [1, {N}]",
                    abs(got - want) <= GOWERS_REL_TOL * max(abs(want), 1.0),
                    f"{got!r} vs {want!r}"))
    return out
