"""Gowers uniformity norms for real sequences at desk scale.

The U^s average of a real f on Z/MZ is the mean of the product of f over
all 2^s corners of the box (n; h_1..h_s).  Rather than loop over the full
(s+1)-dimensional grid, the average is peeled one h at a time down to
s = 2, which is a sum of squared cyclic autocorrelations:

    A_1(f) = (mean f)^2
    A_2(f) = (1/M^3) sum over h of c(h)^2,  c(h) = sum over n of f(n) f(n+h)
    A_s(f) = mean over h of A_{s-1}(f * shift_h f)        (s >= 3)

Both are exact rearrangements of the defining sum.  All M values of c come
from one `np.correlate` call, so the work is still about M^s
multiply-adds (M^2 for U^2, M correlations of M^2 each for U^3), with one
Python-level call per shift above s = 2 instead of one per (s-1)-tuple of
shifts.  For integer-valued f with |f| <= 1 and M^3 < 2^53 (the default
budget allows U^2 only up to M = 70,710, where M^3 < 2^49), every c(h),
every c(h)^2 and their sum are exact in float64, so the U^2 average is the
correctly rounded value of the rational sum c(h)^2 / M^3.  The average of
a real function is provably nonnegative, so a materially negative result
is an arithmetic bug; tiny negatives from rounding are clamped.

Interval norms come from embedding the truncated sequence in Z/MZ with M
the least prime at least 5N (zero padding kills wraparound), and the
cyclic value is reported without any further normalization.
"""

import numpy as np

from .arith import least_prime_at_least
from .errors import BudgetError, ConsistencyError

# cap on the ~M**s multiplications the factored evaluation performs
DEFAULT_OP_BUDGET = 5 * 10 ** 9


def _u_average(values: np.ndarray, s: int) -> float:
    # The peel stops at s = 2, where one correlation of f against its cycle
    # extended by M - 1 values gives every c(h): M^2 multiply-adds in C.
    # Not an FFT: numpy's pocketfft allocates Bluestein scratch buffers on
    # the prime M that interval_embedding produces, raising peak memory.
    if s == 1:
        m = float(values.mean())
        return m * m
    M = values.shape[0]
    if s == 2:
        c = np.correlate(np.concatenate((values, values[:-1])), values,
                         "valid")
        return float(np.dot(c, c)) / float(M) ** 3
    acc = 0.0
    for h in range(M):
        acc += _u_average(values * np.roll(values, -h), s - 1)
    return acc / M


def gowers_average(values, s: int,
                   op_budget: int = DEFAULT_OP_BUDGET) -> float:
    """The U^s box average of f, before the 2^(-s) exponent root."""
    if s < 1:
        raise ValueError("s must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError("values must be a nonempty 1-d sequence")
    M = arr.shape[0]
    if M ** s > op_budget:
        raise BudgetError(f"U^{s} on Z/{M}Z needs ~{M ** s} operations, "
                          f"over the budget of {op_budget}")
    avg = _u_average(arr, s)
    scale = float(np.max(np.abs(arr))) ** (2 ** s)
    tol = 1e-12 * max(scale, 1.0)
    if avg < -tol:
        raise ConsistencyError(f"U^{s} average {avg} is negative beyond "
                               "rounding tolerance")
    return max(avg, 0.0)


def gowers_norm_cyclic(values, s: int,
                       op_budget: int = DEFAULT_OP_BUDGET) -> float:
    """U^s norm of a real sequence indexed by Z/MZ."""
    avg = gowers_average(values, s, op_budget=op_budget)
    return avg ** (1.0 / 2 ** s)


def interval_embedding(func, N: int, multiplier: int = 5):
    """Zero-padded image of (f(1), ..., f(N)) in Z/MZ.

    M is the least prime at least multiplier*N, so that no box with all
    corners in the support wraps around the cycle.  Returns (array, M).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if multiplier < 2:
        raise ValueError("multiplier must be >= 2")
    M = least_prime_at_least(multiplier * N)
    arr = np.zeros(M, dtype=np.float64)
    for n in range(1, N + 1):
        arr[n] = func(n)
    return arr, M


def gowers_norm_interval(func, N: int, s: int, multiplier: int = 5,
                         op_budget: int = DEFAULT_OP_BUDGET) -> float:
    """U^s norm of f truncated to [1, N], via the cyclic embedding."""
    arr, _ = interval_embedding(func, N, multiplier=multiplier)
    return gowers_norm_cyclic(arr, s, op_budget=op_budget)
