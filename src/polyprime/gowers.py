"""Gowers uniformity norms for real sequences at desk scale.

The U^s average of a real f on Z/MZ is the mean of the product of f over
all 2^s corners of the box (n; h_1..h_s).  Rather than loop over the full
(s+1)-dimensional grid, the average is peeled one h at a time down to
s = 2, which is a sum of squared cyclic autocorrelations:

    A_1(f) = (mean f)^2
    A_2(f) = (1/M^3) sum over h of c(h)^2,  c(h) = sum over n of f(n) f(n+h)
    A_s(f) = mean over h of A_{s-1}(f * shift_h f)        (s >= 3)

Both are exact rearrangements of the defining sum.  When the nonzero
values of f lie on an arc of L points of Z/MZ, c(h) can be nonzero only
at the lags h = k mod M with |k| < L, and one `np.correlate` of the arc
gives them all.  So the work is about L^s multiply-adds (L^2 for U^2, at
most 2L - 1 correlations of at most L^2 each for U^3), which is M^s at
full support, with one Python-level call per shift the peel visits above
s = 2 instead of one per (s-1)-tuple of shifts.  `check_budget` counts
M^s operations and M^(s-2) peel calls, whatever the support, so which
inputs it refuses depends on M and s alone.  The second cap, 10^6 calls,
means a small M at a large s (M = 3, s = 20 is within the M^s budget)
cannot run for hours.  For integer-valued f with |f| <= 1 and M^3 < 2^53
(OP_BUDGET allows U^2 only up to M = 70,710, where M^3 < 2^49),
every c(h), every c(h)^2 and their sum are exact in float64, so the U^2
average is the correctly rounded value of the rational sum c(h)^2 / M^3.
The average of a real function is provably nonnegative, so a materially
negative result is an arithmetic bug; tiny negatives from rounding are
clamped.

Interval norms come from embedding the values f(1..N) in Z/MZ with M
the least prime at least MULTIPLIER*N (zero padding kills wraparound),
and the cyclic value is reported without any further normalization.
"""

import itertools

import numpy as np

from .arith import least_prime_at_least, liouville_sieve, mobius_sieve
from .errors import BudgetError, ConsistencyError

# cap on M**s, the multiply-adds of the factored evaluation at full
# support; f on an arc of L points takes about L**s, but the cap counts M**s
OP_BUDGET = 5 * 10 ** 9
# cap on M**(s-2), the Python-level U^2 calls the peel makes at full
# support (~20 s); fewer are made on an arc, but the cap counts M**(s-2)
PEEL_CALL_CAP = 10 ** 6
# cap on the group size M itself, which bounds the arrays at s = 1
SIZE_CAP = 10 ** 7
# cap on the order s.  At M = 1 the caps above admit every s, and the
# peel recurses s - 2 calls deep; at M >= 2 this cap refuses nothing
# they admit, as 2**33 > OP_BUDGET.
S_CAP = 32
# the interval embedding's modulus is the least prime >= MULTIPLIER * N
MULTIPLIER = 5

# Each target by name, as size -> array f with f[n] its value at n for
# 0 <= n <= size.  The entries call the sieves through this module's
# globals, at call time.
TARGETS = {
    "one": lambda size: np.ones(size + 1),
    "delta": lambda size: np.arange(size + 1) == 1,  # 1 at n = 1 only
    "liouville": lambda size: liouville_sieve(size),
    "mobius": lambda size: mobius_sieve(size),
}


def _u_average(values: np.ndarray, s: int) -> float:
    # Only the arc [lo, hi] from the first nonzero entry to the last, of
    # L = hi - lo + 1 points, does work: c(h) can be nonzero only for
    # h = k mod M with |k| < L, so U^2 takes about L^2 multiply-adds and
    # the peel visits those shifts alone, in increasing h.  Every shift it
    # skips would add exactly 0.0, so the sum is the one over all M shifts.
    # Not an FFT: numpy's pocketfft allocates Bluestein scratch buffers on
    # the prime M that interval_embedding produces, raising peak memory.
    if s == 1:
        m = float(values.mean())
        return m * m
    nonzero = values.nonzero()[0]
    if nonzero.shape[0] == 0:
        return 0.0
    M = values.shape[0]
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    L = hi - lo + 1
    if s == 2:
        arc = values[lo:hi + 1]
        if 2 * L - 1 <= M:
            # No two lags |k| < L meet mod M: c is the arc's linear
            # autocorrelation, with L^2 multiply-adds.
            c = np.correlate(arc, arc, "full")
        else:
            # All M lags, the arc against the cycle read from lo on: at
            # full support this is f against its cycle extended by M - 1
            # values, M^2 multiply-adds.
            c = np.correlate(np.concatenate((values[lo:], values[:hi])), arc,
                             "valid")
        return float(np.dot(c, c)) / float(M) ** 3
    cycle = np.concatenate((values, values))
    acc = 0.0
    for h in itertools.chain(range(L), range(max(L, M - L + 1), M)):
        acc += _u_average(values * cycle[h:h + M], s - 1)
    return acc / M


def check_budget(M: int, s: int) -> None:
    """Refuse U^s on Z/MZ with a BudgetError when s exceeds S_CAP
    (checked first, so no power of M is taken at a huge s), when M^s
    exceeds OP_BUDGET, when, for s >= 3, the M^(s-2) calls of the peel
    exceed PEEL_CALL_CAP (each costs microseconds of Python however small
    M is), or when M exceeds SIZE_CAP (the arrays at s = 1, where M^s is
    only M).  These are the costs at full support; f on a shorter arc
    costs less, and is refused all the same.
    """
    if s > S_CAP:
        raise BudgetError(f"s: U^{s} is past the cap of s = {S_CAP}")
    if M ** s > OP_BUDGET:
        raise BudgetError(f"U^{s} on Z/{M}Z needs ~{M ** s} operations, "
                          f"over the budget of {OP_BUDGET}")
    if s > 2 and M ** (s - 2) > PEEL_CALL_CAP:
        raise BudgetError(f"U^{s} on Z/{M}Z peels through {M ** (s - 2)} "
                          f"calls, over the cap of {PEEL_CALL_CAP}")
    if M > SIZE_CAP:
        raise BudgetError(f"U^{s} on Z/{M}Z: the group is larger than the "
                          f"cap of {SIZE_CAP}")


def gowers_average(values, s: int) -> float:
    """The U^s box average of f, before the 2^(-s) exponent root;
    `check_budget` refuses it before any work."""
    if s < 1:
        raise ValueError("s must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError("values must be a nonempty 1-d sequence")
    check_budget(arr.shape[0], s)
    avg = _u_average(arr, s)
    scale = float(np.max(np.abs(arr))) ** (2 ** s)
    tol = 1e-12 * max(scale, 1.0)
    if avg < -tol:
        raise ConsistencyError(f"U^{s} average {avg} is negative beyond "
                               "rounding tolerance")
    return max(avg, 0.0)


def gowers_norm_cyclic(values, s: int) -> float:
    """U^s norm of a real sequence indexed by Z/MZ."""
    return gowers_average(values, s) ** (1.0 / 2 ** s)


def embedding_modulus(N: int) -> int:
    """The modulus M of the interval embedding: the least prime at least
    MULTIPLIER*N, so that no box with all corners in the support wraps
    around the cycle."""
    return least_prime_at_least(MULTIPLIER * N)


def interval_embedding(values):
    """Zero-padded image of the values (f(1), ..., f(N)) in Z/MZ, M the
    `embedding_modulus` of N: f(n) at n, 0 elsewhere."""
    N = len(values)
    if N < 1:
        raise ValueError("values must be a nonempty sequence")
    arr = np.zeros(embedding_modulus(N), dtype=np.float64)
    arr[1:N + 1] = values
    return arr


def gowers_norm_interval(values, s: int) -> float:
    """U^s norm of f on [1, N] from its values f(1..N), via the embedding."""
    return gowers_norm_cyclic(interval_embedding(values), s)
