"""Integer arithmetic kernel.

Arithmetic functions are extended to all of Z by f(n) = f(-n), so both p
and -p count as prime.  At 0 the completely multiplicative conventions
break down; liouville and von_mangoldt return 0 there.  The kernels are
pure: they keep no state between calls, and the statistics that use them
count the zero values they meet themselves.

There is one route.  `liouville_many`, `von_mangoldt_many` and
`is_prime_many` take a whole list of values, such as f(1..X), and the
scalar `liouville`, `von_mangoldt` and `is_prime` are each the list of
one.  One split, `_split`, takes the list and gives every value, in
arrays with a row per value, a bound, the number of primes it divided
out (Omega of that part) and the rest m, and for von Mangoldt and
primality the least prime it divided out (or 0).  For Liouville
(full=True) the split divides out every prime below the bound, so m has
no prime factor below it.  It may stop early, once m is below the cube
of the next prime to test; the sieve then takes that prime as the
value's bound.  A cofactor 1 < m < bound**2 is
prime, and a composite m < bound**3 is a product of exactly two primes;
Miller-Rabin tells the two cases apart.  Only a cofactor m >= bound**3
needs more: Liouville factors it from the bound on, with the loop that
`factorize` runs after its trial division.  For von Mangoldt and
primality (full=False) a value stops at its least prime p, which it
divides out in full: |v| is a power of p iff the rest is 1, and prime
iff it is p.  A value with no small prime keeps its value as its rest
and is settled as a cofactor, and from m >= bound**3 on von Mangoldt
asks `perfect_power` whether a composite m is a power of a prime.

The split finds the small primes in one of two ways, chosen by size
because a float64 quotient is exact only below 2**52.  The values below
it are sieved together, in numpy, under a top bound B: the least power
of two >= 32 with B**3 above the largest of them, at most 2**16.  The
powers of two come off each value by bit operations, then the odd primes
p < B are tested in blocks: the 8 smallest first, then blocks as wide as
the buffer of 2**15 quotients allows.  For von Mangoldt and primality a
value's first hit is its least prime: one vectorised loop divides it
out of every such value at once, and the value leaves.  Most values
leave so in the first block, and Python touches only the cofactors and
the nonzero results.  For Liouville each hit is divided out in Python.
After each block a value also leaves once its rest is below the cube of
the next prime (the square, for von Mangoldt and primality); later
blocks widen as values leave.  A value that runs every block has bound
B.  A value of 2**52 or more, and every value of a list shorter than the
first block (a scalar call, say), is trial-divided by the primes below
1024, its bound, and stays out of the sieve: so few values would not pay
for numpy's fixed costs.

`factorize` trial-divides the same way, then splits what is left with
Miller-Rabin, perfect-power extraction and Brent's cycle-finding rho with
batched gcds, within RHO_BUDGET for each value it factors.  The budget
counts 64-bit words: a rho iteration on m costs ceil(m.bit_length() / 64),
which is 1 below 2**64, so it bounds time as well as iterations.
Exceeding it raises BudgetError instead of stalling.  Primality takes
one ladder: Jaeschke's (Math. Comp. 61, 1993) 3 and 4 bases below
1,122,004,669,633, and from there on Miller-Rabin followed by a strong
Lucas test, to base 2 below 2**64 (Baillie-PSW) and to the 13 primes to
41 above.  It is a proof below ~3.3e24 and at least as strict as
Baillie-PSW beyond.  Each kernel hands the cofactors it tests to one
call of `_miller_rabin_many` (Liouville: those below bound**3, the rest
it factors).  Once _MR_LANES of them are below 2**52, those are tested
together in numpy, where a float64 quotient and a wrapping int64 product
make each multiplication mod n exact: the bases in one pass per base,
then the strong Lucas test in one pass over the survivors from
1,122,004,669,633 on.  Only values of 2**52 or more, and the values of a
call with fewer lanes, are tested one at a time.  The experiments hand a
kernel the values of many samples at once, which is where the numpy
test pays.
"""

import bisect
import math
import random
from collections import Counter
import numpy as np

from .errors import BudgetError

# Most rho work spent on the cofactor of one value, in 64-bit words: an
# iteration on m costs ceil(m.bit_length() / 64), 1 below 2**64.
RHO_BUDGET = 10_000_000

# (bound, bases): Miller-Rabin takes the bases of the first row whose
# bound exceeds n, and from _LUCAS_FROM on a strong Lucas test follows
# them (see `_miller_rabin`).
_MR_BANDS = (
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (1 << 64, (2,)),
    (math.inf, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_LUCAS_FROM = _MR_BANDS[1][0]
# Fewest Miller-Rabin values below 2**52 that `_miller_rabin_many` tests
# in numpy rather than one at a time.  On the cofactors of quadratics near
# 1e14 and of lines near 1e9 the two routes cost the same at 128 values;
# at 192 numpy is 15-20% faster, at 512 about 2x.
_MR_LANES = 192


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


_TRIAL_BOUND = 1024
_TRIAL_PRIMES = tuple(int(p) for p in primes_upto(_TRIAL_BOUND))


def is_prime(n: int) -> bool:
    """Primality of |n|, as `is_prime_many([n])[0]`.

    A proof below ~3.3e24 and Baillie-PSW or stricter above (see
    `_miller_rabin`).
    """
    return is_prime_many([n])[0]


def _miller_rabin(n: int) -> bool:
    """Primality of odd n > 7: Miller-Rabin to the bases of the first row
    of _MR_BANDS whose bound exceeds n, then, from 1,122,004,669,633 on,
    `_strong_lucas`.

    Jaeschke's (Math. Comp. 61, 1993) 2, 7, 61 are a proof below
    4,759,123,141 and 2, 13, 23, 1662803 below 1,122,004,669,633.  No
    composite n divides a base of its row, so a base that is 0 mod n
    (skipped) is only ever met by a prime n.  Base 2 and the Lucas test
    make Baillie-PSW (Baillie and Wagstaff, Math. Comp. 35, 1980), and
    Feitsma's list of the base-2 strong pseudoprimes below 2**64, as
    checked by Gilchrist, holds no composite that passes it.  Above 2**64
    the 13 primes to 41 are a proof below ~3.3e24, where the Lucas test
    only repeats the answer; beyond, the test is Baillie-PSW with 12 more
    bases, deterministic and at least as strict.
    """
    for bound, bases in _MR_BANDS:
        if n < bound:
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _LUCAS_FROM or _strong_lucas(n)


def _miller_rabin_many(ms) -> list:
    """`_miller_rabin` of each of ms, odd and > 7.

    When at least _MR_LANES of them are below 2**52, those are tested
    together in numpy: `_strong_probable_many` runs the bases, and one
    `_strong_lucas_many` call the strong Lucas test on the survivors
    from 1,122,004,669,633 on, if there are any.  The others, and every
    value of a call with fewer such lanes, take the scalar test.
    """
    low = [m for m in ms if m < _FLOAT_EXACT]
    if len(low) < _MR_LANES:
        return [_miller_rabin(m) for m in ms]
    n = np.array(low, dtype=np.int64)
    passed = _strong_probable_many(n)
    lucas = (passed & (n >= _LUCAS_FROM)).nonzero()[0]
    if len(lucas):
        passed[lucas] = _strong_lucas_many(n[lucas])
    passed = iter(passed.tolist())
    # next(passed) is read once for each m below 2**52, in order.
    return [_miller_rabin(m) if m >= _FLOAT_EXACT else next(passed)
            for m in ms]


def _mulmod(x, y, n, nf):
    """x * y % n for int64 arrays with 0 <= x, y < n < 2**52; nf is n as
    float64.

    The quotient comes from float64 and is off from floor(x * y / n) by
    at most one either way, since x * y / n < 2**52.  So x * y - q * n
    lies in [-n, 2n), far inside int64, and the wrapping int64 products
    give it exactly; its remainder mod n corrects the quotient.
    """
    q = (x.astype(np.float64) * y / nf).astype(np.int64)
    return np.remainder(x * y - q * n, n)


def _strong_probable_many(n):
    """Whether each n, an int64 array of odd values 7 < n < 2**52, is a
    strong probable prime to every base of its row of _MR_BANDS: the
    Miller-Rabin part of `_miller_rabin`, in numpy.

    The j-th bases of all rows are tested in one pass, over the lanes that
    passed every earlier base and whose row has a j-th base; each pass
    keeps only those lanes.  A pass raises its bases to the odd part d of
    n - 1 from the top bit of the largest d down, squaring by `_mulmod`
    and multiplying by the base with np.remainder, exact because
    a * n < 2**63 in every row below 2**52; then it squares up to s - 1
    times, with n - 1 = d * 2**s, looking for n - 1.
    """
    bounds = [bound for bound, _ in _MR_BANDS if bound < _FLOAT_EXACT]
    rows = [bases for _, bases in _MR_BANDS[:len(bounds) + 1]]
    row = np.searchsorted(bounds, n, side="right")
    d = n - 1
    s = np.searchsorted(_POWERS_OF_TWO, d & -d)
    d >>= s
    nf = n.astype(np.float64)
    ok = np.zeros(len(n), dtype=bool)
    lane = np.arange(len(n))
    for j in range(max(map(len, rows))):
        if not len(lane):
            break
        a = np.array([bases[j] if j < len(bases) else 0
                      for bases in rows])[row]
        passed = _strong_probable(n, nf, a, d, s)
        more = np.array([j + 1 < len(bases) for bases in rows])[row]
        ok[lane[passed & ~more]] = True
        keep = passed & more
        lane, n, nf, d, s, row = (v[keep] for v in (lane, n, nf, d, s, row))
    return ok


def _strong_probable(n, nf, a, d, s):
    """One base of `_strong_probable_many`: whether n is a strong probable
    prime to base a, for n - 1 = d * 2**s with d odd.  A base that is 0
    mod n passes, as in `_miller_rabin`."""
    x = np.ones(len(n), dtype=np.int64)
    for k in range(int(d.max()).bit_length() - 1, -1, -1):
        x = _mulmod(x, x, n, nf)
        x = np.where((d >> k) & 1 == 1, np.remainder(x * a, n), x)
    minus = n - 1
    ok = (x == 1) | (x == minus) | (a % n == 0)
    live = (~ok).nonzero()[0]
    for r in range(1, int(s.max())):
        live = live[s[live] > r]
        if not len(live):
            break
        y = _mulmod(x[live], x[live], n[live], nf[live])
        x[live] = y
        hit = y == minus[live]
        ok[live[hit]] = True
        live = live[~hit]
    return ok


def _strong_lucas_many(n):
    """Whether each n, an int64 array of odd values _LUCAS_FROM <= n <
    2**52, passes `_strong_lucas`: the same test, in numpy.

    Squares are refused first, and each lane searches its D one at a
    time, as the scalar test does; D is so small against n that a D with
    (D/n) = 0 means composite.  The chain (U, V, Q**j) mod n then starts
    at j = 0, (0, 2, 1), and runs over every bit of the largest k, where
    n + 1 = k * 2**s with k odd: each step doubles j in every lane, and
    the lanes whose k has the bit also add 1 (np.where), halving mod n by
    adding n to an odd value.  A zero bit above a lane's top bit keeps
    (0, 2, 1).  Every product goes through `_mulmod`, with Q and 2Q
    reduced mod n first.  Then, as in `_strong_probable`, up to s - 1
    squarings of V run over the lanes not yet passed.
    """
    nf = n.astype(np.float64)
    root = np.rint(np.sqrt(nf)).astype(np.int64)
    ok = root * root != n
    D = np.zeros(len(n), dtype=np.int64)
    for i in ok.nonzero()[0].tolist():
        m, d = int(n[i]), 5
        while (j := _jacobi(d, m)) == 1:
            d = 2 - d if d < 0 else -d - 2
        ok[i], D[i] = j == -1, d
    lane = ok.nonzero()[0]
    n, nf = n[lane], nf[lane]
    q = np.remainder((1 - D[lane]) // 4, n)
    q2 = np.remainder(2 * q, n)
    k = n + 1
    s = np.searchsorted(_POWERS_OF_TWO, k & -k)
    k >>= s
    u = np.zeros(len(n), dtype=np.int64)
    v = np.full(len(n), 2, dtype=np.int64)
    qk = np.ones(len(n), dtype=np.int64)
    # U_2j = U_j V_j, V_2j = V_j**2 - 2 Q**j; with P = 1,
    # U_(j+1) = (U_j + V_j) / 2 and V_(j+1) = U_(j+1) - 2 Q U_j.
    for b in range(int(k.max(initial=0)).bit_length() - 1, -1, -1):
        u2 = _mulmod(u, v, n, nf)
        v = np.remainder(_mulmod(v, v, n, nf) - 2 * qk, n)
        qk = _mulmod(qk, qk, n, nf)
        h = np.remainder(u2 + v, n)
        h = (h + (h & 1) * n) >> 1
        add = (k >> b) & 1 == 1
        v = np.where(add, np.remainder(h - _mulmod(q2, u2, n, nf), n), v)
        u = np.where(add, h, u2)
        qk = np.where(add, _mulmod(qk, q, n, nf), qk)
    passed = (u == 0) | (v == 0)
    live = (~passed).nonzero()[0]
    for r in range(1, int(s.max(initial=0))):
        live = live[s[live] > r]
        if not len(live):
            break
        nl, nfl, ql = n[live], nf[live], qk[live]
        y = np.remainder(_mulmod(v[live], v[live], nl, nfl) - 2 * ql, nl)
        v[live], qk[live] = y, _mulmod(ql, ql, nl, nfl)
        hit = y == 0
        passed[live[hit]] = True
        live = live[~hit]
    ok[lane] = passed
    return ok


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n, with Selfridge's
    parameters (method A): P = 1 and Q = (1 - D) / 4 for the first D of
    5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1.

    A square n has no such D, so it is refused before the search; a D
    with (D/n) = 0 has a factor in common with n, which is then composite
    unless n divides D.  With n + 1 = k * 2**s, k odd, n passes when
    U_k = 0 or V_(k * 2**r) = 0 mod n for some 0 <= r < s.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # (U_j, V_j, Q**j) mod n from j = 1, doubling j and then adding the
    # next bit of k: U_2j = U_j V_j, V_2j = V_j**2 - 2 Q**j, and with
    # P = 1, U_(j+1) = (U_j + V_j) / 2 and V_(j+1) = U_(j+1) - 2 Q U_j.
    # After an added bit the three are left unreduced until the next
    # doubling.
    u = v = 1
    qk = Q
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u += v
            w = 2 * Q * (u - v)
            if u & 1:
                u += n
            u >>= 1
            v = u - w
            qk *= Q
    v %= n
    qk %= n
    if u % n == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by integer Newton iteration."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if k < 1:
        raise ValueError("iroot needs k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(m: int, bound: int = 2):
    """(base, exp) with m = base**exp, exp >= 2 maximal, else None.

    m must have no prime factor below bound (2, the default, asks
    nothing), so a base is at least bound.  The prime exponents p tried
    are those with p * (bound.bit_length() - 1) < m.bit_length(), which
    include every p with bound**p <= m.
    """
    if m < 4:
        return None
    width = max(bound.bit_length() - 1, 1)
    limit = -(-m.bit_length() // width)
    primes = _SIEVE_PRIMES_INT if limit < _SIEVE_CAP else \
        primes_upto(limit).tolist()
    for p in primes:
        if p >= limit:
            break
        r = iroot(m, p)
        if r ** p == m:
            sub = perfect_power(r, bound)
            if sub is not None:
                return sub[0], sub[1] * p
            return r, p
    return None


class _RhoState:
    __slots__ = ("budget",)

    def __init__(self, budget: int):
        self.budget = budget

    def spend(self, units: int, m: int) -> None:
        """Take units from the budget, or raise BudgetError naming m."""
        if self.budget < units:
            raise BudgetError("rho budget exhausted while splitting a "
                              f"{m.bit_length()}-bit cofactor")
        self.budget -= units


def _brent_rho(m: int, state: _RhoState) -> int:
    """A nontrivial factor of composite odd m, or BudgetError.  Each
    iteration costs the budget one unit per 64-bit word of m."""
    cost = -(-m.bit_length() // 64)
    rng = random.Random(m ^ 0x9E3779B97F4A7C15)
    while True:
        y = rng.randrange(1, m)
        c = rng.randrange(1, m)
        r = q = 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            state.spend(r * cost, m)
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                state.spend(batch * cost, m)
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                state.spend(cost, m)
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
        # cycle degenerated; retry with a fresh (y, c) pair


def factorize(n: int) -> tuple:
    """The factorization of |n| for n != 0, as the sorted tuple
    ((prime, exponent), ...); BudgetError past RHO_BUDGET."""
    if n == 0:
        raise ValueError("0 has no factorization")
    small, m = _trial_split(abs(n))
    found = Counter(small) + _factor_cofactor(m, _TRIAL_BOUND)
    return tuple(sorted(found.items()))


def _factor_cofactor(m: int, bound: int) -> Counter:
    """Prime factors of m >= 1, which has none below bound, as a Counter;
    Miller-Rabin, perfect powers and rho split m within RHO_BUDGET."""
    found = Counter()
    state = _RhoState(RHO_BUDGET)
    stack = [(m, 1)] if m > 1 else []
    while stack:
        m, mult = stack.pop()
        # Each entry is a divisor > 1 of the cofactor, so it is prime or
        # has no prime factor below the bound.
        if _cofactor_is_prime(m, bound):
            found[m] += mult
            continue
        pw = perfect_power(m, bound)
        if pw is not None:
            stack.append((pw[0], mult * pw[1]))
            continue
        d = _brent_rho(m, state)
        stack.append((d, mult))
        stack.append((m // d, mult))
    return found


def liouville(n: int) -> int:
    """(-1)**big_omega(|n|); 0 at n = 0.  As `liouville_many([n])[0]`."""
    return liouville_many([n])[0]


def von_mangoldt(n: int) -> float:
    """log p when |n| is a positive power of the prime p, else 0.0.

    0 at n = 0.  As `von_mangoldt_many([n])[0]`: RHO_BUDGET is never
    involved, because a Miller-Rabin test and a perfect-power test settle
    every cofactor.
    """
    return von_mangoldt_many([n])[0]


_SIEVE_CAP = 1 << 16
_SIEVE_PRIMES = primes_upto(_SIEVE_CAP)
_SIEVE_PRIMES_F = _SIEVE_PRIMES.astype(np.float64)
_SIEVE_PRIMES_INT = _SIEVE_PRIMES.tolist()
_SIEVE_CHUNK = 1 << 15  # elements per numpy block of the sieve
# Odd primes in a row chunk's first block, and also the fewest values
# sieved.  That threshold only has to separate the list sizes that were
# timed: a scalar call, which is trial-divided, from the values of a chunk
# of samples, which are sieved (36 for 12 linear-forms samples at three
# points, thousands for tuples or chowla samples).
_FIRST_BLOCK = 8
_FLOAT_EXACT = 1 << 52  # below this v / p == floor(v / p) iff p | v
_POWERS_OF_TWO = np.array([1 << k for k in range(52)], dtype=np.int64)


def _sieve_bound(top: int) -> int:
    """Least power of two B >= 32 with B**3 > top, capped at 2**16."""
    b = 32
    while b ** 3 <= top and b < _SIEVE_CAP:
        b *= 2
    return b


def _split(values, full: bool):
    """(bounds, first, omega, rest): each value split under a bound of its
    own, as arrays with a row per value.

    With full=True a row divides out every prime below bounds[i], and
    with full=False only the least prime that divides it, in full, after
    which it stops.  omega[i] is the number of primes divided out, counted
    with multiplicity, and rest[i] what is left of |v|.  The rest has no
    prime factor below the bound, or else it is a prime below the bound
    squared (a trial-divided row that stopped early).  A cofactor rest > 1
    is then prime if it is below bound**2, and a product of two primes if
    it is a composite below bound**3.  With full=False first[i] is the
    least prime divided out, or 0 if there is none; a row that stops at
    its first prime p has some bound above p, which the kernels do not
    read, and |v| is a power of p iff rest[i] is 1, and prime iff it is
    p.  With full=True first is None.  A zero value, and only a zero
    value, gives rest 0 (and first 0, omega 0).  rest is int64 when every
    value fits in int64, and holds Python ints otherwise.

    The values below 2**52 of a list of at least _FIRST_BLOCK values go
    through `_sieve` together.  A value of 2**52 or more, and every value
    of a shorter list (a scalar call, say), whose numpy passes would cost
    more than the divisions they replace, is trial-divided by
    `_trial_split` instead, with bound _TRIAL_BOUND; its rest is below
    _TRIAL_BOUND**2 unless it ran every prime below that bound.
    """
    try:
        signed = np.asarray(values, dtype=np.int64)
    except OverflowError:  # a value past int64: keep Python ints
        signed = np.array(values, dtype=object)
    if len(signed) >= _FIRST_BLOCK:
        if signed.dtype == object:
            mag = np.array([float(min(abs(v), _FLOAT_EXACT))
                            for v in signed])
        else:
            mag = np.abs(signed.astype(np.float64))
        high = mag >= _FLOAT_EXACT
        mag[high] = 0  # sieved as zeros, then trial-divided below
        bounds, first, omega, rest = _sieve(mag, full)
    else:
        high = np.ones(len(signed), dtype=bool)
        bounds, first, omega, rest = np.zeros((4, len(signed)),
                                              dtype=np.int64)
    # x.nonzero()[0] rather than np.flatnonzero(x): the wrapper costs about
    # 2 microseconds, paid several times in every call, scalar ones too.
    trial = high.nonzero()[0]
    if signed.dtype == object:
        rest = rest.astype(object)  # Python ints past int64
    for i in trial.tolist():
        small, rest[i] = _trial_split(abs(int(signed[i])), full)
        omega[i], bounds[i] = len(small), _TRIAL_BOUND
        if not full:
            first[i] = small[0] if small else 0
    return bounds, None if full else first, omega, rest


def _sieve(mag, full: bool):
    """`_split` of the magnitudes mag, floats below 2**52, in numpy.

    The rows are split under the top bound B, `_sieve_bound` of the
    largest of them.  A row takes as its bound the first prime it was not
    tested against, or B if it was tested against every prime below B or
    its rest was 0 or 1 before the odd primes (with full=False, a row
    that stops at a prime p keeps the bound it had then, above p).  With
    full=True it leaves after a block once its rest is below the cube of
    the next prime, so rest[i] < bounds[i]**3 unless bounds[i] == B: the
    rest is then 1, a prime or a product of two primes.  With full=False
    the square takes the place of the cube, so the rest of a row with no
    small prime is 1 or a prime unless bounds[i] == B.

    The powers of two come off every row first, by bit operations; with
    full=False an even row stops there.  The odd primes are then tested
    on chunks of at most _SIEVE_CHUNK rows: first the _FIRST_BLOCK
    smallest, then blocks as wide as _SIEVE_CHUNK // rows allows, a cap
    the first block obeys too.  Each block widens as rows leave.  A float
    copy of each row's rest decides who leaves in one vectorised
    comparison per block.  With full=False the first hit of a row, in
    row-major order, is its least prime; the row leaves, and at the
    end one vectorised loop divides each row's least prime out of it.
    With full=True each hit is divided out in Python and the float rest
    updated.  One float buffer holds a block's quotients and their
    floors, and it and the mask grow to what the later blocks need.

    p | v is tested as v / p == floor(v / p) in float64.  That is exact
    below 2**52: if p does not divide v, v / p is at least 1/p from every
    integer, which is more than half an ulp of v / p.
    """
    ints = mag.astype(np.int64)
    top = _sieve_bound(int(ints.max(initial=0)))
    bit = ints & -ints  # the power of two in |v|, 0 at 0
    odd = mag / np.maximum(bit, 1)
    rest = odd.astype(np.int64)
    omega = np.searchsorted(_POWERS_OF_TWO, bit)
    even = odd < mag
    go = odd > 1
    if full:
        bounds = np.full(len(ints), top)
    else:  # an even row stops at 2
        bounds, first = np.where(even, 3, top), np.where(even, 2, 0)
        go &= ~even
    rows = go.nonzero()[0]
    v = odd[rows]
    if full:
        rest_l, omega_l = rest.tolist(), omega.tolist()
    count = bisect.bisect_left(_SIEVE_PRIMES_INT, top)
    buf = mask = np.empty(0)
    for r0 in range(0, len(rows), _SIEVE_CHUNK):
        cr, cv = rows[r0:r0 + _SIEVE_CHUNK], v[r0:r0 + _SIEVE_CHUNK]
        c0, width = 1, _FIRST_BLOCK  # _SIEVE_PRIMES[0] is 2
        while c0 < count and len(cr):
            c1 = min(c0 + min(width, _SIEVE_CHUNK // len(cr)), count)
            size = len(cr) * (c1 - c0)
            if size > len(mask):  # grow to what this block and later ones need
                cap = min(_SIEVE_CHUNK, len(cr) * min(width, count - c0))
                buf, mask = np.empty(2 * cap), np.empty(cap, dtype=bool)
            qb = buf[:size].reshape(len(cr), c1 - c0)
            fb = buf[len(mask):len(mask) + size].reshape(qb.shape)
            mb = mask[:size].reshape(qb.shape)
            np.divide(cv[:, None], _SIEVE_PRIMES_F[c0:c1], out=qb)
            np.floor(qb, out=fb)
            np.equal(qb, fb, out=mb)
            hit_rows, hit_cols = np.divmod(mask[:size].nonzero()[0], c1 - c0)
            if full and len(hit_rows):
                for i, j in zip(cr[hit_rows].tolist(), hit_cols.tolist()):
                    p = _SIEVE_PRIMES_INT[c0 + j]
                    m = rest_l[i]
                    while m % p == 0:
                        omega_l[i] += 1
                        m //= p
                    rest_l[i] = m
                cv[hit_rows] = [rest_l[i] for i in cr[hit_rows].tolist()]
            if c1 < count:
                # A rest below the next prime squared is 1 or a prime, and
                # one below its cube is 1, a prime or a product of two.
                keep = cv >= _SIEVE_PRIMES_F[c1] ** (3 if full else 2)
                bounds[cr[~keep]] = _SIEVE_PRIMES[c1]
            if not full and len(hit_rows):
                # A row's first hit, in row-major order, is its least
                # prime: hit_rows ascends, so searchsorted finds it.
                lead = hit_cols[np.searchsorted(hit_rows, hit_rows)]
                first[cr[hit_rows]] = _SIEVE_PRIMES[c0:c1][lead]
                if c1 < count:
                    keep[hit_rows] = False
            if c1 == count:
                break
            cr, cv = cr[keep], cv[keep]
            c0, width = c1, count
    if full:
        rest, omega = (np.array(a, dtype=np.int64) for a in (rest_l, omega_l))
        return bounds, None, omega, rest
    # Divide each odd row's least prime out, in full, at once.
    i = (first > 2.0).nonzero()[0]
    if len(i):
        rest[i], omega[i] = _divide_out(odd[i], first[i].astype(np.float64))
    return bounds, first, omega, rest


def _divide_out(v, p):
    """(v / p**k, k) for each v, where p**k is the full power of the prime
    p dividing v; every value is an integer below 2**52."""
    left = v / p
    more, lm, pm = np.arange(len(v)), left, p
    while len(more):
        t = lm / pm
        again = t == np.floor(t)
        more, lm, pm = more[again], t[again], pm[again]
        left[more] = lm
    # v / left is p**k exactly, so the rounded ratio of logs is k.
    return left, np.rint(np.log(v / left) / np.log(p))


def _trial_split(m: int, full: bool = True):
    """(small, rest) of m >= 1 by trial division below _TRIAL_BOUND.

    small lists the primes dividing m, ascending and each repeated by
    its multiplicity, and rest is m divided by all of them.  Division
    stops once p * p > rest, so rest is 1, a prime, or free of primes
    below _TRIAL_BOUND.  With full=False it also stops after the first
    prime that divides m, as a row of `_split` stops.
    """
    small = []
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            while m % p == 0:
                small.append(p)
                m //= p
            if not full:
                break
    return small, m


def _cofactor_is_prime(m: int, bound: int) -> bool:
    """Primality of m > 1 with no prime factor below min(bound, m**0.5)."""
    return m < bound * bound or _miller_rabin(m)


def _cofactors_prime(bounds, ms) -> list:
    """`_cofactor_is_prime(m, b)` for each b of bounds and m of ms, with
    one `_miller_rabin_many` call for all the m it tests."""
    tested = iter(_miller_rabin_many([m for b, m in zip(bounds, ms)
                                      if m >= b * b]))
    # next(tested) is read once for each m >= b * b, in order.
    return [m < b * b or next(tested) for b, m in zip(bounds, ms)]


def _at(rows, *arrays):
    """The entries of each array at rows, as lists of Python ints."""
    return (a[rows].tolist() for a in arrays)


# The kernels compare the split's integer arrays with the float literals
# 0.0 and 1.0.  The answers are exact, since no other integer converts to
# either, and numpy runs the float comparisons the sieve already runs
# instead of paging in its int64 ones.

def liouville_many(values) -> list:
    """(-1)**big_omega(|v|) for each of values; 0 for a zero value.

    Each cofactor of B**3 or more is factored from B on (no second trial
    division) within a RHO_BUDGET of its own.
    """
    bounds, _, omega, rest = _split(values, full=True)
    big = rest >= bounds ** 3
    rows = ((rest > 1.0) & ~big).nonzero()[0]
    ks, bs, ms = _at(rows, omega, bounds, rest)
    omega[rows] = [k + (1 if prime else 2)
                   for k, prime in zip(ks, _cofactors_prime(bs, ms))]
    rows = big.nonzero()[0]
    omega[rows] = [k + sum(_factor_cofactor(m, b).values())
                   for k, b, m in zip(*_at(rows, omega, bounds, rest))]
    return np.where(rest == 0.0, 0, np.where(omega % 2, -1, 1)).tolist()


def von_mangoldt_many(values) -> list:
    """log p for each of values that is +-p**k (p prime, k >= 1), else 0.0."""
    bounds, first, _, rest = _split(values, full=False)
    out = np.zeros(len(rest))
    cofactor = first == 0.0
    powers = (~cofactor & (rest == 1.0)).nonzero()[0]
    out[powers] = [math.log(p) for p in first[powers].tolist()]
    rows = (cofactor & (rest > 1.0)).nonzero()[0]
    bs, ms = _at(rows, bounds, rest)
    logs = []
    for b, m, prime in zip(bs, ms, _cofactors_prime(bs, ms)):
        if prime:
            p = m
        elif m < b ** 3:
            r = math.isqrt(m)
            p = r if r * r == m else 1
        else:
            # A maximal exponent leaves a base that is no power.
            pw = perfect_power(m, b)
            p = pw[0] if pw is not None and _cofactor_is_prime(pw[0], b) \
                else 1
        logs.append(math.log(p))  # 0.0 when p is 1
    out[rows] = logs
    return out.tolist()


def is_prime_many(values) -> list:
    """Primality of |v| for each of values."""
    bounds, first, omega, rest = _split(values, full=False)
    flags = (omega == 1.0) & (rest == 1.0)  # |v| is its least prime
    rows = ((first == 0.0) & (rest > 1.0)).nonzero()[0]
    flags[rows] = _cofactors_prime(*_at(rows, bounds, rest))
    return flags.tolist()


def liouville_sieve(n: int) -> np.ndarray:
    """Array L with L[m] = liouville(m) for 0 <= m <= n (L[0] = 0).

    Vectorized: multiply a sign in for every prime power p**k <= n.
    """
    lam = np.ones(n + 1, dtype=np.int8)
    if n >= 0:
        lam[0] = 0
    for p in primes_upto(n):
        pk = int(p)
        while pk <= n:
            lam[pk:: pk] *= -1
            pk *= int(p)
    return lam


def mobius_sieve(n: int) -> np.ndarray:
    """Array M with M[m] the Mobius function of m, 0 <= m <= n (M[0] = 0)."""
    mu = np.ones(n + 1, dtype=np.int8)
    if n >= 0:
        mu[0] = 0
    for p in primes_upto(n):
        p = int(p)
        mu[p:: p] *= -1
        if p * p <= n:
            mu[p * p:: p * p] = 0
    return mu


def least_prime_at_least(n: int) -> int:
    """Smallest prime >= n."""
    m = max(n, 2)
    while not is_prime(m):
        m += 1
    return m
