"""Integer arithmetic kernel.

Arithmetic functions are extended to all of Z by f(n) = f(-n), so both p
and -p count as prime.  At 0 the completely multiplicative conventions
break down; liouville and von_mangoldt return 0 there.  The kernels are
pure: they keep no state between calls, and the statistics that use them
count the zero values they meet themselves.

There is one route.  `liouville_many`, `von_mangoldt_many` and
`is_prime_many` take a whole list of values, such as f(1..X), and the
scalar `liouville`, `von_mangoldt` and `is_prime` are each the list of
one.  One split, `_split`, takes the list and splits every value, under
a bound of its own, into the primes p below that bound that divide it
and a cofactor m with no prime factor below it.  The split may stop
early, once m is below the cube of the next prime to test (for von
Mangoldt and primality, its square); the sieve then takes that prime as
the value's bound.  A cofactor 1 < m < bound**2 is prime, and a
composite m < bound**3 is a product of exactly two primes; Miller-Rabin
tells the two cases apart.  Only a cofactor m >= bound**3 needs more:
Liouville factors it from the bound on, with the loop that `factorize`
runs after its trial division, and von Mangoldt runs Miller-Rabin and
asks `perfect_power` whether a composite m is a power of a prime.  For
von Mangoldt and primality a value's split stops after its first small
prime, which settles the answer.

The split finds the small primes in one of two ways, chosen by size
because a float64 quotient is exact only below 2**52.  The values below
it are sieved together, under a top bound B: the least power of two
>= 32 with B**3 above the largest of them, at most 2**16.  The powers
of two come off each value by bit operations, then numpy tests the odd
primes p < B in blocks: the 8 smallest first, then blocks as wide as its
buffer of 2**15 quotients allows.  After each block a value leaves once
its cofactor is below the cube of the next prime (the square, for von
Mangoldt and primality), and for von Mangoldt and primality the values
that a small prime settles, most of them, leave before the wide blocks;
later blocks widen as values leave.
A value that runs every block has bound B.  A value of 2**52 or more is
trial-divided by the primes below 1024, its bound, and stays out of the
sieve.

`factorize` trial-divides the same way, then splits what is left with
Miller-Rabin, perfect-power extraction and Brent's cycle-finding rho with
batched gcds, within RHO_BUDGET for each value it factors.  The budget
counts 64-bit words: a rho iteration on m costs ceil(m.bit_length() / 64),
which is 1 below 2**64, so it bounds time as well as iterations.
Exceeding it raises BudgetError instead of stalling.  Miller-Rabin
takes the smallest base set proven for the size of n: Jaeschke's (Math.
Comp. 61, 1993) sets of 3 to 6 bases below 3,474,749,660,383, base 2
and a strong Lucas test (Baillie-PSW) below 2**64, and 13 fixed
witnesses below ~3.3e24, each a proof there.
"""

import math
import random
from collections import Counter
from itertools import chain
import numpy as np

from .errors import BudgetError

# Most rho work spent on the cofactor of one value, in 64-bit words: an
# iteration on m costs ceil(m.bit_length() / 64), 1 below 2**64.
RHO_BUDGET = 10_000_000

# (bound, bases): below each bound its bases make Miller-Rabin a proof.
# The first four bounds are the least composites that pass all of their
# bases (Jaeschke 1993).  Below 2**64 base 2 is followed by a strong Lucas
# test (Baillie-PSW), which no composite there passes.
_MR_BANDS = (
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (1 << 64, (2,)),
)
_BPSW_FROM, _BPSW_BOUND = _MR_BANDS[-2][0], _MR_BANDS[-1][0]
_MR_DET_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DET_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_ROUNDS = 64


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

    Deterministic below ~3.3e24 and reproducible above (see
    `_miller_rabin`).
    """
    return is_prime_many([n])[0]


def _miller_rabin(n: int) -> bool:
    """Primality of odd n > 7 by Miller-Rabin with the smallest proven
    base set for n, and a strong Lucas test from 3,474,749,660,383 on.

    The bases are those of the first band of _MR_BANDS whose bound
    exceeds n: Jaeschke's (Math. Comp. 61, 1993) 2, 7, 61 below
    4,759,123,141; 2, 13, 23, 1662803 below 1,122,004,669,633; the
    primes to 11 below 2,152,302,898,747 and to 13 below
    3,474,749,660,383.  No composite n divides a base of its band, so a
    base that is 0 mod n (skipped) is only ever met by a prime n.  From
    3,474,749,660,383 to 2**64 the one base 2 is followed by
    `_strong_lucas`: that is the Baillie-PSW test (Baillie and Wagstaff,
    Math. Comp. 35, 1980), and Feitsma's list of the base-2 strong
    pseudoprimes below 2**64, as checked by Gilchrist, holds no composite
    that passes it.  Above 2**64 the 13 fixed witnesses are a proof below
    ~3.3e24; beyond that they are topped up with 64 extra bases drawn
    from a generator seeded by n itself, so the answer is still
    reproducible run to run.
    """
    for bound, bases in _MR_BANDS:
        if n < bound:
            break
    else:
        bases = _MR_DET_WITNESSES
        if n >= _MR_DET_BOUND:
            rng = random.Random(n ^ 0xD1B54A32D192ED03)
            bases = chain(bases, (rng.randrange(2, n - 1)
                                  for _ in range(_MR_EXTRA_ROUNDS)))
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
    return not _BPSW_FROM <= n < _BPSW_BOUND or _strong_lucas(n)


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


def perfect_power(m: int):
    """(base, exp) with m = base**exp, exp >= 2 maximal, else None."""
    if m < 4:
        return None
    for p in _TRIAL_PRIMES:
        if p > m.bit_length():
            break
        r = iroot(m, p)
        if r ** p == m:
            sub = perfect_power(r)
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
        pw = perfect_power(m)
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
_FIRST_BLOCK = 8  # odd primes in a row chunk's first block
_FLOAT_EXACT = 1 << 52  # below this v / p == floor(v / p) iff p | v


def _sieve_bound(top: int) -> int:
    """Least power of two B >= 32 with B**3 > top, capped at 2**16."""
    b = 32
    while b ** 3 <= top and b < _SIEVE_CAP:
        b *= 2
    return b


def _split(values, full: bool):
    """(bounds, small, rest): each value split under a bound of its own.

    small[i] lists the primes below bounds[i] dividing values[i], in
    ascending order and each repeated by its multiplicity, and rest[i] is
    |v| divided by all of them, so it has no prime factor below
    bounds[i], or else (a trial-divided row that stopped early) it is a
    prime below bounds[i]**2.  A cofactor rest > 1 is then prime if it is
    below bound**2, and a product of two primes if it is a composite
    below bound**3.  A zero value, and only a zero value, gives rest 0
    (and small []).  With full=False a row also stops after the block of
    primes in which it first has a hit, so its small[i] and rest[i] stop
    there, with any rest; a trial-divided row stops after that prime, and
    its rest may keep prime factors below its bound.  That settles von
    Mangoldt and primality: the row's first prime p is divided out in
    full, so |v| is a power of p iff rest[i] is 1 and small[i] holds p
    alone.

    A row of |v| < 2**52 is sieved with the others below 2**52 under the
    top bound B, `_sieve_bound` of the largest of them.  Its bounds[i] is
    the first prime it was not tested against, or B if it was tested
    against every prime below B or its rest was 0 or 1 before the odd
    primes.  With full=True it leaves after a block once its rest is below
    the cube of the next prime, so rest[i] < bounds[i]**3 unless
    bounds[i] == B: the rest is then 1, a prime or a product of two
    primes.  With full=False the square takes the place of the cube, so
    the rest of a row with no hit is 1 or a prime unless bounds[i] == B.
    A row of 2**52 and more is trial-divided by `_trial_split` instead,
    with bound _TRIAL_BOUND, and stays out of the sieve; its rest is below
    _TRIAL_BOUND**2 unless it ran every prime below that bound.

    The sieve runs as follows.  The powers of two come off every value
    first, by bit operations; with full=False an even row leaves there,
    with bound 3.  The odd primes are then tested in numpy, on chunks of
    at most _SIEVE_CHUNK rows: first the _FIRST_BLOCK smallest, then
    blocks as wide as _SIEVE_CHUNK // rows allows, a cap the first block
    obeys too.  Each block widens as rows leave.  A float copy of each
    row's rest, updated at its hits, decides who leaves in one vectorised
    comparison per block.  The buffers are made once, sized to the call.

    p | v is tested as v / p == floor(v / p) in float64.  That is exact
    below 2**52: if p does not divide v, v / p is at least 1/p from every
    integer, which is more than half an ulp of v / p.
    """
    mags = [abs(int(v)) for v in values]
    top = _sieve_bound(max((m for m in mags if m < _FLOAT_EXACT), default=0))
    twos = [((m & -m) >> 1).bit_length() for m in mags]  # 0 at m = 0
    small = [[2] * k for k in twos]
    rest = [m >> k for m, k in zip(mags, twos)]
    bounds = np.array([top if full or not k else 3 for k in twos],
                      dtype=np.int64)
    for i, m in enumerate(mags):
        if m >= _FLOAT_EXACT:
            small[i], rest[i] = _trial_split(m, full)
            bounds[i] = _TRIAL_BOUND
    count = int(np.searchsorted(_SIEVE_PRIMES, top))
    q = np.empty(min(_SIEVE_CHUNK, len(mags) * count))
    fl = np.empty_like(q)
    mask = np.empty(len(q), dtype=bool)
    for r0 in range(0, len(mags), _SIEVE_CHUNK):
        rows = np.array([i for i in range(r0, min(r0 + _SIEVE_CHUNK,
                                                  len(mags)))
                         if rest[i] > 1 and (full or not small[i])
                         and mags[i] < _FLOAT_EXACT],
                        dtype=np.int64)
        v = np.array([float(rest[i]) for i in rows.tolist()])[:, None]
        c0, width = 1, _FIRST_BLOCK  # _SIEVE_PRIMES[0] is 2
        while c0 < count and len(rows):
            c1 = min(c0 + min(width, _SIEVE_CHUNK // len(rows)), count)
            size = len(rows) * (c1 - c0)
            qb = q[:size].reshape(len(rows), c1 - c0)
            fb = fl[:size].reshape(qb.shape)
            mb = mask[:size].reshape(qb.shape)
            np.divide(v, _SIEVE_PRIMES_F[c0:c1], out=qb)
            np.floor(qb, out=fb)
            np.equal(qb, fb, out=mb)
            hit_rows, hit_cols = np.divmod(np.flatnonzero(mb), c1 - c0)
            for i, j in zip(rows[hit_rows].tolist(), hit_cols.tolist()):
                p = _SIEVE_PRIMES_INT[c0 + j]
                m = rest[i]
                while m % p == 0:
                    small[i].append(p)
                    m //= p
                rest[i] = m
            if c1 == count:
                break
            if full:  # with full=False the rows with a hit leave anyway
                v[hit_rows, 0] = [rest[i] for i in rows[hit_rows].tolist()]
            # A rest below the next prime squared is 1 or a prime, and one
            # below its cube is 1, a prime or a product of two primes.
            keep = v[:, 0] >= _SIEVE_PRIMES_F[c1] ** (3 if full else 2)
            if not full:
                keep[hit_rows] = False
            bounds[rows[~keep]] = _SIEVE_PRIMES[c1]
            rows, v = rows[keep], v[keep]
            c0, width = c1, count
    return bounds.tolist(), small, rest


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


def liouville_many(values) -> list:
    """(-1)**big_omega(|v|) for each of values; 0 for a zero value.

    Each cofactor of B**3 or more is factored from B on (no second trial
    division) within a RHO_BUDGET of its own.
    """
    out = []
    for bound, ps, m in zip(*_split(values, full=True)):
        if m == 0:
            out.append(0)
            continue
        omega = len(ps)
        if m >= bound ** 3:
            omega += sum(_factor_cofactor(m, bound).values())
        elif m > 1:
            omega += 1 if _cofactor_is_prime(m, bound) else 2
        out.append(-1 if omega % 2 else 1)
    return out


def von_mangoldt_many(values) -> list:
    """log p for each of values that is +-p**k (p prime, k >= 1), else 0.0."""
    out = []
    for bound, ps, m in zip(*_split(values, full=False)):
        p = None
        if ps:
            if m == 1 and ps[0] == ps[-1]:  # ps ascends: one prime
                p = ps[0]
        elif m > 1:
            if _cofactor_is_prime(m, bound):
                p = m
            elif m < bound ** 3:
                r = math.isqrt(m)
                p = r if r * r == m else None
            else:
                # A maximal exponent leaves a base that is no power.
                pw = perfect_power(m)
                if pw is not None and _cofactor_is_prime(pw[0], bound):
                    p = pw[0]
        out.append(math.log(p) if p is not None else 0.0)
    return out


def is_prime_many(values) -> list:
    """Primality of |v| for each of values."""
    # With a small prime hit, |v| is prime only if it is that prime.
    return [len(ps) == 1 and m == 1 if ps
            else m > 1 and _cofactor_is_prime(m, bound)
            for bound, ps, m in zip(*_split(values, full=False))]


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
