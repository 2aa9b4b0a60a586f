"""Integer arithmetic kernel.

Arithmetic functions are extended to all of Z by f(n) = f(-n), so both p
and -p count as prime.  At 0 the completely multiplicative conventions
break down; liouville, mobius, von_mangoldt and theta all return 0 there
by convention and bump a module-level audit counter so experiment drivers
can report how often the sentinel was hit.

There are two routes to the same answers.

The scalar route (`factorize`, `is_prime`, `liouville`, `von_mangoldt`)
takes one integer at a time.  Factoring strategy, in order: trial
division by primes below 1024, a deterministic Miller-Rabin test,
perfect-power extraction, then Brent's cycle-finding rho with batched
gcds under an explicit iteration budget.  Exceeding the budget raises
FactorBudgetError instead of stalling.  Miller-Rabin picks its bases by
the size of n: 2, 3, 5, 7 below 3,215,031,751, Sinclair's seven bases
below 2**64 and 13 fixed witnesses below ~3.3e24, each a proof there.

The batched route (`liouville_many`, `von_mangoldt_many`,
`is_prime_many`) takes a whole list of values, such as f(1..X), and is
what the experiments use.  It picks a sieve bound B from the largest
value (the least power of two >= 32 with B**3 above it, at most 2**16),
finds every prime p < B dividing each value in numpy blocks, and
divides those out.  Every prime factor of the cofactor m left over is
then above B, so m < B**2 is prime, and a composite m < B**3 is a product
of exactly two primes.  Only composites m >= B**3 reach `factorize`.
For von Mangoldt and primality a value leaves the sieve after the block
of its first hit, which settles the answer.  The float64 divisibility
test of the sieve is exact below 2**52; values of 2**52 and more take
the scalar route one at a time.  The scalar functions also stay as the
test oracle.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import FactorBudgetError

DEFAULT_RHO_BUDGET = 10_000_000

# Below each bound its bases make Miller-Rabin a proof.
_MR_SMALL_BOUND = 3_215_031_751
_MR_SMALL_BASES = (2, 3, 5, 7)
_MR_64_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_DET_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DET_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_ROUNDS = 64


class _ZeroAudit:
    """Counts how many times an arithmetic function was asked about 0."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def reset(self) -> int:
        c = self.count
        self.count = 0
        return c


zero_audit = _ZeroAudit()


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


_TRIAL_PRIMES = tuple(int(p) for p in primes_upto(1024))


def _mr_round(n: int, d: int, s: int, a: int) -> bool:
    """One Miller-Rabin round; True means `a` says probably prime."""
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of |n|: trial division below 1024, then Miller-Rabin.

    Deterministic below ~3.3e24 and reproducible above (see
    `_miller_rabin`).
    """
    n = abs(n)
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin on odd n > 7, with the bases picked by the size of n.

    Bases 2, 3, 5, 7 are a proof below 3,215,031,751, Sinclair's seven
    bases (all smaller than n there) below 2**64, and the 13 fixed
    witnesses below ~3.3e24.  Above that the witnesses are topped up
    with 64 extra bases drawn from a generator seeded by n itself, so
    the answer is still reproducible run to run.
    """
    if n < _MR_SMALL_BOUND:
        bases = _MR_SMALL_BASES
    elif n < 1 << 64:
        bases = _MR_64_BASES
    else:
        bases = _MR_DET_WITNESSES
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if not all(_mr_round(n, d, s, a) for a in bases):
        return False
    if n < _MR_DET_BOUND:
        return True
    rng = random.Random(n ^ 0xD1B54A32D192ED03)
    return all(_mr_round(n, d, s, rng.randrange(2, n - 1))
               for _ in range(_MR_EXTRA_ROUNDS))


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


def _brent_rho(m: int, state: _RhoState) -> int:
    """A nontrivial factor of composite odd m, or FactorBudgetError."""
    rng = random.Random(m ^ 0x9E3779B97F4A7C15)
    while True:
        y = rng.randrange(1, m)
        c = rng.randrange(1, m)
        r = q = 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                if state.budget < batch:
                    raise FactorBudgetError(
                        f"rho budget exhausted while splitting {m}")
                state.budget -= batch
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                if state.budget <= 0:
                    raise FactorBudgetError(
                        f"rho budget exhausted while splitting {m}")
                state.budget -= 1
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
        # cycle degenerated; retry with a fresh (y, c) pair


@dataclass(frozen=True)
class Factorization:
    """Signed factorization n = sign * prod(p**e)."""

    n: int
    sign: int
    factors: tuple  # sorted ((prime, exponent), ...)

    @property
    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p ** e
        return v


def factorize(n: int, budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Full factorization of n != 0 under an iteration budget."""
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    m = abs(n)
    found = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    state = _RhoState(budget)
    stack = [(m, 1)] if m > 1 else []
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + mult
            continue
        pw = perfect_power(m)
        if pw is not None:
            stack.append((pw[0], mult * pw[1]))
            continue
        d = _brent_rho(m, state)
        stack.append((d, mult))
        stack.append((m // d, mult))
    return Factorization(n=n, sign=sign,
                         factors=tuple(sorted(found.items())))


def big_omega(n: int, budget: int = DEFAULT_RHO_BUDGET) -> int:
    """Number of prime factors of |n| with multiplicity (n != 0)."""
    return factorize(n, budget=budget).big_omega


def liouville(n: int, budget: int = DEFAULT_RHO_BUDGET) -> int:
    """(-1)**big_omega(|n|); 0 at n = 0 (audited)."""
    if n == 0:
        zero_audit.count += 1
        return 0
    if abs(n) == 1:
        return 1
    return -1 if factorize(n, budget=budget).big_omega % 2 else 1


def mobius(n: int, budget: int = DEFAULT_RHO_BUDGET) -> int:
    """Mobius function of |n|.  Undefined at 0 (domain error)."""
    if n == 0:
        raise ValueError("mobius is undefined at 0")
    f = factorize(n, budget=budget)
    if not f.is_squarefree:
        return 0
    return -1 if len(f.factors) % 2 else 1


def _prime_power_base(m: int):
    """Prime p with m = p**k, if m >= 2 is a prime power, else None."""
    while True:
        pw = perfect_power(m)
        if pw is None:
            break
        m = pw[0]
    return m if is_prime(m) else None


def von_mangoldt(n: int) -> float:
    """log p when |n| is a positive power of the prime p, else 0.0.

    0 is audited; no rho budget is involved because only a perfect-power
    reduction plus one primality test is needed.
    """
    if n == 0:
        zero_audit.count += 1
        return 0.0
    m = abs(n)
    if m < 2:
        return 0.0
    p = _prime_power_base(m)
    return math.log(p) if p is not None else 0.0


def theta(n: int) -> float:
    """log |n| when |n| is prime, else 0.0 (0 audited)."""
    if n == 0:
        zero_audit.count += 1
        return 0.0
    m = abs(n)
    return math.log(m) if is_prime(m) else 0.0


def lambda_from_mobius_check(n: int) -> bool:
    """Check liouville(n) against the square-divisor Mobius convolution.

    The right side sums mobius(n / r**2) over every r with r**2
    dividing n, found by direct enumeration of r up to sqrt(n), so the
    two sides are computed by genuinely different routes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    r = 1
    while r * r <= n:
        if n % (r * r) == 0:
            total += mobius(n // (r * r))
        r += 1
    return liouville(n) == total


_SIEVE_CAP = 1 << 16
_SIEVE_PRIMES = primes_upto(_SIEVE_CAP)
_SIEVE_PRIMES_F = _SIEVE_PRIMES.astype(np.float64)
_SIEVE_PRIMES_INT = _SIEVE_PRIMES.tolist()
_SIEVE_CHUNK = 1 << 15  # elements per numpy block of the sieve
_FLOAT_EXACT = 1 << 52  # below this v / p == floor(v / p) iff p | v


def _sieve_bound(top: int) -> int:
    """Least power of two B >= 32 with B**3 > top, capped at 2**16."""
    b = 32
    while b ** 3 <= top and b < _SIEVE_CAP:
        b *= 2
    return b


def _sieve_split(values, full=True):
    """Split each |v| < 2**52 at the sieve bound B.

    Returns (B, small, rest): small[i] lists the primes p < B dividing
    values[i], in ascending order and each repeated by its multiplicity,
    and rest[i] is |v| divided by all of them, so every prime factor of
    rest[i] exceeds B.  A zero value, and only a zero value, gives rest 0
    (and small []).  With full=False a row leaves the sieve after the
    block of primes in which it first has a hit, so its small[i] and
    rest[i] stop there.  That settles von Mangoldt and primality: the
    row's first prime p is divided out in full, so |v| is a power of p
    iff rest[i] is 1 and small[i] holds p alone.

    p | v is tested in numpy as v / p == floor(v / p) in float64, in
    blocks of at most _SIEVE_CHUNK elements.  That is exact here: if p
    does not divide v, v / p is at least 1/p from every integer, which
    is more than half an ulp of v / p.  As rows leave, the blocks take
    more primes at a time.  The buffers are allocated once per call.
    """
    mags = [abs(int(v)) for v in values]
    bound = _sieve_bound(max(mags, default=0))
    small = [[] for _ in mags]
    rest = list(mags)
    count = int(np.searchsorted(_SIEVE_PRIMES, bound))
    q = np.empty(_SIEVE_CHUNK)
    fl = np.empty_like(q)
    mask = np.empty(_SIEVE_CHUNK, dtype=bool)
    for r0 in range(0, len(mags), _SIEVE_CHUNK):
        rows = np.array([i for i in range(r0, min(r0 + _SIEVE_CHUNK,
                                                  len(mags))) if mags[i]],
                        dtype=np.int64)
        v = np.array([float(mags[i]) for i in rows.tolist()])[:, None]
        c0 = 0
        while c0 < count and len(rows):
            c1 = min(c0 + _SIEVE_CHUNK // len(rows), count)
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
            if not full:
                keep = np.ones(len(rows), dtype=bool)
                keep[hit_rows] = False
                rows, v = rows[keep], v[keep]
            c0 = c1
    return bound, small, rest


def _by_size(values, batched, scalar) -> list:
    """batched(low) for the values below 2**52, taken as one list, and
    scalar(v) for each larger value, merged back in the order of values.
    """
    values = [int(v) for v in values]
    low = iter(batched([v for v in values if abs(v) < _FLOAT_EXACT]))
    return [next(low) if abs(v) < _FLOAT_EXACT else scalar(v)
            for v in values]


def _cofactor_is_prime(m: int, bound: int) -> bool:
    """Primality of m > 1 whose prime factors all exceed `bound` >= 32."""
    return m < bound * bound or _miller_rabin(m)


def liouville_many(values, budget: int = DEFAULT_RHO_BUDGET) -> list:
    """[liouville(v) for v in values].

    Values below 2**52 take the batched route, larger ones `liouville`.
    Each zero value is audited, as in `liouville`; each composite
    cofactor above B**3 is factored under its own rho budget.
    """
    def batched(low):
        bound, small, rest = _sieve_split(low)
        out = []
        for ps, m in zip(small, rest):
            if m == 0:
                zero_audit.count += 1
                out.append(0)
                continue
            omega = len(ps)
            if m > 1:
                if _cofactor_is_prime(m, bound):
                    omega += 1
                elif m < bound ** 3:
                    omega += 2
                else:
                    omega += factorize(m, budget=budget).big_omega
            out.append(-1 if omega % 2 else 1)
        return out

    return _by_size(values, batched, lambda v: liouville(v, budget=budget))


def von_mangoldt_many(values) -> list:
    """[von_mangoldt(v) for v in values].

    Values below 2**52 take the batched route, larger ones
    `von_mangoldt`.  Each zero value is audited, as in `von_mangoldt`.
    """
    def batched(low):
        bound, small, rest = _sieve_split(low, full=False)
        out = []
        for ps, m in zip(small, rest):
            if m == 0:
                zero_audit.count += 1
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
                    p = _prime_power_base(m)
            out.append(math.log(p) if p is not None else 0.0)
        return out

    return _by_size(values, batched, von_mangoldt)


def is_prime_many(values) -> list:
    """[is_prime(v) for v in values] (no audit).

    Values below 2**52 take the batched route, larger ones `is_prime`.
    """
    def batched(low):
        # With a small prime hit, |v| is prime only if it is that prime.
        bound, small, rest = _sieve_split(low, full=False)
        return [len(ps) == 1 and m == 1 if ps
                else m > 1 and _cofactor_is_prime(m, bound)
                for ps, m in zip(small, rest)]

    return _by_size(values, batched, is_prime)


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
    """Array M with M[m] = mobius(m) for 0 <= m <= n (M[0] = 0)."""
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
