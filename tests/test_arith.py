"""Integer arithmetic layer: primality, factorization, sieves."""

import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp, mr
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyprime.arith as arith
from polyprime.arith import (
    factorize,
    iroot,
    is_prime,
    is_prime_many,
    least_prime_at_least,
    liouville,
    liouville_many,
    liouville_sieve,
    mobius_sieve,
    perfect_power,
    primes_upto,
    von_mangoldt,
    von_mangoldt_many,
)
from polyprime.errors import BudgetError
from polyprime.rng import stream

# Frozen via a one-off run of an independent primality oracle.
PRIME_1E18 = 10 ** 18 + 9
PRIME_2E18 = 2 * 10 ** 18 + 57
PRIME_ABOVE_MR_BOUND = 10 ** 25 + 13
COMPOSITE_1E22 = 10 ** 22 + 4243
HARD_SEMIPRIME = PRIME_1E18 * PRIME_2E18


def test_primes_upto_20():
    assert primes_upto(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]


def test_primes_upto_edges():
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]
    assert primes_upto(0).dtype == np.int64


def test_primes_upto_count():
    # pi(10**5) = 9592
    assert primes_upto(10 ** 5).size == 9592


def test_is_prime_small():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1024)


def test_is_prime_negative_mirror():
    assert is_prime(-7)
    assert is_prime(-2)
    assert not is_prime(-9)
    for n in range(2, 500):
        assert is_prime(-n) == is_prime(n)


def test_is_prime_matches_sieve():
    sieve = set(primes_upto(20000).tolist())
    for n in range(20000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_frozen_large():
    assert is_prime(PRIME_1E18)
    assert is_prime(PRIME_2E18)
    assert not is_prime(COMPOSITE_1E22)


def test_is_prime_above_deterministic_bound():
    # Above the witness bound the 13 witnesses are followed by the strong
    # Lucas test, which must pass a prime there and refuse a semiprime.
    assert is_prime(PRIME_ABOVE_MR_BOUND)
    assert not is_prime(HARD_SEMIPRIME)


def test_iroot():
    assert iroot(0, 5) == 0
    assert iroot(63, 3) == 3
    assert iroot(64, 3) == 4
    assert iroot(10 ** 18, 2) == 10 ** 9
    assert iroot(2 ** 100 - 1, 10) == 2 ** 10 - 1
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(8, 0)


def test_perfect_power():
    assert perfect_power(8) == (2, 3)
    assert perfect_power(64) == (2, 6)
    assert perfect_power(36) == (6, 2)
    assert perfect_power(1296) == (6, 4)
    assert perfect_power(3 ** 5) == (3, 5)
    assert perfect_power(12) is None
    assert perfect_power(2) is None
    assert perfect_power(PRIME_1E18 ** 2) == (PRIME_1E18, 2)


def test_perfect_power_exhaustive_small():
    powers = {}
    for b in range(2, 100):
        for e in range(2, 20):
            v = b ** e
            if v <= 10 ** 6:
                cur = powers.get(v)
                if cur is None or e > cur[1]:
                    powers[v] = (b, e)
    for v in range(2, 10 ** 4):
        got = perfect_power(v)
        want = powers.get(v)
        if want is None:
            assert got is None, v
        else:
            assert got is not None and got[0] ** got[1] == v
            assert got[1] == want[1], v


def test_perfect_power_prime_exponents_past_1024():
    # Values reach about 14,000 bits, so a prime exponent may pass every
    # prime below 1024.
    for m in (2 ** 1031, 3 ** 1033, 1031 ** 1031):
        assert perfect_power(m) == sympy.perfect_power(m), m
    # A cofactor with no prime factor below its bound needs only the
    # exponents p with bound**p <= m.
    assert perfect_power(1031 ** 1031, 1024) == (1031, 1031)
    assert perfect_power(65537 ** 3, 2 ** 16) == (65537, 3)
    assert perfect_power(65537 * 65539, 2 ** 16) is None
    # 1031**1031 has no prime below 1024 and is composite: von Mangoldt
    # asks perfect_power, which must reach the exponent 1031.
    assert von_mangoldt_many([1031 ** 1031, 6]) == [math.log(1031), 0.0]


def test_factorize_examples():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    g = factorize(-12)
    assert g == ((2, 2), (3, 1))
    assert math.prod(p ** e for p, e in g) == 12
    assert factorize(1) == ()
    assert factorize(-1) == ()
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_random():
    rng = stream(20260818, 101)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 9)
        if rng.random() < 0.5:
            n = -n
        f = factorize(n)
        assert math.prod(p ** e for p, e in f) == abs(n)
        for p, e in f:
            assert e >= 1
            assert is_prime(p)
        assert [p for p, _ in f] == sorted(p for p, _ in f)


def test_factorize_frozen_prime():
    assert factorize(PRIME_1E18) == ((PRIME_1E18, 1),)
    assert len(factorize(PRIME_1E18)) == 1


def test_factorize_big_perfect_power():
    assert factorize(PRIME_1E18 ** 2) == ((PRIME_1E18, 2),)
    assert factorize(2 ** 64) == ((2, 64),)


def test_factorize_budget_error(monkeypatch):
    # Splitting a semiprime with ~1e18-sized factors needs ~1e9 rho
    # iterations; a tiny budget must fail loudly, not hang or guess.
    monkeypatch.setattr(arith, "RHO_BUDGET", 10_000)
    with pytest.raises(BudgetError):
        factorize(HARD_SEMIPRIME)


def test_factorize_budget_bounds_time_on_large_values():
    # A rho iteration on a 2000-bit value costs 32 budget units, one per
    # 64-bit word, so the default budget stops after ~3e5 iterations, a
    # 32nd of what a budget counted in iterations allows.
    m = sympy.nextprime(2 ** 999) * sympy.nextprime(2 ** 1000)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        factorize(m)
    assert time.perf_counter() - start < 60


def test_rho_budget_error_names_the_cofactor_by_size():
    # A cofactor past Python's 4300-digit limit on int-to-str conversion
    # is named by its size, so the run still exits with BudgetError.
    m = 3 ** 9100  # 4342 digits
    with pytest.raises(BudgetError, match=f"a {m.bit_length()}-bit cofactor"):
        arith._brent_rho(m, arith._RhoState(0))


def test_big_omega():
    def big_omega(n):
        return sum(e for _, e in factorize(n))

    assert big_omega(360) == 6
    assert big_omega(1) == 0
    assert big_omega(-8) == 3
    assert big_omega(97) == 1


def test_liouville_values():
    assert liouville(1) == 1
    assert liouville(2) == -1
    assert liouville(4) == 1
    assert liouville(12) == -1
    assert liouville(-12) == -1
    assert liouville(-1) == 1


def test_liouville_zero_sentinel():
    assert liouville(0) == 0


def test_liouville_completely_multiplicative():
    rng = stream(20260818, 102)
    for _ in range(200):
        a = rng.randrange(1, 10 ** 6)
        b = rng.randrange(1, 10 ** 6)
        assert liouville(a * b) == liouville(a) * liouville(b)


def test_mobius_values():
    mu = mobius_sieve(30)
    assert [int(mu[n]) for n in (0, 1, 2, 4, 6, 30)] == [0, 1, -1, 0, 1, -1]


def test_mobius_squarefree_matches_liouville():
    mu = mobius_sieve(2000)
    for n in range(1, 2001):
        if all(e == 1 for _, e in factorize(n)):
            assert mu[n] == liouville(n)
        else:
            assert mu[n] == 0


def test_von_mangoldt_values():
    assert von_mangoldt(8) == pytest.approx(math.log(2))
    assert von_mangoldt(9) == pytest.approx(math.log(3))
    assert von_mangoldt(7) == pytest.approx(math.log(7))
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(-49) == pytest.approx(math.log(7))


def test_von_mangoldt_zero_sentinel():
    assert von_mangoldt(0) == 0.0


def test_von_mangoldt_brute_force():
    for n in range(1, 3000):
        p = None
        for q in primes_upto(n).tolist():
            m = n
            while m % q == 0:
                m //= q
            if m == 1:
                p = q
                break
        want = math.log(p) if p is not None else 0.0
        assert von_mangoldt(n) == pytest.approx(want)


def test_lambda_from_mobius_check():
    # liouville(n) is the sum of mobius(n / r^2) over r with r^2 | n.
    for n in range(1, 400):
        total = sum(sympy.mobius(n // (r * r))
                    for r in range(1, math.isqrt(n) + 1) if n % (r * r) == 0)
        assert liouville(n) == total, n


def test_liouville_sieve_matches_pointwise():
    lam = liouville_sieve(1000)
    assert lam[0] == 0
    for n in range(1, 1001):
        assert int(lam[n]) == liouville(n)


def test_liouville_sieve_is_mobius_over_square_divisors():
    # lambda(n) = sum of mu(n / r**2) over r**2 dividing n, for n <= 10**6.
    n = 10 ** 6
    lam = liouville_sieve(n).astype(np.int64)
    mu = mobius_sieve(n).astype(np.int64)
    acc = np.zeros(n + 1, dtype=np.int64)
    for r in range(1, math.isqrt(n) + 1):
        acc[r * r:: r * r] += mu[1: n // (r * r) + 1]
    assert np.array_equal(acc[1:], lam[1:])


def test_mobius_sieve_matches_pointwise():
    mu = mobius_sieve(1000)
    assert mu[0] == 0
    for n in range(1, 1001):
        assert int(mu[n]) == sympy.mobius(n)


def test_least_prime_at_least():
    assert least_prime_at_least(1) == 2
    assert least_prime_at_least(2) == 2
    assert least_prime_at_least(14) == 17
    assert least_prime_at_least(23) == 23
    assert least_prime_at_least(15000) == 15013


# The batched kernels (liouville_many, von_mangoldt_many, is_prime_many).

def _sympy_and_batched(values):
    """sympy's answers and the batched kernels', side by side."""
    facs = [sympy.factorint(abs(v)) if v else None for v in values]
    want = ([(-1) ** sum(f.values()) if f is not None else 0 for f in facs],
            [math.log(next(iter(f))) if f and len(f) == 1 else 0.0
             for f in facs],
            [bool(sympy.isprime(abs(v))) for v in values])
    got = (liouville_many(values), von_mangoldt_many(values),
           is_prime_many(values))
    return want, got


# Primes just above 2**16 and 2**32: products of them leave cofactors
# just above B**2 (two factors) or at B**3 and beyond (three factors, a
# cube, a factor above 2**32), where the rho fallback runs.
P16 = (65537, 65539, 65543)
P32 = 2 ** 32 + 15
PRIME_ABOVE_2_64 = 2 ** 64 + 13
BIG_COFACTORS = (P16[0] * P16[1] * P16[2], P16[0] ** 3, P16[0] ** 2 * P16[1],
                 P16[0] * P32, P32 ** 2, PRIME_ABOVE_2_64,
                 PRIME_ABOVE_2_64 * P16[1], 3 * P16[0] * P16[2] * P32)
EDGES = (2 ** 52, 2 ** 63, 2 ** 64)
# Strong pseudoprimes to Jaeschke's base sets, of which the first two are
# the bounds of the 3- and 4-base rows of arith._MR_BANDS and the rest lie
# in its Baillie-PSW row (see MR_BANDS below), a row that leaves the
# sieve part-way (65521 once its 3s
# are off), and rows that must not leave after the first block of primes
# 3 to 23 (29**2 and 29 * 31 times small primes).
PSEUDOPRIMES = (4_759_123_141, 1_122_004_669_633, 2_152_302_898_747,
                3_474_749_660_383, 341_550_071_728_321)
MIXED = (0, 1, -1, 2, -2, 2 ** 51, -(3 ** 30), 1031 ** 5, 65521 ** 3,
         -65537 * 65539, 3 * 65537, 999_999_999_989 * 2 ** 9, 10 ** 14 + 31,
         2 ** 52 - 1, 2 ** 52 + 1, -(2 ** 61 - 1), (2 ** 61 - 1) ** 2,
         1031 ** 7, 3 * 5 * 7 * 11 * 1031 ** 4, *PSEUDOPRIMES,
         3 ** 20 * 65521, -(2 ** 20) * 29 ** 2, 3 ** 9 * 29 * 31)


@st.composite
def kernel_values(draw):
    """A list whose sieve bound is 2**k, with values in every branch.

    The first entry B**3 - 1 pins the bound; the rest mix 0 and +-1,
    small primes and their powers, p**2 and p*q for the first primes
    p < q above B (cofactors just above B**2), random values below
    B**3, and optionally values on both sides of 2**52, 2**63 and 2**64
    and composites beyond B**3 (which raise the bound to its cap).
    """
    b = 2 ** draw(st.integers(5, 16))
    p = least_prime_at_least(b)
    q = least_prime_at_least(p + 1)
    special = [0, 1, 2, 3, 4, 8, 9, b - 1, p, q, p * p, p * q, p * p * q]
    atoms = st.one_of(st.sampled_from(special),
                      st.sampled_from(primes_upto(200).tolist()),
                      st.integers(0, b ** 3 - 1))
    if draw(st.booleans()):
        atoms = st.one_of(
            atoms, st.sampled_from(BIG_COFACTORS),
            st.tuples(st.sampled_from(EDGES), st.integers(-300, 300))
            .map(sum))
    signed = st.tuples(atoms, st.sampled_from((1, -1))).map(
        lambda t: t[0] * t[1])
    return [b ** 3 - 1] + draw(st.lists(signed, max_size=25))


@settings(max_examples=150, deadline=None)
@given(kernel_values())
def test_batched_kernels_match_sympy(values):
    want, got = _sympy_and_batched(values)
    assert got == want


def test_batched_kernels_fixed_edges():
    b = 2 ** 16
    values = [0, 1, -1, 0, 2, -2, 65521, 65521 ** 2, -(2 ** 40),
              P16[0] * P16[1], -P16[0] ** 2, b ** 2 - 1, b ** 3 - 1,
              *(e + d for e in EDGES for d in (-3, -1, 0, 1, 3)),
              *BIG_COFACTORS, *MIXED]
    want, got = _sympy_and_batched(values)
    assert got == want
    # The two zeros take the sentinels of liouville and von Mangoldt.
    assert [(got[0][i], got[1][i], got[2][i]) for i in (0, 3)] == \
        [(0, 0.0, False)] * 2
    assert liouville_many([]) == von_mangoldt_many([]) == []
    assert is_prime_many([7, 2 ** 61 - 1, 2 ** 61 + 1]) == [True, True,
                                                           False]


def test_sieve_bound():
    assert arith._sieve_bound(0) == 32
    assert arith._sieve_bound(32 ** 3 - 1) == 32
    assert arith._sieve_bound(32 ** 3) == 64
    assert arith._sieve_bound(10 ** 14) == 2 ** 16
    assert arith._sieve_bound(10 ** 30) == 2 ** 16


# Rows of a full split whose rest falls below the next prime's cube, but
# not below its square, part-way through the sieve: two primes just below
# 2**16, alone or times a power of 2 or of 3 or 3**5 * 5 * 7.  And three
# primes just above 2**16, alone or times 15: their rest stays above
# every cube, so they must run every block.
Q16 = 65521
LEAVERS = [Q16 * 65519 * s for s in (1, 3 ** 10, -(2 ** 10),
                                     -(3 ** 5 * 5 * 7))]
STAYERS = [s * 65537 * 65539 * 65543 for s in (1, -15)]


def _primorial(cache, b):
    """The product of the primes below b, memoised in cache."""
    if b not in cache:
        cache[b] = math.prod(sympy.primerange(b))
    return cache[b]


def test_sieve_split_against_sympy():
    # The sieve itself, row by row against sympy.  With full=True a row
    # divides out exactly the primes below its own bound, with
    # multiplicity, and below the top bound B its rest is below the bound
    # cubed.  With full=False a row divides out its least prime, in full,
    # when that prime is below B, and keeps a bound above it; a row with
    # no such prime keeps its value as its rest, and below B that rest is
    # below the bound squared.  Values up to the float64 limit 2**52.
    rng = stream(20260818, 107)
    values = [2 ** 52 + d for d in range(-80, 0)]
    values += [rng.randrange(1, 2 ** 22) * 3 ** 5 * 7 * 65521
               for _ in range(40)]
    values += [0, 1, -1, -(2 ** 32 - 5) * 2 ** 10 * 3 * 5 * 7]
    values += [rng.randrange(-2 ** 20, 2 ** 20) for _ in range(40)]
    values += LEAVERS + STAYERS
    assert max(map(abs, values)) < 2 ** 52
    # Without full a row stops at its first prime, so most rows end under
    # a smaller bound than with full.
    stopped = 0
    for chunk in (values[:40], values[40:], values[150:]):
        top = arith._sieve_bound(max(map(abs, chunk)))
        bounds, first, omega, rest = arith._split(chunk, full=True)
        assert first is None
        whole = [a.tolist() for a in (bounds, omega, rest)]
        part = [a.tolist() for a in arith._split(chunk, full=False)]
        for v, b, k, m in zip(chunk, *whole):
            assert b == top or b < top and sympy.isprime(b), v
            fac = {q: e for q, e in sympy.factorint(abs(v)).items()
                   if q < b} if abs(v) > 1 else {}
            assert k == sum(fac.values()), v
            assert m == (abs(v) // math.prod(q ** e for q, e in fac.items())
                         if v else 0), v
            assert b == top or m < b ** 3, v
        for v, b, p, k, m in zip(chunk, *part):
            least = min(sympy.factorint(abs(v))) if abs(v) > 1 else 0
            if p:
                e = sympy.multiplicity(p, abs(v))
                assert p == least < top and p < b <= top, v
                assert (k, m) == (e, abs(v) // p ** e), v
            else:
                assert (k, m) == (0, abs(v)) and (least == 0 or least >= b), v
                assert b == top or b < top and sympy.isprime(b) and \
                    m < b * b, v
        stopped += sum(b < w for b, w in zip(part[0], whole[0]))
        got = dict(zip(chunk, zip(*whole)))
        for v in LEAVERS:
            if v in got:
                b, _, m = got[v]
                assert 29 < b < top and m == Q16 * 65519, v
                assert b * b <= m < b ** 3, v
        for v in STAYERS:
            if v in got:
                b, _, m = got[v]
                assert b == top and m == 65537 * 65539 * 65543, v
                assert m >= b ** 3, v
    assert stopped


def check_split(values, full):
    """The contract of _split, row by row.  Only a zero value has rest 0.
    Otherwise the part divided out, |v| / rest, has omega prime factors,
    counted with multiplicity, and every one below the row's bound.  With
    full=False first is the least of them (0 when nothing was divided
    out), and with full=True it is None.

    With full=True, or when nothing was divided out, the rest is coprime
    to every prime below the bound.  A row below 2**52 then has the top
    bound B, taken from those rows alone, or a prime bound below it, and
    unless it is B the rest is below the bound cubed (with full=True) or
    squared (with full=False).  A row of 2**52 and more, and every row of
    a list shorter than the sieve's first block, has bound 1024, and its
    trial division may stop early, with a rest that is a prime below
    1024**2.  With full=False a row that divides out a prime p divides
    out |v|'s least prime, in full, and has a bound above p.  rest holds
    Python ints when some value does not fit in int64, and is int64
    otherwise."""
    low = [abs(v) for v in values if abs(v) < 2 ** 52]
    top = arith._sieve_bound(max(low, default=0))
    got = arith._split(values, full)
    assert (got[1] is None) == full
    firsts = [0] * len(values) if full else got[1].tolist()
    assert [len(a) for a in (got[0], firsts, *got[2:])] == [len(values)] * 4
    wide = any(not -2 ** 63 <= v < 2 ** 63 for v in values)
    assert got[3].dtype == (object if wide else np.int64)
    primorials = {}
    short = len(values) < arith._FIRST_BLOCK
    for v, b, p, k, m in zip(values, got[0].tolist(), firsts,
                             *(a.tolist() for a in got[2:])):
        big = abs(v) >= 2 ** 52 or short
        assert (m == 0) == (v == 0), v
        if v == 0:
            assert (b, p, k) == (1024 if big else top, 0, 0), v
            continue
        part, r = divmod(abs(v), m)
        fac = sympy.factorint(part)
        assert r == 0 and k == sum(fac.values()), v
        if not full:
            assert p == min(fac, default=0), v
        if p:
            assert list(fac) == [p] and p < b, v
            assert math.gcd(abs(v), _primorial(primorials, p)) == 1, v
            continue
        assert all(q < b for q in fac), v
        assert b == 1024 if big else b == top or b < top and \
            sympy.isprime(b), v
        assert math.gcd(m, _primorial(primorials, b)) == 1 \
            or big and m < b * b and sympy.isprime(m), v
        assert big or b == top or m < (b ** 3 if full else b * b), v
    return got


EDGE_SPLIT_VALUES = [0, 1, -1, *(s * 2 ** k for k in range(52)
                                 for s in (1, -1, 3, -7))]


def test_sieve_split_edge_values():
    values = [v for v in EDGE_SPLIT_VALUES if abs(v) < 2 ** 52]
    for full in (True, False):
        check_split(values, full)
        check_split(list(MIXED), full)
    bounds, first, omega, rest = (a.tolist()
                                  for a in arith._split(values, full=False))
    assert (first[:3], omega[:3], rest[:3]) == ([0] * 3, [0] * 3, [0, 1, 1])
    for v, b, p, k, m in zip(values[3:], bounds[3:], first[3:], omega[3:],
                             rest[3:]):
        twos = (abs(v) & -abs(v)).bit_length() - 1
        if twos:
            assert (b, p, k, m) == (3, 2, twos, abs(v) >> twos), v
        else:
            assert (p, k, m) == ((abs(v), 1, 1) if abs(v) > 1
                                 else (0, 0, 1)), v


# First primes at the edges of the sieve's blocks: 3 opens the first
# block (3**32 is its largest power below 2**52), 23 closes it and 29
# opens the wide block; 2039 is the last prime below 2**11, and 65521 the
# last below 2**16.  A row p**a * q with p < q in one block must stop at
# p.  Padded with 1s to the sieve's fewest values, 2039 * 2000003 has
# the top bound 2**11, so 2039 is the last prime of its last block.
BLOCK_EDGES = [3 ** 32, 23 ** 11, -(29 ** 10), 2039 ** 4, 3 ** 5 * 5,
               -3 * 23, 31 ** 3 * 37, 29 * 2027, 65521 ** 3, 2039 * 2000003]
# A list shorter than the sieve's first block is trial-divided; ONES pads
# one value to a list the sieve takes.
ONES = [1] * (arith._FIRST_BLOCK - 1)
# Every row leaves in the first block: even, or with a prime up to 23.
FIRST_BLOCK_ONLY = [2 * 3, 9 * 11, 5 * 7, -23 * 65537, 8, -(3 ** 30),
                    13 * 17, 19 * 65521]


# 285343 and 857953 are primes whose numpy log differs from math.log in
# the last place; von Mangoldt must give math.log's value.
LOG_EDGES = (285343, 857953)


def test_split_block_edges():
    for full in (True, False):
        check_split(BLOCK_EDGES, full)
        check_split(FIRST_BLOCK_ONLY, full)
        for v in BLOCK_EDGES:  # under its own top bound
            check_split([v, *ONES], full)
    _, first, omega, rest = (a.tolist() for a in
                             arith._split(BLOCK_EDGES, full=False))
    assert first == [3, 23, 29, 2039, 3, 3, 31, 29, 65521, 2039]
    assert omega == [32, 11, 10, 4, 5, 1, 3, 1, 3, 1]
    assert rest == [1, 1, 1, 1, 5, 23, 37, 2027, 1, 2000003]
    got = [a.tolist() for a in arith._split([2039 * 2000003, *ONES], False)]
    assert got[1:] == [[2039, *[0] * 7], [1, *[0] * 7], [2000003, *[1] * 7]]
    # A shorter list is trial-divided, by the primes below 1024.
    assert [a.tolist() for a in arith._split([2039 * 2000003], False)] == \
        [[1024], [0], [0], [2039 * 2000003]]
    bounds, _, omega, rest = arith._split([2039 * 2000003], True)
    assert [a.tolist() for a in (bounds, omega, rest)] == \
        [[1024], [0], [2039 * 2000003]]
    assert arith._split(FIRST_BLOCK_ONLY, False)[1].tolist() == \
        [2, 3, 5, 23, 2, 3, 13, 19]
    # No values, and values of 2**52 and more only.
    for full in (True, False):
        assert all(len(a) == 0 for a in arith._split([], full)
                   if a is not None)
        check_split([2 ** 52, -(2 ** 61 - 1), 3 ** 40, 2 ** 64 + 13,
                     1031 ** 7], full)
    want, got = _sympy_and_batched(BLOCK_EDGES + FIRST_BLOCK_ONLY)
    assert got == want
    # Beyond the sieve's primes, as a prime cofactor and as a square.
    values = [*LOG_EDGES, LOG_EDGES[0] ** 2, 3]
    assert von_mangoldt_many(values) == [math.log(p) for p in
                                         (*LOG_EDGES, LOG_EDGES[0], 3)]


@st.composite
def first_prime_lists(draw):
    """Lists for the early-exit split: 0 and +-1, powers of 2 to 2**63,
    powers of the small primes, products p * q of primes around the
    sieve's block and top bounds, values to 2**51 and from 2**52 to 2**64,
    and primes where numpy's log and math.log disagree."""
    near = [3, 5, 23, 29, 31, 1021, 1031, 2039, 2053, 32749, 32771, 65521,
            65537]
    atoms = st.one_of(
        st.sampled_from((0, 1, *LOG_EDGES)),
        st.integers(1, 63).map(lambda k: 2 ** k),
        st.tuples(st.sampled_from(primes_upto(100).tolist()),
                  st.integers(1, 40)).map(lambda t: t[0] ** t[1])
        .filter(lambda v: v < 2 ** 64),
        st.tuples(st.sampled_from(near), st.sampled_from(near),
                  st.sampled_from((1, 2, 3))).map(math.prod),
        st.integers(2, 2 ** 51),
        st.integers(2 ** 52, 2 ** 64))
    signed = st.tuples(atoms, st.sampled_from((1, -1))).map(
        lambda t: t[0] * t[1])
    return draw(st.lists(signed, max_size=30))


@settings(max_examples=150, deadline=None)
@given(first_prime_lists())
def test_first_prime_kernels_match_sympy(values):
    want_vm = []
    for v in values:
        base = abs(v)
        if base > 1 and (pw := sympy.perfect_power(base)):
            base = pw[0]
        want_vm.append(math.log(base) if sympy.isprime(base) else 0.0)
    assert von_mangoldt_many(values) == want_vm
    assert is_prime_many(values) == [bool(sympy.isprime(abs(v)))
                                     for v in values]
    for full in (True, False):
        check_split(values, full)


def test_sieve_split_long_lists():
    # Past _SIEVE_CHUNK // 8 rows a first block of 8 primes no longer
    # fits the buffer, and past _SIEVE_CHUNK rows the rows come in
    # chunks; a stopped split must still follow the contract.
    assert arith._SIEVE_CHUNK // 8 < 5009 < arith._SIEVE_CHUNK
    rng = stream(20260818, 108)
    values = [rng.randrange(-2 ** 48, 2 ** 48) for _ in range(5009)]
    check_split(values + EDGE_SPLIT_VALUES[:90], full=False)
    values = list(range(-17000, 17000)) + EDGE_SPLIT_VALUES[:50]
    assert len(values) > arith._SIEVE_CHUNK
    for full in (True, False):
        check_split(values, full)


def test_batched_kernels_route_by_size():
    # Values of 2**52 and more are trial-divided, with bound 1024; the
    # sieve's top bound (that of a zero value, or of a row that runs every
    # block) is taken from the smaller values alone.
    values = [6, 2 ** 52 - 1, 2 ** 52, -(2 ** 61 - 1), 0, -35, 2 ** 80 + 1,
              1]
    want, got = _sympy_and_batched(values)
    assert got == want
    for full in (True, False):
        bounds = check_split(values, full)[0].tolist()
        assert [b for v, b in zip(values, bounds) if abs(v) >= 2 ** 52] \
            == [1024] * 3
        assert bounds[4] == 2 ** 16
    # 37 * 41 runs every block below 32, so its bound is the top bound:
    # 32 from 37 * 41 and 1s, where 2**61 + 1 would have made it 2**16.
    assert is_prime_many([37 * 41, 2 ** 61 + 1]) == [False, False]
    assert arith._split([37 * 41, 2 ** 61 + 1, *ONES[1:]],
                        full=False)[0].tolist()[:2] == [32, 1024]
    # A big row's trial division stops once p * p passes its rest: 3 is
    # left as the rest of 3 * 2**60, under the bound 1024.  The row of 7
    # leaves the sieve after its first block, the odd primes to 23.
    bounds, _, omega, rest = check_split([3 * 2 ** 60, 7, *ONES[1:]], True)
    assert [a.tolist()[:2] for a in (bounds, omega, rest)] == \
        [[1024, 29], [60, 1], [3, 1]]


# Above 2**52 values are trial-divided by the primes below 1024; 1031 is
# the first prime above that bound.  The list mixes cofactors settled by
# the first small prime (3**40, 3 * 2**60), prime cofactors (2**64 + 13),
# and composite cofactors beyond 1024**3: prime powers for perfect_power
# and products of two primes for rho.
LARGE_VALUES = [s * 1031 ** k for k in range(6, 13) for s in (1, -1)] + [
    3 ** 40, 3 * 2 ** 60, (2 ** 61 - 1) ** 2, 1031 * (2 ** 61 - 1),
    2 ** 64 + 13, 3 * (2 ** 64 + 13)]


def test_large_values_match_sympy(monkeypatch):
    assert min(map(abs, LARGE_VALUES)) >= 2 ** 52
    calls = []

    def spy(name):
        real = getattr(arith, name)

        def wrapped(*args, **kwargs):
            calls.append((name, *args[1:], *kwargs.values()))
            return real(*args, **kwargs)
        monkeypatch.setattr(arith, name, wrapped)

    for name in ("_trial_split", "perfect_power", "_factor_cofactor"):
        spy(name)
    want, got = _sympy_and_batched(LARGE_VALUES)
    assert got == want
    assert {("_trial_split", True), ("_trial_split", False),
            ("perfect_power", 1024),
            ("_factor_cofactor", 1024)} <= set(calls)
    assert [liouville(v) for v in LARGE_VALUES] == want[0]
    assert [von_mangoldt(v) for v in LARGE_VALUES] == want[1]
    assert [is_prime(v) for v in LARGE_VALUES] == want[2]
    for v in LARGE_VALUES:
        f = factorize(v)
        assert math.prod(p ** e for p, e in f) == abs(v)
        assert dict(f) == sympy.factorint(abs(v)), v


def test_batched_kernels_no_rho_below_cap(monkeypatch):
    # Below 2**48 every cofactor is below B**3, so neither the rho loop
    # nor perfect_power is reached.
    def refuse(*args, **kwargs):
        raise AssertionError("_factor_cofactor or perfect_power called")

    monkeypatch.setattr(arith, "_factor_cofactor", refuse)
    monkeypatch.setattr(arith, "perfect_power", refuse)
    rng = stream(20260818, 104)
    values = [rng.randrange(1, 2 ** 48) for _ in range(300)]
    values += [P16[0] * P16[1], P16[0] ** 2, 2 ** 48 - 59]
    liouville_many(values)
    von_mangoldt_many(values)


def test_batched_kernels_budget_error(monkeypatch):
    monkeypatch.setattr(arith, "RHO_BUDGET", 10_000)
    with pytest.raises(BudgetError):
        liouville_many([6, HARD_SEMIPRIME])


def test_batched_kernels_against_sympy():
    # Gate-sized values: random quadratics with |a_i| <= 1e9 at n <= 60.
    rng = stream(20260818, 105)
    values = []
    for _ in range(4):
        a = [rng.randrange(-10 ** 9, 10 ** 9 + 1) for _ in range(3)]
        values += [a[0] + a[1] * n + a[2] * n * n for n in range(1, 61)]
    lam = liouville_many(values)
    vm = von_mangoldt_many(values)
    flags = is_prime_many(values)
    for v, got_lam, got_vm, got_flag in zip(values, lam, vm, flags):
        fac = sympy.factorint(abs(v)) if abs(v) > 1 else {}
        assert got_lam == (-1) ** sum(fac.values()), v
        want_vm = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
        assert got_vm == want_vm, v
        assert got_flag == sympy.isprime(abs(v)), v


def test_cofactor_miller_rabin_against_sympy():
    rng = stream(20260818, 106)
    odd = [rng.randrange(2 ** 62, 2 ** 64) | 1 for _ in range(1500)]
    odd += [rng.randrange(3, 2 ** 33) | 1 for _ in range(1500)]
    odd += [sympy.nextprime(rng.randrange(2 ** 63, 2 ** 64))
            for _ in range(50)]
    odd += list(range(3_215_031_751 - 200, 3_215_031_751 + 200, 2))
    # Above 2**64: random odd values and primes of 82 to 512 bits.
    odd += [rng.randrange(2 ** (bits - 1), 2 ** bits) | 1
            for bits in range(82, 513) for _ in range(2)]
    odd += [sympy.nextprime(rng.randrange(2 ** (bits - 1), 2 ** bits))
            for bits in range(82, 513, 10)]
    for n in odd:
        assert arith._miller_rabin(n) == sympy.isprime(n), n
    # Strong pseudoprimes: to bases 2, 3, 5, 7; to every prime base up
    # to 31; and to every prime base up to 37 (above 2**64).
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n)
        assert not arith._miller_rabin(n), n
    assert is_prime_many([3215031751, 3825123056546413051,
                          318665857834031151167461]) == [False] * 3


# Each is the least composite that is a strong pseudoprime to all of its
# bases: below it they are a proof (Jaeschke, Math. Comp. 61, 1993;
# the last, Sorenson and Webster, Math. Comp. 86, 2017), at it they are
# not.  Only the second and third are still band bounds, of the 3- and
# 4-base rows of arith._MR_BANDS.  The fourth to sixth lie in its
# Baillie-PSW row, the first in its 3-base row, and the last, the bound
# of the last row's 13 bases, has no row of its own: there the strong
# Lucas test that follows the bases refuses it.
WITNESSES_TO_41 = tuple(sympy.primerange(42))
MR_BANDS = ((3_215_031_751, (2, 3, 5, 7)),
            (4_759_123_141, (2, 7, 61)),
            (1_122_004_669_633, (2, 13, 23, 1_662_803)),
            (2_152_302_898_747, (2, 3, 5, 7, 11)),
            (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
            (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
            (3_317_044_064_679_887_385_961_981, WITNESSES_TO_41))


def test_miller_rabin_band_bounds():
    assert arith._MR_BANDS == ((4_759_123_141, (2, 7, 61)),
                               (1_122_004_669_633, (2, 13, 23, 1_662_803)),
                               (2 ** 64, (2,)),
                               (math.inf, WITNESSES_TO_41))
    assert arith._LUCAS_FROM == 1_122_004_669_633
    for n, bases in MR_BANDS:
        assert not sympy.isprime(n)
        assert mr(n, bases), n
        assert not arith._miller_rabin(n), n
    # The odd values within 200 of each pseudoprime and of 2**64.
    for n in [n for n, _ in MR_BANDS] + [2 ** 64]:
        for m in range((n - 200) | 1, n + 200, 2):
            assert arith._miller_rabin(m) == sympy.isprime(m), m
    bounds = [n for n, _ in MR_BANDS]
    assert is_prime_many(bounds) == [False] * len(bounds)
    assert liouville_many(bounds) == [-1, 1, 1, -1, -1, 1, 1]


# The strong Lucas pseudoprimes with Selfridge's parameters below 60,000
# (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569,
                             25199, 40309, 58519)


def test_strong_lucas_against_sympy():
    for n in range(1, 60_000, 2):
        assert arith._strong_lucas(n) == is_strong_lucas_prp(n), n
    assert [n for n in range(3, 60_000, 2) if arith._strong_lucas(n)
            and not sympy.isprime(n)] == list(STRONG_LUCAS_PSEUDOPRIMES)
    rng = stream(20260818, 109)
    band = [rng.randrange(arith._LUCAS_FROM, 2 ** 64) | 1
            for _ in range(2000)]
    band += [sympy.nextprime(rng.randrange(arith._LUCAS_FROM, 2 ** 64))
             for _ in range(100)]
    for n in band:
        assert arith._strong_lucas(n) == is_strong_lucas_prp(n), n
        assert arith._miller_rabin(n) == sympy.isprime(n), n
    for a in range(-30, 30):
        for n in range(1, 200, 2):
            assert arith._jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_bpsw_band_refuses_strong_pseudoprimes_and_squares():
    # Strong pseudoprimes to every base they meet, so the Lucas test alone
    # refuses them: to the primes to 11 and to 13 (Jaeschke's bounds, base
    # 2 among them, now in the Baillie-PSW row); 3825123056546413051 =
    # 149491 * 747451 * 34233211, to every prime up to 23; and above 2**64
    # the least to all 13 primes to 41, which are its row's bases.
    for n, lam in ((2_152_302_898_747, -1), (3_474_749_660_383, -1),
                   (3825123056546413051, -1),
                   (3_317_044_064_679_887_385_961_981, 1)):
        assert arith._LUCAS_FROM < n
        assert not arith._strong_lucas(n) and not arith._miller_rabin(n)
        assert is_prime_many([n]) == [False] and liouville_many([n]) == [lam]
    # A square has no D with (D/n) = -1, so the search must not start.
    squares = [p * p for p in (1999993, 2000003, sympy.prevprime(2 ** 32))]
    assert all(arith._LUCAS_FROM <= m < 2 ** 64 for m in squares)
    start = time.perf_counter()
    for m in squares:
        assert not arith._strong_lucas(m) and not arith._miller_rabin(m)
    assert time.perf_counter() - start < 1.0
    assert is_prime_many(squares) == [False] * 3
    assert liouville_many(squares) == [1] * 3


def row_bases(n):
    """The bases of n's row of arith._MR_BANDS."""
    return next(bases for bound, bases in arith._MR_BANDS if n < bound)


def check_array_miller_rabin(values):
    """The numpy Miller-Rabin against sympy's test to the same bases, and
    `_miller_rabin_many` on its array route against the scalar
    `_miller_rabin` and `sympy.isprime`, with every warning an error (the
    int64 products wrap on purpose)."""
    low = [n for n in values if n < 2 ** 52]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passed = arith._strong_probable_many(np.array(low, dtype=np.int64))
        with mock.patch.object(arith, "_MR_LANES", 1):
            got = arith._miller_rabin_many(values)
    assert passed.tolist() == [mr(n, row_bases(n)) for n in low]
    assert got == [arith._miller_rabin(n) for n in values]
    assert got == [sympy.isprime(n) for n in values]


def test_array_miller_rabin_at_band_edges():
    # The odd values within 200 of the bounds of the two Jaeschke rows and
    # of 2**52 (those above it take the scalar test in the same call), the
    # strong pseudoprimes below 2**52, and 61, a base of its own row, which
    # is 0 mod n there and skipped.
    values = [m for n in (4_759_123_141, 1_122_004_669_633, 2 ** 52)
              for m in range((n - 200) | 1, n + 200, 2)]
    values += [n for n in PSEUDOPRIMES if n < 2 ** 52]
    values += [n for n, _ in MR_BANDS if n < 2 ** 52]
    values += [61, 1_662_803, 9, 15, 4_759_123_139, 1_122_004_669_631]
    assert sum(map(sympy.isprime, values)) > 20
    check_array_miller_rabin(values)


def test_array_miller_rabin_long_runs_of_squares():
    # n - 1 = k * 2**s for s up to 50: a prime whose base is a
    # non-residue meets n - 1 only at the last of its s - 1 squarings.
    values = []
    for s in range(1, 51):
        ks = range(1, min(2 ** (52 - s), 4000), 2)
        values += [k * 2 ** s + 1 for k in ks[:12]]
        values += [k * 2 ** s + 1 for k in ks if sympy.isprime(k * 2 ** s + 1)
                   and k * 2 ** s + 1 > 7][:4]
    values = sorted({n for n in values if 7 < n < 2 ** 52})
    assert max(arith._POWERS_OF_TWO.tolist().index((n - 1) & (1 - n))
               for n in values if sympy.isprime(n)) >= 45
    check_array_miller_rabin(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.integers(9, 4_759_123_140),
    st.integers(4_759_123_141, 1_122_004_669_632),
    st.integers(1_122_004_669_633, 2 ** 52 - 1),
    st.integers(9, 2 ** 52 - 1).map(sympy.prevprime)).map(lambda n: n | 1),
    min_size=1, max_size=40))
def test_array_miller_rabin_mixed_bands(values):
    check_array_miller_rabin(values)


def test_miller_rabin_many_routes_by_size(monkeypatch):
    # Fewer than _MR_LANES values below 2**52 take the scalar test; with
    # as many, those take the numpy one and the rest still the scalar.
    calls = []
    inner = arith._strong_probable_many

    def spy(n):
        calls.append(n.tolist())
        return inner(n)

    monkeypatch.setattr(arith, "_strong_probable_many", spy)
    rng = stream(20261021, 1)
    low = [rng.randrange(2 ** 40, 2 ** 52) | 1
           for _ in range(arith._MR_LANES)]
    high = [2 ** 61 - 1, PRIME_1E18 * 3]
    want = [sympy.isprime(n) for n in low + high]
    assert arith._miller_rabin_many(low[1:] + high) == want[1:]
    assert calls == []
    assert arith._miller_rabin_many(high + low) == want[-2:] + want[:-2]
    assert calls == [low]


def check_array_lucas(values):
    """`_strong_lucas_many` against sympy's strong Lucas test and the
    scalar `_strong_lucas`, with every warning an error."""
    assert all(arith._LUCAS_FROM <= n < 2 ** 52 and n & 1 for n in values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arith._strong_lucas_many(np.array(values, dtype=np.int64))
    assert got.tolist() == [is_strong_lucas_prp(n) for n in values]
    assert got.tolist() == [arith._strong_lucas(n) for n in values]


def test_array_lucas_in_its_band():
    # Random odd values and primes in the band, the odd values within 200
    # of its ends, and squares of primes and of composites.
    rng = stream(20261022, 1)
    lo, hi = arith._LUCAS_FROM, 2 ** 52
    values = [rng.randrange(lo, hi) | 1 for _ in range(1500)]
    values += [sympy.nextprime(rng.randrange(lo, hi - 2 ** 20))
               for _ in range(150)]
    values += list(range(lo | 1, lo + 200, 2))
    values += list(range(hi - 199, hi, 2))
    roots = [sympy.nextprime(math.isqrt(lo)), sympy.prevprime(2 ** 26),
             *(sympy.nextprime(rng.randrange(2 ** 21, 2 ** 26))
               for _ in range(20)),
             *(rng.randrange(2 ** 21, 2 ** 26) | 1 for _ in range(20))]
    values += [r * r for r in roots]
    assert sum(map(sympy.isprime, values)) > 150
    check_array_lucas(values)
    check_array_lucas([r * r for r in roots])  # no lane reaches the chain


def test_array_lucas_long_runs_of_squares():
    # n + 1 = k * 2**s for s up to 51: a prime passes at V_(k * 2**r) = 0,
    # and a late r runs the V-squaring tail for many steps.
    values = []
    for s in range(1, 52):
        ks = range(-(-arith._LUCAS_FROM // 2 ** s) | 1, 2 ** (52 - s), 2)
        ks = ks[:3000]
        values += [k * 2 ** s - 1 for k in ks[:6]]
        values += [k * 2 ** s - 1 for k in ks
                   if sympy.isprime(k * 2 ** s - 1)][:4]
    values = sorted({n for n in values if arith._LUCAS_FROM <= n < 2 ** 52})
    assert max(((n + 1) & -(n + 1)).bit_length() - 1 for n in values
               if sympy.isprime(n)) >= 45
    check_array_lucas(values)


def test_array_lucas_refuses_jaeschke_pseudoprimes(monkeypatch):
    # Strong pseudoprimes to base 2 in the Baillie-PSW row pass the numpy
    # bases, so the numpy Lucas test alone must refuse them.
    pseudo = [2_152_302_898_747, 3_474_749_660_383]
    assert all(mr(n, (2,)) and row_bases(n) == (2,) for n in pseudo)
    lanes = []
    inner = arith._strong_lucas_many

    def spy(n):
        lanes.append(n.tolist())
        return inner(n)

    monkeypatch.setattr(arith, "_strong_lucas_many", spy)
    monkeypatch.setattr(arith, "_MR_LANES", 1)
    prime = sympy.nextprime(pseudo[0])
    assert arith._miller_rabin_many(pseudo + [prime, 101]) \
        == [False, False, True, True]
    assert lanes == [pseudo + [prime]]
    # A call whose values all lie below the band makes no Lucas pass.
    assert arith._miller_rabin_many([101, 4_759_123_141]) == [True, False]
    assert lanes == [pseudo + [prime]]


@st.composite
def smooth_values(draw):
    """Values below 2**52 with a large smooth part: a product of small
    primes and their powers times a cofactor that is 1, a prime near
    2**16 or 2**32, or a product of two primes above 2**16."""
    smooth = draw(st.lists(st.sampled_from(primes_upto(2000).tolist()),
                           min_size=1, max_size=12).map(math.prod))
    cofactor = draw(st.sampled_from((1, Q16, 65519, *P16, P32,
                                     P16[0] * P16[1], P16[0] ** 2)))
    value = smooth * cofactor
    assume(value < 2 ** 52)
    return value * draw(st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(smooth_values(), min_size=1, max_size=30))
def test_batched_kernels_on_smooth_values_match_sympy(values):
    want, got = _sympy_and_batched(values)
    assert got == want
    for full in (True, False):
        check_split(values, full)
