"""Integer arithmetic layer: primality, factorization, sieves."""

import math
import time

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
    # Exercises the seeded extra-round path (n above the witness bound).
    assert is_prime(PRIME_ABOVE_MR_BOUND)
    assert not is_prime(HARD_SEMIPRIME)
    # Determinism of the seeded path.
    assert is_prime(PRIME_ABOVE_MR_BOUND) == is_prime(PRIME_ABOVE_MR_BOUND)


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
# The bounds of the Miller-Rabin bands, each a strong pseudoprime to the
# bases below it, a row that leaves the sieve part-way (65521 once its 3s
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


def test_sieve_split_against_sympy():
    # The sieve itself: each row lists exactly the primes below its own
    # bound, with multiplicity, and a rest free of them.  Below the top
    # bound B a full row's rest is below the bound cubed, and a row
    # without full has a rest below the bound squared unless it had a hit.
    # Values up to the float64 limit 2**52.
    rng = stream(20260818, 107)
    values = [2 ** 52 + d for d in range(-80, 0)]
    values += [rng.randrange(1, 2 ** 22) * 3 ** 5 * 7 * 65521
               for _ in range(40)]
    values += [0, 1, -1, -(2 ** 32 - 5) * 2 ** 10 * 3 * 5 * 7]
    values += [rng.randrange(-2 ** 20, 2 ** 20) for _ in range(40)]
    values += LEAVERS + STAYERS
    assert max(map(abs, values)) < 2 ** 52
    # Without full, a row also stops after the block of its first hit,
    # so some rows end under a smaller bound than with full.
    stopped = 0
    for chunk in (values[:40], values[40:], values[150:]):
        top = arith._sieve_bound(max(map(abs, chunk)))
        whole = arith._split(chunk, full=True)
        part = arith._split(chunk, full=False)
        for full, (bounds, small, rest) in ((True, whole), (False, part)):
            for v, b, ps, m in zip(chunk, bounds, small, rest):
                assert b == top or b < top and sympy.isprime(b), v
                fac = sympy.factorint(abs(v), limit=b) if abs(v) > 1 \
                    else {}
                want = [p for p, e in sorted(fac.items()) if p < b
                        for _ in range(e)]
                assert ps == want, v
                assert m == (abs(v) // math.prod(ps) if v else 0), v
                assert b == top or (m < b ** 3 if full
                                    else m < b * b or ps), v
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
    """The contract of _split, row by row, against the product of the
    primes below the row's bound: the listed primes are primes below it,
    the rest times them is |v| and the rest is coprime to that product
    (so they are exactly the primes below the bound, with multiplicity).
    A row below 2**52 has a bound below the top bound B, taken from those
    rows alone, or B itself.  Unless the bound is B its rest is below the
    bound cubed with full=True, and with full=False below the bound squared
    unless the row had a hit.  A row of 2**52 and more has bound 1024.
    Its trial division may stop early, with a rest that is a prime below
    1024**2, and with full=False and a hit it stops after its least prime,
    which is then out of the rest."""
    low = [abs(v) for v in values if abs(v) < 2 ** 52]
    top = arith._sieve_bound(max(low, default=0))
    got = arith._split(values, full)
    below = {}
    for v, b, ps, m in zip(values, *got):
        big = abs(v) >= 2 ** 52
        assert b == 1024 if big else b == top or b < top and \
            sympy.isprime(b), v
        assert ps == sorted(ps) and all(p < b for p in ps), v
        assert all(sympy.isprime(p) for p in set(ps)), v
        assert m * math.prod(ps) == abs(v), v
        cut = b
        if big and ps and not full:
            assert set(ps) == {ps[0]}, v
            cut = ps[0] + 1
        if cut not in below:
            below[cut] = math.prod(sympy.primerange(cut))
        assert math.gcd(m, below[cut]) == 1 or v == 0 \
            or big and m < b * b and sympy.isprime(m), v
        assert big or b == top or (m < b ** 3 if full
                                   else m < b * b or ps), v
    return got


EDGE_SPLIT_VALUES = [0, 1, -1, *(s * 2 ** k for k in range(52)
                                 for s in (1, -1, 3, -7))]


def test_sieve_split_edge_values():
    values = [v for v in EDGE_SPLIT_VALUES if abs(v) < 2 ** 52]
    for full in (True, False):
        check_split(values, full)
        check_split(list(MIXED), full)
    _, small, rest = arith._split(values, full=False)
    assert small[:3] == [[], [], []] and rest[:3] == [0, 1, 1]
    for v, ps, m in zip(values[3:], small[3:], rest[3:]):
        twos = (abs(v) & -abs(v)).bit_length() - 1
        assert ps == [2] * twos if twos else ps in ([], [3], [7]), v


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
    values = [6, 2 ** 52 - 1, 2 ** 52, -(2 ** 61 - 1), 0, -35, 2 ** 80 + 1]
    want, got = _sympy_and_batched(values)
    assert got == want
    for full in (True, False):
        bounds = check_split(values, full)[0]
        assert [b for v, b in zip(values, bounds) if abs(v) >= 2 ** 52] \
            == [1024] * 3
        assert bounds[4] == 2 ** 16
    # 37 * 41 runs every block below 32, so its bound is the top bound:
    # 32 from [37 * 41] alone, where 2**61 + 1 would have made it 2**16.
    assert is_prime_many([37 * 41, 2 ** 61 + 1]) == [False, False]
    assert arith._split([37 * 41, 2 ** 61 + 1], full=False)[0] == [32, 1024]
    # A big row's trial division stops once p * p passes its rest: 3 is
    # left as the rest of 3 * 2**60, under the bound 1024.  The row of 7
    # leaves the sieve after its first block, the odd primes to 23.
    assert check_split([3 * 2 ** 60, 7], True) == ([1024, 29],
                                                   [[2] * 60, [7]], [3, 1])


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
            ("perfect_power",),
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
    for n in odd:
        assert arith._miller_rabin(n) == sympy.isprime(n), n
    # Strong pseudoprimes: to bases 2, 3, 5, 7; to every prime base up
    # to 31; and to every prime base up to 37 (above 2**64).
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n)
        assert not arith._miller_rabin(n), n
    assert is_prime_many([3215031751, 3825123056546413051,
                          318665857834031151167461]) == [False] * 3


# Each bound is a composite that is a strong pseudoprime to all of its
# bases: below it they are a proof (Jaeschke, Math. Comp. 61, 1993), at
# it they are not.  The first and last are the old bound of 2, 3, 5, 7
# and the bound of the primes to 17.
MR_BANDS = ((3_215_031_751, (2, 3, 5, 7)),
            (4_759_123_141, (2, 7, 61)),
            (1_122_004_669_633, (2, 13, 23, 1_662_803)),
            (2_152_302_898_747, (2, 3, 5, 7, 11)),
            (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
            (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)))


def test_miller_rabin_band_bounds():
    assert arith._MR_BANDS[:4] == MR_BANDS[1:5]
    for n, bases in MR_BANDS:
        assert not sympy.isprime(n)
        assert mr(n, bases), n
        assert not arith._miller_rabin(n), n
        for m in range(n - 199, n + 200, 2):
            assert arith._miller_rabin(m) == sympy.isprime(m), m
    bounds = [n for n, _ in MR_BANDS]
    assert is_prime_many(bounds) == [False] * len(bounds)
    assert liouville_many(bounds) == [-1, 1, 1, -1, -1, 1]


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
    band = [rng.randrange(arith._BPSW_FROM, 2 ** 64) | 1
            for _ in range(2000)]
    band += [sympy.nextprime(rng.randrange(arith._BPSW_FROM, 2 ** 64))
             for _ in range(100)]
    for n in band:
        assert arith._strong_lucas(n) == is_strong_lucas_prp(n), n
        assert arith._miller_rabin(n) == sympy.isprime(n), n
    for a in range(-30, 30):
        for n in range(1, 200, 2):
            assert arith._jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_bpsw_band_refuses_strong_pseudoprimes_and_squares():
    # 3825123056546413051 = 149491 * 747451 * 34233211 is a strong
    # pseudoprime to every prime base up to 23, base 2 among them, so the
    # Lucas test alone refuses it.
    n = 3825123056546413051
    assert arith._BPSW_FROM < n < 2 ** 64
    assert not arith._strong_lucas(n) and not arith._miller_rabin(n)
    assert is_prime_many([n]) == [False] and liouville_many([n]) == [-1]
    # A square has no D with (D/n) = -1, so the search must not start.
    squares = [p * p for p in (1999993, 2000003, sympy.prevprime(2 ** 32))]
    assert all(arith._BPSW_FROM <= m < 2 ** 64 for m in squares)
    start = time.perf_counter()
    for m in squares:
        assert not arith._strong_lucas(m) and not arith._miller_rabin(m)
    assert time.perf_counter() - start < 1.0
    assert is_prime_many(squares) == [False] * 3
    assert liouville_many(squares) == [1] * 3


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
