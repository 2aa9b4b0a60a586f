"""Truncated singular series, kept in exact rational arithmetic.

Each series is an Euler product over primes p <= w of a local density
factor.  The factors come from exact residue counts, so values are
Fractions end to end and only get converted to float at the reporting
boundary.  The functions assume checked input, as the run configs
check it when they are built: w >= 2, distinct shifts or points, and a
modulus M >= 1 with no prime factor above w.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .arith import primes_upto
from .errors import BudgetError
from .poly import (IntPolynomial, count_unit_tuples_linear_system,
                   count_unit_values_mod_p)

INTERCHANGE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class TruncatedSeries:
    """Product over primes p <= w of exact local factors."""

    local_factors: tuple  # ((p, Fraction), ...) ascending in p
    value: Fraction = field(init=False)  # the product of the factors

    def __post_init__(self):
        value = Fraction(1)
        for _, fac in self.local_factors:
            value *= fac
        object.__setattr__(self, "value", value)


def series_f(f: IntPolynomial, w: int) -> TruncatedSeries:
    """Single-polynomial series: factor (count of unit values / p)/(1-1/p).

    It is the tuple series at the one shift 0.
    """
    return series_f_tuple(f, (0,), w)


def series_f_tuple(f: IntPolynomial, shifts, w: int) -> TruncatedSeries:
    """Shifted-tuple series with denominator (1 - 1/p)**k per prime."""
    k = len(shifts)
    factors = []
    for p in primes_upto(w):
        p = int(p)
        count = count_unit_values_mod_p(f, p, shifts)
        factors.append((p, Fraction(count * p ** (k - 1), (p - 1) ** k)))
    return TruncatedSeries(tuple(factors))


def prime_factors_at_most(M: int, w: int) -> bool:
    """Whether every prime factor of M >= 1 is at most w."""
    p = 2
    while p <= w and p * p <= M:
        while M % p == 0:
            M //= p
        p += 1
    return M <= w  # M is now 1, a prime, or free of primes up to w


def series_linear_system(ns, f0: IntPolynomial, M: int, w: int,
                         d: int) -> TruncatedSeries:
    """Series for averages over f congruent to f0 mod M, truncated at w.

    Primes dividing M contribute an indicator factor 1{f0(n_i) nonzero
    mod p for all i} / (1-1/p)**t; the remaining primes p <= w contribute
    the unit-tuple count over coefficient space normalized the same way,
    from the closed form of `count_unit_tuples_linear_system` (O(t) work
    per prime).  The series depends on the configuration only, not on a
    sampled f, so `run_experiment` computes it once per run.
    """
    t = len(ns)
    factors = []
    for p in primes_upto(w):
        p = int(p)
        if M % p == 0:
            ok = all(f0.eval(n) % p != 0 for n in ns)
            fac = Fraction(p ** t, (p - 1) ** t) if ok else Fraction(0)
        else:
            count = count_unit_tuples_linear_system(ns, d, p)
            fac = Fraction(count * p ** t, p ** (d + 1) * (p - 1) ** t)
        factors.append((p, fac))
    return TruncatedSeries(tuple(factors))


def lemma_upper_bound(w: int, k: int = 1) -> Fraction:
    """Product of (1 - 1/p)**(-k) over p <= w; every series is below it."""
    out = Fraction(1)
    for p in primes_upto(w):
        p = int(p)
        out *= Fraction(p, p - 1) ** k
    return out


def lemma_lower_bound(w: int, d: int) -> Fraction:
    """Product of (1 - min(d, p-1)/p)/(1 - 1/p) over p <= w.

    A nonzero single-polynomial series of a degree <= d polynomial is at
    least this, since a nonzero reduction has at most min(d, p-1) roots.
    """
    out = Fraction(1)
    for p in primes_upto(w):
        p = int(p)
        out *= Fraction(p - min(d, p - 1), p) / Fraction(p - 1, p)
    return out


def interchange_identity_check(f: IntPolynomial, p: int, r: int) -> bool:
    """Brute-force check of the shift-average rearrangement.

    Summing the count of x with f(x + l_i) a unit for all i, over all
    shift vectors l in F_p^r, must equal p times the r-th power of the
    single-point unit count.  Both sides are enumerated literally.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if p ** r * p > INTERCHANGE_BUDGET:
        raise BudgetError(f"interchange enumeration p^{r}*p exceeds budget")
    g = f.reduce_mod(p)
    unit = [g.eval(y) % p != 0 for y in range(p)]
    lhs = 0
    for shifts in product(range(p), repeat=r):
        lhs += sum(1 for x in range(p)
                   if all(unit[(x + l) % p] for l in shifts))
    rhs = p * sum(unit) ** r
    return lhs == rhs
