"""Truncated singular series, kept in exact rational arithmetic.

Each series is an Euler product over primes p <= w of a local density
factor.  The factors come from exact residue counts, so values are
Fractions end to end and only get converted to float at the reporting
boundary.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .arith import primes_upto
from .errors import BudgetError, ConfigError
from .poly import (IntPolynomial, count_unit_tuples_linear_system,
                   count_unit_values_mod_p)

INTERCHANGE_BUDGET = 10 ** 7
TUPLE_SUM_BUDGET = 10 ** 6


@dataclass(frozen=True)
class TruncatedSeries:
    """Product over primes p <= w of exact local factors."""

    w: int
    local_factors: tuple  # ((p, Fraction), ...) ascending in p
    value: Fraction

    def __post_init__(self):
        v = Fraction(1)
        for _, fac in self.local_factors:
            v *= fac
        if v != self.value:
            raise ValueError("value does not match the factor product")

    def factor_at(self, p: int) -> Fraction:
        for q, fac in self.local_factors:
            if q == p:
                return fac
        raise KeyError(p)

    def to_text(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


def primorial(w: int) -> int:
    """Product of all primes <= w."""
    out = 1
    for p in primes_upto(w):
        out *= int(p)
    return out


def _assemble(w: int, factors) -> TruncatedSeries:
    value = Fraction(1)
    for _, fac in factors:
        value *= fac
    return TruncatedSeries(w=w, local_factors=tuple(factors), value=value)


def series_f(f: IntPolynomial, w: int) -> TruncatedSeries:
    """Single-polynomial series: factor (count of unit values / p)/(1-1/p)."""
    if w < 2:
        raise ConfigError("truncation bound w must be >= 2")
    factors = []
    for p in primes_upto(w):
        p = int(p)
        count = count_unit_values_mod_p(f, p, [0])
        factors.append((p, Fraction(count, p - 1)))
    return _assemble(w, factors)


def series_f_tuple(f: IntPolynomial, shifts, w: int) -> TruncatedSeries:
    """Shifted-tuple series with denominator (1 - 1/p)**k per prime."""
    if w < 2:
        raise ConfigError("truncation bound w must be >= 2")
    shifts = list(shifts)
    if len(set(shifts)) != len(shifts):
        raise ConfigError("shifts must be distinct")
    k = len(shifts)
    factors = []
    for p in primes_upto(w):
        p = int(p)
        count = count_unit_values_mod_p(f, p, shifts)
        factors.append((p, Fraction(count * p ** (k - 1), (p - 1) ** k)))
    return _assemble(w, factors)


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
    if w < 2:
        raise ConfigError("truncation bound w must be >= 2")
    if M < 1:
        raise ConfigError("modulus must be >= 1")
    ns = list(ns)
    if len(set(ns)) != len(ns):
        raise ConfigError("evaluation points must be distinct")
    t = len(ns)
    rem = M
    for p in primes_upto(w):
        p = int(p)
        while rem % p == 0:
            rem //= p
    if rem != 1:
        raise ConfigError(f"modulus {M} has a prime factor above w={w}")
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
    return _assemble(w, factors)


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


def interchange_identity_check(f: IntPolynomial, p: int, r: int,
                               budget: int = INTERCHANGE_BUDGET) -> bool:
    """Brute-force check of the shift-average rearrangement.

    Summing the count of x with f(x + l_i) a unit for all i, over all
    shift vectors l in F_p^r, must equal p times the r-th power of the
    single-point unit count.  Both sides are enumerated literally.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if p ** r * p > budget:
        raise BudgetError(f"interchange enumeration p^{r}*p exceeds budget")
    g = f.reduce_mod(p)
    unit = [g.eval(y) % p != 0 for y in range(p)]
    lhs = 0
    for shifts in product(range(p), repeat=r):
        lhs += sum(1 for x in range(p)
                   if all(unit[(x + l) % p] for l in shifts))
    rhs = p * sum(unit) ** r
    return lhs == rhs


def tuple_sum_identity_residual(f: IntPolynomial, L: int, r: int, w: int,
                                budget: int = TUPLE_SUM_BUDGET) -> Fraction:
    """(L * series)^r minus the sum of tuple series over distinct shifts.

    The shifts range over ordered r-tuples of distinct values in 1..L.
    The result stays exact; the caller compares it against the expected
    lower-order growth in L.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    if r < 1:
        raise ConfigError("r must be >= 1")
    n_tuples = 1
    for i in range(r):
        n_tuples *= L - i
    if n_tuples > budget:
        raise BudgetError(f"{n_tuples} shift tuples exceed the budget")
    total = (L * series_f(f, w).value) ** r
    acc = Fraction(0)
    for shifts in permutations(range(1, L + 1), r):
        acc += series_f_tuple(f, shifts, w).value
    return total - acc
