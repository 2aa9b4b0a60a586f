"""Exact moment combinatorics.

Everything here is integer or rational arithmetic: Stirling numbers,
Gaussian moments, Poisson moment polynomials in the rate parameter
lambda, the even-composition sum that produces Gaussian moments in the
large-X limit, and the sign-pattern variance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError

@lru_cache(maxsize=None)
def stirling2(k: int, r: int) -> int:
    """Partitions of a k-set into exactly r nonempty parts; S(0,0)=1."""
    if k < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    if k == 0:
        return 1 if r == 0 else 0
    if r == 0 or r > k:
        return 0
    return r * stirling2(k - 1, r) + stirling2(k - 1, r - 1)


def gaussian_moment(k: int) -> int:
    """k-th moment of a standard Gaussian: 0 for odd k, (k-1)!! for even."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2:
        return 0
    out = 1
    for j in range(k - 1, 1, -2):
        out *= j
    return out


@dataclass(frozen=True)
class MomentPolynomial:
    """Polynomial in lambda; coeffs[r] is the integer coefficient of lambda**r."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; normalize first")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, r: int) -> int:
        return self.coeffs[r] if 0 <= r < len(self.coeffs) else 0

    def eval(self, lam):
        v = 0
        for c in reversed(self.coeffs):
            v = v * lam + c
        return v

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = [self.coeff(r) + other.coeff(r) for r in range(n)]
        return _poly(out)

    def scale(self, c: int) -> "MomentPolynomial":
        return _poly([c * a for a in self.coeffs])

    def shift_up(self, e: int) -> "MomentPolynomial":
        """Multiply by lambda**e."""
        if all(a == 0 for a in self.coeffs):
            return _poly([0])
        return _poly([0] * e + list(self.coeffs))


def _poly(coeffs) -> MomentPolynomial:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return MomentPolynomial(tuple(out))


ZERO = _poly([0])
ONE = _poly([1])


@lru_cache(maxsize=None)
def poisson_raw_moment(ell: int) -> MomentPolynomial:
    """Raw moment of Poisson(lambda): sum of S(ell, r) lambda**r."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return _poly([stirling2(ell, r) for r in range(ell + 1)])


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> MomentPolynomial:
    """Central moment of Poisson(lambda), computed two ways.

    The binomial expansion of E(N - lambda)^k and the recurrence that
    multiplies lower central moments into lambda must agree coefficient
    by coefficient; a mismatch means a bug, not bad data.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    by_def = ZERO
    for ell in range(k + 1):
        term = poisson_raw_moment(ell).scale(
            math.comb(k, ell) * (-1) ** (k - ell)).shift_up(k - ell)
        by_def = by_def + term
    if k == 0:
        by_rec = ONE
    elif k == 1:
        by_rec = ZERO
    else:
        by_rec = ZERO
        for t in range(k - 1):
            by_rec = by_rec + poisson_central_moment(t).scale(
                math.comb(k - 1, t))
        by_rec = by_rec.shift_up(1)
    if by_def != by_rec:
        raise ConsistencyError(
            f"central moment k={k}: definition {by_def.coeffs} vs "
            f"recurrence {by_rec.coeffs}")
    return by_def


def stein_chen_check(ell: int) -> bool:
    """Raw-moment recurrence m_{ell+1} = lambda * sum C(ell,s) m_s, exactly."""
    lhs = poisson_raw_moment(ell + 1)
    rhs = ZERO
    for s in range(ell + 1):
        rhs = rhs + poisson_raw_moment(s).scale(math.comb(ell, s))
    rhs = rhs.shift_up(1)
    return lhs == rhs


def _even_compositions(k: int, u: int):
    """Ordered u-tuples of even parts >= 2 summing to k."""
    if u == 0:
        if k == 0:
            yield ()
        return
    for first in range(2, k - 2 * (u - 1) + 1, 2):
        for rest in _even_compositions(k - first, u - 1):
            yield (first,) + rest


def gaussian_coefficient_sum(k: int, X: int) -> Fraction:
    """Normalized count of even-exponent monomial patterns on X sites.

    Sums, over the number u of distinct sites and ordered compositions of
    k into u even parts, the multinomial k!/(l_1!...l_u!) times binom(X,u),
    then divides by X^(k/2).  Tends to the Gaussian moment as X grows for
    even k; identically zero for odd k.
    """
    if k < 1 or X < 1:
        raise ValueError("k and X must be positive")
    if k % 2:
        return Fraction(0)
    total = 0
    kfact = math.factorial(k)
    for u in range(1, k // 2 + 1):
        for comp in _even_compositions(k, u):
            m = kfact
            for part in comp:
                m //= math.factorial(part)
            total += m * math.comb(X, u)
    return Fraction(total, X ** (k // 2))


def sigma_squared(pattern) -> Fraction:
    """Variance of the normalized sign-pattern count.

    The sum of the sign product over ordered pairs of nonempty subsets of
    {1..s} that are translates of each other, scaled by 4**(-s), in closed
    form.  At shift c the subsets lie in the s - |c| positions i with
    i + c in range, and their products sum to prod(1 + eps_i eps_{i+c})
    - 1: that is 2**(s-|c|) - 1 when the pattern agrees with itself
    shifted by c, and -1 otherwise.  So

        sigma^2 = 4**(-s) (2**s - 1 + 2 sum_{c=1}^{s-1}
                           (2**(s-c) [eps[c:] == eps[:s-c]] - 1)),

    O(s**2) comparisons in all.
    """
    eps = tuple(pattern)
    s = len(eps)
    if s < 1:
        raise ValueError("pattern must be nonempty")
    if any(e not in (-1, 1) for e in eps):
        raise ValueError("pattern entries must be +1 or -1")
    total = 2 ** s - 1
    for c in range(1, s):
        total += 2 * ((2 ** (s - c) if eps[c:] == eps[:s - c] else 0) - 1)
    return Fraction(total, 4 ** s)
