"""Integer polynomials and the residue-counting primitives built on them.

A polynomial is stored as its coefficient tuple (a_0, ..., a_d), low
degree first, with a_d = 0 allowed so that "degree at most d" families
keep a fixed coefficient length.  Evaluation is exact arbitrary-precision
arithmetic throughout.
"""

import math
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import uniform_int

@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        """Declared degree: one less than the coefficient count."""
        return len(self.coeffs) - 1

    def eval(self, n: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * n + c
        return v

    def reduce_mod(self, M: int) -> "IntPolynomial":
        """Coefficientwise canonical representatives in [0, M)."""
        if M < 1:
            raise ValueError("modulus must be >= 1")
        return IntPolynomial(tuple(c % M for c in self.coeffs))

    def shift(self, c: int) -> "IntPolynomial":
        """The expanded composition f(x + c)."""
        d = self.degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs):
            for j in range(i + 1):
                out[j] += a * math.comb(i, j) * c ** (i - j)
        return IntPolynomial(tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_text(self) -> str:
        return ";".join(str(c) for c in self.coeffs)


def poly_from_text(text: str) -> IntPolynomial:
    """Parse the "a0;a1;..." coefficient format."""
    parts = [s.strip() for s in text.split(";")]
    try:
        coeffs = tuple(int(s) for s in parts)
    except ValueError:
        raise ConfigError(f"bad polynomial text {text!r}: "
                          "expected semicolon-separated integers")
    return IntPolynomial(coeffs)


def sample_uniform(d: int, H: int, rng: random.Random) -> IntPolynomial:
    """Uniform draw from degree <= d polynomials with |a_i| <= H."""
    if d < 0:
        raise ConfigError("degree must be >= 0")
    if H < 0:
        raise ConfigError("coefficient bound must be >= 0")
    return IntPolynomial(tuple(uniform_int(rng, -H, H)
                               for _ in range(d + 1)))


def sample_uniform_residue(d: int, H: int, rng: random.Random,
                           f0: IntPolynomial, M: int,
                           max_attempts: int = 1_000_000):
    """Uniform draw conditioned on f congruent to f0 mod M.

    Plain rejection keeps the conditional distribution exactly uniform.
    Returns (polynomial, attempts).
    """
    if M < 1:
        raise ConfigError("modulus must be >= 1")
    if 2 * H + 1 < M:
        raise ConfigError("coefficient range narrower than the modulus; "
                          "the residue class may be empty")
    want = [c % M for c in f0.coeffs] + [0] * (d + 1 - len(f0.coeffs))
    if len(want) != d + 1:
        raise ConfigError("residue polynomial has higher degree than d")
    for attempt in range(1, max_attempts + 1):
        f = sample_uniform(d, H, rng)
        if all(c % M == r for c, r in zip(f.coeffs, want)):
            return f, attempt
    raise BudgetError(f"no draw matched the residue class mod {M} "
                      f"in {max_attempts} attempts")


def is_zero_poly_mod_p(f: IntPolynomial, p: int) -> bool:
    """True when f vanishes at every residue mod p.

    For p > deg f that is the same as p dividing every coefficient; for
    small p the reduced polynomial is evaluated on all of F_p.
    """
    if p > f.degree:
        return all(c % p == 0 for c in f.coeffs)
    g = f.reduce_mod(p)
    return all(g.eval(x) % p == 0 for x in range(p))


def count_unit_values_mod_p(f: IntPolynomial, p: int, shifts) -> int:
    """#{x in F_p : f(x + l) is a unit mod p for every shift l}."""
    if not shifts:
        raise ValueError("need at least one shift")
    g = f.reduce_mod(p)
    unit = [g.eval(y) % p != 0 for y in range(p)]
    offs = [l % p for l in shifts]
    return sum(1 for x in range(p)
               if all(unit[(x + l) % p] for l in offs))


def _count_unit_tuples_direct(rows, d: int, p: int) -> int:
    """Exhaustive count, vectorized over chunks of coefficient vectors."""
    t = len(rows)
    total = p ** (d + 1)
    weights = np.array([[row[j] for j in range(d + 1)] for row in rows],
                       dtype=np.int64)
    count = 0
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ok = np.ones(idx.shape, dtype=bool)
        vals = np.zeros((t, idx.shape[0]), dtype=np.int64)
        rem = idx
        for j in range(d + 1):
            digit = rem % p
            rem = rem // p
            vals += weights[:, j:j + 1] * digit[np.newaxis, :]
        for i in range(t):
            ok &= (vals[i] % p) != 0
        count += int(ok.sum())
    return count


def count_unit_tuples_linear_system(ns, d: int, p: int,
                                    direct_cap: int = 0) -> int:
    """#{a in F_p^{d+1} : a_0 + a_1 n_i + ... + a_d n_i^d unit, all i}.

    Counts coefficient vectors whose induced values at every point of ns
    are nonzero mod p.  The count depends only on the k distinct residues
    n_i mod p: forcing the values at s of them to zero is a Vandermonde
    system of rank min(s, d+1), so inclusion-exclusion over those subsets
    gives the closed form

        sum_{s=0..k} (-1)^s C(k, s) p^(d+1-min(s, d+1)),

    which is p^(d+1-k) (p-1)^k when k <= d+1.  When p^(d+1) <= direct_cap
    the vectors are enumerated instead; that route is the independent
    check the tests compare against.
    """
    ns = list(ns)
    if len(set(ns)) != len(ns):
        raise ValueError("evaluation points must be distinct")
    if not ns:
        raise ValueError("need at least one evaluation point")
    if d < 0:
        raise ValueError("d must be >= 0")
    if p ** (d + 1) <= direct_cap:
        rows = [[pow(n % p, j, p) for j in range(d + 1)] for n in ns]
        return _count_unit_tuples_direct(rows, d, p)
    k = len({n % p for n in ns})
    return sum((-1) ** s * math.comb(k, s) * p ** (d + 1 - min(s, d + 1))
               for s in range(k + 1))
