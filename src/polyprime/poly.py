"""Integer polynomials and the residue-counting primitives built on them.

A polynomial is stored as its coefficient tuple (a_0, ..., a_d), low
degree first, with a_d = 0 allowed so that "degree at most d" families
keep a fixed coefficient length.  Evaluation is exact arbitrary-precision
arithmetic throughout.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

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

    def values(self, lo: int, hi: int) -> list:
        """[f(lo), ..., f(hi)], exactly: d nested running sums of the
        forward differences of f at lo, of which the d-th is constant.
        Empty when hi < lo."""
        d = self.degree
        diffs = [self.eval(n) for n in range(lo, lo + d + 1)]
        for k in range(1, d + 1):  # diffs[k] becomes the k-th difference
            for i in range(d, k - 1, -1):
                diffs[i] -= diffs[i - 1]
        seq = itertools.repeat(diffs[d])
        for start in reversed(diffs[:d]):
            seq = itertools.accumulate(seq, initial=start)
        return list(itertools.islice(seq, max(hi - lo + 1, 0)))

    def reduce_mod(self, M: int) -> "IntPolynomial":
        """Coefficientwise canonical representatives in [0, M)."""
        if M < 1:
            raise ValueError("modulus must be >= 1")
        return IntPolynomial(tuple(c % M for c in self.coeffs))


def sample_uniform(d: int, H: int, rng: random.Random) -> IntPolynomial:
    """Uniform draw from degree <= d polynomials with |a_i| <= H."""
    return IntPolynomial(tuple(uniform_int(rng, -H, H)
                               for _ in range(d + 1)))


def sample_uniform_residue(d: int, H: int, rng: random.Random,
                           f0: IntPolynomial, M: int) -> IntPolynomial:
    """Uniform draw from degree <= d polynomials with |a_i| <= H and f
    congruent to f0 mod M, in one draw per coefficient.

    With r_i the residues of f0's coefficients mod M, padded with 0 to
    d+1 of them, the class is the product over i of the progressions
    r_i + M*k in [-H, H], so a_i = r_i + M*k with k uniform in its range
    is exactly uniform over the class.  At M = 1 this is the draw of
    `sample_uniform`.  The linear-forms config keeps M in 1..2H+1, so
    that no progression is empty.
    """
    if len(f0.coeffs) > d + 1:
        raise ValueError("residue polynomial has higher degree than d")
    residues = [c % M for c in f0.coeffs] + [0] * (d + 1 - len(f0.coeffs))
    return IntPolynomial(tuple(
        r + M * uniform_int(rng, -((H + r) // M), (H - r) // M)
        for r in residues))


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
