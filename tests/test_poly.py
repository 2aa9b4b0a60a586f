"""Integer polynomials and the F_p counting primitives."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprime.arith import primes_upto
from polyprime.config import _parse_coeffs
from polyprime.errors import ConfigError
from polyprime.experiments import ExperimentConfig
from polyprime.poly import (
    IntPolynomial,
    count_unit_tuples_linear_system,
    count_unit_values_mod_p,
    sample_uniform,
    sample_uniform_residue,
)
from polyprime.rng import stream
from polyprime.runio import format_cell

X2_X_2 = IntPolynomial((2, 1, 1))  # x^2 + x + 2, the always-even staple
X = IntPolynomial((0, 1))


def test_eval_examples():
    assert X2_X_2.eval(3) == 14
    assert IntPolynomial((0,)).eval(10 ** 6) == 0
    assert IntPolynomial((5, -3, 2)).eval(4) == 25


def test_eval_exact_bignum():
    f = IntPolynomial((1, 0, 0, 10 ** 9))
    assert f.eval(10 ** 6) == 10 ** 9 * 10 ** 18 + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=7),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-1, 40))
def test_values_match_eval(coeffs, lo, count):
    # Degrees 0 to 6; count 1 is lo == hi and count 0 or -1 is empty.
    f = IntPolynomial(tuple(coeffs))
    assert f.values(lo, lo + count - 1) == \
        [f.eval(n) for n in range(lo, lo + count)]


def test_values_examples():
    assert X2_X_2.values(-2, 2) == [4, 2, 2, 4, 8]
    assert IntPolynomial((7,)).values(5, 7) == [7, 7, 7]
    assert X.values(3, 3) == [3]
    assert X.values(3, 2) == []


def test_degree_allows_zero_leading_coefficient():
    f = IntPolynomial((3, 1, 0))
    assert f.degree == 2
    assert f.eval(5) == 8


def test_sample_uniform_degenerate():
    rng = stream(1, 0)
    f = sample_uniform(1, 0, rng)
    assert f.coeffs == (0, 0)
    assert not any(f.coeffs)


def test_sample_uniform_deterministic():
    a = sample_uniform(3, 50, stream(20260818, 7))
    b = sample_uniform(3, 50, stream(20260818, 7))
    assert a == b
    c = sample_uniform(3, 50, stream(20260818, 8))
    assert a != c  # different stream index, overwhelmingly


def test_sample_uniform_range_and_mean():
    rng = stream(20260818, 11)
    n = 10 ** 5
    total = 0
    for _ in range(n):
        f = sample_uniform(1, 10, rng)
        assert len(f.coeffs) == 2
        assert all(-10 <= c <= 10 for c in f.coeffs)
        total += f.coeffs[0]
    assert abs(total / n) < 0.2


def test_sample_uniform_hits_endpoints():
    rng = stream(20260818, 12)
    seen = set()
    for _ in range(2000):
        seen.update(sample_uniform(0, 2, rng).coeffs)
    assert seen == {-2, -1, 0, 1, 2}


def test_reduce_mod_examples():
    assert IntPolynomial((7, 5)).reduce_mod(3).coeffs == (1, 2)
    assert IntPolynomial((9, -4, 17)).reduce_mod(1).coeffs == (0, 0, 0)
    assert IntPolynomial((4, 0, -1)).reduce_mod(5).coeffs == (4, 0, 4)
    with pytest.raises(ValueError):
        X.reduce_mod(0)


def test_eval_reduce_compatibility():
    rng = stream(20260818, 13)
    for _ in range(200):
        f = sample_uniform(3, 100, rng)
        p = [2, 3, 5, 7, 11][rng.randrange(5)]
        n = rng.randrange(-50, 50)
        assert f.eval(n) % p == f.reduce_mod(p).eval(n % p) % p


def test_shift_matches_eval(shift):
    rng = stream(20260818, 14)
    for _ in range(100):
        f = sample_uniform(3, 20, rng)
        c = rng.randrange(-10, 10)
        g = shift(f, c)
        for x in (-3, 0, 1, 7):
            assert g.eval(x) == f.eval(x + c)


def test_text_roundtrip():
    # The a0;a1;... text of --poly and --f0, as samples.csv writes coeffs.
    assert IntPolynomial(_parse_coeffs("2;1;1", "poly")) == X2_X_2
    assert _parse_coeffs(format_cell(X2_X_2.coeffs), "poly") == (2, 1, 1)
    assert _parse_coeffs(" -1 ; 0 ; 3 ", "poly") == (-1, 0, 3)
    assert _parse_coeffs("1e2;-2.5e1", "poly") == (100, -25)
    with pytest.raises(ConfigError, match="^poly: 'x' is not an integer$"):
        _parse_coeffs("2;x;1", "poly")
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_count_unit_values_examples():
    assert count_unit_values_mod_p(X, 5, [0]) == 4
    assert count_unit_values_mod_p(X2_X_2, 2, [0]) == 0
    assert count_unit_values_mod_p(X, 3, [0, 1]) == 1


def test_count_unit_values_needs_shifts():
    with pytest.raises(ValueError):
        count_unit_values_mod_p(X, 5, [])


def test_count_unit_values_zero_iff_vanishing():
    rng = stream(20260818, 15)
    for _ in range(200):
        f = sample_uniform(2, 10, rng)
        p = [2, 3, 5, 7][rng.randrange(4)]
        c = count_unit_values_mod_p(f, p, [0])
        g = f.reduce_mod(p)
        vanishes = all(g.eval(x) % p == 0 for x in range(p))
        assert (c == 0) == vanishes
        if p > f.degree and not vanishes:
            assert c >= p - f.degree


def test_count_unit_tuples_single_point():
    for d, p, n in [(1, 3, 0), (2, 5, 7), (3, 2, 1), (1, 11, -4)]:
        got = count_unit_tuples_linear_system([n], d, p)
        assert got == p ** (d + 1) - p ** d


def test_count_unit_tuples_two_point_examples():
    assert count_unit_tuples_linear_system([0, 1], 1, 2) == 1
    assert count_unit_tuples_linear_system([0, 1], 1, 3) == 4


def unit_tuples_by_enumeration(ns, d, p):
    """Count a in F_p^{d+1} with a(n) a unit mod p at every n, in Python."""
    return sum(1 for vec in itertools.product(range(p), repeat=d + 1)
               if all(sum(a * pow(n, j, p) for j, a in enumerate(vec)) % p
                      for n in ns))


def test_count_unit_tuples_brute_force_oracle():
    rng = stream(20260818, 16)
    for _ in range(30):
        p = [2, 3, 5][rng.randrange(3)]
        d = rng.randrange(1, 3)
        t = rng.randrange(1, 4)
        ns = []
        while len(ns) < t:
            n = rng.randrange(-6, 7)
            if n not in ns:
                ns.append(n)
        want = unit_tuples_by_enumeration(ns, d, p)
        assert count_unit_tuples_linear_system(ns, d, p) == want


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), d=st.integers(0, 3),
       ns=st.lists(st.integers(-20, 20), min_size=1, max_size=8,
                   unique=True))
def test_count_unit_tuples_closed_form_property(p, d, ns):
    # Points may collide mod p, and there may be more than d+1 of them.
    assert (count_unit_tuples_linear_system(ns, d, p)
            == unit_tuples_by_enumeration(ns, d, p))


def test_count_unit_tuples_bench_configuration():
    # Every local factor of the linear-forms series at ns=(1,2,3), d=2,
    # w=61: the closed form against the numpy enumeration.
    for p in primes_upto(61).tolist():
        direct = count_unit_tuples_linear_system((1, 2, 3), 2, p,
                                                 direct_cap=p ** 3)
        assert count_unit_tuples_linear_system((1, 2, 3), 2, p) == direct


def test_count_unit_tuples_direct_vs_inclusion_exclusion():
    # The closed form is the inclusion-exclusion sum over residue subsets.
    rng = stream(20260818, 17)
    for _ in range(40):
        p = [2, 3, 5, 7][rng.randrange(4)]
        d = rng.randrange(1, 4)
        t = rng.randrange(1, 4)
        ns = []
        while len(ns) < t:
            n = rng.randrange(-10, 11)
            if n not in ns:
                ns.append(n)
        direct = count_unit_tuples_linear_system(ns, d, p,
                                                 direct_cap=p ** (d + 1))
        assert count_unit_tuples_linear_system(ns, d, p) == direct


def test_count_unit_tuples_vandermonde_product_form():
    # For t <= d+1 distinct points and p beyond every |n_i - n_j|, the
    # forms are independent, so the count is p^{d+1-t} (p-1)^t.
    for p in (11, 13):
        for ns in ([0, 1], [0, 1, 2], [-3, 4, 7]):
            t = len(ns)
            d = 3
            got = count_unit_tuples_linear_system(ns, d, p)
            assert got == p ** (d + 1 - t) * (p - 1) ** t


def test_count_unit_tuples_validation():
    with pytest.raises(ValueError):
        count_unit_tuples_linear_system([1, 1], 1, 3)
    with pytest.raises(ValueError):
        count_unit_tuples_linear_system([], 1, 3)
    # 30 distinct residues and d+1 = 41 >= 30: the product form, exactly.
    p = 10 ** 9 + 7
    assert (count_unit_tuples_linear_system(list(range(30)), 40, p)
            == p ** 11 * (p - 1) ** 30)


def test_sample_uniform_residue():
    rng = stream(20260818, 18)
    f0 = IntPolynomial((1, 0))
    f = sample_uniform_residue(2, 20, rng, f0, 3)
    assert f.coeffs[0] % 3 == 1
    assert f.coeffs[1] % 3 == 0
    assert f.coeffs[2] % 3 == 0
    assert all(-20 <= c <= 20 for c in f.coeffs)


def test_sample_uniform_residue_narrow_range_rejected():
    # The config refuses a modulus above 2H+1; the sampler refuses an f0
    # of more than d+1 coefficients, which would otherwise be cut short.
    with pytest.raises(ConfigError, match="^M must be at most 2H\\+1"):
        ExperimentConfig(kind="linear-forms", d=1, H=1, X=1, samples=1,
                         seed=1, M=5, f0=(2,))
    with pytest.raises(ValueError, match="higher degree than d"):
        sample_uniform_residue(1, 1, stream(1, 1), IntPolynomial((0, 0, 1)),
                               1)


def test_sample_uniform_residue_uniform_within_class():
    # d=0, H=4, M=3, residue 1: admissible values are {-2, 1, 4}.
    rng = stream(20260818, 19)
    counts = {-2: 0, 1: 0, 4: 0}
    for _ in range(3000):
        f = sample_uniform_residue(0, 4, rng, IntPolynomial((1,)), 3)
        counts[f.coeffs[0]] += 1
    assert min(counts.values()) > 800


def test_sample_uniform_residue_draws_exactly_the_class():
    # Every vector of [-H, H]^(d+1) in the class of f0 mod M, counted one
    # vector at a time (f0 padded with zeros), is drawn, and nothing else
    # is: 40 draws per member miss one with odds below e**-40 per member.
    for d in (0, 1):
        for H in range(1, 6):
            for M in range(1, 2 * H + 2):
                for f0 in ((0,), (1,), (-4, 3)):
                    if len(f0) > d + 1:
                        continue
                    want = [c % M for c in f0] + [0] * (d + 1 - len(f0))
                    members = {vec for vec in itertools.product(
                        range(-H, H + 1), repeat=d + 1)
                        if all(a % M == r for a, r in zip(vec, want))}
                    rng = stream(d * 1000 + H * 100 + M, len(f0))
                    drawn = {sample_uniform_residue(
                        d, H, rng, IntPolynomial(f0), M).coeffs
                        for _ in range(40 * len(members))}
                    assert drawn == members, (d, H, M, f0)


def test_sample_uniform_residue_at_modulus_one_is_sample_uniform():
    # Mod 1 every class is the whole family, and the draw is the one
    # sample_uniform makes from the same stream, so a linear-forms run at
    # M = 1 draws the polynomials every other kind draws.
    for d, H in ((0, 1), (1, 7), (2, 10 ** 8), (3, 10 ** 30)):
        for i in range(200):
            f = sample_uniform_residue(d, H, stream(22, i),
                                       IntPolynomial((i % 5,)), 1)
            assert f == sample_uniform(d, H, stream(22, i)), (d, H, i)
