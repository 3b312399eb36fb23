"""Prime-field layer: primality, square roots, polynomial arithmetic, and
the resultant/discriminant helpers, checked against exhaustive scans on
small fields."""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import is_nthpow_residue, nthroot_mod

from smallbox.ffield import (
    FpPolynomial,
    PrimeModulus,
    count_roots,
    discriminant,
    is_prime,
    monic_square_root,
    poly_values,
    residue_dtype,
    resultant,
    roots_mod,
    sqrt_mod_int,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 211)


def test_is_prime_small_exhaustive():
    def naive(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == naive(n), n


def test_is_prime_pseudoprime_traps():
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 1105, 1729, 2465, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (2 ** 61 - 1, 1000003, 10 ** 9 + 7):
        assert is_prime(n)


def test_prime_modulus_rejects_bad_input():
    for bad in (0, 1, 2, 4, 9, 561, 2 ** 62 + 1):
        with pytest.raises(ValueError):
            PrimeModulus(bad)


@pytest.mark.parametrize("p", [31, 13, 17, 41, 101, 211])
def test_sqrt_mod_exhaustive(p):
    # sqrt_mod_int is roots_mod at k = 2, whose Pohlig-Hellman correction
    # takes one base-2 digit per factor 2 of p - 1: one at p = 31 and 211,
    # two at 13 and 101, three at 41, four at 17
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    for a in range(p):
        assert sqrt_mod_int(a, p) == tuple(squares.get(a, [])), (p, a)


def test_sqrt_mod_int_sorted_tuple():
    assert sqrt_mod_int(0, 31) == (0,)
    assert sqrt_mod_int(3, 13) == (4, 9)
    assert sqrt_mod_int(5, 13) == ()
    roots = sqrt_mod_int(2, 10007)
    assert len(roots) == 2 and roots[0] < roots[1]
    assert all(r * r % 10007 == 2 for r in roots)


# 998244353 = 2^23 * 7 * 17 + 1 (a long 2-adic Pohlig-Hellman chain);
# 2^61 - 1 runs above INT64_P_LIMIT
ROOT_PRIMES = (3, 7, 13, 37, 1009, 998244353, 10 ** 9 + 7, (1 << 61) - 1)


@st.composite
def root_cases(draw):
    """(c, k, p) with c zero, a k-th power, or (where one exists) not one."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    k = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 10, 14)))
    kind = draw(st.sampled_from(("zero", "power", "nonresidue")))
    if kind == "zero":
        return 0, k, p
    x = draw(st.integers(1, p - 1))
    c = pow(x, k, p)
    if kind == "nonresidue":
        c = next((c * y % p for y in range(2, 200)
                  if not is_nthpow_residue(c * y % p, k, p)), c)
    return c, k, p


@settings(max_examples=300, deadline=None)
@given(root_cases())
def test_roots_mod_matches_sympy(case):
    c, k, p = case
    roots = roots_mod(c, k, p)
    assert list(roots) == sorted(set(nthroot_mod(c, k, p, all_roots=True) or []))
    assert len(roots) in ((1,) if c == 0 else (0, math.gcd(k, p - 1)))


def test_roots_mod_exhaustive_small_fields():
    for p in (3, 5, 7, 11, 13, 31, 37):
        for k in range(1, 2 * p):
            table = {}
            for x in range(p):
                table.setdefault(pow(x, k, p), []).append(x)
            for c in range(p):
                assert roots_mod(c, k, p) == tuple(table.get(c, [])), (c, k, p)


def test_roots_mod_rejects_bad_input():
    with pytest.raises(ValueError):
        roots_mod(3, 0, 31)
    # composite moduli: a candidate that fails x^k = c raises, never returns
    with pytest.raises(ArithmeticError, match="failed to verify"):
        roots_mod(1, 2, 9)
    with pytest.raises(ArithmeticError, match="outside"):
        roots_mod(8, 6, 9)
    for m in (9, 15, 21, 25, 27, 91):
        for c in range(m):
            try:
                roots = roots_mod(c, 2, m)
            except ArithmeticError:
                continue
            assert all(x * x % m == c % m for x in roots)


def test_sqrt_mod_int_composite_modulus_raises():
    # 9 = 1 mod 8 and 1 passes the Euler test, but no z is a nonresidue
    # mod 9, so an unbounded search for one would never end
    with pytest.raises(ArithmeticError):
        sqrt_mod_int(1, 9)


def test_polynomial_text_round_trip():
    mod = PrimeModulus(101)
    f = FpPolynomial.from_text("3,2,0,1", mod)
    assert f.coeffs == (3, 2, 0, 1)
    assert FpPolynomial.from_text(f.to_text(), mod) == f
    # leading zeros are trimmed, degree follows
    g = FpPolynomial.from_ints((5, 0, 0), mod)
    assert g.degree == 0 and g.coeffs == (5,)


def test_polynomial_eval_matches_power_sum():
    mod = PrimeModulus(211)
    rng = random.Random(2)
    for _ in range(100):
        coeffs = [rng.randrange(211) for _ in range(rng.randint(1, 7))]
        f = FpPolynomial.from_ints(coeffs, mod)
        x = rng.randrange(211)
        assert f(x) == sum(c * x ** i for i, c in enumerate(coeffs)) % 211


def test_polynomial_derivative_and_shift():
    mod = PrimeModulus(101)
    f = FpPolynomial.from_ints((3, 2, 0, 1), mod)  # x^3 + 2x + 3
    assert f.derivative().coeffs == (2, 0, 3)
    # differentiation commutes with the shift X -> X + 5, built by sympy
    shifted = sympy.Poly(f.coeffs[::-1], sympy.Symbol("x")).shift(5)
    g = FpPolynomial.from_ints([int(c) for c in shifted.all_coeffs()[::-1]], mod)
    for x in range(101):
        assert g.derivative()(x) == f.derivative()((x + 5) % 101)


def test_resultant_vanishes_iff_common_root():
    mod = PrimeModulus(31)
    rng = random.Random(3)
    x = sympy.Symbol("x")

    def over_f31(f):
        return sympy.Poly(f.coeffs[::-1], x, modulus=31)

    for _ in range(200):
        f = FpPolynomial.from_ints(
            [rng.randrange(31) for _ in range(3)] + [1], mod)
        g = FpPolynomial.from_ints(
            [rng.randrange(31) for _ in range(2)] + [1], mod)
        common = sympy.gcd(over_f31(f), over_f31(g))
        assert (resultant(f, g) == 0) == (common.degree() >= 1)


@st.composite
def root_count_cases(draw, primes=(3, 5, 7, 31, 101, 1009, 10007)):
    """Nonzero polynomials of degree 0..12, some with planted (repeated)
    roots times a random cofactor, at primes up to 10007."""
    p = draw(st.sampled_from(primes))
    coeff = st.integers(0, p - 1)
    poly = [draw(coeff) for _ in range(draw(st.integers(0, 6)))] + [draw(st.integers(1, p - 1))]
    for a in draw(st.lists(coeff, max_size=6)):
        poly = [(lo - a * hi) % p for lo, hi in zip([0] + poly, poly + [0])]  # times X - a
    return poly, p


def _scan_roots(coeffs, p):
    """Roots of the polynomial counted by evaluating it at every residue."""
    return int((poly_values(coeffs, range(p), p) == 0).sum())


@settings(max_examples=300, deadline=None)
@given(root_count_cases())
def test_count_roots_matches_the_residue_scan(case):
    coeffs, p = case
    assert count_roots(coeffs, p) == _scan_roots(coeffs, p)


@settings(max_examples=5, deadline=None)
@given(root_count_cases(primes=(1000003,)))
def test_count_roots_matches_the_residue_scan_at_a_larger_prime(case):
    coeffs, p = case
    assert count_roots(coeffs, p) == _scan_roots(coeffs, p)


def test_count_roots_rejects_the_zero_polynomial():
    with pytest.raises(ValueError):
        count_roots([0, 0], 101)


def test_resultant_root_product():
    # res(f, g) = lc(g)^deg f * prod f(root) over the roots of g, when g splits
    mod = PrimeModulus(101)
    rng = random.Random(4)
    for _ in range(50):
        roots = [rng.randrange(101) for _ in range(3)]
        g = FpPolynomial.from_ints((1,), mod)
        for a in roots:
            g = g * FpPolynomial.from_ints((-a % 101, 1), mod)
        f = FpPolynomial.from_ints([rng.randrange(101) for _ in range(3)] + [1], mod)
        expect = 1
        for a in roots:
            expect = expect * f(a) % 101
        assert resultant(g, f) == expect


def test_discriminant_cubic_closed_form():
    mod = PrimeModulus(211)
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(211), rng.randrange(211)
        f = FpPolynomial.from_ints((b, a, 0, 1), mod)
        assert discriminant(f) == (-4 * a ** 3 - 27 * b * b) % 211


def test_monic_square_root_inverts_squaring():
    mod = PrimeModulus(101)
    rng = random.Random(6)
    for _ in range(100):
        h = FpPolynomial.from_ints(
            [rng.randrange(101) for _ in range(rng.randint(1, 3))] + [1], mod)
        assert monic_square_root(h * h) == h
    f = FpPolynomial.from_ints((1, 1, 0, 1), mod)
    assert monic_square_root(f) is None


def test_monic_square_root_detects_unit_multiples_of_squares():
    mod = PrimeModulus(31)
    rng = random.Random(7)
    for _ in range(100):
        h = FpPolynomial.from_ints(
            [rng.randrange(31) for _ in range(2)] + [1], mod)
        c = rng.randrange(1, 31)
        sq = h * h * FpPolynomial.from_ints((c,), mod)
        assert monic_square_root(sq) == h
        # odd degree can never be a unit times a square
        assert monic_square_root(sq * FpPolynomial.from_ints((0, 1), mod)) is None


# poly_values reduces only when its running bound says int64 could overflow;
# this oracle reduces after every step, in Python integers
HORNER_PRIMES = (3, 31, 1009, 1000003, 2 ** 31 - 1, 2147483659, 2 ** 61 - 1)


def scalar_horner(coeffs, x, p):
    """f(x) mod p by Horner in Python integers, reduced after every step."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@st.composite
def horner_cases(draw):
    """(coeffs, xs, p): degree 0..8, coefficients in (-3p, 3p) or all p - 1,
    xs a range (ending at p - 1 or p, symmetric about 0, longer than p,
    step 3 or -1, empty) or an int64 or object array, reduced or not."""
    p = draw(st.sampled_from(HORNER_PRIMES))
    deg = draw(st.integers(0, 8))
    if draw(st.booleans()):
        coeffs = [p - 1] * (deg + 1)
    else:
        coeffs = draw(st.lists(st.integers(-3 * p + 1, 3 * p - 1),
                               min_size=deg + 1, max_size=deg + 1))
    n = draw(st.integers(0, 40))
    start = draw(st.integers(-2 * p, 2 * p))
    kind = draw(st.sampled_from(("to p-1", "to p", "symmetric", "longer than p",
                                 "step 3", "step -1", "empty", "array")))
    if kind in ("to p-1", "to p"):
        end = p - 1 if kind == "to p-1" else p
        xs = range(end - n + 1, end + 1)
    elif kind == "symmetric":
        xs = range(-n, n + 1)
    elif kind == "longer than p":
        xs = range(start, start + min(p, 1009) + 1 + n)  # longer than p while p <= 1009
    elif kind == "step 3":
        xs = range(start, start + 3 * n, 3)
    elif kind == "step -1":
        xs = range(start, start - n, -1)
    elif kind == "empty":
        xs = range(start, start - n)
    else:
        low = 0 if draw(st.booleans()) else -3 * p + 1
        values = draw(st.lists(st.integers(low, 3 * p - 1), max_size=40))
        xs = np.array(values, dtype=draw(st.sampled_from((np.int64, object))))
    return coeffs, xs, p


@settings(max_examples=400, deadline=None)
@given(horner_cases())
def test_poly_values_matches_the_scalar_horner(case):
    coeffs, xs, p = case
    got = poly_values(coeffs, xs, p)
    assert got.dtype == residue_dtype(p)
    assert [int(v) for v in got] == [scalar_horner(coeffs, int(x), p) for x in xs]


def test_poly_values_at_the_largest_int64_prime_reduces_every_step():
    # (p - 1)^2 fits int64 but (p - 1)^3 does not: after the first step every
    # step needs a reduction before it, and one skipped would wrap silently
    p = 2 ** 31 - 1
    assert (p - 1) ** 2 < 2 ** 63 < (p - 1) ** 3
    rng = random.Random(8)
    window = range(p - 200, p)
    unreduced = np.array([rng.randrange(-3 * p + 1, 3 * p) for _ in window], dtype=np.int64)
    for deg in range(9):
        for coeffs in ([p - 1] * (deg + 1), [rng.randrange(p) for _ in range(deg + 1)]):
            for xs in (window, np.array(window, dtype=np.int64), unreduced):
                want = [scalar_horner(coeffs, int(x), p) for x in xs]
                assert poly_values(coeffs, xs, p).tolist() == want
