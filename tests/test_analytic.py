"""Exponential sums, the discrepancy inequality, Weyl differencing, and
exact power-sum system counts against brute-force enumeration."""

import cmath
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smallbox import acceptance, analytic, ffield
from smallbox.analytic import (
    count_vinogradov,
    erdos_turan_check,
    exp_sum,
    kappa,
    power_sum_vector,
    weyl_constant,
    weyl_majorant,
    weyl_square_identity,
)
from smallbox.ffield import FpPolynomial, PrimeModulus


def test_exp_sum_mod_p_phases_match_direct():
    mod = PrimeModulus(101)
    g = FpPolynomial.from_text("1,2,1", mod)
    k, M = 7, 60
    direct = sum(cmath.exp(2j * math.pi * (k * g(n) % 101) / 101)
                 for n in range(1, M + 1))
    assert exp_sum(g, k, M) == pytest.approx(direct)
    assert abs(exp_sum(g, k, M)) <= M + 1e-9


def test_exp_sum_linear_phase_geometric():
    # g(n) = 5n + 2 gives e(k g(n)/p) = e(2k/p) z^n with z = e(5k/p)
    p, k, M = 1009, 3, 40
    g = FpPolynomial.from_text("2,5", PrimeModulus(p))
    z = cmath.exp(2j * math.pi * 5 * k / p)
    shift = cmath.exp(2j * math.pi * 2 * k / p)
    assert exp_sum(g, k, M) == pytest.approx(shift * z * (z ** M - 1) / (z - 1))


def test_exp_sum_complete_sum_vanishes():
    # n = 1..p runs over all of F_p, and the p-th roots of unity sum to zero
    g = FpPolynomial.from_text("0,1", PrimeModulus(31))
    assert abs(exp_sum(g, 4, 31)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        exp_sum(g, 4, 0)


def _direct_sums(g, k, M):
    """S and the shifted double sum of weyl_square_identity by scalar
    Horner calls and cmath, one term at a time."""
    p = g.modulus.p

    def e(t):
        return cmath.exp(2j * math.pi * (t % p) / p)

    S = sum(e(k * g(n)) for n in range(1, M + 1))
    double = sum(e(k * (g(n + h) - g(n)))
                 for h in range(1 - M, M) for n in range(1, M + 1) if 1 <= n + h <= M)
    return S, double


@pytest.mark.parametrize("p", [101, 2 ** 31 - 1, 2 ** 61 - 1])
def test_exp_sum_and_square_identity_match_direct_loops(p):
    # 2^31 - 1 is the largest prime with int64 residues, 2^61 - 1 runs on
    # Python integers (dtype object)
    rng = random.Random(p)
    mod = PrimeModulus(p)
    for M in (1, 2, 9, 31, 60):
        g = FpPolynomial.from_ints(
            [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [rng.randrange(1, p)], mod)
        for k in (rng.randrange(1, p), -rng.randrange(1, p), -1):
            S, double = _direct_sums(g, k, M)
            assert exp_sum(g, k, M) == pytest.approx(S, abs=1e-9 * M)
            res = weyl_square_identity(g, k, M)
            assert res.ok
            assert res.lhs == pytest.approx(abs(S) ** 2, abs=1e-9 * M * M)
            assert res.rhs == pytest.approx(double.real, abs=1e-9 * M * M)
            assert abs(double.imag) < 1e-9 * M * M


def test_sums_make_no_scalar_horner_call(monkeypatch):
    g = FpPolynomial.from_text("3,1,0,7", PrimeModulus(1009))
    want = _direct_sums(g, 5, 40)

    def refuse(self, x):
        raise AssertionError("scalar Horner call")

    monkeypatch.setattr(FpPolynomial, "__call__", refuse)
    assert exp_sum(g, 5, 40) == pytest.approx(want[0], abs=1e-9)
    assert weyl_square_identity(g, 5, 40).rhs == pytest.approx(want[1].real, abs=1e-9)
    assert acceptance.criterion_12(quick=True).passed


def test_erdos_turan_rhs_matches_per_k_exponentials():
    # the check takes e(k gamma) as the k-th power of e(gamma); rounding
    # drifts by about K 2^-53 relative
    rng = random.Random(44)
    g = FpPolynomial.from_text("0,0,0,1", PrimeModulus(1009))
    for K in (1, 2, 30, 117, 200):
        M = rng.randint(50, 400)
        for seq in ([rng.random() for _ in range(M)],
                    [g(n) / 1009 for n in range(1, M + 1)]):
            alpha = rng.uniform(0, 0.9)
            beta = rng.uniform(alpha, 1.0)
            gam = np.array(seq)
            rhs = M / K + sum((1.0 / K + min(beta - alpha, 1.0 / k))
                              * abs(np.exp(2j * np.pi * k * gam).sum())
                              for k in range(1, K + 1))
            res = erdos_turan_check(seq, alpha, beta, K)
            assert res.rhs == pytest.approx(3.0 * rhs, rel=1e-12, abs=0)


def test_erdos_turan_inequality_holds_and_lhs_exact():
    rng = random.Random(41)
    for _ in range(50):
        M = rng.randint(10, 400)
        seq = [rng.random() for _ in range(M)]
        alpha = rng.uniform(0, 0.9)
        beta = rng.uniform(alpha, 1.0)
        K = rng.randint(1, 40)
        res = erdos_turan_check(seq, alpha, beta, K)
        hits = sum(1 for x in seq if alpha <= x <= beta)
        assert res.lhs == pytest.approx(abs(hits - M * (beta - alpha)))
        assert res.ok
    with pytest.raises(ValueError):
        erdos_turan_check([0.5], 0.7, 0.3, 5)


def test_erdos_turan_on_polynomial_phases():
    mod = PrimeModulus(1009)
    g = FpPolynomial.from_text("0,0,0,1", mod)
    seq = [g(n) / 1009 for n in range(1, 500)]
    assert erdos_turan_check(seq, 0.2, 0.7, 25).ok


def test_weyl_majorant_dominates_square_power():
    # |S|^(2^(m-1)) <= 2^m * M^(2^(m-1)-m) * sum(...): tested in the
    # normalized form |S| <= C * majorant
    rng = random.Random(42)
    for _ in range(30):
        p = rng.choice((101, 211, 1009))
        mod = PrimeModulus(p)
        m = rng.randint(2, 3)
        coeffs = [rng.randrange(p) for _ in range(m)] + [rng.randrange(1, p)]
        g = FpPolynomial.from_ints(coeffs, mod)
        k = rng.randrange(1, p)
        M = rng.randint(4, 24)
        theta = Fraction(k * coeffs[-1] % p, p)
        s = abs(exp_sum(g, k, M))
        assert s <= weyl_constant(m) * weyl_majorant(theta, m, M) + 1e-9


def test_weyl_majorant_m2_direct_formula():
    theta = Fraction(3, 17)
    M = 9
    total = Fraction(0)
    for l in range(-(M - 1), M):
        r = 2 * 3 * l % 17
        total += M if r == 0 else min(Fraction(M), Fraction(17, min(r, 17 - r)))
    assert weyl_majorant(theta, 2, M) == float(total) ** 0.5
    with pytest.raises(ValueError):
        weyl_majorant(theta, 2, 10 ** 9 + 1)  # loop guard
    with pytest.raises(TypeError):
        weyl_majorant(0.3, 2, 5)  # inexact phase rejected
    with pytest.raises(TypeError):
        weyl_majorant((3, 17), 2, 5)  # only a Fraction is a phase


def _per_term_majorant(theta, m, M):
    """weyl_majorant summed one term at a time in Fractions."""
    a, q = theta.numerator, theta.denominator
    total = Fraction(0)
    for ls in itertools.product(range(-(M - 1), M), repeat=m - 1):
        r = a * math.factorial(m) * math.prod(ls) % q
        total += M if r == 0 else min(Fraction(M), Fraction(q, min(r, q - r)))
    return M ** (1 - m / 2 ** (m - 1)) * float(total) ** (2 ** (1 - m))


@pytest.mark.parametrize("q", [2, 3, 101, 10007, 2 ** 31 - 1, 2 ** 61 - 1, 10 ** 30 + 57])
def test_weyl_majorant_equals_per_term_sum(q):
    # q M >= 2^63 runs on Python integers; numerators reach 3q
    rng = random.Random(q)
    for m, tops in ((2, (1, 2, 17, 40)), (3, (1, 2, 7, 13)), (4, (1, 3, 6))):
        for M in tops:
            theta = Fraction(rng.randrange(3 * q), q)
            assert weyl_majorant(theta, m, M) == _per_term_majorant(theta, m, M)


@pytest.mark.parametrize("block", [1, 30, 200])
def test_weyl_majorant_slices_do_not_change_the_sum(block, monkeypatch):
    # one value per slice, parts of one row per slice, and several rows per
    # slice (a float running total fails here)
    monkeypatch.setattr(analytic, "_WEYL_BLOCK", block)
    rng = random.Random(block)
    for q in (101, 2 ** 61 - 1):
        for m, M in ((2, 9), (3, 8), (3, 20), (4, 4)):
            for _ in range(4):
                theta = Fraction(rng.randrange(1, 3 * q), q)
                assert weyl_majorant(theta, m, M) == _per_term_majorant(theta, m, M)


def test_weyl_majorant_memory_is_bounded_in_M():
    # one row of 2M - 1 = 4 * 10^6 - 1 values would take 32 MB per int64
    # array; slices of 2^16 values keep the traced peak near 3 MB
    theta, M = Fraction(3, 17), 2 * 10 ** 6
    tracemalloc.start()
    try:
        value = weyl_majorant(theta, 2, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6
    # a term depends on l mod 17 only: r = 6 l mod 17
    total = Fraction(0)
    for c in range(17):
        n = len(range(-(M - 1) + (c + M - 1) % 17, M, 17))
        r = 6 * c % 17
        total += n * (M if r == 0 else min(Fraction(M), Fraction(17, min(r, 17 - r))))
    assert value == float(total) ** 0.5


def test_weyl_square_identity():
    rng = random.Random(43)
    for _ in range(25):
        p = rng.choice((101, 1009))
        mod = PrimeModulus(p)
        g = FpPolynomial.from_ints(
            [rng.randrange(p) for _ in range(rng.randint(2, 4))]
            + [rng.randrange(1, p)], mod)
        res = weyl_square_identity(g, rng.randrange(1, p), rng.randint(2, 30))
        assert res.ok
        assert res.lhs == pytest.approx(res.rhs, abs=1e-6)


def test_power_sum_vector():
    assert power_sum_vector([1, 2, 3], 3) == (6, 14, 36)
    assert power_sum_vector([], 2) == (0, 0)


def test_count_vinogradov_small_exhaustive():
    for k, m, H in ((1, 1, 5), (2, 2, 3), (3, 2, 3), (2, 3, 4)):
        brute = 0
        side = range(1, H + 1)
        for xs in itertools.product(side, repeat=k):
            for ys in itertools.product(side, repeat=k):
                if power_sum_vector(xs, m) == power_sum_vector(ys, m):
                    brute += 1
        assert count_vinogradov(k, m, H) == brute


def test_count_vinogradov_quadratic_closed_form():
    # J(2, 2; H) = 2H^2 - H: only the trivial and swapped solutions
    for H in range(1, 40):
        assert count_vinogradov(2, 2, H) == 2 * H * H - H


def test_count_vinogradov_frozen_deep_instance():
    # 16 variables, degree 3, H = 2: every tuple matches only its own
    # multiset, so the count is C(16, 8) = 12870
    assert count_vinogradov(8, 3, 2) == 12870
    assert count_vinogradov(8, 3, 3) == 2157759


def test_count_vinogradov_guard():
    with pytest.raises(ValueError):
        count_vinogradov(4, 3, 10 ** 3)
    for bad in ((0, 2, 3), (2, 0, 3), (2, 2, 0)):
        with pytest.raises(ValueError, match=">= 1"):
            count_vinogradov(*bad)


def test_count_vinogradov_byte_guard_refuses_before_allocating():
    # H^m k = 80,000, but the last step holds up to C(28, 9) * 20 entries
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bytes"):
        count_vinogradov(10, 3, 20)
    assert time.perf_counter() - start < 1.0


def test_count_vinogradov_byte_guard_is_the_last_step(monkeypatch):
    # J(3, 2; 5): the last step starts from at most C(6, 2) = 15 pairs of
    # values, so it holds 5 * 15 int64 entries of a key, a count and a sort
    # index
    monkeypatch.setattr(ffield, "BYTE_GUARD", 75 * 24)
    assert count_vinogradov(3, 2, 5) == _dict_dp_reference(3, 2, 5)
    monkeypatch.setattr(ffield, "BYTE_GUARD", 75 * 24 - 1)
    with pytest.raises(ValueError, match="bytes"):
        count_vinogradov(3, 2, 5)


def test_count_vinogradov_reaches_h18():
    # J / H^10 = 111.1, on the plateau the main conjecture's exponent 10 predicts
    assert count_vinogradov(8, 3, 18) == 396658595655478


def _dict_dp_reference(k, m, H):
    """J(k, m; H) by a dict of power-sum vectors, one k-tuple step at a time."""
    atoms = [tuple(x ** j for j in range(1, m + 1)) for x in range(1, H + 1)]
    dist = {(0,) * m: 1}
    for _ in range(k):
        nxt: dict = {}
        for s, cnt in dist.items():
            for a in atoms:
                key = tuple(si + ai for si, ai in zip(s, a))
                nxt[key] = nxt.get(key, 0) + cnt
        dist = nxt
    return sum(c * c for c in dist.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 8))
# keys with radix_j = H^j + 1 collide here: sums carry into the next digit
@example(8, 2, 10)
def test_count_vinogradov_matches_dict_dp(k, m, H):
    assert count_vinogradov(k, m, H) == _dict_dp_reference(k, m, H)


@pytest.mark.parametrize("k,m,H,want", [
    # counts past 2^63 (H^k = 10^20); the 39 digits the CLI golden line pins
    (20, 1, 10, 218768894829904122626725603838896148680),
    # keys past 2^63: prod radix_j = prod (5 12^j + 1) is about 4.9e19;
    # with m >= k the solutions are the pairs of permuted 5-tuples
    (5, 5, 12, sum(math.factorial(5) ** 2
                   // math.prod(math.factorial(xs.count(x)) for x in set(xs)) ** 2
                   for xs in itertools.combinations_with_replacement(range(12), 5))),
    # both past 2^63; with values 1 and 2 the count of 2s fixes every s_j
    (63, 7, 2, math.comb(126, 63)),
])
def test_count_vinogradov_python_int_paths(k, m, H, want):
    assert (math.prod(k * H ** j + 1 for j in range(1, m + 1)) >= 2 ** 63
            or H ** k >= 2 ** 63)
    assert count_vinogradov(k, m, H) == want == _dict_dp_reference(k, m, H)


def test_count_vinogradov_cuts_m_to_k():
    # s_1, ..., s_k fix the multiset of k values, so J(k, m; H) = J(k, k; H)
    # for m > k; J(2, m; H) = 2H^2 - H
    for k, m, H in ((1, 9, 6), (2, 6, 10), (3, 7, 4), (2, 3000, 2)):
        assert count_vinogradov(k, m, H) == _dict_dp_reference(k, m, H)
    assert count_vinogradov(2, 10 ** 9, 10) == 2 * 10 ** 2 - 10
    assert count_vinogradov(10 ** 9, 10 ** 9, 1) == 1  # one k-tuple a side


@pytest.mark.parametrize("k,m,H", [
    (3000, 3000, 2),  # keys of about 4.5 million bits
    (10 ** 9, 1, 2),  # 2 * 10^9 entries, counts of 10^9 bits
    (2, 2, 10 ** 9),  # 2 * 10^9 entries
    (10 ** 7, 10 ** 7, 3),  # C(10^7 + 1, 2) states
])
def test_count_vinogradov_refuses_huge_calls_before_big_integers(k, m, H):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at least"):
        count_vinogradov(k, m, H)
    assert time.perf_counter() - start < 0.1


def test_kappa_values():
    assert [kappa(m) for m in (2, 3, 4, 5)] == [3, 8, 15, 24]
    with pytest.raises(ValueError):
        kappa(1)
