"""Exact box counts on curves and graphs against the naive double loop,
plus the square-root cancellation budget and the bound evaluators."""

import math
import random

import pytest
import sympy

from smallbox.boxcount import (
    Box2,
    bound_I,
    bound_J,
    check_curve_irreducible,
    count_curve_points,
    count_graph_points,
    naive_count,
    weil_error,
)
from smallbox.ffield import FpPolynomial, PrimeModulus


def naive_curve(f, box):
    p = f.modulus.p
    return sum(1
               for x in range(box.R + 1, box.R + box.M + 1)
               for y in range(box.S + 1, box.S + box.M + 1)
               if y * y % p == f(x))


def naive_graph(f, box):
    return sum(1
               for x in range(box.R + 1, box.R + box.M + 1)
               for y in range(box.S + 1, box.S + box.M + 1)
               if y % f.modulus.p == f(x))


def test_box_validation():
    with pytest.raises(ValueError):
        Box2(R=0, S=0, M=0)
    with pytest.raises(ValueError):
        Box2(R=-1, S=0, M=3)
    Box2(R=0, S=0, M=30).validate_for(31)
    with pytest.raises(ValueError):
        Box2(R=1, S=0, M=30).validate_for(31)


def test_frozen_full_box_counts():
    # y^2 = x^3 + 2x + 3 over F_101 on [1,100]^2, frozen from the
    # naive double loop
    mod = PrimeModulus(101)
    f = FpPolynomial.from_text("3,2,0,1", mod)
    box = Box2(R=0, S=0, M=100)
    assert count_curve_points(f, box) == 94
    assert count_graph_points(f, box) == 99
    sub = Box2(R=10, S=20, M=30)
    assert count_curve_points(f, sub) == 5
    assert count_graph_points(f, sub) == 11


def test_sqrt_scan_equals_naive_randomized():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((31, 101, 211))
        mod = PrimeModulus(p)
        deg = rng.randint(3, 5)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = FpPolynomial.from_ints(coeffs, mod)
        M = rng.randint(1, min(25, p - 1))
        box = Box2(R=rng.randint(0, p - M - 1), S=rng.randint(0, p - M - 1), M=M)
        expect = naive_curve(f, box)
        assert count_curve_points(f, box) == expect
        assert naive_count(coeffs, (0, 0, 1), box.x_range, box.y_range, p) == expect
        assert count_graph_points(f, box) == naive_graph(f, box)
        assert naive_count(coeffs, (0, 1), box.x_range, box.y_range, p) == naive_graph(f, box)


def test_translation_recentering_invariance():
    # shifting the x-window by t while recentering f at x+t is a bijection
    # on solutions, for curve and graph counts alike
    mod = PrimeModulus(211)
    rng = random.Random(12)
    x = sympy.Symbol("x")
    for _ in range(25):
        f = FpPolynomial.from_ints(
            [rng.randrange(211) for _ in range(3)] + [rng.randrange(1, 211)],
            mod)
        M = rng.randint(1, 40)
        t = rng.randint(0, 40)
        R = rng.randint(t, 211 - M - 1)
        S = rng.randint(0, 211 - M - 1)
        box = Box2(R=R, S=S, M=M)
        moved = Box2(R=R - t, S=S, M=M)
        shifted = sympy.Poly(f.coeffs[::-1], x).shift(t)  # f(X + t)
        g = FpPolynomial.from_ints([int(c) for c in shifted.all_coeffs()[::-1]], mod)
        assert count_curve_points(f, box) == count_curve_points(g, moved)
        assert count_graph_points(f, box) == count_graph_points(g, moved)


def test_box_counts_are_plain_integers():
    mod = PrimeModulus(1009)
    f = FpPolynomial.from_text("1,1,0,1", mod)
    box = Box2(R=0, S=0, M=500)
    curve, graph = count_curve_points(f, box), count_graph_points(f, box)
    assert type(curve) is int and type(graph) is int
    assert curve == naive_count(f.coeffs, (0, 0, 1), box.x_range, box.y_range, 1009)
    assert graph == naive_count(f.coeffs, (0, 1), box.x_range, box.y_range, 1009)


def test_weil_error_matches_direct_deviation():
    mod = PrimeModulus(1009)
    f = FpPolynomial.from_text("2,3,0,1", mod)
    box = Box2(R=0, S=0, M=800)
    rep = weil_error(f, box)
    direct = abs(naive_curve(f, box) - 800 * 800 / 1009)
    assert rep.deviation == pytest.approx(direct)
    assert rep.budget == pytest.approx(10 * math.sqrt(1009) * math.log(1009) ** 2)
    assert rep.within_budget == (rep.deviation <= rep.budget)


def test_irreducibility_gate():
    mod = PrimeModulus(101)
    check_curve_irreducible(FpPolynomial.from_text("3,2,0,1", mod))
    h = FpPolynomial.from_text("1,1", mod)
    with pytest.raises(ValueError):
        check_curve_irreducible(h * h)
    with pytest.raises(ValueError):
        weil_error(h * h, Box2(R=0, S=0, M=10))


def test_bound_I_regimes():
    eps = 0.05
    p = 10 ** 9 + 7
    small = bound_I(5, p, 3, eps)
    assert small.value == pytest.approx(5 ** (1 / 3 + eps))
    assert small.regime.startswith("cor3-small")
    mid = bound_I(50, p, 3, eps)
    assert mid.value == pytest.approx(50 ** (1 + eps) * (50 ** 4 / p) ** (1 / 6))
    assert mid.regime.startswith("cor3-mid")
    large = bound_I(700, p, 3, eps)
    assert large.value == pytest.approx(700 ** (1 + eps) * (700 ** 3 / p) ** (1 / 16))
    assert large.regime.startswith("cor3-large")
    quartic = bound_I(200, p, 4, eps)
    k = 15
    assert quartic.value == pytest.approx(
        200 ** (1 + eps) * (200 ** 3 / p) ** (1 / (2 * k))
        + 200 ** (1 - 1 / (2 * k) + eps))
    with pytest.raises(ValueError):
        bound_I(10, p, 2)


def test_bound_I_never_exceeds_trivial_cap():
    # beyond M = p^(1/3) the evaluator clamps at the trivial 2M
    rep = bound_I(10 ** 4, 101, 3)
    assert rep.value <= 2.0 * 10 ** 4


def test_bound_J_shape():
    p = 10 ** 6 + 3
    assert bound_J(100, p, 2) == pytest.approx(100 * 100 / p + 100 ** 0.5)
    assert bound_J(100, p, 3, eps=0.01) == pytest.approx(
        100 * 100 / p + 100 ** 0.75 * p ** 0.01)
    with pytest.raises(ValueError):
        bound_J(100, p, 1)
