"""The vectorized counting kernels (Horner over a vector, the tagged-key
pair count `count_matches` and its pair listing `list_matches`) and every
count built on them, against brute-force double loops and the reference
loop `naive_count`, at small primes (int64 path), at p = 2^61 - 1
(Python-integer path), and on both sides of the uint32 key limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallbox.boxcount import (Box2, count_curve_points, count_graph_points,
                               count_matches, list_matches, naive_count)
from smallbox.ffield import (FpPolynomial, PrimeModulus, key_dtype, poly_values,
                             residue_dtype)
from smallbox.hyperelliptic import CubeBox, CurveVector, reduce_to_power_congruence
from smallbox.lattice import lemma6_count, shifted_congruence_count

BIG = (1 << 61) - 1
PRIMES = (31, 101, 1009, BIG)
SETTINGS = settings(max_examples=60, deadline=None)


def horner(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


@st.composite
def poly_in_box(draw, max_side=30):
    """(p, coefficients, Box2) with a nonconstant polynomial."""
    p = draw(st.sampled_from(PRIMES))
    deg = draw(st.integers(1, 5))
    coeffs = [draw(st.integers(0, p - 1)) for _ in range(deg)]
    coeffs.append(draw(st.integers(1, p - 1)))
    M = draw(st.integers(1, min(max_side, p - 2)))
    R = draw(st.integers(0, p - M - 1))
    S = draw(st.integers(0, p - M - 1))
    return p, coeffs, Box2(R, S, M)


@SETTINGS
@given(st.lists(st.integers(-3, 3), max_size=25),
       st.lists(st.integers(-3, 3), max_size=25),
       st.sampled_from(PRIMES))
def test_count_matches_is_the_pair_count(u, v, p):
    # f = g = x: the pairs of equal values, which stay distinct mod p > 6
    expect = sum(1 for a in u for b in v if a == b)
    assert count_matches((0, 1), (0, 1), np.array(u, dtype=np.int64),
                         np.array(v, dtype=np.int64), p) == expect


# the largest prime with uint32 keys (2 (p - 1) + 1 = 2^32 - 3), and the
# first prime with Python-integer keys
KEY_EDGE = {(1 << 31) - 1: np.uint32, (1 << 31) + 11: object}


@pytest.mark.parametrize("p", KEY_EDGE)
def test_count_matches_at_the_key_limit(p):
    assert key_dtype(p) is KEY_EDGE[p]
    # f = x lands on p - 1 and on 0 three times each, next to p - 2 and 1
    ends = np.array([-1, p - 1, 2 * p - 1, 0, p, -p, 1, p - 2], dtype=np.int64)
    wrap = range(p - 3, p + 3)  # p - 3, p - 2, p - 1, then 0, 1, 2
    cases = [((0, 1), (-1,), ends, range(4)),  # runs of 3 and 4 on the top key
             ((0, 1), (0,), ends, range(5)),  # and on the bottom key
             ((0, 1), (-1,), wrap, ends),  # a constant on the y side too
             ((0, 1), (0, 1), ends, ends[::-1]),
             ((0, 1), (0, 1), wrap, ends),
             ((0, 0, 1), (1,), wrap, ends),  # x^2 = 1 at p - 1 and 1
             ((0, 1), (-1,), range(0), ends),  # empty and one-element windows
             ((0, 1), (-1,), ends, range(0)),
             ((0, 1), (-1,), range(0), range(0)),
             ((0, 1), (-1,), np.array([-1]), range(1)),
             ((0, 1), (0, 1), np.array([p - 1]), np.array([-1]))]
    for f, g, xs, ys in cases:
        assert count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)
    assert count_matches((0, 1), (-1,), ends, range(4), p) == 3 * 4
    assert count_matches((0, 1), (0, 1), np.array([p - 1]), np.array([0]), p) == 0


@st.composite
def window(draw, p):
    """A range with a negative start and at times longer than p (residues
    then wrap), or an integer array of such values."""
    start = draw(st.integers(-2 * p, p))
    side = draw(st.integers(0, 70 if p < 100 else 25))
    if draw(st.booleans()):
        return range(start, start + side)
    return np.array(draw(st.lists(st.integers(-2 * p, 2 * p), max_size=side)),
                    dtype=np.int64)


@SETTINGS
@given(st.data())
def test_count_matches_is_the_reference_loop(data):
    p = data.draw(st.sampled_from(PRIMES))
    f, g = (data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=6))
            for _ in range(2))
    xs, ys = data.draw(window(p)), data.draw(window(p))
    assert count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)


@SETTINGS
@given(st.data())
def test_list_matches_lists_the_counted_pairs(data):
    p = data.draw(st.sampled_from(PRIMES))
    f, g = (data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=6))
            for _ in range(2))
    xs, ys = data.draw(window(p)), data.draw(window(p))
    x, y = list_matches(f, g, xs, ys, p)
    pairs = list(zip(x.tolist(), y.tolist()))
    xl, yl = (list(t) if isinstance(t, range) else t.tolist() for t in (xs, ys))
    # the double loop's own order: equal values of g keep the order of ys
    assert pairs == [(a, b) for a in xl for b in yl if horner(f, a, p) == horner(g, b, p)]
    assert len(pairs) == count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)


@SETTINGS
@given(st.sampled_from(PRIMES), st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=6),
       st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=20))
def test_poly_values_is_horner(p, coeffs, xs):
    xs = [x % p - (p if i % 2 else 0) for i, x in enumerate(xs)]  # some negative
    got = poly_values(coeffs, np.array(xs, dtype=np.int64), p)
    assert [int(v) for v in got] == [horner(coeffs, x, p) for x in xs]


@SETTINGS
@given(st.sampled_from(PRIMES),
       st.lists(st.lists(st.integers(0, BIG), max_size=6), min_size=1, max_size=8),
       st.data())
def test_poly_values_per_lane_rows_are_per_column_calls(p, lanes, data):
    # row j of the (deg+1, lanes) array holds c_j of every lane, zero-padded
    # above each lane's degree; lane i must see only its own polynomial
    dtype = residue_dtype(p)
    width = max(len(c) for c in lanes)
    rows = np.array([[c % p for c in cs] + [0] * (width - len(cs)) for cs in lanes],
                    dtype=dtype).reshape(len(lanes), width).T
    xs = data.draw(st.lists(st.integers(-p, 2 * p), min_size=len(lanes),
                            max_size=len(lanes)))
    got = poly_values(rows, np.array(xs, dtype=dtype), p)
    assert got.dtype == dtype
    assert [int(v) for v in got] == [int(poly_values(cs, np.array([x]), p)[0])
                                     for cs, x in zip(lanes, xs)]


@SETTINGS
@given(poly_in_box())
def test_curve_count_is_the_double_loop(case):
    p, coeffs, box = case
    f = FpPolynomial.from_ints(coeffs, PrimeModulus(p))
    expect = sum(1 for x in box.x_range for y in range(box.S + 1, box.S + box.M + 1)
                 if (y * y - horner(coeffs, x, p)) % p == 0)
    assert count_curve_points(f, box) == expect
    assert naive_count(coeffs, (0, 0, 1), box.x_range, box.y_range, p) == expect


@SETTINGS
@given(poly_in_box())
def test_graph_count_is_the_double_loop(case):
    p, coeffs, box = case
    f = FpPolynomial.from_ints(coeffs, PrimeModulus(p))
    expect = sum(1 for x in box.x_range for y in range(box.S + 1, box.S + box.M + 1)
                 if (y - horner(coeffs, x, p)) % p == 0)
    assert count_graph_points(f, box) == expect
    assert naive_count(coeffs, (0, 1), box.x_range, box.y_range, p) == expect


@SETTINGS
@given(st.data())
def test_shifted_count_is_the_double_loop(data):
    p = data.draw(st.sampled_from(PRIMES))
    c = [data.draw(st.integers(-2 * p, 2 * p)) for _ in range(4)]
    # past p the window wraps, so residues repeat
    M = data.draw(st.integers(0, 70 if p < 100 else 25))
    c0, c1, c2, c3 = c
    expect = sum(1 for x in range(-M, M + 1) for y in range(-M, M + 1)
                 if (y * y - c0 * y - c3 * x ** 3 - c2 * x * x - c1 * x) % p == 0)
    assert shifted_congruence_count(c, M, p) == expect
    window = range(-M, M + 1)
    assert naive_count((0, c1, c2, c3), (0, -c0, 1), window, window, p) == expect


@SETTINGS
@given(st.data())
def test_power_congruence_is_the_double_loop(data):
    p = data.draw(st.sampled_from(PRIMES))
    g = data.draw(st.integers(1, 2))
    h = data.draw(st.integers(2, 2 * g + 1))
    b = CurveVector(g, tuple(data.draw(st.integers(1, p - 1)) for _ in range(2 * g)),
                    PrimeModulus(p))
    M = data.draw(st.integers(1, min(25, p - 2)))
    box = CubeBox(g, tuple(data.draw(st.integers(0, p - M - 1)) for _ in range(2 * g)), M)
    rep = reduce_to_power_congruence(b, h, box)
    lam = rep.multiplier
    expect = sum(1 for x in range(rep.x_offset + 1, rep.x_offset + M + 1)
                 for y in range(rep.y_offset + 1, rep.y_offset + M + 1)
                 if (pow(y, h, p) - lam * x * x) % p == 0)
    assert rep.solution_count == expect
    xs, ys = (range(r + 1, r + M + 1) for r in (rep.x_offset, rep.y_offset))
    assert naive_count((0, 0, lam), (0,) * h + (1,), xs, ys, p) == expect


@SETTINGS
@given(st.data())
def test_lemma6_count_is_the_direct_scan(data):
    # plant h, interpolate through it, and scan f(x) = g(h(x)) over all of F_p
    p = data.draw(st.sampled_from(PRIMES[:3]))
    mod = PrimeModulus(p)
    n, m = data.draw(st.sampled_from(((3, 2), (5, 2), (5, 3), (4, 3))))
    f = [data.draw(st.integers(0, p - 1)) for _ in range(n)] + [1]
    g = [data.draw(st.integers(0, p - 1)) for _ in range(m)] + [1]
    hc = [0] + [data.draw(st.integers(0, p - 1)) for _ in range(n)]
    xs = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n, unique=True))
    ys = [horner(hc, x, p) for x in xs]
    expect = sum(1 for x in range(p)
                 if horner(f, x, p) == horner(g, horner(hc, x, p), p))
    got = lemma6_count(FpPolynomial.from_ints(f, mod), FpPolynomial.from_ints(g, mod),
                       xs, ys)
    assert got == expect


@SETTINGS
@given(st.lists(st.integers(0, BIG - 1), min_size=1, max_size=30),
       st.lists(st.integers(0, BIG - 1), min_size=1, max_size=4),
       st.lists(st.integers(0, BIG - 1), min_size=1, max_size=4))
def test_composed_values_at_the_object_path(xs, fc, hc):
    # a composed evaluation f(h(x)) on the object path: at p = 2^61 - 1 F_p
    # cannot be scanned, so it is checked pointwise
    composed = poly_values(fc, poly_values(hc, np.array(xs, dtype=np.int64), BIG), BIG)
    assert composed.dtype == object
    assert list(composed) == [horner(fc, horner(hc, x, BIG), BIG) for x in xs]
