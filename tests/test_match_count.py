"""The vectorized counting kernels (Horner over a vector, the tagged-key
pair count `count_matches` and its pair listing `list_matches`) and every
count built on them, against brute-force double loops and the reference
loop `naive_count`, at small primes (int64 path), at p = 2^61 - 1
(Python-integer path), and on both sides of the uint32 key limit."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallbox import boxcount, ffield
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


# ---------------------------------------------------------------------------
# Horner runs block by block (ffield._BLOCK_BYTES of accumulator entries a
# block), and the join reads each run's length off the neighbours of its
# boundary, boxcount._PROBE keys deep, before it falls back on binary search


def block_len(p):
    """Values in one Horner block mod p, read from the module constant."""
    return max(1, ffield._BLOCK_BYTES // ffield._accumulator_bytes(p))


def counted_pairs(f, g, xs, ys, p):
    """The pair count from scalar Horner values, each value's count on the
    x side times its count on the y side (the double loop is too slow at
    windows of two blocks)."""
    on_y = Counter(horner(g, y, p) for y in ys)
    return sum(on_y[horner(f, x, p)] for x in xs)


@pytest.mark.parametrize("p", (1009, 1000003))
def test_windows_at_the_block_length(p):
    B = block_len(p)
    assert B == ffield._BLOCK_BYTES // 8  # int64 accumulators
    f = (5, p - 3, 0, 1)
    for n in (B - 1, B, B + 1, 2 * B + 3):
        xs = range(p - n // 2, p - n // 2 + n)  # across p: every block is reduced
        assert len(list(ffield._horner_blocks(f, xs, p))) == -(-n // B)
        want = [horner(f, x, p) for x in xs]
        assert poly_values(f, xs, p).tolist() == want
        assert poly_values(f, np.array(xs, dtype=np.int64), p).tolist() == want
        ys = range(-n, 0)
        assert count_matches(f, (0, 0, 1), xs, ys, p) == counted_pairs(f, (0, 0, 1), xs, ys, p)
    if p > 2 * B + 3:
        mod = PrimeModulus(p)
        poly = FpPolynomial.from_ints(f, mod)
        for n in (B - 1, B, B + 1, 2 * B + 3):
            box = Box2(p - n - 7, 11, n)
            assert count_curve_points(poly, box) == counted_pairs(
                f, (0, 0, 1), box.x_range, box.y_range, p)
            assert count_graph_points(poly, box) == sum(
                box.S < horner(f, x, p) <= box.S + n for x in box.x_range)


def test_object_blocks_at_the_first_object_prime():
    p = (1 << 31) + 11
    B = block_len(p)
    assert residue_dtype(p) is object and 1000 < B < ffield._BLOCK_BYTES // 8
    xs = range(p - B - 2, p + 3)  # two blocks, the last values past p
    f = (7, 0, 3)
    got = poly_values(f, xs, p)
    assert got.dtype == object and len(list(ffield._horner_blocks(f, xs, p))) == 2
    assert got.tolist() == [horner(f, x, p) for x in xs]
    ys = range(-B - 4, 1)  # f is even, so f(y) = f(x) at y = x - p and y = p - x
    assert count_matches(f, f, xs, ys, p) == counted_pairs(f, f, xs, ys, p) > B


@SETTINGS
@given(st.data())
def test_small_blocks_are_the_reference_loop(data):
    # blocks of 1 to 7 values: every window crosses block boundaries
    p = data.draw(st.sampled_from(PRIMES))
    B = data.draw(st.sampled_from((1, 2, 3, 7)))
    f, g = (data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=6))
            for _ in range(2))
    xs, ys = data.draw(window(p)), data.draw(window(p))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "_BLOCK_BYTES", B * ffield._accumulator_bytes(p))
        assert block_len(p) == B
        assert poly_values(f, xs, p).tolist() == [horner(f, int(x), p) for x in xs]
        assert count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)


@pytest.mark.parametrize("p", (3, 1000003, (1 << 31) - 1, (1 << 31) + 11))
def test_reduction_is_python_mod_at_the_int64_edges(p):
    # near -2^63 the product p * (a // p) passes int64 and wraps, and the
    # difference still lands on Python's residue
    vals = [-(2 ** 63 - 1), -(2 ** 63 - 1) + p - 2, 2 ** 63 - 1, -p - 1, -p, -1, 0, p]
    for dtype in (np.int64, object):
        a = np.array(vals, dtype=dtype)
        ffield._reduce(a, p, None)
        assert a.dtype == dtype and a.tolist() == [v % p for v in vals]


@st.composite
def ragged_window(draw, p, B):
    """A window of k*B + r values, 0 < r < B when B > 1: a range of
    negative values within [-p, 0), which is not reduced, one below -p or
    past p, which is, or an int64 array with negative entries."""
    n = draw(st.integers(0, 3)) * B + draw(st.integers(1, max(1, B - 1)))
    kind = draw(st.sampled_from(("negative", "wrapped", "array")))
    if kind == "array":
        return np.array(draw(st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n)),
                        dtype=np.int64)
    if kind == "negative":
        start = draw(st.integers(-p, -n))
    else:
        start = draw(st.one_of(st.integers(-2 * p, -p - n), st.integers(p - n + 1, 2 * p)))
    return range(start, start + n)


@SETTINGS
@given(st.data())
def test_small_blocks_reduce_inside_the_loop(data):
    # at these primes degree 3 to 8 reduces before one or more steps of
    # every block, so the quotient buffer is shared across blocks and made
    # again for the shorter last one
    p = data.draw(st.sampled_from((1000003, (1 << 31) - 1)))
    B = data.draw(st.sampled_from((1, 2, 3, 7)))
    f, g = ([data.draw(st.integers(-2 * p, 2 * p)) for _ in range(data.draw(st.integers(3, 8)))]
            + [data.draw(st.integers(1, p - 1))] for _ in range(2))
    xs, ys = data.draw(ragged_window(p, B)), data.draw(ragged_window(p, B))
    before = [list(t) for t in (xs, ys)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "_BLOCK_BYTES", B * ffield._accumulator_bytes(p))
        assert block_len(p) == B
        assert poly_values(f, xs, p).tolist() == [horner(f, int(x), p) for x in xs]
        assert count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)
    assert [list(t) for t in (xs, ys)] == before  # the caller's arrays are not reduced


@SETTINGS
@given(poly_in_box(), st.sampled_from((1, 2, 5)))
def test_box_counts_in_small_blocks(case, B):
    p, coeffs, box = case
    f = FpPolynomial.from_ints(coeffs, PrimeModulus(p))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "_BLOCK_BYTES", B * ffield._accumulator_bytes(p))
        assert count_curve_points(f, box) == naive_count(
            coeffs, (0, 0, 1), box.x_range, box.y_range, p)
        assert count_graph_points(f, box) == naive_count(
            coeffs, (0, 1), box.x_range, box.y_range, p)


@pytest.mark.parametrize("p", (31, 101))
def test_runs_far_past_the_probe(p):
    # windows several times longer than p repeat every residue, and
    # x^((p-1)/2) takes only the values 0, 1 and -1: runs of dozens of keys
    # on both sides, far past the probe, go to the binary search
    half = (0,) * ((p - 1) // 2) + (1,)
    wide = range(-3 * p, 5 * p + 4)
    cases = [(half, half, wide, range(2 * p)),
             (half, (0, 1), wide, range(-p, p)),
             ((0, 0, 1), (0, 0, 0, 1), wide, range(7 * p + 3)),
             ((3, 1), (1,), wide, range(40)),  # a constant g: one run of 40
             (half, (0, 0, 1), range(p // 2), range(p))]  # one long side
    for f, g, xs, ys in cases:
        assert max(max(Counter(horner(h, t, p) for t in ts).values())
                   for h, ts in ((f, xs), (g, ys))) > boxcount._PROBE + 1
        assert count_matches(f, g, xs, ys, p) == naive_count(f, g, xs, ys, p)
        assert count_matches(g, f, ys, xs, p) == naive_count(g, f, ys, xs, p)
    assert count_matches(half, half, wide, range(2 * p), p) == (
        counted_pairs(half, half, wide, range(2 * p), p))


def test_empty_windows_are_one_empty_block():
    for p in (31, BIG):
        blocks = list(ffield._horner_blocks((1, 2, 3), range(5, 5), p))
        assert [(lo, len(v), v.dtype) for lo, v in blocks] == [(0, 0, residue_dtype(p))]
        assert poly_values((1, 2, 3), np.array([], dtype=np.int64), p).dtype == residue_dtype(p)
        assert count_matches((1, 2, 3), (0, 1), range(0), range(9), p) == 0
        assert count_matches((1, 2, 3), (0, 1), range(9), range(0), p) == 0


def test_box_count_peaks_stay_near_the_key_array():
    # the join peaks at its keys (4 bytes a value), their xors (4 more), the
    # boundary test (a byte a key) and the boundary list: about 2.45 key
    # arrays.  A whole-vector Horner pass would hold x and its accumulator in
    # int64 beside the keys, one key array each: 3.0.  The window test keeps
    # one block's x, accumulator, quotient buffer and test.  The quintic
    # reduces before several steps, so a temporary made by each reduction
    # would show in its peak
    p, M = 1000003, 200_000
    box = Box2(1000, 5000, M)
    keys = 4 * 2 * M
    for coeffs in ((3, 7, 0, 1), (3, 7, 0, 5, 2, 1)):
        f = FpPolynomial.from_ints(coeffs, PrimeModulus(p))
        for count, bound in ((count_curve_points, 2.75 * keys),
                             (count_graph_points, 4 * ffield._BLOCK_BYTES)):
            expect = count(f, box)
            tracemalloc.start()
            try:
                assert count(f, box) == expect
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (coeffs, count.__name__, peak)
