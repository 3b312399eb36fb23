"""Congruence lattices: exact point enumeration, successive minima with
rational arithmetic, the counting and volume bounds, the cubic proof
lattice, and the interpolation-driven curve intersection count."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallbox import ffield, lattice
from smallbox.ffield import FpPolynomial, PrimeModulus, poly_values
from smallbox.lattice import (
    CongruenceLattice,
    ConvexBox,
    _Echelon,
    _rank,
    build_thm2_lattice,
    cor7_check,
    double_factorial,
    lattice_points_in_box,
    MinimaReport,
    _validate_minima,
    lemma6_count,
    minkowski_check,
    shifted_congruence_count,
    successive_minima,
)


def naive_points(lat, box, scale=1):
    bounds = [int(scale * h) for h in box.halfwidths]
    pts = []
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if sum(c * x for c, x in zip(lat.coeffs, v)) % lat.p == 0:
            pts.append(v)
    return pts


def test_lattice_validation():
    with pytest.raises(ValueError):
        CongruenceLattice(coeffs=(1,), p=101)
    with pytest.raises(ValueError):
        CongruenceLattice(coeffs=(1, 2), p=100)
    lat = CongruenceLattice(coeffs=(1, 3, 5), p=101)
    assert lat.contains((98, 1, 0))
    assert not lat.contains((1, 1, 0))
    assert lat.determinant() == 101
    # the vacuous congruence (every coefficient divisible by p) is refused
    # where it is built, so every lattice has index p
    with pytest.raises(ValueError, match="divisible by p"):
        CongruenceLattice(coeffs=(101, 202), p=101)
    # the modulus rule of every other kernel: an odd prime below 2^62
    for p in (2, 2 ** 62 + 135):
        with pytest.raises(ValueError, match="3 <= p < 2\\*\\*62"):
            CongruenceLattice(coeffs=(1, 1), p=p)
    assert type(CongruenceLattice((1, 1), 2 ** 61 - 1).p) is int


def test_convex_box_volume():
    box = ConvexBox(halfwidths=(2, Fraction(3, 2), 5))
    assert box.volume() == Fraction(4) * 3 * 10


def test_enumeration_matches_naive():
    rng = random.Random(51)
    for _ in range(40):
        p = rng.choice((101, 211))
        n = rng.randint(2, 4)
        lat = CongruenceLattice(
            coeffs=tuple(rng.randrange(p) for _ in range(n)), p=p)
        box = ConvexBox(halfwidths=tuple(rng.randint(1, 7) for _ in range(n)))
        expect = naive_points(lat, box)
        got = lattice_points_in_box(lat, box, collect=True)
        assert got.count == len(expect)
        assert sorted(map(tuple, got.points.tolist())) == sorted(expect)


def test_enumeration_fractional_scale():
    lat = CongruenceLattice(coeffs=(1, 3, 5), p=101)
    box = ConvexBox(halfwidths=(4, 6, 9))
    for scale in (Fraction(1, 2), Fraction(3, 4), 2):
        expect = naive_points(lat, box, scale)
        assert lattice_points_in_box(lat, box, scale=scale).count == len(expect)


NAIVE_CELLS = 4000  # cells naive_points may scan per hypothesis example


@st.composite
def join_cases(draw):
    """Lattices of dimension 2..5 at small and word-sized primes, with zero
    coefficients, fractional halfwidths and scales, boxes wider than p,
    and elongated boxes; the scaled box keeps at most NAIVE_CELLS cells."""
    n = draw(st.integers(2, 5))
    p = draw(st.sampled_from((3, 5, 31, 101, 2 ** 31 - 1, 2 ** 61 - 1)))
    coeffs = tuple(draw(st.one_of(st.just(0), st.integers(0, p - 1),
                                  st.integers(-2 ** 64, 2 ** 64)))
                   for _ in range(n))
    assume(any(c % p for c in coeffs))
    scale = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))))
    halfwidths, cells = [], 1
    for _ in range(n):
        den = draw(st.integers(1, 3))
        # the largest numerator whose scaled range still fits the budget
        top = max(1, (NAIVE_CELLS // cells - 1) // 2 * den // max(scale, 1))
        h = Fraction(draw(st.integers(1, min(top, 2000))), den)
        halfwidths.append(h)
        cells *= 2 * math.floor(scale * h) + 1
    order = draw(st.permutations(range(n)))  # the long coordinate anywhere
    return (CongruenceLattice(coeffs, p), ConvexBox(tuple(halfwidths[j] for j in order)),
            scale)


@settings(max_examples=200, deadline=None)
@given(join_cases())
def test_join_matches_naive(case):
    lat, box, scale = case
    expect = naive_points(lat, box, scale)
    got = lattice_points_in_box(lat, box, scale=scale, collect=True)
    assert got.count == len(expect) == lattice_points_in_box(lat, box, scale).count
    assert got.points.shape == (len(expect), lat.n)
    assert sorted(map(tuple, got.points.tolist())) == sorted(expect)


@pytest.mark.parametrize("p", [3, 101, 2 ** 31 - 1])
@pytest.mark.parametrize("scale", [Fraction(1, 2), 1])
def test_elongated_box_matches_direct_scan(p, scale):
    lat = CongruenceLattice((5, 7), p)
    box = ConvexBox((10 ** 6, 1))
    long = np.arange(-10 ** 6 * scale, 10 ** 6 * scale + 1, dtype=np.int64)
    expect = np.concatenate([
        np.stack([xs, np.full_like(xs, y)], axis=1)
        for y in range(-int(scale), int(scale) + 1)
        for xs in [long[(5 * long + 7 * y) % p == 0]]])
    got = lattice_points_in_box(lat, box, scale=scale, collect=True)
    assert got.count == len(expect)
    pts = got.points[np.lexsort((got.points[:, 0], got.points[:, 1]))]
    assert np.array_equal(pts, expect)


def test_word_sized_prime_does_not_overflow():
    # 107 is the count of a naive scan of all 41^4 cells; int64 products of
    # coefficients near 2^61 with coordinates used to wrap and report 119
    p = 2 ** 61 - 1
    lat = CongruenceLattice((1, p - 3, 123456789012345678, 2 ** 60 + 7), p)
    box = ConvexBox((20, 20, 20, 20))
    got = lattice_points_in_box(lat, box, collect=True)
    points = set(map(tuple, got.points.tolist()))
    assert got.count == len(points) == 107
    assert all(lat.contains(v) and max(map(abs, v)) <= 20 for v in points)


@pytest.mark.parametrize("halfwidths", [(499, 499, 499), (31, 31, 31, 31, 31),
                                        (10 ** 6, 249), (3000, 25, 25, 25),
                                        (4999, 4999, 4999)])
def test_count_memory_is_square_root_of_volume(halfwidths):
    lat = CongruenceLattice(tuple(range(3, 3 + 2 * len(halfwidths), 2)), 1000003)
    box = ConvexBox(halfwidths)
    # 7.96 * 10^8 to 10^12 cells: at 8 bytes each, far above 8 MiB
    assert math.prod(2 * h + 1 for h in halfwidths) > 7 * 10 ** 8
    tracemalloc.start()
    try:
        lattice_points_in_box(lat, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _window_counts(lo, hi, p):
    """N_r = #{x in [lo, hi] : x = r mod p} for r = 0..p-1."""
    return [len(range(lo + (r - lo) % p, hi + 1, p)) for r in range(p)]


def test_enumeration_guard():
    # 4 * 10^12 cells: the count-only join's table is the 2 * 10^6 + 1 cells
    # of x_1, and x_0 + x_1 = 0 mod 101 pairs the residue classes r and -r
    lat = CongruenceLattice(coeffs=(1, 1), p=101)
    box = ConvexBox(halfwidths=(10 ** 6, 10 ** 6))
    N = _window_counts(-10 ** 6, 10 ** 6, 101)
    tracemalloc.start()
    try:
        count = lattice_points_in_box(lat, box).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == sum(N[r] * N[-r % 101] for r in range(101))
    # the table, its sorted copy, order and doubled copy peak near 80 MB; a
    # row of the pivot x_0 beside them passes 110 MB
    assert peak < 90 * 10 ** 6
    with pytest.raises(ValueError, match="bytes"):
        lattice_points_in_box(lat, box, collect=True)


def test_scan_holds_only_its_arrays(monkeypatch):
    # the start scale of this body holds 15^5 cells and over 10^5 rows of
    # one of each +-v.  From the end of the collection to the scan's price,
    # the sign filter and the keys hold under 0.75 times the collected
    # points beside them.  From the scan's price to the end of the call,
    # memory stays within 1.5 times its arrays' 8 (2n + 3) bytes a row: only
    # the rows the scan reaches become Python lists
    lat, box = CongruenceLattice((1, 1, 1, 1, 1), 3), ConvexBox((7, 7, 7, 7, 7))
    rows, collected, step = [], [], []
    check, collect = lattice.check_bytes, lattice.lattice_points_in_box

    def counted(*args, **kwargs):
        out = collect(*args, **kwargs)
        if out.points is not None:
            collected.append(out.points.nbytes)
            tracemalloc.reset_peak()
        return out

    def priced(what, nbytes):
        check(what, nbytes)
        if what.startswith("scanning"):
            rows.append(int(what.split()[1]))
            step.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
    monkeypatch.setattr(lattice, "lattice_points_in_box", counted)
    monkeypatch.setattr(lattice, "check_bytes", priced)
    tracemalloc.start()
    try:
        rep = successive_minima(lat, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.lambdas == (Fraction(1, 7),) * 5
    assert len(rows) == 1 and rows[0] > 10 ** 5
    assert step[0] < 1.75 * collected[0], (step[0], collected[0])
    assert peak < 1.5 * rows[0] * 8 * (2 * lat.n + 3)


def test_enumeration_is_exact_past_int64_pivots():
    # the pivot range [-10^20, 10^20] passes int64; 5 x_0 + 7 x_1 = 0 mod 101
    # puts x_0 in the class -7 x_1 / 5 for each of the three x_1
    lat = CongruenceLattice((5, 7), 101)
    box = ConvexBox((10 ** 20, 1))
    N = _window_counts(-10 ** 20, 10 ** 20, 101)
    expect = sum(N[-7 * x * pow(5, -1, 101) % 101] for x in (-1, 0, 1))
    assert lattice_points_in_box(lat, box).count == expect
    with pytest.raises(ValueError, match="bytes"):
        lattice_points_in_box(lat, box, collect=True)
    # x_0 = 0, +-p, +-2p in [-2^62, 2^62]: five points of int64 coordinates,
    # but their pivot digits x_0 + 2^62 reach 2^63
    lat = CongruenceLattice((1, 1), 2 ** 61 - 1)
    box = ConvexBox((2 ** 62, Fraction(1, 2)))
    assert lattice_points_in_box(lat, box).count == 5
    with pytest.raises(ValueError, match="int64"):
        lattice_points_in_box(lat, box, collect=True)


def naive_minima(lat, box, cap=24):
    """Sup-norm window reference: sort every lattice vector with entries in
    [-cap, cap] by box norm and greedily grow the span.  The produced
    lambda_i are exact only while lambda_i * max(h) <= cap, since beyond
    that vectors outside the window could compete; the prefix below that
    threshold is returned."""
    n = lat.n
    inside = []
    for v in itertools.product(range(-cap, cap + 1), repeat=n):
        if any(v) and sum(c * x for c, x in zip(lat.coeffs, v)) % lat.p == 0:
            inside.append((max(Fraction(abs(x), 1) / h
                               for x, h in zip(v, box.halfwidths)), v))
    inside.sort()
    found = []
    lambdas = []
    limit = Fraction(cap, max(box.halfwidths))
    for norm, v in inside:
        if norm > limit or len(found) == n:
            break
        if _rank_of(found + [v]) > len(found):
            found.append(v)
            lambdas.append(norm)
    return lambdas


def _rank_of(vecs):
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_rows(draw):
    """Rows of one dimension in [2, 6], with duplicates, negations, zero rows
    and sums of earlier rows mixed in."""
    n = draw(st.integers(2, 6))
    entry = st.integers(-9, 9)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("random", "duplicate", "negated", "zero", "sum")))
        if kind == "zero" or not rows and kind != "random":
            rows.append((0,) * n)
        elif kind == "random":
            rows.append(tuple(draw(entry) for _ in range(n)))
        else:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            rows.append(a if kind == "duplicate" else tuple(-x for x in a)
                        if kind == "negated" else tuple(x + y for x, y in zip(a, b)))
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_rows())
def test_echelon_rank_matches_fraction_rank_and_sympy(rows):
    span = _Echelon()
    for k, v in enumerate(rows, 1):
        before = len(span.rows)
        grew = span.add(v)
        rank = _rank(rows[:k])
        assert len(span.rows) == rank == sympy.Matrix(rows[:k]).rank()
        assert grew == (rank > before)


def _shell_norm(v, box):
    """Smallest lambda with v in lambda*D."""
    return max(Fraction(abs(x)) / h for x, h in zip(v, box.halfwidths))


ORACLE_CELLS = 200_000  # free cells _solved_points may scan per oracle scale


def _solved_points(lat, box, scale):
    """Every point of Gamma in scale*D by a product over all coordinates but
    one pivot of invertible coefficient and largest range, the pivot solved
    as x = -inv * sum c_j x_j (mod p) and stepped by p through its range;
    None when the free coordinates hold more than ORACLE_CELLS cells."""
    p = lat.p
    bounds = [math.floor(scale * h) for h in box.halfwidths]
    pivot = max((j for j, c in enumerate(lat.coeffs) if c % p), key=lambda j: bounds[j])
    free = [j for j in range(lat.n) if j != pivot]
    if math.prod(2 * bounds[j] + 1 for j in free) > ORACLE_CELLS:
        return None
    inv, b = pow(lat.coeffs[pivot], -1, p), bounds[pivot]
    points = []
    for xs in itertools.product(*(range(-bounds[j], bounds[j] + 1) for j in free)):
        r = -inv * sum(lat.coeffs[j] * x for j, x in zip(free, xs)) % p
        for x in range(-b + (r + b) % p, b + 1, p):
            v = list(xs)
            v.insert(pivot, x)
            points.append(tuple(v))
    return points


def _fraction_minima(lat, box, upto=None, budget=None):
    """The minima by their definition: at each doubling scale from 2^-40,
    every nonzero point of `_solved_points` sorted by its Fraction box norm,
    then by the vector, each kept when a Fraction rank says it grows the
    span of those kept before it; no package enumeration, no integer key,
    no echelon, no Minkowski start and no point skipped.  None once a scale
    holds more than budget points or more than ORACLE_CELLS free cells."""
    n = lat.n if upto is None else min(upto, lat.n)
    scale = Fraction(1, 2 ** 40)
    while True:
        points = _solved_points(lat, box, scale)
        if points is None or budget is not None and len(points) > budget:
            return None
        lambdas, witnesses = [], []
        for norm, v in sorted((_shell_norm(v, box), v) for v in points if any(v)):
            if _rank_of(witnesses + [v]) > len(witnesses):
                lambdas.append(norm)
                witnesses.append(v)
                if len(witnesses) == n:
                    return MinimaReport(tuple(lambdas), tuple(witnesses))
        scale *= 2


def test_minima_equal_the_fraction_rank_path():
    rng = random.Random(54)
    for _ in range(40):
        n = rng.randint(2, 5)
        p = rng.choice((101, 211, 307, 409))
        lat = CongruenceLattice(tuple(rng.randrange(1, p) for _ in range(n)), p)
        box = ConvexBox(tuple(rng.randint(1, 8) for _ in range(n)))
        upto = rng.choice((None, 1, 2, 3))
        assert successive_minima(lat, box, upto=upto) == _fraction_minima(lat, box, upto)
    # equal halfwidths give long runs of equal keys, ordered by the vectors
    for coeffs, p, halfwidths in (((1, 1, 1), 31, (3, 3, 3)), ((1, 30, 5), 31, (3, 3, 3)),
                                  ((1, 1, 1, 1), 5, (2, 2, 2, 2)),
                                  ((2, 3, 5, 7), 11, (2, 2, 2, 2)),
                                  ((1, 1, 1, 1, 1), 3, (1, 1, 1, 1, 1))):
        lat, box = CongruenceLattice(coeffs, p), ConvexBox(halfwidths)
        for upto in (None, 1, 2, 3):
            assert successive_minima(lat, box, upto=upto) == _fraction_minima(lat, box, upto)


ORACLE_POINTS = 2000  # points the Fraction path may sort and rank per example


@st.composite
def minima_cases(draw):
    """Lattices of dimension 2..6 with Fraction halfwidths, some of them
    huge enough that the minima sit far below 1, and every upto."""
    n = draw(st.integers(2, 6))
    p = draw(st.sampled_from((3, 31, 101, 211, 409)))
    coeffs = tuple(draw(st.integers(0, p - 1)) for _ in range(n))
    assume(any(coeffs))
    huge = draw(st.booleans())
    top = 10 ** 6 if huge else 6 if n < 5 else 3
    halfwidths = tuple(Fraction(draw(st.integers(1, top)), draw(st.integers(1, 3)))
                       for _ in range(n))
    upto = draw(st.sampled_from((None,) + tuple(range(1, 7))))
    return CongruenceLattice(coeffs, p), ConvexBox(halfwidths), upto


@settings(max_examples=50, deadline=None)
@given(minima_cases())
def test_minima_equal_the_fraction_rank_path_on_drawn_bodies(case):
    lat, box, upto = case
    expect = _fraction_minima(lat, box, upto, budget=ORACLE_POINTS)
    assume(expect is not None)
    assert successive_minima(lat, box, upto=upto) == expect


@pytest.mark.parametrize("lat, box, upto, lambdas, witnesses", [
    (CongruenceLattice((17, 40, 3, 99, 5), 211), ConvexBox((3, 5, 2, 7, 4)), None,
     ((1, 2), (1, 2), (1, 2), (2, 3), (2, 3)),
     ((-1, -2, 1, 1, -1), (-1, 1, 0, 2, -2), (0, 0, -1, -2, -2),
      (-2, -2, -1, -1, 1), (-2, 0, 1, -4, 1))),
    (CongruenceLattice((2, 9, 40, 77, 101, 150), 307), ConvexBox((2, 3, 2, 4, 3, 2)), 4,
     ((1, 2), (2, 3), (2, 3), (2, 3)),
     ((0, -1, -1, 0, -1, 1), (-1, 2, -1, -1, 1, 0), (-1, 2, 1, 0, 1, 1),
      (0, -1, -1, 2, 2, 0))),
])
def test_minima_frozen_reports(lat, box, upto, lambdas, witnesses):
    # recorded on the Fraction-rank path
    assert successive_minima(lat, box, upto=upto) == MinimaReport(
        tuple(Fraction(*l) for l in lambdas), witnesses)


@pytest.mark.parametrize("c, M, p, lambdas, witnesses", [
    ((1, 2, 3, 4), 4, 10007, ((1, 128), (1, 64), (1, 32)),
     ((-1, 1, -1, 0, 0), (-2, -1, 2, 0, 0), (-4, -2, 3, 1, 1))),
    ((5, 7, 11, 13), 2, 1009, ((1, 16), (1, 16), (1, 16)),
     ((-2, -1, 2, -1, 0), (-2, 0, 0, 1, -1), (-2, 1, -1, 0, 0))),
    ((3, 1, 4, 1), 3, 100003, ((1, 72), (1, 72), (1, 24)),
     ((-1, -3, 1, 0, 0), (-1, 1, 0, 0, 0), (-3, -9, 2, 1, 1))),
])
def test_thm2_partial_minima_frozen(c, M, p, lambdas, witnesses):
    # the upto=3 path of the thm2_lattice kind, recorded on the Fraction-rank path
    setup = build_thm2_lattice(c, M, p)
    assert successive_minima(setup.lattice, setup.box, upto=3) == MinimaReport(
        tuple(Fraction(*l) for l in lambdas), witnesses)


def test_minima_frozen_example():
    lat = CongruenceLattice(coeffs=(1, 3, 5), p=101)
    box = ConvexBox(halfwidths=(4, 6, 9))
    rep = successive_minima(lat, box)
    assert rep.lambdas == (Fraction(1, 3), Fraction(1, 2), Fraction(14, 9))
    for lam, w in zip(rep.lambdas, rep.witnesses):
        assert lat.contains(w)
        assert max(Fraction(abs(x), 1) / h
                   for x, h in zip(w, box.halfwidths)) == lam


def test_minima_start_at_the_minkowski_scale(monkeypatch):
    # lambda_3^3 >= 2^3 * 1009 / (3! * vol D) = 1009 / 24 puts the first
    # scale at 8: scales 1, 2 and 4 cannot span and are never enumerated
    lat = CongruenceLattice((2, 509, 740), 1009)
    box = ConvexBox((1, 1, 2))
    scales = []
    enumerate_points = lattice.lattice_points_in_box

    def recorded(lat, box, scale=1, collect=False):
        scales.append(scale)
        return enumerate_points(lat, box, scale, collect)
    monkeypatch.setattr(lattice, "lattice_points_in_box", recorded)
    rep = successive_minima(lat, box)
    assert scales == [8]
    assert rep == MinimaReport((Fraction(13, 2), Fraction(7), Fraction(15, 2)),
                               ((-6, -5, 13), (-1, -7, -2), (-4, 2, -15)))
    assert rep == _fraction_minima(lat, box)


def test_minima_against_naive_oracle():
    rng = random.Random(52)
    for _ in range(25):
        p = rng.choice((101, 211))
        n = rng.randint(2, 3)
        lat = CongruenceLattice(
            coeffs=tuple(rng.randrange(1, p) for _ in range(n)), p=p)
        box = ConvexBox(halfwidths=tuple(rng.randint(1, 6) for _ in range(n)))
        rep = successive_minima(lat, box)
        oracle_prefix = naive_minima(lat, box)
        assert list(rep.lambdas)[:len(oracle_prefix)] == oracle_prefix


def test_minima_validation_raises_on_bad_reports():
    # raised, not asserted, so the checks also hold under python -O
    lat = CongruenceLattice(coeffs=(1, 3, 5), p=101)
    box = ConvexBox(halfwidths=(4, 6, 9))
    rep = successive_minima(lat, box)
    lams, wits = rep.lambdas, rep.witnesses
    _validate_minima(lat, box, rep, 3)
    for bad in (MinimaReport(lams[:2], wits),
                MinimaReport(lams[::-1], wits[::-1]),
                MinimaReport(lams, ((1, 0, 0),) + wits[1:]),
                MinimaReport((Fraction(0),) + lams[1:], wits),
                MinimaReport(lams, (wits[0],) * 3),
                # inflated minima on the true witnesses
                MinimaReport((Fraction(1, 3), Fraction(1), Fraction(14, 9)), wits),
                MinimaReport((Fraction(14, 9),) * 3, wits)):
        with pytest.raises(RuntimeError):
            _validate_minima(lat, box, bad, 3)


def test_minima_homogeneity():
    lat = CongruenceLattice(coeffs=(2, 9, 40), p=211)
    box = ConvexBox(halfwidths=(3, 4, 5))
    doubled = ConvexBox(halfwidths=(6, 8, 10))
    a = successive_minima(lat, box)
    b = successive_minima(lat, doubled)
    assert tuple(l / 2 for l in a.lambdas) == b.lambdas


def test_minima_partial_prefix():
    rng = random.Random(53)
    for _ in range(20):
        p = rng.choice((101, 211))
        n = rng.randint(2, 4)
        lat = CongruenceLattice(
            coeffs=tuple(rng.randrange(1, p) for _ in range(n)), p=p)
        box = ConvexBox(halfwidths=tuple(rng.randint(1, 6) for _ in range(n)))
        full = successive_minima(lat, box)
        for k in range(1, n + 1):
            part = successive_minima(lat, box, upto=k)
            assert part.lambdas == full.lambdas[:k]


def test_minima_partial_dodges_guard():
    # full minima of the M = 4 proof body pass the byte guard (the fifth
    # direction needs an integer sum reaching p), the first three are
    # still reachable
    setup = build_thm2_lattice((1, 2, 3, 4), 4, 10007)
    rep = successive_minima(setup.lattice, setup.box, upto=3)
    assert rep.lambdas == (Fraction(1, 128), Fraction(1, 64), Fraction(1, 32))


def test_full_thm2_minima_are_refused_by_bytes(monkeypatch):
    # the fifth minimum of the M = 4 proof body needs scale 1, whose
    # 69,764,273 points the default guard refuses before they are collected
    setup = build_thm2_lattice((1, 2, 3, 4), 4, 10007)
    with pytest.raises(ValueError, match="collecting 69764273 points .* bytes"):
        lattice_points_in_box(setup.lattice, setup.box, collect=True)
    # the full minima stop the same way; at the default guard they first scan
    # the 2.1 million rows of scale 1/2, too slow for this suite, so a guard
    # of 5 * 10^7 bytes stops them at the 4.5 million points of scale 1/2,
    # once the rows of scale 1/4 are scanned
    monkeypatch.setattr(ffield, "BYTE_GUARD", 5 * 10 ** 7)
    with pytest.raises(ValueError, match=r"^collecting 4530521 points of Z\^5 needs 471174184 "
                                         r"bytes, above the guard of 50000000 bytes$"):
        successive_minima(setup.lattice, setup.box)


def test_degenerate_proof_body_is_one_enumeration(monkeypatch):
    # the first three minima of the c = 0 body sit in its start scale 1/64;
    # a start at Minkowski's lambda_1 collects millions of points here
    setup = build_thm2_lattice((0, 0, 0, 0), 8, 1000003)
    calls = []
    enumerate_points = lattice.lattice_points_in_box

    def recorded(lat, box, scale=1, collect=False):
        got = enumerate_points(lat, box, scale, collect)
        calls.append((scale, got.count))
        return got
    monkeypatch.setattr(lattice, "lattice_points_in_box", recorded)
    rep = successive_minima(setup.lattice, setup.box, upto=3)
    assert calls == [(Fraction(1, 64), 19737)]
    assert rep.lambdas == (Fraction(1, 4096), Fraction(1, 512), Fraction(1, 64))


def test_minima_propagate_enumeration_guard(monkeypatch):
    monkeypatch.setattr(ffield, "BYTE_GUARD", 10 ** 5)
    lat = CongruenceLattice(coeffs=(1, 1), p=10 ** 6 + 3)
    box = ConvexBox(halfwidths=(1, 1))
    with pytest.raises(ValueError):
        successive_minima(lat, box)
    # the first minimum sits inside the shrunken guard
    part = successive_minima(lat, box, upto=1)
    assert part.lambdas == (Fraction(1),)
    assert part.witnesses[0] in ((1, -1), (-1, 1))


def test_double_factorial():
    assert [double_factorial(k) for k in (0, 1, 3, 5, 7, 9)] == \
        [1, 1, 3, 15, 105, 945]


def test_cor7_and_minkowski_hold_randomized():
    rng = random.Random(54)
    for _ in range(30):
        p = rng.choice((101, 211, 307))
        n = rng.randint(2, 5)
        lat = CongruenceLattice(
            coeffs=tuple(rng.randrange(1, p) for _ in range(n)), p=p)
        box = ConvexBox(halfwidths=tuple(rng.randint(1, 8) for _ in range(n)))
        c7 = cor7_check(lat, box)
        assert c7.ok
        assert c7.point_count == lattice_points_in_box(lat, box).count
        mink = minkowski_check(lat, box, c7.minima)
        assert mink.ok and mink.lhs <= mink.rhs
        assert mink.lhs == float(c7.minima.lambdas[0] ** n * box.volume())
        assert mink.rhs == 2 ** n * p  # the congruence lattice has determinant p


@pytest.mark.parametrize("coeffs, p, halfwidths, own_counts", [
    # the minima scan reaches scale 1, and D is counted off that enumeration
    ((1, 3, 5), 101, (4, 6, 9), 0),
    ((17, 40, 3, 99), 211, (3, 5, 2, 7), 0),
    ((1, 7), 31, (3, 2), 0),
    # D holds over 10^6 cells, so the scan starts below scale 1, and its
    # minima end it there: D is counted by a call of its own
    ((5, 7), 101, (1000, 1000), 1),
    ((2, 9, 40), 211, (120, 130, 140), 1),
])
def test_cor7_point_count_is_the_body_count(monkeypatch, coeffs, p, halfwidths, own_counts):
    lat, box = CongruenceLattice(coeffs, p), ConvexBox(halfwidths)
    counts = []
    enumerate_points = lattice.lattice_points_in_box

    def recorded(lat, box, scale=1, collect=False):
        counts.append(collect)
        return enumerate_points(lat, box, scale, collect)
    monkeypatch.setattr(lattice, "lattice_points_in_box", recorded)
    rep = cor7_check(lat, box)
    assert counts.count(False) == own_counts
    assert rep.point_count == len(_solved_points(lat, box, 1))


def test_thm2_lattice_shape():
    setup = build_thm2_lattice((5, 6, 7, 8), 3, 10007)
    assert setup.lattice.coeffs == (1, 8, 7, 6, 5)
    assert tuple(int(h) for h in setup.box.halfwidths) == (72, 216, 72, 24, 24)
    assert setup.proof_scale_ok  # 8*27 < 10007
    assert not build_thm2_lattice((5, 6, 7, 8), 11, 10007).proof_scale_ok
    with pytest.raises(ValueError):
        build_thm2_lattice((1, 2, 3), 3, 10007)


def test_shifted_congruence_count_matches_brute():
    rng = random.Random(55)
    for _ in range(30):
        p = rng.choice((101, 1009))
        c = tuple(rng.randrange(p) for _ in range(4))
        M = rng.randint(0, 20)
        brute = sum(1
                    for x in range(-M, M + 1)
                    for y in range(-M, M + 1)
                    if (y * y - c[0] * y) % p
                    == (c[3] * x ** 3 + c[2] * x * x + c[1] * x) % p)
        assert shifted_congruence_count(c, M, p) == brute


def test_lemma6_counts_planted_composition():
    # plant h with zero constant term, sample the interpolation data from
    # it, and compare against the direct composition count
    rng = random.Random(56)
    for _ in range(25):
        p = rng.choice((101, 211))
        mod = PrimeModulus(p)
        f = FpPolynomial.from_ints(
            [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)], mod)
        g = FpPolynomial.from_ints(
            [rng.randrange(p) for _ in range(2)] + [rng.randrange(1, p)], mod)
        h_coeffs = [0] + [rng.randrange(p) for _ in range(3)]
        h = FpPolynomial.from_ints(h_coeffs, mod)
        xs = rng.sample(range(1, p), 3)
        ys = [h(x) for x in xs]
        count = lemma6_count(f, g, xs, ys)
        expect = sum(1 for x in range(p) if f(x) == g(h(x)))
        assert count == expect <= 3 * 2


def _scan_count(f, g, xs, ys):
    """#{x in F_p : f(x) = g(h(x))} by evaluating both sides at every
    residue, with h(x) = x * L(x) and L the Lagrange interpolant through
    the points (x_i, y_i / x_i)."""
    p = f.modulus.p
    x = np.arange(p, dtype=np.int64)
    lag = np.zeros(p, dtype=np.int64)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = np.full(p, yi * pow(xi, -1, p) % p, dtype=np.int64)
        for j, xj in enumerate(xs):
            if j != i:
                term = term * ((x - xj) % p) % p * pow(xi - xj, -1, p) % p
        lag = (lag + term) % p
    hx = x * lag % p
    return int((poly_values(f.coeffs, x, p) == poly_values(g.coeffs, hx, p)).sum())


@st.composite
def lemma6_cases(draw):
    """Degrees with m not dividing n, at primes past the determinant replay,
    with planted compositions and random data."""
    p = draw(st.sampled_from((223, 1009, 10007, 100003)))
    n, m = draw(st.sampled_from(((1, 2), (2, 3), (3, 2), (4, 3), (5, 2), (5, 3))))
    mod = PrimeModulus(p)
    f = FpPolynomial.from_ints([draw(st.integers(0, p - 1)) for _ in range(n)]
                               + [draw(st.integers(1, p - 1))], mod)
    g = FpPolynomial.from_ints([draw(st.integers(0, p - 1)) for _ in range(m)]
                               + [draw(st.integers(1, p - 1))], mod)
    xs = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):  # y_i = h(x_i) on a planted h with g(h) = f at some x
        h = FpPolynomial.from_ints([0] + [draw(st.integers(0, p - 1)) for _ in range(n)], mod)
        ys = [h(x) for x in xs]
    else:
        ys = [draw(st.integers(0, p - 1)) for _ in range(n)]
    return f, g, xs, ys


@settings(max_examples=60, deadline=None)
@given(lemma6_cases())
def test_lemma6_root_count_matches_the_residue_scan(case):
    f, g, xs, ys = case
    count = lemma6_count(f, g, xs, ys)
    assert count == _scan_count(f, g, xs, ys) <= f.degree * g.degree


@pytest.mark.parametrize("f, g, x1, y1, expect", [
    ((5, 7), (1, 2, 3), 11, 13, 0),  # disc a nonresidue
    ((0, 1), (4, 0, 1), 2, 1, 2),  # disc a nonzero residue
    ((0, 6), (9, 0, 1), 1, 1, 1),  # disc = 0: F = -(X - 3)^2
    ((3, 2 ** 40), (2 ** 50, 9, 2 ** 60), 7, 2 ** 59, 2),
])
def test_lemma6_at_the_largest_prime_by_the_discriminant(f, g, x1, y1, expect):
    # deg f = 1, deg g = 2: h(X) = aX with a = y1 / x1, and F = f - g(aX) is
    # the quadratic -g2 a^2 X^2 + (f1 - g1 a) X + (f0 - g0), whose distinct
    # roots number 1 + (disc / p), the Legendre symbol by Euler's criterion
    p = 2 ** 61 - 1
    mod = PrimeModulus(p)
    a = y1 * pow(x1, -1, p) % p
    A, B, C = -g[2] * a * a, f[1] - g[1] * a, f[0] - g[0]
    euler = pow(B * B - 4 * A * C, (p - 1) // 2, p)
    assert 1 + (-1 if euler == p - 1 else euler) == expect
    assert lemma6_count(FpPolynomial.from_ints(f, mod), FpPolynomial.from_ints(g, mod),
                        [x1], [y1]) == expect


def _leibniz_det(rows, p):
    """Determinant mod p as the signed sum over every permutation."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p


def test_lemma6_counts_unplanted_data_by_the_determinant():
    # random ys plant no h: the count is every (x, y) in F_p^2 with
    # f(x) = g(y) whose free row is a dependency of the data rows
    rng = random.Random(66)
    for p in (13, 31):
        mod = PrimeModulus(p)
        for n, m in ((3, 2), (4, 3), (5, 2), (5, 3)):
            for _ in range(3):
                f = FpPolynomial.from_ints(
                    [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], mod)
                g = FpPolynomial.from_ints(
                    [rng.randrange(p) for _ in range(m)] + [rng.randrange(1, p)], mod)
                xs = rng.sample(range(1, p), n)
                ys = [rng.randrange(p) for _ in range(n)]
                data = [[pow(x, e, p) for e in range(n, 0, -1)] + [y]
                        for x, y in zip(xs, ys)]
                expect = sum(
                    1 for x in range(p) for y in range(p) if f(x) == g(y)
                    and _leibniz_det([[pow(x, e, p) for e in range(n, 0, -1)] + [y]]
                                     + data, p) == 0)
                assert lemma6_count(f, g, xs, ys) == expect <= m * n


def test_lemma6_oracle_catches_a_wrong_shortcut(monkeypatch):
    mod = PrimeModulus(101)
    f = FpPolynomial.from_text("1,2,0,1", mod)
    g = FpPolynomial.from_text("3,0,1", mod)
    assert lemma6_count(f, g, [1, 2, 3], [1, 2, 3]) == 1  # h(x) = x
    solve = lattice._solve_mod

    def perturbed(aug, p):
        h = solve(aug, p)
        return [(h[0] + 1) % p] + h[1:]
    monkeypatch.setattr(lattice, "_solve_mod", perturbed)
    with pytest.raises(RuntimeError, match="disagrees with determinant scan"):
        lemma6_count(f, g, [1, 2, 3], [1, 2, 3])


def test_lemma6_input_validation():
    mod = PrimeModulus(101)
    f = FpPolynomial.from_text("1,0,0,1", mod)   # degree 3
    g2 = FpPolynomial.from_text("1,0,1", mod)    # degree 2
    g3 = FpPolynomial.from_text("1,0,0,2", mod)  # degree 3 divides 3
    with pytest.raises(ValueError):
        lemma6_count(f, g3, [1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        lemma6_count(f, g2, [1, 2, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        lemma6_count(f, g2, [0, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        lemma6_count(f, g2, [1, 2], [1, 2])

