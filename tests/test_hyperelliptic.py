"""Scaling isomorphisms of odd-degree hyperelliptic curve vectors: scalars,
canonical forms, box counts, the box census, and the power-congruence
reduction, cross-checked against a plain orbit walk over every alpha, the
earlier root-per-window-value orbit count, and brute-force box scans."""

import functools
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from smallbox import cli, ffield, harness, hyperelliptic
from smallbox.acceptance import DEFAULT_SEED, derived_rng
from smallbox.boxcount import Box2, count_curve_points
from smallbox.ffield import FpPolynomial, PrimeModulus, discriminant
from smallbox.hyperelliptic import (
    CubeBox,
    CurveVector,
    apply_scaling,
    bound_N,
    canonical_representative,
    class_census,
    class_censuses,
    count_isomorphic_in_box,
    isomorphism_scalars,
    nonsingular_mask,
    reduce_to_power_congruence,
    scaling_exponents,
    sharpness_witness,
)

MOD31 = PrimeModulus(31)
BIG = (1 << 61) - 1


def random_vector(rng, mod, g):
    return CurveVector(g=g, a=tuple(rng.randrange(mod.p) for _ in range(2 * g)),
                       modulus=mod)


# The oracle: a plain walk over every alpha in F_p^*, for p <= 10^4 (and one
# census just past 5 * 10^4).  It shares nothing with `ffield.roots_mod`.

@functools.lru_cache(maxsize=None)
def _alpha_powers(p, g):
    """Row alpha-1 holds alpha^(4g+2-2i) mod p for i = 0..2g-1."""
    return np.array([[pow(al, 4 * g + 2 - 2 * i, p) for i in range(2 * g)]
                     for al in range(1, p)], dtype=np.int64)


def walk(b):
    """Row alpha-1 is the scaled vector alpha . b."""
    p = b.modulus.p
    return _alpha_powers(p, b.g) * np.asarray(b.a, dtype=np.int64) % p


def walk_scalars(a, b):
    return set((np.flatnonzero((walk(b) == np.asarray(a.a)).all(axis=1)) + 1).tolist())


def walk_canonical(a):
    rows = walk(a)
    for j in range(rows.shape[1]):  # keep the rows minimal so far, column by column
        rows = rows[rows[:, j] == rows[:, j].min()]
    return tuple(rows[0].tolist())


def walk_count(b, box):
    rows = walk(b)
    inside = ((rows >= box.lows()) & (rows <= box.highs())).all(axis=1)
    return len(set(map(tuple, rows[inside].tolist())))


def root_walk_count(b, box):
    """The earlier orbit count, kept as the oracle of the power-congruence
    join: for each value v0 of coordinate 0's window the scalars with
    alpha^(4g+2) b_0 = v0 are the (4g+2)-th roots of v0/b_0, and each
    candidate vector, built by plain pow, is tested against the box.  Every
    vector in the box is hit by exactly one stabilizer coset of scalars,
    which is checked.  One root extraction per value of v0, at any p."""
    p, g = b.modulus.p, b.g
    if 0 in b.a:
        return 0
    lo, hi = box.lows(), box.highs()
    inv_b0 = pow(b.a[0], -1, p)
    alphas = [al for v0 in range(lo[0], hi[0] + 1)
              for al in ffield.roots_mod(v0 * inv_b0 % p, 4 * g + 2, p)]
    rows = np.array([[pow(al, e, p) * c % p for e, c in zip(scaling_exponents(g), b.a)]
                     for al in alphas], dtype=np.int64).reshape(-1, 2 * g)
    inside = ((rows >= np.asarray(lo)) & (rows <= np.asarray(hi))).all(axis=1)
    distinct = len(set(map(tuple, rows[inside].tolist())))
    # alpha fixes b exactly when alpha^gcd(p-1, exponents) = 1
    assert int(inside.sum()) == distinct * math.gcd(p - 1, *scaling_exponents(g))
    return distinct


def box_around(rng, v, M, p):
    """A side-M box that holds the vector v."""
    return CubeBox(len(v) // 2, tuple(max(0, min(p - M - 1, c - rng.randint(1, M)))
                                      for c in v), M)


def walk_census(mod, box):
    sizes = Counter()
    for v in box.vectors():
        b = CurveVector(g=box.g, a=v, modulus=mod)
        if b.is_nonsingular():
            sizes[walk_canonical(b)] += 1
    return dict(sizes)


def orbit(b):
    return set(map(tuple, walk(b).tolist()))


def test_scaling_exponents_are_even_and_decreasing():
    assert scaling_exponents(1) == (6, 4)
    assert scaling_exponents(2) == (10, 8, 6, 4)
    for g in range(1, 6):
        exps = scaling_exponents(g)
        assert all(e % 2 == 0 for e in exps)
        assert exps[0] == 4 * g + 2 and exps[-1] == 4


def test_scaling_is_a_curve_isomorphism():
    # the defining substitution: f_a(alpha^2 x) = alpha^(4g+2) f_b(x)
    rng = random.Random(20)
    for _ in range(50):
        g = rng.randint(1, 3)
        b = random_vector(rng, MOD31, g)
        alpha = rng.randrange(1, 31)
        a = apply_scaling(b, alpha)
        fa, fb = a.weierstrass_polynomial(), b.weierstrass_polynomial()
        scale = pow(alpha, 4 * g + 2, 31)
        for x in range(31):
            assert fa(alpha * alpha * x % 31) == scale * fb(x) % 31


def test_scaling_group_action():
    rng = random.Random(21)
    for _ in range(50):
        b = random_vector(rng, MOD31, 2)
        assert apply_scaling(b, 1) == b
        alpha, beta = rng.randrange(1, 31), rng.randrange(1, 31)
        assert apply_scaling(apply_scaling(b, alpha), beta) == \
            apply_scaling(b, alpha * beta % 31)
        # all exponents are even, so -alpha acts like alpha
        assert apply_scaling(b, 31 - alpha) == apply_scaling(b, alpha)


def test_isomorphism_scalars_equivalence_relation():
    rng = random.Random(22)
    mod = PrimeModulus(101)
    for _ in range(30):
        g = rng.randint(1, 2)
        a = random_vector(rng, mod, g)
        b = apply_scaling(a, rng.randrange(1, 101))
        c = apply_scaling(b, rng.randrange(1, 101))
        assert 1 in isomorphism_scalars(a, a)
        ab = isomorphism_scalars(a, b)
        ba = isomorphism_scalars(b, a)
        assert {pow(s, -1, 101) for s in ab} == ba
        bc = isomorphism_scalars(b, c)
        ac = isomorphism_scalars(a, c)
        assert {x * y % 101 for x in ab for y in bc} <= ac
        unrelated = random_vector(rng, mod, g)
        if unrelated.a not in orbit(a):
            assert not isomorphism_scalars(a, unrelated)


def test_isomorphism_scalars_match_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        a = random_vector(rng, MOD31, 1)
        b = random_vector(rng, MOD31, 1) if rng.random() < 0.5 \
            else apply_scaling(a, rng.randrange(1, 31))
        expect = {al for al in range(1, 31) if apply_scaling(b, al) == a}
        assert isomorphism_scalars(a, b) == expect


def test_canonical_representative_is_orbit_minimum():
    rng = random.Random(24)
    for _ in range(40):
        g = rng.randint(1, 2)
        a = random_vector(rng, MOD31, g)
        can = canonical_representative(a)
        assert can.a == min(orbit(a))
        assert canonical_representative(can) == can
        b = apply_scaling(a, rng.randrange(1, 31))
        assert canonical_representative(b) == can


def test_count_isomorphic_equals_box_scan():
    rng = random.Random(25)
    for _ in range(15):
        g = rng.randint(1, 2)
        M = rng.randint(2, 5)
        R = tuple(rng.randint(0, 31 - M - 1) for _ in range(2 * g))
        box = CubeBox(g=g, R=R, M=M)
        while True:
            b = random_vector(rng, MOD31, g)
            if b.is_nonsingular():
                break
        scan = sum(1 for v in box.vectors()
                   if CurveVector(g=g, a=v, modulus=MOD31).a in orbit(b))
        assert count_isomorphic_in_box(b, box) == scan


def test_count_isomorphic_rejects_singular():
    b = CurveVector(g=1, a=(0, 0), modulus=MOD31)
    assert not b.is_nonsingular()
    with pytest.raises(ValueError):
        count_isomorphic_in_box(b, CubeBox(g=1, R=(0, 0), M=3))


def test_census_agrees_with_per_class_walks():
    box = CubeBox(g=1, R=(2, 5), M=6)
    cen = class_census(MOD31, box)
    assert cen.box_size == 36
    assert cen.total_nonsingular + cen.singular_count == 36
    assert sum(cen.class_sizes.values()) == cen.total_nonsingular
    assert sum(s * s for s in cen.class_sizes.values()) == cen.second_moment
    assert max(cen.class_sizes.values()) == cen.max_class_size
    assert len(cen.class_sizes) == cen.class_count
    # per-class sizes must match independent orbit walks, key by key
    walked = {}
    for v in box.vectors():
        b = CurveVector(g=1, a=v, modulus=MOD31)
        if not b.is_nonsingular():
            continue
        key = canonical_representative(b).a
        if key not in walked:
            walked[key] = count_isomorphic_in_box(b, box)
    assert walked == cen.class_sizes


def test_census_past_int64_keys_agrees_with_walks():
    # p^4 >= 2^63: a genus-2 key no longer fits one int64 place-value code
    p = 55109
    assert p ** 4 >= 2 ** 63
    mod = PrimeModulus(p)
    box = CubeBox(g=2, R=(1, 2, 3, 4), M=3)
    cen = class_census(mod, box)
    walked = walk_census(mod, box)
    assert cen.class_sizes == walked
    assert cen.total_nonsingular + cen.singular_count == 81
    assert cen.second_moment == sum(n * n for n in walked.values())
    wide = CubeBox(g=2, R=(p - 10,) * 4, M=3)  # near p: every coordinate large
    assert class_census(mod, wide).class_sizes == walk_census(mod, wide)


def sparse_vector(rng, mod, g):
    """Random coordinates, each zero with probability 1/4."""
    return CurveVector(g, tuple(rng.randrange(mod.p) if rng.random() < 0.75 else 0
                                for _ in range(2 * g)), mod)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 37, 61, 1009, 9973])
def test_orbit_routines_match_the_walk(p):
    rng = random.Random(p)
    mod = PrimeModulus(p)
    zero = CurveVector(2, (0,) * 4, mod)
    assert isomorphism_scalars(zero, zero) == set(range(1, p))
    assert canonical_representative(zero) == zero
    counted = 0
    for _ in range(40):
        g = rng.choice((1, 2, 3))
        a = sparse_vector(rng, mod, g)
        b = (apply_scaling(a, rng.randrange(1, p)) if rng.random() < 0.6
             else sparse_vector(rng, mod, g))
        assert isomorphism_scalars(a, b) == walk_scalars(a, b)
        assert canonical_representative(a).a == walk_canonical(a)
        if p < 7 or not a.is_nonsingular():
            continue
        # a box around a random orbit member, so that counts are not all 0
        M = rng.randint(1, min(p - 2, 40))
        v = apply_scaling(a, rng.randrange(1, p)).a
        box = CubeBox(g, tuple(max(0, min(p - M - 1, c - rng.randint(1, M))) for c in v), M)
        n = count_isomorphic_in_box(a, box)
        assert n == walk_count(a, box)
        counted += n > 0
    assert p < 7 or counted > 0


@pytest.mark.parametrize("p, g", [(1000003, 1), (1000003, 2), (1000033, 1), (1000033, 2),
                                  (BIG, 3)])
def test_orbit_count_matches_the_root_walk_at_large_p(p, g):
    # the benchmark's large-p shape: M = 2000, a box around an orbit member
    rng = random.Random(p + g)
    mod, M = PrimeModulus(p), 2000
    for _ in range(3):
        b = random_vector(rng, mod, g)
        if 0 in b.a or not b.is_nonsingular():
            continue
        box = box_around(rng, apply_scaling(b, rng.randrange(1, p)).a, M, p)
        assert count_isomorphic_in_box(b, box) == root_walk_count(b, box) >= 1
    ones = CurveVector(g, (1,) * (2 * g), mod)  # many members near the origin
    box = CubeBox(g, (0,) * (2 * g), M)
    assert count_isomorphic_in_box(ones, box) == root_walk_count(ones, box) > 1


SMALL_PRIMES = [q for q in range(3, 102) if sympy.isprime(q)]


@st.composite
def orbit_boxes(draw):
    """A vector at p <= 101 (zero coordinates included) and a box, random or
    around one of its orbit members."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    g = draw(st.integers(1, 3))
    b = CurveVector(g, tuple(draw(st.integers(0, p - 1)) for _ in range(2 * g)),
                    PrimeModulus(p))
    M = draw(st.integers(1, p - 2))
    if draw(st.booleans()):
        v = apply_scaling(b, draw(st.integers(1, p - 1))).a
        R = tuple(max(0, min(p - M - 1, c - draw(st.integers(1, M)))) for c in v)
    else:
        R = tuple(draw(st.integers(0, p - M - 1)) for _ in range(2 * g))
    return b, CubeBox(g, R, M)


@settings(max_examples=300, deadline=None)
@given(orbit_boxes())
def test_orbit_count_matches_the_walk(case):
    b, box = case
    n = hyperelliptic._count_orbit_in_box(b, box)
    assert n == walk_count(b, box)
    if b.is_nonsingular():
        assert count_isomorphic_in_box(b, box) == n


def test_orbit_count_certificate_catches_a_wrong_root(monkeypatch):
    mod = PrimeModulus(1000003)
    b = CurveVector(2, (1000, 2000, 3000, 4000), mod)
    box = CubeBox(2, tuple(c - 10 for c in b.a), 20)  # holds b itself
    assert b.is_nonsingular() and count_isomorphic_in_box(b, box) >= 1
    roots = ffield.roots_mod
    for wrong in (lambda c, k, p: tuple(2 * r % p for r in roots(c, k, p)),
                  lambda c, k, p: ()):
        monkeypatch.setattr(hyperelliptic, "roots_mod", wrong)
        with pytest.raises(RuntimeError, match="not a square root's scaling"):
            count_isomorphic_in_box(b, box)


def test_orbit_count_takes_one_root_per_counted_vector(monkeypatch):
    # the root walk took one (4g+2)-th root per value of coordinate 0's
    # window, 2,000 here; the join takes one square root per counted vector
    p, M = 1000003, 2000
    mod, rng = PrimeModulus(p), random.Random(21)
    calls, roots = [], hyperelliptic.roots_mod

    def counted(*args):
        calls.append(args)
        return roots(*args)
    monkeypatch.setattr(hyperelliptic, "roots_mod", counted)
    for g in (1, 2):
        b = CurveVector(g, tuple(rng.randrange(1, p) for _ in range(2 * g)), mod)
        cases = [(b, box_around(rng, b.a, M, p)),
                 (CurveVector(g, (1,) * (2 * g), mod), CubeBox(g, (0,) * (2 * g), M))]
        for b, box in cases:
            calls.clear()
            n = count_isomorphic_in_box(b, box)
            assert n >= 1 and len(calls) == n


# (29, 3, 2) and (211, 2, 3) have d/2 = 7 and 5: coordinate 1 picks the
# scaling among that many candidates
@pytest.mark.parametrize("p, g, M", [(7, 1, 5), (13, 3, 2), (29, 3, 2), (31, 1, 9), (31, 3, 2),
                                     (101, 2, 3), (211, 2, 3), (1009, 1, 12), (9973, 2, 3)])
def test_census_keys_match_the_walk(p, g, M):
    rng = random.Random(p * g * M)
    mod = PrimeModulus(p)
    box = CubeBox(g, tuple(rng.randrange(p - M) for _ in range(2 * g)), M)
    cen = class_census(mod, box)
    assert cen.class_sizes == walk_census(mod, box)
    assert cen.total_nonsingular + cen.singular_count == M ** (2 * g)


def _assert_census_is(cen, walked, box):
    assert cen.class_sizes == walked
    assert cen.class_count == len(walked)
    assert cen.total_nonsingular == sum(walked.values())
    assert cen.second_moment == sum(n * n for n in walked.values())
    assert cen.max_class_size == max(walked.values(), default=0)
    assert cen.total_nonsingular + cen.singular_count == cen.box_size == box.cell_count()


@st.composite
def census_batches(draw, p):
    """Fresh, repeated and overlapping boxes of one genus and mixed sides."""
    g = 2 if p == 55109 else draw(st.sampled_from((1, 2)))
    top = min(p - 2, (8 if g == 1 else 3) if p <= 101 else (4 if g == 1 else 2))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("fresh", "repeat", "overlap"))) if boxes else "fresh"
        if kind == "repeat":
            boxes.append(draw(st.sampled_from(boxes)))
            continue
        M = draw(st.integers(1, top))
        if kind == "fresh":
            R = tuple(draw(st.integers(0, p - M - 1)) for _ in range(2 * g))
        else:  # shifted by at most 2 from an earlier box, so the two meet
            base = draw(st.sampled_from(boxes))
            R = tuple(min(max(0, r + draw(st.integers(-2, 2))), p - M - 1) for r in base.R)
        boxes.append(CubeBox(g, R, M))
    return boxes


# p = 55109 has p^4 >= 2^63: its genus-2 keys take the dtype-object path
@pytest.mark.parametrize("p", [7, 31, 101, 9973, 55109])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_censuses_match_per_box_walks(p, data):
    boxes = data.draw(census_batches(p))
    mod = PrimeModulus(p)
    censuses = class_censuses(mod, boxes)
    assert len(censuses) == len(boxes)
    for box, cen in zip(boxes, censuses):
        _assert_census_is(cen, walk_census(mod, box), box)


@pytest.mark.parametrize("p", [998244353, BIG])
def test_word_sized_census_matches_canonical_forms(p):
    # 998244353 < 2^31 scales in int64, but its genus-2 keys need Python integers
    mod = PrimeModulus(p)
    for box in (CubeBox(2, (0,) * 4, 3), CubeBox(2, (p - 9, 5, p - 7, 2), 3)):
        vectors = [CurveVector(2, v, mod) for v in box.vectors()]
        expect = Counter(canonical_representative(b).a for b in vectors if b.is_nonsingular())
        assert class_census(mod, box).class_sizes == dict(expect)


def test_censuses_of_interleaved_sides_come_back_in_input_order():
    # sides 3, 1, 3, 2, 1, 2: each side is keyed as one block, the side-1 box
    # twice, and every census returns to its box's place in the batch
    boxes = [CubeBox(2, (3, 1, 4, 1), 3), CubeBox(2, (5, 9, 2, 6), 1),
             CubeBox(2, (2, 7, 1, 8), 3), CubeBox(2, (2, 8, 1, 8), 2),
             CubeBox(2, (5, 9, 2, 6), 1), CubeBox(2, (0, 0, 0, 0), 2)]
    censuses = class_censuses(MOD31, boxes)
    assert [cen.box_size for cen in censuses] == [81, 1, 81, 16, 1, 16]
    for box, cen in zip(boxes, censuses):
        _assert_census_is(cen, walk_census(MOD31, box), box)


# p = 31, g = 2: entries of 8 bytes, _KEY_TEMPS = 3, and a (box, v0) row
# counts max(M^3, d/2 M) entries with d/2 = 5: 27 at side 3, 10 at side 2.
# Budget 1 keys one row per slice.  500 keys one row per slice at side 3
# and a whole box, two rows, at side 2.  2000 keys three rows, a whole box,
# per slice at side 3 and the side-2 box in one slice.
@pytest.mark.parametrize("budget", [1, 500, 2000])
def test_census_slices_do_not_change_the_result(monkeypatch, budget):
    boxes = [CubeBox(2, (3, 1, 4, 1), 3), CubeBox(2, (5, 9, 2, 6), 2), CubeBox(2, (3, 1, 4, 1), 3)]
    expect = [walk_census(MOD31, box) for box in boxes]
    monkeypatch.setattr(hyperelliptic, "_SLICE_BYTES", budget)
    for box, cen, walked in zip(boxes, class_censuses(MOD31, boxes), expect):
        _assert_census_is(cen, walked, box)


def _census_estimate(p, boxes):
    """The bytes the census guard reckons for a batch: its refusal message
    at a guard of 0."""
    with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError) as err:
        mp.setattr(ffield, "BYTE_GUARD", 0)
        class_censuses(PrimeModulus(p), boxes)
    return int(re.search(r"needs (\d+) bytes", str(err.value)).group(1))


def test_census_guard_counts_key_bytes(monkeypatch):
    # 90,000 cells, 41 bytes each at int64 (three key arrays, two int64
    # arrays, a bool mask) plus one slice; 8 + 44 bytes a key at
    # p = 2^61 - 1 (a pointer and a Python integer below p^2, shared by the
    # two copies)
    slab = hyperelliptic._SLICE_BYTES
    box = CubeBox(1, (0, 0), 300)
    assert _census_estimate(1009, [box]) == 90_000 * 41 + slab
    assert _census_estimate(BIG, [box]) == 90_000 * (52 + 33) + slab
    monkeypatch.setattr(ffield, "BYTE_GUARD", 90_000 * 41 + slab)
    assert class_census(PrimeModulus(1009), box).box_size == 90_000
    monkeypatch.setattr(ffield, "BYTE_GUARD", 90_000 * 41 + slab - 1)
    with pytest.raises(ValueError, match="guard"):
        class_census(PrimeModulus(1009), box)
    monkeypatch.setattr(ffield, "BYTE_GUARD", 90_000 * 85 + slab - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            class_census(PrimeModulus(BIG), box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert "90000 vectors" in message and f"{90_000 * 85 + slab} bytes" in message
    assert "\n" not in message
    assert peak < 1 << 20  # refused before anything is allocated


@pytest.mark.parametrize("p, g, M, boxes", [
    (1000003, 1, 300, 1),  # nearly every vector its own class: the dedupe peak
    (BIG, 1, 50, 1),  # Python-integer keys
    (1009, 2, 12, 3),  # a batch of equal boxes
])
def test_census_peak_stays_below_the_guard_estimate(monkeypatch, p, g, M, boxes):
    # small slices, so that the arrays of the batch's length set the peak
    monkeypatch.setattr(hyperelliptic, "_SLICE_BYTES", 1 << 16)
    batch = [CubeBox(g, tuple(range(1, 2 * g + 1)), M)] * boxes
    estimate = _census_estimate(p, batch)
    class_censuses(PrimeModulus(p), batch)  # warm every cache first
    tracemalloc.start()
    try:
        censuses = class_censuses(PrimeModulus(p), batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c.box_size for c in censuses) == boxes * M ** (2 * g)
    assert peak < estimate


def test_curve_count_peak_stays_below_three_and_a_half_int64_windows():
    # the join keeps one 4-byte key per x and per y, and beside them only
    # the two int64 vectors of one Horner pass: 3 x 8M bytes, against the
    # 4 x 8M of two sorted int64 value vectors
    p, M = 1000003, 200_000
    f = FpPolynomial.from_ints((3, 7, 0, 1), PrimeModulus(p))
    box = Box2(1000, 5000, M)
    expect = count_curve_points(f, box)
    tracemalloc.start()
    try:
        assert count_curve_points(f, box) == expect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * M


def test_census_above_the_guard_is_a_usage_error(capsys):
    # 1.44*10^8 vectors: their int64 keys alone take 1.15 GB, and the census
    # would hold about five such arrays at once
    with pytest.raises(SystemExit) as exc:
        cli.main(["curve-classes", "--p", "1000003", "--g", "1", "--M", "12000"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.strip().splitlines()[-1] == (
        f"smallbox: error: census of {12000 ** 2} vectors needs "
        f"{12000 ** 2 * 41 + hyperelliptic._SLICE_BYTES} bytes, above the guard of "
        f"{10 ** 9} bytes; sample smaller sub-boxes instead")


def test_keying_memory_stays_below_per_cell_candidates():
    # criterion 3's genus-2 batch: 504 cubes, 552,636 vectors at p = 31.
    # The peak of keying it cell by cell, in slices of (vectors, d/2, 2g)
    # candidates, was 12,949,363 bytes.
    cubes = []
    for M in range(1, 9):
        for i in range(63):
            rng = derived_rng(DEFAULT_SEED, f"c3-2-{M}", i)
            cubes.append(CubeBox(2, tuple(rng.randrange(31 - M) for _ in range(4)), M))
    tracemalloc.start()
    try:
        keys, offsets = hyperelliptic._packed_keys(cubes, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offsets[-1] == len(keys) == 552_636
    assert peak < 12_949_363


def test_censuses_reject_empty_and_mixed_batches():
    for boxes in ([], [CubeBox(1, (0, 0), 2), CubeBox(2, (0,) * 4, 2)]):
        with pytest.raises(ValueError) as err:
            class_censuses(MOD31, boxes)
        assert str(err.value) and "\n" not in str(err.value)


def test_large_census_keeps_its_classes_as_arrays():
    # 10^6 vectors, 964,530 classes: the tuple dict is built only when read
    tracemalloc.start()
    try:
        cen = class_census(PrimeModulus(10 ** 9 + 7), CubeBox(1, (0, 0), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20
    assert (cen.class_count, cen.total_nonsingular, cen.singular_count) == (964530, 10 ** 6, 0)
    sizes = cen.class_sizes
    assert len(sizes) == cen.class_count and sum(sizes.values()) == cen.total_nonsingular
    assert sum(n * n for n in sizes.values()) == cen.second_moment
    assert list(sizes) == sorted(sizes)
    # sha-256 of the sorted items, recorded from the masked lex-min keying
    # that packed keys replaced
    digest = hashlib.sha256(repr(sorted(sizes.items())).encode()).hexdigest()
    assert digest == "ce3f9ce50713c0e72679532f5c52cfbff1609ac76003eaee4cf13ed1a228636e"
    # every class size is its orbit count in the box, on a sample of keys
    mod, box = PrimeModulus(10 ** 9 + 7), CubeBox(1, (0, 0), 1000)
    for key in random.Random(28).sample(list(sizes), 20):
        b = CurveVector(1, key, mod)
        assert canonical_representative(b).a == key
        assert count_isomorphic_in_box(b, box) == sizes[key]


# the 2-adic and odd parts of p-1 differ: 2^31-1 = 2 * 3^2 * 7 * 11 * 31 *
# 151 * 331 + 1 runs in int64, 2^61-1 on Python integers
@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1])
def test_orbit_memory_does_not_depend_on_p(p):
    rng = random.Random(p)
    mod = PrimeModulus(p)
    tracemalloc.start()
    try:
        for g in (1, 2):
            b = CurveVector(g, tuple(rng.randrange(1, p) for _ in range(2 * g)), mod)
            a = apply_scaling(b, rng.randrange(2, p))
            assert isomorphism_scalars(a, b)
            assert canonical_representative(a) == canonical_representative(b)
            box = CubeBox(g, tuple(c - 250 for c in a.a), 500)  # a sits inside
            assert count_isomorphic_in_box(b, box) >= 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an O(p) power table would be 34 GB here
    assert peak < 4 << 20


def test_large_p_census_reports_against_min_p_M2():
    p, M = 10 ** 9 + 7, 200
    rec, = harness.run(harness.ExperimentSpec(
        "census", {"p": p, "g": 1, "M": M, "R": [123_456_789, 987_654_321]}))
    assert rec.bound_value == min(p, M * M)
    assert rec.passed
    # M^2 << p: almost every vector is its own class
    assert 0.9 * M * M < rec.value <= rec.bound_value


def _scalar_nonsingular(row, p):
    return discriminant(FpPolynomial(tuple(row) + (0, 1), PrimeModulus(p))) != 0


def _repeated_root_row(r, q_low, p):
    """(a_0, ..., a_(2g-1)) of (X - r)^2 q(X) with q monic of degree 2g-1 and
    its X^(2g-2) coefficient 2r, which cancels the X^(2g) term."""
    q = list(q_low) + [2 * r % p, 1]
    f = [0] * (len(q) + 2)
    for i, c in enumerate(q):
        for j, s in enumerate((r * r, -2 * r, 1)):
            f[i + j] = (f[i + j] + c * s) % p
    if f[-2] != 0:
        raise AssertionError("X^(2g) term did not cancel")
    return tuple(f[:-2])


@st.composite
def weierstrass_rows(draw):
    """(p, g, rows): random, zero and repeated-root coefficient rows, at
    primes that divide 2g+1 for some g, a mid prime and one above 2^31."""
    p = draw(st.sampled_from((3, 5, 7, 31, 1009, BIG)))
    g = draw(st.sampled_from((1, 2, 3)))
    residue = st.integers(0, p - 1)
    rows, repeated = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "zero", "repeated")))
        if kind == "random":
            rows.append(tuple(draw(residue) for _ in range(2 * g)))
        elif kind == "zero":
            rows.append((0,) * (2 * g))
        else:
            repeated.append(len(rows))
            rows.append(_repeated_root_row(
                draw(residue), [draw(residue) for _ in range(2 * g - 2)], p))
    return p, g, rows, repeated


@settings(max_examples=80, deadline=None)
@given(weierstrass_rows())
def test_singularity_filter_matches_discriminants(case):
    p, g, rows, repeated = case
    mask = nonsingular_mask(np.array(rows, dtype=object), p).tolist()
    assert mask == [_scalar_nonsingular(r, p) for r in rows]
    x = sympy.Symbol("x")
    assert mask == [sympy.discriminant(sympy.Poly((1, 0) + r[::-1], x)) % p != 0
                    for r in rows]
    assert not any(mask[i] for i in repeated)
    if p < BIG:  # int64 input takes the same path as object input
        assert nonsingular_mask(np.array(rows, dtype=np.int64), p).tolist() == mask


@pytest.mark.parametrize("p, g", [(3, 1), (5, 2), (7, 1), (11, 1), (3, 2)])
def test_singularity_filter_exhaustive(p, g):
    # p = 2g+1 (f' loses its X^(2g) term) and neighbours, every vector.  The
    # Bezout entry (0, 0) is a_1^2 - 2 a_0 a_2 (a_1^2 at g = 1), so a row such
    # as (1, 0) at p = 7, g = 1 (nonsingular) pivots column 0 on a lower row
    rows = list(itertools.product(range(p), repeat=2 * g))
    mask = nonsingular_mask(np.array(rows, dtype=np.int64), p).tolist()
    assert mask == [_scalar_nonsingular(r, p) for r in rows]


def test_singularity_filter_genus3_at_7():
    rng = random.Random(27)
    rows = [tuple(rng.randrange(7) for _ in range(6)) for _ in range(400)]
    rows += [_repeated_root_row(rng.randrange(7), [rng.randrange(7) for _ in range(4)], 7)
             for _ in range(50)]
    mask = nonsingular_mask(np.array(rows, dtype=np.int64), 7).tolist()
    assert mask == [_scalar_nonsingular(r, 7) for r in rows]
    assert not any(mask[400:])


def test_census_counts_singular_separately():
    # a = (0, 0) cells are singular for g = 1 boxes containing them
    box = CubeBox(g=1, R=(0, 0), M=4)
    cen = class_census(PrimeModulus(11), box)
    scan = sum(1 for v in box.vectors()
               if not CurveVector(g=1, a=v, modulus=PrimeModulus(11)).is_nonsingular())
    assert cen.singular_count == scan > 0


def test_sharpness_witness_frozen_values():
    rep = sharpness_witness(PrimeModulus(11), 8, 1)
    ones = CurveVector(1, (1, 1), PrimeModulus(11))  # the witness curve
    assert rep.isomorphic_count == count_isomorphic_in_box(ones, CubeBox(1, (0, 0), 8))
    assert rep.residue_count == 1
    assert rep.witness_count == 2 * rep.residue_count
    assert rep.isomorphic_count == 3
    assert rep.attained
    wide = sharpness_witness(PrimeModulus(11), 10, 1)
    assert wide.isomorphic_count == 5
    assert wide.attained


def test_sharpness_witness_counts_residues_by_euler():
    # #Q counted here by Euler's criterion, not by the square roots the
    # witness takes; the witness holds the two roots of each residue
    rng = random.Random(27)
    seen = set()
    for _ in range(60):
        p = rng.choice((11, 101, 1009, 10007, 100003))
        g = rng.randint(1, 3)
        M = rng.randint(1, min(p - 1, 20000))
        lim = max(q for q in range(1, 30) if q ** (2 * g + 1) <= M)
        residues = sum(pow(q, (p - 1) // 2, p) == 1 for q in range(1, lim + 1))
        rep = sharpness_witness(PrimeModulus(p), M, g)
        assert (rep.residue_count, rep.witness_count) == (residues, 2 * residues)
        seen.add(residues)
    assert len(seen) >= 6


def test_power_congruence_reduction():
    rng = random.Random(26)
    mod = PrimeModulus(101)
    trials = 0
    while trials < 25:
        g = rng.randint(1, 2)
        h = rng.choice([h for h in range(2, 2 * g + 2)])
        b = random_vector(rng, mod, g)
        if not b.is_nonsingular() or b.a[2 * g - 1] == 0 or b.a[2 * g + 1 - h] == 0:
            continue
        trials += 1
        M = rng.randint(3, 8)
        box = CubeBox(g=g, R=tuple(rng.randint(0, 101 - M - 1)
                                   for _ in range(2 * g)), M=M)
        pc = reduce_to_power_congruence(b, h, box)
        assert pc.reduced_index == 2 * g + 1 - h
        lam = pc.multiplier
        brute = sum(1
                    for x in range(pc.x_offset + 1, pc.x_offset + M + 1)
                    for y in range(pc.y_offset + 1, pc.y_offset + M + 1)
                    if pow(y, h, 101) == lam * x * x % 101)
        assert pc.solution_count == brute
        # the congruence dominates the orbit count inside the box
        assert count_isomorphic_in_box(b, box) <= pc.solution_count


def test_power_congruence_rejects_zero_coordinates():
    b = CurveVector(g=1, a=(5, 0), modulus=MOD31)
    with pytest.raises(ValueError):
        reduce_to_power_congruence(b, 3, CubeBox(g=1, R=(0, 0), M=4))


def test_bound_N_branches():
    odd = bound_N(50, 10 ** 6 + 3, 1, h=3, eps=0.05)
    expect = (50 ** (1 / 3) + 50 * (50 ** 4 / (10 ** 6 + 3)) ** (1 / 6)) * 50 ** 0.05
    assert odd.value == pytest.approx(expect)
    assert odd.regime == "odd-exponent h=3"
    genus2 = bound_N(50, 10 ** 6 + 3, 2)
    assert genus2.value == pytest.approx(50 * 50 / (10 ** 6 + 3) + 50 ** 0.55)
    assert genus2.regime == "genus>=2"
    both = bound_N(50, 10 ** 6 + 3, 2, h=5)
    assert both.value == pytest.approx(min(
        genus2.value,
        (50 ** (1 / 5) + 50 * (50 ** 4 / (10 ** 6 + 3)) ** (1 / 15)) * 50 ** 0.05))
    with pytest.raises(ValueError):
        bound_N(50, 101, 1)  # no branch: g = 1 needs an odd h
