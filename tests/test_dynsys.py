"""Trajectory statistics of polynomial iteration: the scalar walk, the
lockstep walk of many orbits (checked lane by lane against the scalar one),
the shared certificate that proves both, the byte guard of each walk,
diameters and the pair count read off either walk (checked against a
test-local walk, also past the first repeat), and the lower-bound shape."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallbox import cli, dynsys, ffield
from smallbox.boxcount import Box2, count_graph_points
from smallbox.dynsys import (
    bound_diameter,
    diameter,
    pairs_in_box,
    trajectory_length,
    trajectory_lengths,
)
from smallbox.ffield import FpPolynomial, PrimeModulus, residue_dtype


def _walk(f, u0, N):
    """u_0, ..., u_(N-1), each step sum(c_j u^j) mod p: not
    FpPolynomial.__call__, which the certified walk steps by."""
    p = f.modulus.p
    u, vals = u0 % p, []
    for _ in range(N):
        vals.append(u)
        u = sum(c * pow(u, j, p) for j, c in enumerate(f.coeffs)) % p
    return vals


def _walk_pairs(f, u0, N, box):
    """The steps n < N whose edge (u_n, u_(n+1)) lies in the box, by `_walk`."""
    vals = _walk(f, u0, N + 1)
    return sum(1 for n in range(N)
               if box.R < vals[n] <= box.R + box.M and box.S < vals[n + 1] <= box.S + box.M)


def test_trajectory_length_frozen_example():
    mod = PrimeModulus(10007)
    f = FpPolynomial.from_text("1,0,1", mod)
    traj = trajectory_length(f, 3)
    assert (traj.tail_length, traj.cycle_length) == (3, 186)
    assert traj.total_length == 189
    assert len(traj.values) == 189
    # the repeat closes exactly onto the start of the cycle
    assert f(traj.values[-1]) == traj.values[traj.tail_length]


def test_trajectory_properties_randomized():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((101, 1009, 10007))
        mod = PrimeModulus(p)
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 4))]
        coeffs.append(rng.randrange(1, p))
        f = FpPolynomial.from_ints(coeffs, mod)
        traj = trajectory_length(f, rng.randrange(p))
        T = traj.total_length
        assert 1 <= T <= p
        assert len(set(traj.values)) == T  # pre-period values are distinct
        assert f(traj.values[-1]) == traj.values[traj.tail_length]


def test_trajectory_length_makes_its_own_walk(monkeypatch):
    # the stored values come from one seen-set walk, not the lockstep walk
    scans = [0]
    seen_scan = dynsys._seen_scan

    def counted(*args):
        scans[0] += 1
        return seen_scan(*args)

    def no_lockstep(*args):
        raise AssertionError("the lockstep walk ran")
    monkeypatch.setattr(dynsys, "_seen_scan", counted)
    monkeypatch.setattr(dynsys, "_lockstep_scan", no_lockstep)
    f = FpPolynomial.from_text("1,0,1", PrimeModulus(10007))
    traj = trajectory_length(f, 3)
    assert (traj.tail_length, traj.cycle_length, len(traj.values)) == (3, 186, 189)
    assert scans[0] == 1


def test_trajectory_length_makes_T_scalar_evaluations(monkeypatch):
    # one scalar walk: the certificate evaluates f on the vector kernel
    calls = [0]
    horner = FpPolynomial.__call__

    def counted(self, x):
        calls[0] += 1
        return horner(self, x)
    monkeypatch.setattr(FpPolynomial, "__call__", counted)
    rng = random.Random(35)
    for p in (101, 10007, 10 ** 9 + 7):
        f = FpPolynomial.from_ints([rng.randrange(p) for _ in range(3)] + [1],
                                   PrimeModulus(p))
        calls[0] = 0
        T = trajectory_length(f, rng.randrange(p)).total_length
        assert calls[0] == T


def _bad_walks(traj: dynsys.Trajectory, p: int) -> list[dynsys.Trajectory]:
    """Four walks that break one clause of the certificate each."""
    vals, s, c = traj.values, traj.tail_length, traj.cycle_length
    corrupted = list(vals)
    corrupted[s + c // 2] = (corrupted[s + c // 2] + 1) % p
    return [
        dynsys.Trajectory(vals, s + 1, c - 1, p),  # wrong tail: only the closing step breaks
        dynsys.Trajectory(tuple(corrupted), s, c, p),  # one value off
        dynsys.Trajectory(vals + vals[s:], s, 2 * c, p),  # every step holds, values repeat
        dynsys.Trajectory(vals[1:], s - 1, c, p),  # the orbit of f(u0), not of u0
    ]


def _as_scan(trajs, p):
    """The (values, lengths, tails) arrays `_lockstep_scan` returns."""
    vals = np.array([v for t in trajs for v in t.values], dtype=residue_dtype(p))
    return (vals, np.array([len(t.values) for t in trajs]),
            np.array([t.tail_length for t in trajs]))


def test_certificate_checks_the_walk_at_large_p(monkeypatch):
    # T = 61,489 on int64 vectors, and above 2^31 on dtype object vectors
    for p, u0, lengths in ((10 ** 9 + 7, 3, (33916, 27573)),
                           (2 ** 31 + 11, 34, (3371, 12460))):
        mod = PrimeModulus(p)
        f = FpPolynomial.from_text("1,0,1", mod)
        traj = trajectory_length(f, u0)
        assert (traj.tail_length, traj.cycle_length) == lengths
        # the lockstep walk finds the same orbit beside two short ones
        fs = [FpPolynomial.from_text("5", mod), f, FpPolynomial.from_text("0,1", mod)]
        u0s = [7, u0 + p, -1]
        trajs = trajectory_lengths(fs, u0s)
        assert trajs == [trajectory_length(g, v) for g, v in zip(fs, u0s)]
        assert trajs[1] == traj
        for bad in _bad_walks(traj, p):
            with monkeypatch.context() as m:
                m.setattr(dynsys, "_seen_scan", lambda f, u0: bad)
                with pytest.raises(RuntimeError, match="certificate"):
                    trajectory_length(f, u0)
            scan = _as_scan([trajs[0], bad, trajs[2]], p)
            with monkeypatch.context() as m:
                m.setattr(dynsys, "_lockstep_scan", lambda coeffs, u0s, p: scan)
                with pytest.raises(RuntimeError, match="certificate"):
                    trajectory_lengths(fs, u0s)


def test_certificate_catches_a_corrupted_lockstep_step(monkeypatch):
    # the walk steps by Horner, the certificate by ascending powers: one
    # value off mid-walk in one lane is caught
    mod = PrimeModulus(1009)
    rng = random.Random(36)
    fs = [FpPolynomial.from_ints([rng.randrange(1009) for _ in range(4)], mod)
          for _ in range(6)]
    u0s = [rng.randrange(1009) for _ in fs]
    assert trajectory_lengths(fs, u0s) == [trajectory_length(f, u) for f, u in zip(fs, u0s)]
    scan = dynsys._lockstep_scan

    def off_once(coeffs, u0s, p):
        vals, lengths, tails = scan(coeffs, u0s, p)
        assert lengths[3] > 2
        mid = int(lengths[:3].sum() + lengths[3] // 2)
        vals[mid] = (vals[mid] + 1) % p
        return vals, lengths, tails
    monkeypatch.setattr(dynsys, "_lockstep_scan", off_once)
    with pytest.raises(RuntimeError, match="certificate"):
        trajectory_lengths(fs, u0s)


def _mixed_lanes(rng, p, n):
    """n lanes at p: degrees 1 to 4 with a zero and a constant polynomial
    among them, starts below 0 and at or above p."""
    mod = PrimeModulus(p)
    fs = [FpPolynomial.from_ints([], mod), FpPolynomial.from_ints([rng.randrange(1, p)], mod)]
    fs += [FpPolynomial.from_ints([rng.randrange(p) for _ in range(rng.randint(2, 5))], mod)
           for _ in range(n - 2)]
    rng.shuffle(fs)
    return fs, [rng.randrange(-2 * p, 3 * p) for _ in fs]


def test_lockstep_matches_the_scalar_walk_lane_by_lane():
    rng = random.Random(37)
    for p, n in ((101, 200), (1009, 120), (10007, 60)):
        fs, u0s = _mixed_lanes(rng, p, n)
        assert min(u0s) < 0 and max(u0s) >= p
        assert len({f.degree for f in fs}) >= 4
        assert trajectory_lengths(fs, u0s) == [trajectory_length(f, u) for f, u in zip(fs, u0s)]
        # a single lane, and the same lanes from an iterator
        assert trajectory_lengths(fs[:1], u0s[:1]) == [trajectory_length(fs[0], u0s[0])]
        assert trajectory_lengths(iter(fs), iter(u0s)) == trajectory_lengths(fs, u0s)


def _swap(a, b, h, p):
    """Coefficients of a + b - x + (x - a)(x - b) h(x) mod p, dense of
    degree len(h) + 1, which sends a to b and b to a."""
    out = [a + b, -1] + [0] * len(h)
    for i, c in enumerate(h):
        for j, q in enumerate((a * b, -a - b, 1)):
            out[i + j] += c * q
    return [c % p for c in out]


def test_lockstep_on_python_integers_above_2_31():
    # at 2^61 - 1 a product of two residues passes 2^63 as well
    for p, base in ((2 ** 31 + 11, 3), (2 ** 61 - 1, 7)):
        mod = PrimeModulus(p)
        c = pow(base, (p - 1) // 6, p)  # of multiplicative order 6
        assert pow(c, 2, p) != 1 and pow(c, 3, p) != 1
        rng = random.Random(p)
        a, b = rng.randrange(p), rng.randrange(p)
        fs = [FpPolynomial.from_ints(cs, mod)
              for cs in ([], [8], [0, 1], [0, p - 1], [0, c], [0, 0, 1], [0, 0, 0, 1],
                         [0, 0, 0, 0, 1], _swap(a, b, [rng.randrange(p) for _ in range(4)], p))]
        u0s = [5, -3, 2 * p + 9, 12, 10 ** 12, p - 1, c, c, a]
        trajs = trajectory_lengths(fs, u0s)
        assert trajs == [trajectory_length(f, u) for f, u in zip(fs, u0s)]
        assert [t.total_length for t in trajs] == [2, 2, 1, 2, 6, 2, 2, 2, 2]
        assert fs[-1].degree == 5 and trajs[-1].values == (a, b)
        assert all(type(v) is int for t in trajs for v in t.values)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 31, 101, 1009)),
       st.lists(st.tuples(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5),
                          st.integers(-10 ** 6, 10 ** 6)), min_size=1, max_size=8))
def test_lockstep_is_the_scalar_walk(p, lanes):
    mod = PrimeModulus(p)
    fs = [FpPolynomial.from_ints(cs, mod) for cs, _ in lanes]
    u0s = [u for _, u in lanes]
    assert trajectory_lengths(fs, u0s) == [trajectory_length(f, u) for f, u in zip(fs, u0s)]


def test_lockstep_rejects_bad_input():
    f = FpPolynomial.from_text("1,0,1", PrimeModulus(101))
    g = FpPolynomial.from_text("1,0,1", PrimeModulus(103))
    with pytest.raises(ValueError, match="mixed moduli"):
        trajectory_lengths([f, g], [1, 2])
    with pytest.raises(ValueError):
        trajectory_lengths([], [])
    with pytest.raises(ValueError):
        trajectory_lengths([f, f], [1])


def test_lockstep_byte_guard_counts_the_matrix(monkeypatch):
    # x^2 + 1 from 3 mod 10007 has T = 189: matrices of 64, 128 and 256
    # columns, each entry 8 bytes plus the sort's three 8-byte entries
    f = FpPolynomial.from_text("1,0,1", PrimeModulus(10007))
    monkeypatch.setattr(ffield, "BYTE_GUARD", 256 * 32)
    assert trajectory_lengths([f], [3])[0].total_length == 189
    monkeypatch.setattr(ffield, "BYTE_GUARD", 256 * 32 - 1)
    with pytest.raises(ValueError, match="guard"):
        trajectory_lengths([f], [3])
    monkeypatch.setattr(ffield, "BYTE_GUARD", 2 * 64 * 32 - 1)
    with pytest.raises(ValueError, match="guard"):
        trajectory_lengths([f, f], [3, 4])


def test_single_walk_byte_guard_counts_each_value(monkeypatch):
    # each stored value costs its int, its index int and a dict slot
    f = FpPolynomial.from_text("1,0,1", PrimeModulus(10007))
    per_value = 2 * sys.getsizeof(10006) + dynsys._DICT_SLOT_BYTES
    monkeypatch.setattr(ffield, "BYTE_GUARD", 189 * per_value)
    assert trajectory_length(f, 3).total_length == 189
    monkeypatch.setattr(ffield, "BYTE_GUARD", 189 * per_value - 1)
    with pytest.raises(ValueError, match="guard"):
        trajectory_length(f, 3)


def test_huge_orbit_is_a_usage_error(monkeypatch, capsys):
    # at p = 2^61 - 1 an orbit has about 2*10^9 values; the walk stops at the
    # guard (small here) instead of growing its dict until the process dies
    monkeypatch.setattr(ffield, "BYTE_GUARD", 10 ** 5)
    with pytest.raises(SystemExit) as exc:
        cli.main(["dynsys", "--p", str(2 ** 61 - 1), "--f", "1,0,1", "--u0", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err and out == ""
    assert err.strip().splitlines()[-1] == (
        f"smallbox: error: orbit of 3 mod {2 ** 61 - 1} has over 781 values, "
        "above the guard of 100000 bytes")


def test_diameter_is_max_minus_min():
    mod = PrimeModulus(10007)
    f = FpPolynomial.from_text("1,0,1", mod)
    traj = trajectory_length(f, 3)
    assert diameter(traj, 50) == 9837
    rng = random.Random(32)
    for _ in range(50):
        N = rng.randint(1, 80)
        u0 = rng.randrange(10007)
        vals = _walk(f, u0, N)
        assert diameter(trajectory_length(f, u0), N) == max(vals) - min(vals)
    with pytest.raises(ValueError, match="N >= 1 required"):
        diameter(traj, 0)


def test_bound_diameter_shape():
    assert bound_diameter(100, 10007, 2) == pytest.approx(
        min((100 * 10007) ** 0.5, 100 ** 2.0))
    assert bound_diameter(100, 10007, 3, eps=0.1) == pytest.approx(
        min((100 * 10007) ** 0.5, 100 ** (4 / 3) * 10007 ** -0.1))
    with pytest.raises(ValueError):
        bound_diameter(0, 101, 2)
    with pytest.raises(ValueError):
        bound_diameter(10, 101, 1)


def test_pairs_in_box_matches_direct_scan():
    mod = PrimeModulus(1009)
    rng = random.Random(33)
    for _ in range(30):
        f = FpPolynomial.from_ints(
            [rng.randrange(1009) for _ in range(3)] + [rng.randrange(1, 1009)],
            mod)
        u0 = rng.randrange(1009)
        N = rng.randint(1, 60)
        M = rng.randint(1, 400)
        box = Box2(R=rng.randint(0, 1008 - M), S=rng.randint(0, 1008 - M), M=M)
        assert pairs_in_box(trajectory_length(f, u0), N, box) == _walk_pairs(f, u0, N, box)


def test_diameter_and_pairs_past_the_first_repeat():
    # N up to 3T: pairs_in_box steps from index T-1 back to the tail, and
    # diameter slices past T; T is the number of distinct values the
    # test-local walk meets in p + 1 steps.  Both readers take the walk of
    # either walker.
    rng = random.Random(38)
    past = cycle_edges = 0
    for _ in range(150):
        p = rng.choice((31, 101, 1009))
        f = FpPolynomial.from_ints([rng.randrange(p) for _ in range(rng.randint(1, 3))]
                                   + [rng.randrange(1, p)], PrimeModulus(p))
        u0 = rng.randrange(p)
        T = len(set(_walk(f, u0, p + 1)))
        N = rng.randint(1, 3 * T)
        M = rng.randint(1, p - 1)
        box = Box2(R=rng.randrange(p - M), S=rng.randrange(p - M), M=M)
        vals = _walk(f, u0, N)
        pairs = _walk_pairs(f, u0, N, box)
        for traj in (trajectory_length(f, u0), trajectory_lengths([f], [u0])[0]):
            assert traj.p == p
            assert diameter(traj, N) == max(vals) - min(vals)
            assert pairs_in_box(traj, N, box) == pairs
        if N > T:
            past += 1
            cycle_edges += pairs > _walk_pairs(f, u0, T, box)
    assert past > 80 and cycle_edges > 40
    with pytest.raises(ValueError, match="N >= 1 required"):
        pairs_in_box(traj, 0, box)
    with pytest.raises(ValueError, match="exceeds"):  # the walk's own modulus bounds the box
        pairs_in_box(traj, 1, Box2(R=traj.p - 1, S=0, M=1))


def test_pairs_bounded_by_graph_count_before_repeat():
    # while n < T the points (u_n, u_(n+1)) are distinct points on the
    # graph of f, so the box pair count cannot exceed the graph box count
    mod = PrimeModulus(1009)
    rng = random.Random(34)
    for _ in range(40):
        f = FpPolynomial.from_ints(
            [rng.randrange(1009) for _ in range(2)] + [rng.randrange(1, 1009)],
            mod)
        u0 = rng.randrange(1009)
        traj = trajectory_length(f, u0)
        N = rng.randint(1, traj.total_length)
        M = rng.randint(50, 500)
        box = Box2(R=rng.randint(0, 1008 - M), S=rng.randint(0, 1008 - M), M=M)
        assert pairs_in_box(traj, N, box) <= count_graph_points(f, box)
