"""Trajectory statistics of polynomial iteration: the single walk and the
vector certificate that proves it, diameters, the pair count, and the
lower-bound shape."""

import random

import pytest

from smallbox import dynsys
from smallbox.boxcount import Box2, count_graph_points
from smallbox.dynsys import (
    bound_diameter,
    diameter,
    iterate,
    pairs_in_box,
    trajectory_length,
)
from smallbox.ffield import FpPolynomial, PrimeModulus


def test_iterate_prefix_and_values():
    mod = PrimeModulus(101)
    f = FpPolynomial.from_text("1,0,1", mod)  # x^2 + 1
    vals = [3]
    for _ in range(5):
        vals.append((vals[-1] ** 2 + 1) % 101)
    assert iterate(f, 3, 6) == tuple(vals)
    assert iterate(f, 3 + 101, 1) == (3,)
    with pytest.raises(ValueError):
        iterate(f, 3, 0)


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
    # the stored values come from the seen-set walk, not a separate pass
    def no_iterate(*args):
        raise AssertionError("iterate called")
    monkeypatch.setattr(dynsys, "iterate", no_iterate)
    f = FpPolynomial.from_text("1,0,1", PrimeModulus(10007))
    traj = trajectory_length(f, 3)
    assert (traj.tail_length, traj.cycle_length, len(traj.values)) == (3, 186, 189)


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


def test_certificate_checks_the_walk_at_large_p(monkeypatch):
    # T = 61,489 on int64 vectors, and above 2^31 on dtype object vectors
    for p, u0, lengths in ((10 ** 9 + 7, 3, (33916, 27573)),
                           (2 ** 31 + 11, 34, (3371, 12460))):
        f = FpPolynomial.from_text("1,0,1", PrimeModulus(p))
        traj = trajectory_length(f, u0)
        assert (traj.tail_length, traj.cycle_length) == lengths
        vals, s, c = traj.values, traj.tail_length, traj.cycle_length
        corrupted = list(vals)
        corrupted[s + c // 2] = (corrupted[s + c // 2] + 1) % p
        bad_walks = [
            dynsys.Trajectory(vals, s + 1, c - 1),  # wrong tail: only the closing step breaks
            dynsys.Trajectory(tuple(corrupted), s, c),  # one value off
            dynsys.Trajectory(vals + vals[s:], s, 2 * c),  # every step holds, values repeat
            dynsys.Trajectory(vals[1:], s - 1, c),  # the orbit of f(u0), not of u0
        ]
        for bad in bad_walks:
            with monkeypatch.context() as m:
                m.setattr(dynsys, "_seen_scan", lambda f, u0: bad)
                with pytest.raises(RuntimeError, match="certificate"):
                    trajectory_length(f, u0)


def test_diameter_is_max_minus_min():
    mod = PrimeModulus(10007)
    f = FpPolynomial.from_text("1,0,1", mod)
    assert diameter(f, 3, 50) == 9837
    rng = random.Random(32)
    for _ in range(50):
        N = rng.randint(1, 80)
        u0 = rng.randrange(10007)
        vals = iterate(f, u0, N)
        assert diameter(f, u0, N) == max(vals) - min(vals)


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
        vals = iterate(f, u0, N + 1)
        expect = sum(1 for n in range(N)
                     if box.R + 1 <= vals[n] <= box.R + M
                     and box.S + 1 <= vals[n + 1] <= box.S + M)
        assert pairs_in_box(f, u0, N, box) == expect


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
        T = trajectory_length(f, u0).total_length
        N = rng.randint(1, T)
        M = rng.randint(50, 500)
        box = Box2(R=rng.randint(0, 1008 - M), S=rng.randint(0, 1008 - M), M=M)
        assert pairs_in_box(f, u0, N, box) <= count_graph_points(f, box).count
