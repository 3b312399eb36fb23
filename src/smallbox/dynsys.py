"""Polynomial iteration u_n = f(u_(n-1)) over F_p: trajectories, the full
trajectory length T (first repeat time, split into tail and cycle), the
trajectory diameter over the first N terms, and the matching lower-bound
evaluator."""

from __future__ import annotations

from dataclasses import dataclass

from .boxcount import Box2
from .ffield import FpPolynomial


@dataclass(frozen=True)
class Trajectory:
    values: tuple[int, ...]  # u_0, ..., u_(T-1), pairwise distinct
    tail_length: int
    cycle_length: int

    @property
    def total_length(self) -> int:
        """T: the smallest t with u_t = u_s for some s < t."""
        return self.tail_length + self.cycle_length


def iterate(f: FpPolynomial, u0: int, N: int) -> tuple[int, ...]:
    """First N values u_0, ..., u_(N-1) of the iteration."""
    if N < 1:
        raise ValueError("N >= 1 required")
    p = f.modulus.p
    u = u0 % p
    vals = [u]
    for _ in range(N - 1):
        u = f(u)
        vals.append(u)
    return tuple(vals)


def _brent(f: FpPolynomial, u0: int) -> tuple[int, int]:
    """Tail and cycle length by Brent's power-of-two race."""
    power = lam = 1
    tortoise, hare = u0, f(u0)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = f(hare)
        lam += 1
    tortoise = hare = u0
    for _ in range(lam):
        hare = f(hare)
    mu = 0
    while tortoise != hare:
        tortoise, hare = f(tortoise), f(hare)
        mu += 1
    return mu, lam


def _seen_scan(f: FpPolynomial, u0: int) -> Trajectory:
    """Walk until the first repeat, keeping each value's index; the dict's
    insertion order is the trajectory itself."""
    seen: dict[int, int] = {}
    u, n = u0, 0
    while u not in seen:
        seen[u] = n
        u = f(u)
        n += 1
    s = seen[u]
    return Trajectory(tuple(seen), s, n - s)


def trajectory_length(f: FpPolynomial, u0: int) -> Trajectory:
    """Resolve T for the orbit of u0: the values up to the first repeat plus
    (tail_length, cycle_length) with T = tail + cycle.

    One walk with a seen-set stores the values and finds the first repeat;
    Brent's algorithm, in O(T) evaluations and O(1) memory, recomputes the
    two lengths, and the two must agree exactly.
    """
    u0 %= f.modulus.p
    traj = _seen_scan(f, u0)
    if _brent(f, u0) != (traj.tail_length, traj.cycle_length):
        raise RuntimeError("cycle detection mismatch between methods")
    return traj


def diameter(f: FpPolynomial, u0: int, N: int) -> int:
    """D(N) = max - min of the first N values, as plain integers in [0, p-1].

    Distance is the ordinary one on the integer segment, no wrap-around.
    """
    vals = iterate(f, u0, N)
    return max(vals) - min(vals)


def bound_diameter(N: int, p: int, m: int, eps: float = 0.0) -> float:
    """Lower-bound shape min{(Np)^(1/2), N^(1+1/(2^(m-1)-1)) p^(-eps)} for the
    diameter of an orbit of length N under a degree-m map.

    The implied constant is absorbed by ratio reporting downstream.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    if m < 2:
        raise ValueError("degree m >= 2 required")
    return min((N * p) ** 0.5, N ** (1 + 1 / (2 ** (m - 1) - 1)) * p ** (-eps))


def pairs_in_box(f: FpPolynomial, u0: int, N: int, box: Box2) -> int:
    """Number of steps n < N whose edge (u_n, u_(n+1)) lies in the box.

    For N <= T the values u_0, ..., u_(N-1) are pairwise distinct, so this
    is dominated by the count of box points on the graph y = f(x).
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    box.validate_for(f.modulus.p)
    vals = iterate(f, u0, N + 1)
    lo_x, hi_x = box.R + 1, box.R + box.M
    lo_y, hi_y = box.S + 1, box.S + box.M
    return sum(1 for n in range(N)
               if lo_x <= vals[n] <= hi_x and lo_y <= vals[n + 1] <= hi_y)
