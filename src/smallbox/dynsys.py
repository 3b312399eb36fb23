"""Polynomial iteration u_n = f(u_(n-1)) over F_p: trajectories, the full
trajectory length T (first repeat time, split into tail and cycle), the
trajectory diameter over the first N terms, and the matching lower-bound
evaluator.  Each orbit is walked once, by scalar steps, and that stored walk
is proved by the vector kernel `ffield.poly_values`, a separate evaluator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxcount import Box2
from .ffield import FpPolynomial, poly_values, residue_dtype


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

    One walk with a seen-set stores the values and finds the first repeat,
    in T scalar evaluations.  One `poly_values` pass then re-evaluates f on
    every stored value: the walk starts at u0, each image is the next value,
    the last image is the value at tail_length, and the values are pairwise
    distinct.  Together these prove T, tail and cycle; RuntimeError otherwise.
    """
    p = f.modulus.p
    u0 %= p
    traj = _seen_scan(f, u0)
    vals, tail = np.asarray(traj.values, dtype=residue_dtype(p)), traj.tail_length
    images = poly_values(f.coeffs, vals, p)
    ordered = np.sort(vals)
    if not (vals[0] == u0 and 0 <= tail < len(vals) == traj.total_length
            and (images[:-1] == vals[1:]).all() and images[-1] == vals[tail]
            and (ordered[1:] != ordered[:-1]).all()):
        raise RuntimeError(f"orbit of {u0} mod {p} fails its certificate")
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
