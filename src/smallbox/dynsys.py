"""Polynomial iteration u_n = f(u_(n-1)) over F_p: trajectories, the full
trajectory length T (first repeat time, split into tail and cycle), the
trajectory diameter over the first N terms, and the matching lower-bound
evaluator.

Two walkers find T.  `trajectory_length` walks one orbit by scalar Horner
steps with a seen-set, well under a millisecond for one orbit at p ~ 10^4;
`trajectory_lengths` walks many orbits over one modulus in lockstep, one
vector Horner step of every live lane by its own coefficients at a time,
which pays off only across many lanes (a single lane costs some ten
times the scalar walk).  Both walks are proved by one shared certificate
that evaluates f by ascending powers, a formula neither walker uses.  Each
walk is refused with ValueError before its stored values would pass
ffield.BYTE_GUARD bytes.  Diameters and box pair counts read a certified
`Trajectory` from either walker, which records its modulus p, so no third
walker steps f and a caller that already holds the walk pays no second one."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import ffield
from .boxcount import Box2
from .ffield import FpPolynomial, check_bytes, entry_bytes, residue_dtype

# the seen-set dict's own bytes per stored value at most (CPython 3.11: the
# entry's hash and two pointers, plus its share of the index table and of the
# free entries just after a resize), beside the value and index ints
_DICT_SLOT_BYTES = 56


@dataclass(frozen=True)
class Trajectory:
    values: tuple[int, ...]  # u_0, ..., u_(T-1), pairwise distinct
    tail_length: int
    cycle_length: int
    p: int  # the modulus of the walk

    @property
    def total_length(self) -> int:
        """T: the smallest t with u_t = u_s for some s < t."""
        return self.tail_length + self.cycle_length


def _seen_scan(f: FpPolynomial, u0: int) -> Trajectory:
    """Walk until the first repeat, keeping each value's index; the dict's
    insertion order is the trajectory itself.  Each stored value costs its
    int, its index int and a dict slot; the walk stops with ValueError
    before those pass ffield.BYTE_GUARD bytes."""
    p = f.modulus.p
    limit = ffield.BYTE_GUARD // (2 * sys.getsizeof(p - 1) + _DICT_SLOT_BYTES)
    seen: dict[int, int] = {}
    u, n = u0, 0
    while u not in seen:
        if n == limit:
            raise ValueError(f"orbit of {u0} mod {p} has over {limit} values, "
                             f"above the guard of {ffield.BYTE_GUARD} bytes")
        seen[u] = n
        u = f(u)
        n += 1
    s = seen[u]
    return Trajectory(tuple(seen), s, n - s, p)


def _coefficient_rows(fs: list[FpPolynomial], dtype) -> np.ndarray:
    """Shape (deg+1, lanes): row j holds c_j of every lane, zero above a
    lane's own degree; at least one row, so the zero polynomial is a row of 0."""
    width = max(1, *(len(f.coeffs) for f in fs))
    return np.array([f.coeffs + (0,) * (width - len(f.coeffs)) for f in fs],
                    dtype=dtype).T


def _ascending_values(coeffs: np.ndarray, lane: np.ndarray, xs: np.ndarray,
                      p: int) -> np.ndarray:
    """f_lane(x) mod p for each x of xs as the sum of c_j x^j, the powers
    kept by repeated multiplication: not Horner's formula, so neither walker
    is checked by its own evaluator."""
    terms = coeffs[:, lane]  # row j: c_j of each x's lane
    acc, power = terms[0], xs
    for j in range(1, len(terms)):
        if j > 1:
            power = power * xs % p
        terms[j] *= power
        terms[j] %= p
        acc += terms[j]  # deg+1 terms below p each: no int64 overflow
    return acc % p


def _certify(coeffs: np.ndarray, u0s: np.ndarray, vals: np.ndarray,
             lengths: np.ndarray, tails: np.ndarray, p: int) -> None:
    """Prove every lane's walk in one pass over the concatenated values:
    lane i's T_i = lengths[i] values start at u0s[i], each image under
    f_i is the next value, the last image is the value at tails[i], and the
    (lane, value) keys are pairwise distinct.  Together these prove T, tail
    and cycle of every lane; RuntimeError otherwise."""
    failed = RuntimeError(f"orbit walks mod {p} fail their certificate")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if ends[-1] != len(vals) or not ((0 <= tails) & (tails < lengths)).all():
        raise failed
    lane = np.repeat(np.arange(len(lengths)), lengths)
    successor = np.arange(1, len(vals) + 1)  # the index of the value each image must equal
    successor[ends - 1] = starts + tails
    keys = np.sort(lane.astype(vals.dtype) * p + vals)
    if not ((vals[starts] == u0s).all()
            and (_ascending_values(coeffs, lane, vals, p) == vals[successor]).all()
            and (keys[1:] != keys[:-1]).all()):
        raise failed


def trajectory_length(f: FpPolynomial, u0: int) -> Trajectory:
    """Resolve T for the orbit of u0: the values up to the first repeat plus
    (tail_length, cycle_length) with T = tail + cycle.

    One walk with a seen-set stores the values and finds the first repeat,
    in T scalar evaluations.  The shared certificate then re-evaluates f on
    every stored value by ascending powers: the walk starts at u0, each
    image is the next value, the last image is the value at tail_length,
    and the values are pairwise distinct.  Together these prove T, tail and
    cycle; RuntimeError otherwise.  ValueError when the stored walk would
    pass ffield.BYTE_GUARD bytes.
    """
    p = f.modulus.p
    u0 %= p
    traj = _seen_scan(f, u0)
    dtype = residue_dtype(p)
    _certify(_coefficient_rows([f], dtype), np.array([u0], dtype=dtype),
             np.asarray(traj.values, dtype=dtype), np.array([traj.total_length]),
             np.array([traj.tail_length]), p)
    return traj


def _lockstep_scan(coeffs: np.ndarray, u0s: np.ndarray,
                   p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every lane at once until each has repeated, and return the
    concatenated values u_0..u_(T-1) of every lane in input order, with the
    lengths T and the tails.

    The values go into a (lanes, K) matrix, K doubling from 64 (every lane
    has repeated once K > p), a column per Horner step of every live lane
    by its own row of coeffs.  At each doubling a stable row-wise argsort
    finds each lane's first repeat T and its tail; finished lanes leave.
    Before each matrix is allocated, its entries at their real size plus the
    sort's three 8-byte entries beside each are held to ffield.BYTE_GUARD;
    ValueError above it."""
    dtype, lanes = u0s.dtype, len(u0s)
    out: list = [None] * lanes
    lengths, tails = np.zeros(lanes, np.int64), np.zeros(lanes, np.int64)
    live, walked = np.arange(lanes), u0s[:, None]
    K = 64
    while live.size:
        check_bytes(f"a walk of {live.size} orbits of {K} values mod {p}",
                    live.size * K * (entry_bytes(dtype, p - 1) + 24))
        walk = np.empty((live.size, K), dtype=dtype)
        walk[:, :walked.shape[1]] = walked
        for j in range(walked.shape[1], K):
            u, acc = walk[:, j - 1], coeffs[-1].copy()
            for c in coeffs[-2::-1]:  # acc*u + c < p*p + p: exact in residue_dtype(p)
                acc *= u
                acc += c
                acc %= p
            walk[:, j] = acc
        order = np.argsort(walk, axis=1, kind="stable")
        ordered = np.take_along_axis(walk, order, axis=1)
        # in a stable order the later copies of a value follow its first one,
        # so a lane's first repeat T is its least index that follows an equal
        later = np.where(ordered[:, 1:] == ordered[:, :-1], order[:, 1:], K)
        first = later.argmin(axis=1)
        T = later[np.arange(live.size), first]
        for r in np.flatnonzero(T < K):
            lane = live[r]
            out[lane] = walk[r, :T[r]]
            lengths[lane], tails[lane] = T[r], order[r, first[r]]
        keep = T == K
        walked, coeffs, live = walk[keep], coeffs[:, keep], live[keep]
        K *= 2
    return np.concatenate(out), lengths, tails


def trajectory_lengths(fs, u0s) -> list[Trajectory]:
    """`trajectory_length` of (fs[i], u0s[i]) for every i, in input order,
    for many polynomials over one modulus: one lockstep walk of all lanes
    (`_lockstep_scan`), then one shared certificate over all their values.
    ValueError on empty input, unequal lengths, mixed moduli, or a walk
    matrix above ffield.BYTE_GUARD bytes; RuntimeError if the certificate
    fails."""
    fs, u0s = list(fs), list(u0s)
    if not fs or len(fs) != len(u0s):
        raise ValueError("trajectory_lengths needs one u0 per polynomial, "
                         "and at least one of each")
    modulus = fs[0].modulus
    if any(f.modulus != modulus for f in fs):
        raise ValueError("mixed moduli")
    p = modulus.p
    dtype = residue_dtype(p)
    coeffs = _coefficient_rows(fs, dtype)
    starts = np.array([int(u) % p for u in u0s], dtype=dtype)
    vals, lengths, tails = _lockstep_scan(coeffs, starts, p)
    _certify(coeffs, starts, vals, lengths, tails, p)
    flat, ends = vals.tolist(), np.cumsum(lengths).tolist()
    return [Trajectory(tuple(flat[e - n:e]), s, n - s, p)
            for e, n, s in zip(ends, lengths.tolist(), tails.tolist())]


def diameter(traj: Trajectory, N: int) -> int:
    """D(N) = max - min of the first N values of a certified walk, as plain
    integers in [0, p-1]: for N > T the values past index T-1 revisit the
    cycle, so the first T values hold them all.

    Distance is the ordinary one on the integer segment, no wrap-around.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    vals = traj.values[:N]
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


def pairs_in_box(traj: Trajectory, N: int, box: Box2) -> int:
    """Number of steps n < N whose edge (u_n, u_(n+1)) lies in the box, the
    values read off a certified walk and continued past T along its cycle.

    For N <= T the values u_0, ..., u_(N-1) are pairwise distinct, so this
    is dominated by the count of box points on the graph y = f(x).
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    box.validate_for(traj.p)
    vals, s, c = traj.values, traj.tail_length, traj.cycle_length
    T = traj.total_length
    # past index T-1 the orbit continues at the tail: u_n = u_(s + (n-s) mod c)
    orbit = [vals[n] if n < T else vals[s + (n - s) % c] for n in range(N + 1)]
    lo_x, hi_x = box.R + 1, box.R + box.M
    lo_y, hi_y = box.S + 1, box.S + box.M
    return sum(1 for n in range(N)
               if lo_x <= orbit[n] <= hi_x and lo_y <= orbit[n + 1] <= hi_y)
