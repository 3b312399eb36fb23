"""Exact point counts in boxes [R+1, R+M] x [S+1, S+M] modulo p: the pair
count f(x) = g(y) over two windows, the counts on y^2 = f(x) and y = f(x),
plus evaluators for the associated upper-bound formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import kappa
from .ffield import (FpPolynomial, _horner_blocks, check_bytes, discriminant, entry_bytes,
                     key_dtype, monic_square_root, poly_values, residue_dtype)
from .ffield import sqrt_mod_int  # noqa: F401  perfbench/layertrace.py traces this alias

WEIL_CONSTANT = 10.0  # implied constant accepted in front of sqrt(p) (ln p)^2
DEFAULT_EPS = 0.05


@dataclass(frozen=True)
class Box2:
    """Closed box [R+1, R+M] x [S+1, S+M]; M = 0 is rejected."""

    R: int
    S: int
    M: int

    def __post_init__(self):
        for name in ("R", "S", "M"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise TypeError(f"{name} must be an integer")
        if self.R < 0 or self.S < 0:
            raise ValueError("box offsets must be nonnegative")
        if self.M < 1:
            raise ValueError("empty box: side length M must be >= 1")

    def validate_for(self, p: int):
        if self.R + self.M >= p or self.S + self.M >= p:
            raise ValueError(
                f"box [{self.R + 1},{self.R + self.M}]x[{self.S + 1},{self.S + self.M}] "
                f"exceeds [0,{p})")

    @property
    def x_range(self) -> range:
        return range(self.R + 1, self.R + self.M + 1)

    @property
    def y_range(self) -> range:
        return range(self.S + 1, self.S + self.M + 1)


# keys read beyond the boundary key on each side of a shared value; a run
# longer than this is measured by binary search
_PROBE = 3


def count_matches(f: Sequence[int], g: Sequence[int], xs, ys, p: int) -> int:
    """#{(x, y) in xs x ys : f(x) = g(y) mod p} for ascending coefficients f
    and g, xs and ys ranges or integer arrays (negative values and windows
    longer than p included).  One sort of tagged keys: Horner writes f(x)
    for each x and g(y) for each y, block by block, straight into one array
    of key_dtype(p), which then holds the keys 2 f(x) and 2 g(y) + 1 and is
    sorted once.  A value r met on both sides is then a run of keys 2r
    directly followed by a run of keys 2r + 1, at a boundary where
    consecutive keys differ in bit 0 alone, and it adds the product of the
    two run lengths.  The lengths are read off the keys next to each
    boundary, at most _PROBE beyond it on each side (`_levels`); only a pair
    with a longer run is measured by binary search.  A sentinel key 2p + 1,
    the key of no residue, on each end of the sorted keys ends every run,
    and _PROBE - 1 zeros beyond it keep every read inside the array.
    Memory O(len(xs) + len(ys)): a key per value (4 bytes while residues
    are int64), their xors, and one Horner block, held to ffield.BYTE_GUARD.
    `naive_count` is its reference double loop."""
    n, m, w = len(xs), len(ys), _PROBE
    check_bytes(f"a join of {n} and {m} values",
                2 * (w + n + m + w) * entry_bytes(key_dtype(p), 2 * p + 1))
    k = np.zeros(w + n + m + w, dtype=key_dtype(p))
    k[w - 1] = k[w + n + m] = 2 * p + 1
    for lo, v in _horner_blocks(f, xs, p):
        k[w + lo:w + lo + len(v)] = v
    for lo, v in _horner_blocks(g, ys, p):
        k[w + n + lo:w + n + lo + len(v)] = v
    body = k[w:w + n + m]
    body <<= 1
    body[n:] |= 1
    body.sort()
    diff = k[1:] ^ k[:-1]  # diff[w - 1 + i] = body[i] ^ body[i - 1]
    last = (diff[w:] == 1).nonzero()[0]  # the last key 2r of each shared r
    if not len(last):
        return 0
    # the run of 2r ends at last and the run of 2r + 1 starts at last + 1;
    # the xors of their keys with the next ones out are 0 where they go on
    L = len(last)
    before, after = diff[w - 1:][last], diff[w + 1:][last]
    del diff
    longer = L - np.count_nonzero(before), L - np.count_nonzero(after)
    if not any(longer):
        return L
    a, na = _levels(k, last, w, -1, before, longer[0])
    b, nb = _levels(k, last, w + 1, 1, after, longer[1])
    # a pair counts (1 + s)(1 + t), s and t the levels at 0 on its two sides:
    # L in all, plus each level's zeros, plus the zeros of each two levels' or
    count = L + na + nb
    for u in a:
        for v in b:
            count += L - np.count_nonzero(u | v)
    # a run past the last level counted _PROBE + 1 keys: measure its pair
    if _PROBE in (len(a), len(b)):
        far = [u[-1] == 0 for u in (a, b) if len(u) == _PROBE]
        i = last[(far[0] | far[-1]).nonzero()[0]]
        even = body[i]
        runs = (i + 1 - np.searchsorted(body, even),
                np.searchsorted(body, even + 1, "right") - i - 1)
        count += np.dot(*runs) - np.dot(*(np.minimum(r, _PROBE + 1) for r in runs))
    return int(count)


def _levels(k, last, at, sign, level, zeros):
    """Levels 1, 2, ... of the runs on one side of the boundaries `last`,
    while a level has a zero and at most _PROBE of them, and their zeros in
    all.  Level d ors the xors of the run's key next to the boundary,
    k[at + last], with each of the d keys beyond it (sign -1 going back
    from the run of 2r, +1 going on from the run of 2r + 1), so it is 0
    exactly where the run holds more than d keys.  Level 1 comes with its
    zeros."""
    out, total, key = [], 0, None
    while zeros:
        out.append(level)
        total += zeros
        if len(out) == _PROBE:
            break
        if key is None:
            key = k[at:][last]
        level = level | (k[at + sign * (len(out) + 1):][last] ^ key)
        zeros = len(last) - np.count_nonzero(level)
    return out, total


def list_matches(f: Sequence[int], g: Sequence[int], xs, ys,
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair that `count_matches` counts, as two arrays (x, y) of equal
    length, in the order of the double loop over xs, then ys.  The g(y)
    are argsorted once (stably, so equal values keep the order of ys); the
    run of each f(x) among them is found by binary search on both sides
    and expanded, in O(len(xs) + len(ys) + pairs) memory, held to BYTE_GUARD before the pairs."""
    check_bytes(f"listing the matches of {len(xs)} and {len(ys)} values",
                (len(xs) + len(ys)) * (2 * entry_bytes(residue_dtype(p), p) + 3 * 8))
    u = poly_values(f, xs, p)  # on ranges: one with both ends in [-p, p] is not reduced
    v = poly_values(g, ys, p)
    xs, ys = (np.arange(t.start, t.stop, t.step, dtype=np.int64) if isinstance(t, range)
              else np.asarray(t) for t in (xs, ys))
    order = np.argsort(v, kind="stable")
    v = v[order]
    first = np.searchsorted(v, u, side="left")
    n = np.searchsorted(v, u, side="right") - first
    ix = np.repeat(np.arange(len(u)), n)
    # the k-th pair is entry k - start of its x's run, starting at v[first]
    iy = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(len(ix))
    return xs[ix], ys[order[iy]]


def naive_count(f: Sequence[int], g: Sequence[int], xs, ys, p: int) -> int:
    """Reference double loop of `count_matches`: scalar Horner in Python
    integers on both sides, then every x's value compared with every y's."""
    def values(coeffs, ts):
        top, out = tuple(reversed(coeffs)), []
        for t in ts.tolist() if isinstance(ts, np.ndarray) else ts:
            v = 0
            for c in top:
                v = v * t + c
            out.append(v % p)
        return out
    return sum(map(values(g, ys).count, values(f, xs)))


def count_curve_points(f: FpPolynomial, box: Box2) -> int:
    """Exact #{(x, y) in box : y^2 = f(x) mod p}: `count_matches` of f
    against Y^2 over the box's two windows."""
    p = f.modulus.p
    box.validate_for(p)
    if f.degree < 1:
        raise ValueError("deg f >= 1 required")
    return count_matches(f.coeffs, (0, 0, 1), box.x_range, box.y_range, p)


def count_graph_points(f: FpPolynomial, box: Box2) -> int:
    """Exact #{(x, y) in box : y = f(x) mod p}; at most one y per column,
    so the count is the number of values f(x) that fall in the y-window.
    The blocks hold little, so the work is bounded instead: ValueError when
    the window's values, held at once, would pass ffield.BYTE_GUARD bytes."""
    p = f.modulus.p
    box.validate_for(p)
    check_bytes(f"a window of {box.M} values of f, held at once,",
                box.M * entry_bytes(residue_dtype(p), p))
    # a window test on each Horner block, not count_matches(f.coeffs, (0, 1),
    # ...): it sorts nothing, 1.4 ms against the join's 6.6 ms at
    # p = 1000003, M = 2*10^5, cubic f (best of 40 and 20 calls, 2-CPU Xeon)
    count = 0
    for _, fx in _horner_blocks(f.coeffs, box.x_range, p):
        count += int(np.count_nonzero((fx > box.S) & (fx <= box.S + box.M)))
        del fx  # so the next block is not made beside this one
    return count


@dataclass(frozen=True)
class WeilReport:
    count: int
    deviation: float
    budget: float  # WEIL_CONSTANT * sqrt(p) * (ln p)^2
    within_budget: bool  # deviation <= budget


def check_curve_irreducible(f: FpPolynomial):
    """Raise unless y^2 - f(x) is absolutely irreducible.

    That fails exactly when f is a scalar multiple of a square polynomial
    (every root of even multiplicity); squarefree f of degree >= 1 passes
    immediately via the discriminant.
    """
    if f.degree < 1:
        raise ValueError("y^2 - f(x) is reducible: f is constant")
    if discriminant(f) != 0:
        return
    if monic_square_root(f) is not None:
        raise ValueError(
            "y^2 - f(x) is reducible: f is a unit multiple of a perfect square")


def weil_error(f: FpPolynomial, box: Box2) -> WeilReport:
    """Exact count of the curve points in the box against the square-root
    error budget sqrt(p) * (ln p)^2, with an accepted implied constant."""
    check_curve_irreducible(f)
    p = f.modulus.p
    count = count_curve_points(f, box)
    deviation = abs(count - box.M * box.M / p)
    budget = WEIL_CONSTANT * (math.sqrt(p) * math.log(p) ** 2)
    return WeilReport(count=count, deviation=deviation, budget=budget,
                      within_budget=deviation <= budget)


@dataclass(frozen=True)
class BoundReport:
    value: float
    regime: str


def bound_I(M: int, p: int, deg: int, eps: float = DEFAULT_EPS) -> BoundReport:
    """Upper-bound evaluator for the curve count, degree >= 3.

    deg = 3 uses the three-regime piecewise minimum (thresholds p^{1/8},
    p^{5/23}, p^{1/3}, compared exactly in integers); deg >= 4 uses the
    general two-term bound with kappa(deg) = deg^2 - 1.  Every o(1)
    exponent is replaced by the caller-supplied eps.
    """
    if deg < 3:
        raise ValueError("deg >= 3 required")
    if M < 1:
        raise ValueError("M >= 1 required")
    if deg == 3:
        if M ** 8 < p:
            return BoundReport(M ** (1 / 3 + eps), "cor3-small: M < p^(1/8)")
        if M ** 23 < p ** 5:
            return BoundReport(M ** (1 + eps) * (M ** 4 / p) ** (1 / 6),
                               "cor3-mid: p^(1/8) <= M < p^(5/23)")
        if M ** 3 < p:
            return BoundReport(M ** (1 + eps) * (M ** 3 / p) ** (1 / 16),
                               "cor3-large: p^(5/23) <= M < p^(1/3)")
        # beyond the stated range the large-regime expression may exceed the
        # trivial count, so cap it there
        v = M ** (1 + eps) * (M ** 3 / p) ** (1 / 16)
        return BoundReport(min(v, 2.0 * M), "beyond-cor3: M >= p^(1/3), trivial cap")
    k = kappa(deg)
    value = M ** (1 + eps) * (M ** 3 / p) ** (1 / (2 * k)) \
        + M ** (1 - (deg - 3) / (2 * k) + eps)
    return BoundReport(value, f"general: kappa({deg})={k}")


def bound_J(M: int, p: int, m: int, eps: float = 0.0) -> float:
    """Upper-bound evaluator for the graph count: M^2/p + M^(1-1/2^(m-1)),
    with the o(1) taken as eps on the p-power."""
    if m < 2:
        raise ValueError("m >= 2 required")
    if M < 1:
        raise ValueError("M >= 1 required")
    return M * M / p + M ** (1 - 1 / 2 ** (m - 1)) * p ** eps
