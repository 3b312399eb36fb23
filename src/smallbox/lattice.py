"""Integer lattices cut out by a single congruence mod p, exact successive
minima against box-shaped bodies, the double-factorial counting inequality,
the five-dimensional proof lattice for the concentration bound, and the
determinant-congruence solution cap."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ffield import FpPolynomial, is_prime, match_count, poly_values
from .ffield import sqrt_mod_int  # noqa: F401  perfbench/layertrace.py traces this alias

ENUM_GUARD = 10 ** 9
_VECTOR_CHUNK = 1 << 22
_LEMMA6_SLICE = 1 << 16  # residues of F_p evaluated per numpy pass


@dataclass(frozen=True)
class CongruenceLattice:
    """Gamma = {X in Z^n : sum c_i X_i = 0 (mod p)}, 2 <= n <= 6."""

    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        n = len(self.coeffs)
        if not 2 <= n <= 6:
            raise ValueError(f"dimension must be in [2, 6], got {n}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def contains(self, v: Sequence[int]) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, v)) % self.p == 0

    def determinant(self) -> int:
        """Index of Gamma in Z^n: p unless the congruence is vacuous."""
        return 1 if all(c == 0 for c in self.coeffs) else self.p


@dataclass(frozen=True)
class ConvexBox:
    """D = {x : |x_i| <= halfwidth_i}, a symmetric box body."""

    halfwidths: tuple

    def __post_init__(self):
        hw = tuple(Fraction(h) for h in self.halfwidths)
        if not hw or any(h <= 0 for h in hw):
            raise ValueError("halfwidths must be positive")
        object.__setattr__(self, "halfwidths", hw)

    @property
    def n(self) -> int:
        return len(self.halfwidths)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for h in self.halfwidths:
            v *= 2 * h
        return v


@dataclass(frozen=True)
class PointCount:
    count: int
    points: tuple[tuple[int, ...], ...] | None


def _range_bounds(box: ConvexBox, scale: Fraction) -> list[int]:
    return [math.floor(scale * h) for h in box.halfwidths]


def lattice_points_in_box(lat: CongruenceLattice, box: ConvexBox,
                          scale=1, collect: bool = False) -> PointCount:
    """Exact count of Gamma intersected with scale*D.

    Enumerates the free coordinates and solves the congruence for a pivot
    coordinate whose coefficient is invertible mod p, counting the in-range
    representatives of its residue class.  The trailing free coordinates
    are swept as one vectorized block; leading coordinates are chunked on
    top of it, so memory stays bounded while counts merge by summation.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    scale = Fraction(scale)
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    vol = 1.0
    for h in box.halfwidths:
        vol *= 2 * float(scale * h) + 1
    if vol > ENUM_GUARD:
        raise ValueError(f"enumeration volume {vol:.3g} above guard {ENUM_GUARD}")
    p = lat.p
    pivot = next((j for j, c in enumerate(lat.coeffs) if c % p != 0), None)
    if pivot is None:
        raise ValueError("all coefficients divisible by p")
    bounds = _range_bounds(box, scale)
    inv = pow(lat.coeffs[pivot], -1, p)
    free = [j for j in range(lat.n) if j != pivot]
    b_piv = bounds[pivot]

    # split free dims: python loop over the head, numpy block over the tail
    sizes = [2 * bounds[j] + 1 for j in free]
    cut = len(free)
    block = 1
    while cut > 0 and block * sizes[cut - 1] <= _VECTOR_CHUNK:
        block *= sizes[cut - 1]
        cut -= 1
    head, tail = free[:cut], free[cut:]

    tail_vals = [np.arange(-bounds[j], bounds[j] + 1, dtype=np.int64) for j in tail]
    tail_shape = tuple(len(v) for v in tail_vals)
    tail_sum = np.zeros(1, dtype=np.int64)
    for j, vals in zip(tail, tail_vals):
        tail_sum = (tail_sum[:, None] + (lat.coeffs[j] * vals % p)[None, :]).reshape(-1) % p

    count = 0
    pts: list[tuple[int, ...]] = []
    for combo in itertools.product(*[range(-bounds[j], bounds[j] + 1) for j in head]):
        s0 = sum(lat.coeffs[j] * x for j, x in zip(head, combo)) % p
        root = (p - (s0 + tail_sum)) % p * inv % p
        # reps of each class in [-b, b]: (b - r)//p + (b + r)//p + 1
        reps = (b_piv - root) // p + (b_piv + root) // p + 1
        count += int(reps.sum())
        if collect:
            for idx in np.flatnonzero(reps > 0):
                t_combo = np.unravel_index(int(idx), tail_shape) if tail else ()
                v = [0] * lat.n
                for j, x in zip(head, combo):
                    v[j] = x
                for j, vals, ti in zip(tail, tail_vals, t_combo):
                    v[j] = int(vals[ti])
                r = int(root[idx])
                x = r - ((r + b_piv) // p) * p
                while x <= b_piv:
                    v[pivot] = x
                    pts.append(tuple(v))
                    x += p
    return PointCount(count=count, points=tuple(pts) if collect else None)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, exact; the independent check of the
    minima witnesses, sharing no code with `_Echelon`."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


class _Echelon:
    """Integer row echelon basis grown one vector at a time, fraction-free
    (Bareiss): a vector is reduced against each kept row at that row's pivot
    column by cross multiplication, row <- piv * row - row[col] * kept, and
    divided by the gcd of its entries after every reduction.  Each kept row
    is zero at the pivots of the rows kept before it."""

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, row)

    def add(self, v: Sequence[int]) -> bool:
        """Keep v and return True exactly when it grows the span."""
        w = list(v)
        for col, row in self.rows:
            if w[col]:
                piv, x = row[col], w[col]
                w = [piv * a - x * b for a, b in zip(w, row)]
                d = math.gcd(*w)
                if d > 1:
                    w = [a // d for a in w]
        col = next((j for j, a in enumerate(w) if a), None)
        if col is None:
            return False
        self.rows.append((col, w))
        return True


@dataclass(frozen=True)
class MinimaReport:
    lambdas: tuple[Fraction, ...]
    witnesses: tuple[tuple[int, ...], ...]


def _shell_norm(v: Sequence[int], box: ConvexBox) -> Fraction:
    """Smallest lambda with v in lambda*D."""
    return max(Fraction(abs(x)) / h for x, h in zip(v, box.halfwidths))


def successive_minima(lat: CongruenceLattice, box: ConvexBox,
                      upto: int | None = None) -> MinimaReport:
    """Exact successive minima of D with respect to Gamma, with witnesses.

    Doubles the enumeration scale until the collected vectors span R^n,
    then scans them in order of their exact box norm, keeping each vector
    that grows the span; the i-th kept norm is lambda_i.  Spans are tested
    on an incremental integer echelon basis, so each candidate costs O(n^2)
    integer operations; the norms are exact fractions, so the minima are
    attained values, not approximations.

    upto requests only the first few minima; bodies whose later minima sit
    beyond the enumeration guard can still report their early ones exactly.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    n = lat.n if upto is None else min(upto, lat.n)
    if n < 1:
        raise ValueError("upto must be >= 1")

    def enum_volume(s: Fraction) -> float:
        vol = 1.0
        for h in box.halfwidths:
            vol *= 2 * float(s * h) + 1
        return vol

    # start small enough that huge bodies (whose minima sit far below 1)
    # never trip the enumeration guard on the way up
    scale = Fraction(1)
    while enum_volume(scale) > 10 ** 6 and scale > Fraction(1, 2 ** 40):
        scale /= 2
    while True:
        pc = lattice_points_in_box(lat, box, scale=scale, collect=True)
        nonzero = [v for v in pc.points if any(v)]
        span = _Echelon()
        if any(span.add(v) and len(span.rows) == n for v in nonzero):
            break
        scale *= 2
    # |x_i| / h_i = |x_i| * weight_i / den, so integer keys sort like the norms
    den = math.lcm(*(h.numerator for h in box.halfwidths))
    weights = [h.denominator * (den // h.numerator) for h in box.halfwidths]
    decorated = sorted((max(abs(x) * w for x, w in zip(v, weights)), v)
                       for v in nonzero)
    lambdas: list[Fraction] = []
    witnesses: list[tuple[int, ...]] = []
    span = _Echelon()
    for norm, v in decorated:
        if span.add(v):
            lambdas.append(Fraction(norm, den))
            witnesses.append(v)
            if len(witnesses) == n:
                break
    report = MinimaReport(lambdas=tuple(lambdas), witnesses=tuple(witnesses))
    _validate_minima(lat, box, report, n)
    return report


def _validate_minima(lat: CongruenceLattice, box: ConvexBox,
                     rep: MinimaReport, n: int):
    lams, wits = rep.lambdas, rep.witnesses
    if not len(lams) == len(wits) == n:
        raise RuntimeError(
            f"expected {n} minima, got {len(lams)} with {len(wits)} witnesses")
    if any(a > b for a, b in zip(lams, lams[1:])):
        raise RuntimeError(f"minima out of order: {lams}")
    for lam, w in zip(lams, wits):
        if not lat.contains(w):
            raise RuntimeError(f"witness {w} is not a lattice vector")
        if _shell_norm(w, box) > lam:
            raise RuntimeError(f"witness {w} lies outside {lam} * D")
    if _rank(wits) != n:
        raise RuntimeError("minima witnesses are linearly dependent")


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class Cor7Report:
    product: float
    bound: float
    ok: bool
    point_count: int
    minima: MinimaReport


def cor7_check(lat: CongruenceLattice, box: ConvexBox) -> Cor7Report:
    """Product of min{lambda_i, 1} against (2n+1)!! / #(D cap Gamma),
    compared exactly in rational arithmetic."""
    rep = successive_minima(lat, box)
    pc = lattice_points_in_box(lat, box)
    prod = Fraction(1)
    for lam in rep.lambdas:
        prod *= min(lam, Fraction(1))
    bound = Fraction(double_factorial(2 * lat.n + 1), pc.count)
    return Cor7Report(product=float(prod), bound=float(bound),
                      ok=prod <= bound, point_count=pc.count, minima=rep)


def minkowski_check(lat: CongruenceLattice, box: ConvexBox) -> Cor7Report:
    """First-minimum form of Minkowski's theorem: lambda_1^n vol(D) <= 2^n det."""
    rep = successive_minima(lat, box)
    lhs = rep.lambdas[0] ** lat.n * box.volume()
    rhs = Fraction(2 ** lat.n * lat.determinant())
    return Cor7Report(product=float(lhs), bound=float(rhs), ok=lhs <= rhs,
                      point_count=-1, minima=rep)


@dataclass(frozen=True)
class ProofLattice:
    lattice: CongruenceLattice
    box: ConvexBox
    proof_scale_ok: bool  # 8M^3 < p, the regime the argument actually runs in


def build_thm2_lattice(c: Sequence[int], M: int, p: int) -> ProofLattice:
    """Five-dimensional lattice and body used to bound concentration on
    shifted cubics: coordinates (X_2, X_3, X~_2, X_1, X~_1) subject to

        X_2 + c_3 X_3 + c_2 X~_2 + c_1 X_1 + c_0 X~_1 = 0 (mod p),

    with halfwidths (8M^2, 8M^3, 8M^2, 8M, 8M)."""
    if len(c) != 4:
        raise ValueError("need coefficients (c_0, c_1, c_2, c_3)")
    if M < 1:
        raise ValueError("M >= 1 required")
    c0, c1, c2, c3 = (x % p for x in c)
    lat = CongruenceLattice(coeffs=(1, c3, c2, c1, c0), p=p)
    box = ConvexBox(halfwidths=(8 * M ** 2, 8 * M ** 3, 8 * M ** 2, 8 * M, 8 * M))
    return ProofLattice(lattice=lat, box=box, proof_scale_ok=8 * M ** 3 < p)


def shifted_congruence_count(c: Sequence[int], M: int, p: int) -> int:
    """Solutions of y^2 - c_0 y = c_3 x^3 + c_2 x^2 + c_1 x (mod p) with
    |x|, |y| <= M, counted exactly by joining the values of both sides."""
    if M < 0:
        raise ValueError("M >= 0 required")
    c0, c1, c2, c3 = c
    window = range(-M, M + 1)
    # residues repeat when M >= p; the join counts every (x, y) pair anyway
    return match_count(poly_values((0, c1, c2, c3), window, p),
                       poly_values((0, -c0, 1), window, p))


def lemma6_count(f: FpPolynomial, g: FpPolynomial,
                 xs: Sequence[int], ys: Sequence[int]) -> int:
    """Exact number of (x, y) in F_p^2 with f(x) = g(y) whose row
    (x^n, ..., x, y) is a rational dependency of the interpolation rows
    (x_i^n, ..., x_i, y_i).

    With the x_i distinct and nonzero the dependency forces y = h(x) for
    the unique degree-<=n polynomial h with zero constant term through the
    n data points, so the count reduces to a single-variable congruence of
    degree at most mn.  The mn cap is checked.
    """
    p = f.modulus.p
    if g.modulus.p != p:
        raise ValueError("mixed moduli")
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("f and g must be nonconstant")
    if n % m == 0:
        raise ValueError(f"degree hypothesis violated: {m} divides {n}")
    xs = [x % p for x in xs]
    ys = [y % p for y in ys]
    if len(xs) != n or len(ys) != n:
        raise ValueError(f"need exactly n = {n} interpolation points")
    if len(set(xs)) != n:
        raise ValueError("interpolation abscissas must be pairwise distinct mod p")
    if any(x == 0 for x in xs):
        raise ValueError("interpolation abscissas must be nonzero mod p")
    # solve for h(X) = a_n X^n + ... + a_1 X with h(x_i) = y_i
    mat = [[pow(x, e, p) for e in range(n, 0, -1)] + [y] for x, y in zip(xs, ys)]
    h = _solve_mod(mat, p)
    hpoly = FpPolynomial(tuple([0] + h[::-1]), f.modulus)
    count = 0
    for start in range(0, p, _LEMMA6_SLICE):
        x = range(start, min(start + _LEMMA6_SLICE, p))
        gh = poly_values(g.coeffs, poly_values(hpoly.coeffs, x, p), p)
        count += int((poly_values(f.coeffs, x, p) == gh).sum())
    if count > m * n:
        raise RuntimeError(f"count {count} exceeds cap {m * n}")
    if p <= 211:  # small enough to replay the determinant definition directly
        # every (x, y) with f(x) = g(y), found through the fibres of g
        g_fibres: dict[int, list[int]] = {}
        for y in range(p):
            g_fibres.setdefault(g(y), []).append(y)
        direct = sum(1 for x in range(p) for y in g_fibres.get(f(x), ())
                     if _dep_det(x, y, xs, ys, p) == 0)
        if direct != count:
            raise RuntimeError("interpolation shortcut disagrees with determinant scan")
    return count


def _solve_mod(aug: list[list[int]], p: int) -> list[int]:
    """Gaussian elimination on an augmented matrix mod p (unique solution)."""
    n = len(aug)
    mat = [row[:] for row in aug]
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] % p != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = pow(mat[col][col], -1, p)
        mat[col] = [v * inv % p for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] % p != 0:
                fac = mat[r][col]
                mat[r] = [(a - fac * b) % p for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def _dep_det(x: int, y: int, xs: Sequence[int], ys: Sequence[int], p: int) -> int:
    n = len(xs)
    rows = [[pow(x, e, p) for e in range(n, 0, -1)] + [y]]
    rows += [[pow(xi, e, p) for e in range(n, 0, -1)] + [yi]
             for xi, yi in zip(xs, ys)]
    return _det_mod(rows, p)


def _det_mod(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    mat = [r[:] for r in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] % p != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], -1, p)
        for r in range(col + 1, n):
            if mat[r][col] % p != 0:
                fac = mat[r][col] * inv % p
                mat[r] = [(a - fac * b) % p for a, b in zip(mat[r], mat[col])]
    return det % p

