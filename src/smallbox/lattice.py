"""Integer lattices cut out by a single congruence mod p, exact successive
minima against box-shaped bodies, the double-factorial counting inequality,
the five-dimensional proof lattice for the concentration bound, and the
determinant-congruence solution cap."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analytic import CheckResult
from .boxcount import count_matches
from .ffield import FpPolynomial, count_roots, int_dtype, is_prime, residue_dtype
from .ffield import sqrt_mod_int  # noqa: F401  perfbench/layertrace.py traces this alias

ENUM_GUARD = 10 ** 9


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
    """D = {x : |x_i| <= halfwidth_i}, a symmetric box body.  The halfwidths
    are also kept as integer numerators `nums` over one denominator `den`,
    h_i = nums_i / den, so scales and volumes need no Fraction arithmetic."""

    halfwidths: tuple
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hw = tuple(Fraction(h) for h in self.halfwidths)
        if not hw or any(h <= 0 for h in hw):
            raise ValueError("halfwidths must be positive")
        object.__setattr__(self, "halfwidths", hw)
        den = math.lcm(*(h.denominator for h in hw))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(h.numerator * (den // h.denominator)
                                               for h in hw))

    @property
    def n(self) -> int:
        return len(self.halfwidths)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for h in self.halfwidths:
            v *= 2 * h
        return v

    def enum_volume(self, scale) -> float:
        """Cells of the enumeration grid of scale*D, as the guard counts them;
        scale is an int or a Fraction.  Each scale*h_i is one int/int true
        division, rounded as float(Fraction) rounds it."""
        a, b = scale.numerator, scale.denominator * self.den
        vol = 1.0
        for h in self.nums:
            vol *= 2 * (a * h / b) + 1
        return vol


@dataclass(frozen=True)
class PointCount:
    count: int
    points: np.ndarray | None  # (count, n) int64 when collected


def _half_sums(coords: Sequence[int], d: Sequence[int], bounds: Sequence[int],
               p: int) -> np.ndarray:
    """sum of d_j x_j mod p over every cell of the coordinates coords, in C
    order (last coordinate fastest), of residue_dtype(p)."""
    dtype = residue_dtype(p)
    acc = np.zeros(1, dtype=dtype)
    for j in coords:
        vals = np.arange(-bounds[j], bounds[j] + 1, dtype=dtype) % p
        acc = (acc[:, None] + d[j] * vals % p).reshape(-1)  # below 5p
    return acc % p


def _fill_cells(pts: np.ndarray, cells: np.ndarray, coords: Sequence[int],
                bounds: Sequence[int]):
    """Write the coordinates coords of C-order cell indices into pts."""
    for j in reversed(coords):
        cells, pts[:, j] = np.divmod(cells, 2 * bounds[j] + 1)
        pts[:, j] -= bounds[j]


def lattice_points_in_box(lat: CongruenceLattice, box: ConvexBox,
                          scale=1, collect: bool = False) -> PointCount:
    """Exact count of Gamma intersected with scale*D, by a sorted join.

    The pivot is the invertible coordinate of largest range [-b, b].  With
    inv the inverse of its coefficient, the points are every choice of the
    other coordinates with a pivot value x = -inv * sum c_j x_j (mod p).
    The other coordinates split into a query half and a table half whose
    cell counts are as close as possible; each cell is reduced to its
    half-sum inv * sum c_j x_j mod p, and the table is sorted.  Write
    2b+1 = q*p + w: every residue has q representatives in [-b, b] and the
    w residues -b, ..., -b+w-1 one more.  A query u therefore meets q*|T|
    points plus the table values t with (b - u - t) mod p < w, one cyclic
    window of residues, counted by binary search:

        count = q*|Q|*|T| + sum over queries of the window hits.

    collect expands the same windows into a (count, n) int64 array.  A
    balanced split leaves each half at most sqrt(F * f_max) cells, with F
    the free cell count and f_max its largest range; the pivot range is at
    least f_max, so a count needs O(sqrt(enumeration volume)) memory.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    scale = Fraction(scale)
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    vol = box.enum_volume(scale)
    if vol > ENUM_GUARD:
        raise ValueError(f"enumeration volume {vol:.3g} above guard {ENUM_GUARD}")
    p = lat.p
    num, den = scale.numerator, scale.denominator * box.den
    bounds = [num * h // den for h in box.nums]  # floor(scale * h_i)
    invertible = [j for j, c in enumerate(lat.coeffs) if c % p != 0]
    if not invertible:
        raise ValueError("all coefficients divisible by p")
    pivot = max(invertible, key=lambda j: bounds[j])
    inv = pow(lat.coeffs[pivot], -1, p)
    d = [inv * c % p for c in lat.coeffs]
    b = bounds[pivot]
    free = [j for j in range(lat.n) if j != pivot]
    cells = {j: 2 * bounds[j] + 1 for j in free}
    total = math.prod(cells.values())
    # the split whose larger half is smallest, over every subset (at most 2^5)
    query = min((s for k in range(len(free) + 1)
                 for s in itertools.combinations(free, k)),
                key=lambda s: max(math.prod(cells[j] for j in s),
                                  total // math.prod(cells[j] for j in s)))
    table = [j for j in free if j not in query]

    u = _half_sums(query, d, bounds, p)
    t = _half_sums(table, d, bounds, p)
    order = np.argsort(t)
    t = t[order]
    q, w = divmod(2 * b + 1, p)
    # the window of a query u is the t with (a - t) mod p < w, a = (b - u)
    # mod p: the values in [a + p - w + 1, a + p] of the sorted t, t + p
    top = (b - u) % p + p
    t2 = np.concatenate((t, t + p))
    hi = np.searchsorted(t2, top, side="right")
    hits = hi - np.searchsorted(t2, top - (w - 1), side="left")
    count = q * len(u) * len(t) + int(hits.sum())
    if not collect:
        return PointCount(count=count, points=None)

    # walk each query's table cyclically down from its largest t <= a, at
    # index hi - 1 - |T|: step i meets the pivot x = -b + ((a - t) mod p) +
    # (i // |T|) * p, which increases, and the first q*|T| + hits steps are
    # the x in [-b, b]
    per = q * len(t) + hits
    qi = np.repeat(np.arange(len(u)), per)
    i = np.arange(count) - np.repeat(np.cumsum(per) - per, per)
    tj = (hi[qi] - 1 - i) % len(t)
    x = (top[qi] - t[tj]) % p - b
    if q:
        x += i // len(t) * p
    inside = int(np.count_nonzero(x <= b))
    if inside != count:
        raise RuntimeError(f"window count {count} but {inside} expanded points in the box")
    pts = np.empty((count, lat.n), dtype=np.int64)
    pts[:, pivot] = x
    _fill_cells(pts, qi, query, bounds)
    _fill_cells(pts, order[tj], table, bounds)
    return PointCount(count=count, points=pts)


def _power_of_two(e: int):
    """2^e exactly: an int for e >= 0, a Fraction below."""
    return 1 << e if e >= 0 else Fraction(1, 1 << -e)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of the integer rows W, exact: the rank of
    their Gram matrix G = W W^T, so the rows are independent exactly when
    det G != 0.  G is reduced by fraction-free (Bareiss) elimination in
    integers; `_Echelon` reduces the rows of W themselves, so this check of
    the minima witnesses shares no formula with the scan that found them.
    G is positive semidefinite, so pivots are taken on the diagonal: a zero
    diagonal entry of what is left forces its row to vanish, and once every
    remaining diagonal entry is zero the rank is complete."""
    g = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    k, prev = len(g), 1
    for rank in range(k):
        piv = next((i for i in range(rank, k) if g[i][i]), None)
        if piv is None:
            return rank
        g[rank], g[piv] = g[piv], g[rank]
        for row in g:
            row[rank], row[piv] = row[piv], row[rank]
        d = g[rank][rank]
        for i in range(rank + 1, k):
            for j in range(rank + 1, k):
                g[i][j] = (d * g[i][j] - g[i][rank] * g[rank][j]) // prev
        prev = d
    return k


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


def successive_minima(lat: CongruenceLattice, box: ConvexBox,
                      upto: int | None = None) -> MinimaReport:
    """Exact successive minima of D with respect to Gamma, with witnesses.

    A lattice point v has the integer key max_i |v_i| * weight_i, with
    |v_i| / h_i = |v_i| * weight_i / den, so keys sort like box norms.  The
    minima come from one greedy scan of the nonzero points in (key, vector)
    order: each vector that grows the span is kept, and the i-th kept norm
    is lambda_i.  The points of s*D are exactly those with key <= s * den,
    a prefix of that order, so the enumeration doubles its scale until the
    kept vectors span, and at scale 2s scans only the keys above
    floor(s * den): each point is scanned at most once, and the span, the
    minima and the witnesses carry over from scale to scale.  Of each pair
    +-v only the row whose first nonzero coordinate is negative is scanned;
    the order meets it first, and -v never grows the span.  Spans are
    tested on an incremental integer echelon basis, O(n^2) integer
    operations per candidate, and the norms are exact fractions.

    When every minimum is asked for, the doubling starts at the first
    scale s of its grid with s^n >= 2^n det(Gamma) / (n! vol D), a lower
    bound on lambda_n^n by Minkowski's second theorem.  Scales below it
    cannot span, and the scale that ends the doubling, which alone decides
    the enumeration guard, is not below it.

    upto requests only the first few minima; bodies whose later minima sit
    beyond the enumeration guard can still report their early ones exactly.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    n = lat.n if upto is None else min(upto, lat.n)
    if n < 1:
        raise ValueError("upto must be >= 1")

    # the scales are 2^e; start small enough that huge bodies (whose minima
    # sit far below 1) never trip the enumeration guard on the way up
    e = 0
    while e > -40 and box.enum_volume(_power_of_two(e)) > 10 ** 6:
        e -= 1
    if n == lat.n:
        # lambda_1 ... lambda_n vol(D) >= 2^n det / n!, and lambda_n is the
        # largest: 2^(en) >= 2^n det / (n! vol D) = det den^n / (n! prod nums)
        lhs, rhs = math.factorial(n) * math.prod(box.nums), lat.determinant() * box.den ** n
        while lhs << max(n * e, 0) < rhs << max(-n * e, 0):  # 2^(en) lhs < rhs
            e += 1
    # |x_i| / h_i = |x_i| * weight_i / den, so integer keys sort like the norms
    den = math.lcm(*(h.numerator for h in box.halfwidths))
    weights = [h.denominator * (den // h.numerator) for h in box.halfwidths]
    lambdas: list[Fraction] = []
    witnesses: list[tuple[int, ...]] = []
    span = _Echelon()
    scanned = -1  # every key up to this one has been scanned
    while len(witnesses) < n:
        pts = lattice_points_in_box(lat, box, scale=_power_of_two(e), collect=True).points
        # the rows whose first nonzero coordinate is negative: one of each +-v
        pts = pts[pts[np.arange(len(pts)), (pts != 0).argmax(axis=1)] < 0]
        # |x_i| <= 2^e * h_i, so no key exceeds top = floor(2^e * den)
        top = den << max(e, 0) >> max(-e, 0)
        dtype = int_dtype(max(*weights, top))
        keys = (np.abs(pts).astype(dtype, copy=False)
                * np.array(weights, dtype=dtype)).max(axis=1)
        fresh = keys > scanned
        pts, keys = pts[fresh], keys[fresh]
        # the order of sorted((key, v)): by key, then by the vector
        order = np.lexsort(tuple(pts[:, j] for j in reversed(range(lat.n))) + (keys,))
        for key, v in zip(keys[order].tolist(), pts[order].tolist()):
            if span.add(v):
                lambdas.append(Fraction(key, den))
                witnesses.append(tuple(v))
                if len(witnesses) == n:
                    break
        scanned = top
        e += 1
    report = MinimaReport(lambdas=tuple(lambdas), witnesses=tuple(witnesses))
    _validate_minima(lat, box, report, n)
    return report


def _validate_minima(lat: CongruenceLattice, box: ConvexBox,
                     rep: MinimaReport, n: int):
    lams, wits = rep.lambdas, rep.witnesses
    if not len(lams) == len(wits) == n:
        raise RuntimeError(
            f"expected {n} minima, got {len(lams)} with {len(wits)} witnesses")
    if lams[0] <= 0:
        raise RuntimeError(f"first minimum {lams[0]} is not positive")
    if any(a > b for a, b in zip(lams, lams[1:])):
        raise RuntimeError(f"minima out of order: {lams}")
    for lam, w in zip(lams, wits):
        if not lat.contains(w):
            raise RuntimeError(f"witness {w} is not a lattice vector")
        # |w_i| / h_i against lam, cross-multiplied: no ratio exceeds lam
        # and one equals it
        sides = [(abs(x) * h.denominator * lam.denominator, lam.numerator * h.numerator)
                 for x, h in zip(w, box.halfwidths)]
        if any(a > b for a, b in sides) or all(a < b for a, b in sides):
            raise RuntimeError(f"witness {w} does not have box norm {lam}")
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


def minkowski_check(lat: CongruenceLattice, box: ConvexBox,
                    minima: MinimaReport) -> CheckResult:
    """First-minimum form of Minkowski's theorem: lambda_1^n vol(D) <= 2^n det,
    on minima already computed for (lat, box), e.g. `Cor7Report.minima`."""
    lhs = minima.lambdas[0] ** lat.n * box.volume()
    rhs = Fraction(2 ** lat.n * lat.determinant())
    return CheckResult(lhs=float(lhs), rhs=float(rhs), ok=lhs <= rhs)


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
    return count_matches((0, c1, c2, c3), (0, -c0, 1), window, window, p)


def lemma6_count(f: FpPolynomial, g: FpPolynomial,
                 xs: Sequence[int], ys: Sequence[int]) -> int:
    """Exact number of (x, y) in F_p^2 with f(x) = g(y) whose row
    (x^n, ..., x, y) is a rational dependency of the interpolation rows
    (x_i^n, ..., x_i, y_i).

    With the x_i distinct and nonzero the dependency forces y = h(x) for
    the unique degree-<=n polynomial h with zero constant term through the
    n data points, so the count is the number of distinct roots in F_p of
    F = f - g(h(X)), counted as deg gcd(F, X^p - X) by
    `ffield.count_roots` in O(mn^2 log p) operations.  F is never zero:
    g(h(X)) is the constant g(0) when h = 0 and has degree m deg h
    otherwise, and m does not divide n, so that degree is not n and F has
    the larger of the two degrees, between 1 and mn.  The mn cap is
    checked, and at p <= 211 the count is replayed on the determinant
    itself, expanded once along its free row.
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
    hc = [0] + h[::-1]
    gh: list[int] = []  # g(h(X)) by Horner over polynomials
    for c in reversed(g.coeffs):
        prod = [0] * (len(gh) + n)
        for i, a in enumerate(gh):
            for j, b in enumerate(hc, i):
                prod[j] += a * b
        prod[0] += c
        gh = [x % p for x in prod]
    F = [a - b for a, b in itertools.zip_longest(f.coeffs, gh, fillvalue=0)]
    count = count_roots(F, p)
    if count > m * n:
        raise RuntimeError(f"count {count} exceeds cap {m * n}")
    if p <= 211:  # small enough to replay the determinant definition directly
        # the determinant of (x^n, ..., x, y) over the data rows is linear in
        # that free row: expand it once into cofactors C_n, ..., C_1, C_y
        cof = [(-1) ** j * _det_mod([r[:j] + r[j + 1:] for r in mat], p)
               for j in range(n + 1)]
        # every (x, y) with f(x) = g(y), found through the fibres of g
        g_fibres: dict[int, list[int]] = {}
        for y in range(p):
            g_fibres.setdefault(g(y), []).append(y)
        direct = sum(1 for x in range(p) for y in g_fibres.get(f(x), ())
                     if (sum(c * pow(x, n - j, p) for j, c in enumerate(cof[:n]))
                         + cof[n] * y) % p == 0)
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

