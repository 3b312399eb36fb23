"""Integer lattices cut out by a single congruence mod p, exact successive
minima against box-shaped bodies, the double-factorial counting inequality,
the five-dimensional proof lattice for the concentration bound, and the
determinant-congruence solution cap."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analytic import CheckResult
from .boxcount import count_matches
from .ffield import (FpPolynomial, PrimeModulus, check_bytes, count_roots, entry_bytes,
                     int_dtype)
from .ffield import sqrt_mod_int  # noqa: F401  perfbench/layertrace.py traces this alias


@dataclass(frozen=True)
class CongruenceLattice:
    """Gamma = {X in Z^n : sum c_i X_i = 0 (mod p)}, 2 <= n <= 6, p a
    `PrimeModulus` kept as a plain int, with some c_i nonzero mod p: the
    vacuous congruence is refused."""

    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        n = len(self.coeffs)
        if not 2 <= n <= 6:
            raise ValueError(f"dimension must be in [2, 6], got {n}")
        PrimeModulus(self.p)
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))
        if not any(self.coeffs):
            raise ValueError(f"all coefficients divisible by p = {self.p}")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def contains(self, v: Sequence[int]) -> bool:
        return sum(map(operator.mul, self.coeffs, v)) % self.p == 0

    def determinant(self) -> int:
        """Index of Gamma in Z^n."""
        return self.p


@dataclass(frozen=True)
class ConvexBox:
    """D = {x : |x_i| <= halfwidth_i}, a symmetric box body.  The halfwidths
    are also kept as integer numerators `nums` over one denominator `den`,
    h_i = nums_i / den, so scales and volumes need no Fraction arithmetic."""

    halfwidths: tuple
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hw = tuple(map(Fraction, self.halfwidths))
        # denominators are positive, so the sign is the numerator's
        if not hw or min(h.numerator for h in hw) <= 0:
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
        return Fraction(2 ** self.n * math.prod(self.nums), self.den ** self.n)


@dataclass(frozen=True)
class PointCount:
    count: int
    points: np.ndarray | None  # (count, n) int64 when collected


def _half_sums(coords: Sequence[int], d: Sequence[int], bounds: Sequence[int],
               p: int, dtype) -> np.ndarray:
    """sum of (d_j x_j mod p) over every cell of the coordinates coords, in C
    order (last coordinate fastest): congruent to the half-sum, and below
    len(coords) * p.  Each coordinate's row d_j x mod p is built over its own
    range |x| <= bounds[j]."""
    acc = np.zeros(1, dtype=dtype)
    for j in coords:
        row = np.arange(-bounds[j], bounds[j] + 1, dtype=dtype) * d[j] % p
        acc = (acc[:, None] + row).ravel()
    return acc


def _fill_cells(pts: np.ndarray, cells: np.ndarray, coords: Sequence[int],
                bounds: Sequence[int]):
    """Write the digits x_j + bounds[j] of C-order cell indices into the
    columns coords of pts."""
    for j in reversed(coords):
        cells, pts[:, j] = np.divmod(cells, 2 * bounds[j] + 1)


def lattice_points_in_box(lat: CongruenceLattice, box: ConvexBox,
                          scale=1, collect: bool = False) -> PointCount:
    """Exact count of Gamma intersected with scale*D, by a sorted join.

    The pivot is the invertible coordinate of largest range [-b, b].  With
    inv the inverse of its coefficient, the points are every choice of the
    other coordinates with a pivot value x = -inv * sum c_j x_j (mod p).
    The other coordinates split into a query half and a table half: taken
    largest range first, each joins the half with fewer cells so far.  Each
    cell is reduced to its half-sum inv * sum c_j x_j mod p, and the table
    is sorted.  Write 2b+1 = q*p + w: every residue has q representatives
    in [-b, b] and the w residues -b, ..., -b+w-1 one more.  A query u
    therefore meets q*|T| points plus the table values t with
    (b - u - t) mod p < w, one cyclic window of residues, counted by binary
    search:

        count = q*|Q|*|T| + sum over queries of the window hits.

    collect expands the same windows into a (count, n) int64 array.  The
    split leaves each half at most sqrt(F * f_max) cells, with F the free
    cell count and f_max its largest range: when the last range c joined
    the larger half, that half held no more cells than the other, so it
    ends at most c times the other and its square at most F * c.  Unless a
    coordinate of zero coefficient is wider than every other, the pivot
    range is at least f_max, so a count needs O(sqrt(enumeration volume))
    memory.  One call is one enumeration: `successive_minima` makes one per
    doubling scale it reaches, and `cor7_check` none beyond those unless
    its scan ends below scale 1.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    scale = Fraction(scale)
    if scale.numerator < 0:
        raise ValueError("scale must be nonnegative")
    p = lat.p
    num, den = scale.numerator, scale.denominator * box.den
    bounds = [num * h // den for h in box.nums]  # floor(scale * h_i)
    # the coefficients are reduced mod p and not all zero
    pivot = max((j for j, c in enumerate(lat.coeffs) if c), key=bounds.__getitem__)
    inv = pow(lat.coeffs[pivot], -1, p)
    d = [inv * c % p for c in lat.coeffs]
    b = bounds[pivot]
    query, table, nq, nt = [], [], 1, 1
    for j in sorted((j for j in range(lat.n) if j != pivot),
                    key=bounds.__getitem__, reverse=True):
        if nt <= nq:
            table.append(j)
            nt *= 2 * bounds[j] + 1
        else:
            query.append(j)
            nq *= 2 * bounds[j] + 1

    # a row d_j x mod p, |x| <= b_j <= mid, holds no more cells than its
    # half.  Its products stay below mid * p, the half-sums below n * p.
    # Priced: the widest row, its range and products, and six entries a cell
    # of each half (a half, the sorted table, its order and doubled copy,
    # each query's window ends and hits)
    mid = max((bounds[j] for j in query + table), default=0)
    largest = max(mid, lat.n) * p
    dtype = int_dtype(largest)
    size = entry_bytes(dtype, largest)
    check_bytes(f"a join of {nq} by {nt} cells", (3 * (2 * mid + 1) + 6 * (nq + nt)) * size)
    u = _half_sums(query, d, bounds, p, dtype)
    t = _half_sums(table, d, bounds, p, dtype) % p
    order = t.argsort()
    t = t[order]
    q, w = divmod(2 * b + 1, p)
    # the window of a query u is the t with (a - t) mod p < w, a = (b - u)
    # mod p: the values in [a + p - w + 1, a + p] of the sorted t, t + p
    top = (b % p - u) % p + p
    t2 = np.concatenate((t, t + p))
    hi = t2.searchsorted(top, side="right")
    hits = hi - t2.searchsorted(top - (w - 1), side="left")
    count = q * len(u) * len(t) + int(hits.sum())
    if not collect:
        return PointCount(count=count, points=None)

    # the points, six index arrays and two digit arrays of their length
    check_bytes(f"collecting {count} points of Z^{lat.n}", count * (8 * (lat.n + 6) + 2 * size))
    if int_dtype(2 * b) is object:
        raise ValueError(f"collecting pivot digits up to {2 * b} would pass int64")
    # walk each query's table cyclically down from its largest t <= a, at
    # index hi - 1 - |T|: step i meets the pivot x = -b + ((a - t) mod p) +
    # (i // |T|) * p, which increases, and the first per = q*|T| + hits
    # steps are the x in [-b, b].  Those steps are the indices k into t, t + p
    # from hi - per to hi - 1, with i = hi - 1 - k; the rows of a query are
    # consecutive, from cumsum(per) - per, so k = row + hi - cumsum(per).
    # Every coordinate is written as its digit x + bound, then shifted
    per = q * len(t) + hits
    qi = np.arange(len(u)).repeat(per)
    k = (hi - per.cumsum()).repeat(per) + np.arange(count)
    tj = k % len(t)
    digit = (top[qi] - t[tj]) % p
    if q:
        digit += (hi[qi] - 1 - k) // len(t) * p
    inside = int(np.count_nonzero(digit <= 2 * b))
    if inside != count:
        raise RuntimeError(f"window count {count} but {inside} expanded points in the box")
    pts = np.empty((count, lat.n), dtype=np.int64)
    pts[:, pivot] = digit
    _fill_cells(pts, qi, query, bounds)
    _fill_cells(pts, order[tj], table, bounds)
    pts -= np.array(bounds, dtype=np.int64)
    return PointCount(count=count, points=pts)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of the integer rows W, exact: the rank of
    their Gram matrix G = W W^T, so the rows are independent exactly when
    det G != 0.  G is reduced by fraction-free (Bareiss) elimination in
    integers; `_Echelon` reduces the rows of W themselves, so this check of
    the minima witnesses shares no formula with the scan that found them.
    G is positive semidefinite, so pivots are taken on the diagonal: a zero
    diagonal entry of what is left forces its row to vanish, and once every
    remaining diagonal entry is zero the rank is complete."""
    g = [[sum(map(operator.mul, u, v)) for v in rows] for u in rows]
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
    minima and the witnesses carry over from scale to scale.  Each scale is
    one `lattice_points_in_box` call, so a call makes one enumeration per
    scale it reaches, usually one or two.  Its rows are sorted as arrays by
    one `np.lexsort`, and only the rows the scan reaches become Python
    lists.  Of each pair +-v only the row whose first nonzero coordinate is
    negative is scanned; the order meets it first, and -v never grows the
    span.  Spans are tested on an incremental integer echelon basis, O(n^2)
    integer operations per candidate, and the norms are exact fractions.

    When every minimum is asked for, the doubling starts at the first
    scale s of its grid with s^n >= 2^n det(Gamma) / (n! vol D), a lower
    bound on lambda_n^n by Minkowski's second theorem: scales below it
    cannot span.  Each scale's join and points are priced against
    ffield.BYTE_GUARD before they are built, and its scan arrays before
    they are sorted, so a body whose minima need more raises ValueError;
    upto requests only the first few minima, and such a body can still
    report its early ones exactly.
    """
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    n = lat.n if upto is None else min(upto, lat.n)
    if n < 1:
        raise ValueError("upto must be >= 1")
    return _minima_scan(lat, box, n)[0]


def _minima_scan(lat: CongruenceLattice, box: ConvexBox,
                 n: int) -> tuple[MinimaReport, int | None]:
    """The first n minima of `successive_minima`, validated, and
    #(D cap Gamma), read off the first enumeration that holds D (scale >= 1)
    as 2 #{its rows with key <= den} + 1; None when the scan ends below 1."""
    # the scales are 2^e, from the largest 2^e <= 1 whose grid holds at most
    # 10^6 cells prod(2 floor(2^e h_i) + 1).  check_bytes guards each scale;
    # this cap bounds the first one's cost.  A start at Minkowski's lambda_1
    # collects millions of points on degenerate proof bodies, and one at the
    # first nonempty scale triples the enumerations of batch-sized bodies
    e = 0
    while math.prod(2 * (h // (box.den << -e)) + 1 for h in box.nums) > 10 ** 6:
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
    body_count = None  # #(D cap Gamma), once a scale >= 1 is enumerated
    while len(witnesses) < n:
        pts = lattice_points_in_box(lat, box, scale=Fraction(2) ** e, collect=True).points
        # the rows whose first nonzero coordinate is negative: one of each +-v.
        # argmax finds that coordinate (0 in a zero row, which is dropped):
        # a byte an entry and three indices a row, not a sign array like pts
        pts = pts[pts[np.arange(len(pts)), (pts != 0).argmax(axis=1)] < 0]
        # |x_i| <= 2^e * h_i, so no key exceeds top = floor(2^e * den)
        top = den << max(e, 0) >> max(-e, 0)
        dtype = int_dtype(max(*weights, top))
        keys = np.abs(pts, dtype=dtype)  # the products made in place
        keys *= np.array(weights, dtype=dtype)
        keys = keys.max(axis=1)
        if body_count is None and e >= 0:  # 2^e D holds D, whose keys are <= den
            body_count = 2 * int(np.count_nonzero(keys <= den)) + 1
        if scanned >= 0:
            fresh = keys > scanned
            pts, keys = pts[fresh], keys[fresh]
        # the points and keys before and after that filter, and the sorted index
        check_bytes(f"scanning {len(keys)} points",
                    len(keys) * (8 * (2 * lat.n + 1) + 2 * entry_bytes(keys.dtype, top)))
        # sorted by key, then by coordinates 0..n-1: the order of sorted((key, v))
        for i in np.lexsort((*pts.T[::-1], keys)):
            v = pts[i].tolist()
            if span.add(v):
                lambdas.append(Fraction(int(keys[i]), den))
                witnesses.append(tuple(v))
                if len(witnesses) == n:
                    break
        scanned = top
        e += 1
    report = MinimaReport(lambdas=tuple(lambdas), witnesses=tuple(witnesses))
    _validate_minima(lat, box, report, n)
    return report, body_count


def _validate_minima(lat: CongruenceLattice, box: ConvexBox,
                     rep: MinimaReport, n: int):
    lams, wits = rep.lambdas, rep.witnesses
    if not len(lams) == len(wits) == n:
        raise RuntimeError(
            f"expected {n} minima, got {len(lams)} with {len(wits)} witnesses")
    ratios = [(lam.numerator, lam.denominator) for lam in lams]  # lambda = a / b
    if ratios[0][0] <= 0:
        raise RuntimeError(f"first minimum {lams[0]} is not positive")
    if any(a * d > c * b for (a, b), (c, d) in zip(ratios, ratios[1:])):
        raise RuntimeError(f"minima out of order: {lams}")
    for lam, (a, b), w in zip(lams, ratios, wits):
        if not lat.contains(w):
            raise RuntimeError(f"witness {w} is not a lattice vector")
        # |w_i| / h_i = |w_i| den / nums_i against a / b, cross-multiplied:
        # no ratio exceeds lambda and one equals it
        if max(abs(x) * box.den * b - a * h for x, h in zip(w, box.nums)):
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
    compared exactly in integers.  #(D cap Gamma) is read off the minima
    scan's own enumeration of a scale >= 1, so a record costs the minima's
    enumerations alone.  Only a body whose scan ends below scale 1, which
    needs D's grid to hold over 10^6 cells and every minimum below 1, is
    counted by one more join, count-only and priced like the others."""
    if lat.n != box.n:
        raise ValueError("dimension mismatch between lattice and box")
    rep, count = _minima_scan(lat, box, lat.n)
    if count is None:
        count = lattice_points_in_box(lat, box).count
    num = den = 1  # the product, num / den
    for lam in rep.lambdas:
        if lam.numerator < lam.denominator:
            num, den = num * lam.numerator, den * lam.denominator
    bound = double_factorial(2 * lat.n + 1)  # over count
    # int / int true division rounds the exact ratio, as float(Fraction) does
    return Cor7Report(product=num / den, bound=bound / count,
                      ok=num * count <= bound * den, point_count=count, minima=rep)


def minkowski_check(lat: CongruenceLattice, box: ConvexBox,
                    minima: MinimaReport) -> CheckResult:
    """First-minimum form of Minkowski's theorem: lambda_1^n vol(D) <= 2^n det,
    on minima already computed for (lat, box), e.g. `Cor7Report.minima`."""
    lhs = minima.lambdas[0] ** lat.n * box.volume()
    rhs = 2 ** lat.n * lat.determinant()
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

