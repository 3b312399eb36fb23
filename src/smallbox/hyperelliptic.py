"""Odd-degree Weierstrass curves Y^2 = X^(2g+1) + a_(2g-1)X^(2g-1) + ... + a_0
over F_p, identified up to the scaling isomorphism a_i = alpha^(4g+2-2i) b_i.

Provides the orbit machinery (witness scalars, canonical class keys, per-class
counts inside coordinate boxes), exhaustive class censuses with their moment
identities, the quadratic-residue witness construction, the reduction of the
isomorphism count to a two-variable power congruence, and the bound
evaluators for per-class counts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffield import (INT64_P_LIMIT, FpElement, FpPolynomial, PrimeModulus,
                     discriminant, is_qr, match_count, poly_values, QrStatus)
from .ffield import sqrt_mod_int  # noqa: F401  re-exported for existing importers

DEFAULT_EPS = 0.05
CENSUS_CELL_GUARD = 10 ** 9

# numpy paths multiply two residues inside int64
_NUMPY_P_LIMIT = INT64_P_LIMIT
# class keys per singularity-filter pass: (2g+1)^2 matrix entries per key
_FILTER_SLICE = 1 << 15


@dataclass(frozen=True)
class CurveVector:
    """Coefficient vector (a_0, ..., a_(2g-1)) of a genus-g Weierstrass curve."""

    g: int
    a: tuple[int, ...]
    modulus: PrimeModulus

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if len(self.a) != 2 * self.g:
            raise ValueError(f"need 2g = {2 * self.g} coefficients, got {len(self.a)}")
        p = self.modulus.p
        object.__setattr__(self, "a", tuple(c % p for c in self.a))

    def weierstrass_polynomial(self) -> FpPolynomial:
        """X^(2g+1) + a_(2g-1) X^(2g-1) + ... + a_1 X + a_0 (no X^(2g) term)."""
        return FpPolynomial(self.a + (0, 1), self.modulus)

    def is_nonsingular(self) -> bool:
        return not discriminant(self.weierstrass_polynomial()).is_zero()

    def elements(self) -> tuple[FpElement, ...]:
        return tuple(FpElement(c, self.modulus) for c in self.a)


@dataclass(frozen=True)
class CubeBox:
    """Product box [R_0+1, R_0+M] x ... x [R_(2g-1)+1, R_(2g-1)+M].

    Offsets are nonnegative and R_j + M < p, so every coordinate of every
    vector in the box is nonzero mod p.
    """

    g: int
    R: tuple[int, ...]
    M: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if len(self.R) != 2 * self.g:
            raise ValueError(f"need 2g = {2 * self.g} offsets, got {len(self.R)}")
        if any(not isinstance(r, int) or r < 0 for r in self.R):
            raise ValueError("box offsets must be nonnegative integers")
        if self.M < 1:
            raise ValueError("empty box: side length M must be >= 1")

    def validate_for(self, p: int):
        for j, r in enumerate(self.R):
            if r + self.M >= p:
                raise ValueError(
                    f"coordinate {j}: [{r + 1},{r + self.M}] exceeds [0,{p})")

    def lows(self) -> tuple[int, ...]:
        return tuple(r + 1 for r in self.R)

    def highs(self) -> tuple[int, ...]:
        return tuple(r + self.M for r in self.R)

    def cell_count(self) -> int:
        return self.M ** (2 * self.g)

    def vectors(self):
        """Odometer enumeration, coordinates ascending, first coordinate slowest."""
        return itertools.product(*[range(r + 1, r + self.M + 1) for r in self.R])


def scaling_exponents(g: int) -> tuple[int, ...]:
    """Exponent of alpha applied to coordinate i: 4g+2-2i, for i = 0..2g-1."""
    return tuple(4 * g + 2 - 2 * i for i in range(2 * g))


def apply_scaling(b: CurveVector, alpha: int) -> CurveVector:
    p = b.modulus.p
    exps = scaling_exponents(b.g)
    return CurveVector(b.g, tuple(pow(alpha, e, p) * c % p for e, c in zip(exps, b.a)),
                       b.modulus)


@lru_cache(maxsize=32)
def _power_table(p: int, g: int) -> np.ndarray:
    """Row alpha-1 holds (alpha^(4g+2-2i) mod p) for i = 0..2g-1, alpha in F_p^*."""
    alphas = np.arange(1, p, dtype=np.int64)
    a2 = alphas * alphas % p
    cols = [None] * (2 * g)
    w = a2.copy()  # (alpha^2)^1
    for k in range(2, 2 * g + 2):  # exponent k of alpha^2; coordinate i = 2g+1-k
        w = w * a2 % p
        cols[2 * g + 1 - k] = w.copy()
    return np.stack(cols, axis=1)


def _check_pair(a: CurveVector, b: CurveVector):
    if a.g != b.g or a.modulus != b.modulus:
        raise ValueError("genus/modulus mismatch")


def isomorphism_scalars(a: CurveVector, b: CurveVector) -> set[FpElement]:
    """All alpha in F_p^* with a_i = alpha^(4g+2-2i) b_i for every i.

    Nonempty exactly when the two vectors are isomorphic.  Singular vectors
    are allowed; the relation is purely coefficient-wise.
    """
    _check_pair(a, b)
    p = a.modulus.p
    if p <= _NUMPY_P_LIMIT:
        tab = _power_table(p, a.g)
        orbit = tab * np.asarray(b.a, dtype=np.int64) % p
        mask = (orbit == np.asarray(a.a, dtype=np.int64)).all(axis=1)
        return {FpElement(int(al), a.modulus) for al in np.flatnonzero(mask) + 1}
    exps = scaling_exponents(a.g)
    out = set()
    for al in range(1, p):
        if all(pow(al, e, p) * bc % p == ac for e, bc, ac in zip(exps, b.a, a.a)):
            out.add(FpElement(al, a.modulus))
    return out


def _orbit_rows(b: CurveVector) -> np.ndarray:
    tab = _power_table(b.modulus.p, b.g)
    return tab * np.asarray(b.a, dtype=np.int64) % b.modulus.p


def canonical_representative(a: CurveVector) -> CurveVector:
    """Lexicographically smallest vector in the scaling orbit of a.

    Idempotent; two vectors share a canonical representative exactly when
    they are isomorphic.  Works for singular and zero vectors too.
    """
    p = a.modulus.p
    if p <= _NUMPY_P_LIMIT and p ** (2 * a.g) < 2 ** 63:
        orbit = _orbit_rows(a)
        place = np.array([p ** (2 * a.g - 1 - j) for j in range(2 * a.g)],
                         dtype=np.int64)
        best = int(np.argmin(orbit @ place))
        return CurveVector(a.g, tuple(int(c) for c in orbit[best]), a.modulus)
    exps = scaling_exponents(a.g)
    best_vec = a.a
    for al in range(2, p):
        cand = tuple(pow(al, e, p) * c % p for e, c in zip(exps, a.a))
        if cand < best_vec:
            best_vec = cand
    return CurveVector(a.g, best_vec, a.modulus)


def _count_orbit_in_box(b: CurveVector, box: CubeBox) -> int:
    """Distinct orbit members of b inside box: walks alpha in F_p^*, divides
    the hit count by the stabilizer order (the walk covers each distinct
    vector equally often)."""
    p = b.modulus.p
    lo, hi = box.lows(), box.highs()
    if p <= _NUMPY_P_LIMIT:
        orbit = _orbit_rows(b)
        lo_a = np.asarray(lo, dtype=np.int64)
        hi_a = np.asarray(hi, dtype=np.int64)
        hits = int(((orbit >= lo_a) & (orbit <= hi_a)).all(axis=1).sum())
        stab = int((orbit == np.asarray(b.a, dtype=np.int64)).all(axis=1).sum())
    else:
        exps = scaling_exponents(b.g)
        hits = stab = 0
        for al in range(1, p):
            row = tuple(pow(al, e, p) * c % p for e, c in zip(exps, b.a))
            if all(l <= v <= h for v, l, h in zip(row, lo, hi)):
                hits += 1
            if row == b.a:
                stab += 1
    if hits % stab != 0:
        raise RuntimeError("orbit walk inconsistent with stabilizer order")
    return hits // stab


def count_isomorphic_in_box(b: CurveVector, box: CubeBox) -> int:
    """Exact number of vectors in the box isomorphic to b (cost O(p*g),
    independent of the box volume).  Agrees with the brute-force box scan."""
    if box.g != b.g:
        raise ValueError("genus mismatch between vector and box")
    box.validate_for(b.modulus.p)
    if not b.is_nonsingular():
        raise ValueError("singular curve vector")
    return _count_orbit_in_box(b, box)


@dataclass(frozen=True)
class ClassCensus:
    class_count: int
    total_nonsingular: int
    second_moment: int
    max_class_size: int
    box_size: int
    singular_count: int
    class_sizes: dict  # canonical vector tuple -> class size


def _census_chunk_keys(grid: np.ndarray, p: int, g: int) -> np.ndarray:
    """Canonical (lex-min over the orbit) key of every vector in grid."""
    tab = _power_table(p, g)
    place = np.array([p ** (2 * g - 1 - j) for j in range(2 * g)], dtype=np.int64)
    orbit = tab[:, None, :] * grid[None, :, :] % p  # (p-1, n, 2g)
    return (orbit @ place).min(axis=0)


def nonsingular_mask(a, p: int) -> np.ndarray:
    """Row k of a holds (a_0, ..., a_(2g-1)); True where the curve
    Y^2 = f(X) = X^(2g+1) + a_(2g-1) X^(2g-1) + ... + a_0 is nonsingular.

    f is monic, so the m x m Bezout matrix of f and f' (m = 2g+1) has
    determinant +-Res(f, f'), zero mod p exactly when f has a repeated root
    (also when p divides m and f' loses its top term).  Every row is decided
    at once by fraction-free elimination mod p with a pivot row chosen per
    matrix: row_r <- row_r * piv - row_c * a_rc, which scales the
    determinant by a nonzero factor and needs no inverse.  int64 while
    p < INT64_P_LIMIT, Python integers (dtype object) above, same code.
    """
    dtype = np.int64 if p < INT64_P_LIMIT else object
    a = np.asarray(a).astype(dtype).T % p  # keys last: every step runs along them
    m, n = len(a) + 1, a.shape[1]
    f = np.zeros((m + 1, n), dtype=dtype)
    f[:m - 1] = a
    f[m] = 1
    df = np.zeros((m + 1, n), dtype=dtype)
    df[:m] = f[1:] * np.arange(1, m + 1).astype(dtype)[:, None] % p
    # (f(x) f'(y) - f(y) f'(x)) / (x - y): the pair of degrees hi > lo adds
    # (f_hi f'_lo - f_lo f'_hi) x^(lo+k) y^(hi-1-k) for k < hi - lo
    bez = np.zeros((m, m, n), dtype=dtype)
    for hi in range(1, m + 1):
        for lo in range(hi):
            c = (f[hi] * df[lo] - f[lo] * df[hi]) % p
            for k in range(hi - lo):
                bez[lo + k, hi - 1 - k] += c
    bez %= p
    alive = np.ones(n, dtype=bool)
    keys = np.arange(n)
    for c in range(m):
        nonzero = bez[c:, c] != 0
        alive &= nonzero.any(axis=0)
        piv = c + nonzero.argmax(axis=0)
        top = bez[piv, :, keys]  # (n, m): the pivot row of every matrix
        bez[piv, :, keys] = bez[c].T
        bez[c] = top.T
        # column c below the pivot becomes zero and is never read again
        bez[c + 1:, c + 1:] = (bez[c + 1:, c + 1:] * bez[c, c]
                               - bez[c, c + 1:] * bez[c + 1:, c:c + 1]) % p
    return alive


def class_census(modulus: PrimeModulus, box: CubeBox, *,
                 cell_guard: int = CENSUS_CELL_GUARD) -> ClassCensus:
    """Exhaustive census of isomorphism classes meeting the box.

    Enumerates every vector of the box, groups them by canonical
    representative, drops the singular classes in one `nonsingular_mask`
    pass and reports the class count, the first and second moments of the
    class sizes and the largest class.  The number of singular vectors is
    reported so the box volume is fully accounted for.
    """
    p = modulus.p
    box.validate_for(p)
    cells = box.cell_count()
    if cells > cell_guard:
        raise ValueError(
            f"box holds {cells} vectors, above the guard {cell_guard}; "
            "sample smaller sub-boxes instead")
    g = box.g
    if p <= _NUMPY_P_LIMIT and p ** (2 * g) < 2 ** 63:
        axes = [np.arange(r + 1, r + box.M + 1, dtype=np.int64) for r in box.R]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * g)
        # slice the enumeration so orbit tensors stay modest
        chunk = max(1, int(3e7) // ((p - 1) * 2 * g))
        keys, counts = np.unique(
            np.concatenate([_census_chunk_keys(grid[s:s + chunk], p, g)
                            for s in range(0, len(grid), chunk)]),
            return_counts=True)
        digits = []
        for _ in range(2 * g):
            keys, r = np.divmod(keys, p)
            digits.append(r)
        rows = np.stack(digits[::-1], axis=1)
    else:
        key_counts = Counter(canonical_representative(CurveVector(g, vec, modulus)).a
                             for vec in box.vectors())
        rows = np.array(list(key_counts), dtype=object).reshape(-1, 2 * g)
        counts = np.array(list(key_counts.values()), dtype=np.int64)
    keep = np.concatenate([nonsingular_mask(rows[s:s + _FILTER_SLICE], p)
                           for s in range(0, len(rows), _FILTER_SLICE)])
    sizes = dict(zip(map(tuple, rows[keep].tolist()), counts[keep].tolist()))
    return ClassCensus(
        class_count=len(sizes),
        total_nonsingular=sum(sizes.values()),
        second_moment=sum(n * n for n in sizes.values()),
        max_class_size=max(sizes.values(), default=0),
        box_size=cells,
        singular_count=int(counts[~keep].sum()),
        class_sizes=sizes,
    )


@dataclass(frozen=True)
class SharpnessReport:
    curve: CurveVector
    witness_count: int  # #A, twice the number of residues used
    residue_count: int  # #Q
    isomorphic_count: int  # N(H; [1,M]^2g)
    attained: bool  # isomorphic_count >= witness_count


def sharpness_witness(modulus: PrimeModulus, M: int, g: int) -> SharpnessReport:
    """Witness construction for the all-ones curve in the box [1, M]^(2g).

    Q is the set of quadratic residues among [1, floor(M^(1/(2g+1)))] and
    A = {alpha : alpha^2 mod p in Q}; every alpha in A lands the scaled
    vector inside the box, and #A = 2 #Q.  Both #A and the exact isomorphic
    count are returned; distinct residues give distinct vectors while the
    two roots of each residue collapse onto one, so the comparison of the
    two numbers is reported, not enforced.
    """
    p = modulus.p
    if M < 1:
        raise ValueError("M >= 1 required")
    if M >= p:
        raise ValueError(f"box [1,{M}] invalid for p={p}")
    b = CurveVector(g, (1,) * (2 * g), modulus)
    box = CubeBox(g, (0,) * (2 * g), M)
    # integer floor of M^(1/(2g+1))
    lim = 1
    while (lim + 1) ** (2 * g + 1) <= M:
        lim += 1
    residues = [q for q in range(1, lim + 1)
                if is_qr(q, modulus) is QrStatus.RESIDUE]
    qset = set(residues)
    witness = sum(1 for al in range(1, p) if al * al % p in qset)
    if witness != 2 * len(residues):
        raise RuntimeError("root pairing violated")  # each residue has two roots
    n_count = _count_orbit_in_box(b, box)
    return SharpnessReport(curve=b, witness_count=witness,
                           residue_count=len(residues), isomorphic_count=n_count,
                           attained=n_count >= witness)


@dataclass(frozen=True)
class PowerCongruence:
    multiplier: FpElement  # lambda
    x_offset: int  # R, window of the degree-(2g+1-h) coordinate
    y_offset: int  # S, window of the degree-(2g-1) coordinate
    side: int
    solution_count: int  # solutions of Y^h = lambda X^2 in the window
    reduced_index: int  # 2g+1-h, the coordinate paired with a_(2g-1)


def reduce_to_power_congruence(b: CurveVector, h: int, box: CubeBox) -> PowerCongruence:
    """Reduce membership of the orbit of b in the box to the two-variable
    congruence Y^h = lambda X^2 (mod p).

    Scaling sends the (2g-1) coordinate to alpha^4 b_(2g-1) and the
    (2g+1-h) coordinate to alpha^(2h) b_(2g+1-h), so along the orbit
    a_(2g-1)^h / a_(2g+1-h)^2 is constant, equal to
    lambda = b_(2g-1)^h / b_(2g+1-h)^2.  Every vector of the box isomorphic
    to b therefore yields a solution (X, Y) = (a_(2g+1-h), a_(2g-1)) of the
    congruence inside the corresponding coordinate windows, and the exact
    solution count bounds the isomorphic count from above.
    """
    g = b.g
    if box.g != g:
        raise ValueError("genus mismatch between vector and box")
    if not 2 <= h <= 2 * g + 1:
        raise ValueError(f"h must lie in [2, {2 * g + 1}], got {h}")
    p = b.modulus.p
    box.validate_for(p)
    i_low = 2 * g + 1 - h
    b_hi, b_lo = b.a[2 * g - 1], b.a[i_low]
    if b_hi == 0 or b_lo == 0:
        raise ValueError("coefficients b_(2g-1) and b_(2g+1-h) must be nonzero")
    lam = pow(b_hi, h, p) * pow(b_lo * b_lo % p, -1, p) % p
    R, S, M = box.R[i_low], box.R[2 * g - 1], box.M
    # X^2 = lambda^-1 Y^h, joined over the two coordinate windows
    inv_lam = pow(lam, -1, p)
    count = match_count(poly_values((0, 0, 1), range(R + 1, R + M + 1), p),
                        poly_values((0,) * h + (inv_lam,), range(S + 1, S + M + 1), p))
    return PowerCongruence(multiplier=FpElement(lam, b.modulus), x_offset=R,
                           y_offset=S, side=M, solution_count=count,
                           reduced_index=i_low)


@dataclass(frozen=True)
class ClassBound:
    value: float
    branch: str


def bound_N(M: int, p: int, g: int, h: int | None = None,
            eps: float = DEFAULT_EPS) -> ClassBound:
    """Upper-bound evaluator for the per-class count N inside a side-M box.

    Two branches: the odd-exponent reduction (h odd, 3 <= h <= 2g+1) giving
    (M^(1/h) + M (M^4/p)^(2/(h(h+1)))) M^eps, and the genus >= 2 branch
    giving M^2/p + M^(1/2+eps).  Returns the smaller applicable value and
    which branch produced it.
    """
    if M < 1:
        raise ValueError("M >= 1 required")
    candidates = []
    if h is not None and h % 2 == 1 and 3 <= h <= 2 * g + 1:
        v = (M ** (1 / h) + M * (M ** 4 / p) ** (2 / (h * (h + 1)))) * M ** eps
        candidates.append((v, f"odd-exponent h={h}"))
    if g >= 2:
        v = M * M / p + M ** (0.5 + eps)
        candidates.append((v, "genus>=2"))
    if not candidates:
        raise ValueError(f"no bound branch applies for g={g}, h={h}")
    value, branch = min(candidates, key=lambda t: t[0])
    return ClassBound(value=value, branch=branch)
