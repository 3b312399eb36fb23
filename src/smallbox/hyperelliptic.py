"""Odd-degree Weierstrass curves Y^2 = X^(2g+1) + a_(2g-1)X^(2g-1) + ... + a_0
over F_p, identified up to the scaling isomorphism a_i = alpha^(4g+2-2i) b_i.

Provides the orbit machinery (witness scalars, canonical class keys, per-class
counts inside coordinate boxes), exhaustive class censuses with their moment
identities, the quadratic-residue witness construction, the reduction of the
isomorphism count to a two-variable power congruence, and the bound
evaluators for per-class counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ffield
from .boxcount import DEFAULT_EPS, BoundReport, count_matches, list_matches
from .ffield import (FpPolynomial, PrimeModulus, discriminant, entry_bytes, int_dtype,
                     residue_dtype, roots_mod, run_starts, sqrt_mod_int)

# bytes the arrays of one census keying or singularity-filter slice may hold
_SLICE_BYTES = 1 << 23
# arrays of a slice's entry count alive at once, at the tracemalloc peak of a
# keying slice (max(M^(2g-1), d/2 M) entries a (box, v0) row; at g = 1 the v1
# candidates of this slice and the last, with windows and least digits) and
# of a `nonsingular_mask` pass (the Bezout stack and its elimination products)
_KEY_TEMPS = 3
_FILTER_TEMPS = 4


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
        return discriminant(self.weierstrass_polynomial()) != 0


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


def _scaled_rows(alphas, g: int, p: int) -> np.ndarray:
    """Row j holds alpha_j^(4g+2-2i) mod p for i = 1..2g-1, the scalings of
    every coordinate after the first, of residue_dtype(p)."""
    beta = np.asarray(alphas, dtype=residue_dtype(p)).reshape(-1)
    beta = beta * beta % p
    cols, w = [], beta
    for _ in range(2 * g - 1):  # beta^2, ..., beta^(2g): coordinates 2g-1 down to 1
        w = w * beta % p
        cols.append(w)
    return np.stack(cols[::-1], axis=1)


def _coset_minima(cs, d: int, p: int) -> list[int]:
    """For each nonzero c of cs, the smallest x >= 1 with x/c a d-th power
    mod p (d | p-1): the least member of c's coset of the d-th powers."""
    e = (p - 1) // d
    chars = [pow(c, e, p) for c in cs]
    first: dict[int, int] = {}
    missing, x = set(chars), 0
    while missing:  # ends by x = c at the latest
        x += 1
        ch = pow(x, e, p)
        first.setdefault(ch, x)
        missing.discard(ch)
    return [first[ch] for ch in chars]


def _check_pair(a: CurveVector, b: CurveVector):
    if a.g != b.g or a.modulus != b.modulus:
        raise ValueError("genus/modulus mismatch")


def isomorphism_scalars(a: CurveVector, b: CurveVector) -> set[int]:
    """All alpha in F_p^* with a_i = alpha^(4g+2-2i) b_i for every i.

    Nonempty exactly when the two vectors are isomorphic.  Singular vectors
    are allowed; the relation is purely coefficient-wise.  The zero patterns
    must match; the candidates are the e-th roots of x/y on the nonzero
    coordinate (x, y) of least gcd(e, p-1), each checked on every
    coordinate.  The all-zero pair gets all of F_p^*.
    """
    _check_pair(a, b)
    p, exps = a.modulus.p, scaling_exponents(a.g)
    if any((x == 0) != (y == 0) for x, y in zip(a.a, b.a)):
        return set()
    # alpha^(p-1) = 1 for every alpha, the all-zero pair's only relation
    e0, x0, y0 = min(((e, x, y) for e, x, y in zip(exps, a.a, b.a) if y),
                     key=lambda exy: math.gcd(exy[0], p - 1), default=(p - 1, 1, 1))
    return {al for al in roots_mod(x0 * pow(y0, -1, p) % p, e0, p)
            if all(pow(al, e, p) * y % p == x for e, x, y in zip(exps, a.a, b.a))}


def canonical_representative(a: CurveVector) -> CurveVector:
    """Lexicographically smallest vector in the scaling orbit of a.

    Idempotent; two vectors share a canonical representative exactly when
    they are isomorphic.  Works for singular and zero vectors too.  The
    first nonzero coordinate a_i0 is scaled by alpha^e (e = 4g+2-2i0), so
    its orbit is the coset of a_i0 modulo the d-th powers, d = gcd(e, p-1);
    its least member x fixes alpha up to the d roots of alpha^e = x/a_i0,
    and the key is the lex-min over those candidates.
    """
    p, exps = a.modulus.p, scaling_exponents(a.g)
    nonzero = [(e, c) for e, c in zip(exps, a.a) if c]
    if not nonzero:
        return a
    e0, c0 = nonzero[0]
    x, = _coset_minima([c0], math.gcd(e0, p - 1), p)
    return CurveVector(a.g, min(tuple(pow(al, e, p) * c % p for e, c in zip(exps, a.a))
                                for al in roots_mod(x * pow(c0, -1, p) % p, e0, p)),
                       a.modulus)


def _count_orbit_in_box(b: CurveVector, box: CubeBox) -> int:
    """Distinct orbit members of b inside box, counted through the h = 3
    power congruence on the last two coordinates.

    With beta = alpha^2, coordinates 2g-2 and 2g-1 scale by beta^3 and
    beta^2, so every orbit member in the box gives a solution (X, Y) of
    Y^3 b_(2g-2)^2 = X^2 b_(2g-1)^3 in their two windows, listed by one
    sorted join (`list_matches`; at most 3 Y per X).  A solution fixes
    beta = X b_(2g-1) / (Y b_(2g-2)) and with it the whole vector
    beta^(2g+1-i) b_i, an orbit member in the box exactly when beta is a
    square (Euler's criterion) and every other coordinate lies in its
    window; so each member is met once.  Each counted vector is rebuilt
    from alpha, a square root of beta, as alpha^(4g+2-2i) b_i, a formula
    the join never uses; a mismatch raises RuntimeError.  Cost O(M log M)
    for the join, one inverse and one power per solution (about M^2/p of
    them, at most 3M) and one square root per counted vector."""
    p, n = b.modulus.p, 2 * b.g
    if 0 in b.a:  # the orbit keeps zero coordinates; the box has none
        return 0
    lo, hi = box.lows(), box.highs()
    b_x, b_y = b.a[n - 2], b.a[n - 1]
    xs, ys = list_matches((0, 0, pow(b_y, 3, p)), (0, 0, 0, b_x * b_x % p),
                          range(lo[n - 2], hi[n - 2] + 1), range(lo[n - 1], hi[n - 1] + 1), p)
    exps = scaling_exponents(b.g)
    half = (p - 1) // 2
    others = [(b.a[i], lo[i], hi[i]) for i in range(n - 3, -1, -1)]
    count = 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        beta = x * b_y * pow(y * b_x, -1, p) % p
        if pow(beta, half, p) != 1:  # Euler: beta is no alpha^2
            continue
        v, w = [y, x], beta * beta * beta % p  # coordinates 2g-1 down to 0
        for c, low, high in others:  # coordinate i scales by beta^(2g+1-i)
            w = w * beta % p
            if not low <= (a := w * c % p) <= high:
                break
            v.append(a)
        else:
            al = roots_mod(beta, 2, p)
            if not al or [pow(al[0], e, p) * c % p for e, c in zip(exps, b.a)] != v[::-1]:
                raise RuntimeError(f"orbit of {b.a} in the box: {v[::-1]} is not a "
                                   f"square root's scaling of b, beta = {beta}")
            count += 1
    return count


def count_isomorphic_in_box(b: CurveVector, box: CubeBox) -> int:
    """Exact number of vectors in the box isomorphic to b: one sorted join
    of the last two coordinates' windows, O(M log M), then O(g log p) per
    solution of their power congruence (about M^2/p) and one square root
    per counted vector, independent of the rest of the box volume and of
    p's size beyond log p.  Agrees with the brute-force box scan."""
    if box.g != b.g:
        raise ValueError("genus mismatch between vector and box")
    box.validate_for(b.modulus.p)
    if not b.is_nonsingular():
        raise ValueError("singular curve vector")
    return _count_orbit_in_box(b, box)


@dataclass(frozen=True, eq=False)
class ClassCensus:
    """Census of one box.  The nonsingular classes stay arrays (`keys`,
    canonical vectors packed as base-p integers, coordinate 0 most
    significant, in ascending order, and `sizes`) until `class_sizes` is
    read; censuses compare by identity.  The censuses of one batch hold
    views of one shared pair of arrays."""

    class_count: int
    total_nonsingular: int
    second_moment: int
    max_class_size: int
    box_size: int
    singular_count: int
    keys: np.ndarray
    sizes: np.ndarray
    g: int
    p: int

    @functools.cached_property
    def class_sizes(self) -> dict:
        """Canonical vector tuple -> class size, built on first read."""
        rows = _key_rows(self.keys, 2 * self.g, self.p)
        return dict(zip(map(tuple, rows.tolist()), self.sizes.tolist()))


def nonsingular_mask(a, p: int) -> np.ndarray:
    """Row k of a holds (a_0, ..., a_(2g-1)); True where the curve
    Y^2 = f(X) = X^(2g+1) + a_(2g-1) X^(2g-1) + ... + a_0 is nonsingular.

    f is monic, so the m x m Bezout matrix of f and f' (m = 2g+1) has
    determinant +-Res(f, f'), zero mod p exactly when f has a repeated root
    (also when p divides m and f' loses its top term).  Every row is decided
    at once by fraction-free elimination mod p with a pivot row chosen per
    matrix: row_r <- row_r * piv - row_c * a_rc, which scales the
    determinant by a nonzero factor and needs no inverse.  Runs in
    residue_dtype(p), same code at every p.
    """
    dtype = residue_dtype(p)
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
    for c in range(m):
        nonzero = bez[c:, c] != 0
        alive &= nonzero.any(axis=0)
        piv = c + nonzero.argmax(axis=0)
        moved = (piv != c).nonzero()[0]  # most pivots stay on the diagonal
        if len(moved):
            low = piv[moved]
            top = bez[low, :, moved]  # (moved, m): their pivot rows
            bez[low, :, moved] = bez[c, :, moved]
            bez[c, :, moved] = top
        # column c below the pivot becomes zero and is never read again
        bez[c + 1:, c + 1:] = (bez[c + 1:, c + 1:] * bez[c, c]
                               - bez[c, c + 1:] * bez[c + 1:, c:c + 1]) % p
    return alive


def _slice_len(entries: int, nbytes: int, temps: int) -> int:
    """Items per slice so that `temps` arrays of `entries` entries of
    `nbytes` per item fit in _SLICE_BYTES."""
    return max(1, _SLICE_BYTES // (entries * nbytes * temps))


def _key_rows(keys: np.ndarray, n: int, p: int) -> np.ndarray:
    """Unpack base-p keys into rows of n digits, most significant first."""
    rows = np.empty((len(keys), n), dtype=keys.dtype)
    for j in range(n - 1, -1, -1):
        rows[:, j] = keys % p
        keys = keys // p
    return rows


def _packed_keys(boxes: list[CubeBox], p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical key of every vector of every box, box after box, each box's
    keys ascending, packed as the base-p integer of its 2g coordinates
    (coordinate 0 most significant, so integer order is lex order).

    Every coordinate of a box is nonzero, so a vector's key starts with the
    least member x of the coset of its first coordinate v0 modulo the d-th
    powers (d = gcd(4g+2, p-1)), reached by the d roots alpha_c of
    alpha^(4g+2) = x/v0, found once for each distinct v0 of all the boxes
    (-alpha acts as alpha, so half of them suffice).  Their squares
    beta_0 zeta (zeta^(d/2) = 1) multiply v1 by beta_0^(2g) zeta^(-1), so
    the d/2 candidate digits of v1 differ: the least is digit 1, and its c
    scales the rest, digit j being alpha_c^(4g+2-2j) v_j mod p.  A
    (box, v0) row of keys is the broadcast sum of x, that least digit and
    one (M, M) table per later coordinate.  Boxes of equal side that follow
    each other form one (boxes, M^(2g)) block, keyed in slices of whole
    rows sized from the real entry size and sorted along its rows in one
    call.  Keys are `int_dtype(p^(2g))`.  Returns the keys and the offset
    of each box's first key (plus the end).
    """
    g = boxes[0].g
    n = 2 * g
    kdtype = int_dtype(p ** n)  # keys are below p^n
    d = math.gcd(4 * g + 2, p - 1)
    v0s = sorted({v0 for b in boxes for v0 in range(b.R[0] + 1, b.R[0] + b.M + 1)})
    minima = _coset_minima(v0s, d, p)
    alphas = [al for v0, x in zip(v0s, minima)
              for al in roots_mod(x * pow(v0, -1, p) % p, 4 * g + 2, p) if 2 * al < p]
    scal = _scaled_rows(alphas, g, p).reshape(len(v0s), d // 2, n - 1)  # coordinates 1..n-1
    xs = np.array(minima, dtype=kdtype) * p ** (n - 1)  # digit 0: x
    # candidates are scal.dtype and keys kdtype: an object entry if either is
    entry = entry_bytes(np.result_type(kdtype, scal.dtype), p ** n)
    offsets = np.concatenate(([0], np.cumsum([b.cell_count() for b in boxes])))
    keys = np.empty(offsets[-1], dtype=kdtype)
    done = 0
    for M, group in itertools.groupby(boxes, key=lambda b: b.M):
        lows = np.array([b.lows() for b in group], dtype=np.int64)
        block = keys[done:done + len(lows) * M ** n]
        done += len(block)
        rows, width = len(lows) * M, M ** (n - 1)
        step = _slice_len(max(width, d // 2 * M), entry, _KEY_TEMPS)
        for start in range(0, rows, step):
            box, i = np.divmod(np.arange(start, min(rows, start + step)), M)
            row = np.searchsorted(v0s, lows[box, 0] + i)  # scal's row of each (box, v0)
            win = lows[box, 1:, None] + np.arange(M)  # windows of v1 .. v_(2g-1)
            c1 = scal[row, :, 0, None] * win[:, None, 0]  # (rows, d/2, M)
            c1 %= p
            digit = c1.min(axis=1).astype(kdtype, copy=False)
            if n > 2:
                digit *= p ** (n - 2)
                best = row[:, None], c1.argmin(axis=1)  # (rows, M): v1's scaling
            out = block[start * width:][:len(row) * width].reshape((len(row),) + (M,) * (n - 1))
            np.add(xs[row, None, None], digit[:, :, None], out=out.reshape(len(row), M, -1))
            for j in range(2, n):  # digit j broadcast along (box, v0), v1 and v_j
                digit = scal[best + (j - 1,)][:, :, None] * win[:, None, j - 1] % p
                digit = digit.astype(kdtype, copy=False) * p ** (n - 1 - j)
                out += digit.reshape(digit.shape[:2] + (1,) * (j - 2) + (M,) + (1,) * (n - 1 - j))
        block.reshape(len(lows), M ** n).sort(axis=1)  # a box's equal keys become one run
    return keys, offsets


def class_censuses(modulus: PrimeModulus, boxes) -> list[ClassCensus]:
    """Exhaustive census of the isomorphism classes meeting each box, for
    many boxes of one genus in one pass.

    Takes the boxes in order of side (a stable sort) and keys every vector
    of every box by its packed canonical representative (`_packed_keys`:
    one root extraction of O(log p) per distinct value of the first
    coordinate over all the boxes, one minimum over v1's d/2 candidate
    digits per (box, v0) row, then only adds, never O(p)), with the keys of
    each side sorted box by box in one sort.  It
    groups equal runs in one pass over all the boxes, and decides
    singularity once per distinct key of all the boxes in
    `nonsingular_mask` passes; each box looks its verdicts up by binary
    search.  Per box it reports the class count, the first and second
    moments of the class sizes, the largest class and the number of
    singular vectors, so the box volume is fully accounted for.  The
    per-class sizes stay arrays until `class_sizes` is read.  The censuses
    come back in the order of the boxes.  Raises ValueError on an empty
    batch, mixed genera, or a batch whose arrays would pass
    ffield.BYTE_GUARD bytes.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("class_censuses needs at least one box")
    genera = sorted({box.g for box in boxes})
    if len(genera) > 1:
        raise ValueError(f"class_censuses needs boxes of one genus, got genera {genera}")
    p, g = modulus.p, genera[0]
    for box in boxes:
        box.validate_for(p)
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].M)
    boxes = [boxes[i] for i in order]  # boxes of one side form one block
    vectors = sum(b.cell_count() for b in boxes)
    # at most five arrays of the batch's length at once (the keys and two
    # copies, sharing one Python integer a key at dtype object; two int64
    # arrays; a bool mask) beside one slice's arrays
    top = p ** (2 * g)  # keys are below p^(2g)
    nbytes = vectors * (entry_bytes(int_dtype(top), top) + 4 * 8 + 1) + _SLICE_BYTES
    if nbytes > ffield.BYTE_GUARD:
        raise ValueError(
            f"census of {vectors} vectors needs {nbytes} bytes, above the "
            f"guard of {ffield.BYTE_GUARD} bytes; sample smaller sub-boxes instead")
    # each array is dropped once used: the peak sets the process's RSS
    keys, offsets = _packed_keys(boxes, p)
    first = run_starts(keys, offsets)
    ukeys = keys[first]
    del keys
    counts = np.diff(np.concatenate((first, offsets[-1:])))
    starts = np.searchsorted(first, offsets[:-1])  # each box's first run
    del first
    distinct = np.sort(ukeys)
    distinct = distinct[run_starts(distinct, [0, len(distinct)])]
    step = _slice_len((2 * g + 1) ** 2, entry_bytes(residue_dtype(p), p * p), _FILTER_TEMPS)
    verdict = np.concatenate([nonsingular_mask(_key_rows(distinct[s:s + step], 2 * g, p), p)
                              for s in range(0, len(distinct), step)])
    keep = verdict[np.searchsorted(distinct, ukeys)]
    del distinct, verdict
    kept = np.where(keep, counts, 0)
    class_count = np.add.reduceat(keep, starts).tolist()
    total = np.add.reduceat(kept, starts).tolist()
    second = np.add.reduceat(kept * kept, starts).tolist()
    largest = np.maximum.reduceat(kept, starts).tolist()
    singular = np.add.reduceat(counts - kept, starts).tolist()
    del kept
    # every census holds views of one array of kept keys and one of sizes
    ukeys, counts = ukeys[keep], counts[keep]
    bounds = np.cumsum([0] + class_count).tolist()
    censuses = [ClassCensus(class_count=n, total_nonsingular=t, second_moment=s2,
                            max_class_size=mx, box_size=box.cell_count(), singular_count=sg,
                            keys=ukeys[a:b], sizes=counts[a:b], g=g, p=p)
                for box, n, t, s2, mx, sg, a, b in zip(boxes, class_count, total, second,
                                                       largest, singular, bounds, bounds[1:])]
    by_box = dict(zip(order, censuses))
    return [by_box[i] for i in range(len(by_box))]  # input order


def class_census(modulus: PrimeModulus, box: CubeBox) -> ClassCensus:
    """Exhaustive census of the isomorphism classes meeting one box:
    `class_censuses(modulus, [box])[0]`, see there."""
    return class_censuses(modulus, [box])[0]


@dataclass(frozen=True)
class SharpnessReport:
    witness_count: int  # #A, twice the number of residues used
    residue_count: int  # #Q
    isomorphic_count: int  # N(H; [1,M]^2g)
    attained: bool  # isomorphic_count >= witness_count


def sharpness_witness(modulus: PrimeModulus, M: int, g: int) -> SharpnessReport:
    """Witness construction for the all-ones curve in the box [1, M]^(2g).

    Q is the set of quadratic residues among [1, floor(M^(1/(2g+1)))] and
    A = {alpha : alpha^2 mod p in Q}; one `sqrt_mod_int` call per candidate
    finds both, a residue being a q with roots.  Every alpha in A lands the
    scaled vector inside the box, and #A = 2 #Q.  Both #A and the exact
    isomorphic count are returned; distinct residues give distinct vectors
    while the two roots of each residue collapse onto one, so the comparison
    of the two numbers is reported, not enforced.
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
    # q <= lim < p is nonzero mod p: no roots marks a nonresidue
    roots = [r for r in (sqrt_mod_int(q, p) for q in range(1, lim + 1)) if r]
    if any(len(r) != 2 for r in roots):
        raise RuntimeError("root pairing violated: a residue without two square roots")
    witness = sum(map(len, roots))
    n_count = _count_orbit_in_box(b, box)
    return SharpnessReport(witness_count=witness,
                           residue_count=len(roots), isomorphic_count=n_count,
                           attained=n_count >= witness)


@dataclass(frozen=True)
class PowerCongruence:
    multiplier: int  # lambda
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
    solution count bounds the isomorphic count from above.  For odd h the
    map is one-to-one, since X = beta^h b_(2g+1-h) and Y = beta^2 b_(2g-1)
    fix beta = alpha^2 and with it the vector; at h = 3 it is the kernel
    of `count_isomorphic_in_box`, which lists the solutions and keeps those
    that are orbit members inside the box.
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
    count = count_matches((0, 0, 1), (0,) * h + (pow(lam, -1, p),),
                          range(R + 1, R + M + 1), range(S + 1, S + M + 1), p)
    return PowerCongruence(multiplier=lam, x_offset=R, y_offset=S, side=M,
                           solution_count=count, reduced_index=i_low)


def bound_N(M: int, p: int, g: int, h: int | None = None,
            eps: float = DEFAULT_EPS) -> BoundReport:
    """Upper-bound evaluator for the per-class count N inside a side-M box.

    Two branches: the odd-exponent reduction (h odd, 3 <= h <= 2g+1) giving
    (M^(1/h) + M (M^4/p)^(2/(h(h+1)))) M^eps, and the genus >= 2 branch
    giving M^2/p + M^(1/2+eps).  Returns the smaller applicable value, with
    the branch that produced it as the regime.
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
    return BoundReport(*min(candidates, key=lambda t: t[0]))
