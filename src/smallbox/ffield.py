"""Arithmetic over prime fields F_p: polynomials, square and k-th roots,
discriminants, and the vector kernel every count is built on (Horner over
a vector, in cache-sized blocks), with the rules that choose its array
dtypes and bound its allocations.

Residues are stored in least nonnegative form, values in [0, p-1].  The
modulus is capped below 2**62 so that products of two residues stay inside
128 bits on any sane platform.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_MODULUS = 1 << 62

# bytes the arrays of one guarded call may take (a census batch, an orbit,
# a power-sum step, a lattice join or scan), read as ffield.BYTE_GUARD at call time
BYTE_GUARD = 10 ** 9

# below this modulus a product of two residues stays under 2**62, so vector
# arithmetic runs in int64; above it the same code runs on Python integers
INT64_P_LIMIT = 1 << 31


def residue_dtype(p: int):
    """The numpy dtype of residue vectors mod p: int64 while p < INT64_P_LIMIT,
    Python integers (dtype object) above."""
    return np.int64 if p < INT64_P_LIMIT else object


def key_dtype(p: int):
    """The numpy dtype of tagged keys 2r + b, r a residue mod p and b a bit:
    uint32 exactly while residues are int64 (p < INT64_P_LIMIT keeps every
    key at most 2**32 - 3), Python integers (dtype object) above."""
    return np.uint32 if residue_dtype(p) is np.int64 else object


def int_dtype(bound):
    """The numpy dtype of integers below bound in absolute value: int64
    while bound < 2**63, Python integers (dtype object) above."""
    return np.int64 if bound < 2 ** 63 else object


def entry_bytes(dtype, largest: int) -> int:
    """Bytes one array entry costs: its itemsize, plus for dtype object the
    Python integer it points to, at most `largest`."""
    dtype = np.dtype(dtype)
    return 8 + sys.getsizeof(largest) if dtype == object else dtype.itemsize


def check_bytes(what: str, nbytes: int):
    """ValueError, naming `what`, when nbytes passes BYTE_GUARD."""
    if nbytes > BYTE_GUARD:
        raise ValueError(f"{what} needs {nbytes} bytes, above the guard of {BYTE_GUARD} bytes")


def run_starts(keys: np.ndarray, offsets) -> np.ndarray:
    """Index of the first key of each run of equal keys, where every segment
    keys[offsets[i]:offsets[i+1]] is sorted and no run crosses a segment
    boundary.  (np.unique would import numpy.ma on its first call: 15 ms
    and about 1 MB in every fresh interpreter.)"""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    new[offsets[:-1]] = True
    return np.flatnonzero(new)


# Miller-Rabin witnesses, deterministic for every n < 2**64; also the trial divisors
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64; verdicts
    are cached, so each PrimeModulus of a prime met before costs a lookup."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime p with 3 <= p < 2**62."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int):
            raise TypeError(f"modulus must be an integer, got {type(p).__name__}")
        if p < 3 or p >= MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 3 <= p < 2**62, got {p}")
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


def sqrt_mod_int(a: int, p: int) -> tuple[int, ...]:
    """Square roots of a modulo the odd prime p, as a sorted tuple of
    residues: () when a is a nonresidue, (0,) for a = 0, else the two roots."""
    return roots_mod(a, 2, p)


def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes of n >= 1, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class _RootContext:
    """What d-th roots mod p need, for d | p-1: p-1 = s*t with s built from
    the primes of d and gcd(t, d) = 1, gamma a generator of the order-s
    subgroup, and per prime r with r^f || s the Pohlig-Hellman data
    (r, r^f, gamma^(s/r^f), its inverse, {zeta^j: j} for zeta of order r,
    CRT weight)."""

    s: int
    inv_d: int  # d^-1 mod t
    gamma: int
    unity: tuple[int, ...]  # the d-th roots of unity
    digits: tuple[tuple[int, int, int, int, dict, int], ...]


@lru_cache(maxsize=64)
def _root_context(p: int, d: int) -> _RootContext:
    n = p - 1
    primes = _prime_factors(d)
    parts = []  # r^f exactly dividing p-1, for each prime r of d
    for r in primes:
        q = r
        while n % (q * r) == 0:
            q *= r
        parts.append(q)
    s = math.prod(parts)
    t = n // s
    for h in range(2, p):  # h^t generates the order-s subgroup
        if all(pow(h, n // r, p) != 1 for r in primes):
            break
    else:
        raise ArithmeticError(f"no generator of the {s}-part of F_{p}^*: is {p} prime?")
    gamma = pow(h, t, p)
    digits = []
    for r, q in zip(primes, parts):
        g_r = pow(gamma, s // q, p)
        zeta = pow(g_r, q // r, p)
        logs = {pow(zeta, j, p): j for j in range(r)}
        digits.append((r, q, g_r, pow(g_r, -1, p), logs, s // q * pow(s // q, -1, q)))
    omega = pow(gamma, s // d, p)
    # pow(., -1, 1) is 0: with t = 1 every start is corrected inside the subgroup
    return _RootContext(s, pow(d, -1, t), gamma,
                        tuple(pow(omega, j, p) for j in range(d)), tuple(digits))


def _subgroup_log(y: int, ctx: _RootContext, p: int) -> int:
    """log_gamma(y) mod s for y in the order-s subgroup: Pohlig-Hellman,
    one base-r digit at a time, each found among r candidates."""
    s, m = ctx.s, 0
    for r, q, g_r, g_r_inv, logs, weight in ctx.digits:
        y_r = pow(y, s // q, p)
        x, rj = 0, 1
        while rj < q:
            digit = logs.get(pow(y_r * pow(g_r_inv, x, p) % p, q // (rj * r), p))
            if digit is None:
                raise ArithmeticError(f"{y} is outside the {s}-part of F_{p}^*")
            x += digit * rj
            rj *= r
        m += x * weight
    return m % s


def roots_mod(c: int, k: int, p: int) -> tuple[int, ...]:
    """Every x mod the odd prime p with x^k = c, ascending.

    (0,) for c = 0; otherwise either () or the d = gcd(k, p-1) roots.
    Adleman-Manders-Miller: x^k = c reduces to x^d = c^u with
    u = (k/d)^-1 mod (p-1)/d; c^(u * d^-1 mod t) is a d-th root up to an
    error in the order-s subgroup (p-1 = s*t, s holding the primes of d),
    removed by a Pohlig-Hellman discrete log there; the rest are that root
    times the d-th roots of unity.  Cost O(log p) multiplications per digit,
    at most r candidates per digit for each prime r | d.
    """
    if k < 1:
        raise ValueError(f"root degree must be >= 1, got {k}")
    c %= p
    if c == 0:
        return (0,)
    n = p - 1
    d = math.gcd(k, n)
    if pow(c, n // d, p) != 1:
        return ()
    a = pow(c, pow(k // d, -1, n // d), p)  # k/d and (p-1)/d are coprime
    ctx = _root_context(p, d)
    x = pow(a, ctx.inv_d, p)
    # a / x^d lies in the order-s subgroup; gamma^(m/d) is its d-th root there
    m = _subgroup_log(a * pow(pow(x, d, p), -1, p) % p, ctx, p)
    if m % d:
        raise ArithmeticError(f"{c} has no {k}-th root mod {p}: is {p} prime?")
    x = x * pow(ctx.gamma, m // d, p) % p
    roots = sorted(x * w % p for w in ctx.unity)
    if any(pow(r, k, p) != c for r in roots) or len(set(roots)) != d:
        raise ArithmeticError(f"{k}-th roots of {c} mod {p} failed to verify")
    return tuple(roots)


# ---------------------------------------------------------------------------
# polynomials


def _normalize(coeffs: Iterable[int], p: int) -> tuple[int, ...]:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class FpPolynomial:
    """Polynomial over F_p, coefficients ascending, trailing zeros stripped.

    The zero polynomial has empty coeffs and degree -1 (sentinel).
    """

    coeffs: tuple[int, ...]
    modulus: PrimeModulus

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs, self.modulus.p))

    @classmethod
    def from_ints(cls, coeffs: Sequence[int], modulus: PrimeModulus) -> "FpPolynomial":
        return cls(tuple(coeffs), modulus)

    @classmethod
    def from_text(cls, text: str, modulus: PrimeModulus) -> "FpPolynomial":
        """Parse the CLI encoding: comma-separated coefficients, ascending.

        "1,0,0,1" over F_7 is X^3 + 1.
        """
        parts = [s.strip() for s in text.split(",")]
        try:
            coeffs = [int(s) for s in parts]
        except ValueError:
            raise ValueError(f"bad polynomial text {text!r}: "
                             "expected comma-separated integers") from None
        return cls(tuple(coeffs), modulus)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        """Horner evaluation at the integer x, returns a residue in [0, p-1]."""
        p = self.modulus.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def derivative(self) -> "FpPolynomial":
        p = self.modulus.p
        return FpPolynomial(tuple(i * c % p for i, c in enumerate(self.coeffs))[1:],
                            self.modulus)

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        p = self.modulus.p
        if self.is_zero() or other.is_zero():
            return FpPolynomial((), self.modulus)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return FpPolynomial(tuple(out), self.modulus)

    def __repr__(self) -> str:
        return f"FpPolynomial({self.to_text()!r} mod {self.modulus.p})"


# bytes of accumulator entries in one block of a Horner pass
# (`_horner_blocks`), read at call time: a block's
# temporaries (its x, its accumulator, a consumer's test) then stay in a
# core's L2 cache instead of faulting in fresh pages on every call
_BLOCK_BYTES = 1 << 18


@lru_cache(maxsize=64)
def _accumulator_bytes(p: int) -> int:
    """Bytes of one Horner accumulator entry mod p, whose value stays below
    p*p + p."""
    return entry_bytes(residue_dtype(p), p * p)


def _reduce(a: np.ndarray, p: int, q: np.ndarray | None) -> np.ndarray | None:
    """Reduce the array a mod p in place, and return the quotient buffer
    for the next reduction.  An int64 a becomes a - p * (a // p), the
    quotient written into q, which is made on first use and made again only
    when a is shorter or longer; numpy divides an int64 array by a scalar
    through a multiply by its reciprocal, but computes % with a divide per
    entry, about twice as slow.  Python integers (dtype object) keep a %= p,
    which there is twice as fast as the floor form, and need no buffer."""
    if a.dtype == object:
        a %= p
        return q
    if q is None or len(q) != len(a):
        q = np.empty(len(a), dtype=a.dtype)
    np.floor_divide(a, p, out=q)
    q *= p
    a -= q
    return q


def _horner_blocks(coeffs: Sequence[int], xs, p: int):
    """Yield (lo, v) in order, v = f(x) mod p for the block
    xs[lo:lo + len(v)]; an empty xs is one empty block.  A block holds
    _BLOCK_BYTES of accumulator entries, at least one.  Each v is a fresh
    array of residue_dtype(p), the consumer's to keep or overwrite.

    coeffs are integers, ascending; xs is a range or an integer array,
    negative values included.  The accumulator starts at the leading
    coefficient, so degree d costs d multiplies, and a zero coefficient
    skips its add.

    A reduction costs a pass over the block, so the accumulator is reduced
    only when the next step could leave int64.  An exact bound top > |acc|
    starts at p, and X >= |x| holds for every x: a range's two ends give X
    without a pass (each block is reduced once only when X > p), an array
    is reduced block by block and gets X = p.  A step takes top to
    top*X + p, and acc is reduced before it whenever that would pass
    2**63; after the last step once.  The same rule runs on Python
    integers above INT64_P_LIMIT.

    Every reduction is `_reduce`: in int64, acc - p * (acc // p).  numpy's
    int64 floor_divide rounds toward -infinity, so the result lies in
    [0, p) and equals Python's % also for the negative accumulators that
    the unreduced ranges in [-p, p] produce; where p * (acc // p) would
    pass -2**63, int64 arithmetic wraps and still ends at that value.  The
    final quotient goes into the block's x, which the last multiply leaves
    dead; the quotients of x's own reduction and of the in-loop ones share
    one buffer per call.
    """
    dtype = residue_dtype(p)
    X = max(abs(xs.start), abs(xs.stop)) if isinstance(xs, range) else None
    wrap = X is None or X > p  # an array, or a range past p, is reduced
    if wrap:
        X = p
    n, step = len(xs), max(1, _BLOCK_BYTES // _accumulator_bytes(p))
    q = None  # the quotient buffer
    for lo in range(0, n or 1, step):
        x = xs if n <= step else xs[lo:lo + step]
        if isinstance(x, range):
            x = np.arange(x.start, x.stop, x.step, dtype=np.int64).astype(dtype, copy=False)
        else:
            x = np.array(x, dtype=dtype)  # a copy: the caller's array stays as it is
        if wrap:
            q = _reduce(x, p, q)
        terms = reversed(coeffs)
        acc, top = next(terms, 0) % p, p  # the leading coefficient
        for c in terms:
            if not isinstance(acc, np.ndarray):  # the first step makes the block's array
                acc = acc * x  # acc is a residue, so top = p holds as it is
            else:
                if top * X + p > 2 ** 63:
                    q = _reduce(acc, p, q)
                    top = p
                acc *= x
            if c % p:
                acc += c % p
            top = top * X + p
        if top > p:
            _reduce(acc, p, x)
        yield lo, acc if isinstance(acc, np.ndarray) else np.full(len(x), acc, dtype=dtype)


def poly_values(coeffs: Sequence[int], xs, p: int) -> np.ndarray:
    """f(x) mod p for every integer x of xs, f given by its integer
    coefficients, ascending, by Horner block by block (`_horner_blocks`,
    whose docstring gives the reduction rule).  A single block is returned
    as it is; longer inputs are assembled into one array.  The result
    holds residues in [0, p-1] of residue_dtype(p), exact at every p."""
    for lo, acc in _horner_blocks(coeffs, xs, p):
        if len(acc) == len(xs):
            return acc
        if not lo:
            out = np.empty(len(xs), dtype=acc.dtype)
        out[lo:lo + len(acc)] = acc
    return out


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b, both ascending coefficient lists, b nonzero."""
    r = a[:]
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        factor = r[-1] * inv_lead % p
        shiftn = dr - db
        for i, c in enumerate(b):
            r[i + shiftn] = (r[i + shiftn] - factor * c) % p
        while r and r[-1] == 0:
            r.pop()
    return r


def count_roots(coeffs: Sequence[int], p: int) -> int:
    """Number of distinct roots in F_p of the nonzero polynomial F with
    ascending coeffs, as deg gcd(F, X^p - X).

    X^p - X is the product of X - a over every a in F_p, so the gcd is the
    product of X - a over the roots a of F.  X^p mod F comes from
    square-and-multiply on remainders mod F, and Euclid with `_poly_mod`
    finishes: O(D^2 log p) operations for D = deg F, so no residue of F_p
    is ever evaluated and p may be as large as the modulus cap.  A
    remainder is held as one integer with a w-bit slot per coefficient
    (Kronecker substitution), so a square is one integer product; w fits
    the 2D p^2 a slot can reach before its reduction mod F and mod p.
    """
    f = list(_normalize(coeffs, p))
    if not f:
        raise ValueError("the zero polynomial vanishes on all of F_p")
    d = len(f) - 1
    if d < 2:
        return d  # a nonzero constant has no root, a linear F exactly one
    inv_lead = pow(f[-1], -1, p)
    low = [-c * inv_lead % p for c in f[:-1]]  # X^d = low (mod F)
    rows = [low]  # X^(d+k) mod F for k < d - 1
    for _ in range(d - 2):
        top = rows[-1][-1]
        rows.append([(a + top * b) % p for a, b in zip([0] + rows[-1][:-1], low)])
    w = (2 * d * p * p).bit_length()
    mask, low_mask = (1 << w) - 1, (1 << w * d) - 1
    shifts = [w * j for j in range(2 * d - 1)]
    packed_rows = [sum(c << sh for c, sh in zip(row, shifts)) for row in rows]

    def reduce(s: int) -> int:
        acc = s & low_mask
        for sh, row in zip(shifts[d:], packed_rows):
            acc += (s >> sh & mask) % p * row
        return sum((acc >> sh & mask) % p << sh for sh in shifts[:d])

    r = 1 << w  # X, then X^p mod F left to right over the bits of p
    for bit in bin(p)[3:]:
        r = reduce(r * r)
        if bit == "1":
            r = reduce(r << w)
    rem = [r >> sh & mask for sh in shifts[:d]]
    rem[1] -= 1
    a, b = f, list(_normalize(rem, p))  # X^p - X = rem (mod F)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return len(a) - 1


def resultant(f: FpPolynomial, g: FpPolynomial) -> int:
    """Res(f, g) mod p via the Euclidean scheme.

    Requires deg f >= 1 or deg g >= 1; a shared root (over the closure)
    gives 0.
    """
    if f.modulus != g.modulus:
        raise ValueError("mixed moduli")
    p = f.modulus.p
    a, b = list(f.coeffs), list(g.coeffs)
    if not a or not b:
        return 0
    res = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * pow(b[0], da, p) % p
        if da < db:
            if (da * db) % 2 == 1:
                res = (-res) % p
            a, b = b, a
            continue
        r = _poly_mod(a, b, p)
        if not r:
            return 0
        dr = len(r) - 1
        if (da * db) % 2 == 1:
            res = (-res) % p
        res = res * pow(b[-1], da - dr, p) % p
        a, b = b, r


def discriminant(f: FpPolynomial) -> int:
    """disc(f) = (-1)^(m(m-1)/2) Res(f, f') / lc(f), m = deg f.

    Zero exactly when f has a repeated root over the algebraic closure.
    """
    m = f.degree
    if m < 1:
        raise ValueError("discriminant needs deg f >= 1")
    p = f.modulus.p
    res = resultant(f, f.derivative())
    sign = -1 if (m * (m - 1) // 2) % 2 == 1 else 1
    return sign * res * pow(f.leading_coefficient, -1, p) % p


def monic_square_root(f: FpPolynomial) -> FpPolynomial | None:
    """The monic h with h**2 = f/lc(f), or None when no such h exists."""
    if f.is_zero():
        return FpPolynomial((), f.modulus)
    if f.degree % 2 == 1:
        return None
    p = f.modulus.p
    inv_lead = pow(f.leading_coefficient, -1, p)
    m = [c * inv_lead % p for c in f.coeffs]
    k = f.degree // 2
    h = [0] * k + [1]
    inv2 = pow(2, -1, p)
    for j in range(1, k + 1):
        # coefficient of X^(2k-j) in h^2, using entries of h above k-j
        acc = 0
        for i in range(k - j + 1, k + 1):
            l = 2 * k - j - i
            if 0 <= l <= k:
                acc += h[i] * h[l]
        h[k - j] = (m[2 * k - j] - acc) % p * inv2 % p
    hp = FpPolynomial(tuple(h), f.modulus)
    if (hp * hp).coeffs == tuple(m):
        return hp
    return None

