"""Exponential sums and additive machinery: incomplete sums with exact
rational phases, an explicit discrepancy check, Weyl differencing and its
majorant, and exact counts of symmetric power-sum systems."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import ffield
from .ffield import (FpPolynomial, check_bytes, entry_bytes, int_dtype, poly_values,
                     residue_dtype, run_starts)

ERDOS_TURAN_CONSTANT = 3.0
WEYL_LOOP_GUARD = 10 ** 9
# values of (l_1, ..., l_(m-1)) one weyl_majorant slice holds at most
_WEYL_BLOCK = 2 ** 16


@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    ok: bool


def _residues(g: FpPolynomial, k: int, M: int) -> np.ndarray:
    """k g(n) mod p for n = 1..M in residue_dtype(p), with their phases held to BYTE_GUARD."""
    if M < 1:
        raise ValueError("M >= 1 required")
    p = g.modulus.p
    check_bytes(f"a sum over {M} values", M * (entry_bytes(residue_dtype(p), p) + 2 * 8 + 2 * 16))
    return poly_values([k * c % p for c in g.coeffs], range(1, M + 1), p)


def _phase_sum(r: np.ndarray, p: int) -> complex:
    """Sum of e(r / p) over residues r already reduced mod p."""
    return complex(np.exp(2j * np.pi * (r / p).astype(np.float64)).sum())


def exp_sum(g: FpPolynomial, k: int, M: int) -> complex:
    """Sum of e(k g(n) / p) for n = 1..M, g over F_p; each phase is reduced
    exactly in integers before the exponential."""
    return _phase_sum(_residues(g, k, M), g.modulus.p)


def erdos_turan_check(seq: Sequence[float], alpha: float, beta: float,
                      K: int) -> CheckResult:
    """Discrepancy of seq against the interval [alpha, beta] versus the
    smoothed harmonic majorant with explicit constant 3.

    lhs = |#{n : gamma_n in [alpha, beta]} - M(beta - alpha)|,
    rhs = 3 (M/K + sum_(k<=K) (1/K + min(beta - alpha, 1/k)) |sum_n e(k gamma_n)|).
    """
    if not 0.0 <= alpha <= beta <= 1.0:
        raise ValueError(f"malformed interval [{alpha}, {beta}]")
    if K < 1:
        raise ValueError("K >= 1 required")
    gam = np.asarray(seq, dtype=np.float64)
    M = len(gam)
    hits = int(((gam >= alpha) & (gam <= beta)).sum())
    lhs = abs(hits - M * (beta - alpha))
    width = beta - alpha
    rhs = M / K
    z = np.exp(2j * np.pi * gam)
    zk = np.ones_like(z)
    for k in range(1, K + 1):
        zk *= z  # e(k gamma_n) as the k-th power of e(gamma_n)
        rhs += (1.0 / K + min(width, 1.0 / k)) * abs(zk.sum())
    rhs *= ERDOS_TURAN_CONSTANT
    return CheckResult(lhs=lhs, rhs=rhs, ok=lhs <= rhs)


def weyl_majorant(theta: Fraction, m: int, M: int) -> float:
    """Right-hand side of the Weyl differencing estimate for a degree-m
    phase with leading coefficient theta (an exact rational):

        M^(1-m/2^(m-1)) * (sum min{M, ||theta m! l_1...l_(m-1)||^(-1)})^(2^(1-m))

    over all |l_i| < M.  Terms whose argument lands on an integer (in
    particular every l_i = 0 term) contribute the cap M.  All norm
    comparisons are exact integer arithmetic.

    With theta = a/q a term depends only on rr = min(r, q - r), where
    r = a m! l_1...l_(m-1) mod q: ||.|| = rr/q.  The grid of leading
    tuples (l_1, ..., l_(m-2)) and last values l_(m-1) is walked in
    slices of at most _WEYL_BLOCK values: blocks of whole rows of 2M - 1
    last values, or parts of one row when a row is longer.  Values are
    int64 while q M < 2^63, Python integers above.  Each slice is sorted
    by rr and each run of equal rr is added once, exactly, so the
    rational sum and its float are those of the per-term sum.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    if M < 1:
        raise ValueError("M >= 1 required")
    if M ** (m - 1) > WEYL_LOOP_GUARD:
        raise ValueError(f"loop guard exceeded: M^(m-1) = {M ** (m - 1)}")
    if not isinstance(theta, Fraction):
        raise TypeError("theta must be a Fraction")
    a, q = theta.numerator, theta.denominator
    dtype = int_dtype(q * M)  # |r| < q M before reduction
    lead = a * math.factorial(m) % q
    ells = range(-(M - 1), M)
    # a m! l_1...l_(m-2) mod q for each leading tuple
    heads = (lead * math.prod(ls) % q for ls in itertools.product(ells, repeat=m - 2))
    width = min(len(ells), _WEYL_BLOCK)  # last values per slice
    total = Fraction(0)
    while block := list(itertools.islice(heads, _WEYL_BLOCK // width)):
        col = np.array(block, dtype=dtype)[:, None]
        for lo in range(-(M - 1), M, width):
            last = np.arange(lo, min(lo + width, M), dtype=np.int64).astype(dtype)
            rr = (col * last % q).ravel()
            rr = np.minimum(rr, q - rr)
            rr.sort()
            starts = run_starts(rr, [0, len(rr)])
            mult = np.diff(starts, append=len(rr))
            total += sum(c * (M if v == 0 else min(Fraction(M), Fraction(q, v)))
                         for v, c in zip(rr[starts].tolist(), mult.tolist()))
    return M ** (1 - m / 2 ** (m - 1)) * float(total) ** (2 ** (1 - m))


def weyl_constant(m: int) -> float:
    """Comparison constant folded into majorant checks."""
    return 2.0 ** m


def weyl_square_identity(g: FpPolynomial, k: int, M: int) -> CheckResult:
    """One exact differencing step: |S|^2 equals the shifted double sum

        sum_(|h|<M) sum_(n, n+h in [1,M]) e(k (g(n+h) - g(n)) / p).

    Both sides summed from the same exact residues; agreement within 1e-6 M^2.
    """
    p = g.modulus.p
    r = _residues(g, k, M)
    lhs = abs(_phase_sum(r, p)) ** 2
    # h = 0 adds M; the terms of -h are the conjugates of those of h
    rhs = M + 2.0 * sum(_phase_sum((r[h:] - r[:-h]) % p, p).real for h in range(1, M))
    return CheckResult(lhs=lhs, rhs=rhs, ok=abs(lhs - rhs) < 1e-6 * M * M)


def power_sum_vector(xs: Iterable[int], m: int) -> tuple[int, ...]:
    """(s_1, ..., s_m) with s_j the sum of j-th powers of xs."""
    xs = list(xs)
    return tuple(sum(x ** j for x in xs) for j in range(1, m + 1))


def count_vinogradov(k: int, m: int, H: int) -> int:
    """Exact number of solutions of the k-versus-k system of the first m
    symmetric power equations with all variables in [1, H].

    Builds the distribution of (s_1, ..., s_m) over k-tuples by k sparse
    convolutions with the single-variable atom set, then sums the squared
    multiplicities in Python integers.  A state is one mixed-radix key
    sum_j s_j prod_(i<j) radix_i with radix_j = k H^j + 1 > s_j, so keys
    add without carries.  Keys are int64 while prod radix_j < 2^63 and
    counts while H^k < 2^63, Python integers (dtype object) above.  A step
    adds every atom to every key, sorts the sums and adds the counts of
    each run of equal keys with np.add.reduceat, exact in both dtypes.

    A step from i - 1 to i variables holds H entries per state, each a key,
    a count and a sort index.  The states are at most the multisets of
    i - 1 values, C(H + i - 2, i - 1), and at most the product over j of
    the (i - 1)(H^j - 1) + 1 values s_j can take.  Both grow with i, so the
    last step is the largest; raises ValueError when its entries would take
    more than ffield.BYTE_GUARD bytes.  That check is made first on
    lower bounds that need no big integer: H k entries or more, keys of
    m(m + 1)/2 floor(log2 H) bits or more and counts of k floor(log2 H)
    bits or more.  s_1, ..., s_k fix the multiset of k values (Newton's
    identities), so m is cut to k first, and H = 1 gives 1.
    """
    if k < 1 or m < 1 or H < 1:
        raise ValueError("k, m, H must all be >= 1")
    if H == 1:
        return 1  # one k-tuple a side
    m = min(m, k)
    bits = H.bit_length() - 1
    least = H * k * (max(8, m * (m + 1) // 2 * bits // 8) + max(8, k * bits // 8) + 8)
    if least > ffield.BYTE_GUARD:
        raise ValueError(f"J({k},{m};{H}) needs at least {least} bytes in one step, "
                         f"above the guard of {ffield.BYTE_GUARD} bytes")
    states = math.comb(H + k - 2, k - 1)
    span = 1
    for j in range(1, m + 1):
        if span >= states:
            break
        span *= (k - 1) * (H ** j - 1) + 1
    radix = [k * H ** j + 1 for j in range(1, m + 1)]
    key_bound, count_bound = math.prod(radix), H ** k
    key_dtype, count_dtype = int_dtype(key_bound), int_dtype(count_bound)
    check_bytes(f"one step of J({k},{m};{H})", H * min(states, span) * (
        entry_bytes(key_dtype, key_bound) + entry_bytes(count_dtype, count_bound) + 8))
    place = np.array(list(itertools.accumulate(radix[:-1], operator.mul, initial=1)),
                     dtype=key_dtype)
    # atom x is sum_j x^j prod_(i<j) radix_i: every term is below key_bound
    xs = np.arange(1, H + 1).astype(key_dtype)[:, None]
    atoms = (xs ** np.arange(1, m + 1) * place).sum(axis=1)
    keys = np.zeros(1, dtype=key_dtype)
    counts = np.ones(1, dtype=count_dtype)
    for _ in range(k):
        sums = (atoms[:, None] + keys[None, :]).ravel()  # entry a n + s: atom a, state s
        order = np.argsort(sums)
        sums = sums[order]
        order %= len(keys)
        counts = counts[order]
        del order
        starts = run_starts(sums, [0, len(sums)])
        keys = sums[starts]
        counts = np.add.reduceat(counts, starts)
    return sum(c * c for c in counts.tolist())


def kappa(m: int) -> int:
    """Variables-per-side budget for the degree-m system: m^2 - 1."""
    if m < 2:
        raise ValueError("m >= 2 required")
    return m * m - 1
