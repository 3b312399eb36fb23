"""Exponential sums and additive machinery: incomplete sums with exact
rational phases, an explicit discrepancy check, Weyl differencing and its
majorant, and exact counts of symmetric power-sum systems."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .ffield import FpPolynomial, poly_values

ERDOS_TURAN_CONSTANT = 3.0
WEYL_LOOP_GUARD = 10 ** 9
VINOGRADOV_STATE_GUARD = 10 ** 8


@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    ok: bool


def _residues(g: FpPolynomial, k: int, M: int) -> np.ndarray:
    """k g(n) mod p for n = 1..M, exact in residue_dtype(p)."""
    if M < 1:
        raise ValueError("M >= 1 required")
    p = g.modulus.p
    return poly_values(g.coeffs, range(1, M + 1), p) * (k % p) % p


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
    fact = math.factorial(m)
    total = Fraction(0)
    ells = range(-(M - 1), M)
    for ls in itertools.product(ells, repeat=m - 1):
        prod = 1
        for l in ls:
            prod *= l
        r = (a * fact * prod) % q
        if r == 0:
            total += M
        else:
            rr = min(r, q - r)  # ||x|| = rr/q, so the reciprocal is q/rr
            total += min(Fraction(M), Fraction(q, rr))
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
    multiplicities.
    """
    if k < 1 or m < 1 or H < 1:
        raise ValueError("k, m, H must all be >= 1")
    if H ** m * k > VINOGRADOV_STATE_GUARD:
        raise ValueError("state-space guard exceeded")
    atoms = [tuple(x ** j for j in range(1, m + 1)) for x in range(1, H + 1)]
    dist = {(0,) * m: 1}
    for _ in range(k):
        nxt: dict = {}
        for s, cnt in dist.items():
            for a in atoms:
                key = tuple(si + ai for si, ai in zip(s, a))
                nxt[key] = nxt.get(key, 0) + cnt
        dist = nxt
        if len(dist) > VINOGRADOV_STATE_GUARD:
            raise ValueError("state-space guard exceeded")
    return sum(c * c for c in dist.values())


def kappa(m: int) -> int:
    """Variables-per-side budget for the degree-m system: m^2 - 1."""
    if m < 2:
        raise ValueError("m >= 2 required")
    return m * m - 1
