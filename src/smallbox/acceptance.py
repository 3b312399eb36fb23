"""Acceptance suite: thirteen checks covering oracle equivalence of the
counters, the square-root error regime, the trivial and moment identities of
the class censuses, the residue witness construction, the power-sum system
table, the lattice counting inequality, the interpolation cap, certified
orbit walks, the discrepancy and differencing inequalities, and the
isomorphism-relation algebra.

Each check returns a CriterionResult; run_all prints one PASS/FAIL line per
check.  Checks that a construction cannot attain at desk scale are still
asserted as stated and report their failure; nothing is weakened to force a
green run.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import analytic, boxcount, dynsys, hyperelliptic, lattice
from .ffield import FpPolynomial, PrimeModulus, poly_values

DEFAULT_SEED = 20260815  # every randomized trial derives its generator from it
# calibrated once against a full census sweep and frozen; the shape bound
# min{p, M^2} is asymptotic, so the floor is a diagnostic constant
CLASS_COUNT_RATIO_FLOOR = 0.05
VINOGRADOV_SLOPE = 10.5


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    value: float
    bound: float
    detail: str
    runtime_ms: float = 0.0


def derived_rng(seed: int, label: str, i: int = 0) -> random.Random:
    """Counter-derived generator: one global seed, reproducible per trial."""
    return random.Random(f"{seed}|{label}|{i}")


def _random_poly(rng, p: int, deg: int, modulus) -> FpPolynomial:
    coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return FpPolynomial.from_ints(coeffs, modulus)


def criterion_1(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Vectorized box counters agree exactly with the naive double loop."""
    trials = 40 if quick else 200
    agreements = 0
    for i in range(trials):
        rng = derived_rng(seed, "c1", i)
        p = rng.choice((31, 101, 211))
        pm = PrimeModulus(p)
        f = _random_poly(rng, p, rng.randint(3, 5), pm)
        M = rng.randint(1, min(25, p - 1))
        box = boxcount.Box2(rng.randrange(p - M), rng.randrange(p - M), M)
        curve_fast = boxcount.count_curve_points(f, box)
        curve_naive = boxcount.naive_count(f.coeffs, (0, 0, 1), box.x_range, box.y_range, p)
        graph_fast = boxcount.count_graph_points(f, box)
        graph_naive = boxcount.naive_count(f.coeffs, (0, 1), box.x_range, box.y_range, p)
        if curve_fast == curve_naive and graph_fast == graph_naive:
            agreements += 1
    return CriterionResult(
        1, "counting oracle equivalence", agreements == trials,
        agreements, trials,
        f"{agreements}/{trials} instances agree (curve and graph)")


def criterion_2(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Counted box error stays within 10 sqrt(p) (ln p)^2 at p ~ 10^6."""
    p = 1000003
    M = 90000 if quick else 900000
    f = FpPolynomial.from_ints([3, 2, 0, 1], PrimeModulus(p))
    rep = boxcount.weil_error(f, boxcount.Box2(0, 0, M))
    return CriterionResult(
        2, "square-root error regime", rep.within_budget,
        rep.deviation, rep.budget,
        f"|count - M^2/p| = {rep.deviation:.1f} vs budget {rep.budget:.1f} "
        f"(count {rep.count}, M={M})")


def criterion_3(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Every class meeting a cube of side M holds at most 2M vectors."""
    p = 31
    pm = PrimeModulus(p)
    per_cell = 13 if quick else 63
    boxes = 0
    worst = 0.0
    ok = True
    for g in (1, 2):
        cubes = []
        for M in range(1, 9):
            for i in range(per_cell):
                rng = derived_rng(seed, f"c3-{g}-{M}", i)
                R = tuple(rng.randrange(p - M) for _ in range(2 * g))
                cubes.append(hyperelliptic.CubeBox(g, R, M))
        boxes += len(cubes)
        for cube, census in zip(cubes, hyperelliptic.class_censuses(pm, cubes)):
            if census.max_class_size:
                worst = max(worst, census.max_class_size / (2 * cube.M))
            if census.max_class_size > 2 * cube.M:
                ok = False
    return CriterionResult(
        3, "trivial per-class bound", ok, worst, 1.0,
        f"{boxes} cubes over genus 1 and 2, worst N/(2M) = {worst:.3f}")


def criterion_4(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Census moments match independent oracles: sum of class sizes equals a
    direct discriminant scan, and the second moment equals a raw
    orbit-membership pair count."""
    p = 31
    pm = PrimeModulus(p)
    cubes = [((0, 0), 30)]
    n_small = 10 if quick else 50
    for i in range(n_small):
        rng = derived_rng(seed, "c4", i)
        M = rng.randint(2, 15)
        cubes.append((tuple(rng.randrange(p - M) for _ in range(2)), M))
    checked = 0
    powers = [(pow(al, 6, p), pow(al, 4, p)) for al in range(1, p)]
    censuses = hyperelliptic.class_censuses(
        pm, [hyperelliptic.CubeBox(1, R, M) for R, M in cubes])
    for (R, M), census in zip(cubes, censuses):
        vectors = [(a0, a1) for a0 in range(R[0] + 1, R[0] + M + 1)
                   for a1 in range(R[1] + 1, R[1] + M + 1)]
        # genus-1 discriminant in closed form, independent of the resultant path
        nonsingular = [(a0, a1) for a0, a1 in vectors
                       if (-4 * a1 ** 3 - 27 * a0 * a0) % p != 0]
        if census.total_nonsingular != len(nonsingular):
            return CriterionResult(4, "census moment identities", False,
                                   census.total_nonsingular, len(nonsingular),
                                   f"first moment mismatch on R={R}, M={M}")
        in_box = set(nonsingular)
        pair_count = 0
        for b0, b1 in nonsingular:
            images = {(s0 * b0 % p, s1 * b1 % p) for s0, s1 in powers}
            pair_count += len(images & in_box)
        if census.second_moment != pair_count:
            return CriterionResult(4, "census moment identities", False,
                                   census.second_moment, pair_count,
                                   f"second moment mismatch on R={R}, M={M}")
        checked += 1
    return CriterionResult(
        4, "census moment identities", True, checked, len(cubes),
        f"both moments exact on {checked} cubes (full cube and random)")


def criterion_5(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Class counts track min{p, M^2}: ratio floor holds with no monotone
    decay across the M sweep.  The sweep is never truncated: the decay check
    is about its tail."""
    sweep = (4, 8, 16, 32, 64)
    ok = True
    details = []
    worst = 1.0
    for p in (101, 1009):
        pm = PrimeModulus(p)
        ratios = []
        censuses = hyperelliptic.class_censuses(
            pm, [hyperelliptic.CubeBox(1, (0, 0), M) for M in sweep])
        for M, census in zip(sweep, censuses):
            r = census.class_count / min(p, M * M)
            ratios.append(r)
            worst = min(worst, r)
            if r < CLASS_COUNT_RATIO_FLOOR:
                ok = False
        if all(b < a for a, b in zip(ratios, ratios[1:])):
            ok = False  # strictly decreasing across the whole sweep
        details.append(f"p={p}: " + ",".join(f"{r:.2f}" for r in ratios))
    return CriterionResult(
        5, "class-count shape ratio", ok, worst, CLASS_COUNT_RATIO_FLOOR,
        "; ".join(details) + f" (floor {CLASS_COUNT_RATIO_FLOOR})")


def criterion_6(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Residue witness construction: the box count must reach 2 #Q."""
    rep = hyperelliptic.sharpness_witness(PrimeModulus(1009), 64, 1)
    return CriterionResult(
        6, "witness construction attains its floor", rep.attained,
        rep.isomorphic_count, rep.witness_count,
        f"N = {rep.isomorphic_count} vs 2#Q = {rep.witness_count} "
        f"(#Q = {rep.residue_count}); the two roots of each residue scale "
        "onto the same vector, so N can fall below 2#Q")


def criterion_7(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Power-sum system table: exhaustive cross-check at H=2, the exact
    k=m=2 formula, and the desk-scale slope cap H^10.5."""
    top = 5 if quick else 8
    counts = {H: analytic.count_vinogradov(8, 3, H) for H in range(2, top + 1)}
    sides = Counter(analytic.power_sum_vector(xs, 3)
                    for xs in itertools.product((1, 2), repeat=8))
    exhaustive = sum(c * c for c in sides.values())
    ok = counts[2] == exhaustive
    formula_ok = all(analytic.count_vinogradov(2, 2, H) == 2 * H * H - H
                     for H in range(1, 51))
    ok = ok and formula_ok
    worst = 0.0
    for H in range(4, top + 1):
        cap = H ** VINOGRADOV_SLOPE
        worst = max(worst, counts[H] / cap)
        if counts[H] > cap:
            ok = False
    return CriterionResult(
        7, "power-sum system desk check", ok, worst, 1.0,
        f"J(8,3;2) = {counts[2]} (exhaustive {exhaustive}), k=2 formula "
        f"{'exact' if formula_ok else 'BROKEN'}, worst J/H^{VINOGRADOV_SLOPE} "
        f"= {worst:.1f}; the o(1) term dominates at these H")


def criterion_8(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Counting inequality: product of clipped minima never exceeds
    (2n+1)!! over the box point count."""
    trials = 50 if quick else 200
    passed = 0
    for i in range(trials):
        rng = derived_rng(seed, "c8", i)
        n = rng.randint(2, 5)
        p = rng.choice((101, 211, 307, 409))
        coeffs = tuple(rng.randrange(1, p) for _ in range(n))
        hw = tuple(rng.randint(1, 8) for _ in range(n))
        rep = lattice.cor7_check(lattice.CongruenceLattice(coeffs, p),
                                 lattice.ConvexBox(hw))
        if rep.ok:
            passed += 1
    return CriterionResult(
        8, "minima counting inequality", passed == trials, passed, trials,
        f"{passed}/{trials} random lattices satisfy the clipped-minima bound")


def criterion_9(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Interpolation-row congruence has at most mn solutions."""
    trials = 25 if quick else 100
    worst = 0
    passed = 0
    for i in range(trials):
        rng = derived_rng(seed, "c9", i)
        p = rng.choice((101, 211))
        pm = PrimeModulus(p)
        f = _random_poly(rng, p, 3, pm)
        g = _random_poly(rng, p, 2, pm)
        xs = rng.sample(range(1, p), 3)
        ys = [rng.randrange(p) for _ in range(3)]
        count = lattice.lemma6_count(f, g, xs, ys)
        worst = max(worst, count)
        if count <= 6:
            passed += 1
    return CriterionResult(
        9, "determinant congruence cap", passed == trials, worst, 6,
        f"{passed}/{trials} instances within the cap, max count {worst}")


def _certified_orbits(draws) -> list:
    """The trajectories of the (rng, f, u0) draws, in draw order: one
    lockstep walk per prime, certified as it returns."""
    lanes: dict[int, list[int]] = {}
    for k, (_, f, _) in enumerate(draws):
        lanes.setdefault(f.modulus.p, []).append(k)
    out = [None] * len(draws)
    for ks in lanes.values():
        trajs = dynsys.trajectory_lengths([draws[k][1] for k in ks],
                                          [draws[k][2] for k in ks])
        for k, traj in zip(ks, trajs):
            out[k] = traj
    return out


def criterion_10(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Certified orbit walks, diameter identity, and the edge-count duality
    with graph-point counting.  Each trial's (f, u0) is drawn first and its
    orbit walked in lockstep with the others at its prime; N, M and the box
    come afterwards from the same per-trial generator."""
    per_p = 200 if quick else 1000
    checked = 0
    for p in (101, 1009, 10007):
        pm = PrimeModulus(p)
        draws = []
        for i in range(per_p):
            rng = derived_rng(seed, f"c10-{p}", i)
            f = _random_poly(rng, p, rng.randint(2, 4), pm)
            draws.append((rng, f, rng.randrange(p)))
        orbits = _certified_orbits(draws)  # raises unless certified
        checked += per_p
        for (rng, f, u0), traj in zip(draws[:20], orbits):
            N = rng.randint(1, traj.total_length)
            vals = traj.values[:N]
            # the D of an independent certified seen-set walk against the lockstep values
            if dynsys.diameter(dynsys.trajectory_length(f, u0), N) != max(vals) - min(vals):
                return CriterionResult(10, "iteration suite", False,
                                       checked, 3 * per_p,
                                       f"diameter identity broke at p={p}")
    duality_trials = 20 if quick else 100
    draws = []
    for i in range(duality_trials):
        rng = derived_rng(seed, "c10-dual", i)
        p = rng.choice((101, 1009))
        f = _random_poly(rng, p, rng.randint(2, 4), PrimeModulus(p))
        draws.append((rng, f, rng.randrange(p)))
    for (rng, f, _), traj in zip(draws, _certified_orbits(draws)):
        p = f.modulus.p
        N = rng.randint(1, traj.total_length)
        M = rng.randint(1, p - 1)
        box = boxcount.Box2(rng.randrange(p - M), rng.randrange(p - M), M)
        edges = dynsys.pairs_in_box(traj, N, box)
        cap = boxcount.count_graph_points(f, box)
        if edges > cap:
            return CriterionResult(10, "iteration suite", False, edges, cap,
                                   f"duality violated: {edges} > {cap}")
    return CriterionResult(
        10, "iteration suite", True, checked, checked,
        f"{checked} orbits cross-checked, diameter and duality hold")


def criterion_11(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Discrepancy bound with constant 3 holds on random and polynomial
    phase sequences."""
    trials = 200 if quick else 1000
    passed = 0
    for i in range(trials):
        rng = derived_rng(seed, "c11-rand", i)
        M = rng.randint(50, 400)
        seq = [rng.random() for _ in range(M)]
        a = rng.random()
        b = a + rng.random() * (1 - a)
        if analytic.erdos_turan_check(seq, a, b, rng.randint(1, 30)).ok:
            passed += 1
    for i in range(trials):
        rng = derived_rng(seed, "c11-poly", i)
        p = rng.choice((101, 1009, 10007))
        pm = PrimeModulus(p)
        f = _random_poly(rng, p, rng.randint(2, 4), pm)
        M = rng.randint(50, 400)
        seq = poly_values(f.coeffs, range(1, M + 1), p) / p
        a = rng.random()
        b = a + rng.random() * (1 - a)
        if analytic.erdos_turan_check(seq, a, b, rng.randint(1, 30)).ok:
            passed += 1
    return CriterionResult(
        11, "discrepancy inequality", passed == 2 * trials, passed, 2 * trials,
        f"{passed}/{2 * trials} sequences within the harmonic majorant")


def criterion_12(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Differencing identity to 1e-6 and the majorant domination with
    constant 2^m on the same instances."""
    trials = 30 if quick else 100
    passed = 0
    worst = 0.0
    for i in range(trials):
        rng = derived_rng(seed, "c12", i)
        p = rng.choice((101, 1009))
        pm = PrimeModulus(p)
        deg = rng.randint(2, 3)
        f = _random_poly(rng, p, deg, pm)
        k = rng.randrange(1, p)
        M = rng.randint(1, 12)
        ident = analytic.weyl_square_identity(f, k, M)
        s = math.sqrt(ident.lhs)  # the identity's lhs is |S|^2
        theta = Fraction(k * f.coeffs[-1] % p, p)
        majorant = (analytic.weyl_majorant(theta, deg, M)
                    * analytic.weyl_constant(deg))
        worst = max(worst, s / majorant)
        if ident.ok and s <= majorant:
            passed += 1
    return CriterionResult(
        12, "differencing identity and majorant", passed == trials,
        passed, trials,
        f"{passed}/{trials} instances, worst |S|/majorant = {worst:.3f}")


def criterion_13(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
    """Isomorphism relation is an equivalence, canonical keys respect it,
    and the orbit count through the power congruence equals a raw box
    scan."""
    trials = 200 if quick else 1000
    p = 101
    pm = PrimeModulus(p)
    for i in range(trials):
        rng = derived_rng(seed, "c13", i)
        g = rng.randint(1, 3)
        b = hyperelliptic.CurveVector(
            g, tuple(rng.randrange(p) for _ in range(2 * g)), pm)
        al = rng.randrange(1, p)
        be = rng.randrange(1, p)
        a = hyperelliptic.apply_scaling(b, al)
        c = hyperelliptic.apply_scaling(b, be)
        refl = 1 in hyperelliptic.isomorphism_scalars(b, b)
        fwd = hyperelliptic.isomorphism_scalars(a, b)
        back = hyperelliptic.isomorphism_scalars(b, a)
        sym = ({pow(x, -1, p) for x in fwd} == back)
        trans = bool(hyperelliptic.isomorphism_scalars(a, c))
        canon = (hyperelliptic.canonical_representative(a).a
                 == hyperelliptic.canonical_representative(c).a)
        if not (refl and fwd and sym and trans and canon):
            return CriterionResult(13, "isomorphism algebra", False, i, trials,
                                   f"algebra failed on trial {i} (g={g})")
    p31 = PrimeModulus(31)
    exps = hyperelliptic.scaling_exponents(2)
    scans = 4 if quick else 12
    for i in range(scans):
        rng = derived_rng(seed, "c13-scan", i)
        M = rng.randint(2, 6)
        R = tuple(rng.randrange(31 - M) for _ in range(4))
        box = hyperelliptic.CubeBox(2, R, M)
        while True:
            b = hyperelliptic.CurveVector(
                2, tuple(rng.randrange(31) for _ in range(4)), p31)
            if b.is_nonsingular():
                break
        count = hyperelliptic.count_isomorphic_in_box(b, box)
        orbit = {tuple(pow(al, e, 31) * bc % 31 for e, bc in zip(exps, b.a))
                 for al in range(1, 31)}
        scan = sum(1 for v in box.vectors() if v in orbit)
        if count != scan:
            return CriterionResult(13, "isomorphism algebra", False, count, scan,
                                   f"orbit count {count} != box scan {scan}")
    return CriterionResult(
        13, "isomorphism algebra", True, trials, trials,
        f"{trials} triples pass equivalence + canonical checks, "
        f"{scans} box scans agree")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13)


def run_all(quick: bool = False, seed: int = DEFAULT_SEED,
            printer=print) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        res = fn(seed=seed, quick=quick)
        res = replace(res, runtime_ms=(time.perf_counter() - t0) * 1000.0)
        results.append(res)
        printer(f"criterion {res.number:2d} "
                f"{'PASS' if res.passed else 'FAIL'} "
                f"[{res.runtime_ms:7.0f} ms] {res.name}: {res.detail}")
    return results
