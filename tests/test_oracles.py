"""Oracle independence: each kernel and the oracle that checks it run on a
small input under `sys.setprofile`, and the package functions the two
sides enter (every frame whose code lies in `src/smallbox`) may meet only
in names allowed here with a reason.  The check is dynamic because a static
scan cannot see a call such as `f(u)` reach `FpPolynomial.__call__`.  Each
row also checks that the two sides agree."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import smallbox
from smallbox import dynsys, ffield
from smallbox.analytic import count_vinogradov, weyl_majorant
from smallbox.boxcount import Box2, count_curve_points, count_graph_points, naive_count
from smallbox.dynsys import diameter, pairs_in_box, trajectory_length, trajectory_lengths
from smallbox.ffield import FpPolynomial, PrimeModulus
from smallbox.hyperelliptic import (CubeBox, CurveVector, class_census, count_isomorphic_in_box,
                                    reduce_to_power_congruence)
from smallbox.lattice import (CongruenceLattice, ConvexBox, _Echelon, _rank,
                              lattice_points_in_box, lemma6_count, shifted_congruence_count,
                              successive_minima)

from test_analytic import _dict_dp_reference, _per_term_majorant
from test_dynsys import _as_scan, _walk, _walk_pairs
from test_ffield import scalar_horner
from test_hyperelliptic import walk_census
from test_lattice import _fraction_minima, _scan_count, naive_points

PACKAGE = str(Path(smallbox.__file__).resolve().parent)

MOD = PrimeModulus(101)
CUBIC = FpPolynomial.from_ints([3, 2, 0, 1], MOD)
BOX = Box2(R=10, S=20, M=60)
MOD31 = PrimeModulus(31)
CUBE = CubeBox(1, (3, 5), 6)
LATTICE = CongruenceLattice((1, 3, 5), 101)
CONVEX = ConvexBox((4, 6, 9))
_rng = random.Random(40)
LANES = [FpPolynomial.from_ints([_rng.randrange(101) for _ in range(4)], MOD) for _ in range(8)]
STARTS = [_rng.randrange(101) for _ in LANES]
WINDOW = range(-40, 61)  # both ends in [-p, p]: poly_values skips the window's reduction
# p = 223 lies past lemma6_count's determinant replay; deg g = 2 does not divide deg f = 3
MOD223 = PrimeModulus(223)
LEMMA6 = (FpPolynomial.from_ints([5, 7, 11, 1], MOD223), FpPolynomial.from_ints([2, 3, 1], MOD223),
          [3, 5, 8], [21, 20, 30])  # 4 roots
# (curve vector, box): 8, 1 and 6 (criterion 6's N) isomorphic vectors in the box
ORBITS = [(CurveVector(1, (3, 7), MOD31), CubeBox(1, (2, 4), 20)),
          (CurveVector(2, (1, 1, 1, 1), MOD31), CubeBox(2, (0, 0, 0, 0), 6)),
          (CurveVector(1, (1, 1), PrimeModulus(1009)), CubeBox(1, (0, 0), 64))]
# each walk's input and output arrays, made outside the profile, for the
# certificate to check
SEEN = (dynsys._coefficient_rows([CUBIC], np.int64), np.array([7]),
        *_as_scan([dynsys._seen_scan(CUBIC, 7)], 101))
LANE_ROWS, LANE_STARTS = dynsys._coefficient_rows(LANES, np.int64), np.array(STARTS)
LOCKSTEP = (LANE_ROWS, LANE_STARTS, *dynsys._lockstep_scan(LANE_ROWS, LANE_STARTS, 101))
RANK_ROWS = [(1, 3, 5, 0), (2, 6, 10, 0), (0, 1, 0, 7), (1, 4, 5, 7), (3, 0, 2, 1)]  # rank 3
# (vector, h, box) of Y^h = lambda X^2: h = 3 at g = 1 and h = 5 at g = 2, at two primes
POWERS = [(CurveVector(1, (5, 17), PrimeModulus(p)), 3, CubeBox(1, (4, 9), M))
          for p, M in ((101, 60), (1009, 200))] + [
         (CurveVector(2, (3, 8, 2, 11), PrimeModulus(p)), 5, CubeBox(2, (7, 1, 2, 5), M))
         for p, M in ((101, 60), (1009, 200))]
# (c, M, p) over the window [-M, M], once inside (-p, p) and once wrapping around p
SHIFTED = [((3, 5, 7, 2), 40, 101), ((4, -6, 1, 9), 40, 31)]

CERTIFICATE = "the shared orbit certificate, by design: the walks share nothing else"
WINDOWS = "the box's two windows, the input both sides count over"
DIMENSION = "the input lattice's dimension"
DTYPE = "the one dtype rule of residue arrays, which the certificate's arrays follow"


def _orbit_scan(b, box):
    """The members of b's scaling orbit {(a^(4g+2-2i) b_i)_i : a in [1, p-1]}
    inside the box, by plain pow over every a."""
    p = b.modulus.p
    orbit = {tuple(pow(a, 4 * b.g + 2 - 2 * i, p) * c % p for i, c in enumerate(b.a))
             for a in range(1, p)}
    return sum(all(r < v <= r + box.M for v, r in zip(vec, box.R)) for vec in orbit)


def _lengths(vals, lengths, tails):
    """The lengths and tails of a walk's arrays."""
    return lengths.tolist(), tails.tolist()


def _certified(coeffs, u0s, *scan):
    """The lengths and tails of a walk, once the certificate accepts it."""
    dynsys._certify(coeffs, u0s, *scan, 101)
    return _lengths(*scan)


def _power_scan(b, h, box):
    """The (X, Y) of the box's two coordinate windows with
    Y^h = lambda X^2, lambda = b_(2g-1)^h / b_(2g+1-h)^2, by plain pow."""
    p, g = b.modulus.p, b.g
    lo = 2 * g + 1 - h
    lam = pow(b.a[2 * g - 1], h, p) * pow(b.a[lo], -2, p) % p
    return sum(pow(Y, h, p) == lam * pow(X, 2, p) % p
               for X in range(box.R[lo] + 1, box.R[lo] + box.M + 1)
               for Y in range(box.R[2 * g - 1] + 1, box.R[2 * g - 1] + box.M + 1))


def _shifted_scan(c, M, p):
    """The (x, y) with |x|, |y| <= M and y^2 - c_0 y = c_3 x^3 + c_2 x^2 + c_1 x
    mod p, by plain pow."""
    c0, c1, c2, c3 = c
    return sum((pow(y, 2, p) - c0 * y - c3 * pow(x, 3, p) - c2 * pow(x, 2, p) - c1 * x) % p == 0
               for x in range(-M, M + 1) for y in range(-M, M + 1))


def _echelon_rank(rows):
    echelon = _Echelon()
    return sum(echelon.add(v) for v in rows)


# (name, kernel call, oracle call, {allowed shared qualname: reason})
ROWS = [
    ("successive_minima",
     lambda: successive_minima(LATTICE, CONVEX),
     lambda: _fraction_minima(LATTICE, CONVEX), {"CongruenceLattice.n": DIMENSION}),
    ("trajectory_lengths",
     lambda: trajectory_lengths(LANES, STARTS),
     lambda: [trajectory_length(f, u) for f, u in zip(LANES, STARTS)],
     {"_certify": CERTIFICATE, "_ascending_values": CERTIFICATE,
      "_coefficient_rows": CERTIFICATE, "residue_dtype": DTYPE}),
    ("poly_values",
     lambda: ffield.poly_values(CUBIC.coeffs, WINDOW, 101).tolist(),
     lambda: [scalar_horner(CUBIC.coeffs, x, 101) for x in WINDOW], {}),
    ("count_curve_points",
     lambda: count_curve_points(CUBIC, BOX),
     lambda: naive_count(CUBIC.coeffs, (0, 0, 1), BOX.x_range, BOX.y_range, 101),
     {"Box2.x_range": WINDOWS, "Box2.y_range": WINDOWS}),
    ("count_graph_points",
     lambda: count_graph_points(CUBIC, BOX),
     lambda: naive_count(CUBIC.coeffs, (0, 1), BOX.x_range, BOX.y_range, 101),
     {"Box2.x_range": WINDOWS, "Box2.y_range": WINDOWS}),
    ("class_census",
     lambda: class_census(MOD31, CUBE).class_sizes,
     lambda: walk_census(MOD31, CUBE), {}),
    ("count_vinogradov",
     lambda: count_vinogradov(3, 2, 6),
     lambda: _dict_dp_reference(3, 2, 6), {}),
    ("lattice_points_in_box",
     lambda: lattice_points_in_box(LATTICE, CONVEX).count,
     lambda: len(naive_points(LATTICE, CONVEX)), {}),
    ("diameter",  # T = 11 from 7: both sides read past the first repeat
     lambda: diameter(trajectory_length(CUBIC, 7), 40),
     lambda: max(_walk(CUBIC, 7, 40)) - min(_walk(CUBIC, 7, 40)), {}),
    ("pairs_in_box",
     lambda: pairs_in_box(trajectory_length(CUBIC, 7), 40, BOX),
     lambda: _walk_pairs(CUBIC, 7, 40, BOX), {}),
    *((f"reduce_to_power_congruence-{b.modulus.p}-g{b.g}",
       lambda b=b, h=h, box=box: reduce_to_power_congruence(b, h, box).solution_count,
       lambda b=b, h=h, box=box: _power_scan(b, h, box), {}) for b, h, box in POWERS),
    *((f"shifted_congruence_count-{p}",
       lambda c=c, M=M, p=p: shifted_congruence_count(c, M, p),
       lambda c=c, M=M, p=p: _shifted_scan(c, M, p), {}) for c, M, p in SHIFTED),
    ("weyl_majorant",
     lambda: weyl_majorant(Fraction(7, 101), 3, 6),
     lambda: _per_term_majorant(Fraction(7, 101), 3, 6), {}),
    ("lemma6_count",
     lambda: lemma6_count(*LEMMA6),
     lambda: _scan_count(*LEMMA6), {}),
    *((f"count_isomorphic_in_box-{b.modulus.p}-g{b.g}",
       lambda b=b, box=box: count_isomorphic_in_box(b, box),
       lambda b=b, box=box: _orbit_scan(b, box), {}) for b, box in ORBITS),
    # runtime checks against the code they check
    ("_seen_scan",
     lambda: _lengths(*_as_scan([dynsys._seen_scan(CUBIC, 7)], 101)),
     lambda: _certified(*SEEN), {}),
    ("_lockstep_scan",
     lambda: _lengths(*dynsys._lockstep_scan(LANE_ROWS, LANE_STARTS, 101)),
     lambda: _certified(*LOCKSTEP), {}),
    ("_Echelon.add",
     lambda: _echelon_rank(RANK_ROWS),
     lambda: _rank(RANK_ROWS), {}),
]


def _entered(call):
    """The result of call() and the qualnames of the package functions it
    entered.  A comprehension, generator or lambda counts as the function
    it sits in, which is entered too; below Python 3.11 code has no
    co_qualname, so a function is named by co_name and one whose name is
    <...> is left out.  The root-context cache is emptied first, so a warm
    cache cannot hide a shared call."""
    names = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            name = getattr(code, "co_qualname", code.co_name).split(".<locals>.")[0]
            if not name.startswith("<"):
                names.add(name)
    ffield._root_context.cache_clear()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, names


def _shared(kernel, oracle, allowed):
    """The names both sides enter outside the allowed ones; each side's
    result must agree with the other's."""
    got, kernel_names = _entered(kernel)
    want, oracle_names = _entered(oracle)
    assert got == want
    return (kernel_names & oracle_names) - set(allowed)


@pytest.mark.parametrize("name, kernel, oracle, allowed", ROWS, ids=[r[0] for r in ROWS])
def test_oracle_shares_no_function_with_its_kernel(name, kernel, oracle, allowed):
    assert _shared(kernel, oracle, allowed) == set()


def test_an_oracle_patched_to_call_its_kernels_evaluator_fails(monkeypatch):
    # the diameter row with its walk oracle stepped by f(u), the evaluator
    # the kernel's seen-set walk uses: the same numbers, a shared function
    def horner_walk(f, u0, N):
        u, vals = u0 % f.modulus.p, []
        for _ in range(N):
            vals.append(u)
            u = f(u)
        return vals
    monkeypatch.setitem(globals(), "_walk", horner_walk)
    _, kernel, oracle, allowed = next(row for row in ROWS if row[0] == "diameter")
    assert _shared(kernel, oracle, allowed) == {"FpPolynomial.__call__"}


def test_the_readers_walk_nothing():
    # diameter and pairs_in_box read a walk they are handed, from either walker
    walks = {"_seen_scan", "_lockstep_scan", "_certify", "FpPolynomial.__call__"}
    lockstep = trajectory_lengths([CUBIC, *LANES], [7, *STARTS])[0]
    for traj in (trajectory_length(CUBIC, 7), lockstep):
        for read in (lambda: diameter(traj, 40), lambda: pairs_in_box(traj, 40, BOX)):
            _, names = _entered(read)
            assert names and not names & walks


def test_congruence_rows_count_solutions():
    assert [reduce_to_power_congruence(*row).solution_count for row in POWERS] == [33, 43, 30, 37]
    assert [shifted_congruence_count(*row) for row in SHIFTED] == [73, 210]


def test_orbit_rows_count_the_recorded_vectors():
    assert [count_isomorphic_in_box(b, box) for b, box in ORBITS] == [8, 1, 6]


def test_the_lockstep_walk_enters_no_box_count_kernel():
    # the walk steps its own lanes: the Horner kernel of box counts takes
    # one coefficient form, for its own callers
    _, names = _entered(lambda: trajectory_lengths(LANES, STARTS))
    assert {"_lockstep_scan", "_certify"} <= names
    assert not names & {"poly_values", "_horner_blocks"}
