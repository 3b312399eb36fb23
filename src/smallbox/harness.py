"""Experiment plumbing: one registry of experiment kinds (params, CLI command
and runner), validated experiment specs, result records with bound ratios,
and CSV/JSON emission with a fixed column set."""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import acceptance, analytic, boxcount, dynsys, hyperelliptic, lattice
from .acceptance import DEFAULT_SEED
from .ffield import FpPolynomial, PrimeModulus

CSV_COLUMNS = ("experiment_id", "kind", "params", "value", "bound_value",
               "ratio", "oracle_value", "pass", "runtime_ms")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.kind not in EXPERIMENTS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        exp = EXPERIMENTS[self.kind]
        for key in exp.required:
            if key not in self.params:
                raise ValueError(f"missing key {key!r} for kind {self.kind!r}")
        for key in self.params:
            if key not in exp.required and key not in exp.optional_params:
                raise ValueError(f"unknown key {key!r} for kind {self.kind!r}")

    def canonical_params(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))

    def cache_key(self, params: str | None = None) -> str:
        """sha256 of the compact sorted-key JSON {"kind", "params", "seed"},
        spliced around `params`, the canonical_params() a caller has made
        already, so `execute` serializes the params once."""
        if params is None:
            params = self.canonical_params()
        payload = (f'{{"kind":{json.dumps(self.kind)},"params":{params},'
                   f'"seed":{json.dumps(self.seed)}}}')
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRecord:
    experiment_id: str
    kind: str
    params: str
    value: int | float  # Python ints stay exact; everything else is a float
    bound_value: float
    ratio: float
    oracle_value: int | float | None
    passed: bool
    runtime_ms: float


class Row(NamedTuple):
    """One result of a runner; `execute` makes it a ResultRecord."""
    value: int | float
    bound: float
    oracle: int | float | None = None
    passed: bool = True
    suffix: str = ""  # appended to the experiment id
    runtime_ms: float | None = None  # default: the whole run


# A runner maps (params, seed) to (rows, summary); summary() formats the
# printed lines from the exact values the runner kept, on demand.
Summary = Callable[[], list[str]]
Runner = Callable[[dict, int], tuple[list[Row], Summary]]


@dataclass(frozen=True)
class Experiment:
    required: tuple[str, ...]  # params a spec of this kind must carry
    command: str  # CLI subcommand
    runner: Runner
    options: tuple[str, ...] | None = None  # required CLI options, if not `required`
    optional: tuple[str, ...] = ()  # optional CLI options
    flags: tuple[str, ...] = ()  # CLI switches, passed on as True
    from_cli: Callable[[dict], dict] | None = None  # CLI options -> params
    reads: tuple[str, ...] | None = None  # optional params, if not `optional` + `flags`

    @property
    def required_options(self) -> tuple[str, ...]:
        return self.required if self.options is None else self.options

    @property
    def optional_params(self) -> tuple[str, ...]:
        return self.optional + self.flags if self.reads is None else self.reads


def _poly(params, key, modulus) -> FpPolynomial:
    value = params[key]
    if isinstance(value, str):
        return FpPolynomial.from_text(value, modulus)
    return FpPolynomial.from_ints(_int_list(value), modulus)


def _int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(x) for x in value]
    return [int(x) for x in str(value).split(",")]


def _exact(v) -> int | float:
    """A record's value: a Python int as it is, anything else as a float."""
    return v if type(v) is int else float(v)


def execute(spec: ExperimentSpec) -> tuple[list[ResultRecord], Summary]:
    """Run one experiment; deterministic for fixed (spec, seed)."""
    t0 = time.perf_counter()
    rows, summary = EXPERIMENTS[spec.kind].runner(spec.params, spec.seed)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    params = spec.canonical_params()
    ident = f"{spec.kind}-{spec.cache_key(params)[:12]}"
    records = []
    for row in rows:
        value, bound = _exact(row.value), float(row.bound)
        records.append(ResultRecord(
            experiment_id=ident + row.suffix, kind=spec.kind, params=params,
            value=value, bound_value=bound,
            ratio=value / bound if bound > 0 else 0.0,
            oracle_value=None if row.oracle is None else _exact(row.oracle),
            passed=bool(row.passed),
            runtime_ms=runtime_ms if row.runtime_ms is None else row.runtime_ms))
    return records, summary


def run(spec: ExperimentSpec) -> list[ResultRecord]:
    """The records of one experiment."""
    return execute(spec)[0]


# ---------------------------------------------------------------------------
# runners: each looks its kernels up on the module at call time


def _count(kind, params, seed):
    pm = PrimeModulus(int(params["p"]))
    f = _poly(params, "f", pm)
    box = boxcount.Box2(int(params["R"]), int(params["S"]), int(params["M"]))
    curve = kind == "count_curve"
    power = 2 if curve else 1
    count = (boxcount.count_curve_points if curve else boxcount.count_graph_points)(f, box)
    bound = power * box.M  # the trivial bound: `power` values of y per column
    oracle, passed = None, count <= bound
    if params.get("oracle"):
        oracle = boxcount.naive_count(f.coeffs, (0,) * power + (1,),
                                      box.x_range, box.y_range, pm.p)
        passed = passed and count == oracle
    what = "y^2 = f(x)" if curve else "y = f(x)"
    return [Row(count, float(bound), oracle, passed)], lambda: [
        f"{what} points in box R={box.R},S={box.S},M={box.M} mod {pm.p}: "
        f"{count} (trivial bound {bound})"]


def _box_params(opts):
    """count-curve and count-graph take the box as --box R,S,M."""
    box = _int_list(opts.pop("box"))
    if len(box) != 3:
        raise ValueError(f"--box needs three numbers R,S,M, got {len(box)}")
    opts.update(zip("RSM", box))
    if opts.pop("naive", False):
        opts["oracle"] = True
    return opts


def _weil(params, seed):
    pm = PrimeModulus(int(params["p"]))
    box = boxcount.Box2(int(params.get("R", 0)), int(params.get("S", 0)),
                        int(params["M"]))
    rep = boxcount.weil_error(_poly(params, "f", pm), box)
    return [Row(rep.deviation, rep.budget, rep.count, rep.within_budget)], lambda: [
        f"count deviation from M^2/p: {rep.deviation:.2f}, budget {rep.budget:.2f}, "
        f"{'within' if rep.within_budget else 'OUTSIDE'} budget (count {rep.count})"]


def _curve_iso(params, seed):
    pm = PrimeModulus(int(params["p"]))
    g = int(params["g"])
    a, b = (hyperelliptic.CurveVector(g, tuple(_int_list(params[key])), pm)
            for key in ("a", "b"))
    scalars = sorted(int(x) for x in hyperelliptic.isomorphism_scalars(a, b))
    return [Row(len(scalars), pm.p - 1)], lambda: (
        [f"isomorphic via {len(scalars)} scalars: {scalars}"] if scalars
        else ["not isomorphic (no scaling works)"])


def _census(params, seed):
    pm = PrimeModulus(int(params["p"]))
    g, M = int(params["g"]), int(params["M"])
    R = tuple(_int_list(params.get("R", [0] * (2 * g))))
    census = hyperelliptic.class_census(pm, hyperelliptic.CubeBox(g, R, M))
    moments_ok = (int(census.sizes.sum()) == census.total_nonsingular
                  and census.max_class_size <= 2 * M
                  and census.total_nonsingular + census.singular_count
                  == census.box_size)
    bound = min(pm.p ** (2 * g - 1), M ** (2 * g))

    def summary():
        payload = {
            "class_count": census.class_count,
            "total_nonsingular": census.total_nonsingular,
            "second_moment": census.second_moment,
            "max_class_size": census.max_class_size,
            "box_size": census.box_size,
            "singular_count": census.singular_count,
            "class_sizes": {",".join(map(str, k)): v
                            for k, v in sorted(census.class_sizes.items())},
        }
        return [json.dumps(payload, indent=2)]
    return [Row(census.class_count, bound, None, moments_ok)], summary


def _census_params(opts):
    """curve-classes gives the cube corner R as --box."""
    if "box" in opts:
        opts["R"] = opts.pop("box")
    return opts


def _sharpness(params, seed):
    pm = PrimeModulus(int(params["p"]))
    rep = hyperelliptic.sharpness_witness(pm, int(params["M"]), int(params["g"]))
    return [Row(rep.isomorphic_count, rep.witness_count, rep.residue_count,
                rep.attained)], lambda: [
        f"isomorphic count {rep.isomorphic_count} vs residue witness "
        f"{rep.witness_count} (2 x {rep.residue_count} residues): "
        f"floor {'reached' if rep.attained else 'NOT reached'}"]


def _dynsys(params, seed):
    pm = PrimeModulus(int(params["p"]))
    f = _poly(params, "f", pm)
    u0 = int(params["u0"])
    traj = dynsys.trajectory_length(f, u0)
    T = traj.total_length
    N = int(params.get("N", T))
    bound = dynsys.bound_diameter(N, pm.p, max(f.degree, 2),
                                  float(params.get("eps", 0.0)))  # raises unless N >= 1
    D = dynsys.diameter(traj, N)
    rows = [Row(T, pm.p, None, T <= pm.p, "-T"),
            Row(D, bound, None, D <= pm.p - 1, "-D")]
    return rows, lambda: [
        f"T = {T} (tail {traj.tail_length}, cycle {traj.cycle_length}); "
        f"D(N) = {D}, bound {bound:.2f}, ratio {D / bound:.3f}"]


def _vinogradov(params, seed):
    k, m, H = (int(params[key]) for key in ("k", "m", "H"))
    value = analytic.count_vinogradov(k, m, H)
    diag = H ** k
    row = Row(value, float(H) ** (2 * k - m * (m + 1) / 2), diag,
              diag <= value <= H ** (2 * k))
    return [row], lambda: [
        f"J({k},{m};{H}) = {value} (diagonal floor {diag}, "
        f"shape H^{2 * k - m * (m + 1) // 2})"]


def _expsum(params, seed):
    pm = PrimeModulus(int(params["p"]))
    k, M = int(params["k"]), int(params["M"])
    s = analytic.exp_sum(_poly(params, "f", pm), k, M)
    return [Row(abs(s), M, None, abs(s) <= M + 1e-9)], lambda: [
        f"S = {s.real:.6f} + {s.imag:.6f}i, |S| = {abs(s):.6f} <= M = {M}"]


def _lattice(params, seed):
    lat = lattice.CongruenceLattice(tuple(_int_list(params["coeffs"])),
                                    int(params["p"]))
    box = lattice.ConvexBox(tuple(Fraction(h) for h in
                                  _int_list(params["halfwidths"])))
    cor7 = lattice.cor7_check(lat, box)
    mink = lattice.minkowski_check(lat, box, cor7.minima)
    rows = [Row(cor7.product, cor7.bound, cor7.point_count, cor7.ok, "-cor7"),
            Row(mink.lhs, mink.rhs, None, mink.ok, "-mink")]
    return rows, lambda: [
        f"clipped minima product {cor7.product:.6g} vs counting bound "
        f"{cor7.bound:.6g} ({cor7.point_count} points): "
        f"{'ok' if cor7.ok else 'VIOLATED'}",
        f"first-minimum volume bound: {mink.lhs:.6g} <= "
        f"{mink.rhs:.6g}: {'ok' if mink.ok else 'VIOLATED'}"]


def _lattice_params(opts):
    """lattice-check may restate the dimension as --n."""
    n = opts.pop("n", None)
    coeffs = _int_list(opts["coeffs"])
    if n is not None and int(n) != len(coeffs):
        raise ValueError(f"--n {n} disagrees with {len(coeffs)} coefficients")
    return opts


def _thm2_lattice(params, seed):
    p, M = int(params["p"]), int(params["M"])
    c = _int_list(params["c"])
    setup = lattice.build_thm2_lattice(c, M, p)
    # only the first three minima feed the l3 < 1 diagnostic; the later
    # ones of this body routinely need more than the byte guard allows
    rep = lattice.successive_minima(setup.lattice, setup.box, upto=3)
    solutions = lattice.shifted_congruence_count(c, M, p)
    lam3 = rep.lambdas[2]
    return [Row(lam3, 1.0, solutions)], lambda: [
        f"lattice coeffs {setup.lattice.coeffs}, halfwidths "
        f"{tuple(int(h) for h in setup.box.halfwidths)}"
        + ("" if setup.proof_scale_ok else " (8M^3 >= p: outside proof regime)"),
        "first minima: "
        + ", ".join(f"l{i + 1} = {lam}" for i, lam in enumerate(rep.lambdas)),
        f"shifted congruence solutions with |x|,|y| <= {M}: {solutions}",
        f"l3 < 1: {'yes' if lam3 < 1 else 'no'} (logged, not asserted)"]


def _lemma6(params, seed):
    pm = PrimeModulus(int(params["p"]))
    f, g = _poly(params, "f", pm), _poly(params, "g", pm)
    count = lattice.lemma6_count(f, g, _int_list(params["xs"]),
                                 _int_list(params["ys"]))
    cap = f.degree * g.degree
    return [Row(count, cap, None, count <= cap)], lambda: [
        f"points with f(x) = g(y) on the interpolation curve: {count} "
        f"(cap deg f * deg g = {cap}): {'ok' if count <= cap else 'VIOLATED'}"]


def _acceptance(params, seed):
    results = acceptance.run_all(quick=bool(params.get("quick")), seed=seed)
    rows = [Row(res.value, res.bound or 1.0, None, res.passed,
                f"-c{res.number:02d}", res.runtime_ms) for res in results]
    return rows, lambda: [
        f"{sum(res.passed for res in results)}/{len(results)} criteria pass"]


_BOX = dict(options=("p", "f", "box"), flags=("naive",), from_cli=_box_params,
            reads=("oracle",))

EXPERIMENTS: dict[str, Experiment] = {
    "count_curve": Experiment(("p", "f", "R", "S", "M"), "count-curve",
                              partial(_count, "count_curve"), **_BOX),
    "count_graph": Experiment(("p", "f", "R", "S", "M"), "count-graph",
                              partial(_count, "count_graph"), **_BOX),
    "weil": Experiment(("p", "f", "M"), "weil", _weil, optional=("R", "S")),
    "curve_iso": Experiment(("p", "g", "a", "b"), "curve-iso", _curve_iso),
    "census": Experiment(("p", "g", "M"), "curve-classes", _census,
                         optional=("box",), from_cli=_census_params, reads=("R",)),
    "sharpness": Experiment(("p", "g", "M"), "sharpness", _sharpness),
    "dynsys": Experiment(("p", "f", "u0"), "dynsys", _dynsys, optional=("N",),
                         reads=("N", "eps")),
    "vinogradov": Experiment(("k", "m", "H"), "vinogradov", _vinogradov),
    "expsum": Experiment(("p", "f", "k", "M"), "expsum", _expsum),
    "lattice": Experiment(("p", "coeffs", "halfwidths"), "lattice-check",
                          _lattice, optional=("n",), from_cli=_lattice_params,
                          reads=()),
    "thm2_lattice": Experiment(("p", "c", "M"), "thm2-lattice", _thm2_lattice),
    "lemma6": Experiment(("p", "f", "g", "xs", "ys"), "lemma6", _lemma6),
    "acceptance": Experiment((), "acceptance", _acceptance, flags=("quick",)),
}


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return v if isinstance(v, str) else repr(v)


def emit(records: list[ResultRecord], fmt: str, path) -> None:
    """Write records as CSV (fixed column order) or JSON, UTF-8, trailing
    newline; a record's flat fields are read off it in declaration order."""
    path = Path(path)
    try:
        if fmt == "csv":
            with path.open("w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(CSV_COLUMNS)
                for r in records:
                    w.writerow([_csv_cell(v) for v in vars(r).values()])
        elif fmt == "json":
            rows = [dict(zip(CSV_COLUMNS, vars(r).values())) for r in records]
            path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _number(text: str) -> int | float:
    """A CSV value cell: integer text reads back as an int, the rest as a float."""
    return int(text) if text.lstrip("-").isdigit() else float(text)


def parse_records(path, fmt: str) -> list[ResultRecord]:
    """Inverse of emit, used for round-trip checks."""
    path = Path(path)
    if fmt == "csv":
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ValueError(f"bad header in {path}")
            return [ResultRecord(
                row["experiment_id"], row["kind"], row["params"],
                _number(row["value"]), float(row["bound_value"]), float(row["ratio"]),
                _number(row["oracle_value"]) if row["oracle_value"] else None,
                row["pass"] == "true", float(row["runtime_ms"])) for row in reader]
    if fmt == "json":
        return [ResultRecord(*(row[c] for c in CSV_COLUMNS))
                for row in json.loads(path.read_text(encoding="utf-8"))]
    raise ValueError(f"unknown format {fmt!r}")
