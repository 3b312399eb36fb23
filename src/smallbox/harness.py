"""Experiment plumbing: validated experiment specs, dispatch into the
counting modules, result records with bound ratios, CSV/JSON emission with a
fixed column set, a content-addressed result cache, and the seeded RNG
derivation used by every randomized suite."""

from __future__ import annotations

import csv
import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from . import analytic, boxcount, dynsys, hyperelliptic, lattice
from .ffield import FpPolynomial, PrimeModulus

KINDS = ("count_curve", "count_graph", "weil", "census", "sharpness",
         "dynsys", "vinogradov", "lattice", "lemma6", "acceptance")

REQUIRED_KEYS = {
    "count_curve": ("p", "f", "R", "S", "M"),
    "count_graph": ("p", "f", "R", "S", "M"),
    "weil": ("p", "f", "M"),
    "census": ("p", "g", "M"),
    "sharpness": ("p", "g", "M"),
    "dynsys": ("p", "f", "u0"),
    "vinogradov": ("k", "m", "H"),
    "lattice": ("p", "coeffs", "halfwidths"),
    "lemma6": ("p", "f", "g", "xs", "ys"),
    "acceptance": (),
}

CSV_COLUMNS = ("experiment_id", "kind", "params", "value", "bound_value",
               "ratio", "oracle_value", "pass", "runtime_ms")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        for key in REQUIRED_KEYS[self.kind]:
            if key not in self.params:
                raise ValueError(f"missing key {key!r} for kind {self.kind!r}")

    def canonical_params(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        payload = json.dumps(
            {"kind": self.kind, "params": self.params, "seed": self.seed},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRecord:
    experiment_id: str
    kind: str
    params: str
    value: float
    bound_value: float
    ratio: float
    oracle_value: float | None
    passed: bool
    runtime_ms: float


def derived_rng(seed: int, label: str, i: int = 0) -> random.Random:
    """Counter-derived generator: one global seed, reproducible per trial."""
    return random.Random(f"{seed}|{label}|{i}")


def _poly(params, key, modulus) -> FpPolynomial:
    return FpPolynomial.from_ints(_int_list(params[key]), modulus)


def _int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(x) for x in value]
    return [int(x) for x in str(value).split(",")]


def _record(spec: ExperimentSpec, value, bound, oracle, passed, t0,
            suffix: str = "") -> ResultRecord:
    ident = f"{spec.kind}-{spec.cache_key()[:12]}{suffix}"
    bound = float(bound)
    return ResultRecord(
        experiment_id=ident,
        kind=spec.kind,
        params=spec.canonical_params(),
        value=float(value),
        bound_value=bound,
        ratio=float(value) / bound if bound > 0 else 0.0,
        oracle_value=None if oracle is None else float(oracle),
        passed=bool(passed),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def run(spec: ExperimentSpec) -> list[ResultRecord]:
    """Dispatch one experiment; deterministic for fixed (spec, seed)."""
    t0 = time.perf_counter()
    params = spec.params
    kind = spec.kind

    if kind in ("count_curve", "count_graph"):
        pm = PrimeModulus(int(params["p"]))
        f = _poly(params, "f", pm)
        box = boxcount.Box2(int(params["R"]), int(params["S"]), int(params["M"]))
        counter = (boxcount.count_curve_points if kind == "count_curve"
                   else boxcount.count_graph_points)
        method = str(params.get("method", "sqrt_scan"))
        rep = counter(f, box, method=method)
        oracle = None
        passed = rep.count <= rep.bound_value
        if params.get("oracle"):
            oracle = counter(f, box, method="naive").count
            passed = passed and rep.count == oracle
        return [_record(spec, rep.count, rep.bound_value, oracle, passed, t0)]

    if kind == "weil":
        pm = PrimeModulus(int(params["p"]))
        f = _poly(params, "f", pm)
        M = int(params["M"])
        box = boxcount.Box2(int(params.get("R", 0)), int(params.get("S", 0)), M)
        rep = boxcount.weil_error(f, box)
        return [_record(spec, rep.deviation, rep.constant * rep.weil_budget,
                        rep.count, rep.within_budget, t0)]

    if kind == "census":
        pm = PrimeModulus(int(params["p"]))
        g = int(params["g"])
        M = int(params["M"])
        R = tuple(_int_list(params.get("R", [0] * (2 * g))))
        census = hyperelliptic.class_census(pm, hyperelliptic.CubeBox(g, R, M))
        moments_ok = (sum(census.class_sizes.values()) == census.total_nonsingular
                      and census.max_class_size <= 2 * M
                      and census.total_nonsingular + census.singular_count
                      == census.box_size)
        bound = min(pm.p ** (2 * g - 1), M ** (2 * g))
        return [_record(spec, census.class_count, bound, None, moments_ok, t0)]

    if kind == "sharpness":
        pm = PrimeModulus(int(params["p"]))
        rep = hyperelliptic.sharpness_witness(pm, int(params["M"]), int(params["g"]))
        return [_record(spec, rep.isomorphic_count, rep.witness_count,
                        rep.residue_count, rep.attained, t0)]

    if kind == "dynsys":
        pm = PrimeModulus(int(params["p"]))
        f = _poly(params, "f", pm)
        u0 = int(params["u0"])
        traj = dynsys.trajectory_length(f, u0)
        T = traj.total_length
        N = int(params.get("N", T))
        D = dynsys.diameter(f, u0, N)
        bound = dynsys.bound_diameter(N, pm.p, max(f.degree, 2),
                                      float(params.get("eps", 0.0)))
        rec_t = _record(spec, T, pm.p, None, T <= pm.p, t0, suffix="-T")
        rec_d = _record(spec, D, bound, None, D <= pm.p - 1, t0, suffix="-D")
        return [rec_t, rec_d]

    if kind == "vinogradov":
        inst = analytic.VinogradovInstance(int(params["k"]), int(params["m"]),
                                           int(params["H"]))
        value = analytic.count_vinogradov(inst)
        k, m, H = inst.k, inst.m, inst.H
        bound = float(H) ** (2 * k - m * (m + 1) / 2)
        diag = H ** k
        passed = diag <= value <= H ** (2 * k)
        return [_record(spec, value, bound, diag, passed, t0)]

    if kind == "lattice":
        lat = lattice.CongruenceLattice(tuple(_int_list(params["coeffs"])),
                                        int(params["p"]))
        box = lattice.ConvexBox(tuple(Fraction(h) for h in
                                      _int_list(params["halfwidths"])))
        rep = lattice.cor7_check(lat, box)
        mink = lattice.minkowski_check(lat, box)
        return [_record(spec, rep.product, rep.bound, rep.point_count, rep.ok,
                        t0, suffix="-cor7"),
                _record(spec, mink.product, mink.bound, None, mink.ok,
                        t0, suffix="-mink")]

    if kind == "lemma6":
        pm = PrimeModulus(int(params["p"]))
        f = _poly(params, "f", pm)
        g = _poly(params, "g", pm)
        xs = _int_list(params["xs"])
        ys = _int_list(params["ys"])
        count = lattice.lemma6_count(f, g, xs, ys)
        cap = f.degree * g.degree
        return [_record(spec, count, cap, None, count <= cap, t0)]

    if kind == "acceptance":
        from . import acceptance
        out = []
        for res in acceptance.run_all(quick=bool(params.get("quick"))):
            rec = _record(spec, res.value, res.bound if res.bound else 1.0,
                          None, res.passed, t0, suffix=f"-c{res.number:02d}")
            out.append(replace(rec, runtime_ms=res.runtime_ms))
        return out

    raise AssertionError(f"unhandled kind {kind}")  # KINDS is exhaustive


def _format_opt(x: float | None) -> str:
    return "" if x is None else repr(x)


def emit(records: list[ResultRecord], fmt: str, path) -> None:
    """Write records as CSV (fixed column order) or JSON, UTF-8, trailing
    newline."""
    path = Path(path)
    try:
        if fmt == "csv":
            with path.open("w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(CSV_COLUMNS)
                for r in records:
                    w.writerow([r.experiment_id, r.kind, r.params, repr(r.value),
                                repr(r.bound_value), repr(r.ratio),
                                _format_opt(r.oracle_value),
                                "true" if r.passed else "false",
                                repr(r.runtime_ms)])
        elif fmt == "json":
            rows = [{"experiment_id": r.experiment_id, "kind": r.kind,
                     "params": r.params, "value": r.value,
                     "bound_value": r.bound_value, "ratio": r.ratio,
                     "oracle_value": r.oracle_value, "pass": r.passed,
                     "runtime_ms": r.runtime_ms} for r in records]
            path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def parse_records(path, fmt: str) -> list[ResultRecord]:
    """Inverse of emit, used for round-trip checks."""
    path = Path(path)
    out = []
    if fmt == "csv":
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ValueError(f"bad header in {path}")
            for row in reader:
                out.append(ResultRecord(
                    experiment_id=row["experiment_id"], kind=row["kind"],
                    params=row["params"], value=float(row["value"]),
                    bound_value=float(row["bound_value"]),
                    ratio=float(row["ratio"]),
                    oracle_value=(float(row["oracle_value"])
                                  if row["oracle_value"] else None),
                    passed=row["pass"] == "true",
                    runtime_ms=float(row["runtime_ms"])))
    elif fmt == "json":
        for row in json.loads(path.read_text(encoding="utf-8")):
            out.append(ResultRecord(
                experiment_id=row["experiment_id"], kind=row["kind"],
                params=row["params"], value=row["value"],
                bound_value=row["bound_value"], ratio=row["ratio"],
                oracle_value=row["oracle_value"], passed=row["pass"],
                runtime_ms=row["runtime_ms"]))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return out


class ResultCache:
    """Content-addressed store keyed by (kind, params, seed).  Corrupt
    entries are evicted on read."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{spec.cache_key()}.json"

    def lookup(self, spec: ExperimentSpec) -> list[ResultRecord] | None:
        entry = self._entry(spec)
        if not entry.exists():
            return None
        try:
            return parse_records(entry, "json")
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            entry.unlink(missing_ok=True)
            return None

    def store(self, spec: ExperimentSpec, records: list[ResultRecord]) -> None:
        emit(records, "json", self._entry(spec))

    def run_cached(self, spec: ExperimentSpec) -> list[ResultRecord]:
        hit = self.lookup(spec)
        if hit is not None:
            return hit
        records = run(spec)
        self.store(spec, records)
        return records
