"""Command-line front end.

Every subcommand reads its options from flags, falling back to `key=value`
lines of the file given by --config (flags win).  Results print as readable
summaries and can be written as CSV or JSON records with --out.  The exit
code is 0 exactly when every produced record passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import analytic, boxcount, dynsys, harness, hyperelliptic, lattice
from .ffield import FpPolynomial, PrimeModulus


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    return str(v).strip().lower() in ("1", "true", "yes", "on")


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallbox",
        description="Exact counting experiments in small boxes over prime fields")
    parser.add_argument("--out", help="write result records to this path")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="record format for --out (default csv)")
    parser.add_argument("--seed", help="64-bit seed for randomized suites")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, *opts, flags=()):
        sp = sub.add_parser(name)
        for o in opts:
            sp.add_argument(f"--{o}")
        for fl in flags:
            sp.add_argument(f"--{fl}", action="store_const", const=True)
        return sp

    cmd("count-curve", "p", "f", "box", flags=("naive",))
    cmd("count-graph", "p", "f", "box", flags=("naive",))
    cmd("weil", "p", "f", "M", "R", "S")
    cmd("curve-iso", "p", "g", "a", "b")
    cmd("curve-classes", "p", "g", "box", "M")
    cmd("sharpness", "p", "g", "M")
    cmd("dynsys", "p", "f", "u0", "N")
    cmd("vinogradov", "k", "m", "H")
    cmd("expsum", "p", "f", "k", "M")
    cmd("lattice-check", "n", "coeffs", "p", "halfwidths")
    cmd("thm2-lattice", "p", "c", "M")
    cmd("acceptance", flags=("quick",))
    return parser


class _Options:
    """Merged view over CLI args and config-file defaults."""

    def __init__(self, parser, args, cfg):
        self.parser = parser
        self.args = args
        self.cfg = cfg

    def get(self, name, conv=str, default=None, required=False):
        v = getattr(self.args, name, None)
        if v is None:
            v = self.cfg.get(name)
        if v is None:
            if required:
                self.parser.error(f"missing --{name} (or config key {name})")
            return default
        return conv(v)

    def ints(self, name, required=False, default=None):
        raw = self.get(name, str, None, required)
        if raw is None:
            return default
        return [int(x) for x in str(raw).split(",")]


def _spec_run(opt, kind: str, params: dict) -> list[harness.ResultRecord]:
    spec = harness.ExperimentSpec(kind=kind, params=params,
                                  seed=opt.get("seed", int, 0))
    return harness.run(spec)


def _count_cmd(opt, kind: str):
    p = opt.get("p", int, required=True)
    f = opt.get("f", str, required=True)
    R, S, M = opt.ints("box", required=True)
    params = {"p": p, "f": f, "R": R, "S": S, "M": M}
    if opt.get("naive", _bool, False):
        params["method"] = "naive"
    records = _spec_run(opt, kind, params)
    r = records[0]
    what = "y^2 = f(x)" if kind == "count_curve" else "y = f(x)"
    return records, [f"{what} points in box R={R},S={S},M={M} mod {p}: "
                     f"{int(r.value)} (trivial bound {int(r.bound_value)})"]


def _weil_cmd(opt):
    params = {"p": opt.get("p", int, required=True),
              "f": opt.get("f", str, required=True),
              "M": opt.get("M", int, required=True),
              "R": opt.get("R", int, 0), "S": opt.get("S", int, 0)}
    records = _spec_run(opt, "weil", params)
    r = records[0]
    return records, [
        f"count deviation from M^2/p: {r.value:.2f}, budget {r.bound_value:.2f}, "
        f"{'within' if r.passed else 'OUTSIDE'} budget (count {int(r.oracle_value)})"]


def _iso_cmd(opt):
    pm = PrimeModulus(opt.get("p", int, required=True))
    g = opt.get("g", int, required=True)
    a = hyperelliptic.CurveVector(g, tuple(opt.ints("a", required=True)), pm)
    b = hyperelliptic.CurveVector(g, tuple(opt.ints("b", required=True)), pm)
    t0 = time.perf_counter()
    scalars = sorted(int(x) for x in hyperelliptic.isomorphism_scalars(a, b))
    rec = harness.ResultRecord(
        experiment_id="curve-iso", kind="curve_iso",
        params=json.dumps({"a": a.a, "b": b.a, "g": g, "p": pm.p}),
        value=len(scalars), bound_value=pm.p - 1,
        ratio=len(scalars) / (pm.p - 1), oracle_value=None, passed=True,
        runtime_ms=(time.perf_counter() - t0) * 1000.0)
    if scalars:
        lines = [f"isomorphic via {len(scalars)} scalars: {scalars}"]
    else:
        lines = ["not isomorphic (no scaling works)"]
    return [rec], lines


def _classes_cmd(opt):
    pm = PrimeModulus(opt.get("p", int, required=True))
    g = opt.get("g", int, required=True)
    M = opt.get("M", int, required=True)
    R = opt.ints("box", default=[0] * (2 * g))
    records = _spec_run(opt, "census",
                        {"p": pm.p, "g": g, "M": M, "R": ",".join(map(str, R))})
    census = hyperelliptic.class_census(pm, hyperelliptic.CubeBox(g, tuple(R), M))
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
    return records, [json.dumps(payload, indent=2)]


def _sharpness_cmd(opt):
    params = {"p": opt.get("p", int, required=True),
              "g": opt.get("g", int, required=True),
              "M": opt.get("M", int, required=True)}
    records = _spec_run(opt, "sharpness", params)
    r = records[0]
    verdict = "reached" if r.passed else "NOT reached"
    return records, [
        f"isomorphic count {int(r.value)} vs residue witness {int(r.bound_value)} "
        f"(2 x {int(r.oracle_value)} residues): floor {verdict}"]


def _dynsys_cmd(opt):
    p = opt.get("p", int, required=True)
    f_text = opt.get("f", str, required=True)
    u0 = opt.get("u0", int, required=True)
    params = {"p": p, "f": f_text, "u0": u0}
    N = opt.get("N", int, None)
    if N is not None:
        params["N"] = N
    records = _spec_run(opt, "dynsys", params)
    pm = PrimeModulus(p)
    traj = dynsys.trajectory_length(FpPolynomial.from_text(f_text, pm), u0)
    rec_d = records[1]
    return records, [
        f"T = {traj.total_length} (tail {traj.tail_length}, "
        f"cycle {traj.cycle_length}); D(N) = {int(rec_d.value)}, "
        f"bound {rec_d.bound_value:.2f}, ratio {rec_d.ratio:.3f}"]


def _vinogradov_cmd(opt):
    params = {"k": opt.get("k", int, required=True),
              "m": opt.get("m", int, required=True),
              "H": opt.get("H", int, required=True)}
    records = _spec_run(opt, "vinogradov", params)
    r = records[0]
    return records, [
        f"J({params['k']},{params['m']};{params['H']}) = {int(r.value)} "
        f"(diagonal floor {int(r.oracle_value)}, shape H^"
        f"{2 * params['k'] - params['m'] * (params['m'] + 1) // 2})"]


def _expsum_cmd(opt):
    pm = PrimeModulus(opt.get("p", int, required=True))
    f = FpPolynomial.from_text(opt.get("f", str, required=True), pm)
    k = opt.get("k", int, required=True)
    M = opt.get("M", int, required=True)
    t0 = time.perf_counter()
    s = analytic.exp_sum((f, k), M)
    rec = harness.ResultRecord(
        experiment_id="expsum", kind="expsum",
        params=json.dumps({"p": pm.p, "f": f.to_text(), "k": k, "M": M}),
        value=abs(s), bound_value=float(M), ratio=abs(s) / M,
        oracle_value=None, passed=abs(s) <= M + 1e-9,
        runtime_ms=(time.perf_counter() - t0) * 1000.0)
    return [rec], [f"S = {s.real:.6f} + {s.imag:.6f}i, |S| = {abs(s):.6f} <= M = {M}"]


def _lattice_cmd(opt):
    coeffs = opt.ints("coeffs", required=True)
    n = opt.get("n", int, None)
    if n is not None and n != len(coeffs):
        raise ValueError(f"--n {n} disagrees with {len(coeffs)} coefficients")
    params = {"p": opt.get("p", int, required=True),
              "coeffs": ",".join(map(str, coeffs)),
              "halfwidths": opt.get("halfwidths", str, required=True)}
    records = _spec_run(opt, "lattice", params)
    cor7, mink = records
    return records, [
        f"clipped minima product {cor7.value:.6g} vs counting bound "
        f"{cor7.bound_value:.6g} ({int(cor7.oracle_value)} points): "
        f"{'ok' if cor7.passed else 'VIOLATED'}",
        f"first-minimum volume bound: {mink.value:.6g} <= {mink.bound_value:.6g}: "
        f"{'ok' if mink.passed else 'VIOLATED'}"]


def _thm2_cmd(opt):
    p = opt.get("p", int, required=True)
    c = opt.ints("c", required=True)
    M = opt.get("M", int, required=True)
    t0 = time.perf_counter()
    setup = lattice.build_thm2_lattice(c, M, p)
    # only the first three minima feed the l3 < 1 diagnostic; the later
    # ones of this body routinely sit beyond the enumeration guard
    rep = lattice.successive_minima(setup.lattice, setup.box, upto=3)
    solutions = lattice.shifted_congruence_count(c, M, p)
    lam3 = float(rep.lambdas[2])
    rec = harness.ResultRecord(
        experiment_id="thm2-lattice", kind="thm2_lattice",
        params=json.dumps({"p": p, "c": c, "M": M}),
        value=lam3, bound_value=1.0, ratio=lam3,
        oracle_value=float(solutions), passed=True,
        runtime_ms=(time.perf_counter() - t0) * 1000.0)
    lines = [
        f"lattice coeffs {setup.lattice.coeffs}, halfwidths "
        f"{tuple(int(h) for h in setup.box.halfwidths)}"
        + ("" if setup.proof_scale_ok else " (8M^3 >= p: outside proof regime)"),
        "first minima: "
        + ", ".join(f"l{i + 1} = {l}" for i, l in enumerate(rep.lambdas)),
        f"shifted congruence solutions with |x|,|y| <= {M}: {solutions}",
        f"l3 < 1: {'yes' if lam3 < 1 else 'no'} (logged, not asserted)"]
    return [rec], lines


def _acceptance_cmd(opt):
    params = {}
    if opt.get("quick", _bool, False):
        params["quick"] = True
    records = _spec_run(opt, "acceptance", params)
    n_pass = sum(r.passed for r in records)
    return records, [f"{n_pass}/{len(records)} criteria pass"]


_HANDLERS = {
    "count-curve": lambda opt: _count_cmd(opt, "count_curve"),
    "count-graph": lambda opt: _count_cmd(opt, "count_graph"),
    "weil": _weil_cmd,
    "curve-iso": _iso_cmd,
    "curve-classes": _classes_cmd,
    "sharpness": _sharpness_cmd,
    "dynsys": _dynsys_cmd,
    "vinogradov": _vinogradov_cmd,
    "expsum": _expsum_cmd,
    "lattice-check": _lattice_cmd,
    "thm2-lattice": _thm2_cmd,
    "acceptance": _acceptance_cmd,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _load_config(args.config) if args.config else {}
    opt = _Options(parser, args, cfg)
    try:
        records, lines = _HANDLERS[args.command](opt)
    except ValueError as exc:  # bad input: one line on stderr, exit code 2
        parser.error(str(exc))
    for line in lines:
        print(line)
    out = opt.get("out")
    if out:
        harness.emit(records, opt.get("format", str, "csv"), out)
        print(f"wrote {len(records)} records to {out}")
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
