"""smallbox benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload gate|large-p|batch --seed N \\
        --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (`worker.py`), so in-process
caches start cold as they do for each `smallbox` invocation.  Repetitions
run one after another (closed loop) until the next one would overrun
--seconds; at least one always runs.  With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 each repetition is run
once untraced and once traced, and the last line holds the per-layer
metrics.  Every item of every repetition is checked against the exact
references in refs/.  End-to-end times are given at a reference host speed
(see hostspeed.py), with the times as measured printed beside them.  A
record of the run, with the machine it ran on, is written to results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, input_set  # noqa: E402  (stdlib only)

SETUP_PROBES = 7  # setup-only interpreters per run, besides each repetition's
DEADLINE_S = 170  # the whole run, whatever --seconds says

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))

_SPANS = (
    "ffield.discriminant", "ffield.sqrt_mod_int",
    "boxcount.count_curve_points", "boxcount.count_graph_points",
    "hyperelliptic.class_census", "dynsys.trajectory_length",
    "lattice.lattice_points_in_box", "harness.run", "cli.main")
_SELF_ONLY = (
    "boxcount.weil_error",
    "hyperelliptic.isomorphism_scalars", "hyperelliptic.canonical_representative",
    "hyperelliptic.count_isomorphic_in_box",
    "hyperelliptic.reduce_to_power_congruence", "hyperelliptic.sharpness_witness",
    "analytic.count_vinogradov", "analytic.erdos_turan_check", "analytic.exp_sum",
    "analytic.weyl_square_identity", "analytic.weyl_majorant",
    "lattice.successive_minima", "lattice.cor7_check", "lattice.lemma6_count",
    "lattice.shifted_congruence_count",
    "harness.emit", "harness.parse_records")
_WORK = (("ffield.horner.calls", "count"), ("boxcount.columns", "count"),
         ("hyperelliptic.census_vectors", "count"), ("lattice.enum_volume", "count"),
         ("dynsys.orbit_steps", "count"), ("harness.emit.bytes", "bytes"))
CRITERIA = tuple(f"acceptance.c{k:02d}_s" for k in range(1, 14))
PER_LAYER = (
    tuple((f"{s}.calls", "count") for s in _SPANS)
    + tuple((f"{s}.self_s", "s") for s in _SPANS + _SELF_ONLY)
    + _WORK
    + tuple((c, "s") for c in CRITERIA)
    + (("trace.overhead_frac", "frac"),))
# counts that must repeat exactly; harness.emit.bytes does not, as every
# record it writes carries its own runtime_ms
EXACT = {name for name, unit in PER_LAYER if unit == "count"}


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


class Runner:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.scratch = RESULTS / f"scratch-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--input-set", str(input_set(a.workload, a.seed)), "--refs", a.refs,
               "--scratch", str(self.scratch), *extra]
        if a.tiny:
            cmd.append("--tiny")
        t0 = time.monotonic()
        remaining = self.deadline - t0
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=remaining, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition exceeded the {DEADLINE_S} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["setup_raw_s"] = rep["ready"] - t0
        rep["setup_s"] = rep["setup_raw_s"] * rep["setup_factor"]
        rep["elapsed_s"] = time.monotonic() - t0
        return rep


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: int, trace: bool) -> dict:
    """Setup probes, then repetitions (each followed by a traced one when
    tracing) until the next round would end after `seconds`.  A traced run
    makes at least two traced repetitions, so that every count is checked
    for exact repetition."""
    t_start = time.monotonic()
    probes = [runner.spawn("--setup-only") for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes]
    plain, traced = [], []
    while True:
        t_round = time.monotonic()
        plain.append(runner.spawn())
        if trace:
            traced.append(runner.spawn("--trace"))
        round_s = time.monotonic() - t_round
        if time.monotonic() - t_start + round_s > seconds:
            break
    if trace and len(traced) < 2:
        traced.append(runner.spawn("--trace"))
    reps = plain + traced
    return {"setups": setups + [r["setup_s"] for r in reps],
            "setups_raw": [r["setup_raw_s"] for r in probes + reps],
            "plain": plain, "traced": traced}


def end_to_end(m: dict, raw: bool = False) -> tuple[dict, dict]:
    """Metric values and their sample counts; times at the reference host
    speed, or as measured with raw=True."""
    plain = m["plain"]
    suffix = "_raw" if raw else ""
    lat = [x for r in plain for x in r[f"latencies{suffix}_ms"]]
    return {
        "setup_s": statistics.median(m[f"setups{suffix}"]),
        "wall_s": statistics.median(r[f"wall{suffix}_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "op_p50_ms": quantile(lat, 50),
        "op_p90_ms": quantile(lat, 90),
    }, {"setup_s": len(m["setups"]), "wall_s": len(plain),
        "peak_rss_mb": len(plain), "op_p50_ms": len(lat), "op_p90_ms": len(lat)}


def per_layer(m: dict) -> tuple[dict, list[str]]:
    """Metric values, and the counts that did not repeat exactly."""
    plain, traced = m["plain"], m["traced"]
    problems = []
    layers = [r["layers"] for r in traced]
    out = {}
    for name, unit in PER_LAYER:
        if name in CRITERIA:
            key = name.split(".")[1][:-2]
            out[name] = statistics.median(r["criteria_s"].get(key, 0.0) for r in plain)
        elif name == "trace.overhead_frac":
            out[name] = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain) - 1.0)
        elif name in EXACT:
            values = {lay[name] for lay in layers}
            if len(values) != 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            out[name] = layers[0][name]
        else:
            out[name] = statistics.median(lay[name] for lay in layers)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a small subset of the workload (self-test)")
    ap.add_argument("--refs", default=str(HERE / "refs"),
                    help="directory of reference outputs")
    args = ap.parse_args(argv)
    iset = input_set(args.workload, args.seed)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "smallbox" / "__init__.py").is_file():
        print(f"no smallbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (Path(args.refs) / f"{args.workload}.json.gz").is_file():
        print(f"no references for {args.workload} in {args.refs}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args, deadline)
    try:
        m = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reps = m["plain"] + m["traced"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    mismatches = [x for r in reps for x in r["mismatches"]]
    if args.trace:
        values, problems = per_layer(m)
        units = dict(PER_LAYER)
        failed += len(problems)
        mismatches += problems
        samples = {name: len(m["traced"]) for name in values}
    else:
        values, samples = end_to_end(m)
        measured, _ = end_to_end(m, raw=True)
        units = dict(END_TO_END)

    info = machine()
    traced = f" + {len(m['traced'])} traced" if args.trace else ""
    print(f"perfbench {args.workload} seed={args.seed} input_set={iset} "
          f"trace={args.trace} repetitions={len(m['plain'])}{traced}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in values.items():
        as_measured = "" if args.trace else f" as measured {measured[name]:.6f}"
        print(f"  {name:48s} {value:18.6f} {units[name]:6s} (n={samples[name]}){as_measured}")
    print(f"  {'error_rate':48s} {failed / max(attempted, 1):18.6f} {'frac':6s} "
          f"({failed} failed / {attempted} attempted)")
    for line in mismatches[:20]:
        print(f"  MISMATCH {line}")

    record = {"workload": args.workload, "seed": args.seed,
              "input_set": iset, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": info,
              "metrics": values, "samples": samples, "attempted": attempted,
              "failed": failed, "mismatches": mismatches[:100],
              "setups_s": m["setups"], "setups_raw_s": m["setups_raw"],
              "walls_s": [r["wall_s"] for r in m["plain"]],
              "walls_raw_s": [r["wall_raw_s"] for r in m["plain"]],
              "traced_walls_s": [r["wall_s"] for r in m["traced"]]}
    if not args.trace:
        record["metrics_as_measured"] = measured
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
