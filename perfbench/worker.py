"""One measured repetition of a workload, in a fresh interpreter.

Imports smallbox from the checkout's `src`, generates the inputs, runs the
whole input list once (traced or not), checks every item against the
recorded references and prints one JSON line.  `run.py` starts this script;
it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from record_refs import read_refs  # noqa: E402


def import_program():
    """Import smallbox from ROOT/src and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smallbox
    from smallbox import acceptance, cli, ffield, harness, hyperelliptic, lattice
    if Path(smallbox.__file__).resolve().parent != src / "smallbox":
        raise RuntimeError(f"imported smallbox from {smallbox.__file__}, not {src}")
    return types.SimpleNamespace(acceptance=acceptance, cli=cli, ffield=ffield,
                                 harness=harness, hyperelliptic=hyperelliptic,
                                 lattice=lattice)


def record(ops, raw, path: Path) -> int:
    """Write every item's output as the reference; refuse if an op raised."""
    outputs = {}
    for op, (result, error, dt) in zip(ops, raw):
        if error is not None:
            print(f"{op.key} raised {error}; no reference recorded", file=sys.stderr)
            return 1
        for key, out, _ in op.items(result, dt):
            outputs[key] = out
    path.write_text(json.dumps(outputs))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input-set", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--refs", default=str(HERE / "refs"))
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--record", help="write the outputs here as new references "
                    "instead of checking them")
    args = ap.parse_args(argv)

    sb = import_program()
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(sb, args.workload, args.input_set, args.tiny, scratch)
    ready = time.monotonic()  # the parent's spawn time is on the same clock
    setup_factor = hostspeed.factor()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_factor": setup_factor}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    raw, spans = [], []
    # no sampling loops inside traced spans: they would count as self time
    with hostspeed.Sampler(periodic=tracer is None) as sampler:
        t0 = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raising operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t_end = time.perf_counter()
            raw.append((result, error, t_end - t))
            spans.append((t, t_end))
        wall = time.perf_counter() - t0
    scaled = [sampler.scaled(a, b) for a, b in spans]
    # criterion times come from the program's own clock, so they hold the
    # sampling loops too; take out the loops' share of the run
    own_share = 1.0 - sampler.busy(t0, t0 + wall) / wall
    if tracer is not None:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shutil.rmtree(scratch, ignore_errors=True)

    if args.record:
        return record(ops, raw, Path(args.record))
    expected = read_refs(Path(args.refs) / f"{args.workload}.json.gz")["sets"][
        str(args.input_set)]
    attempted = failed = 0
    mismatches, criteria_s = [], {}
    for op, (result, error, dt) in zip(ops, raw):
        if error is not None:
            attempted, failed = attempted + 1, failed + 1
            mismatches.append(f"{op.key}: raised {error}")
            continue
        for key, out, seconds in op.items(result, dt):
            attempted += 1
            if not (key in expected and workloads.same(out, expected[key])):
                failed += 1
                mismatches.append(f"{key}: got {out!r}, expected {expected.get(key)!r}")
            if args.workload == "gate":
                criteria_s[key] = seconds * own_share

    report = {
        "ready": ready,
        "setup_factor": setup_factor,
        "wall_s": sum(scaled),
        "wall_raw_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:20],
        # one sample per call into the program: the gate is one run_all call
        "latencies_ms": [dt * 1000.0 for dt in scaled],
        "latencies_raw_ms": [dt * 1000.0 for _, _, dt in raw],
        "criteria_s": criteria_s,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
