"""Self-test of the benchmark itself (not of smallbox).

    python3 perfbench/selftest.py

1. The metric names and units in run.py match BENCHMARK.json.
2. Each workload, at its tiny size, prints every end-to-end metric
   (--trace 0) and every per-layer metric (--trace 1) with its unit, and
   no item fails.
3. The gate's held-out input set passes too; with one reference integer
   corrupted, a run reports failures.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "results" / "selftest"
sys.path.insert(0, str(HERE))
import record_refs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def corrupt_one_integer(refs: dict) -> str:
    """Add 1 to the first integer of the first batch item; return its key."""
    items = refs["sets"]["0"]
    key = next(iter(items))

    def bump(x):
        if isinstance(x, list):
            for i, v in enumerate(x):
                if type(v) is int:
                    x[i] = v + 1
                    return True
                if bump(v):
                    return True
        return False

    if not bump(items[key]):
        raise RuntimeError(f"no integer in {key}")
    return key


def main() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end_to_end names and units match run.py", failures)
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "per_layer names and units match run.py", failures)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workload names match", failures)

    for workload in WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc, res = bench("--workload", workload, "--seed", "0", "--seconds", "3",
                              "--trace", str(trace), "--tiny")
            what = f"{workload} tiny trace={trace}"
            check(proc.returncode == 0 and res is not None, f"{what}: exit 0 with a result",
                  failures)
            if res is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys", failures)
            check(all(res["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                      and isinstance(res["metrics"][m["name"]]["value"], (int, float))
                      for m in metrics), f"{what}: every metric with its unit", failures)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{what}: error_rate = 0 over {res['attempted']} items", failures)

    # the gate always measures input set 0, so its held-out set runs here only
    shutil.rmtree(WORK, ignore_errors=True)
    proc, res = bench("--workload", "gate", "--input-set", "1", "--tiny",
                      "--scratch", str(WORK / "scratch"), script=HERE / "worker.py")
    check(res is not None and res["failed"] == 0 and res["attempted"] > 0,
          "gate tiny on the held-out input set 1: error_rate = 0", failures)

    bad_refs = WORK / "refs"
    shutil.copytree(HERE / "refs", bad_refs)
    refs = record_refs.read_refs(bad_refs / "batch.json.gz")
    key = corrupt_one_integer(refs)
    record_refs.write_refs(bad_refs / "batch.json.gz", refs)
    proc, res = bench("--workload", "batch", "--seed", "0", "--seconds", "1",
                      "--trace", "0", "--tiny", "--refs", str(bad_refs))
    check(res is not None and not res["correct"] and res["failed"] >= 1,
          f"corrupted reference {key} gives error_rate > 0", failures)

    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results"))
    proc, res = bench("--workload", "gate", "--seed", "0", "--seconds", "10",
                      "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    check(proc.returncode != 0 and res is None,
          "without the program: non-zero exit and no result", failures)
    shutil.rmtree(WORK, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
