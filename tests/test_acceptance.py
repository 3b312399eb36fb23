"""Acceptance gate: one test per criterion, each printing its verdict line.

Criteria 6 and 7 state requirements the implemented quantities do not meet
(the witness construction cannot reach the demanded floor once opposite
scalars collide, and the deep power-sum counts exceed the demanded
exponent); those two tests fail by design rather than weaken the check.
Each verdict is first compared with the benchmark's recorded gate output
(`perfbench/refs/gate.json.gz`, input set 0, which is the default seed), so
a drifted detail line fails here and not only in the benchmark.
"""

import gzip
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from smallbox import acceptance, dynsys

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up while it loads
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
with gzip.open(PERFBENCH / "refs" / "gate.json.gz", "rt") as fh:
    GATE_REFS = json.load(fh)["sets"]["0"]


def _run(fn):
    t0 = time.perf_counter()
    res = fn()
    ms = (time.perf_counter() - t0) * 1000.0
    print(f"criterion {res.number:2d} {'PASS' if res.passed else 'FAIL'} "
          f"[{ms:7.0f} ms] {res.name}: {res.detail}")
    return res


@pytest.mark.parametrize("fn", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(fn):
    res = _run(fn)
    ref = GATE_REFS[f"c{res.number:02d}"]
    out = [bool(res.passed), res.value, res.bound, res.detail]
    assert workloads.same(out, ref), f"criterion {res.number}: {out} vs recorded {ref}"
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


def test_default_seed_is_stable():
    assert acceptance.DEFAULT_SEED == 20260815
    a = _run(acceptance.criterion_1)
    b = _run(acceptance.criterion_1)
    assert (a.value, a.bound, a.detail) == (b.value, b.bound, b.detail)


def test_criterion_10_walks_no_orbit_twice(monkeypatch):
    # one lockstep walk per prime of each suite, one independent seen-set
    # walk per diameter identity, and none for the duality edges, which read
    # the lockstep walks already certified
    calls = {"_seen_scan": 0, "_lockstep_scan": 0}
    for name in calls:
        def counted(*args, name=name, walk=getattr(dynsys, name)):
            calls[name] += 1
            return walk(*args)
        monkeypatch.setattr(dynsys, name, counted)
    assert acceptance.criterion_10(quick=True).passed
    assert calls == {"_seen_scan": 60, "_lockstep_scan": 5}
