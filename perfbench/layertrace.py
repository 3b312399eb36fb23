"""Layer tracing from outside the program.

`Tracer.install` replaces the public functions of each smallbox module with
wrappers that record one span per call (name, start, end, parent) and,
for some, a work counter.  A span's self time is its duration minus the
durations of its child spans.  Every module attribute that refers to a
wrapped function is replaced, so a name imported into another module
(`boxcount.sqrt_mod_int`, `hyperelliptic.discriminant`, ...) is traced too.
`FpPolynomial.__call__` (Horner evaluation) is only counted: at millions of
calls a span each would cost more than the evaluation itself.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _columns(args, kwargs, result):
    return "boxcount.columns", _arg(args, kwargs, 1, "box").M


def _census_vectors(args, kwargs, result):
    return "hyperelliptic.census_vectors", _arg(args, kwargs, 1, "box").cell_count()


def _enum_volume(args, kwargs, result):
    box = _arg(args, kwargs, 1, "box")
    scale = Fraction(_arg(args, kwargs, 2, "scale", 1))
    return "lattice.enum_volume", math.prod(2 * math.floor(scale * h) + 1
                                            for h in box.halfwidths)


def _orbit_steps(args, kwargs, result):
    return "dynsys.orbit_steps", result.total_length


def _emit_bytes(args, kwargs, result):
    return "harness.emit.bytes", os.path.getsize(_arg(args, kwargs, 2, "path"))


# module -> [(function, work counter or None)].  Besides the functions the
# per-layer metrics name, the kernels that harness and cli dispatch to are
# wrapped, so that dispatch self time excludes them.
LAYERS = {
    "ffield": [("discriminant", None), ("sqrt_mod_int", None)],
    "boxcount": [("count_curve_points", _columns), ("count_graph_points", _columns),
                 ("weil_error", None)],
    "hyperelliptic": [("class_census", _census_vectors), ("isomorphism_scalars", None),
                      ("canonical_representative", None),
                      ("count_isomorphic_in_box", None),
                      ("reduce_to_power_congruence", None),
                      ("sharpness_witness", None)],
    "dynsys": [("trajectory_length", _orbit_steps), ("diameter", None),
               ("pairs_in_box", None)],
    "analytic": [("count_vinogradov", None), ("erdos_turan_check", None),
                 ("exp_sum", None), ("weyl_square_identity", None),
                 ("weyl_majorant", None)],
    "lattice": [("lattice_points_in_box", _enum_volume), ("successive_minima", None),
                ("cor7_check", None), ("minkowski_check", None),
                ("lemma6_count", None), ("shifted_congruence_count", None),
                ("build_thm2_lattice", None)],
    "harness": [("run", None), ("emit", _emit_bytes), ("parse_records", None)],
    "cli": [("main", None)],
}

# imported names that must end up wrapped; checked after install
ALIASES = ("hyperelliptic.discriminant", "boxcount.discriminant",
           "boxcount.sqrt_mod_int", "hyperelliptic.sqrt_mod_int",
           "lattice.sqrt_mod_int")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.horner = [0]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                counters[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "smallbox") -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for short, funcs in LAYERS.items():
            owner = sys.modules[f"{package}.{short}"]
            for fname, counter in funcs:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for alias in ALIASES:
            short, attr = alias.split(".")
            if not hasattr(getattr(sys.modules[f"{package}.{short}"], attr), "__wrapped__"):
                raise RuntimeError(f"{alias} escaped the tracer")

        poly = sys.modules[f"{package}.ffield"].FpPolynomial
        horner, cell = poly.__call__, self.horner

        def counted(self_, x):
            cell[0] += 1
            return horner(self_, x)

        self._undo.append((poly, "__call__", horner))
        poly.__call__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_s` for every wrapped function,
        the work counters, and `ffield.horner.calls`."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for key in ("boxcount.columns", "hyperelliptic.census_vectors",
                    "lattice.enum_volume", "dynsys.orbit_steps", "harness.emit.bytes"):
            out[key] = int(self.counters[key])
        out["ffield.horner.calls"] = self.horner[0]
        return out
