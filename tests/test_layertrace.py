"""The benchmark's layer tracer wraps package functions by name
(`perfbench/layertrace.py`, LAYERS and ALIASES).  Installing it here makes a
renamed or deleted traced name fail the suite, not only the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import smallbox

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    layertrace = _layertrace()
    modules = {short: importlib.import_module(f"smallbox.{short}")
               for short in layertrace.LAYERS}
    originals = {(short, name): getattr(modules[short], name)
                 for short, funcs in layertrace.LAYERS.items() for name, _ in funcs}
    tracer = layertrace.Tracer()
    try:
        tracer.install()  # raises if an alias escaped it; AttributeError on a lost name
        for (short, name), original in originals.items():
            assert getattr(modules[short], name).__wrapped__ is original, (short, name)
        f = smallbox.FpPolynomial.from_text("1,0,1", smallbox.PrimeModulus(101))
        assert modules["dynsys"].trajectory_length(f, 3).total_length > 0
    finally:
        tracer.uninstall()
    for (short, name), original in originals.items():
        assert getattr(modules[short], name) is original, (short, name)
    summary = tracer.summary()
    assert summary["dynsys.trajectory_length.calls"] == 1
    assert summary["dynsys.orbit_steps"] > 0
