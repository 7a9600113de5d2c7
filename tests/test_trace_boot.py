"""The traced benchmark bootstrap wraps package functions by name.

perfbench/trace_boot.py looks each layer's functions up with getattr when
it installs its spans, so a renamed function breaks `run.py --trace 1`
only at run time.  This test reads the bootstrap (without writing a
bytecode file next to it) and checks every name it needs.
"""

import importlib
import pathlib

BOOT = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_boot.py"


def load_boot() -> dict:
    namespace = {"__name__": "trace_boot", "__file__": str(BOOT)}
    exec(compile(BOOT.read_text(), str(BOOT), "exec"), namespace)
    return namespace


def test_trace_boot_names_exist():
    boot = load_boot()
    for layer, (module, functions) in boot["LAYERS"].items():
        mod = importlib.import_module(f"divisorlab.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), (layer, f"{module}.{name}")
    bessel = importlib.import_module("divisorlab.bessel")
    for name in boot["KERNELS"]:
        assert callable(getattr(bessel, name, None)), f"bessel.{name}"
    assert isinstance(bessel.ASYMPTOTIC_SWITCH, float)
    summatory = importlib.import_module("divisorlab.summatory")
    assert callable(summatory.ProcessPoolExecutor)
