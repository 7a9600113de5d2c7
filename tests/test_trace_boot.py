"""The traced benchmark bootstrap wraps package functions by name.

perfbench/trace_boot.py looks each layer's functions up with getattr when
it installs its spans, so a renamed function breaks `run.py --trace 1`
only at run time.  This test reads the bootstrap (without writing a
bytecode file next to it) and checks every name it needs.  Its wrappers
also assume call shapes (the Bessel kernels take one float), so a traced
command must print what the untraced one prints.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BOOT = ROOT / "perfbench" / "trace_boot.py"
T_GRID = ("delta", "--target", "two_omega_over_n", "--grid-lo", "110",
          "--grid-hi", "1000000", "--ratio", "1.3")


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


@pytest.mark.parametrize("argv", [
    ("voronoi", "--kind", "full", "--x", "1000.5", "--terms", "4097"),
    ("voronoi", "--kind", "sierpinski", "--x", "1000.5", "--terms", "4097"),
    ("explicit", "--target", "two_omega", "--x", "1000.5", "--pairs", "5"),
    ("sum", "--algorithm", "moebius_kernel", "--fn", "two_omega", "--x", "1e11"),
    ("sum", "--algorithm", "convolution_kernel", "--x", "1e9"),
    ("delta", "--target", "two_omega", "--grid-lo", "100", "--grid-hi", "1e8",
     "--ratio", "2"),
    # eighteen 2^18-long blocks, so walkers fork from the traced process
    ("sum", "--algorithm", "brute", "--fn", "mu", "--x", "4500000", "--workers", "2"),
    ("fit", "--target", "two_omega", "--grid-lo", "110", "--grid-hi", "1000000",
     "--ratio", "1.05"),
    ("voronoi", "--kind", "truncated", "--x", "5000.25", "--terms", "4999"),
    # the Wronskian check evaluates the Bessel functions on an array
    ("verify", "--suite", "bessel"),
    T_GRID,
])
def test_traced_run_prints_the_untraced_bytes(tmp_path, argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    trace = tmp_path / "trace.json"

    def run(*cmd):
        return subprocess.run([sys.executable, *cmd, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    plain = run("-m", "divisorlab")
    traced = run(str(BOOT), str(trace))
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    counters = json.loads(trace.read_text())["counters"]
    assert counters
    if argv == T_GRID:
        # T(x) is counted where it is computed
        assert counters.get("summatory.aux.calls", 0) >= 1
