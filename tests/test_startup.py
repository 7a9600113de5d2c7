"""What a cold process loads: the lazy package and each command's imports.

Every test runs a fresh interpreter, since what one test imports would
otherwise be loaded for the next.  The children import the package from
./src and see no PYTHON* or OPENBLAS_NUM_THREADS setting of the caller.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# every name `import divisorlab` re-exported before the package loaded lazily
OLD_EXPORTS = """
    AccuracyError APSpec DeltaSample ExponentFit FnSpec FormulaEvaluation
    MainConstantFit OmegaScanReport PoleError ResourceLimitError
    SummatoryResult TableFormatError TruncatedSeriesValue TruncationConfig
    ZeroTable ap_divisor_sum ap_main_term auxiliary_sums bernoulli_number
    bessel_J1 bessel_K1 bessel_Y1 brute_force_profile brute_force_sum
    circle_lattice_sum default_zero_table delta_error delta_samples digamma
    dirichlet_coefficients divisor_count divisor_count_k divisor_count_sieve
    divisor_delta_reference divisor_main_term divisor_sum_from_squarefree
    divisor_sum_hyperbola divisors emit_report evaluate_explicit
    exponent_fit factorize fit_main_constant floor_sum fractional_main_term
    fractional_part_sum generalized_euler_constant half_integer_grid
    harmonic_main_term harmonic_sum hermite_divisor_count load_zero_table
    main_term mobius nontrivial_zero_sum omega_distinct omega_scan
    omega_total primes_up_to read_delta_csv render_csv render_json
    restricted_divisor_count sierpinski_sum sigma squarefree_divisor_sum
    squarefree_main_term stieltjes trivial_zero_tail two_squares_count
    voronoi_full voronoi_truncated zeta zeta_derivative
    zeta_exact_negative_odd zeta_negative_special
""".split()

# runs divlab's main(argv) and prints its report, the number of processes
# it forked and what it left loaded and set, as one JSON line
_RUN_MAIN = """
import contextlib, io, json, os, sys
forks = []
os.register_at_fork(before=lambda: forks.append(1))
from divisorlab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "report": out.getvalue(), "forks": len(forks),
                  "modules": sorted(sys.modules),
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def python(code, *args, **env):
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("PYTHON") and k != "OPENBLAS_NUM_THREADS"}
    base.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    out = subprocess.run([sys.executable, "-c", code, *args], env=base,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def run_main(*argv, **env):
    return json.loads(python(_RUN_MAIN, *argv, **env).splitlines()[-1])


def test_readme_library_tour_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    call = next(line.split("#")[0].strip() for line in block.splitlines()
                if line.startswith("zeta("))
    code = ("import sys\nns = {}\nexec(sys.argv[1], ns)\n"
            "print(abs(eval(sys.argv[2], ns)))")
    *report, residual = python(code, block, call).splitlines()
    assert report == ["x,fn,value,algorithm", "1000000,d,13970034,hyperbola"]
    assert float(residual) < 1e-12


def test_bare_import_loads_no_numpy():
    code = ("import sys, divisorlab; "
            "print(sorted(m for m in sys.modules if m.startswith(('divisorlab', 'numpy'))))")
    assert python(code).strip() == "['divisorlab']"


@pytest.mark.parametrize("first", [None, "zeta", "summatory", "cli"])
def test_zeta_is_the_function_whichever_submodule_loaded_first(first):
    code = f"""
import sys, types
import divisorlab
if {first!r}:
    __import__("divisorlab." + {first!r})
early = divisorlab.zeta
import divisorlab.cli
from divisorlab import zeta
function = sys.modules["divisorlab.zeta"].zeta
assert zeta is function and divisorlab.zeta is function and early is function
assert not isinstance(zeta, types.ModuleType)
print(type(zeta).__name__, abs(zeta(2.0) - 1.6449340668482264) < 1e-12)
"""
    assert python(code).strip() == "function True"


def test_every_old_export_resolves_and_is_listed():
    code = """
import divisorlab, json
names = dir(divisorlab)
print(json.dumps({n: [n in names, n in divisorlab.__all__,
                      getattr(divisorlab, n).__module__] for n in divisorlab.__all__}))
"""
    got = json.loads(python(code))
    assert sorted(got) == sorted(OLD_EXPORTS)
    for name, (listed, in_all, module) in got.items():
        assert listed and in_all, name
        assert module.startswith("divisorlab."), (name, module)


@pytest.mark.parametrize("argv", [
    ("sum", "--algorithm", "hyperbola", "--fn", "d", "--x", "10"),
    # one 2^18-long block: the scan runs in this process
    ("sum", "--algorithm", "brute", "--workers", "2", "--x", "2"),
    ("delta", "--target", "d", "--x", "10.5"),
    ("explicit", "--x", "10.5", "--pairs", "1"),
])
def test_commands_without_a_pool_load_no_pool_machinery(argv):
    got = run_main(*argv)
    assert got["rc"] == 0
    assert got["forks"] == 0
    assert "concurrent.futures.process" not in got["modules"]
    assert "multiprocessing" not in got["modules"]


def test_a_scan_of_several_blocks_runs_a_two_worker_pool():
    # three 2^18-long blocks at --workers 2: two walkers fork, no pool
    # machinery loads, and the report is what one process prints
    argv = ("sum", "--algorithm", "brute", "--fn", "mu", "--x", "600000")
    pooled = run_main(*argv, "--workers", "2")
    single = run_main(*argv, "--workers", "1")
    assert pooled["forks"] == 2
    assert "concurrent.futures.process" not in pooled["modules"]
    assert "multiprocessing" not in pooled["modules"]
    assert single["forks"] == 0
    assert pooled["report"] == single["report"]
    assert single["report"] == "x,fn,value,algorithm\n600000,mu,-230,brute\n"


def test_the_command_line_runs_one_blas_thread_unless_told_otherwise():
    argv = ("sum", "--x", "10")
    assert run_main(*argv)["blas"] == "1"
    assert run_main(*argv, OPENBLAS_NUM_THREADS="3")["blas"] == "3"
    code = ("import os, divisorlab, divisorlab.summatory; divisorlab.zeta(2.0); "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert python(code).strip() == "None"
