"""Exact and analytic summation lab for divisor-type arithmetic functions.

The package splits into pointwise arithmetic functions (arith), exact
summatory algorithms with brute-force oracles (summatory), a self-contained
zeta engine (zeta), the truncated explicit formula over zeta zeros (explicit),
Bessel-series summation formulas (bessel), error-exponent fitting
(fitting), deterministic report emission (reports), and the divlab
command line (cli).

The package loads lazily (PEP 562): `import divisorlab` loads no submodule
and no numpy, and each name of _EXPORTS loads its submodule on first use.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "arith": ("FnSpec", "divisor_count", "divisor_count_k", "divisor_count_sieve",
              "dirichlet_coefficients", "divisors", "factorize",
              "hermite_divisor_count", "mobius", "omega_distinct", "omega_total",
              "primes_up_to", "restricted_divisor_count", "sigma",
              "two_squares_count"),
    "bessel": ("TruncatedSeriesValue", "bessel_J1", "bessel_K1", "bessel_Y1",
               "divisor_delta_reference", "sierpinski_sum", "voronoi_full",
               "voronoi_truncated"),
    "errors": ("AccuracyError", "PoleError", "ResourceLimitError",
               "TableFormatError"),
    "explicit": ("DeltaSample", "FormulaEvaluation", "OmegaScanReport",
                 "TruncationConfig", "delta_error", "evaluate_explicit",
                 "main_term", "nontrivial_zero_sum", "omega_scan",
                 "trivial_zero_tail"),
    "fitting": ("ExponentFit", "MainConstantFit", "delta_samples", "exponent_fit",
                "fit_main_constant", "half_integer_grid"),
    "reports": ("emit_report", "read_delta_csv", "render_csv", "render_json"),
    "summatory": ("APSpec", "SummatoryResult", "ap_divisor_sum", "ap_main_term",
                  "auxiliary_sums", "brute_force_profile", "brute_force_sum",
                  "circle_lattice_sum", "divisor_main_term",
                  "divisor_sum_from_squarefree", "divisor_sum_hyperbola",
                  "floor_sum", "fractional_main_term", "fractional_part_sum",
                  "harmonic_main_term", "harmonic_sum", "squarefree_divisor_sum",
                  "squarefree_main_term"),
    "zeta": ("ZeroTable", "bernoulli_number", "default_zero_table", "digamma",
             "generalized_euler_constant", "load_zero_table", "stieltjes", "zeta",
             "zeta_derivative", "zeta_exact_negative_odd", "zeta_negative_special"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:  # a submodule, bound by its import
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})


class _Package(types.ModuleType):
    """The package module, whose exported names outrank its submodules.

    Importing a submodule binds it as an attribute of the package.  For
    zeta that would hide the function divisorlab.zeta, so a submodule
    bound under an exported name is dropped: the name keeps resolving
    through __getattr__.
    """

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
