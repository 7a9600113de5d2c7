"""Exact and analytic summation lab for divisor-type arithmetic functions.

The package splits into pointwise arithmetic functions (arith), exact
summatory algorithms with brute-force oracles (summatory), a self-contained
zeta engine (zeta), the truncated explicit formula over zeta zeros (explicit),
Bessel-series summation formulas (bessel), error-exponent fitting
(fitting), deterministic report emission (reports), and the divlab
command line (cli).
"""

from .arith import (FnSpec, divisor_count, divisor_count_k,
                    divisor_count_sieve, dirichlet_coefficients, divisors,
                    factorize, hermite_divisor_count,
                    mobius, omega_distinct, omega_total, primes_up_to,
                    restricted_divisor_count, sigma, two_squares_count)
from .bessel import (TruncatedSeriesValue, bessel_J1,
                     bessel_K1, bessel_Y1, divisor_delta_reference,
                     sierpinski_sum, voronoi_full, voronoi_truncated)
from .errors import AccuracyError, PoleError, ResourceLimitError, TableFormatError
from .explicit import (DeltaSample, FormulaEvaluation, OmegaScanReport,
                       TruncationConfig, delta_error, evaluate_explicit,
                       main_term, nontrivial_zero_sum, omega_scan,
                       trivial_zero_tail)
from .fitting import (ExponentFit, MainConstantFit, delta_samples,
                      exponent_fit, fit_main_constant, half_integer_grid)
from .reports import emit_report, read_delta_csv, render_csv, render_json
from .summatory import (APSpec, SummatoryResult, ap_divisor_sum, ap_main_term,
                        auxiliary_sums, brute_force_profile, brute_force_sum,
                        circle_lattice_sum, divisor_main_term,
                        divisor_sum_from_squarefree, divisor_sum_hyperbola,
                        floor_sum, fractional_main_term, fractional_part_sum,
                        harmonic_main_term, harmonic_sum,
                        squarefree_divisor_sum, squarefree_main_term)
from .zeta import (ZeroTable, bernoulli_number, default_zero_table, digamma,
                   generalized_euler_constant, load_zero_table, stieltjes,
                   zeta, zeta_derivative, zeta_exact_negative_odd,
                   zeta_negative_special)

__version__ = "0.1.0"
