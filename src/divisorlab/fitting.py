"""Error-exponent measurement and scan-grid helpers.

The laboratory's empirical questions reduce to: on a geometric grid of
non-integer x, how does |delta(x)| grow?  exponent_fit answers with a
log-log least-squares slope plus diagnostics, interpreted against the
landmark exponents 1/4 (conjectural), 1/3, and 1/2.  fit_main_constant
recovers the additive constant c in a main term of the shape
lead * (log x + c) * x from exact summatory values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ResourceLimitError

# delta_samples lives beside delta_error, its one-point case, and stays
# part of this module's interface
from .explicit import delta_samples  # noqa: F401

LANDMARK_EXPONENTS = (0.25, 1.0 / 3.0, 0.5)

# Natural-log residual spread above which the fit is flagged as riding an
# oscillating amplitude rather than a clean power law.
OSCILLATION_RMS_THRESHOLD = 0.1

# Most multiplications half_integer_grid makes; a grid that needs more is
# refused before the loop.  1.5e6 steps take ~0.2 s on 2 CPUs.
GRID_STEPS_MAX = 10 ** 7


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log|delta| against log x, with diagnostics."""

    theta: float
    intercept: float
    residual_rms: float
    max_abs_residual: float
    n_samples: int
    decades: float
    nearest_landmark: float
    landmark_distance: float
    oscillation_flag: bool


@dataclass(frozen=True)
class MainConstantFit:
    """Pointwise estimates of c in lead * (log x + c) * x, aggregated."""

    constant: float
    spread: float
    n_samples: int


def half_integer_grid(lo, hi, ratio: float = 1.2) -> list[float]:
    """Geometric scan grid snapped to half-integers.

    Points are floor(lo * ratio^k) + 1/2, deduplicated, for as long as
    they stay <= hi.  The +1/2 offset keeps every x off the integers
    where the summatory functions jump.  A ratio that needs more than
    GRID_STEPS_MAX steps to pass 4 hi is refused.
    """
    lo_f = float(lo)
    hi_f = float(hi)
    if not lo_f >= 1.0:
        raise ValueError("grid start must be >= 1")
    if not hi_f > lo_f:
        raise ValueError("grid end must exceed the start")
    if not ratio > 1.0:
        raise ValueError("ratio must exceed 1")
    steps = math.log(4.0 * hi_f / lo_f) / math.log(ratio)
    if steps > GRID_STEPS_MAX:
        raise ResourceLimitError(f"grid takes {steps:.3g} steps, past {GRID_STEPS_MAX}")
    out: list[float] = []
    cur = lo_f
    while True:
        x = math.floor(cur) + 0.5
        if x > hi_f:
            break
        if not out or x > out[-1]:
            out.append(x)
        cur *= ratio
        if cur > 4.0 * hi_f:
            break
    if not out:
        raise ValueError("grid is empty for the given bounds")
    return out


def exponent_fit(samples) -> ExponentFit:
    """Fit theta in |delta(x)| ~ C x^theta by least squares on logs.

    Needs at least 10 samples spanning at least 3 decades of x, every
    |delta| nonzero.  The oscillation flag trips when the residual rms
    exceeds OSCILLATION_RMS_THRESHOLD, which is what an oscillating
    amplitude factor (rather than a clean power law) produces.
    """
    rows = list(samples)
    if len(rows) < 10:
        raise ValueError("exponent_fit needs at least 10 samples")
    xs = [float(r.x) for r in rows]
    deltas = [float(r.delta) for r in rows]
    if any(d == 0.0 for d in deltas):
        raise ValueError("every sample needs |delta| > 0")
    x_lo, x_hi = min(xs), max(xs)
    decades = math.log10(x_hi / x_lo) if x_hi > x_lo else 0.0
    if decades < 3.0:
        raise ValueError("samples must span at least 3 decades of x")

    us = [math.log(x) for x in xs]
    vs = [math.log(abs(d)) for d in deltas]
    n = len(rows)
    u_mean = math.fsum(us) / n
    v_mean = math.fsum(vs) / n
    suu = math.fsum((u - u_mean) ** 2 for u in us)
    if suu == 0.0:
        raise ValueError("degenerate grid: all x identical")
    suv = math.fsum((u - u_mean) * (v - v_mean) for u, v in zip(us, vs))
    theta = suv / suu
    intercept = v_mean - theta * u_mean

    residuals = [v - (theta * u + intercept) for u, v in zip(us, vs)]
    rms = math.sqrt(math.fsum(r * r for r in residuals) / n)
    max_abs = max(abs(r) for r in residuals)
    nearest = min(LANDMARK_EXPONENTS, key=lambda m: abs(theta - m))
    return ExponentFit(
        theta=theta,
        intercept=intercept,
        residual_rms=rms,
        max_abs_residual=max_abs,
        n_samples=n,
        decades=decades,
        nearest_landmark=nearest,
        landmark_distance=abs(theta - nearest),
        oscillation_flag=rms > OSCILLATION_RMS_THRESHOLD,
    )


def fit_main_constant(xs, values, lead: float) -> MainConstantFit:
    """Recover c in value(x) ~ lead * (log x + c) * x.

    Each sample gives the pointwise estimate value/(lead*x) - log x; the
    fit reports their mean and the max deviation from it, which is the
    honest error bar for a constant extracted from a slowly converging
    average order.
    """
    xs = [float(x) for x in xs]
    vals = [float(v) for v in values]
    if len(xs) != len(vals):
        raise ValueError("xs and values must align")
    if not xs:
        raise ValueError("fit_main_constant needs samples")
    if lead == 0.0:
        raise ValueError("lead coefficient must be nonzero")
    estimates = [v / (lead * x) - math.log(x) for x, v in zip(xs, vals)]
    mean = math.fsum(estimates) / len(estimates)
    spread = max(abs(e - mean) for e in estimates)
    return MainConstantFit(constant=mean, spread=spread, n_samples=len(xs))
