"""Explicit-formula assembly for divisor-type summatory functions.

Each supported target sum is decomposed into four pieces

    constant + main term + nontrivial-zero sum + trivial-zero tail

and the truncated decomposition is evaluated against the exact summatory
oracles.  Three targets are wired in:

    divisor_sum            D(x) = sum_{n<=x} d(n)
    two_omega_sum          S(x) = sum_{n<=x} 2^omega(n)
    two_omega_over_n_sum   T(x) = sum_{n<=x} 2^omega(n)/n

The zero sum is a conditionally structured series with no convergence
proof behind it, so nothing here asserts convergence: partial sums are
recorded as trajectories, always reduced in ascending-ordinate order,
with conjugate pairs combined analytically into twice a real part.

Integer x sits on a jump of the summatory function; following the
arithmetic-average convention the evaluation is the mean of the two
half-step evaluations at x - 1/2 and x + 1/2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import accumulate
from typing import Callable

from .errors import AccuracyError, ResourceLimitError
from .summatory import (
    ORACLE_BOUND_DEFAULT,
    TWO_OMEGA_OVER_N_CONSTANT,
    _ZETA_2,
    auxiliary_sums,
    divisor_main_term,
    divisor_sums_hyperbola,
    squarefree_divisor_sums,
    squarefree_main_term,
    two_omega_over_n_main_term,
)
from .zeta import ZeroTable, zeta, zeta_derivative, zeta_negative_special

TAIL_VARIANTS = ("residue", "printed")

# The exact zeta(-2n-1) values come from a Bernoulli table that stops at
# B_64, which covers tail indices n = 0..30.  Terms that far out are below
# double-precision noise for every x > 1 anyway.
TAIL_TERMS_MAX = 30


# ---------------------------------------------------------------------------
# target registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TargetSpec:
    """One target's explicit formula, exact oracle and command-line aliases.

    zero_coefficient scales the nontrivial-zero sum, power_shift moves
    both the zero-term exponent (x^{rho/2 - power_shift}) and the tail
    exponent (x^{-2n-1-power_shift}), and tail_coefficient is the
    magnitude in front of the trivial tail, which is subtracted.
    exact(ys, bound) is the list of oracle values of the sum at the points
    ys, from one call: one scan for a brute-force oracle, one batched
    hyperbola pass for a sublinear one.
    """

    zero_coefficient: float
    power_shift: int
    tail_coefficient: float
    constant: float
    main: Callable[[float], float]
    exact: Callable[[list[float], int], list[float]]
    aliases: tuple[str, ...]


# The exact routes name their oracle at call time rather than holding the
# function object, so a rebound module attribute (a tracing wrapper, say)
# is the one that runs.
_TARGET_SPECS = {
    # pi^2/3, pi^2/6 and -pi^2/12: the zeta(2) row's float, scaled exactly
    "divisor_sum": _TargetSpec(
        2.0 * _ZETA_2, 0, _ZETA_2,
        constant=-_ZETA_2 / 2.0, main=divisor_main_term,
        exact=lambda ys, bound: [float(v) for v in divisor_sums_hyperbola(ys)],
        aliases=("d", "divisor")),
    "two_omega_sum": _TargetSpec(
        2.0, 0, 1.0, constant=-0.5, main=squarefree_main_term,
        exact=lambda ys, bound: [float(v) for v in squarefree_divisor_sums(ys)],
        aliases=("two_omega",)),
    "two_omega_over_n_sum": _TargetSpec(
        2.0, 1, 1.0, constant=TWO_OMEGA_OVER_N_CONSTANT,
        main=two_omega_over_n_main_term,
        exact=lambda ys, bound: auxiliary_sums(ys, bound=bound),
        aliases=("two_omega_over_n",)),
}

TARGETS = tuple(_TARGET_SPECS)

_LABELS = {label: name for name, spec in _TARGET_SPECS.items()
           for label in (name, *spec.aliases)}


def _require_target(target: str) -> _TargetSpec:
    try:
        return _TARGET_SPECS[target]
    except KeyError:
        raise ValueError(
            f"unknown target {target!r}; expected one of {TARGETS}") from None


def _above_one(x, name: str) -> float:
    xf = float(x)
    if not xf > 1.0:
        raise ValueError(f"{name} needs x > 1")
    return xf


def resolve_target(label: str) -> str:
    """The target name for a name or alias, as --target accepts them."""
    try:
        return _LABELS[label.strip()]
    except KeyError:
        raise ValueError(f"unknown target {label!r}; pick one of "
                         f"{', '.join(sorted(_LABELS))}") from None


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationConfig:
    """How far to carry each truncated piece of the decomposition.

    num_zero_pairs counts conjugate zero pairs and tail_terms counts terms
    of the trivial-zero tail.  tail_variant selects the denominator of the
    tail terms ("residue", the default, uses the derivative at the actual
    trivial zero, "printed" the at-face-value form, see trivial_zero_tail).
    """

    num_zero_pairs: int = 100
    tail_terms: int = 10
    tail_variant: str = "residue"

    def __post_init__(self) -> None:
        if self.num_zero_pairs < 0:
            raise ValueError("num_zero_pairs must be >= 0")
        if self.tail_terms < 1:
            raise ValueError("tail_terms must be >= 1")
        if self.tail_variant not in TAIL_VARIANTS:
            raise ValueError(f"tail_variant must be one of {TAIL_VARIANTS}")


@dataclass(frozen=True)
class FormulaEvaluation:
    """One fully decomposed truncated evaluation.

    zero_sum_partials holds the rows (k, s_k) for k = 0..N, s_k the sum
    over the first k zero pairs, free to oscillate.  exact is the oracle
    value of the target sum when floor(x) is within the oracle bound, else
    None.  averaged records whether integer-x midpoint averaging was
    applied, and zero_table_validated mirrors the validation flag of the
    zero table that produced the partial sums.
    """

    x: float
    target: str
    constant_term: float
    main_term: float
    trivial_tail: float
    zero_sum_partials: tuple[tuple[int, float], ...]
    exact: float | None = None
    averaged: bool = False
    zero_table_validated: bool = True

    def zero_sum_at(self, num_pairs: int) -> float:
        if not 0 <= num_pairs < len(self.zero_sum_partials):
            raise ValueError(
                f"no partial sum recorded for {num_pairs} zero pairs")
        return self.zero_sum_partials[num_pairs][1]

    def total_at(self, num_pairs: int) -> float:
        return (self.constant_term + self.main_term
                + self.zero_sum_at(num_pairs) + self.trivial_tail)

    def residual_at(self, num_pairs: int) -> float:
        if self.exact is None:
            raise ValueError("no exact reference available for this x")
        return self.exact - self.total_at(num_pairs)


@dataclass(frozen=True, slots=True)
class DeltaSample:
    """One row of error-term data: delta = exact - predicted.

    Slotted: a grid holds thousands of these at once.
    """

    x: float
    exact: float
    predicted: float
    delta: float
    delta_over_x14: float
    delta_over_x12: float

    @classmethod
    def build(cls, x: float, exact: float, predicted: float) -> "DeltaSample":
        xf = float(x)
        d = float(exact) - float(predicted)
        return cls(x=xf, exact=float(exact), predicted=float(predicted),
                   delta=d, delta_over_x14=d / xf ** 0.25,
                   delta_over_x12=d / math.sqrt(xf))


@dataclass(frozen=True)
class OmegaScanReport:
    """Extremes and sign changes of delta/x^{1/4} over a scan grid."""

    target: str
    count: int
    sup_scaled: float
    sup_x: float
    inf_scaled: float
    inf_x: float
    sign_changes: int


# ---------------------------------------------------------------------------
# main terms
# ---------------------------------------------------------------------------

def main_term(target: str, x) -> tuple[float, float]:
    """Constant and x-dependent main term of the target's formula.

    Returns (constant, main).  Requires x > 1 so the log is positive and
    the formula's derivation region applies.
    """
    spec = _require_target(target)
    return spec.constant, spec.main(_above_one(x, "main_term"))


# ---------------------------------------------------------------------------
# nontrivial-zero sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _packaged_pair_weights() -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """(ordinates, weights) of the packaged data/weights1000.txt.

    Read once per process, through importlib.resources, so a package
    imported from a zip archive reads it too.  Each line holds an
    ordinate's repr and the float.hex of Re and Im of its weight, as
    tests/write_pair_weights.py writes them from _form_pair_weights.
    """
    text = resources.files("divisorlab").joinpath(
        "data/weights1000.txt").read_text(encoding="utf-8")
    ordinates, weights = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        t, re_hex, im_hex = line.split()
        ordinates.append(float(t))
        weights.append(complex(float.fromhex(re_hex), float.fromhex(im_hex)))
    return tuple(ordinates), tuple(weights)


def _form_pair_weights(ordinates) -> tuple[complex, ...]:
    """zeta(rho/2)^2 / (rho zeta'(rho)) at rho = 1/2 + i t for each ordinate,
    from the zeta engine."""
    out = []
    for t in ordinates:
        rho = complex(0.5, t)
        half = zeta(rho / 2.0)
        out.append(half * half / (rho * zeta_derivative(rho)))
    return tuple(out)


def _pair_weights(zeros: ZeroTable, num_pairs: int) -> tuple[complex, ...]:
    """zeta(rho/2)^2 / (rho zeta'(rho)) over the first num_pairs zeros.

    When the table's first num_pairs ordinates equal the packaged weight
    file's first num_pairs (float equality, so a copy of the packaged
    zero table qualifies wherever it is read from), the weights are read
    from that file; they are the bits _form_pair_weights gives.  Any other
    table forms all num_pairs weights, zeta'(rho) for these pairs only.
    The weights do not depend on x, so one list serves both midpoints of
    an evaluation.
    """
    ordinates = zeros.ordinates[:num_pairs]
    known, weights = _packaged_pair_weights()
    if ordinates == known[:num_pairs]:
        return weights[:num_pairs]
    return _form_pair_weights(ordinates)


def _pair_terms(spec: _TargetSpec, x: float, ordinates: tuple[float, ...],
                weights: tuple[complex, ...]) -> list[float]:
    """Per-pair contributions c * 2 * Re[w_k x^{rho_k/2 - shift}] at one x.

    The conjugate zero contributes the conjugate term, so each pair is
    combined analytically into twice the real part; the result is exactly
    real by construction.
    """
    lx = math.log(x)
    scale = 2.0 * spec.zero_coefficient * x ** (0.25 - spec.power_shift)
    out = []
    for t, w in zip(ordinates, weights):
        phase = cmath.exp(complex(0.0, 0.5 * t * lx))
        out.append(scale * (w * phase).real)
    return out


def _midpoints(xf: float) -> tuple[float, ...]:
    """Where to evaluate: x itself, or x -+ 1/2 when x sits on a jump."""
    return (xf - 0.5, xf + 0.5) if xf.is_integer() else (xf,)


def _zero_partials(spec: _TargetSpec, points: tuple[float, ...],
                   zeros: ZeroTable, num_pairs: int) -> list[tuple[int, float]]:
    """[(0, 0.0), (1, s_1), ..., (N, s_N)], each term averaged over points.

    Refuses more pairs than the table holds; an unvalidated table triggers
    a RuntimeWarning (attributed to the public caller's caller) but still
    evaluates.
    """
    if num_pairs < 0:
        raise ValueError("num_pairs must be >= 0")
    if num_pairs > len(zeros):
        raise ValueError(
            f"requested {num_pairs} zero pairs but the table holds {len(zeros)}")
    if not zeros.validated:
        warnings.warn(
            "zero table failed residual validation; zero-sum values may be unreliable",
            RuntimeWarning, stacklevel=3)
    weights = _pair_weights(zeros, num_pairs)
    term_lists = [_pair_terms(spec, y, zeros.ordinates, weights) for y in points]
    terms = (sum(ts) / len(points) for ts in zip(*term_lists))
    return list(enumerate(accumulate(terms, initial=0.0)))


def nontrivial_zero_sum(target: str, x, zeros: ZeroTable,
                        num_pairs: int) -> list[tuple[int, float]]:
    """Partial sums over the first num_pairs zero pairs at x.

    Returns [(1, s_1), ..., (num_pairs, s_N)] with terms accumulated in
    ascending-ordinate order; num_pairs = 0 gives an empty list.  Integer
    x is midpoint-averaged at x - 1/2 and x + 1/2.  An unvalidated zero
    table triggers a RuntimeWarning but still evaluates.
    """
    spec = _require_target(target)
    xf = _above_one(x, "nontrivial_zero_sum")
    return _zero_partials(spec, _midpoints(xf), zeros, num_pairs)[1:]


# ---------------------------------------------------------------------------
# trivial-zero tail
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tail_coefficient(n: int, variant: str) -> float:
    """x-free factor of tail term n.

    The generating integrand has zeta(2s) in the denominator, so the
    residue at s = -(2n+1) picks up the derivative at the trivial zero
    -2(2n+1), giving zeta(-2n-1)^2 / (2 (2n+1) zeta'(-2(2n+1))).  The
    "printed" variant instead reads the denominator at face value as
    (2n+1) zeta'(-2n-1); both are kept so comparison runs can report
    which matches the exact data.
    """
    num = zeta_negative_special("zeta_at_neg_odd", n) ** 2
    if variant == "residue":
        den = 2.0 * (2 * n + 1) * zeta_negative_special(
            "zeta_prime_at_neg_even", 2 * n + 1)
    else:
        den = (2 * n + 1) * zeta_derivative(complex(-(2 * n + 1), 0.0)).real
    return num / den


def trivial_zero_tail(target: str, x, tail_terms: int, *,
                      variant: str = "residue") -> float:
    """Truncated trivial-zero tail of the target's formula.

    Sums tail_terms terms -coeff * sum_n c_n x^{-2n-1-shift} where
    c_n is the residue-derived (default) or printed coefficient.  The
    terms decay geometrically like x^{-2} on top of rapidly shrinking
    coefficients, so small tail_terms already saturates double precision.
    """
    spec = _require_target(target)
    xf = _above_one(x, "trivial_zero_tail")
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    if tail_terms > TAIL_TERMS_MAX:
        raise ValueError(f"tail_terms capped at {TAIL_TERMS_MAX}")
    if variant not in TAIL_VARIANTS:
        raise ValueError(f"variant must be one of {TAIL_VARIANTS}")
    total = 0.0
    for n in range(tail_terms):
        total += _tail_coefficient(n, variant) * xf ** (-(2 * n + 1 + spec.power_shift))
    return -spec.tail_coefficient * total


# ---------------------------------------------------------------------------
# assembled evaluation
# ---------------------------------------------------------------------------

def _exact_reference(spec: _TargetSpec, x: float, averaged: bool,
                     bound: int) -> float | None:
    """Oracle value of the target sum, or None when floor(x) passes bound.

    For averaged (integer) x the exact side is
    (S(x - 1/2) + S(x + 1/2)) / 2 = (S(x - 1) + S(x)) / 2 exactly,
    because the summatory function is constant between integers.
    """
    if math.floor(x) > bound:
        return None
    values = spec.exact([x - 1.0, x] if averaged else [x], bound)
    return sum(values) / len(values)


def evaluate_explicit(target: str, x, zeros: ZeroTable,
                      cfg: TruncationConfig | None = None, *,
                      bound: int = ORACLE_BOUND_DEFAULT) -> FormulaEvaluation:
    """Evaluate the truncated explicit formula and attach the exact oracle.

    Integer x is averaged over x +- 1/2 piece by piece.
    The zero_sum_partials trajectory starts at (0, 0.0) and records one
    row per additional zero pair.  exact is None when floor(x) passes bound.
    A main term past the float range raises AccuracyError.
    """
    spec = _require_target(target)
    if cfg is None:
        cfg = TruncationConfig()
    xf = _above_one(x, "evaluate_explicit")
    averaged = xf.is_integer()
    points = _midpoints(xf)
    # the midpoints' halves, exact, so two finite main terms never overflow
    main = math.fsum(spec.main(y) / len(points) for y in points)
    if not math.isfinite(main):
        raise AccuracyError(f"{target}: at x = {xf!r} the main term "
                            f"overflows the float range")
    partials = _zero_partials(spec, points, zeros, cfg.num_zero_pairs)
    tails = [trivial_zero_tail(target, y, cfg.tail_terms, variant=cfg.tail_variant)
             for y in points]

    return FormulaEvaluation(
        x=xf,
        target=target,
        main_term=main,
        constant_term=spec.constant,
        zero_sum_partials=tuple(partials),
        trivial_tail=math.fsum(tails) / len(points),
        exact=_exact_reference(spec, xf, averaged, bound),
        averaged=averaged,
        zero_table_validated=zeros.validated,
    )


# ---------------------------------------------------------------------------
# error-term measurement
# ---------------------------------------------------------------------------

def delta_samples(target: str, grid, *,
                  bound: int = ORACLE_BOUND_DEFAULT) -> list[DeltaSample]:
    """delta(x) = exact sum - main term at each grid point, in grid order.

    Each sample carries the x^{1/4} and x^{1/2} scalings.  The constant
    term is deliberately excluded: the error term is defined against the
    main term alone.  The exact side is evaluated at floor(x), by one call
    of the target's exact route for the whole grid; a point whose floor
    passes bound raises ResourceLimitError naming the first such point.
    """
    spec = _require_target(target)
    xs = [float(x) for x in grid]
    for xf in xs:
        if xf < 1.0:
            raise ValueError("delta_error needs x >= 1")
        if math.floor(xf) > bound:
            raise ResourceLimitError(
                f"x = {xf!r} exceeds the exact-oracle bound {bound}")
    return [DeltaSample.build(xf, exact, spec.main(xf))
            for xf, exact in zip(xs, spec.exact(xs, bound))]


def delta_error(target: str, x, *, bound: int = ORACLE_BOUND_DEFAULT) -> DeltaSample:
    """delta_samples at the one point x."""
    return delta_samples(target, [x], bound=bound)[0]


def omega_scan(target: str, x_grid, *,
               bound: int = ORACLE_BOUND_DEFAULT) -> OmegaScanReport:
    """Scan delta/x^{1/4} over a grid: extremes, locations, sign changes.

    Positive sup and negative inf together with sign changes are the
    empirical face of the two-sided oscillation of the error term; the
    report is evidence, not proof.  The grid should be ascending for the
    sign-change count to mean anything.
    """
    samples = delta_samples(target, x_grid, bound=bound)
    if not samples:
        raise ValueError("omega_scan needs a nonempty grid")
    sup_scaled = inf_scaled = None
    sup_x = inf_x = None
    sign_changes = 0
    prev_sign = 0
    for sample in samples:
        v = sample.delta_over_x14
        if sup_scaled is None or v > sup_scaled:
            sup_scaled, sup_x = v, sample.x
        if inf_scaled is None or v < inf_scaled:
            inf_scaled, inf_x = v, sample.x
        cur = 1 if sample.delta > 0.0 else (-1 if sample.delta < 0.0 else 0)
        if cur != 0:
            if prev_sign != 0 and cur != prev_sign:
                sign_changes += 1
            prev_sign = cur
    return OmegaScanReport(
        target=target, count=len(samples),
        sup_scaled=sup_scaled, sup_x=sup_x,
        inf_scaled=inf_scaled, inf_x=inf_x,
        sign_changes=sign_changes,
    )
