"""Complex Riemann zeta machinery in plain binary64.

zeta and zeta_derivative run Euler-Maclaurin with cutoff N = max(20,
ceil(2|Im s|)) and 10 Bernoulli correction terms, which keeps the absolute
error at or below about 1e-10 for |Im s| <= 1e5 (the documented envelope).
One helper forms both from a single array n^-s; zero-table validation
keeps the zeta' it yields at each zero for the explicit formula.
Arguments with Re s < 0 go through the functional equation, assembled in
log space so nothing overflows at large imaginary parts.

Special values at negative integers come from exact rational Bernoulli
numbers, each built on first use.  Stieltjes constants gamma_0..gamma_2
come from an Euler-Maclaurin limit with symbolically differentiated tail
terms.  Nontrivial-zero ordinates are external data loaded from text
files; this module never computes a zero, it only validates that
|zeta(1/2 + i t)| is small.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AccuracyError, PoleError, TableFormatError

# Euler's constant to full double precision and the package's one source of
# gamma (the main terms in summatory read it).
# stieltjes(0) recomputes it only as a check the test suite pins.
EULER_GAMMA = 0.5772156649015329

IM_ENVELOPE = 1.0e5
_EM_BERNOULLI_TERMS = 10
ZERO_RESIDUAL_TOL = 1.0e-6

ZEROS_ENV_VAR = "ZD_ZEROS"


# ---------------------------------------------------------------------------
# exact Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Exact B_m (B_1 = -1/2 convention), built on first use from B_0..B_{m-1}."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * _bernoulli(j)
    return -acc / (m + 1)


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n for 0 <= n <= 64."""
    if not 0 <= n <= 64:
        raise ValueError("Bernoulli numbers are tabulated for 0 <= n <= 64")
    return _bernoulli(n)


# float ratios B_{2j}/(2j)! for the Euler-Maclaurin correction terms
@lru_cache(maxsize=1)
def _em_coeffs() -> tuple[float, ...]:
    out = []
    for j in range(1, _EM_BERNOULLI_TERMS + 1):
        b = _bernoulli(2 * j)
        out.append(b.numerator / b.denominator / math.factorial(2 * j))
    return tuple(out)


# ---------------------------------------------------------------------------
# Euler-Maclaurin core
# ---------------------------------------------------------------------------

def _em_cutoff(s: complex) -> int:
    return max(20, math.ceil(2.0 * abs(s.imag)))


def _zeta_em_pair(s: complex) -> tuple[complex, complex]:
    """zeta(s) and zeta'(s) by Euler-Maclaurin, from one array of n^-s.

    Reliable for Re s > -19 on the envelope.  zeta' differentiates term by
    term: its main sum weights n^-s by -log n, and its tail carries the
    s-derivative of each correction term.
    """
    N = _em_cutoff(s)
    logs = np.log(np.arange(1, N, dtype=np.float64))
    powers = -s * logs
    np.exp(powers, out=powers)
    lnN = math.log(N)
    nin_s = cmath.exp(-s * lnN)
    sm1 = s - 1
    total = powers.sum() + N * nin_s / sm1 + nin_s / 2
    powers *= logs              # in place: the terms of zeta' up to sign
    dtotal = -powers.sum()
    dtotal += N * nin_s * (-lnN / sm1 - 1.0 / (sm1 * sm1))
    dtotal += -lnN * nin_s / 2
    # correction terms B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1), and
    # d/ds [poch * N^(-s-2j+1)] = (dpoch - poch*lnN) * N^(-s-2j+1)
    poch = s                    # s(s+1)...(s+2j-2), starts at j=1
    dpoch = complex(1.0)
    npow = nin_s / N            # N^(-s-2j+1) at j=1
    inv_n2 = 1.0 / (N * N)
    for idx, c in enumerate(_em_coeffs()):
        total += c * poch * npow
        dtotal += c * (dpoch - poch * lnN) * npow
        f1 = s + 2 * idx + 1
        f2 = s + 2 * idx + 2
        dpoch = dpoch * f1 * f2 + poch * (f1 + f2)
        poch *= f1 * f2
        npow *= inv_n2
    return complex(total), complex(dtotal)


# ---------------------------------------------------------------------------
# log-space helpers for the functional equation
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lgamma_complex(z: complex) -> complex:
    """log Gamma(z) for Re z > 0 (Lanczos, g=7)."""
    if z.real <= 0:
        raise ValueError("lgamma helper requires Re z > 0")
    zz = z - 1
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return (0.5 * math.log(2 * math.pi) + (zz + 0.5) * cmath.log(t) - t
            + cmath.log(x))


def _log_sin(z: complex) -> complex:
    """log sin z, stable for large |Im z|; an exact zero of sin gives -inf.

    Past |Im z| > 20 the neglected correction log(1 -+ e^{+-2iz}) is below
    e^-40, smaller than double rounding, so the asymptotic branch is exact
    to working precision.
    """
    b = z.imag
    if abs(b) <= 20.0:
        sv = cmath.sin(z)
        return complex(-math.inf, 0.0) if sv == 0 else cmath.log(sv)
    if b > 0:
        # sin z ~ e^{-iz} * i/2
        return -1j * z + complex(-math.log(2), math.pi / 2)
    return 1j * z + complex(-math.log(2), -math.pi / 2)


def _log_cos(z: complex) -> complex:
    """log cos z, stable for large |Im z| (same branch note as _log_sin)."""
    b = z.imag
    if abs(b) <= 20.0:
        return cmath.log(cmath.cos(z))
    if b > 0:
        # cos z ~ e^{-iz} / 2
        return -1j * z - math.log(2)
    return 1j * z - math.log(2)


def _digamma_complex(z: complex) -> complex:
    """psi(z) for Re z > 0: recurrence shift then asymptotic series."""
    if z.real <= 0:
        raise ValueError("digamma helper requires Re z > 0")
    total = complex(0.0)
    while abs(z) < 12.0:
        total -= 1.0 / z
        z += 1
    inv = 1.0 / z
    inv2 = inv * inv
    acc = cmath.log(z) - 0.5 * inv
    term = inv2
    for n in range(1, 8):
        b = _bernoulli(2 * n)
        acc -= (b.numerator / b.denominator) / (2 * n) * term
        term *= inv2
    return total + acc


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def _check_argument(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("s must be finite")
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    if abs(s.imag) > IM_ENVELOPE:
        raise AccuracyError(
            f"|Im s| = {abs(s.imag):.3g} exceeds the supported envelope "
            f"{IM_ENVELOPE:.0e}")
    return s


def zeta(s) -> complex:
    """zeta(s) to about 1e-10 absolute error for |Im s| <= 1e5."""
    s = _check_argument(s)
    if s.real >= 0:
        return _zeta_em_pair(s)[0]
    if s.imag == 0 and s.real % 2 == 0:
        # a trivial zero: the float sin(pi s/2) is ~1e-16 |s| there, not 0,
        # and Gamma(1-s) lifts that past the 1e-10 error from s = -26 on
        return complex(0.0)
    # functional equation in log space:
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    w = 1 - s
    ln_pref = (s * math.log(2) + (s - 1) * math.log(math.pi)
               + _lgamma_complex(w))
    if abs(s.imag) <= 20:
        return cmath.exp(ln_pref) * cmath.sin(math.pi * s / 2) * _zeta_em_pair(w)[0]
    ln_total = ln_pref + _log_sin(math.pi * s / 2)
    return cmath.exp(ln_total) * _zeta_em_pair(w)[0]


def zeta_derivative(s) -> complex:
    """zeta'(s) to about 1e-8 absolute error on the same envelope."""
    s = _check_argument(s)
    if s.real >= 0:
        return _zeta_em_pair(s)[1]
    # differentiate zeta(s) = A(s) zeta(1-s) with
    # A = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s):
    # A' = (log 2pi - psi(1-s)) A + (pi/2) * [2^s pi^(s-1) cos(pi s/2) Gamma(1-s)]
    w = 1 - s
    ln_pref = (s * math.log(2) + (s - 1) * math.log(math.pi)
               + _lgamma_complex(w))
    a_sin = cmath.exp(ln_pref + _log_sin(math.pi * s / 2))
    a_cos = cmath.exp(ln_pref + _log_cos(math.pi * s / 2))
    zw, zwp = _zeta_em_pair(w)
    coef = math.log(2 * math.pi) - _digamma_complex(w)
    return (coef * a_sin + (math.pi / 2) * a_cos) * zw - a_sin * zwp


# zeta'(2), the one value of zeta' the main terms of S_2w and T read
ZETA_PRIME_2 = zeta_derivative(2.0).real


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------

NEGATIVE_SPECIAL_KINDS = ("zeta_at_neg_odd", "zeta_prime_at_neg_even")


def zeta_negative_special(kind: str, n: int) -> float:
    """Exact-flavored special values on the negative real axis.

    zeta_at_neg_odd, n >= 0:      zeta(-2n-1) = -B_{2n+2}/(2n+2)
    zeta_prime_at_neg_even, k>=1: zeta'(-2k) = (-1)^k zeta(2k+1) (2k)! / (2 (2pi)^{2k})
    """
    if kind == "zeta_at_neg_odd":
        val = zeta_exact_negative_odd(n)
        return val.numerator / val.denominator
    if kind == "zeta_prime_at_neg_even":
        if n < 1:
            raise ValueError("zeta_prime_at_neg_even needs k >= 1")
        k = n
        z = _zeta_em_pair(complex(2 * k + 1))[0].real
        return ((-1) ** k * z * math.factorial(2 * k)
                / (2 * (2 * math.pi) ** (2 * k)))
    raise ValueError(f"unknown special-value kind {kind!r}")


def zeta_exact_negative_odd(n: int) -> Fraction:
    """zeta(-2n-1) as an exact Fraction, n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    b = bernoulli_number(2 * n + 2)
    return -b / (2 * n + 2)


# ---------------------------------------------------------------------------
# digamma, generalized Euler constants, Stieltjes constants
# ---------------------------------------------------------------------------

def digamma(x: float) -> float:
    """psi(x) for real x > 0, absolute error around 1e-12."""
    if not x > 0:
        raise ValueError("digamma requires x > 0")
    return _digamma_complex(complex(x)).real


def generalized_euler_constant(a: int, q: int) -> float:
    """gamma(a, q) = -(psi(a/q) + log q)/q for 1 <= a <= q."""
    if q < 1 or a < 1 or a > q:
        raise ValueError("need 1 <= a <= q")
    return -(digamma(a / q) + math.log(q)) / q


def _poly_terms_derivative(terms: dict[tuple[int, int], float]):
    """One d/dx step on sum c * (log x)^a * x^(-b) represented as a dict."""
    out: dict[tuple[int, int], float] = {}
    for (a, b), c in terms.items():
        if a > 0:
            key = (a - 1, b + 1)
            out[key] = out.get(key, 0.0) + c * a
        key = (a, b + 1)
        out[key] = out.get(key, 0.0) - c * b
    return out


@lru_cache(maxsize=8)
def stieltjes(k: int) -> float:
    """Stieltjes constant gamma_k for k in {0, 1, 2}, error <= 1e-9.

    Euler-Maclaurin limit of sum (log n)^k / n - (log m)^{k+1}/(k+1) at
    m = 1e4, with tail derivatives of f(x) = (log x)^k / x generated
    symbolically.
    """
    if k not in (0, 1, 2):
        raise ValueError("stieltjes constants implemented for k <= 2")
    m = 10 ** 4
    ns = np.arange(1, m + 1, dtype=np.float64)
    logs = np.log(ns)
    main = math.fsum((logs ** k) / ns)
    lm = math.log(m)
    total = main - lm ** (k + 1) / (k + 1) - (lm ** k) / (2 * m)
    # tail: - sum B_2j/(2j)! f^(2j-1)(m)
    terms = {(k, 1): 1.0}  # f = (log x)^k x^-1
    order = 0
    for j in range(1, 9):
        while order < 2 * j - 1:
            terms = _poly_terms_derivative(terms)
            order += 1
        fval = math.fsum(c * lm ** a / m ** b for (a, b), c in terms.items())
        b2j = _bernoulli(2 * j)
        total -= (b2j.numerator / b2j.denominator) / math.factorial(2 * j) * fval
    return total


# ---------------------------------------------------------------------------
# zero tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Ascending ordinates t_k of nontrivial zeros 1/2 + i t_k."""

    ordinates: tuple[float, ...]
    source: str
    validated: bool
    failures: tuple[tuple[int, float, float], ...] = ()

    def __len__(self) -> int:
        return len(self.ordinates)

    def __iter__(self):
        return iter(self.ordinates)

    @cached_property
    def zeta_primes(self) -> np.ndarray:
        """zeta'(1/2 + i t_k) for every ordinate, computed on first use.

        A read-only complex array.  load_zero_table's validation sets it
        from the power arrays its residuals come from, so a validated table
        never computes it twice.
        """
        out = np.empty(len(self.ordinates), dtype=np.complex128)
        for k, t in enumerate(self.ordinates):
            out[k] = zeta_at_ordinate(t)[1]
        out.flags.writeable = False
        return out


def zeta_at_ordinate(t: float) -> tuple[complex, complex]:
    """zeta and zeta' at 1/2 + i t, from one power array.

    Both equal zeta(1/2 + i t) and zeta_derivative(1/2 + i t) bit for bit.
    """
    return _zeta_em_pair(_check_argument(complex(0.5, t)))


def _read_zero_text(source) -> tuple[str, str]:
    if hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        return raw, getattr(source, "name", "<stream>")
    path = Path(source)
    return path.read_text(encoding="utf-8"), str(path)


def load_zero_table(source, validate: bool = True) -> ZeroTable:
    """Parse a zero-ordinate text file (one ascending ordinate per line).

    Comment lines start with '#'.  Ordering and positivity problems raise
    TableFormatError with the offending line number.  Validation failures
    (|zeta(1/2+it)| >= 1e-6) do not raise; they are collected and the
    table is marked unvalidated.
    """
    text, name = _read_zero_text(source)
    ordinates: list[float] = []
    lines_used: list[int] = []
    prev = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            t = float(body)
        except ValueError:
            raise TableFormatError(f"unparseable ordinate {body!r}",
                                   line=lineno) from None
        if not math.isfinite(t) or t <= 0:
            raise TableFormatError(f"ordinate must be positive, got {body}",
                                   line=lineno)
        if prev is not None and t <= prev:
            raise TableFormatError(
                f"ordinates must be strictly ascending ({t} after {prev})",
                line=lineno)
        if not ordinates and t <= 14:
            raise TableFormatError(
                f"first ordinate {t} is below 14; not a nontrivial zero",
                line=lineno)
        ordinates.append(t)
        lines_used.append(lineno)
        prev = t

    failures: list[tuple[int, float, float]] = []
    if validate:
        primes = np.empty(len(ordinates), dtype=np.complex128)
        for k, (lineno, t) in enumerate(zip(lines_used, ordinates)):
            value, primes[k] = zeta_at_ordinate(t)
            residual = abs(value)
            if residual >= ZERO_RESIDUAL_TOL:
                failures.append((lineno, t, residual))
    table = ZeroTable(ordinates=tuple(ordinates), source=name,
                      validated=validate and not failures,
                      failures=tuple(failures))
    if validate:
        # fills the cached_property, as a first read would
        primes.flags.writeable = False
        object.__setattr__(table, "zeta_primes", primes)
    return table


@lru_cache(maxsize=1)
def default_zero_table() -> ZeroTable:
    """The packaged 1000-zero table, or the file named by ZD_ZEROS."""
    env = os.environ.get(ZEROS_ENV_VAR)
    if env:
        return load_zero_table(env, validate=True)
    ref = resources.files("divisorlab").joinpath("data/zeros1000.txt")
    with ref.open("r", encoding="utf-8") as fh:
        return load_zero_table(fh, validate=True)
