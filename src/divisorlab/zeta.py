"""Complex Riemann zeta machinery in plain binary64.

zeta and zeta_derivative run Euler-Maclaurin with cutoff N = max(20,
ceil(2|Im s|)) and 10 Bernoulli correction terms, which keeps the absolute
error at or below about 1e-10 for |Im s| <= 1e5 (the documented envelope).
One helper forms both from a single array n^-s, and sums no zeta' when
only zeta is asked for.  Zero-table validation is its own vectorised
pass, with a cutoff a quarter as long, sized to its 1e-6 tolerance; it
forms no zeta', which the explicit formula takes at the zeros it uses.
Arguments with Re s < 0 go through the functional equation, assembled in
log space so nothing overflows at large imaginary parts.

Special values at negative integers come from exact rational Bernoulli
numbers, each built on first use.  The constants the package reads, the
Stieltjes constants gamma_0..gamma_2 among them, are rows of one table of
decimal strings; no zeta is evaluated at import.  Nontrivial-zero
ordinates are external data loaded from text files; this module never
computes a zero, it only validates that |zeta(1/2 + i t)| is small.
"""

from __future__ import annotations

import bisect
import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AccuracyError, PoleError, TableFormatError

# The package's one table of constants: each row is a decimal string of at
# least 40 significant digits, pinned against mpmath by the test suite, and
# its float is float(s), which Python rounds correctly.
_CONSTANTS = {
    "euler_gamma": "0.577215664901532860606512090082402431042159",
    "stieltjes_1": "-0.0728158454836767248605863758749013191377363",
    "stieltjes_2": "-0.00969036319287231848453038603521252935906581",
    "zeta_2": "1.64493406684822643647241516664602518921895",
    "six_over_pi_squared": "0.607927101854026628663276779258365833426153",
    "zeta_3": "1.20205690315959428539973816151144999076499",
    "zeta_prime_2": "-0.93754825431584375370257409456786497789786",
    "zeta_prime_minus_2": "-0.0304484570583932707802515304711547766470005",
    "mertens_b": "0.261497212847642783755426838608695859051567",
}

# gamma and zeta'(2), which the main terms of D, S_2w and T read
EULER_GAMMA = float(_CONSTANTS["euler_gamma"])
ZETA_PRIME_2 = float(_CONSTANTS["zeta_prime_2"])

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


def _zeta_em_pair(s: complex, derivative: bool = True
                  ) -> tuple[complex, complex | None]:
    """zeta(s) and, with derivative, zeta'(s) by Euler-Maclaurin, from one
    array of n^-s; without it the second item is None and no zeta' is summed.

    Reliable for Re s > -19 on the envelope.  zeta' differentiates term by
    term: its main sum weights n^-s by -log n, and its tail carries the
    s-derivative of each correction term.
    """
    N = _em_cutoff(s)
    logs = np.log(np.arange(1, N, dtype=np.float64))
    powers = -s * logs
    np.exp(powers, out=powers)
    total = powers.sum()
    dtotal = None
    if derivative:
        powers *= logs          # in place: the terms of zeta' up to sign
        dtotal = -powers.sum()
    lnN = math.log(N)
    total, dtotal = _em_tail(s, N, lnN, cmath.exp(-s * lnN), total, dtotal)
    return complex(total), None if dtotal is None else complex(dtotal)


def _em_tail(s, N, lnN, nin_s, total, dtotal=None):
    """Add the Euler-Maclaurin terms past the main sum over n < N.

    total is sum n^-s and dtotal, when given, -sum n^-s log n; nin_s is
    N^-s and lnN is log N.  Works on scalars, and elementwise on numpy
    arrays of s with their own N.  Returns (total, dtotal).
    """
    sm1 = s - 1
    total = total + N * nin_s / sm1 + nin_s / 2
    if dtotal is not None:
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
        f1 = s + 2 * idx + 1
        f2 = s + 2 * idx + 2
        if dtotal is not None:
            dtotal += c * (dpoch - poch * lnN) * npow
            dpoch = dpoch * f1 * f2 + poch * (f1 + f2)
        poch = poch * (f1 * f2)
        npow = npow * inv_n2
    return total, dtotal


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


def _log_sin_cos(z: complex) -> tuple[complex, complex]:
    """log sin z and log cos z, stable for large |Im z|; an exact zero of
    sin gives -inf for its log.

    Past |Im z| > 20 the neglected correction log(1 -+ e^{+-2iz}) is below
    e^-40, smaller than double rounding, so the asymptotic branch is exact
    to working precision.
    """
    b = z.imag
    if abs(b) <= 20.0:
        sv = cmath.sin(z)
        return (complex(-math.inf, 0.0) if sv == 0 else cmath.log(sv),
                cmath.log(cmath.cos(z)))
    if b > 0:
        # cos z ~ e^{-iz} / 2 and sin z ~ i cos z
        log_cos = -1j * z - math.log(2)
        return log_cos + 0.5j * math.pi, log_cos
    log_cos = 1j * z - math.log(2)
    return log_cos - 0.5j * math.pi, log_cos


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
        return _zeta_em_pair(s, derivative=False)[0]
    if s.imag == 0 and s.real % 2 == 0:
        # a trivial zero: the float sin(pi s/2) is ~1e-16 |s| there, not 0,
        # and Gamma(1-s) lifts that past the 1e-10 error from s = -26 on
        return complex(0.0)
    # functional equation in log space:
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    w = 1 - s
    ln_pref = (s * math.log(2) + (s - 1) * math.log(math.pi)
               + _lgamma_complex(w))
    zw = _zeta_em_pair(w, derivative=False)[0]
    if abs(s.imag) <= 20:
        return cmath.exp(ln_pref) * cmath.sin(math.pi * s / 2) * zw
    ln_total = ln_pref + _log_sin_cos(math.pi * s / 2)[0]
    return cmath.exp(ln_total) * zw


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
    log_sin, log_cos = _log_sin_cos(math.pi * s / 2)
    a_sin = cmath.exp(ln_pref + log_sin)
    a_cos = cmath.exp(ln_pref + log_cos)
    zw, zwp = _zeta_em_pair(w)
    coef = math.log(2 * math.pi) - _digamma_complex(w)
    return (coef * a_sin + (math.pi / 2) * a_cos) * zw - a_sin * zwp


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------

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
        z = _zeta_em_pair(complex(2 * k + 1), derivative=False)[0].real
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


def stieltjes(k: int) -> float:
    """Stieltjes constant gamma_k for k in {0, 1, 2}, the table's row."""
    if k not in (0, 1, 2):
        raise ValueError("stieltjes constants are tabulated for k <= 2")
    row = ("euler_gamma", "stieltjes_1", "stieltjes_2")[int(k)]
    return float(_CONSTANTS[row])


# ---------------------------------------------------------------------------
# zero tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Ascending ordinates t_k of nontrivial zeros 1/2 + i t_k."""

    ordinates: tuple[float, ...]
    validated: bool
    failures: tuple[tuple[int, float, float], ...] = ()

    def __len__(self) -> int:
        return len(self.ordinates)

    def __iter__(self):
        return iter(self.ordinates)


# The zero-table check sums n < N = max(20, ceil(t * _CHECK_N_PER_T)), a
# quarter of the engine's cutoff, in blocks of at most _CHECK_CHUNK terms.
_CHECK_N_PER_T = 0.5
_CHECK_CHUNK = 1 << 12


def _zeta_check(ordinates) -> np.ndarray:
    """zeta(1/2 + i t) at ascending ordinates 0 < t <= 1e5, in one
    vectorised Euler-Maclaurin pass, for the zero-table check.

    Neighbouring rows share a block of at most _CHECK_CHUNK terms and sum
    to the N of the block's largest t (a larger N only shrinks the error);
    a row longer than a block spans several.  With the engine's 10
    correction terms the truncation error at s = 1/2 + i t is at most
    (Edwards, Riemann's Zeta Function, 1974, sec. 6.4)

        E(t) = |s + 21| / 21.5 * |B_22| / 22! * |s (s+1) ... (s+20)| * N^-21.5,

    below 2.4e-10 for t <= 1e5 and below 2.9e-11 up to the packaged
    table's last zero.  Rounding of the phases t log n adds at most
    16 eps t, 3.6e-10 at t = 1e5 (measured against mpmath it stays below
    3.2 eps t).  Together that is below 6e-10, over 1000 times below
    ZERO_RESIDUAL_TOL.  The values feed only the check, so they need this
    accuracy and not the scalar engine's bits.
    """
    ts = np.asarray(ordinates, dtype=np.float64)
    cutoffs = [max(20, math.ceil(t * _CHECK_N_PER_T)) for t in ordinates]
    logs = np.log(np.arange(1, max(cutoffs, default=1), dtype=np.float64))
    phases = -1j * logs
    amps = np.exp(-0.5 * logs)                   # n^-1/2
    ns = np.empty(len(ts))
    main = np.zeros(len(ts), dtype=np.complex128)
    lo = 0
    while lo < len(ts):
        hi = lo + 1
        while (hi < len(ts)
               and (hi + 1 - lo) * (cutoffs[hi] - 1) <= _CHECK_CHUNK):
            hi += 1
        N = cutoffs[hi - 1]
        ns[lo:hi] = N
        width = _CHECK_CHUNK // (hi - lo)
        for a in range(0, N - 1, width):
            b = min(a + width, N - 1)
            block = np.multiply.outer(ts[lo:hi], phases[a:b])
            np.exp(block, out=block)
            block *= amps[a:b]      # no BLAS product: no command makes one
            main[lo:hi] += block.sum(axis=1)
        lo = hi
    s = 0.5 + 1j * ts
    lnN = np.log(ns)
    return _em_tail(s, ns, lnN, np.exp(-s * lnN), main)[0]


def load_zero_table(path: str | os.PathLike) -> ZeroTable:
    """Parse and check the zero-ordinate text file at path (one ascending
    ordinate per line).

    Comment lines start with '#'.  Ordering and positivity problems raise
    TableFormatError with the offending line number; then an ordinate past
    the 1e5 envelope raises AccuracyError, before any sum.  Every ordinate
    is checked in one vectorised pass (_zeta_check, error below 6e-10).
    Validation failures (|zeta(1/2+it)| >= 1e-6) do not raise; they are
    collected as (line, t, residual) and the table is marked unvalidated.
    No zeta' is formed here.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
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

    # the first ordinate past the envelope refuses the table as zeta would
    past = bisect.bisect_right(ordinates, IM_ENVELOPE)
    if past < len(ordinates):
        _check_argument(complex(0.5, ordinates[past]))
    residuals = [abs(v) for v in _zeta_check(ordinates).tolist()]
    failures = tuple((line, t, r)
                     for line, t, r in zip(lines_used, ordinates, residuals)
                     if r >= ZERO_RESIDUAL_TOL)
    return ZeroTable(ordinates=tuple(ordinates), validated=not failures,
                     failures=failures)


@lru_cache(maxsize=1)
def default_zero_table() -> ZeroTable:
    """The packaged 1000-zero table, or the file named by ZD_ZEROS."""
    env = os.environ.get(ZEROS_ENV_VAR)
    if env:
        return load_zero_table(env)
    ref = resources.files("divisorlab").joinpath("data/zeros1000.txt")
    with resources.as_file(ref) as path:
        return load_zero_table(path)
