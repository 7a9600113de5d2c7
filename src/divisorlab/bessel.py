"""Order-one Bessel functions and the oscillatory lattice-sum formulas.

Hand-rolled J1, Y1, K1 in double precision: ascending series below the
switch point, large-argument asymptotic expansions above it, sharing one
coefficient recurrence a_m -> a_m * (4 - (2m-1)^2) / (8 m z).  The
expansions are numpy kernels over arrays of z; each element stops where
its own scalar recurrence would and adds its terms in the same order, and
the scalar evaluators call them on one element.  The documented envelope
is absolute error <= 1e-10 for arguments up to 1e4, with measured
machine-level accuracy out to the hard boundary at 1e5.

On top of them sit three summation formulas for a non-integer x:

    voronoi_full      1/4 + (log x + 2 gamma - 1) x
                        - (2 sqrt(x)/pi) sum d(n)/sqrt(n) (K1 + (pi/2) Y1)(4 pi sqrt(nx))
    voronoi_truncated (x^{1/4}/(pi sqrt 2)) sum_{n<=N} d(n) n^{-3/4} cos(4 pi sqrt(nx) - pi/4)
    sierpinski_sum    pi x + sqrt(x) sum_{n<=N} r2(n)/sqrt(n) J1(2 pi sqrt(nx))

voronoi_full and sierpinski_sum form their terms SERIES_CHUNK at a time
(sierpinski_sum: about 64 chunks at most, each with its own r2 walk) as
arrays and feed every term, in ascending n, to one math.fsum, which
rounds the exact sum once: the chunking cannot move a bit.  No
acceleration tricks, reproducibility first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .arith import DIVISOR_SIEVE_MAX, divisor_count_sieve
from .errors import AccuracyError, PoleError, ResourceLimitError
from .summatory import _segment_values, divisor_main_term, divisor_sum_hyperbola
from .zeta import EULER_GAMMA

ASYMPTOTIC_SWITCH = 12.0
# Guaranteed absolute error <= 1e-10 up to DOCUMENTED_ENVELOPE; beyond it
# the asymptotic branch keeps measured ulp-level accuracy until the hard
# rejection boundary, which exists so the lattice sums can reach their
# default term counts (their arguments grow like sqrt(n x)).
DOCUMENTED_ENVELOPE = 1.0e4
ARGUMENT_ENVELOPE = 1.0e5
SERIES_CUTOFF = 60
# Lattice-sum terms are formed this many at a time (sierpinski_sum: n_terms
# // 64 once that is more), which bounds the arrays.
SERIES_CHUNK = 1 << 12


@dataclass(frozen=True)
class BesselAccuracy:
    """Documented accuracy envelope of the order-one Bessel evaluators.

    target_abs_error holds for arguments up to DOCUMENTED_ENVELOPE (1e4);
    measured accuracy stays at machine level out to the hard boundary.
    """

    series_cutoff_terms: int = SERIES_CUTOFF
    asymptotic_switch_point: float = ASYMPTOTIC_SWITCH
    target_abs_error: float = 1.0e-10


DEFAULT_ACCURACY = BesselAccuracy()


@dataclass(frozen=True)
class TruncatedSeriesValue:
    """Value of a truncated series plus its last-term magnitude.

    last_term is the absolute value of the final summand, reported so
    callers can see the truncation quality of a slowly converging sum.
    """

    value: float
    n_terms: int
    last_term: float


# ---------------------------------------------------------------------------
# ascending series (small z)
# ---------------------------------------------------------------------------

def _series_J(nu: int, z: float) -> float:
    """J_nu by the ascending power series, nu in {0, 1}.

    term_k = (-1)^k (z/2)^{2k+nu} / (k! (k+nu)!); the ratio form below
    keeps everything in one multiply per term.
    """
    q = 0.25 * z * z
    term = (0.5 * z) ** nu / math.factorial(nu)
    total = term
    for k in range(1, SERIES_CUTOFF + 1):
        term *= -q / (k * (k + nu))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            break
    return total


def _series_I1(z: float) -> float:
    """I_1 ascending series (all-plus twin of the J_1 series)."""
    q = 0.25 * z * z
    term = 0.5 * z
    total = term
    for k in range(1, SERIES_CUTOFF + 1):
        term *= q / (k * (k + 1))
        total += term
        if term < 1e-18 * total:
            break
    return total


def _series_Y(nu: int, z: float) -> float:
    """Y_nu by the standard log-series, nu in {0, 1}."""
    lg = math.log(0.5 * z)
    q = 0.25 * z * z
    if nu == 0:
        # (2/pi) [ (log(z/2) + gamma) J0 + sum_{k>=1} (-1)^{k+1} H_k q^k / (k!)^2 ]
        term = 1.0
        harmonic = 0.0
        acc = 0.0
        for k in range(1, SERIES_CUTOFF + 1):
            term *= q / (k * k)
            harmonic += 1.0 / k
            piece = term * harmonic
            acc += piece if k % 2 == 1 else -piece
            if term * harmonic < 1e-18 * (1.0 + abs(acc)):
                break
        return (2.0 / math.pi) * ((lg + EULER_GAMMA) * _series_J(0, z) + acc)
    # nu = 1:
    #   (2/pi) log(z/2) J1 - 2/(pi z)
    #   - (1/pi) sum_{k>=0} (psi(k+1) + psi(k+2)) (-1)^k (z/2)^{2k+1} / (k! (k+1)!)
    # with psi(k+1) = -gamma + H_k.
    term = 0.5 * z
    h_k = 0.0
    h_k1 = 1.0
    acc = term * (-2.0 * EULER_GAMMA + h_k + h_k1)
    for k in range(1, SERIES_CUTOFF + 1):
        term *= -q / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        piece = term * (-2.0 * EULER_GAMMA + h_k + h_k1)
        acc += piece
        if abs(piece) < 1e-18 * (1.0 + abs(acc)):
            break
    return (2.0 / math.pi) * lg * _series_J(1, z) - 2.0 / (math.pi * z) - acc / math.pi


def _series_K1(z: float) -> float:
    """K_1 ascending series: 1/z + log(z/2) I1 - (z/4) sum ... ."""
    q = 0.25 * z * z
    term = 1.0
    h_k = 0.0
    h_k1 = 1.0
    acc = -2.0 * EULER_GAMMA + h_k + h_k1
    for k in range(1, SERIES_CUTOFF + 1):
        term *= q / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        piece = term * (-2.0 * EULER_GAMMA + h_k + h_k1)
        acc += piece
        if abs(piece) < 1e-18 * (1.0 + abs(acc)):
            break
    return 1.0 / z + math.log(0.5 * z) * _series_I1(z) - 0.25 * z * acc


# ---------------------------------------------------------------------------
# large-argument asymptotics (shared coefficient recurrence, array kernels)
# ---------------------------------------------------------------------------

# K_1's factor e^{-z} is 0.0 in binary64 from z ~ 745.2 on.
_EXP_UNDERFLOW = 746.0


def _asymptotic_series(mu: int, z: np.ndarray, split_pq: bool):
    """Elementwise sums of the large-z terms t_m of order nu, mu = 4 nu^2.

    t_m = t_{m-1} (mu - (2m-1)^2) / (8 m z).  Each element stops where its
    own divergent tail starts (optimal truncation) or once a term is below
    1e-18, and adds its terms in ascending m.  With split_pq, odd-m terms
    feed Q and even-m terms P, each with an extra (-1)^{floor(m/2)} sign
    (the J/Y modulus/phase pair); without, every term feeds one sum.
    """
    t = np.ones_like(z)
    prev = np.ones_like(z)
    p_acc = np.ones_like(z)
    q_acc = np.zeros_like(z) if split_pq else p_acc
    live = np.ones(z.shape, dtype=bool)
    for m in range(1, 40):
        t *= (mu - (2 * m - 1) ** 2) / (8.0 * m * z)
        size = np.abs(t)
        live &= size < prev
        if not live.any():
            break
        prev = size
        acc = q_acc if m % 2 == 1 else p_acc
        signed = -t if split_pq and (m // 2) % 2 == 1 else t
        np.add(acc, signed, out=acc, where=live)
        live &= size >= 1e-18
    return p_acc, q_acc


def _asymptotic_JY(nu: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu and Y_nu of an array of z > ASYMPTOTIC_SWITCH."""
    p, q = _asymptotic_series(4 * nu * nu, z, split_pq=True)
    chi = z - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * z))
    c, s = np.cos(chi), np.sin(chi)
    return amp * (c * p - s * q), amp * (s * p + c * q)


def _asymptotic_K1(z: np.ndarray) -> np.ndarray:
    """K_1 = sqrt(pi/2z) e^{-z} sum t_m of an array of z > ASYMPTOTIC_SWITCH.

    e^{-z} comes from math.exp, which np.exp does not match bit for bit;
    where it underflows the value is 0.0 and the sum is not formed.
    """
    out = np.zeros_like(z)
    near = np.flatnonzero(z < _EXP_UNDERFLOW)
    if near.size:
        zn = z[near]
        decay = np.array([math.exp(-v) for v in zn.tolist()])
        out[near] = (np.sqrt(0.5 * math.pi / zn) * decay
                     * _asymptotic_series(4, zn, split_pq=False)[0])
    return out


def _on_branches(z: np.ndarray, series, asymptotic) -> np.ndarray:
    """series(z) per element at or below the switch, asymptotic(array) above."""
    out = np.empty_like(z)
    far = z > ASYMPTOTIC_SWITCH
    out[far] = asymptotic(z[far])
    near = np.flatnonzero(~far)
    out[near] = [series(v) for v in z[near].tolist()]
    return out


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _check_argument(z, name: str, *, allow_zero: bool) -> float:
    zf = float(z)
    if math.isnan(zf) or math.isinf(zf):
        raise ValueError(f"{name} needs a finite argument")
    if zf < 0.0:
        raise ValueError(f"{name} is implemented for nonnegative arguments")
    if zf == 0.0 and not allow_zero:
        raise PoleError(f"{name} is singular at z = 0")
    if zf > ARGUMENT_ENVELOPE:
        raise AccuracyError(
            f"{name} accuracy envelope ends at z = {ARGUMENT_ENVELOPE:g}")
    return zf


def _check_arguments(z: np.ndarray, name: str, *, allow_zero: bool) -> None:
    """_check_argument on each element outside (0, ARGUMENT_ENVELOPE], in order."""
    for zf in z[~((z > 0.0) & (z <= ARGUMENT_ENVELOPE))].tolist():
        _check_argument(zf, name, allow_zero=allow_zero)


def bessel_J1(z) -> float:
    """J_1(z); absolute error <= 1e-10 for z <= 1e4, ulp-level beyond."""
    zf = _check_argument(z, "bessel_J1", allow_zero=True)
    if zf == 0.0:
        return 0.0
    if zf <= ASYMPTOTIC_SWITCH:
        return _series_J(1, zf)
    return float(_asymptotic_JY(1, np.array([zf]))[0][0])


def bessel_Y1(z) -> float:
    """Y_1(z), z > 0; absolute error <= 1e-10 for z <= 1e4, ulp-level beyond."""
    zf = _check_argument(z, "bessel_Y1", allow_zero=False)
    if zf <= ASYMPTOTIC_SWITCH:
        return _series_Y(1, zf)
    return float(_asymptotic_JY(1, np.array([zf]))[1][0])


def bessel_K1(z) -> float:
    """K_1(z), z > 0; absolute error <= 1e-10 for z <= 1e4, ulp-level beyond."""
    zf = _check_argument(z, "bessel_K1", allow_zero=False)
    if zf <= ASYMPTOTIC_SWITCH:
        return _series_K1(zf)
    return float(_asymptotic_K1(np.array([zf]))[0])


def _bessel_J0(z) -> float:
    """J_0, kept for the Wronskian recurrence J1' = J0 - J1/z in tests."""
    zf = _check_argument(z, "bessel_J0", allow_zero=True)
    if zf <= ASYMPTOTIC_SWITCH:
        return _series_J(0, zf)
    return float(_asymptotic_JY(0, np.array([zf]))[0][0])


def _bessel_Y0(z) -> float:
    """Y_0, kept for the Wronskian recurrence Y1' = Y0 - Y1/z in tests."""
    zf = _check_argument(z, "bessel_Y0", allow_zero=False)
    if zf <= ASYMPTOTIC_SWITCH:
        return _series_Y(0, zf)
    return float(_asymptotic_JY(0, np.array([zf]))[1][0])


# ---------------------------------------------------------------------------
# summation formulas
# ---------------------------------------------------------------------------

def _require_noninteger(x, name: str) -> float:
    xf = float(x)
    if xf.is_integer():
        raise ValueError(
            f"{name} needs non-integer x; average around the integer yourself "
            "if that is what you want")
    return xf


def default_terms(kind: str, x) -> int:
    """The most terms, up to 10^4 (10^3 for truncated), kind's series takes at x.

    full and sierpinski keep every Bessel argument c sqrt(x) sqrt(n)
    (c = 4 pi, 2 pi) within ARGUMENT_ENVELOPE, by the series' own float
    expression; truncated keeps the count below x.  x outside (0, inf) gets
    the cap, for the series to refuse with its own message.
    """
    cap = 10 ** 3 if kind == "truncated" else 10 ** 4
    xf = float(x)
    if not 0.0 < xf < math.inf:
        return cap
    if kind == "truncated":
        return min(cap, math.ceil(xf) - 1)
    scale = (4.0 if kind == "full" else 2.0) * math.pi * math.sqrt(xf)
    n = min(cap, int((ARGUMENT_ENVELOPE / scale) ** 2) + 1)
    while n > 0 and scale * math.sqrt(n) > ARGUMENT_ENVELOPE:
        n -= 1
    if n == 0:
        raise AccuracyError(f"{kind} series: at x = {xf:g} its first Bessel "
                            f"argument passes the envelope z = {ARGUMENT_ENVELOPE:g}")
    return n


def _chunk_bounds(n_terms: int, size: int = SERIES_CHUNK):
    """(lo, hi) for n in [1, n_terms], size values of n at a time."""
    return ((lo, min(lo + size, n_terms + 1))
            for lo in range(1, n_terms + 1, size))


def voronoi_full(x, n_terms: int | None = None) -> TruncatedSeriesValue:
    """Bessel-kernel expansion of D(x) truncated at n_terms summands.

    n_terms defaults to default_terms("full", x).  The series converges
    slowly, so the magnitude of the last summand is returned alongside the
    value as a truncation indicator.
    """
    xf = _require_noninteger(x, "voronoi_full")
    if xf <= 1.0:
        raise ValueError("voronoi_full needs x > 1")
    if n_terms is None:
        n_terms = default_terms("full", xf)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    d = divisor_count_sieve(n_terms)
    four_pi_sqrt_x = 4.0 * math.pi * math.sqrt(xf)
    last = 0.0

    def chunks():
        nonlocal last
        for lo, hi in _chunk_bounds(n_terms):
            root = np.sqrt(np.arange(lo, hi, dtype=np.float64))
            arg = four_pi_sqrt_x * root
            _check_arguments(arg, "bessel_K1", allow_zero=False)
            k1 = _on_branches(arg, _series_K1, _asymptotic_K1)
            y1 = _on_branches(arg, partial(_series_Y, 1),
                              lambda far: _asymptotic_JY(1, far)[1])
            chunk = (d[lo:hi] / root * (k1 + 0.5 * math.pi * y1)).tolist()
            last = chunk[-1]
            yield chunk

    series = math.fsum(chain.from_iterable(chunks()))
    value = (0.25 + divisor_main_term(xf)
             - (2.0 * math.sqrt(xf) / math.pi) * series)
    last_term = abs(last) * 2.0 * math.sqrt(xf) / math.pi
    return TruncatedSeriesValue(value=value, n_terms=n_terms, last_term=last_term)


def voronoi_truncated(x, n_terms: int) -> float:
    """Cosine-sum approximation to the divisor error term.

    Returns (x^{1/4}/(pi sqrt 2)) sum_{n<=N} d(n) n^{-3/4}
    cos(4 pi sqrt(nx) - pi/4).  Compare against
    divisor_delta_reference(x, include_quarter=True), i.e.
    D(x) - (log x + 2 gamma - 1) x - 1/4; the bare delta of
    delta_error drops the 1/4 and both conventions are exposed.
    """
    xf = _require_noninteger(x, "voronoi_truncated")
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    if n_terms >= xf:
        raise ValueError("n_terms must stay below x")
    d = divisor_count_sieve(n_terms)
    four_pi_sqrt_x = 4.0 * math.pi * math.sqrt(xf)
    terms = []
    for n in range(1, n_terms + 1):
        phase = four_pi_sqrt_x * math.sqrt(n) - 0.25 * math.pi
        terms.append(float(d[n]) * n ** -0.75 * math.cos(phase))
    return xf ** 0.25 / (math.pi * math.sqrt(2.0)) * math.fsum(terms)


def divisor_delta_reference(x, *, include_quarter: bool = True) -> float:
    """Exact D(floor x) minus the main term, the cosine sum's comparison side.

    include_quarter subtracts the extra 1/4 used by the truncated
    expansion's convention; False gives the bare error term.
    """
    xf = float(x)
    if xf < 1.0:
        raise ValueError("needs x >= 1")
    ref = float(divisor_sum_hyperbola(xf).value) - divisor_main_term(xf)
    if include_quarter:
        ref -= 0.25
    return ref


def sierpinski_sum(x, n_terms: int | None = None) -> float:
    """pi x + sqrt(x) sum_{n<=N} r2(n)/sqrt(n) J1(2 pi sqrt(nx)).

    The lattice-count analogue of the Bessel divisor expansion; compare
    against circle_lattice_sum.  r2(n) = 0 terms are skipped outright.
    n_terms defaults to default_terms("sierpinski", x).
    """
    xf = _require_noninteger(x, "sierpinski_sum")
    if xf <= 0.0:
        raise ValueError("sierpinski_sum needs x > 0")
    if n_terms is None:
        n_terms = default_terms("sierpinski", xf)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if n_terms > DIVISOR_SIEVE_MAX:
        raise ResourceLimitError(
            f"sierpinski series: {n_terms} terms exceed {DIVISOR_SIEVE_MAX}")
    two_pi_sqrt_x = 2.0 * math.pi * math.sqrt(xf)

    def chunks():
        # r2 by the brute walk's rule, one walk per chunk; a walk loops over
        # the primes up to sqrt(hi), so past 64 chunks the chunks grow instead
        for lo, hi in _chunk_bounds(n_terms, max(SERIES_CHUNK, n_terms // 64)):
            r2 = _segment_values("r2", lo, hi)
            keep = np.flatnonzero(r2)
            root = np.sqrt(keep + lo)
            arg = two_pi_sqrt_x * root
            _check_arguments(arg, "bessel_J1", allow_zero=True)
            j1 = _on_branches(arg, partial(_series_J, 1),
                              lambda far: _asymptotic_JY(1, far)[0])
            yield (r2[keep] / root * j1).tolist()

    return math.pi * xf + math.sqrt(xf) * math.fsum(chain.from_iterable(chunks()))
