"""Order-one Bessel functions and the oscillatory lattice-sum formulas.

Hand-rolled J1, Y1, K1 in double precision: ascending series below the
switch point (one loop for J and I1, one psi-weighted loop for Y1 and K1),
large-argument asymptotic expansions above it, sharing one coefficient
recurrence a_m -> a_m * (4 - (2m-1)^2) / (8 m z).  One
table-driven _evaluate serves them (and J0, Y0) for a float or an array:
the series per element in pure Python, the expansions as numpy kernels in
which each element stops where its own scalar recurrence would and adds
its terms in the same order.  The documented envelope is absolute error
<= 1e-10 for arguments up to 1e4, with measured machine-level accuracy out
to the hard boundary at 1e5.

On top of them sit three summation formulas for a non-integer x:

    voronoi_full      1/4 + (log x + 2 gamma - 1) x
                        - (2 sqrt(x)/pi) sum d(n)/sqrt(n) (K1 + (pi/2) Y1)(4 pi sqrt(nx))
    voronoi_truncated (x^{1/4}/(pi sqrt 2)) sum_{n<=N} d(n) n^{-3/4} cos(4 pi sqrt(nx) - pi/4)
    sierpinski_sum    pi x + sqrt(x) sum_{n<=N} r2(n)/sqrt(n) J1(2 pi sqrt(nx))

The three are rows of one chunk loop.  Each chunk (64 at most) takes d(n)
or r2(n) from its own prime-exponent walk, forms its terms (the Bessel
rows as arrays, the cosine row one Python float at a time) and feeds every
term, in ascending n, to one math.fsum, which rounds the exact sum once:
the chunking cannot move a bit, and only one chunk's terms are held at a
time, so the truncated sum's memory does not grow with N.  No
acceleration tricks, reproducibility first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .arith import DIVISOR_SIEVE_MAX
from .errors import AccuracyError, PoleError, ResourceLimitError
from .summatory import _walk_chunks, divisor_main_term, divisor_sum_hyperbola
from .zeta import EULER_GAMMA

ASYMPTOTIC_SWITCH = 12.0
# Guaranteed absolute error <= 1e-10 up to DOCUMENTED_ENVELOPE; beyond it
# the asymptotic branch keeps measured ulp-level accuracy until the hard
# rejection boundary, which exists so the lattice sums can reach their
# default term counts (their arguments grow like sqrt(n x)).
DOCUMENTED_ENVELOPE = 1.0e4
ARGUMENT_ENVELOPE = 1.0e5
SERIES_CUTOFF = 60
# Series terms are formed this many at a time, which bounds the arrays.
SERIES_CHUNK = 1 << 12


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

def _ascending(nu: int, q: float, term: float) -> float:
    """sum_k term_k with term_k = term_{k-1} (-q) / (k (k + nu)), nu in {0, 1}.

    With term_0 = (z/2)^nu / nu!, q = z^2/4 gives J_nu and q = -z^2/4 gives
    I_nu.
    """
    total = term
    for k in range(1, SERIES_CUTOFF + 1):
        term *= -q / (k * (k + nu))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            break
    return total


def _series_J(nu: int, z: float) -> float:
    """J_nu by the ascending power series, nu in {0, 1}."""
    return _ascending(nu, 0.25 * z * z, (0.5 * z) ** nu / math.factorial(nu))


def _psi_weighted(q: float, term: float) -> float:
    """sum_k term_k (psi(k+1) + psi(k+2)), term_k = term_{k-1} (-q) / (k (k+1)).

    psi(k+1) = -gamma + H_k.  This is the log-series tail of Y_1 (q = z^2/4,
    term_0 = z/2) and of K_1 (q = -z^2/4, term_0 = 1).
    """
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
    return acc


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
    return ((2.0 / math.pi) * lg * _series_J(1, z) - 2.0 / (math.pi * z)
            - _psi_weighted(q, 0.5 * z) / math.pi)


def _series_K1(z: float) -> float:
    """K_1 ascending series: 1/z + log(z/2) I1 - (z/4) sum ... ."""
    q = -0.25 * z * z
    return (1.0 / z + math.log(0.5 * z) * _ascending(1, q, 0.5 * z)
            - 0.25 * z * _psi_weighted(q, 1.0))


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


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

# name -> (allow_zero, series of one float, asymptotic kernel of an array)
_EVALUATORS = {
    "bessel_J1": (True, partial(_series_J, 1), lambda z: _asymptotic_JY(1, z)[0]),
    "bessel_Y1": (False, partial(_series_Y, 1), lambda z: _asymptotic_JY(1, z)[1]),
    "bessel_K1": (False, _series_K1, _asymptotic_K1),
    "bessel_J0": (True, partial(_series_J, 0), lambda z: _asymptotic_JY(0, z)[0]),
    "bessel_Y0": (False, partial(_series_Y, 0), lambda z: _asymptotic_JY(0, z)[1]),
}


def _evaluate(name: str, z):
    """name's function of a float, or elementwise of an array of floats.

    Elements outside (0, ARGUMENT_ENVELOPE] are checked in order, so an
    array raises the error of its first bad element.  Elements at or below
    the switch take the pure-Python series one at a time (a float there
    nothing else); those above it take the asymptotic kernel together.
    """
    allow_zero, series, asymptotic = _EVALUATORS[name]
    if np.ndim(z) == 0 and 0.0 < float(z) <= ASYMPTOTIC_SWITCH:
        return series(float(z))
    zs = np.array(z, dtype=np.float64, ndmin=1)
    for zf in zs[~((zs > 0.0) & (zs <= ARGUMENT_ENVELOPE))].tolist():
        if math.isnan(zf) or math.isinf(zf):
            raise ValueError(f"{name} needs a finite argument")
        if zf < 0.0:
            raise ValueError(f"{name} is implemented for nonnegative arguments")
        if zf == 0.0 and not allow_zero:
            raise PoleError(f"{name} is singular at z = 0")
        if zf > ARGUMENT_ENVELOPE:
            raise AccuracyError(
                f"{name} accuracy envelope ends at z = {ARGUMENT_ENVELOPE:g}")
    out = np.empty_like(zs)
    far = zs > ASYMPTOTIC_SWITCH
    out[far] = asymptotic(zs[far])
    out[~far] = [series(zf) for zf in zs[~far].tolist()]
    return out if np.ndim(z) else float(out[0])


def bessel_J1(z):
    """J_1 of a float or an array: absolute error <= 1e-10 for z <= 1e4, ulp-level beyond."""
    return _evaluate("bessel_J1", z)


def bessel_Y1(z):
    """Y_1, z > 0, of a float or an array; error as for bessel_J1."""
    return _evaluate("bessel_Y1", z)


def bessel_K1(z):
    """K_1, z > 0, of a float or an array; error as for bessel_J1."""
    return _evaluate("bessel_K1", z)


def _bessel_J0(z):
    """J_0, kept for the tests of the Wronskian J1 Y0 - J0 Y1 = 2/(pi z)."""
    return _evaluate("bessel_J0", z)


def _bessel_Y0(z):
    """Y_0, kept for the tests of the Wronskian J1 Y0 - J0 Y1 = 2/(pi z)."""
    return _evaluate("bessel_Y0", z)


# ---------------------------------------------------------------------------
# summation formulas
# ---------------------------------------------------------------------------

def _bessel_terms(kernel, a: np.ndarray, n: np.ndarray, scale: float) -> list[float]:
    """The chunk's terms a(n)/sqrt(n) kernel(scale sqrt(n)), formed as arrays."""
    root = np.sqrt(n)
    return (a / root * kernel(scale * root)).tolist()


def _cosine_terms(a: np.ndarray, n: np.ndarray, scale: float) -> list[float]:
    """The chunk's terms a(n) n^{-3/4} cos(scale sqrt(n) - pi/4).

    One Python float at a time: np.power(n, -0.75) is not n ** -0.75 in
    every bit.
    """
    return [float(d) * k ** -0.75 * math.cos(scale * math.sqrt(k) - 0.25 * math.pi)
            for d, k in zip(a.tolist(), n.tolist())]


# kind -> (walk rule of a(n), the c of the scale c sqrt(x), the chunk's terms
# of (a(n), n, scale) over its a(n) != 0, refusal past DIVISOR_SIEVE_MAX
# terms), in the order `voronoi --kind` lists them.  The Bessel envelope
# checked is that of the kernel's first evaluator.  Kernels call _evaluate,
# not the public names, which the traced benchmark (perfbench/trace_boot.py)
# rebinds to counters that take one float.
_DIVISOR_TERMS_REFUSAL = "divisor table limit {n} exceeds {cap}"
_TRUNCATED_TERMS = "the truncated sum takes N terms with 2 <= N < x"
_SERIES = {
    "full": ("d", 4.0 * math.pi,
             partial(_bessel_terms, lambda z: _evaluate("bessel_K1", z)
                     + 0.5 * math.pi * _evaluate("bessel_Y1", z)),
             _DIVISOR_TERMS_REFUSAL),
    "truncated": ("d", 4.0 * math.pi, _cosine_terms, _DIVISOR_TERMS_REFUSAL),
    "sierpinski": ("r2", 2.0 * math.pi,
                   partial(_bessel_terms, partial(_evaluate, "bessel_J1")),
                   "sierpinski series: {n} terms exceed {cap}"),
}


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
    expression; truncated keeps the count below x, and refuses x <= 2,
    where no count fits.  x outside (0, inf) gets the cap, for the series to
    refuse with its own message.
    """
    cap = 10 ** 3 if kind == "truncated" else 10 ** 4
    xf = float(x)
    if not 0.0 < xf < math.inf:
        return cap
    if kind == "truncated":
        if xf <= 2.0:
            raise ValueError(f"{_TRUNCATED_TERMS}; none fits x = {xf}")
        return min(cap, math.ceil(xf) - 1)
    scale = _SERIES[kind][1] * math.sqrt(xf)  # c sqrt(x)
    n = min(cap, int((ARGUMENT_ENVELOPE / scale) ** 2) + 1)
    while n > 0 and scale * math.sqrt(n) > ARGUMENT_ENVELOPE:
        n -= 1
    if n == 0:
        raise AccuracyError(f"{kind} series: at x = {xf:g} its first Bessel "
                            f"argument passes the envelope z = {ARGUMENT_ENVELOPE:g}")
    return n


def _bessel_series(kind: str, xf: float, n_terms: int) -> tuple[float, float]:
    """sum_{n<=N} of _SERIES[kind]'s terms at scale c sqrt(x), and its last term.

    a(n) = 0 terms are skipped.  The SERIES_CHUNK-long chunks of
    _walk_chunks each walk for their own a(n).
    """
    rule, c, chunk_terms, too_many = _SERIES[kind]
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if n_terms > DIVISOR_SIEVE_MAX:
        raise ResourceLimitError(too_many.format(n=n_terms, cap=DIVISOR_SIEVE_MAX))
    scale = c * math.sqrt(xf)
    last = 0.0

    def chunks():
        nonlocal last
        for lo, coef in _walk_chunks(rule, 1, n_terms + 1, SERIES_CHUNK):
            keep = np.flatnonzero(coef)
            terms = chunk_terms(coef[keep], keep + lo, scale)
            last = terms[-1] if terms else last
            yield terms

    total = math.fsum(chain.from_iterable(chunks()))
    return total, last


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
    series, last = _bessel_series("full", xf, n_terms)
    value = (0.25 + divisor_main_term(xf)
             - (2.0 * math.sqrt(xf) / math.pi) * series)
    last_term = abs(last) * 2.0 * math.sqrt(xf) / math.pi
    return TruncatedSeriesValue(value=value, n_terms=n_terms, last_term=last_term)


def voronoi_truncated(x, n_terms: int) -> float:
    """Cosine-sum approximation to the divisor error term.

    Returns (x^{1/4}/(pi sqrt 2)) sum_{n<=N} d(n) n^{-3/4}
    cos(4 pi sqrt(nx) - pi/4).  Compare against divisor_delta_reference(x),
    i.e. D(x) - (log x + 2 gamma - 1) x - 1/4; the bare delta of
    delta_error drops the 1/4.
    """
    xf = _require_noninteger(x, "voronoi_truncated")
    if not 2 <= n_terms < xf:
        raise ValueError(f"{_TRUNCATED_TERMS}; N = {n_terms} does not fit x = {xf}")
    series = _bessel_series("truncated", xf, n_terms)[0]
    return xf ** 0.25 / (math.pi * math.sqrt(2.0)) * series


def divisor_delta_reference(x) -> float:
    """Exact D(floor x) minus the main term and 1/4, the cosine sum's comparison side.

    The 1/4 is the truncated expansion's convention; delta_error(...).delta
    is the bare error term.
    """
    xf = float(x)
    if xf < 1.0:
        raise ValueError("needs x >= 1")
    return float(divisor_sum_hyperbola(xf).value) - divisor_main_term(xf) - 0.25


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
    return math.pi * xf + math.sqrt(xf) * _bessel_series("sierpinski", xf, n_terms)[0]
