"""Reference values computed apart from divisorlab.

Nothing here imports the package under test.  Each function re-derives a
quantity the benchmark's ops report, by its own route:

  D(m)            hyperbola sum, vectorised in chunks
  S_2w(m)         sum_{d <= sqrt m} mu(d) D(m // d^2), with its own mu sieve
                  and a sieved D table for small arguments
  sum mu(n)       segmented numpy mu sieve
  sum 2^w(n)/n    numpy omega sieve, prefix sums in extended precision
  sum r2(n)       lattice column count
  main terms      mpmath's gamma and zeta'(2)
  zero-pair terms mpmath.zetazero, zeta and diff
  Bessel series   scipy.special k1, y1 and j1

Integer results are exact Python ints.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import special

CHUNK = 1 << 20
# Arguments of D(.) at or below this come from one sieved table; larger ones
# take the hyperbola sum.
D_TABLE_LIMIT = 4 * 10 ** 6
SEGMENT = 1 << 22

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# sieves
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def primes_below(limit: int) -> np.ndarray:
    """Primes p < limit by the sieve of Eratosthenes."""
    flags = np.ones(max(limit, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1 if limit > 1 else 0):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


def mobius_segment(lo: int, hi: int) -> np.ndarray:
    """mu(n) for lo <= n < hi (lo >= 1), as int8.

    Small primes p <= sqrt(hi) flip the sign at multiples of p and zero the
    multiples of p^2; a squarefree n whose small prime factors do not
    multiply out to n has one more prime factor, found by comparing log n
    with the summed logs.
    """
    count = hi - lo
    mu = np.ones(count, dtype=np.int8)
    logs = np.zeros(count, dtype=np.float32)
    for p in primes_below(math.isqrt(hi - 1) + 1):
        p = int(p)
        start = (-lo) % p
        mu[start::p] *= -1
        logs[start::p] += np.float32(math.log(p))
        sq = p * p
        mu[(-lo) % sq::sq] = 0
    missing = np.log(np.arange(lo, hi, dtype=np.float64)) - logs > 0.5
    mu[missing] *= -1
    return mu


def mertens_at(points) -> dict[int, int]:
    """sum_{n <= m} mu(n) for every m in points, in one segmented pass."""
    want = sorted(set(int(m) for m in points))
    out: dict[int, int] = {}
    if not want:
        return out
    total = 0
    lo = 1
    top = want[-1]
    i = 0
    while lo <= top:
        hi = min(lo + SEGMENT, top + 1)
        mu = mobius_segment(lo, hi)
        while i < len(want) and want[i] < hi:
            out[want[i]] = total + int(mu[:want[i] - lo + 1].sum(dtype=np.int64))
            i += 1
        total += int(mu.sum(dtype=np.int64))
        lo = hi
    return out


@lru_cache(maxsize=2)
def divisor_summatory_table(limit: int) -> np.ndarray:
    """D(0..limit) as int64: every pair a*b = n counted from the smaller side."""
    d = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, math.isqrt(limit) + 1):
        d[a * a] += 1
        d[a * (a + 1)::a] += 2
    return np.cumsum(d)


def two_omega_over_n_prefix(limit: int) -> np.ndarray:
    """T(0..limit) = sum_{n <= m} 2^omega(n)/n in extended precision."""
    omega = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_below(limit + 1):
        omega[int(p)::int(p)] += 1
    n = np.arange(limit + 1, dtype=np.longdouble)
    n[0] = 1
    terms = np.ldexp(np.ones(limit + 1, dtype=np.longdouble), omega) / n
    terms[0] = 0
    return np.cumsum(terms)


def r2_counts(limit: int) -> np.ndarray:
    """r2(0..limit): ordered, signed representations n = a^2 + b^2."""
    r = math.isqrt(limit)
    a = np.arange(-r, r + 1, dtype=np.int64)
    n = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    return np.bincount(n[n <= limit], minlength=limit + 1)


def divisor_counts(limit: int) -> np.ndarray:
    """d(0..limit) as int64."""
    table = divisor_summatory_table(limit)
    return np.diff(table, prepend=0)


# ---------------------------------------------------------------------------
# summatory values
# ---------------------------------------------------------------------------

def divisor_summatory(m: int) -> int:
    """D(m) = 2 sum_{n <= sqrt m} floor(m/n) - floor(sqrt m)^2."""
    if m < 1:
        return 0
    r = math.isqrt(m)
    if m <= D_TABLE_LIMIT:
        return int(divisor_summatory_table(D_TABLE_LIMIT)[m])
    total = 0
    for lo in range(1, r + 1, CHUNK):
        n = np.arange(lo, min(lo + CHUNK, r + 1), dtype=np.int64)
        total += int((m // n).sum(dtype=np.int64))
    return 2 * total - r * r


def squarefree_summatory(m: int) -> int:
    """S_2w(m) = sum_{d <= sqrt m} mu(d) D(m // d^2)."""
    if m < 1:
        return 0
    r = math.isqrt(m)
    mu = mobius_segment(1, r + 1).astype(np.int64)
    d = np.arange(1, r + 1, dtype=np.int64)
    args = m // (d * d)
    small = args <= D_TABLE_LIMIT
    table = divisor_summatory_table(D_TABLE_LIMIT)
    total = int((mu[small] * table[args[small]]).sum(dtype=np.int64))
    for k in np.flatnonzero(~small & (mu != 0)):
        total += int(mu[k]) * divisor_summatory(int(args[k]))
    return total


def circle_count(m: int) -> int:
    """#{(a, b) != (0, 0) : a^2 + b^2 <= m} by counting one column per a."""
    if m < 1:
        return 0
    r = math.isqrt(m)
    a = np.arange(-r, r + 1, dtype=np.int64)
    rest = m - a * a
    b = np.floor(np.sqrt(rest.astype(np.float64))).astype(np.int64)
    b -= (b * b > rest)
    b += ((b + 1) * (b + 1) <= rest)
    return int((2 * b + 1).sum(dtype=np.int64)) - 1


# ---------------------------------------------------------------------------
# analytic pieces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _constants():
    gamma = mpmath.euler
    zp2 = mpmath.zeta(2, derivative=1)
    return gamma, zp2 / mpmath.zeta(2)


# target -> (zero coefficient, power shift, tail coefficient)
TARGETS = {
    "divisor_sum": (mpmath.pi ** 2 / 3, 0, mpmath.pi ** 2 / 6),
    "two_omega_sum": (mpmath.mpf(2), 0, mpmath.mpf(1)),
    "two_omega_over_n_sum": (mpmath.mpf(2), 1, mpmath.mpf(1)),
}


def main_term(target: str, x: float) -> float:
    """Smooth main term of the target sum at x (constant excluded)."""
    gamma, ratio = _constants()
    lx = mpmath.log(mpmath.mpf(x))
    lead = 6 / mpmath.pi ** 2
    if target == "divisor_sum":
        return float((lx + 2 * gamma - 1) * x)
    if target == "two_omega_sum":
        return float(lead * (lx + 2 * gamma - 1 - 2 * ratio) * x)
    return float(lead * (lx * lx / 2 + (2 * gamma - 2 * ratio) * lx))


def constant_term(target: str) -> float:
    gamma, _ = _constants()
    return float({"divisor_sum": -mpmath.pi ** 2 / 12,
                  "two_omega_sum": mpmath.mpf(-0.5),
                  "two_omega_over_n_sum": 2 * gamma - 1}[target])


@lru_cache(maxsize=4)
def _tail_coefficients(terms: int) -> tuple:
    return tuple(mpmath.zeta(-2 * n - 1) ** 2
                 / (2 * (2 * n + 1) * mpmath.zeta(-2 * (2 * n + 1), derivative=1))
                 for n in range(terms))


def trivial_tail(target: str, x: float, terms: int) -> float:
    """-c sum_{n < terms} zeta(-2n-1)^2 / (2(2n+1) zeta'(-2(2n+1))) x^(-2n-1-shift)."""
    _, shift, coeff = TARGETS[target]
    xm = mpmath.mpf(x)
    total = mpmath.fsum(c * xm ** (-(2 * n + 1 + shift))
                        for n, c in enumerate(_tail_coefficients(terms)))
    return float(-coeff * total)


@lru_cache(maxsize=1)
def pair_weights(count: int) -> tuple[tuple[float, complex], ...]:
    """(t_k, zeta(rho/2)^2 / (rho zeta'(rho))) for the first count zeros."""
    out = []
    for k in range(1, count + 1):
        rho = mpmath.zetazero(k)
        w = mpmath.zeta(rho / 2) ** 2 / (rho * mpmath.diff(mpmath.zeta, rho))
        out.append((float(rho.imag), complex(w)))
    return tuple(out)


def zero_pair_partials(target: str, x: float, count: int) -> list[float]:
    """Partial sums of 2 c Re[w_k x^(rho_k/2 - shift)] over the first count pairs."""
    coeff, shift, _ = TARGETS[target]
    xm = mpmath.mpf(x)
    out = []
    running = mpmath.mpf(0)
    for t, w in pair_weights(count):
        rho = mpmath.mpc(0.5, t)
        running += 2 * coeff * mpmath.re(mpmath.mpc(w) * xm ** (rho / 2 - shift))
        out.append(float(running))
    return out


def voronoi_full(x: float, n_terms: int) -> tuple[float, float, float]:
    """(value, last term, error budget) of the truncated Bessel series for D(x).

    The budget allows 1e-10 absolute error in each program-side kernel value,
    the accuracy its Bessel evaluators document.
    """
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    z = 4 * np.pi * np.sqrt(n * x)
    weight = divisor_counts(n_terms)[1:] / np.sqrt(n)
    terms = weight * (special.k1(z) + 0.5 * np.pi * special.y1(z))
    scale = 2 * math.sqrt(x) / math.pi
    gamma, _ = _constants()
    smooth = float(0.25 + (mpmath.log(x) + 2 * gamma - 1) * x)
    value = smooth - scale * math.fsum(terms.tolist())
    budget = scale * float(weight.sum()) * (1 + 0.5 * math.pi) * 1e-10
    return value, abs(float(terms[-1])) * scale, budget


def sierpinski(x: float, n_terms: int) -> tuple[float, float]:
    """(value, error budget) of pi x + sqrt x sum r2(n)/sqrt(n) J1(2 pi sqrt(nx))."""
    r2 = r2_counts(n_terms)[1:].astype(np.float64)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    keep = r2 > 0
    weight = r2[keep] / np.sqrt(n[keep])
    terms = weight * special.j1(2 * np.pi * np.sqrt(n[keep] * x))
    value = math.pi * x + math.sqrt(x) * math.fsum(terms.tolist())
    budget = math.sqrt(x) * float(weight.sum()) * 1e-10
    return value, budget
