"""Exact summatory functions for divisor-type arithmetic functions.

Two independent routes to every headline quantity:

* brute force -- a linear, segmented scan whose prime-exponent walk builds
  each segment's values as an array (int64, or object where int64 could
  overflow) and accumulates exact integers.  This is the oracle everything
  else is checked against.
* sublinear algorithms -- the hyperbola method for D(x), the Moebius-kernel
  form of S_2w(x) = sum mu(d) D(x/d^2), its convolution inverse, and direct
  lattice counts for the circle problem.  The first three run in int64
  numpy chunks.  The kernel and the convolution share one square split:
  sum over d <= sqrt(x) of w(d) F(x // d^2), with F from a sublinear route
  while x // d^2 > PREFIX_TABLE_LIMIT and from a prefix table of D or S_2w
  below.  The prefix tables and the kernel's mu(d) come from the brute
  walk on their first call; the hyperbola never builds them.

Every counting sum over n <= x depends only on m = floor(x).  Real inputs are
reduced to m through exact rational arithmetic (floats convert via Fraction),
and the identity floor(x/n) = floor(floor(x)/n) for integer n >= 1 keeps all
quotients in integer arithmetic.  No floating floor is taken anywhere near an
integer boundary.

Real-valued sums (harmonic, fractional-part, the 1/n-weighted auxiliary
sums) use chunked exact summation: math.fsum over fixed chunks of 2^16
terms, then an fsum of the chunk totals.  The result is independent of how
work was split across processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .arith import FnSpec, primes_up_to
from .errors import ResourceLimitError
from .zeta import EULER_GAMMA, generalized_euler_constant, zeta_constants

# Default ceiling for the linear oracle; a full scan at this size takes on
# the order of a minute.  Callers can raise it explicitly.
ORACLE_BOUND_DEFAULT = 10 ** 8

# Largest x of a scan whose walk needs object (Python int) values: sigma_a
# once 4 x^a >= 2^62, d_k for k > 21.  A cold scan at the cap takes ~3.5 s
# for sigma_3 and ~9 s for sigma_40 on 2 CPUs.
POINTWISE_MAX = 3 * 10 ** 6

# Largest x each sublinear route takes; larger x is refused before any loop
# or table.  Cold single calls on 2 CPUs: hyperbola ~3 s at 2e17, Moebius
# kernel ~4.8 s at 1e15 (~2 s of it walking mu to 3.2e7), convolution
# ~5.1 s at 5e13.  HYPERBOLA_MAX also bounds the int64 chunk sums: a chunk
# of KERNEL_CHUNK quotients m // n sums to at most m (1 + ln KERNEL_CHUNK)
# ~ 2.1e18 < 2^63.
HYPERBOLA_MAX = 2 * 10 ** 17
MOEBIUS_KERNEL_MAX = 10 ** 15
CONVOLUTION_MAX = 5 * 10 ** 13

# Top of the D and S_2w prefix tables, int32 (D(2^16) is 736974).
PREFIX_TABLE_LIMIT = 1 << 16

# Length of the int64 chunks of the sublinear routes, and the shortest walk
# of the mu and prefix tables (one 2^16-long walk peaks ~1.4 MiB higher).
KERNEL_CHUNK = 1 << 14

# Segment length for the streaming scans.  2^21 int64 entries is 16 MiB per
# working array, small enough to stay cache-friendly with several workers.
SEGMENT_SIZE = 1 << 21

# Segment length of the scans whose values are Python ints (object dtype).
OBJECT_SEGMENT_SIZE = 1 << 18

# Chunk length of exact float accumulation: one fsum per chunk of this
# many terms counted from the first, then one fsum of the chunk sums.
SUM_CHUNK = 1 << 16

# Largest x circle_lattice_sum counts; its pure-Python column loop takes
# ~3 s at the cap on 2 CPUs and grows like sqrt(x).
CIRCLE_MAX = 10 ** 14

ALGORITHMS = ("brute", "hyperbola", "moebius_kernel", "convolution_kernel")


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummatoryResult:
    """One evaluated summatory value.

    value is an exact int for counting sums.
    """

    x: float
    fn: str
    value: int | float
    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag {self.algorithm!r}")


@dataclass(frozen=True)
class APSpec:
    """Arithmetic progression n = a (mod q) with gcd(a, q) = 1."""

    q: int
    a: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("APSpec requires q >= 2")
        if not 1 <= self.a < self.q:
            raise ValueError("APSpec requires 1 <= a < q")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("APSpec requires gcd(a, q) = 1")


# ---------------------------------------------------------------------------
# x handling
# ---------------------------------------------------------------------------

def floor_to_int(x) -> int:
    """Exact floor of x for int, Fraction, or float input.

    Floats are converted through Fraction first, so the floor is taken on
    the exact binary value the caller supplied rather than on a rounded
    quotient.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        f = Fraction(x)
        return f.numerator // f.denominator
    raise TypeError(f"unsupported x type {type(x).__name__}")


def _bounded_floor(x, limit: int, what: str) -> int:
    """floor(x), refused past limit (what names it) before any work."""
    m = floor_to_int(x)
    if m < 1:
        raise ValueError("x must be >= 1")
    if m > limit:
        raise ResourceLimitError(f"x={m} exceeds the {what} {limit}")
    return m


def _as_spec(f) -> FnSpec:
    if isinstance(f, FnSpec):
        return f
    if isinstance(f, str):
        return FnSpec.parse(f)
    raise TypeError("f must be an FnSpec or a label string")


# ---------------------------------------------------------------------------
# segmented brute-force engine
#
# For each segment [lo, hi) one walk visits every prime p <= sqrt(hi) and
# finds the exponent e of p in each of its multiples without dividing: e
# starts at 1 on the multiples of p and gains 1 on the multiples of p^2,
# p^3, ..., each a strided slice.  The walk folds rule(p, e) into the value
# array (multiplied in for multiplicative functions, added for omega and
# Omega) and multiplies p^e into ext, the part of n it has extracted.  After
# the walk n // ext is 1 or a prime above sqrt(hi), one division per entry;
# the same rule folds that prime in with e = 1.  A function is one row of
# _RULES (d_k and sigma build theirs from their parameter in _rule): a start
# value, the fold, and the local factor at a prime power.  Rules take p as
# an int inside the walk; the leftover fold passes the whole array of
# quotients with e = 1.  The values are int64 unless they could overflow
# at the segment's top (_numpy_walk_ok); then they are exact Python ints in
# an object array.  d_restricted is not multiplicative and has a count of
# its own (_restricted_segment_counts).
# ---------------------------------------------------------------------------

def _r2_factor(p, e):
    """Local factor of r2: 1 at p = 2, e+1 at p = 1 mod 4, [e even] at 3 mod 4."""
    if np.ndim(p) == 0:
        # one prime of the walk; a vectorised where costs ~30% more here
        if p == 2:
            return 1
        return e + 1 if p % 4 == 1 else e % 2 == 0
    # the leftover fold: an array of residuals, all with e = 1
    return np.array([1, e + 1, 1, e % 2 == 0])[p & 3]


def _sigma_factor(a: int, p, e):
    """Local factor of sigma_a: 1 + p^a + ... + p^(a e)."""
    if a == 0:
        return e + 1
    pa = p ** a
    g = pw = 1
    for j in range(1, int(np.max(e)) + 1):
        pw = pw * pa
        g = g + pw * (e >= j)
    return g


# tag -> (start value, fold, local factor at p^e); the three auxiliary
# integer sums have rows of their own
_RULES = {
    "d": (1, np.multiply, lambda p, e: e + 1),
    "mu": (1, np.multiply, lambda p, e: -1 * (e == 1)),
    "mu_squared": (1, np.multiply, lambda p, e: e == 1),
    "omega": (0, np.add, lambda p, e: 1),
    "big_omega": (0, np.add, lambda p, e: e),
    "two_omega": (1, np.multiply, lambda p, e: 2),
    "two_big_omega": (1, np.multiply, lambda p, e: 1 << e),
    "r2": (4, np.multiply, _r2_factor),
    "d_of_square": (1, np.multiply, lambda p, e: 2 * e + 1),
    "d_squared": (1, np.multiply, lambda p, e: (e + 1) ** 2),
    "d_on_squarefree": (1, np.multiply, lambda p, e: 2 * (e == 1)),
}


def _rule(f, dtype=np.int64):
    """The _RULES row for an FnSpec or an auxiliary rule name, in dtype."""
    if isinstance(f, str):
        return _RULES[f]
    if f.tag == "d_k":
        comb = np.array([math.comb(e + f.k - 1, f.k - 1) for e in range(64)],
                        dtype=dtype)
        return 1, np.multiply, lambda p, e: comb[e]
    if f.tag == "sigma":
        factor = partial(_sigma_factor, f.a)
        if dtype is object:
            def exact(p, e):
                # the leftover fold passes an object array of primes; at one
                # prime of the walk the factors for e = 0..max(e) form a
                # table indexed by e, like d_k's binomials
                if np.ndim(p):
                    return factor(p, e)
                return factor(np.array([p], dtype=object), np.arange(e.max() + 1))[e]
            return 1, np.multiply, exact
        return 1, np.multiply, factor
    return _RULES[f.tag]


def _walk_segment_values(f, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Values of f(n) for n in [lo, hi) via the prime-exponent walk.

    lo must be at least 1: at n = 0 every p^k divides n, so the exponent
    loop would never end.
    """
    if lo < 1:
        raise ValueError(f"the walk starts at n >= 1 (got lo={lo})")
    dtype = np.int64 if _numpy_walk_ok(f, hi - 1) else object
    start_value, fold, factor = _rule(f, dtype)
    size = hi - lo
    ext = np.ones(size, dtype=np.int64)
    out = np.full(size, start_value, dtype=dtype)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = (-lo) % p
        if start >= size:
            continue
        e = np.ones((size - 1 - start) // p + 1, dtype=np.int64)
        seg = ext[start::p]
        seg *= p
        step = p
        while True:
            # the multiples of p^k sit at every p^(k-1)-th entry of e
            pk = step * p
            s = (-lo) % pk
            if s >= size:
                break
            e[(s - start) // p::step] += 1
            seg = ext[s::pk]
            seg *= p
            step = pk
        seg = out[start::p]
        fold(seg, factor(p, e), out=seg)
    # what the primes below sqrt(hi) leave of n is 1 or one prime above it;
    # its factor goes in as identity + (factor - identity) * [rem > 1], as
    # a where= mask makes the fold several times slower
    rem = np.floor_divide(np.arange(lo, hi, dtype=np.int64), ext,
                          out=ext).astype(dtype, copy=False)
    unit = fold.identity
    lead = np.multiply(rem > 1, factor(rem, 1) - unit, out=rem)
    lead += unit
    fold(out, lead, out=out)
    return out


def _restricted_segment_counts(q: int, a: int, lo: int, hi: int) -> np.ndarray:
    """Number of divisors d = a (mod q) of each n in [lo, hi).

    A divisor d <= sqrt(n) is counted on the multiples of d from d^2 on.  A
    divisor above sqrt(n) is n/k for a k with k^2 < n, and n/k = a (mod q)
    exactly when n = k a (mod k q).
    """
    cnt = np.zeros(hi - lo, dtype=np.int64)
    r = math.isqrt(hi - 1)
    for d in range(a, r + 1, q):
        first = max(lo, d * d)
        view = cnt[first + (-first) % d - lo::d]
        view += 1
    for k in range(1, r + 1):
        first = max(lo, k * k + 1)
        view = cnt[first + (k * a - first) % (k * q) - lo::k * q]
        view += 1
    return cnt


def _segment_values(f, lo: int, hi: int) -> np.ndarray:
    """Values of f(n) for n in [lo, hi): d_restricted by its own count."""
    if isinstance(f, FnSpec) and f.tag == "d_restricted":
        return _restricted_segment_counts(f.q, f.a, lo, hi)
    return _walk_segment_values(f, lo, hi, _worker_primes(hi))


def _exact_array_sum(arr: np.ndarray, bound: int) -> int:
    """Sum an int64 array exactly, chunking so no partial can overflow.

    bound is at least max |arr|; callers measure it once per array they
    split, not once per piece, which costs more than the sums themselves.
    An object array of Python ints sums exactly in one piece.
    """
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(arr.sum())
    chunk = max(1, (1 << 62) // max(1, bound))
    if chunk >= arr.size:
        return int(arr.sum(dtype=np.int64))
    total = 0
    for i in range(0, arr.size, chunk):
        total += int(arr[i:i + chunk].sum(dtype=np.int64))
    return total


def _numpy_walk_ok(f, m: int) -> bool:
    # every intermediate the rules form must stay below 2^62
    if isinstance(f, str):
        return True
    if f.tag == "sigma":
        return (m ** f.a) * 4 < (1 << 62)
    if f.tag == "d_k":
        # the binomials C(e + k - 1, k - 1), e < 64, of _rule fit int64
        return f.k <= 21
    return True


def _segment_task(args):
    """Worker body: f (or f(n)/n) summed over [lo, hi), to each checkpoint.

    Returns (the sums from lo to each checkpoint, the segment's sum).
    Integer sums are exact.  A scan to n alone takes the float sum to n as
    fsum of the fsums of the SUM_CHUNK chunks before n's chunk, counted
    from the segment start, and of n's chunk up to n.  The chunk fsums are
    added here as exact Fractions, so each checkpoint rounds once, to that
    same float, whatever other checkpoints the scan has.
    """
    f, lo, hi, marks, weighted = args
    vals = _segment_values(f, lo, hi)
    if weighted:
        w = vals / np.arange(lo, hi, dtype=np.float64)
        before = list(accumulate(
            (Fraction(math.fsum(w[i:i + SUM_CHUNK]))
             for i in range(0, w.size, SUM_CHUNK)), initial=0))
        at = []
        for m in marks:
            j = (m - lo) // SUM_CHUNK
            partial = math.fsum(w[j * SUM_CHUNK:m + 1 - lo])
            at.append(before[j] + Fraction(partial))
        return at, before[-1]
    bound = int(np.abs(vals).max())
    cuts = [lo, *(m + 1 for m in marks), hi]
    sums = list(accumulate(_exact_array_sum(vals[a - lo:b - lo], bound)
                           for a, b in zip(cuts, cuts[1:])))
    return sums[:-1], sums[-1]


@lru_cache(maxsize=4)
def _worker_primes(hi: int) -> np.ndarray:
    return np.asarray(primes_up_to(math.isqrt(hi) + 1), dtype=np.int64)


def _brute_scan(f, checkpoints: list[int], bound: int, workers: int = 1,
                weighted: bool = False) -> dict[int, int | float]:
    """Prefix sums of f at each checkpoint, in one streaming pass.

    f is an FnSpec or the name of an auxiliary rule in _RULES.  The sums
    are exact ints, or with weighted the chunked float sums of f(n)/n (an
    auxiliary rule only).  The pool never has more workers than segments
    or CPUs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    marks = sorted(set(int(c) for c in checkpoints))
    if not marks:
        return {}
    m = marks[-1]
    if m > bound:
        raise ResourceLimitError(
            f"x={m} exceeds the oracle bound {bound}")
    size = SEGMENT_SIZE
    if not _numpy_walk_ok(f, m):
        if m > POINTWISE_MAX:
            raise ResourceLimitError(
                f"{f.label()} outgrows int64, and its exact scans stop at "
                f"{POINTWISE_MAX}; x={m} is past that")
        # the walk holds several object arrays of ~50-byte ints at once
        size = OBJECT_SEGMENT_SIZE

    tasks = []
    lo = 1
    while lo <= m:
        hi = min(lo + size, m + 1)
        inside = [c for c in marks if lo <= c < hi]
        tasks.append((f, lo, hi, inside, weighted))
        lo = hi

    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_segment_task, tasks, chunksize=1))
    else:
        results = [_segment_task(t) for t in tasks]

    value = float if weighted else int
    out = dict.fromkeys(marks, 0)
    before = 0
    for task, (at_marks, total) in zip(tasks, results):
        for c, at in zip(task[3], at_marks):
            out[c] = value(before + at)
        before += total
    return out


def brute_force_sum(f, x, *, bound: int = ORACLE_BOUND_DEFAULT,
                    workers: int = 1) -> SummatoryResult:
    """Oracle: sum f(n) for n <= floor(x) by a linear segmented scan."""
    spec = _as_spec(f)
    m = floor_to_int(x)
    if m < 1:
        raise ValueError("x must be >= 1")
    total = _brute_scan(spec, [m], bound, workers)[m]
    return SummatoryResult(x=float(x), fn=spec.label(), value=total,
                           algorithm="brute")


def brute_force_profile(f, xs, *, bound: int = ORACLE_BOUND_DEFAULT,
                        workers: int = 1) -> list[SummatoryResult]:
    """Prefix sums of f at several x values, sharing one streaming pass."""
    spec = _as_spec(f)
    ms = [floor_to_int(x) for x in xs]
    if any(m < 1 for m in ms):
        raise ValueError("all x must be >= 1")
    table = _brute_scan(spec, ms, bound, workers)
    return [SummatoryResult(x=float(x), fn=spec.label(), value=table[m],
                            algorithm="brute")
            for x, m in zip(xs, ms)]


# ---------------------------------------------------------------------------
# sublinear exact algorithms
# ---------------------------------------------------------------------------

def _divisor_sum_int(m: int) -> int:
    """D(m) by the hyperbola method: 2*sum_{n<=sqrt(m)} floor(m/n) - floor(sqrt m)^2.

    Each int64 chunk of quotients is summed in numpy (exact for m <=
    HYPERBOLA_MAX) and added into a Python int.
    """
    r = math.isqrt(m)
    s = 0
    for lo in range(1, r + 1, KERNEL_CHUNK):
        n = np.arange(lo, min(lo + KERNEL_CHUNK, r + 1), dtype=np.int64)
        s += int(np.floor_divide(m, n, out=n).sum())
    return 2 * s - r * r


def divisor_sum_hyperbola(x) -> SummatoryResult:
    """Exact D(x) in O(sqrt x) integer operations, for x <= HYPERBOLA_MAX."""
    m = _bounded_floor(x, HYPERBOLA_MAX, "hyperbola limit")
    return SummatoryResult(x=float(x), fn="d", value=_divisor_sum_int(m),
                           algorithm="hyperbola")


def floor_sum(x) -> int:
    """sum_{d <= floor(x)} floor(x/d), grouped by equal quotient blocks.

    floor(x/d) = floor(floor(x)/d) for every integer d >= 1, so the whole
    sum depends only on floor(x); for integer x this equals D(x).
    """
    m = floor_to_int(x)
    if m < 1:
        raise ValueError("x must be >= 1")
    total = 0
    d = 1
    while d <= m:
        q = m // d
        d2 = m // q
        total += q * (d2 - d + 1)
        d = d2 + 1
    return total


def _walk_chunks(f, lo: int, hi: int, shortest: int):
    """(a, f(a..b-1)) for the chunks [a, b) that tile [lo, hi), in order.

    Each chunk but the last is max(shortest, ceil(hi / 64)) long: at most
    64 walks, since each walk loops over the primes up to sqrt(b).
    """
    size = max(shortest, -(-hi // 64))
    for a in range(lo, hi, size):
        yield a, _segment_values(f, a, min(a + size, hi))


def _walk_into(out: np.ndarray, f, lo: int, shortest: int) -> None:
    """out[n] = f(n) for lo <= n < out.size, walked by _walk_chunks."""
    for a, values in _walk_chunks(f, lo, out.size, shortest):
        out[a:a + values.size] = values


_MU_TABLE = np.zeros(1, dtype=np.int8)


def _mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..n) as int8 for some n >= limit, from one table that only grows.

    A growth at least doubles the table and walks only its new entries,
    in the chunks of _walk_chunks (at least KERNEL_CHUNK entries each); the
    entries already there are copied.  Walking mu to 3.2e7 (the kernel at
    1e15) takes ~2 s on 2 CPUs.
    """
    global _MU_TABLE
    old = _MU_TABLE.size
    if old <= limit:
        n = max(limit, 2 * old)
        mu = np.empty(n + 1, dtype=np.int8)
        mu[:old] = _MU_TABLE
        _walk_into(mu, "mu", old, KERNEL_CHUNK)
        _MU_TABLE = mu
    return _MU_TABLE


@lru_cache(maxsize=1)
def _prefix_tables() -> tuple[np.ndarray, np.ndarray]:
    """D(0..L) and S_2w(0..L) as read-only int32 prefix sums.

    Each is the cumsum of the walk's d or two_omega values over 1..L,
    walked in KERNEL_CHUNK pieces, behind a 0 at n = 0.
    """
    tables = []
    for tag in ("d", "two_omega"):
        table = np.zeros(PREFIX_TABLE_LIMIT + 1, dtype=np.int32)
        _walk_into(table, tag, 1, KERNEL_CHUNK)
        np.cumsum(table, out=table)
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _table_gather(table: np.ndarray, m: int, lo: int, hi: int,
                  mu: np.ndarray | None = None) -> int:
    """sum_{lo <= d <= hi} table[m // d^2], times mu(d) if mu is given.

    Every m // d^2 must be at most PREFIX_TABLE_LIMIT.
    """
    total = 0
    for a in range(lo, hi + 1, KERNEL_CHUNK):
        d = np.arange(a, min(a + KERNEL_CHUNK, hi + 1), dtype=np.int64)
        np.multiply(d, d, out=d)
        vals = table[np.floor_divide(m, d, out=d)]
        if mu is not None:
            vals *= mu[a:a + vals.size]
        total += int(vals.sum(dtype=np.int64))
    return total


def _square_split(m: int, inner, table: np.ndarray,
                  mu: np.ndarray | None = None) -> int:
    """sum_{d <= sqrt(m)} w(d) F(m // d^2), with w = mu (1 without mu).

    F is inner while m // d^2 exceeds L, that is for d <= t = isqrt(m //
    (L+1)), and the prefix table above t.
    """
    t = math.isqrt(m // (PREFIX_TABLE_LIMIT + 1))
    total = 0
    for d in range(1, t + 1):
        w = 1 if mu is None else int(mu[d])
        if w:
            total += w * inner(m // (d * d))
    return total + _table_gather(table, m, t + 1, math.isqrt(m), mu)


def _squarefree_divisor_sum_int(m: int) -> int:
    """S_2w(m) = sum_{d <= sqrt(m)} mu(d) * D(m // d^2), D by the hyperbola."""
    mu = _mobius_sieve(max(math.isqrt(m), 16))
    return _square_split(m, _divisor_sum_int, _prefix_tables()[0], mu)


def squarefree_divisor_sum(x) -> SummatoryResult:
    """Exact S_2w(x) = sum_{n<=x} 2^omega(n) via the Moebius kernel.

    x is at most MOEBIUS_KERNEL_MAX.
    """
    m = _bounded_floor(x, MOEBIUS_KERNEL_MAX, "Moebius kernel limit")
    return SummatoryResult(x=float(x), fn="two_omega",
                           value=_squarefree_divisor_sum_int(m),
                           algorithm="moebius_kernel")


def divisor_sum_from_squarefree(x) -> SummatoryResult:
    """Exact D(x) rebuilt from the squarefree kernel: sum_d S_2w(x // d^2).

    Coefficient-level counterpart of d(n) = sum_{d^2 | n} 2^omega(n/d^2);
    cross-checks the kernel pipeline against the hyperbola value.  x is at
    most CONVOLUTION_MAX.
    """
    m = _bounded_floor(x, CONVOLUTION_MAX, "convolution limit")
    total = _square_split(m, _squarefree_divisor_sum_int, _prefix_tables()[1])
    return SummatoryResult(x=float(x), fn="d", value=total,
                           algorithm="convolution_kernel")


# ---------------------------------------------------------------------------
# harmonic, fractional, circle and AP sums
# ---------------------------------------------------------------------------

def _progression(m: int, ap: APSpec | None):
    """The n <= m with n = a (mod q) (every n without ap), SUM_CHUNK a time, as int64."""
    a, q = (1, 1) if ap is None else (ap.a, ap.q)
    for lo in range(a, m + 1, q * SUM_CHUNK):
        yield np.arange(lo, min(lo + q * SUM_CHUNK, m + 1), q, dtype=np.int64)


def _quotient_sum(m: int, ap: APSpec | None) -> int:
    """sum floor(m/n) over the progression's n <= m, exactly."""
    return sum(int((m // n).sum()) for n in _progression(m, ap))


def harmonic_sum(x, ap: APSpec | None = None, *,
                 bound: int = ORACLE_BOUND_DEFAULT) -> float:
    """sum 1/n over n <= x, optionally restricted to n = a (mod q).

    A linear pass, so x is refused past bound.
    """
    m = _bounded_floor(x, bound, "oracle bound")
    return math.fsum(math.fsum((1.0 / n).tolist()) for n in _progression(m, ap))


def harmonic_main_term(x, ap: APSpec | None = None) -> float:
    """Asymptotic predictor log x + gamma, or (log x)/q + gamma(a, q)."""
    lx = math.log(x)
    if ap is None:
        return lx + EULER_GAMMA
    return lx / ap.q + generalized_euler_constant(ap.a, ap.q)


def fractional_part_sum(x, ap: APSpec | None = None, *,
                        bound: int = ORACLE_BOUND_DEFAULT) -> float:
    """sum {x/n} over n <= x (optionally n = a mod q), via {y} = y - floor(y).

    The floor part is exact integer arithmetic, floor(x/n) = floor(m/n) for
    m = floor(x); only the x/n terms are floating point, accumulated with
    chunked exact summation.  A linear pass, so x is refused past bound.
    """
    m = _bounded_floor(x, bound, "oracle bound")
    xf = float(x)
    frac = math.fsum(math.fsum((xf / n).tolist()) for n in _progression(m, ap))
    return frac - _quotient_sum(m, ap)


def fractional_main_term(x, ap: APSpec | None = None) -> float:
    """Asymptotic predictor (1 - gamma) x, or (1 - gamma) x / q on a progression."""
    scale = 1 if ap is None else ap.q
    return (1.0 - EULER_GAMMA) * float(x) / scale


def circle_lattice_sum(x) -> int:
    """Number of integer lattice points with 0 < a^2 + b^2 <= x.

    Column counting: for each a the b-range has 2*isqrt(x - a^2) + 1 points,
    summed over |a| <= sqrt(x), minus the origin.  x past CIRCLE_MAX is
    refused before the loop.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    m = floor_to_int(x)
    if m < 1:
        return 0
    if m > CIRCLE_MAX:
        raise ResourceLimitError(f"x={m} exceeds the circle limit {CIRCLE_MAX}")
    r = math.isqrt(m)
    total = 2 * r + 1
    for a in range(1, r + 1):
        total += 2 * (2 * math.isqrt(m - a * a) + 1)
    return total - 1


def ap_divisor_sum(x, ap: APSpec, *,
                   bound: int = ORACLE_BOUND_DEFAULT) -> SummatoryResult:
    """sum_{n<=x} d(n, q, a) by counting pairs: each d = a (mod q) contributes floor(x/d)."""
    if not isinstance(ap, APSpec):
        raise TypeError("ap must be an APSpec")
    m = _bounded_floor(x, bound, "oracle bound")
    return SummatoryResult(x=float(x), fn=f"d_restricted_{ap.q}_{ap.a}",
                           value=_quotient_sum(m, ap), algorithm="brute")


def ap_main_term(x, ap: APSpec) -> float:
    """Predictor (x log x)/q + (gamma(a,q) - (1-gamma)/q) x for the AP divisor sum."""
    xf = float(x)
    g_aq = generalized_euler_constant(ap.a, ap.q)
    return xf * math.log(xf) / ap.q + (g_aq - (1.0 - EULER_GAMMA) / ap.q) * xf


# ---------------------------------------------------------------------------
# auxiliary sums and their companion predictors
# ---------------------------------------------------------------------------

AUX_KINDS = ("d_over_n", "two_omega_over_n", "two_big_omega",
             "two_big_omega_over_n", "d_on_squarefree", "d_of_square",
             "d_squared")

# kind -> (walk rule, weighted by 1/n)
_AUX_WALKS = {
    "d_over_n": ("d", True),
    "two_omega_over_n": ("two_omega", True),
    "two_big_omega": ("two_big_omega", False),
    "two_big_omega_over_n": ("two_big_omega", True),
    "d_on_squarefree": ("d_on_squarefree", False),
    "d_of_square": ("d_of_square", False),
    "d_squared": ("d_squared", False),
}


def auxiliary_profile(kind: str, xs, *,
                      bound: int = ORACLE_BOUND_DEFAULT) -> list[int | float]:
    """The named companion sum (see AUX_KINDS) at several x, in one pass.

    Integer-valued kinds give exact ints; the /n kinds give floats
    accumulated with chunked exact summation, the same float at each x as
    a scan to that x alone.
    """
    if kind not in AUX_KINDS:
        raise ValueError(f"unknown auxiliary sum kind {kind!r}")
    ms = [floor_to_int(x) for x in xs]
    if any(m < 1 for m in ms):
        raise ValueError("x must be >= 1")
    rule, weighted = _AUX_WALKS[kind]
    table = _brute_scan(rule, ms, bound, weighted=weighted)
    return [table[m] for m in ms]


def auxiliary_sums(kind: str, x, *,
                   bound: int = ORACLE_BOUND_DEFAULT) -> int | float:
    """Exact evaluation of the named companion sum at one x (see AUX_KINDS)."""
    return auxiliary_profile(kind, [x], bound=bound)[0]


@lru_cache(maxsize=1)
def _two_big_omega_constant() -> float:
    """a0 = (8 log 2)^{-1} prod_{p>2} (1 + 1/(p(p-2))), primes to 1e6.

    The tail beyond 1e6 contributes less than 1e-12 relative error.
    """
    acc = 0.0
    for p in primes_up_to(10 ** 6):
        if p == 2:
            continue
        acc += math.log1p(1.0 / (p * (p - 2)))
    return math.exp(acc) / (8.0 * math.log(2.0))


@lru_cache(maxsize=1)
def _squarefree_d_constant() -> float:
    """prod_p (1 - 3/p^2 + 2/p^3): leading constant of sum mu^2(n) d(n)."""
    acc = 0.0
    for p in primes_up_to(10 ** 6):
        acc += math.log(1.0 - 3.0 / p ** 2 + 2.0 / p ** 3)
    return math.exp(acc)


def auxiliary_main_term(kind: str, x, *, form: str = "consistent") -> float:
    """Asymptotic predictors paired with auxiliary_sums.

    form="consistent" follows from partial summation of the order-x laws
    and is what the data tracks.  form="printed" reproduces published
    displayed forms that differ for two of the kinds (two_big_omega_over_n
    and d_on_squarefree); they are kept for comparison runs and are not
    asserted anywhere.
    """
    if form not in ("consistent", "printed"):
        raise ValueError("form must be 'consistent' or 'printed'")
    xf = float(x)
    lx = math.log(xf)
    g = EULER_GAMMA
    zp2, z2 = zeta_constants().zeta_prime_2, zeta_constants().zeta2
    if kind == "d_over_n":
        return 0.5 * lx ** 2 + (2 * g - 1) * lx
    if kind == "two_omega_over_n":
        if form == "printed":
            # displayed log coefficient uses zeta(2)^2 in the denominator
            return (6 / math.pi ** 2) * (0.5 * lx ** 2
                                         + (2 * g - 2 * zp2 / z2 ** 2) * lx) + 2 * g - 1
        return two_omega_over_n_main_term(xf) + TWO_OMEGA_OVER_N_CONSTANT
    if kind == "two_big_omega":
        return _two_big_omega_constant() * xf * lx ** 2
    if kind == "two_big_omega_over_n":
        a0 = _two_big_omega_constant()
        if form == "printed":
            return a0 * lx ** 2
        return a0 * lx ** 3 / 3.0
    if kind == "d_on_squarefree":
        if form == "printed":
            return -2 * zp2 / z2 ** 2 * xf
        return _squarefree_d_constant() * xf * lx
    if kind == "d_of_square":
        # leading coefficient only: x log^2 x / (2 zeta(2))
        return xf * lx ** 2 / (2 * z2)
    if kind == "d_squared":
        # leading coefficient only: x log^3 x / (6 zeta(2))
        return xf * lx ** 3 / (6 * z2)
    raise ValueError(f"unknown auxiliary sum kind {kind!r}")


# ---------------------------------------------------------------------------
# main terms of D, S_2w and T: the one definition explicit and bessel call
# ---------------------------------------------------------------------------

def divisor_main_term(x) -> float:
    """(log x + 2 gamma - 1) x, the smooth part of D(x)."""
    xf = float(x)
    return (math.log(xf) + 2.0 * EULER_GAMMA - 1.0) * xf


def squarefree_main_term(x) -> float:
    """(6/pi^2)(log x + 2 gamma - 1 - 2 zeta'(2)/zeta(2)) x, smooth part of S_2w."""
    xf = float(x)
    zp2 = zeta_constants().zeta_prime_2
    return 6.0 / math.pi ** 2 * (math.log(xf) + 2.0 * EULER_GAMMA - 1.0
                                 - 12.0 * zp2 / math.pi ** 2) * xf


def two_omega_over_n_main_term(x) -> float:
    """(6/pi^2)((log x)^2/2 + (2 gamma - 2 zeta'(2)/zeta(2)) log x), T(x) less its constant."""
    lx = math.log(float(x))
    zp2 = zeta_constants().zeta_prime_2
    return 6.0 / math.pi ** 2 * (lx * lx / 2.0
                                 + (2.0 * EULER_GAMMA - 12.0 * zp2 / math.pi ** 2) * lx)


TWO_OMEGA_OVER_N_CONSTANT = 2.0 * EULER_GAMMA - 1.0
