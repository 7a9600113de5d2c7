"""Exact summatory functions for divisor-type arithmetic functions.

Two independent routes to every headline quantity:

* brute force -- a linear scan whose prime-exponent walk builds the values
  of one 2^18-long block at a time as an array (int32 below 2^31, int64
  above, or object where int64 could overflow) and sums it into exact
  integers before the next.  This is the oracle everything else is
  checked against.
* sublinear algorithms -- one hyperbola kernel (_hyperbola_counts) whose
  rows are D(x), the AP divisor sum and the circle problem's lattice
  count, the Moebius-kernel form of S_2w(x) = sum mu(d) D(x/d^2) and its
  convolution inverse, all in exact numpy chunks (float64 where that is
  exact, int64 above).  The kernel takes a batch of x in one pass, so a
  grid, and every square split, hands it all its D values at once.  The
  kernel and the convolution share one square split:
  sum over d <= sqrt(x) of w(d) F(x // d^2), with F from a sublinear route
  while x // d^2 > PREFIX_TABLE_LIMIT and from a prefix table of D or S_2w
  below.  The prefix tables and the kernel's mu(d) come from the brute
  walk on their first call; the hyperbola never builds them.

Every counting sum over n <= x depends only on m = floor(x), the exact
floor of the int, Fraction or float given, and floor(x/n) = floor(m/n) for
integer n >= 1.  The float64 floor of m / n is floor(m/n) while m < 2^53:
if n divides m the quotient is an integer below 2^53, so representable;
otherwise floor(m/n) + 1 - m/n >= 1/n, which exceeds half an ulp of m/n
(at most m 2^-53 / n), so the rounded quotient never reaches the next
integer.  The same holds for a negative numerator.  The hyperbola divides
and sums in float64 while m <= FLOAT_SUM_MAX, where its chunk sums are
exact integers as well, and in int64 above (its tiles and their bounds are
in _hyperbola_counts); the prefix-table gathers, whose m is at most
MOEBIUS_KERNEL_MAX < 2^53, always divide in float64.

Real-valued sums (harmonic, fractional-part, T(x) = sum 2^w(n)/n) are
chunked: the correctly rounded sum of each chunk of 2^16 terms, then the
correctly rounded sum of the chunk sums.  math.fsum's result is
the correctly rounded exact sum, so any correctly rounded sum gives its
bits; _rounded_sums adds each chunk's 53-bit mantissas exactly per binary
exponent and rounds once.  The chunks are counted from the first term, so
no result depends on the length of the walks that supply the terms, and
T at a point is the same float whatever other points share its walk.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, groupby

import numpy as np

from .arith import APSpec, FnSpec, primes_up_to
from .errors import ResourceLimitError
from .zeta import (_CONSTANTS, EULER_GAMMA, ZETA_PRIME_2,
                   generalized_euler_constant)

# Default ceiling for the linear oracle; a cold d scan at this size takes
# ~2.4 s in one process and ~1.4 s with two walkers on 2 CPUs.  Callers can
# raise it.
ORACLE_BOUND_DEFAULT = 10 ** 8

# Largest x of a scan whose walk needs object (Python int) values: sigma_a
# once 4 x^a >= 2^62, d_k for k > 21.  A cold scan at the cap takes ~1.2 s
# for sigma_3 and ~3.3 s for sigma_40 with two walkers on 2 CPUs (~1.9 and
# ~5.5 s in one process).
POINTWISE_MAX = 3 * 10 ** 6

# Largest x each sublinear route takes; larger x is refused before any loop
# or table.  Cold single calls on 2 CPUs: hyperbola ~3 s at 2e17 for D,
# Moebius kernel ~2.6 s at 1e15 (~0.9 s of it walking mu to 3.2e7),
# convolution ~3.4 s at 5e13.  HYPERBOLA_MAX also keeps the hyperbola's
# int64 chunk sums below 2^63 (_hyperbola_counts).
HYPERBOLA_MAX = 2 * 10 ** 17
MOEBIUS_KERNEL_MAX = 10 ** 15
CONVOLUTION_MAX = 5 * 10 ** 13

# The hyperbola chunks divide and sum in float64 while m <= FLOAT_SUM_MAX,
# in int64 above: their quotients and their sums, below 11 m, are exact
# integers in float64 there (_hyperbola_counts).
FLOAT_SUM_MAX = (1 << 53) // 11

# Top of the D and S_2w prefix tables, int32 (D(2^16) is 736974).
PREFIX_TABLE_LIMIT = 1 << 16

# Length of the int64 chunks of the sublinear routes, and the shortest walk
# of the mu and prefix tables (one 2^16-long walk peaks ~1.4 MiB higher).
KERNEL_CHUNK = 1 << 14
_COLUMNS = {t: np.arange(1, KERNEL_CHUNK + 1, dtype=t) for t in (np.float64, np.int64)}

# Block length of the walk: one claim of a walker, the longest walk of the
# mu table and the chunk of `sieve` rows.  A 2^18 block is 1 MiB per int32
# array, and its primes above isqrt(2^18) = 512 fold in one array pass
# (_fold_large_primes).  In process on 2 CPUs, per 2^21 values walked as
# blocks of 2^16, 2^17, 2^18, 2^19 and 2^20, d took 74, 60, 57, 60 and
# 76 ms at 1e8 and mu 79, 64, 61, 63 and 78 ms, against 80 and 103 ms for
# one 2^21 walk with no fold (medians of 11).  T = isqrt(block length) is
# the least bound that leaves every folded prime with p^2 above the block
# length; 2 T and 4 T timed the same.  Object (Python int) walks use the
# same length.
SEGMENT_SIZE = 1 << 18

# Chunk length of exact float accumulation: one correctly rounded sum per
# chunk of this many terms counted from the first, then one of the chunk sums.
SUM_CHUNK = 1 << 16

# sublinear algorithm -> (the fn tag it computes, its route of x).  A route
# names its function at call time, as explicit._TARGET_SPECS does, so a
# rebound module attribute (a tracing wrapper, say) is the one that runs.
ROUTES = {
    "hyperbola": ("d", lambda x: divisor_sum_hyperbola(x)),
    "moebius_kernel": ("two_omega", lambda x: squarefree_divisor_sum(x)),
    "convolution_kernel": ("d", lambda x: divisor_sum_from_squarefree(x)),
}
ALGORITHMS = ("brute", *ROUTES)


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


# ---------------------------------------------------------------------------
# x handling
# ---------------------------------------------------------------------------

def floor_to_int(x) -> int:
    """Exact floor of x for int, Fraction, or float input.

    math.floor of a finite float is exact: it floors the binary value the
    caller supplied.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        return math.floor(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
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
# For each block [lo, hi) of at most SEGMENT_SIZE values one walk visits
# every prime p <= sqrt(hi) and finds the exponent e of p in each of its
# multiples without dividing.  It folds rule(p, e) into the value array
# (multiplied in for multiplicative functions, added for omega and Omega)
# and multiplies p^e into ext, the part of n it has extracted.  A prime up
# to T = isqrt(hi - lo) is walked on its own: e starts at 1 on the multiples
# of p and gains 1 on the multiples of p^2, p^3, ..., each a strided slice.
# The primes above T, which would cost one Python step each, fold together
# in one ragged index pass (_fold_large_primes): since p^2 > hi - lo, each
# has at most one multiple of p^2 in the block.  After the walk n // ext is 1 or a
# prime above sqrt(hi), one division per entry; the same rule folds that
# prime in with e = 1.  A function is one row of _RULES (d_k and sigma
# build theirs from their parameter in _rule): a start value, the fold, and
# the local factor at a prime power.  A rule takes p as an int and an array
# of e, or arrays of both, and returns the walk's dtype: ufunc.at is many
# times slower when the dtypes differ.  The dtype comes from the block's
# top (_walk_dtype): int32 while n < 2^31 for the _RULES rows, whose
# values, p^e and n all fit; int64 above that and for d_k and sigma; exact
# Python ints in an object array where int64 could overflow.  ext, e and
# the leftover arange take the integer dtype of the rung (int64 under
# object values).  d_restricted is not multiplicative and has a count of
# its own (_restricted_segment_counts).
# ---------------------------------------------------------------------------

def _r2_factor(p, e):
    """Local factor of r2: 1 at p = 2, e+1 at p = 1 mod 4, [e even] at 3 mod 4."""
    if np.ndim(p) == 0:
        # one prime of the walk; a vectorised where costs ~30% more here
        if p == 2:
            return e.dtype.type(1)
        # e & 1 is several times faster than e % 2 on int32
        return e + 1 if p % 4 == 1 else 1 - (e & 1)
    # an array of primes, and exponents of its length or of length 1:
    # [r = 1] e + 1 - [r = 3] (e & 1) in e's dtype, in place on r = p & 3,
    # since (r & 1) - [r = 3] is [r = 1] on primes.  A where() over a bool
    # branch took four times as long and held two more arrays at once.
    r = np.bitwise_and(p, 3, dtype=e.dtype)
    three = r == 3
    r &= 1
    r -= three
    r *= e
    r += 1
    three &= (e & 1) == 1
    r -= three
    return r


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


# tag -> (start value, fold, local factor at p^e); d(n^2) and d(n)^2, the
# coefficients `verify --suite identities` checks, have rows of their own
_RULES = {
    "d": (1, np.multiply, lambda p, e: e + 1),
    "mu": (1, np.multiply, lambda p, e: np.negative(e == 1, dtype=e.dtype)),
    "mu_squared": (1, np.multiply, lambda p, e: (e == 1).astype(e.dtype)),
    "omega": (0, np.add, lambda p, e: e.dtype.type(1)),
    "big_omega": (0, np.add, lambda p, e: e),
    "two_omega": (1, np.multiply, lambda p, e: e.dtype.type(2)),
    "two_big_omega": (1, np.multiply, lambda p, e: 1 << e),
    "r2": (4, np.multiply, _r2_factor),
    "d_of_square": (1, np.multiply, lambda p, e: 2 * e + 1),
    "d_squared": (1, np.multiply, lambda p, e: (e + 1) ** 2),
}


def _rule(f, dtype=np.int64):
    """The _RULES row for an FnSpec or a _RULES name, in dtype."""
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
                # arrays of primes take Python ints; at one prime of the
                # walk the factors for e = 0..max(e) form a table indexed
                # by e, like d_k's binomials
                if np.ndim(p):
                    return factor(p.astype(object, copy=False), e)
                return factor(np.array([p], dtype=object), np.arange(e.max() + 1))[e]
            return 1, np.multiply, exact
        return 1, np.multiply, factor
    return _RULES[f.tag]


def _walk_segment_values(f, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Values of f(n) for n in [lo, hi) via the prime-exponent walk.

    primes holds at least every prime up to sqrt(hi).  lo must be at least
    1: at n = 0 every p^k divides n, so the exponent loop would never end.
    """
    if lo < 1:
        raise ValueError(f"the walk starts at n >= 1 (got lo={lo})")
    dtype = _walk_dtype(f, hi - 1)
    start_value, fold, factor = _rule(f, dtype)
    index = np.int64 if dtype is object else dtype
    size = hi - lo
    ext = np.ones(size, dtype=index)
    out = np.full(size, start_value, dtype=dtype)
    # the primes up to sqrt(hi); those past isqrt(size) fold together
    top = int(np.searchsorted(primes, math.isqrt(hi - 1), side="right"))
    small = min(top, int(np.searchsorted(primes, math.isqrt(size), side="right")))
    for p in primes[:small].tolist():
        start = (-lo) % p
        if start >= size:
            continue
        e = np.ones((size - 1 - start) // p + 1, dtype=index)
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
    if small < top:
        _fold_large_primes(primes[small:top], lo, size, ext, out, fold, factor)
    # what the primes below sqrt(hi) leave of n is 1 or one prime above it;
    # its factor goes in as identity + (factor - identity) * [rem > 1], as
    # a where= mask makes the fold several times slower
    rem = np.floor_divide(np.arange(lo, hi, dtype=index), ext,
                          out=ext).astype(dtype, copy=False)
    unit = fold.identity
    beyond = rem > 1
    lead = np.subtract(factor(rem, np.ones(1, dtype=index)), unit, out=rem)
    lead *= beyond
    lead += unit
    fold(out, lead, out=out)
    return out


def _fold_large_primes(big: np.ndarray, lo: int, size: int, ext: np.ndarray,
                       out: np.ndarray, fold, factor) -> None:
    """Fold the primes of big, each with p^2 > size, into ext and out at once.

    The multiples of all of them form one ragged index; an n with two such
    primes appears twice, so the folds go through ufunc.at.  Each prime's
    factor at e = 1 is formed once and repeated over its multiples.  Each
    prime has at most one multiple of p^2 in the block, and those few
    entries take their exponent from a vector loop over p^3, p^4, ...
    """
    first = (-lo) % big
    count = (size - 1 - first) // big + 1
    ends = np.cumsum(count)
    if not ends[-1]:
        return
    # entry i of prime j's run is the multiple at first_j + (i - start_j) p_j
    step = np.repeat(big, count)
    idx = np.arange(ends[-1], dtype=np.int64)
    idx *= step
    idx += np.repeat(first - (ends - count) * big, count)
    one = np.ones(1, dtype=ext.dtype)
    g = np.repeat(np.broadcast_to(factor(big, one), big.shape), count)
    pe = step.astype(ext.dtype)
    square = (-lo) % (big * big)
    hit = np.flatnonzero(square < size)
    if hit.size:
        p = big[hit]
        at = ends[hit] - count[hit] + (square[hit] - first[hit]) // p
        k = np.full(hit.size, 2, dtype=ext.dtype)
        rest = (lo + square[hit]) // (p * p)
        while True:
            more = rest % p == 0
            if not more.any():
                break
            k += more
            rest //= np.where(more, p, 1)
        g[at] = factor(p, k)
        pe[at] = p ** k
    np.multiply.at(ext, idx, pe)
    fold.at(out, idx, g)


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
    """Sum an integer array exactly in int64, chunking so no partial can overflow.

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


def _walk_dtype(f, m: int):
    """The value dtype of a walk whose largest n is m: int32, int64 or object."""
    if isinstance(f, str) or f.tag in _RULES:
        return np.int32 if m < 1 << 31 else np.int64
    # every intermediate the rules form must stay below 2^62
    if f.tag == "sigma":
        # a (bit_length(m) - 1) >= 60 means m^a >= 2^60, without forming it
        small = f.a * (m.bit_length() - 1) < 60 and m ** f.a * 4 < 1 << 62
        return np.int64 if small else object
    if f.tag == "d_k":
        # the binomials C(e + k - 1, k - 1), e < 64, of _rule fit int64
        return np.int64 if f.k <= 21 else object
    return np.int64


def _rounded_sums(w: np.ndarray, ends) -> list[float]:
    """The correctly rounded sums of w[:e] for each e in ends, ascending.

    w is a finite float64 array of at most 2^26 entries (callers pass
    SUM_CHUNK).  Each term is (h + l) 2^(e-27) with frexp's exponent e, an
    integer |h| <= 2^27 and l in [0, 1) a multiple of 2^-26; one bincount
    per part sums them per exponent and per piece between ends, exactly in
    float64 at that length, and the pieces' cumulative sums join into one
    integer per end, divided once.  Each sum equals math.fsum's wherever
    fsum returns (fsum refuses an intermediate overflow).
    """
    mant, exp = np.frexp(w)
    mant *= 1 << 27
    whole = np.floor(mant)
    mant -= whole
    bottom = int(exp.min()) if exp.size else 0
    width = int(exp.max()) - bottom + 1 if exp.size else 1
    key = exp.astype(np.intp)
    key -= bottom
    if len(ends) > 1:
        key += np.repeat(np.arange(0, len(ends) * width, width),
                         np.diff(ends, prepend=0))
    highs, lows = (np.bincount(key, weights=part, minlength=len(ends) * width)
                   .reshape(len(ends), width).cumsum(axis=0).tolist()
                   for part in (whole, mant))
    out = []
    for high, low in zip(highs, lows):
        total = 0
        for b in range(width - 1, -1, -1):
            total = (total << 1) + (int(high[b]) << 26) + int(low[b] * (1 << 26))
        shift = bottom - 53
        out.append(float(total << shift) if shift >= 0 else total / (1 << -shift))
    return out


def _rounded_sum(w: np.ndarray) -> float:
    """The correctly rounded sum of w: math.fsum's float, by _rounded_sums."""
    return _rounded_sums(w, [w.size])[0]


def _segment_task(args):
    """Worker body: f summed exactly over [lo, hi), to each checkpoint.

    Returns (the sums from lo to each checkpoint, the segment's sum), from
    one walk of [lo, hi).
    """
    f, lo, hi, marks = args
    vals = _segment_values(f, lo, hi)
    # only int64 values need a pass: |int32| <= 2^31, object sums ignore it
    bound = int(np.abs(vals).max()) if vals.dtype == np.int64 else 1 << 31
    cuts = [lo, *(m + 1 for m in marks), hi]
    sums = list(accumulate(_exact_array_sum(vals[a - lo:b - lo], bound)
                           for a, b in zip(cuts, cuts[1:])))
    return sums[:-1], sums[-1]


def _worker_primes(hi: int) -> np.ndarray:
    """The primes below the first power of two past sqrt(hi).

    The blocks of a scan share a few such tables, not one per block.
    """
    return _primes_below(1 << math.isqrt(hi).bit_length())


@lru_cache(maxsize=4)
def _primes_below(n: int) -> np.ndarray:
    return np.asarray(primes_up_to(n - 1), dtype=np.int64)


def __getattr__(name):
    # perfbench/trace_boot.py wraps this name when it installs its spans, the
    # one name it reads here; the scan forks its own walkers (_forked_map),
    # so only this lookup loads concurrent.futures.process
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


# Bytes of one block index on the claims pipe.  Every write of the parent is
# a whole number of indices, at most PIPE_BUF bytes, so it lands at once,
# and a walker's read of this many bytes takes one whole index.
_CLAIM_BYTES = 4


def _claims(lo: int, hi: int) -> bytes:
    return b"".join(i.to_bytes(_CLAIM_BYTES, "little") for i in range(lo, hi))


def _walker(task, tasks: list, claims: int, feed: int, results: int) -> None:
    """Body of a forked walker: task(tasks[i]) for each index i it claims.

    Each result goes back on results as one length-prefixed pickle of (i,
    the result, None), or of (i, None, the exception), after which the
    walker stops.  It ends when the claims pipe does, that is when the
    parent is gone, and it never returns into its caller's frames.
    """
    try:
        os.close(feed)  # else the claims pipe never ends
        with open(results, "wb") as out:
            while claim := os.read(claims, _CLAIM_BYTES):
                i = int.from_bytes(claim, "little")
                try:
                    message = (i, task(tasks[i]), None)
                except Exception as exc:
                    message = (i, None, exc)
                data = pickle.dumps(message)
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
                if message[2] is not None:
                    break
    finally:
        os._exit(0)


def _read_exactly(fd: int, size: int) -> bytes | None:
    """size bytes from fd, or None if its writer closes it first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
    return bytes(data)


def _forked_map(task, tasks: list, workers: int) -> list:
    """[task(t) for t in tasks], walked by `workers` forked walkers.

    The parent walks no task itself.  It feeds task indices into one claims
    pipe, at most two per walker ahead of the results, and a walker claims
    the next index only when it has sent its last result: a walker that
    gets no CPU holds up one task at most, and no task count can fill the
    pipe.  Each walker sends its results on a pipe of its own, and the
    parent puts them in order.  A walker's exception is raised here, its
    type and message unchanged.  Every walker is killed and reaped on the
    way out, whatever ends the scan.
    """
    claims, feed = os.pipe()
    fds, walkers = [claims, feed], {}
    try:
        for _ in range(workers):
            r, w = os.pipe()
            fds += (r, w)
            pid = os.fork()
            if pid == 0:
                _walker(task, tasks, claims, feed, w)
            walkers[r] = pid
            fds.remove(w)
            os.close(w)
        poll = select.poll()
        for r in walkers:
            poll.register(r, select.POLLIN)
        sent = min(len(tasks), 2 * workers)
        os.write(feed, _claims(0, sent))
        out = [None] * len(tasks)
        for _ in tasks:
            fd = poll.poll()[0][0]
            head = _read_exactly(fd, 8)
            body = head and _read_exactly(fd, int.from_bytes(head, "little"))
            if not body:
                raise ChildProcessError(
                    f"brute-scan walker {walkers[fd]} exited with tasks left")
            i, value, error = pickle.loads(body)
            if error is not None:
                raise error
            out[i] = value
            if sent < len(tasks):
                os.write(feed, _claims(sent, sent + 1))
                sent += 1
        return out
    finally:
        for pid in walkers.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _brute_scan(f, checkpoints: list[int], bound: int,
                workers: int = 1) -> dict[int, int]:
    """Exact prefix sums of f at each checkpoint, in one streaming pass.

    f is an FnSpec or a _RULES name.  The blocks are walked by
    min(workers, blocks, CPUs) forked walkers (_forked_map) when that is
    more than one, and in this process otherwise or where os.fork is
    missing.
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
    if m > POINTWISE_MAX and _walk_dtype(f, m) is object:
        raise ResourceLimitError(
            f"{f.label()} outgrows int64, and its exact scans stop at "
            f"{POINTWISE_MAX}; x={m} is past that")

    tasks = [(f, lo, min(lo + SEGMENT_SIZE, m + 1),
              marks[bisect_left(marks, lo):bisect_left(marks, lo + SEGMENT_SIZE)])
             for lo in range(1, m + 1, SEGMENT_SIZE)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        results = _forked_map(_segment_task, tasks, workers)
    else:
        results = [_segment_task(t) for t in tasks]

    out = dict.fromkeys(marks, 0)
    before = 0
    for task, (at_marks, total) in zip(tasks, results):
        for c, at in zip(task[3], at_marks):
            out[c] = before + at
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

def _hyperbola_counts(ms, q: int = 1, g=((1, 1),)) -> list[int]:
    """sum_{ab <= m} g(a) for each m of the list ms, g q-periodic: w at n = i (mod q).

    g lists the classes 1 <= i <= q where g is not 0, as (i, w) with w = 1
    or -1; q = 1 means g = 1, D(m).  Every m is an int, 1 <= m <=
    HYPERBOLA_MAX.  With r = isqrt(m) and G(t) = g(1) + ... + g(t) the row
    is sum_{a<=r} g(a) floor(m/a) + sum_{b<=r} G(floor(m/b)) - r G(r);
    class i adds (t + q - i) // q to G(t), 0 at t = 0.  For D the two sums
    are one, 2 sum_{n<=r} floor(m/n) - r^2.  A q above every m is read as
    max(m) + 1 without the classes above max(m): an n <= m is i (mod q)
    only when n = i, as it is modulo max(m) + 1.

    The distinct m, ascending, divide in 2-D tiles: rows whose r share a
    bit length b (so r < 2^b) and one dtype, KERNEL_CHUNK >> b of them (at
    least one), times runs of at most K = KERNEL_CHUNK columns n, slices of
    _COLUMNS[dtype]; entries with n > r are zeroed.  A tile of several rows
    is one run.  One row divides as a vector, and its run sums are added as
    Python ints; repeats and input order cost nothing.  A class of a q > 1
    row adds to (quotient + q - i) // q the quotients of its own columns.
    A run of D sums to at most m H(K) < 11 m, and a class's run to at most
    m (H(K)/q + 1 + H(K/q)/q) + K < 10.94 m + K (q = 2 and the first run
    are the worst).  So every run sum is an exact integer: in float64,
    whatever order numpy adds in, while m and q - 1 are at most
    FLOAT_SUM_MAX (both bounds are then below 2^53), and in int64 (below
    2.2e18 < 2^63) for m <= HYPERBOLA_MAX.
    """
    if not ms:
        return []
    keys = sorted(set(ms))
    if q > keys[-1]:
        q, g = keys[-1] + 1, [(i, w) for i, w in g if i <= keys[-1]]
    roots = list(map(math.isqrt, keys))
    split = bisect_right(keys, FLOAT_SUM_MAX if q - 1 <= FLOAT_SUM_MAX else 0)
    totals, i = [], 0
    while i < len(keys):
        bits, small = roots[i].bit_length(), i < split
        j = min(i + max(1, KERNEL_CHUNK >> bits), bisect_left(roots, 1 << bits),
                split if small else len(keys))
        # the float floor of the float quotient, or int64 floor division; its
        # scalars are cast to dtype once, not by each ufunc call
        dtype, div = (np.float64, np.divide) if small else (np.int64, np.floor_divide)
        if j - i == 1:
            m, acc, exact = dtype(keys[i]), 0, int
        else:
            m = np.array(keys[i:j], dtype=dtype)[:, None]
            acc = np.zeros(j - i, dtype=np.int64)
            exact = partial(np.ndarray.astype, dtype=np.int64)
        width = min(KERNEL_CHUNK // (j - i), roots[j - 1])
        for lo in range(0, roots[j - 1], width):
            n = _COLUMNS[dtype][:min(width, roots[j - 1] - lo)]
            quot = div(m, n + lo if lo else n)
            if small:
                np.floor(quot, out=quot)
            if roots[i] < n.size:  # a tile of several rows
                tail = quot[:, roots[i]:]
                tail *= n[roots[i]:] <= np.array(roots[i:j], dtype=dtype)[:, None]
            if q == 1:
                acc += exact(np.add.reduce(quot, -1))
            for c, w in g if q > 1 else ():
                t = np.add(quot, dtype(q - c))
                div(t, dtype(q), out=t)
                if small:
                    np.floor(t, out=t)
                a = (c - 1 - lo) % q
                t[..., a::q] += quot[..., a::q]
                acc += w * exact(np.add.reduce(t, -1))
        totals += [acc] if j - i == 1 else acc.tolist()
        i = j
    if q == 1:
        counts = [2 * s - r * r for s, r in zip(totals, roots)]
    else:
        counts = totals
        for k, r in enumerate(roots):
            for c, w in g:
                counts[k] -= w * r * ((r - c) // q + 1)
    return counts if ms == keys else [counts[bisect_left(keys, m)] for m in ms]


def divisor_sums_hyperbola(xs) -> list[int]:
    """Exact D(x) at each x of xs, each at most HYPERBOLA_MAX, in one pass.

    A grid's exact side is one call: the kernel batches the whole grid.
    """
    return _hyperbola_counts([_bounded_floor(x, HYPERBOLA_MAX, "hyperbola limit")
                              for x in xs])


def divisor_sum_hyperbola(x) -> SummatoryResult:
    """Exact D(x) in O(sqrt x) integer operations, for x <= HYPERBOLA_MAX."""
    (value,) = divisor_sums_hyperbola([x])
    return SummatoryResult(x=float(x), fn="d", value=value, algorithm="hyperbola")


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


def _walk_chunks(f, lo: int, hi: int, size: int):
    """(a, f(a..b-1)) for the chunks [a, b) that tile [lo, hi), in order.

    Each chunk but the last is size long.  A walk loops in Python over the
    primes up to the square root of its own length, not of b; the larger
    ones fold in one array pass.
    """
    for a in range(lo, hi, size):
        yield a, _segment_values(f, a, min(a + size, hi))


def _walk_into(out: np.ndarray, f, lo: int, size: int) -> None:
    """out[n] = f(n) for lo <= n < out.size, walked in chunks of size."""
    for a, values in _walk_chunks(f, lo, out.size, size):
        out[a:a + values.size] = values


_MU_TABLE = np.zeros(1, dtype=np.int8)


def _mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..n) as int8 for some n >= limit, from one table that only grows.

    A growth at least doubles the table and walks only its new entries;
    the entries already there are copied.  A walk holds ~20 bytes per value
    against the table's one, so its chunks are n/64 long, at least
    KERNEL_CHUNK and at most SEGMENT_SIZE: the tables of the benchmarked
    kernels (n < 5e5) peak no higher than with KERNEL_CHUNK walks, and
    SEGMENT_SIZE walks take mu to 3.2e7 (the kernel at 1e15) in ~0.9 s in
    process, against ~1.4 s in KERNEL_CHUNK walks.
    """
    global _MU_TABLE
    old = _MU_TABLE.size
    if old <= limit:
        n = max(limit, 2 * old)
        mu = np.empty(n + 1, dtype=np.int8)
        mu[:old] = _MU_TABLE
        _walk_into(mu, "mu", old, min(SEGMENT_SIZE, max(KERNEL_CHUNK, n >> 6)))
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

    Every m // d^2 must be at most PREFIX_TABLE_LIMIT.  The quotients are
    float64 floors, exact since m <= MOEBIUS_KERNEL_MAX < 2^53.
    """
    total = 0
    for a in range(lo, hi + 1, KERNEL_CHUNK):
        d = np.arange(a, min(a + KERNEL_CHUNK, hi + 1), dtype=np.float64)
        np.multiply(d, d, out=d)
        np.floor(np.divide(m, d, out=d), out=d)
        vals = table[d.astype(np.intp, copy=False)]
        if mu is not None:
            vals *= mu[a:a + vals.size]
        total += int(vals.sum(dtype=np.int64))
    return total


def _square_splits(ms, inner, table: np.ndarray,
                   mu: np.ndarray | None = None) -> list[int]:
    """sum_{d <= sqrt(m)} w(d) F(m // d^2) for each m of ms, w = mu (1 without mu).

    F is the prefix table where m // d^2 <= L, that is for d above t =
    isqrt(m // (L+1)), and inner below: one call of inner, which maps a
    list of arguments to their values, for the F(m // d^2) of every m.
    """
    tops = [math.isqrt(m // (PREFIX_TABLE_LIMIT + 1)) for m in ms]
    top = max(tops, default=0)
    weights = [1] * (top + 1) if mu is None else mu[:top + 1].tolist()
    values = iter(inner([m // (d * d) for m, t in zip(ms, tops)
                         for d in range(1, t + 1) if weights[d]]))
    return [sum(weights[d] * next(values) for d in range(1, t + 1) if weights[d])
            + _table_gather(table, m, t + 1, math.isqrt(m), mu)
            for m, t in zip(ms, tops)]


def _squarefree_counts(ms) -> list[int]:
    """S_2w(m) = sum_{d <= sqrt(m)} mu(d) D(m // d^2) for each m of ms.

    The D values of every m come from one batched hyperbola pass.  An
    empty batch sizes no mu table and builds no prefix table.
    """
    if not ms:
        return []
    mu = _mobius_sieve(max(math.isqrt(max(ms, default=1)), 16))
    return _square_splits(ms, _hyperbola_counts, _prefix_tables()[0], mu)


def squarefree_divisor_sums(xs) -> list[int]:
    """Exact S_2w(x) at each x of xs, each at most MOEBIUS_KERNEL_MAX.

    A grid's exact side is one call: its D values form one batch.
    """
    return _squarefree_counts([_bounded_floor(x, MOEBIUS_KERNEL_MAX,
                                              "Moebius kernel limit")
                               for x in xs])


def squarefree_divisor_sum(x) -> SummatoryResult:
    """Exact S_2w(x) = sum_{n<=x} 2^omega(n) via the Moebius kernel.

    x is at most MOEBIUS_KERNEL_MAX.
    """
    (value,) = squarefree_divisor_sums([x])
    return SummatoryResult(x=float(x), fn="two_omega", value=value,
                           algorithm="moebius_kernel")


def divisor_sum_from_squarefree(x) -> SummatoryResult:
    """Exact D(x) rebuilt from the squarefree kernel: sum_d S_2w(x // d^2).

    Coefficient-level counterpart of d(n) = sum_{d^2 | n} 2^omega(n/d^2);
    cross-checks the kernel pipeline against the hyperbola value.  x is at
    most CONVOLUTION_MAX.
    """
    m = _bounded_floor(x, CONVOLUTION_MAX, "convolution limit")
    (total,) = _square_splits([m], _squarefree_counts, _prefix_tables()[1])
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


def harmonic_sum(x, ap: APSpec | None = None, *,
                 bound: int = ORACLE_BOUND_DEFAULT) -> float:
    """sum 1/n over n <= x, optionally restricted to n = a (mod q).

    A linear pass, so x is refused past bound.
    """
    m = _bounded_floor(x, bound, "oracle bound")
    return math.fsum(_rounded_sum(1.0 / n) for n in _progression(m, ap))


def harmonic_main_term(x, ap: APSpec | None = None) -> float:
    """Asymptotic predictor log x + gamma, or (log x)/q + gamma(a, q)."""
    lx = math.log(x)
    if ap is None:
        return lx + EULER_GAMMA
    return lx / ap.q + generalized_euler_constant(ap.a, ap.q)


def fractional_part_sum(x, ap: APSpec | None = None, *,
                        bound: int = ORACLE_BOUND_DEFAULT) -> float:
    """sum {x/n} over n <= x (optionally n = a mod q), via {y} = y - floor(y).

    The floor part, floor(x/n) = floor(m/n) for m = floor(x), is the exact
    hyperbola count of the progression; only the x/n terms are floating
    point, in chunked exact summation.  A linear pass, so x is refused past bound.
    """
    m = _bounded_floor(x, bound, "oracle bound")
    xf = float(x)
    frac = math.fsum(_rounded_sum(xf / n) for n in _progression(m, ap))
    a, q = (1, 1) if ap is None else (ap.a, ap.q)
    return frac - _hyperbola_counts([m], q, ((a, 1),))[0]


def fractional_main_term(x, ap: APSpec | None = None) -> float:
    """Asymptotic predictor (1 - gamma) x, or (1 - gamma) x / q on a progression."""
    scale = 1 if ap is None else ap.q
    return (1.0 - EULER_GAMMA) * float(x) / scale


def circle_lattice_sum(x) -> int:
    """Number of integer lattice points with 0 < a^2 + b^2 <= x.

    That is sum_{n<=x} r2(n) = 4 sum_{ab<=x} chi_4(a), the hyperbola row of
    chi_4 (1 at n = 1, -1 at n = 3 mod 4).  x past HYPERBOLA_MAX is
    refused before the loop.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if x < 1:
        return 0
    m = _bounded_floor(x, HYPERBOLA_MAX, "hyperbola limit")
    return 4 * _hyperbola_counts([m], 4, ((1, 1), (3, -1)))[0]


def ap_divisor_sum(x, ap: APSpec) -> SummatoryResult:
    """sum_{n<=x} d(n, q, a), the hyperbola row of d = a (mod q), for x <= HYPERBOLA_MAX."""
    if not isinstance(ap, APSpec):
        raise TypeError("ap must be an APSpec")
    m = _bounded_floor(x, HYPERBOLA_MAX, "hyperbola limit")
    return SummatoryResult(x=float(x), fn=_ap_label(ap.q, ap.a),
                           value=_hyperbola_counts([m], ap.q, ((ap.a, 1),))[0],
                           algorithm="hyperbola")


@lru_cache(maxsize=64)
def _ap_label(q: int, a: int) -> str:
    """FnSpec's label of the AP divisor row of class (q, a), formed once."""
    return FnSpec("d_restricted", q=q, a=a).label()


def ap_main_term(x, ap: APSpec) -> float:
    """Predictor (x log x)/q + (gamma(a,q) - (1-gamma)/q) x for the AP divisor sum."""
    xf = float(x)
    g_aq = generalized_euler_constant(ap.a, ap.q)
    return xf * math.log(xf) / ap.q + (g_aq - (1.0 - EULER_GAMMA) / ap.q) * xf


# ---------------------------------------------------------------------------
# T(x) = sum_{n<=x} 2^omega(n)/n, the exact side of the over-n target
# ---------------------------------------------------------------------------

def _weighted_sums(f, checkpoints: list[int], bound: int) -> dict[int, float]:
    """The chunked float sum of f(n)/n, f a _RULES name, to each checkpoint.

    Each SUM_CHUNK chunk [a, b) is divided straight from the walked values
    into one reused float buffer; the walks are SEGMENT_SIZE long, so a
    chunk may take its values from several walks, or a walk give them to
    several chunks.  The sum to n is the rounded sum of the rounded sums of
    the chunks before n's and of n's chunk up to n: the chunk sums add up as
    exact Fractions, and each checkpoint rounds once.
    """
    marks = sorted(set(checkpoints))
    top = marks[-1] if marks else 0
    if top > bound:
        raise ResourceLimitError(f"x={top} exceeds the oracle bound {bound}")
    buf = np.empty(min(SUM_CHUNK, top))
    walks = _walk_chunks(f, 1, top + 1, SEGMENT_SIZE)
    out, before, j = {}, Fraction(0), 0
    start, vals = 1, buf[:0]
    for a in range(1, top + 1, SUM_CHUNK):
        b = min(a + SUM_CHUNK, top + 1)
        n = a
        while n < b:
            if n == start + vals.size:
                vals = None  # drop the spent walk before the next is built
                start, vals = next(walks)
            c = min(b, start + vals.size)
            np.divide(vals[n - start:c - start], np.arange(n, c, dtype=np.float64),
                      out=buf[n - a:c - a])
            n = c
        k = bisect_left(marks, b, j)
        *parts, total = _rounded_sums(buf[:b - a], [m + 1 - a for m in marks[j:k]]
                                      + [b - a])
        out.update((m, float(before + Fraction(p))) for m, p in zip(marks[j:k], parts))
        before += Fraction(total)
        j = k
    return out


def auxiliary_sums(xs, *, bound: int = ORACLE_BOUND_DEFAULT) -> list[float]:
    """T(x) at each x of xs from one weighted two_omega walk.

    Each value is the chunked exact float sum, the same float at each x as
    a walk to that x alone.
    """
    ms = [floor_to_int(x) for x in xs]
    if any(m < 1 for m in ms):
        raise ValueError("x must be >= 1")
    table = _weighted_sums("two_omega", ms, bound)
    return [table[m] for m in ms]


# ---------------------------------------------------------------------------
# main terms of D, S_2w and T: the one definition explicit and bessel call
# ---------------------------------------------------------------------------

def divisor_main_term(x) -> float:
    """(log x + 2 gamma - 1) x, the smooth part of D(x)."""
    xf = float(x)
    return (math.log(xf) + 2.0 * EULER_GAMMA - 1.0) * xf


_ZETA_2 = float(_CONSTANTS["zeta_2"])
_SIX_OVER_PI_SQUARED = float(_CONSTANTS["six_over_pi_squared"])


def squarefree_main_term(x) -> float:
    """(6/pi^2)(log x + 2 gamma - 1 - 2 zeta'(2)/zeta(2)) x, smooth part of S_2w."""
    xf = float(x)
    return _SIX_OVER_PI_SQUARED * (math.log(xf) + 2.0 * EULER_GAMMA - 1.0
                                   - 2.0 * ZETA_PRIME_2 / _ZETA_2) * xf


def two_omega_over_n_main_term(x) -> float:
    """(6/pi^2)((log x)^2/2 + (2 gamma - 2 zeta'(2)/zeta(2)) log x), T(x) less its constant."""
    lx = math.log(float(x))
    return _SIX_OVER_PI_SQUARED * (
        lx * lx / 2.0 + (2.0 * EULER_GAMMA - 2.0 * ZETA_PRIME_2 / _ZETA_2) * lx)


TWO_OMEGA_OVER_N_CONSTANT = 2.0 * EULER_GAMMA - 1.0
