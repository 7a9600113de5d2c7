"""Summatory algorithms against the streaming brute-force oracle.

Every sublinear route must agree with a literal scan, exactly, including
at the floor boundaries where off-by-one bugs live.  Frozen anchor values
were produced by the brute oracle and checked twice before being written
down here.
"""

import math
import os
import random
import signal
import subprocess
import sys
import time
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divisorlab import summatory
from divisorlab import (APSpec, FnSpec, SummatoryResult, ap_divisor_sum,
                        ap_main_term, auxiliary_sums,
                        brute_force_profile, brute_force_sum,
                        circle_lattice_sum, divisor_count,
                        divisor_main_term, divisor_sum_from_squarefree,
                        divisor_sum_hyperbola, floor_sum,
                        fractional_main_term, fractional_part_sum,
                        harmonic_main_term, harmonic_sum, mobius,
                        omega_distinct, restricted_divisor_count,
                        squarefree_divisor_sum, two_squares_count)
from divisorlab.arith import (divisor_count_sieve, divisors, eval_arithmetic,
                              shared_factor_table)
from divisorlab.errors import ResourceLimitError
from divisorlab.fitting import half_integer_grid
from divisorlab.summatory import (SUM_CHUNK, _segment_values,
                                  _walk_segment_values, _worker_primes,
                                  floor_to_int)

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# anchors (each produced by brute force, re-derived below)
# ---------------------------------------------------------------------------

def test_anchor_values_rederived():
    assert brute_force_sum(FnSpec("d"), 10).value == 27
    assert brute_force_sum(FnSpec("d"), 100).value == 482
    assert brute_force_sum(FnSpec("two_omega"), 10).value == 23
    assert brute_force_sum(FnSpec("d_k", k=3), 10 ** 6).value == 106030594
    assert divisor_sum_hyperbola(10).value == 27
    assert divisor_sum_hyperbola(100).value == 482
    assert divisor_sum_hyperbola(10 ** 6).value == 13970034
    assert squarefree_divisor_sum(10).value == 23


def test_floor_handling():
    assert floor_to_int(10) == 10
    assert floor_to_int(10.999999) == 10
    assert floor_to_int(Fraction(21, 2)) == 10
    # 0.1 is slightly above 1/10 in binary; floors must follow the float
    assert floor_to_int(10 ** 16 + 2.0) == 10 ** 16 + 2
    assert divisor_sum_hyperbola(100.5).value == 482
    assert divisor_sum_hyperbola(100.999).value == 482


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-2 ** 60, 2 ** 60), st.integers(-4, 4),
       st.integers(1, 2 ** 70))
@example(0, -1, 1)
@example(2 ** 53, 1, 1)
@example(-(2 ** 53), -3, 2 ** 70)
def test_floor_to_int_near_integers(k, ulps, den):
    # a float within a few ulps of an integer, and a Fraction within ulps/den
    x = float(k)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert floor_to_int(x) == int(Decimal(x).to_integral_value(ROUND_FLOOR))
    frac = Fraction(k) + Fraction(ulps, den + 4)
    assert floor_to_int(frac) == (k - 1 if ulps < 0 else k)


@pytest.mark.parametrize("x", (
    2.0 ** 52 - 0.5, 2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, -(2.0 ** 52) + 0.5,
    math.nextafter(2.0 ** 52, 0), 2.0 ** 53 - 1, 1e300, -1e300, -0.5, -0.0,
    5e-324, -5e-324))
def test_floor_to_int_matches_the_fraction_floor(x):
    exact = Fraction(x)
    assert floor_to_int(x) == exact.numerator // exact.denominator


# the per-n loops the three progression sums ran before they went to int64
# chunks, kept here as their oracle

def compensated_sum(values):
    partials = []
    chunk = []
    for v in values:
        chunk.append(v)
        if len(chunk) == SUM_CHUNK:
            partials.append(math.fsum(chunk))
            chunk = []
    if chunk:
        partials.append(math.fsum(chunk))
    return math.fsum(partials)


def loop_harmonic(x, ap):
    ns = range(1, floor_to_int(x) + 1) if ap is None else range(
        ap.a, floor_to_int(x) + 1, ap.q)
    return compensated_sum(1.0 / n for n in ns)


def loop_fractional(x, ap):
    fx = Fraction(x)
    num, den = fx.numerator, fx.denominator
    xf = float(x)
    ns = range(1, floor_to_int(x) + 1) if ap is None else range(
        ap.a, floor_to_int(x) + 1, ap.q)
    floor_total = 0
    for n in ns:
        floor_total += num // (den * n)
    return compensated_sum(xf / n for n in ns) - floor_total


def loop_ap_divisor(x, ap):
    m = floor_to_int(x)
    return sum(m // d for d in range(ap.a, m + 1, ap.q))


PROGRESSIONS = [None, APSpec(3, 1), APSpec(3, 2), APSpec(4, 1), APSpec(4, 3),
                APSpec(97, 1), APSpec(97, 45)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(PROGRESSIONS), st.integers(0, 2), st.integers(-1, 1),
       st.sampled_from([0.0, 0.25, 0.5]))
@example(None, 1, -1, 0.0)
@example(None, 1, 1, 0.5)
@example(APSpec(3, 1), 1, 0, 0.0)
@example(APSpec(4, 3), 2, 1, 0.5)
@example(APSpec(97, 45), 1, -1, 0.25)
def test_progression_sums_match_the_per_n_loop(ap, k, step, frac):
    # x at a + q 2^16 k + step: one term before, at and after a chunk edge
    a, q = (1, 1) if ap is None else (ap.a, ap.q)
    x = max(1, a + q * SUM_CHUNK * k + step) + frac
    assert repr(harmonic_sum(x, ap)) == repr(loop_harmonic(x, ap))
    assert repr(fractional_part_sum(x, ap)) == repr(loop_fractional(x, ap))
    if ap is not None:
        assert ap_divisor_sum(x, ap).value == loop_ap_divisor(x, ap)
    # the chunk sums change no more than the last bits of one fsum
    ns = range(a, math.floor(x) + 1, q)
    assert harmonic_sum(x, ap) == pytest.approx(
        math.fsum(1.0 / n for n in ns), abs=0.0, rel=1e-15)


# ---------------------------------------------------------------------------
# exact equivalence of all routes
# ---------------------------------------------------------------------------

def test_three_algorithms_small_exhaustive():
    m = 3000
    oracle_d = brute_force_profile(FnSpec("d"), range(1, m + 1))
    oracle_s = brute_force_profile(FnSpec("two_omega"), range(1, m + 1))
    for x in range(1, m + 1):
        want_d = oracle_d[x - 1].value
        want_s = oracle_s[x - 1].value
        assert divisor_sum_hyperbola(x).value == want_d
        assert divisor_sum_from_squarefree(x).value == want_d
        assert squarefree_divisor_sum(x).value == want_s


def test_three_algorithms_random_medium():
    rng = random.Random(505)
    xs = sorted(rng.randrange(10 ** 3, 10 ** 6) for _ in range(20))
    oracle_d = brute_force_profile(FnSpec("d"), xs)
    oracle_s = brute_force_profile(FnSpec("two_omega"), xs)
    for x, rd, rs in zip(xs, oracle_d, oracle_s):
        assert divisor_sum_hyperbola(x).value == rd.value
        assert divisor_sum_from_squarefree(x).value == rd.value
        assert squarefree_divisor_sum(x).value == rs.value


# ---------------------------------------------------------------------------
# the chunked kernels and their prefix tables, against Python-int references
# ---------------------------------------------------------------------------

L = summatory.PREFIX_TABLE_LIMIT
# the table's top, and the m where the kernel's hyperbola count
# t = isqrt(m // (L+1)) steps from 0 to 1, from 1 to 2 and from 2 to 3
TABLE_EDGES = (L, L + 1, 4 * (L + 1) - 1, 4 * (L + 1), 9 * (L + 1))


def literal_hyperbola(k):
    r = math.isqrt(k)
    return 2 * sum(k // n for n in range(1, r + 1)) - r * r


def literal_squarefree_sum(m):
    table = shared_factor_table()
    return sum(mobius(d, table) * literal_hyperbola(m // (d * d))
               for d in range(1, math.isqrt(m) + 1))


_rng = random.Random(909)
# log-uniform up to 1e12, so the literal references stay quick
SEEDED_POINTS = tuple(sorted(int(10 ** _rng.uniform(0, 12)) for _ in range(10)))


@pytest.mark.parametrize("m", TABLE_EDGES + SEEDED_POINTS + (98_765_432_101,))
def test_routes_at_the_table_edges_and_beyond(m):
    want_d = floor_sum(m)
    assert divisor_sum_hyperbola(m).value == want_d
    assert divisor_sum_from_squarefree(m).value == want_d
    if m <= 10 ** 11:
        assert squarefree_divisor_sum(m).value == literal_squarefree_sum(m)


# m = r^2 and (r + 1)^2 - 1 around the edges of the first two KERNEL_CHUNK
# chunks of n <= r
KERNEL_EDGES = tuple(m for k in (1, 2) for r in (k * summatory.KERNEL_CHUNK + j
                                                  for j in (-1, 0, 1))
                     for m in (r * r, (r + 1) ** 2 - 1))


@pytest.mark.parametrize("m", KERNEL_EDGES + SEEDED_POINTS)
def test_hyperbola_rows_at_the_chunk_edges(m):
    # the lattice row also at the seeded points; the per-n AP loop only at
    # the edges, with a modulus that keeps it to ~1e6 steps
    assert circle_lattice_sum(m) == column_lattice_count(m)
    if m in KERNEL_EDGES:
        assert divisor_sum_hyperbola(m).value == literal_hyperbola(m)
        ap = APSpec(1009, 1000)
        assert ap_divisor_sum(m, ap).value == loop_ap_divisor(m, ap)


def test_prefix_tables_match_the_brute_oracle():
    d_table, s_table = summatory._prefix_tables()
    assert d_table.dtype == s_table.dtype == np.int32
    assert d_table.size == s_table.size == L + 1
    assert d_table[0] == s_table[0] == 0
    rng = random.Random(606)
    xs = sorted({1, 2, L - 1, L, *(rng.randrange(1, L + 1) for _ in range(200))})
    for tag, table in (("d", d_table), ("two_omega", s_table)):
        want = [r.value for r in brute_force_profile(FnSpec(tag), xs)]
        assert [int(table[x]) for x in xs] == want
    # the tables and the brute oracle both come from the walk; check them
    # against the divisor-count sieve and the factor table too
    sieved = np.cumsum(divisor_count_sieve(L), dtype=np.int64)
    assert [int(d_table[x]) for x in xs] == [int(sieved[x]) for x in xs]
    factors, two_omega = shared_factor_table(), FnSpec("two_omega")
    pointwise = list(accumulate(
        (eval_arithmetic(two_omega, n, factors) for n in range(1, L + 1)), initial=0))
    assert [int(s_table[x]) for x in xs] == [pointwise[x] for x in xs]


def test_mobius_sieve_matches_pointwise():
    # across three chunk boundaries of the sieve
    n = 3 * summatory.KERNEL_CHUNK + 7
    mu = summatory._mobius_sieve(n)
    assert mu[0] == 0
    assert [int(v) for v in mu[1:n + 1]] == [mobius(k) for k in range(1, n + 1)]


def test_mobius_sieve_matches_pointwise_across_table_sized_chunks(monkeypatch):
    # grow a fresh table in three steps, the last past 64 KERNEL_CHUNK
    # entries (walks of more than KERNEL_CHUNK); each growth walks only the
    # new entries, in at most 64 walks, and both sides of every walk's edges
    # match the pointwise mu
    monkeypatch.setattr(summatory, "_MU_TABLE", np.zeros(1, dtype=np.int8))
    walks = []

    def spy(f, lo, hi):
        walks.append((lo, hi))
        return _segment_values(f, lo, hi)

    monkeypatch.setattr(summatory, "_segment_values", spy)
    chunk = summatory.KERNEL_CHUNK
    for n in (17, 3 * chunk + 5, 64 * chunk + 4321):
        old = summatory._MU_TABLE.size
        walks.clear()
        mu = summatory._mobius_sieve(n)
        assert mu.size == n + 1 and mu[0] == 0
        assert 1 <= len(walks) <= 64
        assert walks[0][0] == old and walks[-1][1] == n + 1
        assert all(a[1] == b[0] for a, b in zip(walks, walks[1:]))
        edges = {k for lo, hi in walks for e in (lo, hi - 1)
                 for k in range(max(1, e - 3), min(e + 4, n + 1))}
        assert {k: int(mu[k]) for k in edges} == {k: mobius(k) for k in edges}
        # the copied entries and the stitched walks, against one whole walk
        assert np.array_equal(mu[1:], _segment_values("mu", 1, n + 1))
    assert max(hi - lo for lo, hi in walks) > chunk


def test_first_hyperbola_chunk_sum_fits_int64():
    # the first chunk has the largest quotients; its int64 sum must be exact
    m = summatory.HYPERBOLA_MAX
    n = np.arange(1, summatory.KERNEL_CHUNK + 1, dtype=np.int64)
    exact = sum(m // k for k in range(1, summatory.KERNEL_CHUNK + 1))
    assert exact < 2 ** 63
    assert int(np.floor_divide(m, n).sum()) == exact


# ---------------------------------------------------------------------------
# the float kernels: float-division quotients and correctly rounded sums
# ---------------------------------------------------------------------------

HYPERBOLA_ROWS = {"d": (1, ((1, 1),)), "ap_4_3": (4, ((3, 1),)),
                  "chi4": (4, ((1, 1), (3, -1)))}
# prime factors of the first m past the float switch
STEP_FACTORS = (5, 7, 1187, 19709623201)


def hyperbola_row(m, q=1, g=((1, 1),)):
    return summatory._hyperbola_counts([m], q, g)[0]


def int64_hyperbola(monkeypatch, m, q, g):
    with monkeypatch.context() as patch:
        patch.setattr(summatory, "FLOAT_SUM_MAX", -1)
        return hyperbola_row(m, q, g)


def divisors_of(primes):
    out = {1}
    for p in primes:
        out |= {d * p for d in out}
    return out


def test_float_switch_sits_where_the_exactness_arguments_end():
    # the prefix-table gathers always divide in float64
    assert summatory.MOEBIUS_KERNEL_MAX < 2 ** 53
    assert summatory.CONVOLUTION_MAX < 2 ** 53
    sum_max = summatory.FLOAT_SUM_MAX
    assert 11 * sum_max < 2 ** 53 <= 11 * (sum_max + 1)
    # the worst chunk, the first, sums to less than 11 m
    harmonic = sum(Fraction(1, n) for n in range(1, summatory.KERNEL_CHUNK + 1))
    assert harmonic < 11
    # a class of a periodic row (q = 2 and the first chunk are the worst)
    # sums to at most m (H(K)/2 + 1 + H(K/2)/2) + K < 10.94 m + K
    k = summatory.KERNEL_CHUNK
    half = math.fsum(1 / n for n in range(1, k // 2 + 1))
    assert float(harmonic) / 2 + 1 + half / 2 < 10.94 - 1e-6
    assert 10.94 * sum_max + k < 2 ** 53
    assert 10.94 * summatory.HYPERBOLA_MAX + k < 2 ** 63
    m = sum_max
    quot = np.floor_divide(m, np.arange(1, k + 1, dtype=np.int64))
    for q, c in ((2, 1), (2, 2), (3, 1), (4, 3)):
        t = (quot + q - c) // q
        t[c - 1::q] += quot[c - 1::q]
        assert int(t.sum()) < 10.94 * m + k


@pytest.mark.parametrize("row", HYPERBOLA_ROWS)
def test_hyperbola_rows_across_the_float_switch(row, monkeypatch):
    # float64 at FLOAT_SUM_MAX against the int64 path, and the step to the
    # int64 count one above adds sum_{d | m} g(d)
    q, g = HYPERBOLA_ROWS[row]
    m = summatory.FLOAT_SUM_MAX
    below = hyperbola_row(m, q, g)
    assert below == int64_hyperbola(monkeypatch, m, q, g)
    weight = dict(g)
    step = sum(weight.get((d - 1) % q + 1, 0) for d in divisors_of(STEP_FACTORS))
    assert hyperbola_row(m + 1, q, g) - below == step


@pytest.mark.parametrize("m", (19_999, 20_000, 20_001))
def test_hyperbola_rows_on_both_sides_of_a_moved_switch(m, monkeypatch):
    # the switch moved down to where the literal counts are quick
    monkeypatch.setattr(summatory, "FLOAT_SUM_MAX", 20_000)
    count = hyperbola_row
    assert count(m) == literal_hyperbola(m)
    assert count(m, *HYPERBOLA_ROWS["ap_4_3"]) == loop_ap_divisor(m, APSpec(4, 3))
    assert 4 * count(m, *HYPERBOLA_ROWS["chi4"]) == column_lattice_count(m)


def per_point_divisor_count(m):
    # 2 sum_{n<=r} floor(m/n) - r^2 in int64 chunks, apart from the tiles
    # and the float path
    r = math.isqrt(m)
    total = sum(int(np.floor_divide(m, np.arange(lo, min(lo + 2 ** 16, r + 1),
                                                 dtype=np.int64)).sum())
                for lo in range(1, r + 1, 2 ** 16))
    return 2 * total - r * r


# roots r = isqrt(m) at the tile edges of the D batch: the steps of r's bit
# length, which cut a tile, and the column-chunk edges of one-row tiles
TILE_ROOTS = (1, 2, 3, 4, 7, 8, 9, 127, 128, 129, 4095, 4096, 4097,
              *(k * summatory.KERNEL_CHUNK + j for k in (1, 2) for j in (-1, 0, 1)))
BATCH_VALUES = st.one_of(
    st.integers(1, 10 ** 10),
    st.builds(lambda r, e: max(1, r * r - e),
              st.one_of(st.sampled_from(TILE_ROOTS), st.integers(1, 10 ** 5)),
              st.integers(0, 1)))


TILE_EDGES = [r * r - e for r in TILE_ROOTS for e in (0, 1) if r * r > e]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(BATCH_VALUES, max_size=30), st.just(summatory.FLOAT_SUM_MAX))
@example([], summatory.FLOAT_SUM_MAX)
@example([1], summatory.FLOAT_SUM_MAX)
# unsorted, with repeats and m = 1
@example([5, 1, 3, 1, 5, 2, 4, 4], summatory.FLOAT_SUM_MAX)
@example(TILE_EDGES, summatory.FLOAT_SUM_MAX)
# int64 tiles of several rows (unpatched, an int64 row has r > 2^14, alone)
@example(TILE_EDGES, -1)
def test_batched_divisor_counts_match_the_per_point_route(ms, sum_max):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(summatory, "FLOAT_SUM_MAX", sum_max)
        want = [per_point_divisor_count(m) for m in ms]
        assert summatory._hyperbola_counts(ms) == want


def test_batched_divisor_counts_across_the_float_switch_and_2_53():
    # one batch, unsorted, holds float64 rows and int64 rows; every total
    # here passes 2^53, so a sum carried across chunks in float64 would
    # round
    ms = [2 ** 53 + 1, summatory.FLOAT_SUM_MAX - 1, 2 ** 53 - 1,
          summatory.FLOAT_SUM_MAX + 1]
    got = summatory._hyperbola_counts(ms)
    assert got == [per_point_divisor_count(m) for m in ms]
    assert min(got) > 2 ** 53
    # each int64 total sum_{n<=r} floor(m/n) <= m (1 + ln r) fits to the limit
    m = summatory.HYPERBOLA_MAX
    assert m * (1 + math.log(math.isqrt(m))) < 2 ** 63


# the periodic rows against their per-m oracles: the per-n AP loop (so its
# batches stay below ~3e5 and r = 129) and the column count of the disk
PERIODIC_ORACLES = {"ap_4_3": lambda m: loop_ap_divisor(m, APSpec(4, 3)),
                    "chi4": lambda m: column_lattice_count(m) // 4}
PERIODIC_VALUES = {
    "ap_4_3": st.one_of(
        st.integers(1, 3 * 10 ** 5),
        st.builds(lambda r, e: max(1, r * r - e),
                  st.sampled_from([r for r in TILE_ROOTS if r < 500]), st.integers(0, 1))),
    "chi4": BATCH_VALUES}


@pytest.mark.parametrize("sum_max", (summatory.FLOAT_SUM_MAX, 20_000, -1))
@pytest.mark.parametrize("row", PERIODIC_ORACLES)
def test_batched_periodic_rows_match_their_oracles(row, sum_max):
    q, g = HYPERBOLA_ROWS[row]
    oracle = PERIODIC_ORACLES[row]
    edges = [m for m in TILE_EDGES if row == "chi4" or m < 3 * 10 ** 5]

    # unsorted with repeats, tile edges, q above some m, q above every m
    # (ap_4_3's class 3 then leaves no class at [1, 2])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(PERIODIC_VALUES[row], max_size=12))
    @example([])
    @example([5, 1, 3, 1, 5, 2, 4, 4])
    @example(edges)
    @example([2, 1, 2])
    @example([3, 1, 2])
    @example([1])
    def check(ms):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(summatory, "FLOAT_SUM_MAX", sum_max)
            assert summatory._hyperbola_counts(ms, q, g) == [oracle(m) for m in ms]

    check()


def test_square_splits_batch_every_point_of_a_grid(monkeypatch):
    # unsorted, repeated, below the prefix table and above it; all the D
    # values of a grid go to the hyperbola in one batch
    xs = [123_456_789, 10, L, 123_456_789, L + 1, 4 * (L + 1), 99_999_999.5]
    want = [literal_squarefree_sum(math.floor(x)) for x in xs]
    calls = []
    real = summatory._hyperbola_counts

    def spy(ms):
        calls.append(len(ms))
        return real(ms)

    monkeypatch.setattr(summatory, "_hyperbola_counts", spy)
    assert summatory.squarefree_divisor_sums(xs) == want
    assert len(calls) == 1 and calls[0] > len(xs)


def test_convolution_below_the_prefix_table_sets_up_no_kernel(monkeypatch):
    # at x <= L every S_2w(x // d^2) comes from the prefix table: the
    # kernel gets an empty batch, which sizes no mu table and fetches no D
    # table, so the one prefix table fetch is the convolution's own
    calls = dict.fromkeys(("_mobius_sieve", "_prefix_tables"), 0)
    for name in calls:
        def spy(*args, real=getattr(summatory, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(summatory, name, spy)
    assert divisor_sum_from_squarefree(1000).value == 7069
    assert calls == {"_mobius_sieve": 0, "_prefix_tables": 1}


def fsum_bits(values):
    """math.fsum's float as hex, or None where fsum overflows on the way."""
    try:
        return math.fsum(values).hex()
    except OverflowError:
        return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
       st.integers(0, SUM_CHUNK + 1),
       st.one_of(st.just(-1074), st.integers(-1074, 1023)),
       st.integers(0, 2100), st.integers(0, 2 ** 32 - 1))
@example([], 0, 0, 0, 0)
@example([0.0, -0.0], 3, -1074, 0, 1)
@example([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308], SUM_CHUNK + 1,
         -1074, 60, 2)
@example([1.7976931348623157e308, -1.7976931348623157e308, 1.0], 3, 0, 0, 3)
@example([1.0, 2.0 ** -53, 2.0 ** -105], 3, 0, 0, 4)  # a tie, broken below
def test_rounded_sum_is_fsum(drawn, n, low, span, seed):
    # n terms with random signs and exponents in [low, low + span] (clipped
    # at the top of the range; subnormals at the bottom), about one in 16 a
    # zero of either sign, and the drawn floats at random places
    rng = np.random.default_rng(seed)
    exps = rng.integers(low, min(low + span, 1024), n, endpoint=True)
    terms = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n), exps)
    zero = rng.random(n) < 1 / 16
    terms[zero] = np.copysign(0.0, terms[zero])
    spots = rng.choice(n, min(n, len(drawn)), replace=False)
    terms[spots] = drawn[:spots.size]
    ends = sorted(rng.integers(0, n, 3, endpoint=True).tolist()) + [n]
    want = [fsum_bits(terms[:e]) for e in ends]
    if None in want:
        return
    assert summatory._rounded_sum(terms).hex() == want[-1]
    assert [v.hex() for v in summatory._rounded_sums(terms, ends)] == want


def test_prefix_tables_are_lazy():
    # neither import nor the hyperbola builds the tables
    code = ("from divisorlab import summatory as s; "
            "s.divisor_sum_hyperbola(10 ** 9); "
            "print(s._prefix_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"
    before = summatory._prefix_tables.cache_info()
    divisor_sum_hyperbola(10 ** 9)
    assert summatory._prefix_tables.cache_info() == before


def test_brute_worker_counts_agree():
    xs = [12345, 54321, 99999]
    one = brute_force_profile(FnSpec("d"), xs, workers=1)
    four = brute_force_profile(FnSpec("d"), xs, workers=4)
    assert [r.value for r in one] == [r.value for r in four]


def test_brute_covers_every_tag():
    table_oracles = {
        "mu": lambda n: mobius(n),
        "omega": lambda n: omega_distinct(n),
        "r2": lambda n: two_squares_count(n),
        "two_big_omega": brute_2_big_omega,
    }
    for tag, fn in table_oracles.items():
        got = brute_force_sum(FnSpec(tag), 500).value
        assert got == sum(fn(n) for n in range(1, 501))


# every rule of the walk: the ten FnSpec tags (d_k and sigma at several
# parameters) and the rules of d(n^2) and d(n)^2; and d_restricted, which
# has a segment count of its own
WALK_RULES = ([FnSpec(t) for t in ("d", "mu", "mu_squared", "omega", "big_omega",
                                   "two_omega", "two_big_omega", "r2")]
              + [FnSpec("d_k", k=k) for k in (3, 5)]
              + [FnSpec("sigma", a=a) for a in (0, 1, 2)]
              + ["d_of_square", "d_squared"]
              + [FnSpec("d_restricted", q=q, a=a) for q, a in ((4, 3), (7, 5))])
WALK_WINDOW = 64
# rules whose values outgrow int64, each with the first n from which the
# walk returns them as Python ints in an object array: 4 n^a >= 2^62 for
# sigma_a, every n for d_k with k > 21 (d_21's binomials C(e + 20, 20),
# e < 64, are the last to fit int64)
OBJECT_FROM = {FnSpec("sigma", a=2): 1 << 30,
               FnSpec("sigma", a=3): 1 << 20, FnSpec("sigma", a=5): 1 << 12,
               FnSpec("sigma", a=13): 25, FnSpec("d_k", k=21): math.inf,
               FnSpec("d_k", k=22): 1, FnSpec("d_k", k=33): 1,
               FnSpec("d_k", k=40): 1}
# high prime powers, and the square of the largest prime walked in a
# window that holds it (the next prime's square is past the window)
HIGH_POWERS = (2 ** 23, 3 ** 14, 5 ** 10, 3191 ** 2)


def walk_dtype(rule, hi):
    """The dtype the walk of [lo, hi) returns for rule: three rungs.

    object from OBJECT_FROM; int64 for d_k, sigma and d_restricted (its own
    count); and for the other rules int32 while n < 2^31, int64 above.
    """
    if hi - 1 >= OBJECT_FROM.get(rule, hi):
        return object
    if isinstance(rule, FnSpec) and rule.tag in ("d_k", "sigma", "d_restricted"):
        return np.int64
    return np.int32 if hi - 1 < 1 << 31 else np.int64


def pointwise(rule, n):
    if rule == "d_of_square":
        # d(n^2) = sum over d | n of 2^omega(d); trial-factoring n^2 is slow
        return sum(1 << omega_distinct(d) for d in divisors(n))
    if rule == "d_squared":
        return divisor_count(n) ** 2
    return eval_arithmetic(rule, n)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(0, 4000))
@example(0)
def test_walk_rules_match_pointwise(shift):
    # windows past 1, near 1e7 and across 2^21 (a block edge), a
    # short one from 2 (with hi <= 4 no prime is walked, so 2 and 3 reach
    # the leftover fold), and windows that hold a high prime power at
    # offset 0 or further in, so p^k for k >= 3 starts off the multiples
    # of p at every offset
    windows = [(lo, lo + WALK_WINDOW) for lo in
               (2 + shift, 10 ** 7 - 2000 + shift,
                (1 << 21) - 1 - shift % (WALK_WINDOW - 1),
                *(pk - shift % (WALK_WINDOW - 1) for pk in HIGH_POWERS))]
    windows.append((2, 3 + shift % 8))
    cases = [(rule, lo, hi) for lo, hi in windows for rule in WALK_RULES]
    # the object-dtype rules on the windows below 2^22 (pointwise values
    # near 1e7 cost too much for them), and on windows across the int64
    # edges of sigma_5 and sigma_3
    windows += [(lo, lo + WALK_WINDOW) for lo in
                (edge - 1 - shift % (WALK_WINDOW - 1) for edge in (1 << 12, 1 << 20))]
    cases += [(rule, lo, hi) for lo, hi in windows if hi < 1 << 22
              for rule in OBJECT_FROM]
    for rule, lo, hi in cases:
        got = _segment_values(rule, lo, hi)
        assert got.dtype == walk_dtype(rule, hi), (rule, lo)
        assert got.tolist() == [pointwise(rule, n) for n in range(lo, hi)], \
            (rule, lo)


@pytest.mark.parametrize("lo", [(1 << 31) - WALK_WINDOW, (1 << 31) - WALK_WINDOW // 2,
                                (1 << 31) + 11])
def test_walk_rules_match_pointwise_at_the_int32_edge(lo):
    # windows whose last n is 2^31 - 1 (int32), across 2^31 and above it
    # (int64); sigma_2 is past its object edge 2^30 on all three
    hi = lo + WALK_WINDOW
    for rule in WALK_RULES:
        got = _segment_values(rule, lo, hi)
        assert got.dtype == walk_dtype(rule, hi), rule
        assert got.tolist() == [pointwise(rule, n) for n in range(lo, hi)], rule


# blocks whose primes above isqrt(block length) take the batched fold: a
# batched prime's square first and last (p = 11 and 1009 past T = 8 of a
# 64-long block, 37 past T = 31 of a 1000-long one); 7^2 twice in a 64-long
# block (7 <= T, walked one prime at a time); entries with two or three
# batched primes (11 * 13, 11^2 * 13, 11^3 * 13, 11 * 13 * 17, 101 * 103);
# and a block that ends at 2^31 - 1
FOLD_BLOCKS = ([(p * p, p * p + size) for p, size in ((11, 64), (1009, 64), (37, 1000))]
               + [(p * p - size + 1, p * p + 1)
                  for p, size in ((11, 64), (1009, 64), (37, 1000))]
               + [(49, 113), (98, 162), (133, 197), (1550, 1614),
                  (17280, 17344), (2400, 2464), (10400, 10700)]
               + [((1 << 31) - 64, 1 << 31)])
FOLD_RULES = (WALK_RULES + list(OBJECT_FROM)
              + [FnSpec("d_k", k=k) for k in (2, 4, 22)] + [FnSpec("sigma", a=3)])


def test_walk_folds_large_primes_pointwise():
    for lo, hi in FOLD_BLOCKS:
        for rule in FOLD_RULES:
            got = _segment_values(rule, lo, hi)
            assert got.dtype == walk_dtype(rule, hi), (rule, lo)
            assert got.tolist() == [pointwise(rule, n) for n in range(lo, hi)], \
                (rule, lo)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
def test_rule_factors_keep_the_walk_dtype(dtype):
    # a factor in another dtype makes each fold cast it, and ufunc.at takes
    # a slow path; at one prime of the walk, on arrays of primes and
    # exponents, and at the leftover primes with e = 1
    specs = {np.int32: list(summatory._RULES),
             np.int64: list(summatory._RULES) + [FnSpec("d_k", k=3),
                                                 FnSpec("sigma", a=2)],
             object: [FnSpec("d_k", k=22), FnSpec("sigma", a=13)]}[dtype]
    index = np.int64 if dtype is object else dtype
    e = np.array([1, 2, 3, 1, 4], dtype=index)
    primes = np.array([2, 3, 5, 7, 13], dtype=index)
    for spec in specs:
        factor = summatory._rule(spec, dtype)[2]
        for g in (*(factor(p, e) for p in (2, 3, 5)), factor(primes, e),
                  factor(primes, np.ones(1, dtype=index))):
            assert np.asarray(g).dtype == dtype, spec


def test_exact_array_sum_of_python_ints():
    values = [(1 << 63) + 5, 3 ** 45, -(1 << 70), 7, 0]
    arr = np.array(values, dtype=object)
    assert summatory._exact_array_sum(arr, max(map(abs, values))) == sum(values)
    assert summatory._exact_array_sum(arr[:0], 1) == 0


@pytest.mark.parametrize("lo", [0, -5])
def test_walk_refuses_a_start_below_one_quickly(lo):
    # at n = 0 every p^k divides n, so the exponent loop would never end
    for walk in (lambda: _segment_values("d", lo, 5),
                 lambda: _walk_segment_values(FnSpec("mu"), lo, 5, _worker_primes(5))):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="n >= 1"):
            walk()
        assert time.perf_counter() - t0 < 0.05


WEIGHTED_RULES = ("d", "two_omega", "two_big_omega")
# one segment long, so a scan to any m <= REFERENCE_TOP is one chunk list
REFERENCE_TOP = 1_550_000


@lru_cache(maxsize=None)
def weighted_terms(rule):
    """f(n)/n for n = 1..REFERENCE_TOP from one walk, and its chunk fsums."""
    hi = REFERENCE_TOP + 1
    vals = _walk_segment_values(rule, 1, hi, _worker_primes(hi))
    w = vals / np.arange(1, hi, dtype=np.float64)
    chunk = summatory.SUM_CHUNK
    return w, [math.fsum(w[i:i + chunk]) for i in range(0, w.size, chunk)]


def chunked_fsum(rule, m):
    """fsum of the fsums of the SUM_CHUNK chunks of f(1)/1, ..., f(m)/m."""
    w, full = weighted_terms(rule)
    chunk = summatory.SUM_CHUNK
    return math.fsum(full[i // chunk] if i + chunk <= m else math.fsum(w[i:m])
                     for i in range(0, m, chunk))


def weighted_scan(rule, ms):
    """f(n)/n summed to each m of ms, from one weighted walk."""
    table = summatory._weighted_sums(rule, ms, summatory.ORACLE_BOUND_DEFAULT)
    return [table[m] for m in ms]


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.lists(st.integers(1, 3 * summatory.SUM_CHUNK), min_size=1, max_size=4))
@example([1, 65535, 65536, 65537, 3 * summatory.SUM_CHUNK])
def test_weighted_profile_is_checkpoint_invariant(xs):
    # the float at a checkpoint is the one a scan to it alone gives, and
    # that is the chunked fsum, whatever other checkpoints the scan holds
    for rule in WEIGHTED_RULES:
        profile = weighted_scan(rule, xs)
        assert profile == [weighted_scan(rule, [x])[0] for x in xs], rule
        assert profile == [chunked_fsum(rule, x) for x in xs], rule
    assert auxiliary_sums(xs) == weighted_scan("two_omega", xs)


def test_weighted_profile_rounds_once_per_checkpoint():
    # an error_profile-shaped grid: 37 points over up to 24 chunks, where
    # adding up the chunk fsums in floats moves the last bit at some points
    grid = half_integer_grid(110, REFERENCE_TOP, 1.3)
    ms = [math.floor(x) for x in grid]
    for rule in WEIGHTED_RULES:
        assert weighted_scan(rule, ms) == [chunked_fsum(rule, m) for m in ms], rule
    assert auxiliary_sums(grid) == weighted_scan("two_omega", ms)


def test_scans_keep_their_values_in_1024_long_blocks(monkeypatch):
    # hundreds of block edges, and walks whose batched primes start at
    # T = 32; a weighted walk still sums whole SUM_CHUNK chunks (chunks
    # cut at the 1024-long walk edges would move a dozen of these sums in
    # the last bit)
    xs = sorted({1, 1023, 1024, 1025, 3 * summatory.SUM_CHUNK + 1, 250_001,
                 *(math.floor(x) for x in half_integer_grid(110, 250_001, 1.1))})
    rules = ("d", "mu", "r2", FnSpec("sigma", a=1), FnSpec("d_k", k=22))
    want = {rule: summatory._brute_scan(rule, xs, max(xs)) for rule in rules}
    weighted = {rule: weighted_scan(rule, xs) for rule in WEIGHTED_RULES}
    walks = []

    def spy(f, lo, hi):
        walks.append(hi - lo)
        return _segment_values(f, lo, hi)

    monkeypatch.setattr(summatory, "SEGMENT_SIZE", 1024)
    monkeypatch.setattr(summatory, "_segment_values", spy)
    for rule in rules:
        assert summatory._brute_scan(rule, xs, max(xs), workers=2) == want[rule], rule
    for rule in WEIGHTED_RULES:
        assert weighted_scan(rule, xs) == weighted[rule], rule
    assert max(walks) == 1024


def test_pool_never_exceeds_segments_or_cpus(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks[-1] += 1
        return real_fork()

    def scan(workers):
        forks.append(0)
        return brute_force_sum(FnSpec("mu"), 3000, workers=workers).value

    want = brute_force_sum(FnSpec("mu"), 3000).value
    monkeypatch.setattr(summatory.os, "fork", fork)
    monkeypatch.setattr(summatory, "SEGMENT_SIZE", 1000)
    monkeypatch.setattr(summatory.os, "cpu_count", lambda: 64)
    assert scan(10 ** 9) == want
    monkeypatch.setattr(summatory.os, "cpu_count", lambda: 2)
    assert scan(10 ** 9) == want
    assert scan(1) == want
    assert forks == [3, 2, 0]
    with pytest.raises(ValueError):
        brute_force_sum(FnSpec("mu"), 3000, workers=0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def two_walkers(monkeypatch):
    # 1000-long blocks, and two walkers whatever the host's CPU count
    monkeypatch.setattr(summatory, "SEGMENT_SIZE", 1000)
    monkeypatch.setattr(summatory.os, "cpu_count", lambda: 2)


def test_a_walker_exception_is_raised_with_its_type_and_message(monkeypatch,
                                                               two_walkers):
    real_task = summatory._segment_task

    def task(args):
        if args[1] > 2000:
            raise ResourceLimitError(f"no block from {args[1]}")
        return real_task(args)

    monkeypatch.setattr(summatory, "_segment_task", task)
    with pytest.raises(ResourceLimitError) as caught:
        brute_force_sum(FnSpec("mu"), 3000, workers=2)
    assert type(caught.value) is ResourceLimitError
    assert str(caught.value) == "no block from 2001"
    assert_no_child_left()


def test_no_walker_outlives_its_scan(monkeypatch, two_walkers):
    want = brute_force_sum(FnSpec("d"), 5000).value
    assert brute_force_sum(FnSpec("d"), 5000, workers=2).value == want
    assert_no_child_left()
    # a walker that dies without a word
    monkeypatch.setattr(summatory, "_segment_task", lambda args: os._exit(3))
    with pytest.raises(ChildProcessError, match="exited with tasks left"):
        brute_force_sum(FnSpec("d"), 5000, workers=2)
    assert_no_child_left()

    # an exception in the parent while the walkers walk
    class Interrupt(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupt

    monkeypatch.setattr(summatory, "_segment_task", lambda args: time.sleep(30))
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        t0 = time.perf_counter()
        with pytest.raises(Interrupt):
            brute_force_sum(FnSpec("d"), 5000, workers=2)
        assert time.perf_counter() - t0 < 10
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def test_floor_sum_identity():
    for x in (1, 2, 10, 99, 100, 5000):
        assert floor_sum(x) == sum(x // n for n in range(1, x + 1))
    # floor_sum is the divisor sum in disguise
    assert floor_sum(10 ** 5) == divisor_sum_hyperbola(10 ** 5).value


def test_oracle_bound_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_sum(FnSpec("d"), 10 ** 9)
    with pytest.raises(ResourceLimitError):
        brute_force_sum(FnSpec("d"), 2000, bound=1000)


@pytest.mark.parametrize("route, limit, largest_used", [
    # largest_used: the top of the benchmark band of each route (the
    # voronoi D reference stays below 6.33e7 and the sierpinski lattice
    # count at 6e3; no benchmark op runs ap, whose golden line is 2.7e8)
    (divisor_sum_hyperbola, summatory.HYPERBOLA_MAX, 3e13),
    (squarefree_divisor_sum, summatory.MOEBIUS_KERNEL_MAX, 1.9e11),
    (divisor_sum_from_squarefree, summatory.CONVOLUTION_MAX, 1e10),
    (circle_lattice_sum, summatory.HYPERBOLA_MAX, 6e3),
    pytest.param(partial(ap_divisor_sum, ap=APSpec(4, 3)),
                 summatory.HYPERBOLA_MAX, 2.7e8, id="ap_divisor_sum"),
])
def test_sublinear_routes_refuse_past_their_limit_quickly(route, limit,
                                                          largest_used):
    assert limit > largest_used
    table = summatory._MU_TABLE.size
    prefix = summatory._prefix_tables.cache_info()
    for x in (limit + 1, 10 ** 20, 1e300):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="limit"):
            route(x)
        assert time.perf_counter() - t0 < 0.05
    assert summatory._MU_TABLE.size == table
    assert summatory._prefix_tables.cache_info() == prefix


def test_result_container_validation():
    with pytest.raises(ValueError):
        SummatoryResult(x=1.0, fn="d", value=1, algorithm="quantum")


# ---------------------------------------------------------------------------
# arithmetic progressions, harmonic and fractional sums
# ---------------------------------------------------------------------------

def test_ap_divisor_sum_vs_brute():
    m = 2000
    for q in (3, 4, 5):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            spec = FnSpec("d_restricted", q=q, a=a)
            prof = brute_force_profile(spec, range(1, m + 1))
            ap = APSpec(q=q, a=a)
            for x in range(1, m + 1):
                assert ap_divisor_sum(x, ap).value == prof[x - 1].value


def test_ap_divisor_sum_vs_brute_across_segments():
    # the brute route counts divisors per segment, never via floor sums
    xs = [(1 << 21) - 1, 1 << 21, (1 << 21) + 1, 3 * (1 << 21) + 5]
    for q, a in ((4, 3), (3, 2)):
        prof = brute_force_profile(FnSpec("d_restricted", q=q, a=a), xs,
                                   workers=2)
        assert [r.value for r in prof] == \
            [ap_divisor_sum(x, APSpec(q=q, a=a)).value for x in xs]


def test_ap_divisor_pointwise_oracle():
    # independent of the profile machinery: direct double loop
    ap = APSpec(q=4, a=1)
    x = 300
    want = sum(restricted_divisor_count(n, 4, 1) for n in range(1, x + 1))
    res = ap_divisor_sum(x, ap)
    # a row of the hyperbola kernel, tagged as the D row is
    assert (res.value, res.algorithm) == (want, "hyperbola")


def test_ap_divisor_sum_with_a_modulus_past_x():
    # the hyperbola row reads a modulus above x as x + 1, keeping int64 exact
    for x in (1, 7, 1000, 10 ** 8):
        for q, a in ((x + 1, x), (2 ** 63 + 1, 7), (10 ** 20 + 1, 10 ** 20)):
            assert ap_divisor_sum(x, APSpec(q, a)).value == \
                loop_ap_divisor(x, APSpec(q, a))


def test_ap_divisor_sum_labels_its_row_as_fnspec_does():
    # the label is formed once per class; repeated calls, interleaved over
    # classes, keep FnSpec's text
    classes = [(3, 1), (3, 2), (4, 3), (7, 3), (1000003, 2), (10 ** 20 + 1, 7)]
    for x in (1, 10, 5000, 1, 10):
        for q, a in classes:
            res = ap_divisor_sum(x, APSpec(q=q, a=a))
            assert res.fn == FnSpec("d_restricted", q=q, a=a).label()


def test_ap_main_term_tracks_sum():
    ap = APSpec(q=3, a=2)
    x = 10 ** 6
    exact = ap_divisor_sum(x, ap).value
    pred = ap_main_term(x, ap)
    # error should be well below x^(3/4) at this scale
    assert abs(exact - pred) < x ** 0.75


def test_harmonic_sum_oracle():
    assert harmonic_sum(1) == 1.0
    got = harmonic_sum(10 ** 4)
    want = math.fsum(1.0 / n for n in range(1, 10 ** 4 + 1))
    assert got == pytest.approx(want, rel=1e-15)
    ap = APSpec(q=3, a=1)
    got = harmonic_sum(10 ** 4, ap)
    want = math.fsum(1.0 / n for n in range(1, 10 ** 4 + 1) if n % 3 == 1)
    assert got == pytest.approx(want, rel=1e-15)


def test_harmonic_main_term_residual():
    for x in (10 ** 3, 10 ** 4, 10 ** 5):
        r = harmonic_sum(x) - harmonic_main_term(x)
        assert abs(r) * x < 1.0  # residual is O(1/x) with a tiny constant


def test_fractional_part_sum_oracle():
    # direct oracle: sum of {x/n} over n <= x
    for x in (100, 1000.5, 2500.25):
        m = floor_to_int(x)
        want = math.fsum(x / n - math.floor(x / n) for n in range(1, m + 1))
        assert fractional_part_sum(x) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("loop", [harmonic_sum, fractional_part_sum])
def test_linear_loops_refuse_past_the_bound_quickly(loop):
    for x, kwargs in ((10 ** 12, {}), (1e300, {}), (2001, {"bound": 2000}),
                      (10 ** 12, {"bound": 10 ** 11})):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="oracle bound"):
            loop(x, **kwargs)
        assert time.perf_counter() - t0 < 0.05
    assert loop(2000, bound=2000) == loop(2000)


@pytest.mark.parametrize("spec", [FnSpec("sigma", a=3), FnSpec("d_k", k=33)])
def test_pointwise_fallback_refuses_past_its_cap_quickly(spec):
    cap = summatory.POINTWISE_MAX
    assert summatory._walk_dtype(spec, cap) is object
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=str(cap)):
        brute_force_sum(spec, cap + 1)
    assert time.perf_counter() - t0 < 0.05


def test_sigma_dtype_is_decided_without_forming_m_to_the_a():
    # int64 exactly while 4 m^a < 2^62, as the walk's rule products need
    for a in (1, 2, 3, 20, 59, 60, 61):
        for m in (1, 2, 3, 2 ** 20, 2 ** 20 + 1, 3 * 10 ** 6, 10 ** 18):
            want = np.int64 if 4 * m ** a < 2 ** 62 else object
            assert summatory._walk_dtype(FnSpec("sigma", a=a), m) is want, (a, m)
    t0 = time.perf_counter()
    assert summatory._walk_dtype(FnSpec("sigma", a=10 ** 11), 10) is object
    assert time.perf_counter() - t0 < 0.05


def test_fractional_limit_constant():
    x = 10 ** 6
    assert fractional_part_sum(x) / x == pytest.approx(1 - EULER_GAMMA, rel=0.01)
    assert fractional_main_term(x) / x == pytest.approx(1 - EULER_GAMMA, rel=1e-12)


# ---------------------------------------------------------------------------
# lattice counts and shifted correlation
# ---------------------------------------------------------------------------

def column_lattice_count(m):
    """Lattice points with 0 < a^2 + b^2 <= m, one column of the disk per a."""
    r = math.isqrt(m)
    disk = sum(2 * math.isqrt(m - a * a) + 1 for a in range(-r, r + 1))
    return disk - 1  # origin excluded


def test_circle_lattice_vs_brute_disk():
    for m in (1, 2, 10, 100, 1000, 2500):
        assert circle_lattice_sum(m) == column_lattice_count(m)


def test_circle_lattice_vs_r2_partial_sums():
    m = 2000
    acc = 0
    for n in range(1, m + 1):
        acc += two_squares_count(n)
        if n in (100, 1000, 2000):
            assert circle_lattice_sum(n) == acc
    assert circle_lattice_sum(100) == 316
    assert circle_lattice_sum(1000) == 3148
    assert circle_lattice_sum(0) == 0
    assert circle_lattice_sum(0.5) == 0
    with pytest.raises(ValueError):
        circle_lattice_sum(-1)


# ---------------------------------------------------------------------------
# T(x) and the coefficient sums of verify's identities
# ---------------------------------------------------------------------------

def test_auxiliary_sums_small_oracles():
    m = 2000
    assert summatory._brute_scan("d_of_square", [m], m)[m] == sum(
        divisor_count(n * n) for n in range(1, m + 1))
    assert summatory._brute_scan("d_squared", [m], m)[m] == sum(
        divisor_count(n) ** 2 for n in range(1, m + 1))
    got, = auxiliary_sums([m])
    want = math.fsum(2.0 ** omega_distinct(n) / n for n in range(1, m + 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_auxiliary_sums_refuse_past_bound_before_any_walk(monkeypatch):
    walks = []

    def spy(f, lo, hi):
        walks.append((lo, hi))
        return _segment_values(f, lo, hi)

    monkeypatch.setattr(summatory, "_segment_values", spy)
    with pytest.raises(ResourceLimitError, match="x=2001 exceeds the oracle bound 2000"):
        auxiliary_sums([10.5, 2001.5, 300], bound=2000)
    assert walks == []
    # the bound holds floor(x): 2000.5 walks to 2000
    auxiliary_sums([2000.5], bound=2000)
    assert walks == [(1, 2001)]


def brute_2_big_omega(n):
    count = 0
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    if n > 1:
        count += 1
    return 2 ** count


def test_main_term_anchors():
    x = 10.0
    want = (math.log(x) + 2 * EULER_GAMMA - 1) * x
    assert divisor_main_term(x) == pytest.approx(want, rel=1e-15)
