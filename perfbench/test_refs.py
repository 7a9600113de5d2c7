"""Tests of the benchmark's reference checks against naive enumeration.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import random

import mpmath
import pytest

import checks
import refs
import workloads


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_d(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if n % k == 0)


def naive_mu(n: int) -> int:
    f = factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def naive_r2(n: int) -> int:
    r = math.isqrt(n)
    return sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b == n)


@pytest.fixture
def small_tables(monkeypatch):
    """Force the hyperbola and multi-segment paths at small x."""
    monkeypatch.setattr(refs, "D_TABLE_LIMIT", 50)
    monkeypatch.setattr(refs, "SEGMENT", 64)


@pytest.mark.parametrize("use_small_tables", [False, True])
def test_summatory_values_match_enumeration(use_small_tables, request):
    if use_small_tables:
        request.getfixturevalue("small_tables")
    d_total = s_total = mu_total = r2_total = 0
    mus = refs.mertens_at(range(1, 601))
    for m in range(1, 601):
        d_total += naive_d(m)
        s_total += 2 ** len(factorize(m))
        mu_total += naive_mu(m)
        r2_total += naive_r2(m)
        assert refs.divisor_summatory(m) == d_total, m
        assert refs.squarefree_summatory(m) == s_total, m
        assert mus[m] == mu_total, m
        assert refs.circle_count(m) == r2_total, m


def test_pointwise_tables_match_enumeration():
    limit = 500
    assert list(refs.divisor_counts(limit)[1:]) == [naive_d(n) for n in range(1, limit + 1)]
    assert list(refs.r2_counts(limit)) == [naive_r2(n) if n else 1
                                           for n in range(limit + 1)]
    assert list(refs.mobius_segment(1, limit + 1)) == [naive_mu(n)
                                                       for n in range(1, limit + 1)]
    assert list(refs.mobius_segment(200, 320)) == [naive_mu(n) for n in range(200, 320)]
    prefix = refs.two_omega_over_n_prefix(limit)
    for m in (1, 2, 97, 360, limit):
        want = math.fsum(2 ** len(factorize(n)) / n for n in range(1, m + 1))
        assert abs(float(prefix[m]) - want) <= 1e-15 * want


def test_main_terms_match_closed_forms():
    gamma, zp2 = 0.5772156649015329, -0.9375482543158437
    z2 = math.pi ** 2 / 6
    for x in (10.5, 12345.5, 9.9e7 + 0.5):
        lx = math.log(x)
        want = {"divisor_sum": (lx + 2 * gamma - 1) * x,
                "two_omega_sum": (lx + 2 * gamma - 1 - 2 * zp2 / z2) * x / z2,
                "two_omega_over_n_sum": (lx * lx / 2 + (2 * gamma - 2 * zp2 / z2) * lx) / z2}
        for target, value in want.items():
            assert abs(refs.main_term(target, x) - value) <= 1e-13 * abs(value)
    assert refs.constant_term("two_omega_over_n_sum") == pytest.approx(2 * gamma - 1,
                                                                       abs=1e-15)


def test_zero_pair_terms_from_known_first_zero():
    t1 = mpmath.mpf("14.134725141734693790457251983562")
    rho = mpmath.mpc(0.5, t1)
    w = mpmath.zeta(rho / 2) ** 2 / (rho * mpmath.zeta(rho, derivative=1))
    x = 100.5
    want = 2 * 2 * mpmath.re(w * mpmath.mpf(x) ** (rho / 2))
    assert refs.zero_pair_partials("two_omega_sum", x, 1)[0] == pytest.approx(
        float(want), rel=1e-12)
    partials = refs.zero_pair_partials("divisor_sum", x, 3)
    assert len(partials) == 3 and partials[0] != partials[1]


def test_tail_matches_term_by_term_sum():
    x = 20.5
    want = -sum(mpmath.zeta(-2 * n - 1) ** 2
                / (2 * (2 * n + 1) * mpmath.diff(mpmath.zeta, -2 * (2 * n + 1)))
                * x ** (-(2 * n + 2)) for n in range(10))
    assert refs.trivial_tail("two_omega_over_n_sum", x, 10) == pytest.approx(
        float(want), rel=1e-12)


def test_bessel_series_match_mpmath_term_loops():
    x, n_terms = 10.5, 60
    d = [naive_d(n) for n in range(1, n_terms + 1)]
    terms = []
    for n in range(1, n_terms + 1):
        z = 4 * mpmath.pi * mpmath.sqrt(n * x)
        terms.append(d[n - 1] / mpmath.sqrt(n)
                     * (mpmath.besselk(1, z) + mpmath.pi / 2 * mpmath.bessely(1, z)))
    want = (0.25 + (mpmath.log(x) + 2 * mpmath.euler - 1) * x
            - 2 * mpmath.sqrt(x) / mpmath.pi * mpmath.fsum(terms))
    value, last, _ = refs.voronoi_full(x, n_terms)
    assert value == pytest.approx(float(want), rel=1e-13)
    assert last == pytest.approx(float(abs(terms[-1]) * 2 * mpmath.sqrt(x) / mpmath.pi),
                                 rel=1e-10)

    lattice = mpmath.fsum(naive_r2(n) / mpmath.sqrt(n)
                          * mpmath.besselj(1, 2 * mpmath.pi * mpmath.sqrt(n * x))
                          for n in range(1, n_terms + 1))
    want = mpmath.pi * x + mpmath.sqrt(x) * lattice
    assert refs.sierpinski(x, n_terms)[0] == pytest.approx(float(want), rel=1e-13)


def test_grid_follows_documented_rule():
    assert workloads.grid_points(100, 200, 1.2) == [100.5, 120.5, 144.5, 172.5]
    assert workloads.grid_points(1, 3, 1.1) == [1.5, 2.5]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_op_lists_are_seeded_whole_rounds(name):
    w = workloads.WORKLOADS[name]
    for seed in range(20):
        ops = w.ops(random.Random(f"{name}:{seed}"), 20)
        again = w.ops(random.Random(f"{name}:{seed}"), 20)
        assert [op.argv for op in ops] == [op.argv for op in again]
        assert len(ops) % w.cycle == 0 and ops
        shapes = [workloads_shape(op) for op in ops]
        assert shapes == shapes[:w.cycle] * (len(ops) // w.cycle)
        for op in ops:
            x = op.params.get("x")
            if x is not None:
                assert x < 2 ** 53 and (2 * x) == int(2 * x)
            if op.kind == "full":
                assert 4 * math.pi * math.sqrt(op.params["terms"] * x) <= 1e5
            if op.kind == "sierpinski":
                assert 2 * math.pi * math.sqrt(op.params["terms"] * x) <= 1e5
            if name == "oracle_scan":
                assert 5 * 2 ** 21 < x <= 6 * 2 ** 21


def workloads_shape(op):
    return op.argv[:3] + [op.kind]


def test_checks_reject_wrong_outputs():
    op = workloads.sum_op("two_omega", "brute", 1000)
    right = f"x,fn,value,algorithm\n1000,two_omega,{refs.squarefree_summatory(1000)},brute\n"
    assert checks.check_sums([op], [right]) == []
    wrong = right.replace(str(refs.squarefree_summatory(1000)),
                          str(refs.squarefree_summatory(1000) + 1))
    assert checks.check_sums([op], [wrong])

    op = workloads.grid_op("delta", "d", 100, 300, 1.5)
    rows = ["x,exact,predicted,delta,delta_over_x14,delta_over_x12"]
    for x in op.params["xs"]:
        e, p = refs.divisor_summatory(math.floor(x)), refs.main_term("divisor_sum", x)
        d = e - p
        rows.append(f"{x:.15g},{e},{p:.15g},{d:.15g},{d / x ** 0.25:.15g},"
                    f"{d / math.sqrt(x):.15g}")
    good = "\n".join(rows) + "\n"
    assert checks.check_profiles([op], [good]) == []
    bad = good.replace(f",{refs.divisor_summatory(150)},", f",{refs.divisor_summatory(150) - 1},")
    assert checks.check_profiles([op], [bad])
