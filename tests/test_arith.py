"""Pointwise arithmetic functions against slow from-scratch oracles.

The oracles here deliberately avoid everything the library does: divisor
properties come from scanning all candidates, factorizations from naive
trial division, r2 from enumerating lattice representations.
"""

import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divisorlab
from divisorlab import (FnSpec, dirichlet_coefficients, divisor_count,
                        divisor_count_k, divisor_count_sieve, divisors,
                        factorize, hermite_divisor_count, mobius, omega_distinct,
                        omega_total, primes_up_to, restricted_divisor_count,
                        sigma, two_squares_count)
from divisorlab.arith import (TABLE_LIMIT_MAX, build_factor_table,
                              eval_arithmetic)
from divisorlab.errors import ResourceLimitError


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_factorize(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_d3(n):
    count = 0
    for a in range(1, n + 1):
        if n % a:
            continue
        m = n // a
        for b in range(1, m + 1):
            if m % b == 0:
                count += 1
    return count


def oracle_r2(n):
    count = 0
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        rem = n - a * a
        s = math.isqrt(rem)
        if s * s == rem:
            count += 2 if s else 1
    return count


# ---------------------------------------------------------------------------
# factorization layer
# ---------------------------------------------------------------------------

def test_primes_up_to_oracle():
    want = [n for n in range(2, 1000)
            if all(n % p for p in range(2, math.isqrt(n) + 1))]
    assert primes_up_to(999) == want
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_factorize_small_exhaustive():
    table = build_factor_table(2000)
    for n in range(2, 2001):
        assert factorize(n, table) == oracle_factorize(n)
        assert factorize(n) == oracle_factorize(n)


def test_factorize_random_large():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randrange(2, 10 ** 6)
        fact = factorize(n)
        assert fact == oracle_factorize(n)
        prod = 1
        for p, e in fact:
            prod *= p ** e
        assert prod == n


def test_factor_table_limit_guard():
    with pytest.raises(ResourceLimitError):
        build_factor_table(TABLE_LIMIT_MAX + 1)


# ---------------------------------------------------------------------------
# the divisor family
# ---------------------------------------------------------------------------

def test_divisor_functions_exhaustive():
    table = build_factor_table(2000)
    for n in range(1, 2001):
        ds = oracle_divisors(n)
        assert divisors(n, table) == ds
        assert divisor_count(n, table) == len(ds)
        assert sigma(n, 0, table) == len(ds)
        assert sigma(n, 1, table) == sum(ds)
        assert sigma(n, 2, table) == sum(d * d for d in ds)


def test_divisor_count_anchor_values():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(2 ** 10) == 11
    assert divisor_count(720720) == 240


def test_d3_matches_double_loop():
    table = build_factor_table(400)
    for n in range(1, 401):
        assert divisor_count_k(n, 3, table) == oracle_d3(n)


def test_dk_multiplicative_random():
    rng = random.Random(202)
    table = build_factor_table(10 ** 4)
    for _ in range(200):
        m = rng.randrange(2, 100)
        n = rng.randrange(2, 100)
        if math.gcd(m, n) != 1:
            continue
        for k in (2, 3, 4, 5):
            assert (divisor_count_k(m * n, k, table)
                    == divisor_count_k(m, k, table) * divisor_count_k(n, k, table))


def test_dk_prime_power_closed_form():
    # d_k(p^e) = C(e + k - 1, k - 1)
    for p in (2, 3, 5, 7):
        for e in range(0, 7):
            for k in (2, 3, 4):
                assert divisor_count_k(p ** e, k) == math.comb(e + k - 1, k - 1)


def test_mobius_and_omega_exhaustive():
    table = build_factor_table(2000)
    for n in range(1, 2001):
        fact = oracle_factorize(n) if n > 1 else ()
        squarefree = all(e == 1 for _, e in fact)
        assert omega_distinct(n, table) == len(fact)
        assert omega_total(n, table) == sum(e for _, e in fact)
        if squarefree:
            assert mobius(n, table) == (1 if len(fact) % 2 == 0 else -1)
        else:
            assert mobius(n, table) == 0


def test_hermite_identity():
    counts = divisor_count_sieve(20000)
    for n in range(1, 20001):
        assert hermite_divisor_count(n) == int(counts[n])


def test_divisor_count_sieve_against_pointwise():
    arr = divisor_count_sieve(5000)
    assert arr[0] == 0
    table = build_factor_table(5000)
    for n in range(1, 5001):
        assert int(arr[n]) == divisor_count(n, table)


# ---------------------------------------------------------------------------
# restricted divisors and sums of two squares
# ---------------------------------------------------------------------------

def test_restricted_divisor_count_oracle():
    table = build_factor_table(1500)
    for q, a in ((3, 1), (3, 2), (4, 1), (4, 3), (5, 2)):
        for n in range(1, 1501):
            want = sum(1 for d in oracle_divisors(n) if d % q == a)
            assert restricted_divisor_count(n, q, a, table) == want


def test_two_squares_exhaustive():
    table = build_factor_table(3000)
    for n in range(1, 3001):
        assert two_squares_count(n, table) == oracle_r2(n)


def test_two_squares_anchor_values():
    assert two_squares_count(1) == 4
    assert two_squares_count(2) == 4
    assert two_squares_count(3) == 0
    assert two_squares_count(5) == 8
    assert two_squares_count(25) == 12


# ---------------------------------------------------------------------------
# FnSpec and the shared evaluator
# ---------------------------------------------------------------------------

def test_fnspec_parse_label_round_trip():
    for text in ("d", "mu", "mu_squared", "omega", "big_omega", "two_omega",
                 "two_big_omega", "r2", "d_3", "sigma_2", "d_restricted_4_1"):
        assert FnSpec.parse(text).label() == text


def _specs():
    simple = st.sampled_from(["d", "mu", "mu_squared", "omega", "big_omega",
                              "two_omega", "two_big_omega", "r2"]).map(FnSpec)
    d_k = st.integers(2, 10 ** 6).map(lambda k: FnSpec("d_k", k=k))
    sig = st.integers(0, 10 ** 6).map(lambda a: FnSpec("sigma", a=a))
    restricted = st.integers(2, 10 ** 6).flatmap(
        lambda q: st.integers(1, q - 1).filter(lambda a: math.gcd(a, q) == 1)
        .map(lambda a: FnSpec("d_restricted", q=q, a=a)))
    return st.one_of(simple, d_k, sig, restricted)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_specs())
def test_fnspec_label_parses_back(spec):
    assert FnSpec.parse(spec.label()) == spec


def test_fnspec_rejects_bad_specs():
    with pytest.raises(ValueError):
        FnSpec("d", k=2)
    with pytest.raises(ValueError):
        FnSpec("d_k", k=1)
    with pytest.raises(ValueError):
        FnSpec("sigma")
    with pytest.raises(ValueError):
        FnSpec("d_restricted", q=4, a=2)
    with pytest.raises(ValueError):
        FnSpec("unknown_tag")
    with pytest.raises(ValueError, match="unknown function spec"):
        FnSpec.parse("zeta")
    # each parameter is a run of decimal digits, as label() writes it
    for text, tag in [("sigma_+2", "sigma"), ("sigma_-1", "sigma"),
                      ("sigma_2_0", "sigma"), ("sigma_", "sigma"),
                      ("d_3_4", "d_k"), ("d_restricted", "d_k"),
                      ("d_restricted_4", "d_restricted"),
                      ("d_restricted_4_1_1", "d_restricted")]:
        with pytest.raises(ValueError, match=f"bad {tag} spec"):
            FnSpec.parse(text)


def test_eval_arithmetic_matches_parts():
    table = build_factor_table(500)
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randrange(1, 501)
        assert eval_arithmetic(FnSpec("d"), n, table) == divisor_count(n, table)
        assert eval_arithmetic(FnSpec("two_omega"), n, table) == 2 ** omega_distinct(n, table)
        assert eval_arithmetic(FnSpec("two_big_omega"), n, table) == 2 ** omega_total(n, table)
        assert eval_arithmetic(FnSpec("mu_squared"), n, table) == abs(mobius(n, table))
        assert eval_arithmetic(FnSpec("r2"), n, table) == oracle_r2(n)


# ---------------------------------------------------------------------------
# Dirichlet series coefficients
# ---------------------------------------------------------------------------

def test_dirichlet_identities_pointwise():
    n_max = 2000
    table = build_factor_table(n_max)
    sq = dirichlet_coefficients("zeta_sq_over_zeta2s", n_max)
    cu = dirichlet_coefficients("zeta_cu_over_zeta2s", n_max)
    quad = dirichlet_coefficients("zeta_4_over_zeta2s", n_max)
    for n in range(1, n_max + 1):
        assert sq[n] == 2 ** omega_distinct(n, table)
        assert cu[n] == divisor_count(n * n)
        assert quad[n] == divisor_count(n, table) ** 2


def test_dirichlet_zeta_k_pointwise():
    n_max = 2000
    table = build_factor_table(n_max)
    for k in (3, 4, 5):
        coef = dirichlet_coefficients("zeta_k", n_max, k=k)
        for n in range(1, n_max + 1):
            assert coef[n] == divisor_count_k(n, k, table)


def test_dirichlet_sigma_product_pointwise():
    n_max = 1000
    table = build_factor_table(n_max)
    coef = dirichlet_coefficients("sigma_product", n_max, a=1, b=2)
    for n in range(1, n_max + 1):
        assert coef[n] == sigma(n, 1, table) * sigma(n, 2, table)


# ---------------------------------------------------------------------------
# one engine
# ---------------------------------------------------------------------------

def test_only_arith_names_the_pointwise_engine():
    # the program takes every value from summatory's prime-exponent walk; the
    # factor table and eval_arithmetic live on in arith as this suite's oracle
    names = ("FactorTable", "build_factor_table", "eval_arithmetic",
             "_python_scan")
    package = pathlib.Path(divisorlab.__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "arith.py")
    assert len(modules) >= 10
    for path in modules:
        text = path.read_text(encoding="utf-8")
        assert [n for n in names if n in text] == [], path.name


def test_only_arith_names_the_divisor_count_sieve():
    # every d(n) the program uses comes from the walk; the sieve is the
    # tests' oracle, re-exported by the package
    package = pathlib.Path(divisorlab.__file__).parent
    modules = sorted(p for p in package.rglob("*.py")
                     if p.name not in ("arith.py", "__init__.py"))
    assert len(modules) >= 9
    for path in modules:
        assert "divisor_count_sieve" not in path.read_text(encoding="utf-8"), path.name
