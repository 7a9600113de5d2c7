"""Zeta engine against mpmath and closed forms.

mpmath is test-only: the library itself computes everything from its own
Euler-Maclaurin machinery, and these tests confirm that independently.
"""

import cmath
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from divisorlab import (ZeroTable, bernoulli_number, default_zero_table,
                        digamma, generalized_euler_constant, load_zero_table,
                        stieltjes, zeta, zeta_derivative,
                        zeta_exact_negative_odd, zeta_negative_special)
from divisorlab.zeta import EULER_GAMMA as PACKAGE_GAMMA
from divisorlab.zeta import ZETA_PRIME_2, zeta_at_ordinate
from divisorlab.errors import PoleError, TableFormatError

mpmath.mp.dps = 30

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# special values (frozen anchors first, then the independent oracle)
# ---------------------------------------------------------------------------

def test_special_value_anchors():
    assert zeta(0.0).real == pytest.approx(-0.5, abs=1e-10)
    assert zeta(2.0).real == pytest.approx(math.pi ** 2 / 6, abs=1e-10)
    assert zeta(-1.0).real == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert zeta(-3.0).real == pytest.approx(1.0 / 120.0, abs=1e-10)
    assert zeta_derivative(2.0).real == pytest.approx(-0.937548254, abs=1e-8)
    assert zeta_derivative(-2.0).real == pytest.approx(-0.030448457, abs=1e-8)
    assert stieltjes(1) == pytest.approx(-0.072815845, abs=1e-8)
    assert stieltjes(0) == pytest.approx(EULER_GAMMA, abs=1e-12)


def test_zeta_against_mpmath_grid():
    rng = random.Random(606)
    pts = [complex(rng.uniform(-10, 10), rng.uniform(-30, 30)) for _ in range(40)]
    pts += [complex(0.5, t) for t in (1.0, 10.0, 25.0)]
    pts += [complex(2.0, 0.0), complex(-0.5, 0.0), complex(10.0, 0.0)]
    for s in pts:
        if abs(s - 1.0) < 0.1:
            continue
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        got = zeta(s)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), s


def test_zeta_derivative_against_mpmath():
    rng = random.Random(707)
    pts = [complex(rng.uniform(-5, 5), rng.uniform(-20, 20)) for _ in range(15)]
    pts += [complex(2.0, 0.0), complex(0.5, 14.0)]
    for s in pts:
        if abs(s - 1.0) < 0.2:
            continue
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), derivative=1))
        got = zeta_derivative(s)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), s


def test_pole_rejected():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta_derivative(complex(1.0, 0.0))


# ---------------------------------------------------------------------------
# Bernoulli numbers and exact negative-odd values
# ---------------------------------------------------------------------------

def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)
    # cross-check against mpmath's exact fractions
    for n in range(0, 40):
        p, q = mpmath.bernfrac(n)
        assert bernoulli_number(n) == Fraction(int(p), int(q))


def test_bernoulli_table_grows_only_as_far_as_asked():
    # an explicit-formula run needs B_20 at most; B_64 stays exact on demand
    code = ("import sys; from divisorlab import TruncationConfig, "
            "default_zero_table, evaluate_explicit; "
            "evaluate_explicit('divisor_sum', 100.5, default_zero_table(), "
            "TruncationConfig(num_zero_pairs=3)); "
            "print(sys.modules['divisorlab.zeta']._bernoulli.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert 0 < int(out.stdout) <= 23
    p, q = mpmath.bernfrac(64)
    assert bernoulli_number(64) == Fraction(int(p), int(q))


def test_exact_negative_odd():
    assert zeta_exact_negative_odd(0) == Fraction(-1, 12)   # zeta(-1)
    assert zeta_exact_negative_odd(1) == Fraction(1, 120)   # zeta(-3)
    assert zeta_exact_negative_odd(2) == Fraction(-1, 252)  # zeta(-5)
    assert zeta_exact_negative_odd(3) == Fraction(1, 240)   # zeta(-7)
    for n in range(0, 12):
        got = zeta_negative_special("zeta_at_neg_odd", n)
        want = float(mpmath.zeta(-(2 * n + 1)))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [-2, -26, -40, -100])
def test_zeta_is_exactly_zero_at_trivial_zeros(s):
    # -40 gave 7.5 and -100 gave -4.4e62 from the rounded sin(pi s/2)
    assert zeta(s) == 0
    assert zeta(complex(s, 0.0)) == 0


def test_zeta_prime_at_neg_even_closed_form():
    # zeta'(-2k) = (-1)^k zeta(2k+1) (2k)! / (2 (2 pi)^(2k))
    for k in range(1, 8):
        got = zeta_negative_special("zeta_prime_at_neg_even", k)
        want = float(mpmath.zeta(mpmath.mpf(-2 * k), derivative=1))
        assert got == pytest.approx(want, rel=1e-10), k
    # and the engine's general derivative agrees at the first few
    for k in (1, 2, 3):
        got = zeta_derivative(float(-2 * k)).real
        want = zeta_negative_special("zeta_prime_at_neg_even", k)
        assert got == pytest.approx(want, rel=1e-7)


# ---------------------------------------------------------------------------
# digamma, generalized Euler constants, Stieltjes
# ---------------------------------------------------------------------------

def test_digamma_anchors():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-12)
    assert digamma(2.0) == pytest.approx(1 - EULER_GAMMA, abs=1e-12)
    for x in (0.1, 0.9, 3.7, 12.5):
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-11)


def test_generalized_euler_constant_oracle():
    # direct definition: lim sum_{n<=x, n=a mod q} 1/n - log(x)/q
    m = 10 ** 6
    for q, a in ((3, 1), (4, 3), (5, 2)):
        partial = math.fsum(1.0 / n for n in range(a, m + 1, q))
        approx = partial - math.log(m) / q
        assert generalized_euler_constant(a, q) == pytest.approx(approx, abs=1e-5)


def test_stieltjes_against_mpmath():
    for k in (0, 1, 2):
        assert stieltjes(k) == pytest.approx(float(mpmath.stieltjes(k)), abs=1e-9)
    with pytest.raises(ValueError):
        stieltjes(3)


def test_zeta_constants_bundle():
    assert PACKAGE_GAMMA == EULER_GAMMA  # one source of gamma
    # zeta'(2) as the main terms read it, taken once at import
    assert ZETA_PRIME_2 == zeta_derivative(2.0).real
    assert ZETA_PRIME_2 == pytest.approx(-0.9375482543158438, abs=1e-10)


# ---------------------------------------------------------------------------
# zero table ingestion
# ---------------------------------------------------------------------------

def test_packaged_zero_table():
    table = default_zero_table()
    assert len(table) == 1000
    assert table.ordinates[0] == pytest.approx(14.134725141734693, abs=1e-9)
    assert table.validated
    assert table.failures == ()
    assert list(table) == sorted(table.ordinates)


def test_first_zero_residual():
    assert abs(zeta(complex(0.5, 14.134725142))) < 1e-6


def test_zero_table_format_errors(tmp_path):
    cases = {
        "descending.txt": "14.134725\n21.022040\n20.0\n",
        "negative.txt": "-14.134725\n",
        "junk.txt": "14.134725\nnot_a_number\n",
        "below14.txt": "2.5\n14.134725\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(TableFormatError):
            load_zero_table(str(path))


def test_zero_table_comments_and_validation(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# header comment\n14.134725141734693\n\n21.022039638771554\n")
    table = load_zero_table(str(path))
    assert len(table) == 2
    assert table.validated
    # an off-zero ordinate is collected, not raised
    path.write_text("14.134725141734693\n17.5\n")
    table = load_zero_table(str(path))
    assert not table.validated
    assert len(table.failures) == 1
    assert table.failures[0][1] == 17.5


def test_zero_table_validate_flag(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.134725141734693\n17.5\n")
    table = load_zero_table(str(path), validate=False)
    assert not table.validated  # unvalidated tables never claim validation
    assert table.failures == ()


# ---------------------------------------------------------------------------
# zeta and zeta' from one power array
# ---------------------------------------------------------------------------

def em_reference(s):
    """zeta(s) and zeta'(s) by two separate Euler-Maclaurin sums, each with
    its own power array, as the engine computed them before fusing them."""
    N = max(20, math.ceil(2.0 * abs(s.imag)))
    coeffs = []
    for j in range(1, 11):
        b = bernoulli_number(2 * j)
        coeffs.append(b.numerator / b.denominator / math.factorial(2 * j))
    ns = np.arange(1, N, dtype=np.float64)
    main = np.exp(-s * np.log(ns)).sum()
    nin_s = cmath.exp(-s * math.log(N))
    total = main + N * nin_s / (s - 1) + nin_s / 2
    poch = s
    npow = nin_s / N
    inv_n2 = 1.0 / (N * N)
    for idx, c in enumerate(coeffs):
        total += c * poch * npow
        poch *= (s + 2 * idx + 1) * (s + 2 * idx + 2)
        npow *= inv_n2

    logs = np.log(ns)
    main = -(logs * np.exp(-s * logs)).sum()
    lnN = math.log(N)
    nin_s = cmath.exp(-s * lnN)
    sm1 = s - 1
    dtotal = main
    dtotal += N * nin_s * (-lnN / sm1 - 1.0 / (sm1 * sm1))
    dtotal += -lnN * nin_s / 2
    poch = s
    dpoch = complex(1.0)
    npow = nin_s / N
    for idx, c in enumerate(coeffs):
        dtotal += c * (dpoch - poch * lnN) * npow
        f1 = s + 2 * idx + 1
        f2 = s + 2 * idx + 2
        dpoch = dpoch * f1 * f2 + poch * (f1 + f2)
        poch *= f1 * f2
        npow *= inv_n2
    return complex(total), complex(dtotal)


def test_zero_table_zeta_prime_is_the_engine_derivative():
    # the zeta' the pair weights read is zeta_derivative(rho), bit for bit,
    # for every packaged zero
    table = default_zero_table()
    assert len(table) == len(table.zeta_primes) == 1000
    assert not table.zeta_primes.flags.writeable
    for t, prime in zip(table.ordinates, table.zeta_primes.tolist()):
        rho = complex(0.5, t)
        assert repr(prime) == repr(zeta_derivative(rho))
        assert repr(zeta_at_ordinate(t)) == repr(em_reference(rho))
        assert repr(zeta_at_ordinate(t)[0]) == repr(zeta(rho))


def test_zeta_primes_come_from_validation_or_first_use(tmp_path):
    packaged = default_zero_table()
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{t!r}\n" for t in packaged.ordinates[:40]))
    # validation hands over the values it computed ...
    validated = load_zero_table(str(path))
    assert "zeta_primes" in vars(validated)
    assert validated.zeta_primes.tolist() == packaged.zeta_primes[:40].tolist()
    # ... any other table computes them when first read
    loaded = load_zero_table(str(path), validate=False)
    built = ZeroTable(ordinates=packaged.ordinates[:40], source="inline",
                      validated=False)
    for table in (loaded, built):
        assert "zeta_primes" not in vars(table)
        assert table.zeta_primes.tolist() == packaged.zeta_primes[:40].tolist()
        assert not table.zeta_primes.flags.writeable


def test_fused_sums_match_the_separate_ones_off_the_line():
    rng = random.Random(2718)
    for _ in range(200):
        s = complex(rng.uniform(0.0, 30.0), rng.uniform(-3000.0, 3000.0))
        assert repr((zeta(s), zeta_derivative(s))) == repr(em_reference(s))
