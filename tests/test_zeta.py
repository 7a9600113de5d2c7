"""Zeta engine against mpmath and closed forms.

mpmath is test-only: the library itself computes everything from its own
Euler-Maclaurin machinery, and these tests confirm that independently.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from divisorlab import (ZeroTable, bernoulli_number, default_zero_table,
                        digamma, generalized_euler_constant, load_zero_table,
                        stieltjes, zeta, zeta_constants, zeta_derivative,
                        zeta_exact_negative_odd, zeta_negative_special)
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


def test_exact_negative_odd():
    assert zeta_exact_negative_odd(0) == Fraction(-1, 12)   # zeta(-1)
    assert zeta_exact_negative_odd(1) == Fraction(1, 120)   # zeta(-3)
    assert zeta_exact_negative_odd(2) == Fraction(-1, 252)  # zeta(-5)
    assert zeta_exact_negative_odd(3) == Fraction(1, 240)   # zeta(-7)
    for n in range(0, 12):
        got = zeta_negative_special("zeta_at_neg_odd", n)
        want = float(mpmath.zeta(-(2 * n + 1)))
        assert got == pytest.approx(want, rel=1e-12)


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
    cons = zeta_constants()
    assert cons.euler_gamma == EULER_GAMMA  # one source of gamma
    assert cons.zeta2 == pytest.approx(math.pi ** 2 / 6, abs=1e-14)
    assert cons.zeta_prime_2 == pytest.approx(-0.9375482543158438, abs=1e-10)
    assert cons.stieltjes_gamma1 == pytest.approx(-0.0728158454836767, abs=1e-10)


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
