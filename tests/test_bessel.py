"""Bessel kernels and the summation formulas built on them.

scipy is the sweep oracle; slow Simpson quadrature of the integral
representations is the from-scratch oracle for the anchor points.  The
summation formulas are checked against exact lattice counts.
"""

import math
import random

import pytest
import scipy.special as sps

from divisorlab import (bessel_J1, bessel_K1, bessel_Y1, circle_lattice_sum,
                        divisor_delta_reference, divisor_sum_hyperbola,
                        sierpinski_sum, voronoi_full, voronoi_truncated)
from divisorlab.bessel import (ARGUMENT_ENVELOPE, ASYMPTOTIC_SWITCH,
                               DOCUMENTED_ENVELOPE, TruncatedSeriesValue,
                               _bessel_J0, _bessel_Y0, default_terms)
from divisorlab.errors import AccuracyError, PoleError


# ---------------------------------------------------------------------------
# quadrature oracles (integral representations, composite Simpson)
# ---------------------------------------------------------------------------

def simpson(f, a, b, n):
    h = (b - a) / n
    acc = f(a) + f(b)
    for i in range(1, n):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def j1_quadrature(z):
    return simpson(lambda t: math.cos(z * math.sin(t) - t), 0.0, math.pi, 2000) / math.pi


def y1_quadrature(z):
    osc = simpson(lambda t: math.sin(z * math.sin(t) - t), 0.0, math.pi, 2000) / math.pi
    damp = simpson(lambda t: (math.exp(t) - math.exp(-t)) * math.exp(-z * math.sinh(t)),
                   0.0, 12.0, 6000) / math.pi
    return osc - damp


def k1_quadrature(z):
    return simpson(lambda t: math.exp(-z * math.cosh(t)) * math.cosh(t),
                   0.0, 12.0, 6000)


# ---------------------------------------------------------------------------
# kernel accuracy
# ---------------------------------------------------------------------------

def test_anchor_values_quadrature():
    for z in (0.7, 1.0, 3.0, 9.5, 15.0):
        assert bessel_J1(z) == pytest.approx(j1_quadrature(z), abs=1e-10)
        assert bessel_Y1(z) == pytest.approx(y1_quadrature(z), abs=5e-10)
        assert bessel_K1(z) == pytest.approx(k1_quadrature(z), abs=1e-10)


def test_frozen_unit_values():
    assert bessel_J1(1.0) == pytest.approx(0.44005058574493355, abs=1e-10)
    assert bessel_Y1(1.0) == pytest.approx(-0.7812128213002887, abs=1e-10)
    assert bessel_K1(1.0) == pytest.approx(0.6019072301972346, abs=1e-10)


def test_scipy_sweep():
    rng = random.Random(808)
    zs = [rng.uniform(1e-3, float(DOCUMENTED_ENVELOPE)) for _ in range(400)]
    zs += [rng.uniform(0.01, 30.0) for _ in range(400)]
    zs += [ASYMPTOTIC_SWITCH - 1e-9, ASYMPTOTIC_SWITCH + 1e-9, 1e-6, 9999.5]
    worst = 0.0
    for z in zs:
        worst = max(worst, abs(bessel_J1(z) - float(sps.j1(z))))
        worst = max(worst, abs(bessel_Y1(z) - float(sps.y1(z))))
        kv = float(sps.k1(z))
        if math.isfinite(kv):
            # compare K1 absolutely; it underflows to 0 beyond z ~ 700
            worst = max(worst, abs(bessel_K1(z) - kv))
    assert worst <= 1e-10, worst


def test_wronskian_identity():
    rng = random.Random(909)
    for _ in range(20):
        z = rng.uniform(0.5, 50.0)
        w = bessel_J1(z) * _bessel_Y0(z) - _bessel_J0(z) * bessel_Y1(z)
        assert w == pytest.approx(2.0 / (math.pi * z), abs=1e-8)


def test_k1_asymptotic_law():
    # K1(z) ~ sqrt(pi/(2z)) e^-z for large z, within 1% at z = 50
    z = 50.0
    lead = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
    assert bessel_K1(z) / lead == pytest.approx(1.0, rel=0.01)


def test_j1_first_zero_bracketed():
    lo, hi = 3.83170, 3.83172
    assert bessel_J1(lo) * bessel_J1(hi) < 0


def test_domain_guards():
    assert bessel_J1(0.0) == 0.0
    with pytest.raises(PoleError):
        bessel_Y1(0.0)
    with pytest.raises(PoleError):
        bessel_K1(0.0)
    for fn in (bessel_J1, bessel_Y1, bessel_K1):
        with pytest.raises(ValueError):
            fn(-1.0)
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(AccuracyError):
            fn(float(ARGUMENT_ENVELOPE) * 1.01)
    # arguments between the documented and hard envelopes still evaluate
    assert math.isfinite(bessel_J1(float(DOCUMENTED_ENVELOPE) * 2.0))


def test_branch_continuity_at_switch():
    for fn in (bessel_J1, bessel_Y1, bessel_K1):
        below = fn(ASYMPTOTIC_SWITCH - 1e-9)
        above = fn(ASYMPTOTIC_SWITCH + 1e-9)
        assert abs(above - below) < 1e-8


# ---------------------------------------------------------------------------
# summation formulas
# ---------------------------------------------------------------------------

def test_voronoi_full_reconstructs_divisor_sum():
    out = voronoi_full(100.5, 5000)
    assert isinstance(out, TruncatedSeriesValue)
    assert out.n_terms == 5000
    want = divisor_sum_hyperbola(100.5).value
    assert out.value == pytest.approx(want, abs=0.1)
    assert out.last_term < 0.05


def test_voronoi_full_error_shrinks_with_terms():
    x = 2.5
    want = divisor_sum_hyperbola(x).value
    err_small = abs(voronoi_full(x, 1).value - want)
    err_large = abs(voronoi_full(x, 10 ** 4).value - want)
    assert err_large < err_small


def test_voronoi_full_rejects_integer_x():
    with pytest.raises(ValueError):
        voronoi_full(100.0, 100)


def test_voronoi_truncated_oracle():
    x = 1000.5
    assert voronoi_truncated(x, 2) == pytest.approx(0.02173618070876123, abs=1e-12)
    with pytest.raises(ValueError):
        voronoi_truncated(x, 1)
    with pytest.raises(ValueError):
        voronoi_truncated(10.5, 11)


def test_voronoi_truncated_tracks_delta():
    x = 10 ** 4 + 0.5
    ref = divisor_delta_reference(x)
    r10 = abs(voronoi_truncated(x, 10) - ref)
    r1000 = abs(voronoi_truncated(x, 1000) - ref)
    assert r1000 < r10
    assert r1000 <= 20.0 * x ** 0.25


def test_divisor_delta_reference_consistent():
    x = 100.5
    main = (math.log(x) + 2 * 0.5772156649015329 - 1) * x
    delta = divisor_sum_hyperbola(x).value - main
    assert divisor_delta_reference(x) == pytest.approx(delta - 0.25, abs=1e-9)
    assert divisor_delta_reference(x, include_quarter=False) == pytest.approx(
        delta, abs=1e-9)


def test_sierpinski_sum_against_circle_count():
    got = sierpinski_sum(100.5, 10 ** 4)
    assert abs(got - circle_lattice_sum(100)) <= 5.0


def test_sierpinski_regression_small_x():
    assert sierpinski_sum(0.5, 100) == pytest.approx(0.9405098857027688, abs=1e-12)


def test_sierpinski_rejects_integer_x():
    with pytest.raises(ValueError):
        sierpinski_sum(100.0, 100)


def test_default_terms_keep_every_argument_in_the_envelope():
    assert default_terms("full", 7000.5) == 9045
    assert default_terms("sierpinski", 30000.5) == 8443
    assert default_terms("truncated", 500.5) == 500
    assert default_terms("truncated", 1500.5) == 10 ** 3
    # the documented defaults hold unchanged up to x = 6332 and 25330
    assert default_terms("full", 6332.5) == 10 ** 4
    assert default_terms("sierpinski", 25330.25) == 10 ** 4
    for kind, c, top in (("full", 4.0, 6.3e7), ("sierpinski", 2.0, 2.5e8)):
        for x in (6333.5, 25330.5, 1e5 + 0.5, 3.3e6 + 0.5, top + 0.5):
            n = default_terms(kind, x)
            # the series' own float expression, at the count and one past it
            scale = c * math.pi * math.sqrt(x)
            assert scale * math.sqrt(n) <= ARGUMENT_ENVELOPE
            assert n == 10 ** 4 or scale * math.sqrt(n + 1) > ARGUMENT_ENVELOPE
    assert default_terms("full", 63300000.5) == 1
    with pytest.raises(AccuracyError, match="envelope"):
        default_terms("full", 63400000.5)
    with pytest.raises(AccuracyError, match="envelope"):
        default_terms("sierpinski", 253400000.5)
    assert voronoi_full(7000.5).n_terms == 9045
