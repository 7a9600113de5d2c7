"""Bessel kernels and the summation formulas built on them.

scipy is the sweep oracle (mpmath for Y0's series); slow Simpson
quadrature of the integral representations is the from-scratch oracle for
the anchor points.  The summation formulas are checked against exact
lattice counts.
"""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from divisorlab import summatory
from divisorlab import (bessel_J1, bessel_K1, bessel_Y1, circle_lattice_sum,
                        delta_error, divisor_count_sieve,
                        divisor_delta_reference, divisor_main_term,
                        divisor_sum_hyperbola, sierpinski_sum,
                        two_squares_count, voronoi_full, voronoi_truncated)
from divisorlab.bessel import (ARGUMENT_ENVELOPE, ASYMPTOTIC_SWITCH,
                               DOCUMENTED_ENVELOPE, SERIES_CHUNK,
                               TruncatedSeriesValue, _asymptotic_JY,
                               _asymptotic_K1, _bessel_J0, _bessel_Y0,
                               default_terms)
from divisorlab.errors import AccuracyError, PoleError
from divisorlab.summatory import _segment_values


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
    z = np.array(zs)
    kv = sps.k1(z)
    finite = np.isfinite(kv)
    worst = max(np.max(np.abs(bessel_J1(z) - sps.j1(z))),
                np.max(np.abs(bessel_Y1(z) - sps.y1(z))),
                # compare K1 absolutely; it underflows to 0 beyond z ~ 700
                np.max(np.abs(bessel_K1(z)[finite] - kv[finite])))
    assert worst <= 1e-10, worst


def test_wronskian_identity():
    rng = random.Random(909)
    for _ in range(20):
        z = rng.uniform(0.5, 50.0)
        w = bessel_J1(z) * _bessel_Y0(z) - _bessel_J0(z) * bessel_Y1(z)
        assert w == pytest.approx(2.0 / (math.pi * z), abs=1e-8)


def test_y0_series_against_mpmath():
    # the psi-weighted log series on (0, 12]: its alternating terms reach
    # ~1e4 near z = 12, so rounding leaves about 1e-12 there
    zs = [k / 500 for k in range(1, 6001)]
    with mpmath.workdps(20):
        worst = max(abs(_bessel_Y0(z) - float(mpmath.bessely(0, z))) for z in zs)
    assert worst <= 1.5e-12, worst


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
# array kernels against the scalar recurrence they replaced
# ---------------------------------------------------------------------------

def scalar_pq(nu, z):
    """The large-z P, Q sums one element at a time, as a plain loop."""
    mu = 4 * nu * nu
    t = 1.0
    p_acc = 1.0
    q_acc = 0.0
    prev = abs(t)
    for m in range(1, 40):
        t *= (mu - (2 * m - 1) ** 2) / (8.0 * m * z)
        if abs(t) >= prev:
            break
        prev = abs(t)
        signed = t if (m // 2) % 2 == 0 else -t
        if m % 2 == 1:
            q_acc += signed
        else:
            p_acc += signed
        if abs(t) < 1e-18:
            break
    return p_acc, q_acc


def scalar_JY(nu, z):
    p, q = scalar_pq(nu, z)
    chi = z - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    c, s = math.cos(chi), math.sin(chi)
    return amp * (c * p - s * q), amp * (s * p + c * q)


def scalar_K1(z):
    t = 1.0
    acc = 1.0
    prev = abs(t)
    for m in range(1, 40):
        t *= (4 - (2 * m - 1) ** 2) / (8.0 * m * z)
        if abs(t) >= prev:
            break
        prev = abs(t)
        acc += t
        if abs(t) < 1e-18:
            break
    return math.sqrt(0.5 * math.pi / z) * math.exp(-z) * acc


def kernel_arguments():
    rng = random.Random(1212)
    above = [math.nextafter(ASYMPTOTIC_SWITCH, math.inf), 12.0 + 1e-9, 12.25]
    above += [rng.uniform(12.0, 13.0) for _ in range(200)]
    underflow = [700.0, 745.0, 745.1332, 745.2, 745.9, 746.0, 750.0]
    underflow += [rng.uniform(700.0, 750.0) for _ in range(300)]
    log_uniform = [math.exp(rng.uniform(math.log(12.0), math.log(1e5)))
                   for _ in range(2000)]
    return above + underflow + log_uniform + [ARGUMENT_ENVELOPE]


def test_array_kernels_match_the_scalar_loop():
    zs = kernel_arguments()
    z = np.array(zs)
    for nu in (0, 1):
        j, y = _asymptotic_JY(nu, z)
        want = [scalar_JY(nu, v) for v in zs]
        assert list(map(repr, j.tolist())) == [repr(w[0]) for w in want]
        assert list(map(repr, y.tolist())) == [repr(w[1]) for w in want]
    k = _asymptotic_K1(z)
    assert list(map(repr, k.tolist())) == [repr(scalar_K1(v)) for v in zs]
    # the array order is irrelevant: each element ends where its own loop does
    perm = np.random.default_rng(7).permutation(z.size)
    assert np.array_equal(_asymptotic_K1(z[perm]), k[perm])
    assert np.array_equal(_asymptotic_JY(1, z[perm])[1],
                          _asymptotic_JY(1, z)[1][perm])


def test_scalar_evaluators_match_the_scalar_loop():
    for zf in kernel_arguments()[::8]:
        j1, y1 = scalar_JY(1, zf)
        j0, y0 = scalar_JY(0, zf)
        assert repr((bessel_J1(zf), bessel_Y1(zf), bessel_K1(zf))) == repr(
            (j1, y1, scalar_K1(zf)))
        assert repr((_bessel_J0(zf), _bessel_Y0(zf))) == repr((j0, y0))


EVALUATORS = (bessel_J1, bessel_Y1, bessel_K1, _bessel_J0, _bessel_Y0)


def first_scalar_error(fn, zs):
    for z in zs:
        try:
            fn(z)
        except Exception as exc:  # noqa: BLE001 -- any error is the oracle
            return exc
    return None


def test_array_calls_match_scalar_calls():
    zs = [1e-300, 1e-6, 0.5, 3.0, ASYMPTOTIC_SWITCH, 12.5, 745.5, 746.0]
    zs += kernel_arguments()[::5]
    zs += [random.Random(1313).uniform(0.0, ASYMPTOTIC_SWITCH) for _ in range(200)]
    for fn in EVALUATORS:
        got = fn(np.array(zs))
        assert isinstance(got, np.ndarray) and got.shape == (len(zs),)
        assert list(map(repr, got.tolist())) == [repr(fn(z)) for z in zs]
        assert isinstance(fn(np.float64(13.0)), float)
    assert repr(bessel_J1(np.array([0.0, -0.0])).tolist()) == repr(
        [bessel_J1(0.0), bessel_J1(-0.0)])
    # an array raises the scalar error of its first bad element, in order
    bad = (0.0, -1.0, math.nan, math.inf, 2.0 * ARGUMENT_ENVELOPE)
    for fn in EVALUATORS:
        for order in itertools.permutations(bad, 3):
            zs = [3.0, 13.0, *order[:2], 5.0, order[2]]
            want = first_scalar_error(fn, zs)
            with pytest.raises(type(want)) as got:
                fn(np.array(zs))
            assert str(got.value) == str(want)


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


def test_voronoi_truncated_walks_series_chunks(monkeypatch):
    # the cosine sum takes d(n) chunk by chunk, as the Bessel series do, so
    # its memory does not grow with N
    walks = []

    def spy(f, lo, hi):
        walks.append((lo, hi))
        return _segment_values(f, lo, hi)

    monkeypatch.setattr(summatory, "_segment_values", spy)
    n_terms = 3 * SERIES_CHUNK + 5
    voronoi_truncated(20000.5, n_terms)
    assert walks and walks[0][0] == 1 and walks[-1][1] == n_terms + 1
    assert all(a[1] == b[0] for a, b in zip(walks, walks[1:]))
    assert all(hi - lo <= SERIES_CHUNK for lo, hi in walks)


def test_divisor_delta_reference_consistent():
    x = 100.5
    main = (math.log(x) + 2 * 0.5772156649015329 - 1) * x
    delta = divisor_sum_hyperbola(x).value - main
    assert divisor_delta_reference(x) == pytest.approx(delta - 0.25, abs=1e-9)
    assert delta_error("divisor_sum", x).delta == pytest.approx(delta, abs=1e-9)


def test_series_match_a_term_by_term_loop():
    # one term at a time through the scalar recurrence, one fsum, as the
    # series were summed before they went to chunked arrays
    def pick(series, asymptotic):
        return lambda z: series(z) if z <= ASYMPTOTIC_SWITCH else asymptotic(z)

    K1 = pick(bessel_K1, scalar_K1)
    Y1 = pick(bessel_Y1, lambda z: scalar_JY(1, z)[1])
    J1 = pick(bessel_J1, lambda z: scalar_JY(1, z)[0])

    def full_loop(x, n_terms):
        d = divisor_count_sieve(n_terms)
        c = 4.0 * math.pi * math.sqrt(x)
        terms = []
        for n in range(1, n_terms + 1):
            arg = c * math.sqrt(n)
            kernel = K1(arg) + 0.5 * math.pi * Y1(arg)
            terms.append(float(d[n]) / math.sqrt(n) * kernel)
        value = (0.25 + divisor_main_term(x)
                 - (2.0 * math.sqrt(x) / math.pi) * math.fsum(terms))
        return value, abs(terms[-1]) * 2.0 * math.sqrt(x) / math.pi

    def sierpinski_loop(x, n_terms):
        c = 2.0 * math.pi * math.sqrt(x)
        terms = []
        for n in range(1, n_terms + 1):
            r = two_squares_count(n)
            if r:
                terms.append(float(r) / math.sqrt(n) * J1(c * math.sqrt(n)))
        return math.pi * x + math.sqrt(x) * math.fsum(terms)

    # summing rounded chunk sums instead would move the last bit at x = 13.025
    # (full) and x = 1.5 (sierpinski)
    for x, n_terms in ((1.5, SERIES_CHUNK + 1), (2.5, 1), (13.025, SERIES_CHUNK + 1),
                       (1000.5, 2 * SERIES_CHUNK)):
        out = voronoi_full(x, n_terms)
        assert repr((out.value, out.last_term)) == repr(full_loop(x, n_terms))
    for x, n_terms in ((0.5, 100), (1.5, SERIES_CHUNK + 1), (100.5, 2 * SERIES_CHUNK)):
        assert repr(sierpinski_sum(x, n_terms)) == repr(sierpinski_loop(x, n_terms))


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
