"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each criterion prints exactly one "criterion NN PASS/FAIL" line; run with
pytest -v (add -s to watch the lines stream) and read failures from the
captured stdout.  Every numeric target here was recomputed from scratch
with an independent oracle before being frozen into the assertions.
"""

import json
import math
import random
import time

import pytest

from divisorlab import (APSpec, FnSpec, TruncationConfig, bessel_J1,
                        bessel_K1, bessel_Y1, brute_force_profile,
                        brute_force_sum, circle_lattice_sum, default_zero_table, delta_error,
                        divisor_count, divisor_count_k, divisor_count_sieve,
                        divisor_delta_reference, divisor_sum_from_squarefree,
                        divisor_sum_hyperbola, divisors, evaluate_explicit,
                        factorize, fractional_part_sum, harmonic_main_term,
                        harmonic_sum, hermite_divisor_count, sierpinski_sum,
                        sigma, squarefree_divisor_sum, stieltjes,
                        trivial_zero_tail, voronoi_truncated, zeta,
                        zeta_derivative)
from divisorlab.arith import (build_factor_table, dirichlet_coefficients,
                              eval_arithmetic)
from divisorlab.bessel import _bessel_J0, _bessel_Y0
from divisorlab.cli import main
from divisorlab.explicit import omega_scan
from divisorlab.fitting import fit_main_constant, half_integer_grid
from divisorlab.summatory import ap_divisor_sum
from divisorlab.zeta import EULER_GAMMA, _lgamma_complex

import cmath


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. the three sublinear algorithms against brute force
# ---------------------------------------------------------------------------

def test_criterion_01_exact_algorithm_equivalence():
    t0 = time.perf_counter()
    problems = []

    if divisor_sum_hyperbola(100).value != 482:
        problems.append("D(100) != 482")
    if divisor_sum_hyperbola(10).value != 27:
        problems.append("D(10) != 27")
    if squarefree_divisor_sum(10).value != 23:
        problems.append("S_2w(10) != 23")

    n_max = 10 ** 5
    xs = list(range(1, n_max + 1))
    d_profile = brute_force_profile("d", xs, workers=4)
    w_profile = brute_force_profile("two_omega", xs, workers=4)
    bad_h = sum(1 for x, ref in zip(xs, d_profile)
                if divisor_sum_hyperbola(x).value != ref.value)
    bad_c = sum(1 for x, ref in zip(xs, d_profile)
                if divisor_sum_from_squarefree(x).value != ref.value)
    bad_m = sum(1 for x, ref in zip(xs, w_profile)
                if squarefree_divisor_sum(x).value != ref.value)
    if bad_h or bad_c or bad_m:
        problems.append(f"exhaustive x <= 1e5 mismatches: hyperbola {bad_h}, "
                        f"convolution {bad_c}, moebius {bad_m}")

    rng = random.Random(20260816)
    points = sorted(rng.randrange(1, 10 ** 8 + 1) for _ in range(100))
    d_ref = brute_force_profile("d", points, workers=4)
    w_ref = brute_force_profile("two_omega", points, workers=4)
    bad_h = sum(1 for x, ref in zip(points, d_ref)
                if divisor_sum_hyperbola(x).value != ref.value)
    bad_c = sum(1 for x, ref in zip(points, d_ref)
                if divisor_sum_from_squarefree(x).value != ref.value)
    bad_m = sum(1 for x, ref in zip(points, w_ref)
                if squarefree_divisor_sum(x).value != ref.value)
    if bad_h or bad_c or bad_m:
        problems.append(f"random x <= 1e8 mismatches: hyperbola {bad_h}, "
                        f"convolution {bad_c}, moebius {bad_m}")

    dt = time.perf_counter() - t0
    if dt > 300.0:
        problems.append(f"runtime {dt:.1f} s exceeds 300 s")
    _report(1, not problems,
            f"3 algorithms vs brute force, exhaustive to 1e5 plus 100 random "
            f"to 1e8, {dt:.1f} s" + ("; " + "; ".join(problems)
                                     if problems else ""))


# ---------------------------------------------------------------------------
# 2. coefficient identities, exhaustively to 1e4
# ---------------------------------------------------------------------------

def test_criterion_02_identity_suite():
    n_max = 10 ** 4
    table = build_factor_table(n_max)
    failures = 0

    coef = dirichlet_coefficients("zeta_sq_over_zeta2s", n_max)
    failures += sum(1 for n in range(1, n_max + 1)
                    if coef[n] != eval_arithmetic(FnSpec("two_omega"), n, table))

    coef = dirichlet_coefficients("zeta_cu_over_zeta2s", n_max)
    for n in range(1, n_max + 1):
        d_sq = 1
        for _, e in factorize(n, table):
            d_sq *= 2 * e + 1
        failures += coef[n] != d_sq

    coef = dirichlet_coefficients("zeta_4_over_zeta2s", n_max)
    failures += sum(1 for n in range(1, n_max + 1)
                    if coef[n] != divisor_count(n, table) ** 2)

    for k in (3, 4, 5):
        coef = dirichlet_coefficients("zeta_k", n_max, k=k)
        failures += sum(1 for n in range(1, n_max + 1)
                        if coef[n] != divisor_count_k(n, k, table))

    for a, b in ((1, 1), (1, 2), (2, 3)):
        coef = dirichlet_coefficients("sigma_product", n_max, a=a, b=b)
        failures += sum(1 for n in range(1, n_max + 1)
                        if coef[n] != sigma(n, a, table) * sigma(n, b, table))

    counts = divisor_count_sieve(10 ** 5)
    failures += sum(1 for n in range(1, 10 ** 5 + 1)
                    if hermite_divisor_count(n) != int(counts[n]))

    _report(2, failures == 0,
            f"coefficient and Hermite identities to 1e4/1e5, "
            f"{failures} failures")


# ---------------------------------------------------------------------------
# 3. main-term constants
# ---------------------------------------------------------------------------

def test_criterion_03_main_term_constants():
    grid = half_integer_grid(10 ** 6, 10 ** 8, 1.5)
    values = [squarefree_divisor_sum(x).value for x in grid]
    fit = fit_main_constant(grid, values, 6.0 / math.pi ** 2)
    c_target = 1.29432
    c_ok = abs(fit.constant - c_target) <= 0.01 * abs(c_target)

    x7 = 10 ** 7
    zeta2 = math.pi ** 2 / 6
    e_x = (divisor_sum_hyperbola(x7).value
           - zeta2 * squarefree_divisor_sum(x7).value) / x7
    e_target = -1.139926
    e_ok = abs(e_x - e_target) <= 0.01 * abs(e_target)

    _report(3, c_ok and e_ok,
            f"fitted c = {fit.constant:.6f} (target {c_target}), "
            f"E(1e7) = {e_x:.6f} (target {e_target})")


# ---------------------------------------------------------------------------
# 4. error-term envelopes and sign changes
# ---------------------------------------------------------------------------

def test_criterion_04_error_envelopes():
    grid = half_integer_grid(10 ** 2, 10 ** 8, 1.2)
    worst_d = max(abs(delta_error("divisor_sum", x).delta_over_x12)
                  for x in grid)
    worst_w = max(abs(delta_error("two_omega_sum", x).delta_over_x12)
                  for x in grid)

    dense = [n + 0.5 for n in range(10, 10 ** 4)]
    scan_d = omega_scan("divisor_sum", dense)
    scan_w = omega_scan("two_omega_sum", dense)
    signs_ok = (scan_d.sup_scaled > 0 > scan_d.inf_scaled
                and scan_w.sup_scaled > 0 > scan_w.inf_scaled)

    ok = worst_d <= 2.5 and worst_w <= 1.0 and signs_ok
    _report(4, ok,
            f"sup |delta|/sqrt(x): d {worst_d:.4f} (<= 2.5), "
            f"2^omega {worst_w:.4f} (<= 1.0); scan signs "
            f"d [{scan_d.inf_scaled:.3f}, {scan_d.sup_scaled:.3f}], "
            f"2^omega [{scan_w.inf_scaled:.3f}, {scan_w.sup_scaled:.3f}]")


# ---------------------------------------------------------------------------
# 5. zeta engine
# ---------------------------------------------------------------------------

def test_criterion_05_zeta_engine():
    anchors = [
        (zeta(0.0).real, -0.5),
        (zeta(2.0).real, math.pi ** 2 / 6),
        (zeta_derivative(2.0).real, -0.937548254),
        (stieltjes(1), -0.072815845),
        (zeta(-1.0).real, -1.0 / 12.0),
        (zeta(-3.0).real, 1.0 / 120.0),
        (zeta_derivative(-2.0).real, -0.030448457),
    ]
    worst_abs = max(abs(got - want) for got, want in anchors)

    zero_residual = abs(zeta(complex(0.5, 14.134725142)))

    def xi(s):
        return cmath.exp(-0.5 * s * math.log(math.pi)
                         + _lgamma_complex(s / 2)) * zeta(s)

    fe_worst = 0.0
    for s in (complex(0.3, 2.0), complex(0.75, 0.5), complex(0.6, 3.0)):
        fe_worst = max(fe_worst, abs(xi(s) - xi(1 - s)) / abs(xi(s)))

    h = 1e-5
    fd_worst = 0.0
    for s in (complex(2.0, 0.0), complex(0.5, 5.0)):
        fd = (zeta(s + h) - zeta(s - h)) / (2 * h)
        fd_worst = max(fd_worst,
                       abs(fd - zeta_derivative(s)) / abs(zeta_derivative(s)))

    ok = (worst_abs < 1e-8 and zero_residual < 1e-6
          and fe_worst < 1e-8 and fd_worst < 1e-6)
    _report(5, ok,
            f"constants worst {worst_abs:.2g} (< 1e-8), first zero "
            f"{zero_residual:.2g} (< 1e-6), reflection {fe_worst:.2g} "
            f"(< 1e-8), derivative fd {fd_worst:.2g} (< 1e-6)")


# ---------------------------------------------------------------------------
# 6. Bessel kernels against quadrature oracles
# ---------------------------------------------------------------------------

def _simpson(f, a, b, panels):
    h = (b - a) / (2 * panels)
    total = f(a) + f(b)
    for i in range(1, 2 * panels):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def _oracle_J1(z):
    return _simpson(lambda t: math.cos(z * math.sin(t) - t),
                    0.0, math.pi, 2000) / math.pi


def _oracle_Y1(z):
    first = _simpson(lambda t: math.sin(z * math.sin(t) - t),
                     0.0, math.pi, 2000) / math.pi
    second = _simpson(
        lambda t: (math.exp(t) - math.exp(-t)) * math.exp(-z * math.sinh(t)),
        0.0, 12.0, 6000) / math.pi
    return first - second


def _oracle_K1(z):
    return _simpson(lambda t: math.exp(-z * math.cosh(t)) * math.cosh(t),
                    0.0, 14.0, 6000)


def test_criterion_06_bessel_accuracy():
    err_j = abs(bessel_J1(1.0) - _oracle_J1(1.0))
    err_y = abs(bessel_Y1(1.0) - _oracle_Y1(1.0))
    err_k = abs(bessel_K1(1.0) - _oracle_K1(1.0))

    rng = random.Random(1729)
    worst_w = 0.0
    for _ in range(20):
        z = rng.uniform(0.5, 50.0)
        w = (bessel_J1(z) * _bessel_Y0(z) - _bessel_J0(z) * bessel_Y1(z)
             - 2.0 / (math.pi * z))
        worst_w = max(worst_w, abs(w))

    ok = max(err_j, err_y, err_k) < 1e-8 and worst_w < 1e-8
    _report(6, ok,
            f"J1/Y1/K1 at 1 vs quadrature: {err_j:.2g}/{err_y:.2g}/"
            f"{err_k:.2g} (< 1e-8); Wronskian worst {worst_w:.2g} at 20 "
            f"random points")


# ---------------------------------------------------------------------------
# 7. cosine-series contraction and the lattice analogue
# ---------------------------------------------------------------------------

def test_criterion_07_series_contraction():
    t0 = time.perf_counter()
    x = 10 ** 4 + 0.5
    ref = divisor_delta_reference(x)
    r10 = abs(voronoi_truncated(x, 10) - ref)
    r1000 = abs(voronoi_truncated(x, 1000) - ref)
    bound = 20.0 * x ** 0.25

    lattice = circle_lattice_sum(100)
    s_err = abs(sierpinski_sum(100.5, 10 ** 4) - lattice)

    dt = time.perf_counter() - t0
    ok = r1000 < r10 and r1000 <= bound and s_err <= 5.0 and dt <= 120.0
    _report(7, ok,
            f"residual N=1000 {r1000:.4f} < N=10 {r10:.4f}, bound "
            f"{bound:.1f}; lattice sum off by {s_err:.3f} (<= 5); "
            f"{dt:.1f} s")


# ---------------------------------------------------------------------------
# 8. explicit-formula pipeline
# ---------------------------------------------------------------------------

def test_criterion_08_explicit_pipeline():
    x = 10 ** 4 + 0.5
    zeros = default_zero_table()
    problems = []

    cfg = TruncationConfig(num_zero_pairs=100, tail_terms=10)
    for target, envelope in (("divisor_sum", 2.5), ("two_omega_sum", 1.0)):
        ev = evaluate_explicit(target, x, zeros, cfg)
        if ev.exact is None or len(ev.zero_sum_partials) != 101:
            problems.append(f"{target}: incomplete decomposition")
            continue
        n0 = ev.exact - (ev.main_term + ev.constant_term + ev.trivial_tail)
        if abs(n0) / math.sqrt(x) > envelope:
            problems.append(f"{target}: N=0 residual {n0 / math.sqrt(x):.3f} "
                            f"breaks the {envelope} envelope")

    sweep = half_integer_grid(10, 10 ** 6, 1.6)
    worst_tail = max(
        abs(trivial_zero_tail(target, xx, 10))
        for target in ("divisor_sum", "two_omega_sum", "two_omega_over_n_sum")
        for xx in sweep)
    if worst_tail > 0.02:
        problems.append(f"tail magnitude {worst_tail:.4f} > 0.02")

    cfg_long = TruncationConfig(num_zero_pairs=1000, tail_terms=10)
    ev = evaluate_explicit("divisor_sum", x, zeros, cfg_long)
    partials = dict(ev.zero_sum_partials)
    base = ev.main_term + ev.constant_term + ev.trivial_tail
    trajectory = [(n, ev.exact - (base + partials[n]))
                  for n in (0, 10, 100, 1000)]
    print("criterion 08 trajectory (N, residual): "
          + ", ".join(f"({n}, {r:+.4f})" for n, r in trajectory))

    _report(8, not problems,
            f"decomposition at x = 1e4 + 1/2, tail sup {worst_tail:.4f} "
            f"(<= 0.02), trajectory emitted for N in {{0,10,100,1000}}"
            + ("; " + "; ".join(problems) if problems else ""))


# ---------------------------------------------------------------------------
# 9. arithmetic-progression suite
# ---------------------------------------------------------------------------

def test_criterion_09_ap_suite():
    problems = []
    n_max = 10 ** 4
    table = build_factor_table(n_max)
    pairs = [(q, a) for q in (3, 4, 5)
             for a in range(1, q) if math.gcd(a, q) == 1]

    running = {pair: 0 for pair in pairs}
    mismatches = 0
    for n in range(1, n_max + 1):
        divs = divisors(n, table)
        for q, a in pairs:
            running[(q, a)] += sum(1 for d in divs if d % q == a)
            if ap_divisor_sum(n, APSpec(q=q, a=a)).value != running[(q, a)]:
                mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} ap_divisor_sum mismatches")

    grid = half_integer_grid(10 ** 3, 10 ** 6, 1.2)
    worst_h = max(
        abs(harmonic_sum(x, ap) - harmonic_main_term(x, ap)) * x
        for x in grid
        for ap in [None] + [APSpec(q=q, a=a) for q, a in pairs])
    if worst_h > 10.0:
        problems.append(f"harmonic residual*x {worst_h:.3f} > 10")

    frac = fractional_part_sum(10 ** 6) / 10 ** 6
    target = 1.0 - EULER_GAMMA
    if abs(frac - target) > 0.01 * target:
        problems.append(f"fractional mean {frac:.6f} vs {target:.6f}")

    _report(9, not problems,
            f"ap sums exhaustive to 1e4 for q in {{3,4,5}}, harmonic "
            f"residual*x sup {worst_h:.3f} (<= 10), fractional mean "
            f"{frac:.6f} vs 1 - gamma = {target:.6f}"
            + ("; " + "; ".join(problems) if problems else ""))


# ---------------------------------------------------------------------------
# 10. reports are independent of worker count
# ---------------------------------------------------------------------------

def test_criterion_10_worker_determinism(tmp_path):
    jobs = [
        ("sum_d", ["sum", "--fn", "d", "--x", "200000",
                   "--algorithm", "brute"]),
        ("sum_mu_json", ["sum", "--fn", "mu", "--x", "200000",
                         "--algorithm", "brute", "--format", "json"]),
        # three 2^21-long segments, so workers=4 runs the process pool
        ("sum_mu_segments", ["sum", "--algorithm", "brute", "--fn", "mu",
                             "--x", "4500000"]),
        ("delta_grid", ["delta", "--target", "d", "--grid-lo", "100",
                        "--grid-hi", "100000"]),
        ("fit_d", ["fit", "--target", "d", "--grid-lo", "1000",
                   "--grid-hi", "3000000"]),
    ]
    mismatched = []
    for name, argv in jobs:
        blobs = []
        for workers in (1, 4):
            path = tmp_path / f"{name}_{workers}"
            rc = main(argv + ["--workers", str(workers),
                              "--output", str(path)])
            assert rc == 0
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(name)

    _report(10, not mismatched,
            f"{len(jobs)} report types byte-identical across worker counts"
            + (f"; mismatches: {', '.join(mismatched)}" if mismatched else ""))
