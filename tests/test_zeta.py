"""Zeta engine against mpmath and closed forms.

mpmath is test-only: the library itself computes everything from its own
Euler-Maclaurin machinery, and these tests confirm that independently.
"""

import cmath
import importlib
import math
import os
import pathlib
import random
import subprocess
import sys
import zipfile
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import divisorlab
from divisorlab import (TruncationConfig, bernoulli_number,
                        default_zero_table, digamma, evaluate_explicit,
                        generalized_euler_constant, load_zero_table,
                        stieltjes, zeta, zeta_derivative,
                        zeta_exact_negative_odd, zeta_negative_special)
from divisorlab.explicit import _pair_weights
from divisorlab.zeta import EULER_GAMMA as PACKAGE_GAMMA
from divisorlab.zeta import (_CONSTANTS, ZETA_PRIME_2, _zeta_check,
                             _zeta_em_pair)
from divisorlab.errors import AccuracyError, PoleError, TableFormatError

mpmath.mp.dps = 30

# the submodule: the package's zeta attribute is the function
zeta_module = importlib.import_module("divisorlab.zeta")

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


# repr of zeta(s) and zeta'(s) left of the critical strip, pinned: the
# reflection formula's log sin and log cos branch at |Im(pi s/2)| = 20
# (|Im s| = 40/pi) and zeta's own at |Im s| = 20, and each is crossed; the
# last two points are trivial zeros
REFLECTED = [
    ((-0.25+3j), (0.3951051437936913-0.012411557175760285j),
     (0.17275757279964815-0.0978913852215124j)),
    ((-5-5j), (-0.6485920271510653+0.05993515432409524j),
     (0.0647257433174431-0.554180175505676j)),
    ((-0.125+7.5j), (1.144464802055206+0.5556905506882167j),
     (-0.010853691932283915-0.3035990464034654j)),
    ((-1.5-12.5j), (1.1049120462944213+3.472225709451192j),
     (-0.8674811347996971-2.552283567062202j)),
    ((-4.75+12.9j), (33.279615310603816-36.32846526718233j),
     (-40.62207165511041+16.71975910310137j)),
    ((-9-13j), (631.8142852699472-1984.2727602187888j),
     (657.0498872069932+2267.015075250644j)),
    ((-17-15j), (29097837.14916822+72739404.81860386j),
     (-100539528.51168413-69453642.87976821j)),
    ((-15.5+19.75j), (-310040905.48261267-253125690.49486998j),
     (260935238.26357347+564876692.6644969j)),
    ((-0.75-19.99j), (-1.5017994232057805+3.812625422521222j),
     (2.8602013675658764-4.133602891162342j)),
    ((-2.5+20.01j), (-15.669484199339017-28.703312531676172j),
     (16.105880212078045+35.04013829019013j)),
    ((-6.25-20.5j), (-939.4203405432156+3154.230329978935j),
     (170.09845132615482-4189.084638020967j)),
    ((-12+33j), (1314125628.0767772+283916735.9652393j),
     (-2164955351.8714867-965898605.1640105j)),
    ((-0.5-45j), (7.121401947237821-9.435007642391767j),
     (-8.500518367536309+16.446057943398618j)),
    ((-3+300j), (-230743.60643304416+749472.4878125102j),
     (873659.1698304457-2882023.491041095j)),
    ((-8.5-2500j), (8.650011319170976e+22-2.3461003186332818e+23j),
     (-5.167248874153126e+23+1.4047388349064295e+24j)),
    ((-1+10000j), (53631.93907944866+28672.793009064968j),
     (-407976.2021584737-200950.76947836266j)),
    ((-11+0.5j), (0.0263829288283715-0.00823252272169781j),
     (-0.024099119372030287-0.021045032809171457j)),
    ((-3.5+0j), (0.004441011335479433+0j),
     (0.009154213629941512+0j)),
    ((-2+0j), 0j,
     (-0.030448457058393285+3.728860547553696e-18j)),
    ((-14+0j), 0j,
     (-0.2916577247438738+3.5717769905418516e-17j)),
]


@pytest.mark.parametrize("s, value, derivative", REFLECTED)
def test_reflected_values_keep_their_bits(s, value, derivative):
    assert repr(zeta(s)) == repr(value)
    assert repr(zeta_derivative(s)) == repr(derivative)


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


# mpmath's value of each row of the constants table
MPMATH_CONSTANTS = {
    "euler_gamma": lambda: mpmath.euler,
    "stieltjes_1": lambda: mpmath.stieltjes(1),
    "stieltjes_2": lambda: mpmath.stieltjes(2),
    "zeta_2": lambda: mpmath.zeta(2),
    "six_over_pi_squared": lambda: 6 / mpmath.pi ** 2,
    "zeta_3": lambda: mpmath.zeta(3),
    "zeta_prime_2": lambda: mpmath.zeta(2, derivative=1),
    "zeta_prime_minus_2": lambda: mpmath.zeta(-2, derivative=1),
    "mertens_b": lambda: mpmath.mertens,
}


def test_constants_table_pinned_against_mpmath():
    # each string is mpmath's 60-digit value rounded to the string's own
    # last digit, with at least 40 significant digits, and its float is
    # the correctly rounded float of that value, bit for bit
    assert set(_CONSTANTS) == set(MPMATH_CONSTANTS)
    with mpmath.workdps(60):
        for name, digits in _CONSTANTS.items():
            want = MPMATH_CONSTANTS[name]()
            whole, fraction = digits.lstrip("-").split(".")
            assert len((whole + fraction).lstrip("0")) >= 40, name
            half_unit = mpmath.mpf(10) ** -len(fraction) / 2
            assert abs(mpmath.mpf(digits) - want) <= half_unit, name
            assert float(digits) == float(want), name
    # the floats the main terms read are the rows' floats
    assert PACKAGE_GAMMA == float(_CONSTANTS["euler_gamma"])
    assert ZETA_PRIME_2 == float(_CONSTANTS["zeta_prime_2"])


def test_stieltjes_against_mpmath():
    with mpmath.workdps(60):
        for k in (0, 1, 2):
            assert stieltjes(k) == float(mpmath.stieltjes(k))
    with pytest.raises(ValueError):
        stieltjes(3)


def test_zeta_constants_bundle():
    assert PACKAGE_GAMMA == EULER_GAMMA  # one source of gamma
    # zeta'(2) as the main terms read it: the table's row, correctly
    # rounded, and the engine's zeta'(2) within 2 ulp of it
    with mpmath.workdps(60):
        assert ZETA_PRIME_2 == float(mpmath.zeta(2, derivative=1))
    assert abs(zeta_derivative(2.0).real - ZETA_PRIME_2) <= 2 * math.ulp(ZETA_PRIME_2)


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
    # (line, t, |zeta(1/2 + i t)|), the residual as the check reads it
    want = abs(complex(mpmath.zeta(mpmath.mpc(0.5, 17.5))))
    assert table.failures[0] == (2, 17.5, pytest.approx(want, abs=1e-9))


def test_zero_table_path_may_be_str_or_pathlike(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.134725141734693\n17.5\n21.022039638771554\n")
    assert load_zero_table(str(path)) == load_zero_table(path)


def test_packaged_table_loads_from_a_zipped_package(tmp_path):
    # importlib.resources hands a zip member to as_file, which extracts it
    # to a temporary file for the path reader, and reads the pair weights
    # from the archive
    archive = tmp_path / "divisorlab.zip"
    package = pathlib.Path(divisorlab.__file__).parent
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    code = ("import importlib; z = importlib.import_module('divisorlab.zeta'); "
            "t = z.default_zero_table(); print(z.__file__, len(t), t.validated)")
    env = {k: v for k, v in os.environ.items() if k != "ZD_ZEROS"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**env, "PYTHONPATH": str(archive)})
    module, count, validated = out.stdout.split()
    assert module.startswith(str(archive))
    assert (count, validated) == ("1000", "True")
    # the pair weights are read from the archive too, to the same bytes
    argv = [sys.executable, "-m", "divisorlab", "explicit", "--x", "123456.5",
            "--pairs", "1000"]
    reports = [subprocess.run(argv, capture_output=True, text=True, check=True,
                              env={**env, "PYTHONPATH": str(where)}).stdout
               for where in (archive, package.parent)]
    assert reports[0] == reports[1]


def test_comment_only_zero_table_is_empty(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# no ordinates here\n\n# nor here\n")
    table = load_zero_table(str(path))
    assert (len(table), table.validated, table.failures) == (0, True, ())


def test_ordinate_past_the_envelope_is_refused_before_any_sum(tmp_path,
                                                               monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed a zero table past the envelope")
    monkeypatch.setattr(zeta_module, "_zeta_check", no_sum)
    monkeypatch.setattr(zeta_module, "_zeta_em_pair", no_sum)
    path = tmp_path / "zeros.txt"
    for body in ("100001.5\n", "14.134725141734693\n100001.5\n200000\n"):
        path.write_text(body)
        with pytest.raises(AccuracyError,
                           match=r"\|Im s\| = 1e\+05 exceeds the supported"):
            load_zero_table(str(path))


# ---------------------------------------------------------------------------
# the zero-table check
# ---------------------------------------------------------------------------

def check_bound(t):
    """The documented error of the zero-table check at 1/2 + i t: Edwards'
    remainder after 10 correction terms at N = max(20, ceil(t/2)), plus
    16 eps t for the rounding of the phases t log n."""
    s = complex(0.5, t)
    N = max(20, math.ceil(t / 2))
    b22 = bernoulli_number(22)
    first_omitted = (abs(b22.numerator / b22.denominator) / math.factorial(22)
                     * math.prod(abs(s + k) for k in range(21)) * N ** -21.5)
    return (abs(s + 21) / 21.5 * first_omitted
            + 16 * sys.float_info.epsilon * t)


def test_zero_check_agrees_with_mpmath_within_its_bound():
    # every packaged zero, and t drawn over the envelope: 40 of them where
    # the N = 20 floor applies (t <= 40) or just past it
    rng = random.Random(3401)
    drawn = sorted([rng.uniform(14.0, 60.0) for _ in range(40)]
                   + [math.exp(rng.uniform(math.log(60.0), math.log(1e5)))
                      for _ in range(160)])
    assert check_bound(1e5) < 6e-10       # the documented envelope-wide bound
    with mpmath.workdps(15):
        for ordinates in (default_zero_table().ordinates, drawn):
            got = _zeta_check(ordinates).tolist()
            assert len(got) == len(ordinates)
            for t, value in zip(ordinates, got):
                want = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
                assert abs(value - want) <= check_bound(t), t


def test_zero_check_tells_a_moved_ordinate(tmp_path):
    table = default_zero_table()
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{t + 1e-9!r}\n" for t in table.ordinates))
    assert load_zero_table(str(path)).validated
    path.write_text("".join(f"{t + 1e-4!r}\n" for t in table.ordinates))
    moved = load_zero_table(str(path))
    assert not moved.validated
    assert [f[:2] for f in moved.failures] == [
        (line, t + 1e-4) for line, t in enumerate(table.ordinates, start=1)]
    # each residual is |zeta'(rho)| 1e-4 to first order
    for (_, _, residual), t in zip(moved.failures, table.ordinates):
        prime = zeta_derivative(complex(0.5, t))
        assert residual == pytest.approx(abs(prime) * 1e-4, rel=1e-2)


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


def test_fused_sums_match_the_separate_ones_off_the_line():
    rng = random.Random(2718)
    for _ in range(200):
        s = complex(rng.uniform(0.0, 30.0), rng.uniform(-3000.0, 3000.0))
        assert repr((zeta(s), zeta_derivative(s))) == repr(em_reference(s))


def test_zeta_sums_no_derivative_and_keeps_its_bits(monkeypatch):
    rng = random.Random(3402)
    points = [complex(0.5, t) / 2.0 for t in default_zero_table().ordinates]
    points += [complex(rng.uniform(0.0, 30.0), rng.uniform(-3000.0, 3000.0))
               for _ in range(200)]
    asked = []

    def spy(s, derivative=True):
        asked.append(derivative)
        return _zeta_em_pair(s, derivative)
    monkeypatch.setattr(zeta_module, "_zeta_em_pair", spy)
    for s in points:
        assert repr(zeta(s)) == repr(_zeta_em_pair(s)[0]), s
    assert asked == [False] * len(points)


def test_one_pair_forms_zeta_prime_at_one_ordinate(tmp_path, monkeypatch):
    # the first ordinate moved by 1e-9, so the table is not the packaged
    # one and its weights are formed, not read
    first, *rest = default_zero_table().ordinates[:40]
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{t!r}\n" for t in (first + 1e-9, *rest)))
    on_the_line = []

    def spy(s, derivative=True):
        if derivative and s.real == 0.5:
            on_the_line.append(s)
        return _zeta_em_pair(s, derivative)
    monkeypatch.setattr(zeta_module, "_zeta_em_pair", spy)
    table = load_zero_table(str(path))
    assert on_the_line == []
    for x in (10.5, 1000):      # one midpoint, then two
        evaluate_explicit("divisor_sum", x, table,
                          TruncationConfig(num_zero_pairs=1))
    assert on_the_line == [complex(0.5, table.ordinates[0])] * 2


def test_pair_weights_keep_the_bits_of_the_table_held_zeta_prime():
    # zeta(rho/2)^2 / (rho zeta'(rho)) as the weights were formed from the
    # zeta' that validation kept, with both sums taken separately; the
    # weights do not depend on the target, so this covers all three
    table = default_zero_table()
    got = _pair_weights(table, 1000)
    assert len(got) == 1000
    for t, w in zip(table.ordinates, got):
        rho = complex(0.5, t)
        half = em_reference(rho / 2.0)[0]
        want = half * half / (rho * em_reference(rho)[1])
        assert (w.real.hex(), w.imag.hex()) == (want.real.hex(),
                                                 want.imag.hex()), t
