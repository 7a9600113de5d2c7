"""Exponent fitting, grids, and report serialization.

Synthetic power laws with known exponents are the oracle for the fitter;
the report layer is held to byte-level stability because downstream
diffing depends on it.
"""

import json
import math
import time

import pytest

from divisorlab import (DeltaSample, delta_error, divisor_sum_hyperbola,
                        emit_report, exponent_fit, render_csv, render_json)
from divisorlab.errors import ResourceLimitError
from divisorlab.fitting import (GRID_STEPS_MAX, LANDMARK_EXPONENTS,
                                MainConstantFit, delta_samples,
                                fit_main_constant, half_integer_grid)
from divisorlab.reports import (DELTA_CSV_HEADER, SUM_CSV_HEADER,
                                format_number, read_delta_csv, row_dict)

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_half_integer_grid_shape():
    grid = half_integer_grid(100, 10 ** 4, 1.5)
    assert all(v == math.floor(v) + 0.5 for v in grid)
    assert grid == sorted(set(grid))
    assert grid[0] >= 100
    assert grid[-1] <= 10 ** 4 + 0.5
    # ratio close to 1 still terminates and dedupes
    dense = half_integer_grid(10, 20, 1.001)
    assert dense == sorted(set(dense))


def test_half_integer_grid_errors():
    with pytest.raises(ValueError):
        half_integer_grid(0.5, 100)
    with pytest.raises(ValueError):
        half_integer_grid(100, 10)
    with pytest.raises(ValueError):
        half_integer_grid(10, 100, ratio=1.0)


def test_half_integer_grid_refuses_too_many_steps_quickly():
    # 1.0000000000000002 moves lo by one ulp per step: ~2.7e16 steps
    lo, hi = 1.0, 100.0
    just_past = math.exp(math.log(4.0 * hi / lo) / (GRID_STEPS_MAX + 10))
    for ratio in (1.0000000000000002, just_past):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=str(GRID_STEPS_MAX)):
            half_integer_grid(lo, hi, ratio)
        assert time.perf_counter() - t0 < 0.05
    with pytest.raises(ResourceLimitError):
        half_integer_grid(1, math.inf)
    # a grid inside the cap still builds: the benchmark's densest takes ~1e4
    assert len(half_integer_grid(110, 1e8, 1.0015)) > 8000


# ---------------------------------------------------------------------------
# exponent fits on synthetic data
# ---------------------------------------------------------------------------

def synthetic_samples(exponent, *, modulate=None, n=40):
    out = []
    for i in range(n):
        x = 10.0 * 1.35 ** i
        delta = x ** exponent
        if modulate is not None:
            delta *= modulate(x)
        out.append(DeltaSample.build(x, delta, 0.0))
    return out


def test_planted_exponents_recovered():
    for theta in LANDMARK_EXPONENTS:
        fit = exponent_fit(synthetic_samples(theta))
        assert fit.theta == pytest.approx(theta, abs=1e-9)
        assert fit.nearest_landmark == theta
        assert fit.landmark_distance < 1e-9
        assert not fit.oscillation_flag
        assert fit.residual_rms < 1e-9


def test_oscillating_quarter_power_flagged():
    fit = exponent_fit(synthetic_samples(
        0.25, modulate=lambda x: math.cos(math.log(x))))
    assert fit.theta == pytest.approx(0.25, abs=0.06)
    assert fit.nearest_landmark == 0.25
    assert fit.oscillation_flag


def test_fit_diagnostics_fields():
    fit = exponent_fit(synthetic_samples(0.5))
    assert fit.n_samples == 40
    assert fit.decades > 3
    assert fit.max_abs_residual >= fit.residual_rms * 0  # nonnegative
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)


def test_fit_preconditions():
    good = synthetic_samples(0.25)
    with pytest.raises(ValueError):
        exponent_fit(good[:9])  # too few samples
    with pytest.raises(ValueError):
        exponent_fit(synthetic_samples(0.25, n=12)[:10])  # < 3 decades
    flat = [DeltaSample.build(100.5 + i * 1e-9, 1.0, 0.0) for i in range(12)]
    with pytest.raises(ValueError):
        exponent_fit(flat)  # degenerate grid
    zero = good[:]
    zero[3] = DeltaSample.build(zero[3].x, 0.0, 0.0)
    with pytest.raises(ValueError):
        exponent_fit(zero)  # |delta| = 0 breaks the log


def test_real_divisor_exponent_in_range():
    grid = half_integer_grid(10 ** 3, 10 ** 7, 1.3)
    fit = exponent_fit(delta_samples("divisor_sum", grid))
    # report-only landmark comparison; the exponent lands between the
    # proven 1/2 and the conjectured 1/4 without asserting either
    assert 0.15 < fit.theta < 0.45


def test_fit_main_constant_synthetic():
    lead = 6.0 / math.pi ** 2
    c = 1.29432
    xs = [10.0 ** k for k in range(4, 9)]
    values = [lead * (math.log(x) + c) * x for x in xs]
    fit = fit_main_constant(xs, values, lead)
    assert isinstance(fit, MainConstantFit)
    assert fit.constant == pytest.approx(c, abs=1e-12)
    assert fit.spread < 1e-12
    assert fit.n_samples == len(xs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_format_number_contract():
    assert format_number(1.0) == "1"
    assert format_number(13970034) == "13970034"
    assert format_number(0.25) == "0.25"
    assert format_number(True) == "true"
    assert format_number(1.2345678901234567e-5) == "1.23456789012346e-05"
    with pytest.raises(ValueError):
        format_number(float("inf"))
    with pytest.raises(ValueError):
        format_number(float("nan"))


def test_csv_headers_frozen():
    assert DELTA_CSV_HEADER == "x,exact,predicted,delta,delta_over_x14,delta_over_x12"
    assert SUM_CSV_HEADER == "x,fn,value,algorithm"


def test_sum_row_serialization():
    row = divisor_sum_hyperbola(10 ** 6)
    assert render_csv([row]) == "x,fn,value,algorithm\n1000000,d,13970034,hyperbola\n"
    payload = json.loads(render_json([row]))
    assert payload == [{"x": 1000000.0, "fn": "d", "value": 13970034,
                        "algorithm": "hyperbola"}]
    assert "elapsed" not in row_dict(row)


def test_delta_round_trip_bytes(tmp_path):
    samples = [delta_error("divisor_sum", x) for x in (100.5, 1000.5, 33333.5)]
    path = tmp_path / "delta.csv"
    n = emit_report(samples, "csv", str(path))
    assert n == path.stat().st_size
    first = path.read_bytes()
    again = read_delta_csv(str(path))
    emit_report(again, "csv", str(path))
    assert path.read_bytes() == first
    assert [s.x for s in again] == [s.x for s in samples]


def test_json_partials_as_pairs(tmp_path):
    from divisorlab import TruncationConfig, default_zero_table, evaluate_explicit
    ev = evaluate_explicit("divisor_sum", 100.5, default_zero_table(),
                           TruncationConfig(num_zero_pairs=2, tail_terms=2))
    payload = json.loads(render_json([ev]))
    partials = payload[0]["zero_sum_partials"]
    assert partials[0] == [0, 0]
    assert len(partials) == 3
    assert all(len(p) == 2 for p in partials)


def test_emit_report_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", str(tmp_path / "empty.csv"))
    with pytest.raises(ValueError):
        render_csv([{"a": 1}, {"b": 2}])  # heterogeneous keys
    with pytest.raises(ValueError):
        render_csv([{"a": [1, 2]}])  # nested value cannot flatten
    with pytest.raises(ValueError):
        emit_report([{"a": 1}], "xml", str(tmp_path / "out"))


def test_csv_rejects_metacharacters():
    with pytest.raises(ValueError):
        render_csv([{"name": "a,b"}])
    with pytest.raises(ValueError):
        render_csv([{"name": 'a"b'}])
