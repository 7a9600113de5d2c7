"""End-to-end coverage of the divlab command line.

Everything runs in-process through main(argv) so exit codes and stdout
bytes are asserted exactly; no PATH assumptions.  The one subprocess is the
sieve memory test, which needs the peak of a process of its own.
"""

import argparse
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divisorlab
from divisorlab import brute_force_sum, cli, FnSpec
from divisorlab.arith import build_factor_table, eval_arithmetic, sigma
from divisorlab.cli import SUITES, main
from divisorlab.errors import ResourceLimitError
from divisorlab.explicit import DeltaSample
from divisorlab.reports import emit_report, read_delta_csv
from divisorlab.zeta import default_zero_table

D6_SUM_ROW = "x,fn,value,algorithm\n1000000,d,13970034,hyperbola\n"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_timed(capsys, *argv):
    """run() plus the wall time of the call.

    Garbage left by earlier tests is collected first: a full collection
    of the test process's heap takes tens of ms, and the allocation
    count decides which call it lands in.
    """
    gc.collect()
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    return rc, out, err, time.perf_counter() - t0


@pytest.fixture()
def zeros_file(tmp_path):
    path = tmp_path / "zeros.txt"
    ordinates = default_zero_table().ordinates[:150]
    path.write_text("".join(f"{t!r}\n" for t in ordinates))
    return str(path)


# ---------------------------------------------------------------------------
# documented invocations
# ---------------------------------------------------------------------------

def test_sum_documented_example(capsys):
    rc, out, err = run(capsys, "sum", "--fn", "d", "--x", "1000000")
    assert rc == 0
    assert out == D6_SUM_ROW
    assert err == ""


def test_sum_algorithms_agree(capsys):
    values = {}
    for algo in ("brute", "hyperbola", "convolution_kernel"):
        rc, out, _ = run(capsys, "sum", "--fn", "d", "--x", "5000",
                         "--algorithm", algo, "--format", "json")
        assert rc == 0
        (row,) = json.loads(out)
        assert row["algorithm"] == algo
        values[algo] = row["value"]
    assert len(set(values.values())) == 1


def test_sum_auto_dispatch(capsys):
    rc, out, _ = run(capsys, "sum", "--fn", "two_omega", "--x", "4000",
                     "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)
    assert row["algorithm"] == "moebius_kernel"
    assert row["value"] == brute_force_sum(FnSpec("two_omega"), 4000).value


# each sublinear --algorithm and the one fn tag it computes
SUM_ROUTES = {"hyperbola": "d", "moebius_kernel": "two_omega",
              "convolution_kernel": "d"}


@pytest.mark.parametrize("algorithm", sorted(SUM_ROUTES))
def test_sum_route_refuses_other_fns(capsys, algorithm):
    tag = SUM_ROUTES[algorithm]
    for label in SIEVE_LABELS:
        if FnSpec.parse(label).tag == tag:
            continue
        rc, out, err = run(capsys, "sum", "--fn", label, "--x", "100",
                           "--algorithm", algorithm)
        assert (rc, out) == (2, ""), label
        assert f"--algorithm {algorithm} computes {tag} only" in err, label


@pytest.mark.parametrize("label, algorithm", [("d", "hyperbola"),
                                              ("two_omega", "moebius_kernel"),
                                              ("r2", "brute")])
def test_sum_auto_picks_a_route_per_fn(capsys, label, algorithm):
    rc, out, _ = run(capsys, "sum", "--fn", label, "--x", "1000",
                     "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)
    assert row["algorithm"] == algorithm
    assert row["value"] == brute_force_sum(FnSpec.parse(label), 1000).value


@pytest.mark.parametrize("command, option", [
    ("sum", "[--algorithm {auto,brute,hyperbola,moebius_kernel,convolution_kernel}]"),
    ("voronoi", "[--kind {full,truncated,sierpinski}]"),
    ("verify", "[--suite {identities,summatory,zeta,bessel,explicit,reports,all}]"),
    ("explicit", "[--tail-variant {residue,printed}]"),
])
def test_usage_lists_choices_in_order(capsys, command, option):
    rc, out, _ = run(capsys, command, "--help")
    assert rc == 0
    usage = out.split("\n\n")[0]
    assert option in " ".join(usage.split())


def test_explicit_documented_example(capsys, zeros_file):
    rc, out, err = run(capsys, "explicit", "--target", "two_omega",
                       "--x", "10000.5", "--zeros", zeros_file,
                       "--pairs", "100", "--tail", "10")
    assert rc == 0
    (row,) = json.loads(out)
    assert row["target"] == "two_omega_sum"
    assert row["x"] == 10000.5
    assert row["exact"] == 63869
    assert len(row["zero_sum_partials"]) == 101
    assert row["zero_sum_partials"][0] == [0, 0]
    assert row["zero_table_validated"] is True
    total = (row["main_term"] + row["constant_term"]
             + row["zero_sum_partials"][-1][1] + row["trivial_tail"])
    assert abs(total - row["exact"]) < abs(row["main_term"]) * 0.01


def test_verify_identities_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "identities")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok  ") for line in lines[:-1])
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total


# every tag; d_33 and sigma_40 take the walk's object (Python int) values
SIEVE_LABELS = ("d", "d_3", "d_33", "sigma_0", "sigma_2", "sigma_40", "mu",
                "mu_squared", "omega", "big_omega", "two_omega",
                "two_big_omega", "r2", "d_restricted_4_1")


@pytest.mark.parametrize("label", SIEVE_LABELS)
def test_sieve_rows(capsys, monkeypatch, label):
    # short chunks, so the streamed rows cross chunk edges
    monkeypatch.setattr(cli, "SEGMENT_SIZE", 1024)
    limit = 3000
    rc, out, _ = run(capsys, "sieve", "--limit", str(limit), "--fn", label)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,fn,value"
    assert len(lines) == limit + 1
    spec, table = FnSpec.parse(label), build_factor_table(limit)
    assert lines[1:] == [f"{n},{label},{eval_arithmetic(spec, n, table)}"
                         for n in range(1, limit + 1)]


# A child's ru_maxrss also counts the memory of the process that spawned
# it, so a bare interpreter spawns the command and reads its peak by wait4.
_PEAK_OF_CHILD = ("import os, subprocess, sys; "
                  "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
                  "_, status, usage = os.wait4(p.pid, 0); "
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def test_sieve_streams_its_rows():
    # the rows go from the walk into the text one at a time; held as a list
    # of dicts they peaked at ~187 MiB at this limit
    src = str(pathlib.Path(divisorlab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, sys.executable,
                          "-m", "divisorlab", "sieve", "--fn", "mu",
                          "--limit", "300000"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    rc, peak_kib = map(int, out.stdout.split())
    assert rc == 0
    assert peak_kib < 128 * 1024


def test_brute_scan_walks_in_short_blocks():
    # a walker holds one 2^18-long block at a time; with one 2^21-long
    # segment per task this command peaked at ~70 MiB
    src = str(pathlib.Path(divisorlab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, sys.executable,
                          "-m", "divisorlab", "sum", "--algorithm", "brute",
                          "--workers", "2", "--fn", "r2", "--x", "11500000"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    rc, peak_kib = map(int, out.stdout.split())
    assert rc == 0
    assert peak_kib < 48 * 1024


def _peak_kib_of(*argv):
    src = str(pathlib.Path(divisorlab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, sys.executable,
                          "-m", "divisorlab", *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    rc, peak_kib = map(int, out.stdout.split())
    assert rc == 0
    return peak_kib


@pytest.mark.parametrize("argv", [
    # the benchmark's T grid: one walk of 2^omega(n)/n to 1.55e6, which
    # divides each SUM_CHUNK straight from its walk; with a segment-long
    # float w and a block-long float n it peaked ~8 MiB above a one-point
    # delta, ~4.6 MiB without them
    ("delta", "--target", "two_omega_over_n", "--grid-lo", "113",
     "--grid-hi", "1550000", "--ratio", "1.305"),
    # the benchmark's d grid, 8384 rows streamed into the report
    ("delta", "--target", "d", "--grid-lo", "110", "--grid-hi", "99500000",
     "--ratio", "1.0015"),
])
def test_benchmark_grids_peak_within_6_mib_of_a_one_point_delta(argv):
    floor = _peak_kib_of("delta", "--target", "d", "--x", "10.5")
    assert _peak_kib_of(*argv) - floor < 6 * 1024


def test_voronoi_row_keys(capsys):
    rc, out, _ = run(capsys, "voronoi", "--x", "100.5", "--kind", "truncated",
                     "--terms", "50", "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)
    assert set(row) == {"x", "kind", "n_terms", "value", "reference",
                        "residual", "last_term"}
    assert abs(row["residual"]) < 1.0


def test_delta_single_point(capsys):
    rc, out, _ = run(capsys, "delta", "--target", "d", "--x", "100.5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,exact,predicted,delta,delta_over_x14,delta_over_x12"
    assert lines[1].startswith("100.5,482,")


def test_ap_divisor_row(capsys):
    rc, out, _ = run(capsys, "ap", "--x", "10000", "--kind", "divisor",
                     "--q", "4", "--a", "1", "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)
    assert row["value"] == 29073
    # serialized at 15 significant digits, so compare to that precision
    assert row["residual"] == pytest.approx(row["value"] - row["predicted"],
                                            abs=1e-9)
    # the fn cell parses to the spec whose brute sum prints the same value,
    # at an x past q 2^16 (and so past the brute walk's 2^18 segment edges)
    for q, a in [(4, 3), (97, 45)]:
        x = str((q << 16) + 1)
        rc, out, _ = run(capsys, "ap", "--kind", "divisor", "--q", str(q),
                         "--a", str(a), "--x", x, "--format", "json")
        (row,) = json.loads(out)
        spec = FnSpec.parse(row["fn"])
        assert (rc, spec) == (0, FnSpec("d_restricted", q=q, a=a))
        rc, out, _ = run(capsys, "sum", "--algorithm", "brute", "--fn",
                         spec.label(), "--x", x, "--format", "json")
        assert (rc, json.loads(out)[0]["value"]) == (0, row["value"])


def test_fit_smoke(capsys, tmp_path):
    samples_path = tmp_path / "samples.csv"
    rc, out, _ = run(capsys, "fit", "--target", "d", "--grid-lo", "1000",
                     "--grid-hi", "3000000", "--ratio", "1.4",
                     "--samples-output", str(samples_path))
    assert rc == 0
    (row,) = json.loads(out)
    assert 0.1 < row["theta"] < 0.5
    assert samples_path.read_text().startswith("x,exact,predicted")


def test_fit_refuses_samples_on_stdout_before_any_work(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "delta_samples", _no_work)
    rc, out, err = run(capsys, "fit", "--grid-lo", "10", "--grid-hi", "100000",
                       "--samples-output", "-")
    assert (rc, out) == (2, "")
    assert "--samples-output" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples, report, exists", [
    ("p.csv", "p.csv", False), ("sub/../p.csv", "p.csv", True)])
def test_fit_refuses_one_file_for_samples_and_report(capsys, monkeypatch,
                                                     tmp_path, samples, report,
                                                     exists):
    # the report would overwrite the samples; the paths match once resolved
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "delta_samples", _no_work)
    (tmp_path / "sub").mkdir()
    if exists:
        (tmp_path / "p.csv").write_text("kept\n")
    rc, out, err = run(capsys, "fit", "--grid-lo", "10", "--grid-hi", "100000",
                       "--samples-output", samples,
                       "--output", str(tmp_path / report))
    assert (rc, out) == (2, "")
    assert "same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        (["p.csv", "sub"] if exists else ["sub"])
    if exists:
        assert (tmp_path / "p.csv").read_text() == "kept\n"


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work before refusing")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE),
                min_size=1, max_size=8))
def test_delta_csv_round_trip_keeps_every_byte(rows):
    samples = [DeltaSample(*row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "delta.csv")
        if any(abs(float(format(v, ".15g"))) == math.inf for row in rows for v in row):
            # 15 digits round a float this close to the largest double up
            # past it; the writer refuses it rather than emit "inf" later
            with pytest.raises(ValueError, match="infinity"):
                emit_report(samples, "csv", path)
            return
        emit_report(samples, "csv", path)
        with open(path, "rb") as fh:
            first = fh.read()
        back = read_delta_csv(path)
        emit_report(back, "csv", path)
        with open(path, "rb") as fh:
            second = fh.read()
    assert first == second
    assert [float(format(v, ".15g")) for row in rows for v in row] == [
        v for s in back for v in (s.x, s.exact, s.predicted, s.delta,
                                  s.delta_over_x14, s.delta_over_x12)]


def test_zeros_env_fallback(capsys, tmp_path):
    """--zeros names the table: 3 ordinates refuse 10 pairs, 20 serve them."""
    def table(n):
        path = tmp_path / f"zeros{n}.txt"
        path.write_text("".join(
            f"{t!r}\n" for t in default_zero_table().ordinates[:n]))
        return str(path)

    rc, _, err = run(capsys, "explicit", "--x", "100.5", "--pairs", "10",
                     "--zeros", table(3))
    assert rc == 2
    assert "table holds 3" in err
    rc, out, _ = run(capsys, "explicit", "--x", "100.5", "--pairs", "10",
                     "--zeros", table(20))
    assert rc == 0
    assert len(json.loads(out)[0]["zero_sum_partials"]) == 11


def test_zeros_env_is_not_read(capsys, tmp_path, monkeypatch):
    small = tmp_path / "three.txt"
    small.write_text("".join(
        f"{t!r}\n" for t in default_zero_table().ordinates[:3]))
    argv = ("explicit", "--x", "100.5", "--pairs", "10")
    _, packaged, _ = run(capsys, *argv)
    monkeypatch.setenv("ZD_ZEROS", str(small))
    default_zero_table.cache_clear()
    try:
        rc, out, _ = run(capsys, *argv)
    finally:
        default_zero_table.cache_clear()
    assert rc == 0
    assert len(json.loads(out)[0]["zero_sum_partials"]) == 11
    assert out == packaged


def test_config_flag_is_unrecognised(capsys):
    rc, out, err = run(capsys, "sum", "--x", "10", "--config", "lab.cfg")
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --config" in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_usage_unknown_flag(capsys):
    rc, _, _ = run(capsys, "sum", "--fn", "d", "--x", "100", "--frobnicate")
    assert rc == 2


def test_exit_usage_bad_combo(capsys):
    rc, _, err = run(capsys, "sum", "--fn", "mu", "--x", "100",
                     "--algorithm", "hyperbola")
    assert rc == 2
    assert "hyperbola" in err
    rc, _, _ = run(capsys, "explicit", "--x", "100.5", "--format", "csv")
    assert rc == 2


def test_explicit_refuses_csv_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "evaluate_explicit", _no_work)
    monkeypatch.setattr(cli, "_load_zeros", _no_work)
    rc, out, err = run(capsys, "explicit", "--x", "100.5", "--format", "csv")
    assert (rc, out) == (2, "")
    assert "JSON only" in err


@pytest.mark.parametrize("argv", [
    ("delta", "--x", "inf"),
    ("delta", "--x", "nan"),
    ("explicit", "--x", "inf"),
    ("sum", "--x", "1e400"),
    ("fit", "--grid-lo", "10", "--grid-hi", "inf"),
])
def test_exit_usage_non_finite_x(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "is not a finite number" in err


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_exit_input_unwritable_output(capsys, tmp_path, where):
    path = tmp_path if where == "directory" else tmp_path / "gone" / "out.csv"
    rc, out, err = run(capsys, "sum", "--x", "100", "--output", str(path))
    assert (rc, out) == (3, "")
    assert str(path) in err


def test_exit_input_missing_zeros(capsys, tmp_path):
    rc, _, err = run(capsys, "explicit", "--x", "100.5",
                     "--zeros", str(tmp_path / "missing.txt"))
    assert rc == 3
    assert "missing.txt" in err


def test_exit_resource_zeros_past_the_envelope(capsys, tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("100001.5\n")
    rc, out, err = run(capsys, "explicit", "--x", "10.5", "--pairs", "1",
                       "--zeros", str(path))
    assert (rc, out) == (4, "")
    assert "exceeds the supported envelope" in err


def test_exit_resource_limit(capsys):
    rc, _, err = run(capsys, "sum", "--fn", "mu", "--x", "2000000000",
                     "--algorithm", "brute")
    assert rc == 4
    assert "bound" in err.lower() or "limit" in err.lower()


def test_exit_resource_delta_above_oracle_bound(capsys):
    rc, out, err = run(capsys, "delta", "--target", "d", "--x", "2000.5",
                       "--oracle-bound", "1000")
    assert rc == 4
    assert out == ""
    assert "bound 1000" in err
    rc, _, _ = run(capsys, "delta", "--target", "d", "--x", "2000.5")
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ("ap", "--kind", "harmonic", "--x", "1e12"),
    ("ap", "--kind", "fractional", "--x", "1e12", "--q", "4", "--a", "1"),
    ("ap", "--kind", "harmonic", "--x", "2000", "--oracle-bound", "1000"),
    ("sum", "--algorithm", "brute", "--fn", "sigma_3", "--x", "3000001"),
])
def test_exit_resource_linear_loops_refuse_quickly(capsys, argv):
    rc, out, err, seconds = run_timed(capsys, *argv)
    assert seconds < 0.05
    assert rc == 4
    assert out == ""
    assert "exceeds" in err or "past" in err


def test_oracle_bound_takes_exponent_form(capsys):
    argv = ("delta", "--target", "two_omega_over_n", "--grid-lo", "10",
            "--grid-hi", "3000")
    rc, plain, _ = run(capsys, *argv, "--oracle-bound", "1000000000")
    assert rc == 0
    rc, expo, _ = run(capsys, *argv, "--oracle-bound", "1e9")
    assert (rc, expo) == (0, plain)
    rc, _, err = run(capsys, *argv, "--oracle-bound", "1e3")
    assert rc == 4
    # the first grid point past the bound: ..., 794.5, 953.5, 1144.5
    assert "x = 1144.5 exceeds the exact-oracle bound 1000" in err


@pytest.mark.parametrize("flag, argv", [
    ("limit", ("sieve", "--fn", "mu")),
    ("terms", ("voronoi", "--x", "100.5")),
    ("pairs", ("explicit", "--target", "d", "--x", "100.5")),
    ("tail", ("explicit", "--target", "d", "--x", "100.5", "--pairs", "3")),
    # two 2^18-long blocks, so 20 walkers fork two
    ("workers", ("sum", "--algorithm", "brute", "--fn", "mu", "--x", "300000")),
])
def test_count_flags_take_exponent_form(capsys, flag, argv):
    rc, plain, _ = run(capsys, *argv, f"--{flag}", "20")
    assert rc == 0
    rc, expo, _ = run(capsys, *argv, f"--{flag}", "2e1")
    assert (rc, expo) == (0, plain)
    for text in ("20.5", "abc"):
        rc, _, err = run(capsys, *argv, f"--{flag}", text)
        assert rc == 2
        assert f"argument --{flag}: {text!r} is not a whole number" in err


def test_exit_usage_oracle_bound_not_whole(capsys):
    rc, out, err = run(capsys, "delta", "--target", "d", "--x", "100.5",
                       "--oracle-bound", "1.5")
    assert rc == 2
    assert out == ""
    assert "whole number" in err


def test_explicit_above_oracle_bound_reports_no_exact(capsys, zeros_file):
    rc, out, _ = run(capsys, "explicit", "--x", "2000.5", "--pairs", "5",
                     "--zeros", zeros_file, "--oracle-bound", "1000")
    assert rc == 0
    assert '"exact":null' in out
    rc, out, _ = run(capsys, "explicit", "--x", "2000.5", "--pairs", "5",
                     "--zeros", zeros_file)
    assert '"exact":15518' in out


@pytest.mark.parametrize("target", ["d", "two_omega"])
def test_explicit_main_term_past_the_float_range_exits_4(capsys, zeros_file, target):
    # D's main term passes the float range between 2^1014 and 2^1015, S_2w's
    # between 2^1015 and 2^1016; at 2^1014 D's two midpoint main terms are
    # finite, though their sum is not
    explicit = ("explicit", "--target", target, "--pairs", "2", "--zeros", zeros_file)
    rc, out, _ = run(capsys, *explicit, "--x", str(int(2.0 ** 1014)))
    assert rc == 0
    assert math.isfinite(json.loads(out)[0]["main_term"])
    x = 2.0 ** 1017
    rc, out, err = run(capsys, *explicit, "--x", str(int(x)))
    assert (rc, out) == (4, "")
    assert f"at x = {x!r} the main term overflows" in err


def test_oracle_bound_compares_the_floor_of_x(capsys, zeros_file):
    # every scan reaches floor(x), and D(1000) = 7069
    bound = ("--oracle-bound", "1000")
    rc, out, _ = run(capsys, "delta", "--target", "d", "--x", "1000.5", *bound)
    assert rc == 0
    assert out.splitlines()[1].startswith("1000.5,7069,")
    rc, out, err = run(capsys, "delta", "--target", "d", "--x", "1001.5", *bound)
    assert (rc, out) == (4, "")
    assert "x = 1001.5 exceeds the exact-oracle bound 1000" in err
    explicit = ("explicit", "--target", "d", "--pairs", "2", "--zeros", zeros_file)
    rc, out, _ = run(capsys, *explicit, "--x", "1000.5", *bound)
    assert rc == 0
    assert json.loads(out)[0]["exact"] == 7069
    rc, out, _ = run(capsys, *explicit, "--x", "1001.5", *bound)
    assert rc == 0
    assert json.loads(out)[0]["exact"] is None


def test_oracle_bound_message_prints_x_and_bound_in_full(capsys):
    rc, _, err = run(capsys, "delta", "--target", "two_omega_over_n",
                     "--x", "100000001.5")
    assert rc == 4
    assert "x = 100000001.5 exceeds the exact-oracle bound 100000000" in err


# refused for the length of the scan or the table, not for a value too long
# to write: the sum of sigma_600 to 14433227 is about 10^4299.9986, and the
# sigma_40 table has 281-digit bounds on 10^7 rows
SIZE_REFUSALS = {
    ("sum", "--algorithm", "brute", "--fn", "sigma_600", "--x", "14433227"):
        "sigma_600 outgrows int64, and its exact scans stop at 3000000; "
        "x=14433227 is past that",
    ("sieve", "--fn", "sigma_40", "--limit", "1e7"):
        "sieve of sigma_40 to 10000000 may write 281-digit values, "
        "2810000000 digits in all, past the 190000000 of int64s",
    # one k past README's edge of d_k tables to 1e7 rows, read through
    # Mertens' B
    ("sieve", "--fn", "d_51750", "--limit", "1e7"):
        "sieve of d_51750 to 10000000 may write 190000150 digits in all, "
        "past the 190000000 of int64s",
}


@pytest.mark.parametrize("argv", [
    ("sum", "--algorithm", "brute", "--fn", "sigma_100000", "--x", "10"),
    ("sieve", "--fn", "sigma_1000000", "--limit", "3"),
    ("sum", "--algorithm", "brute", "--fn", "sigma_10000", "--x", "100000"),
    ("sum", "--algorithm", "brute", "--fn", "sigma_100000000000", "--x", "10"),
    # 4301 digits, one past the limit, where the float bound alone cannot tell
    ("sum", "--algorithm", "brute", "--fn", "sigma_1200", "--x", "3828"),
    # the same with m near POINTWISE_MAX, where the terms decay slowly
    ("sum", "--algorithm", "brute", "--fn", "sigma_664", "--x", "2953998"),
    # a bound half a digit past the limit, with m far past POINTWISE_MAX
    ("sum", "--algorithm", "brute", "--fn", "sigma_13", "--x", str(int(1.8e307))),
    *SIZE_REFUSALS,
])
def test_exit_resource_unwritable_integers_refuse_quickly(capsys, argv):
    # each value or sum has more digits than Python writes (4300 by default)
    rc, out, err, seconds = run_timed(capsys, *argv)
    assert seconds < 0.05
    assert (rc, out) == (4, "")
    assert SIZE_REFUSALS.get(argv, "digits") in err


def test_object_sieve_refusal_edge():
    # sigma_40 values to 801687 have at most 237 digits, and 801688 rows of
    # 237 digits pass 19 * SIEVE_ROWS_MAX; the table is built lazily
    args = argparse.Namespace(fn="sigma_40", limit=801687)
    cli._cmd_sieve(args)
    args.limit += 1
    with pytest.raises(ResourceLimitError):
        cli._cmd_sieve(args)


def test_d_k_table_refusal_bounds_the_total_digits():
    # d_22 needs Python ints; its rows average a few digits, so tables to
    # the row cap run, while a huge k is still refused there, each in
    # well under 50 ms
    for spec, limit, refused in [(FnSpec("d_k", k=22), 6333334, False),
                                 (FnSpec("d_k", k=22), cli.SIEVE_ROWS_MAX, False),
                                 # README's stated edge at 1e7 rows
                                 (FnSpec("d_k", k=51749), 10 ** 7, False),
                                 (FnSpec("d_k", k=10 ** 30), cli.SIEVE_ROWS_MAX, True)]:
        gc.collect()
        t0 = time.perf_counter()
        try:
            cli._refuse_long_table(spec, limit)
            got = False
        except ResourceLimitError as exc:
            got = True
            assert "digits in all" in str(exc)
        assert time.perf_counter() - t0 < 0.05
        assert got == refused, (spec, limit)


@pytest.mark.parametrize("m", [2, 3, 30, 1000, 30000])
def test_d_k_digit_bound_holds(m):
    # the bound on sum_{n<=m} Omega(n), and on the digits of a d_33 table
    table = build_factor_table(m)
    big_omega = sum(sum(e for _, e in table.factorize(n)) for n in range(1, m + 1))
    ln = math.log(m)
    assert big_omega < m * (math.log(ln) + cli.MERTENS_B + 1 / ln ** 2 + 0.7732)
    k = 33
    digits = sum(len(str(math.prod(math.comb(e + k - 1, k - 1)
                                   for _, e in table.factorize(n))))
                 for n in range(1, m + 1))
    assert digits <= m + math.log10(k) * big_omega


@pytest.mark.parametrize("a, x, digits", [(4000, 10, 4001), (1570, 548, 4300),
                                          (1200, 3827, 4300)])
def test_sigma_sums_that_fit_still_run(capsys, a, x, digits):
    # sigma_1570 to 548 and sigma_1200 to 3827 have exactly the 4300 digits
    # a report may hold; the float bound on the latter reaches 4301
    rc, out, _ = run(capsys, "sum", "--algorithm", "brute", "--fn", f"sigma_{a}",
                     "--x", str(x))
    assert rc == 0
    value = int(out.splitlines()[1].split(",")[2])
    assert value == sum(d ** a * (x // d) for d in range(1, x + 1))
    assert len(str(value)) == digits


@pytest.mark.parametrize("limit, a", [(4300, 1100), (4300, 1200), (4300, 2300),
                                      (4300, 4000), (640, 200)])
def test_sigma_sum_refusal_matches_exact_sums_next_to_the_limit(limit, a):
    # m runs from m^a of about limit - 1 digits to m^a of limit + 1, so the
    # sums cross 10^limit on the way; each is refused exactly when it
    # reaches 10^limit
    lo, hi = math.floor(10 ** ((limit - 1) / a)), math.ceil(10 ** ((limit + 1) / a))
    spec = FnSpec("sigma", a=a)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        total = sum(d ** a * (lo // d) for d in range(1, lo + 1))
        verdicts = set()
        for m in range(lo, hi + 1):
            total += sigma(m, a) if m > lo else 0
            try:
                cli._refuse_unwritable(spec, m, summed=True)
                refused = False
            except ResourceLimitError:
                refused = True
            assert refused == (total >= 10 ** limit), m
            verdicts.add(refused)
    finally:
        sys.set_int_max_str_digits(old)
    assert verdicts == {False, True}


@pytest.mark.parametrize("a, m", [(664, 2953997), (700, 1374527), (900, 59669)])
def test_sigma_sum_refusal_is_exact_and_quick_for_large_m(a, m):
    # m and m + 1 sit on either side of 10^4300; an exact sum would take
    # millions of 4300-digit powers, so the side comes from Euler-Maclaurin,
    #   sum_{d<=m} d^a = m^(a+1)/(a+1) + m^a/2 + a m^(a-1)/12 + ...,
    # whose next terms and the floor(m/d) > 1 part are below 1e-10 of it
    spec = FnSpec("sigma", a=a)
    for n, refused in [(m, False), (m + 1, True)]:
        log_sum = ((a + 1) * math.log10(n) - math.log10(a + 1)
                   + math.log10(1 + (a + 1) / (2 * n) + (a + 1) * a / (12 * n * n)))
        assert (log_sum >= 4300 + 1e-6) if refused else (log_sum < 4300 - 1e-6)
        gc.collect()
        t0 = time.perf_counter()
        try:
            cli._refuse_unwritable(spec, n, summed=True)
            got = False
        except ResourceLimitError:
            got = True
        assert time.perf_counter() - t0 < 0.05
        assert got == refused, n


@pytest.mark.parametrize("m, a", [(3000, 50), (200, 3), (64, 700), (2, 14000)])
def test_sigma_sum_reaches_is_exact_at_the_sum_itself(m, a):
    # top = the sum: every round stays undecided until the last term
    total = sum(d ** a * (m // d) for d in range(1, m + 1))
    assert cli._sigma_sum_reaches(m, a, total)
    assert not cli._sigma_sum_reaches(m, a, total + 1)


@pytest.mark.parametrize("command", ["delta", "fit"])
def test_exit_resource_dense_grid_refuses_quickly(capsys, command):
    rc, out, err, seconds = run_timed(capsys, command, "--target", "d",
                                      "--grid-lo", "1", "--grid-hi", "100",
                                      "--ratio", "1.0000000000000002")
    assert seconds < 0.05
    assert rc == 4
    assert out == ""
    assert "steps" in err


def test_exit_resource_fit_above_oracle_bound(capsys):
    rc, out, err = run(capsys, "fit", "--target", "two_omega_over_n",
                       "--grid-lo", "1", "--grid-hi", "2000",
                       "--oracle-bound", "1000")
    assert rc == 4
    assert out == ""
    assert "bound 1000" in err


@pytest.mark.parametrize("kind, x, terms", [("full", "7000.5", 9045),
                                            ("sierpinski", "30000.5", 8443),
                                            ("truncated", "500.5", 500)])
def test_voronoi_default_terms_fit_the_domain(capsys, kind, x, terms):
    rc, out, err = run(capsys, "voronoi", "--kind", kind, "--x", x,
                       "--format", "json")
    assert rc == 0, err
    (row,) = json.loads(out)
    assert row["n_terms"] == terms


def test_voronoi_truncated_default_refuses_x_below_two(capsys):
    # the default count was ceil(x) - 1 = 1, refused as a bad n_terms
    rc, out, err = run(capsys, "voronoi", "--kind", "truncated", "--x", "1.5")
    assert rc == 2
    assert out == ""
    assert "2 <= N < x" in err and "x = 1.5" in err
    assert "n_terms" not in err


def test_exit_resource_voronoi_past_the_envelope(capsys):
    for kind, x in (("full", "63400000.5"), ("sierpinski", "253400000.5")):
        rc, out, err = run(capsys, "voronoi", "--kind", kind, "--x", x)
        assert rc == 4
        assert out == ""
        assert "envelope" in err


def test_exit_resource_voronoi_terms_past_the_envelope(capsys):
    # the kernel that meets the first argument past 1e5 names itself
    for kind, terms, kernel in (("full", "70000", "bessel_K1"),
                                ("sierpinski", "260000", "bessel_J1")):
        rc, out, err = run(capsys, "voronoi", "--kind", kind,
                           "--x", "1000.5", "--terms", terms)
        assert rc == 4
        assert out == ""
        assert kernel in err and "envelope" in err


def test_sierpinski_checks_the_envelope_on_nonzero_r2_terms_only(capsys):
    # at x = 1e8 + 0.5, 2 pi sqrt(n x) passes 1e5 from n = 3 on, and r2(3) = 0
    rc, out, err = run(capsys, "voronoi", "--kind", "sierpinski",
                       "--x", "100000000.5", "--terms", "3", "--format", "json")
    assert rc == 0, err
    (row,) = json.loads(out)
    assert row["n_terms"] == 3
    rc, out, err = run(capsys, "voronoi", "--kind", "sierpinski",
                       "--x", "100000000.5", "--terms", "4")
    assert rc == 4
    assert "bessel_J1" in err


def test_exit_usage_x_not_exact_as_float(capsys):
    # 2^53 + 1 reads as the float 2^53, which would answer for another x
    rc, out, err = run(capsys, "sum", "--x", "9007199254740993")
    assert rc == 2
    assert out == ""
    assert "9007199254740992" in err
    rc, _, _ = run(capsys, "delta", "--grid-lo", "100",
                   "--grid-hi", "100000000000000001")
    assert rc == 2
    rc, _, _ = run(capsys, "sum", "--fn", "mu", "--algorithm", "brute",
                   "--x", "0.99999999999999999")
    assert rc == 2


def test_x_with_exact_floor_keeps_its_bytes(capsys):
    rc, out, _ = run(capsys, "sum", "--x", "1000.5")
    assert rc == 0
    assert out == "x,fn,value,algorithm\n1000.5,d,7069,hyperbola\n"
    rc, out, _ = run(capsys, "sum", "--x", "1000.5", "--fn", "mu",
                     "--algorithm", "brute", "--format", "json")
    assert rc == 0
    assert out == '[{"x":1000.5,"fn":"mu","value":2,"algorithm":"brute"}]\n'


def test_exit_usage_workers_below_one(capsys):
    for workers in ("0", "-3"):
        rc, out, err = run(capsys, "sum", "--fn", "mu", "--x", "5000",
                           "--algorithm", "brute", "--workers", workers)
        assert rc == 2
        assert out == ""
        assert "workers" in err
    # also where the flag has nothing to run
    rc, _, err = run(capsys, "delta", "--target", "d", "--x", "100.5",
                     "--workers", "0")
    assert rc == 2
    assert "workers" in err


def test_exit_verify_failure(capsys, monkeypatch):
    monkeypatch.setitem(
        SUITES, "identities",
        lambda args: [("always_red", False, "synthetic failure")])
    rc, out, _ = run(capsys, "verify", "--suite", "identities")
    assert rc == 5
    assert "FAIL identities.always_red" in out
    assert "0/1 checks passed" in out


# ---------------------------------------------------------------------------
# each subcommand takes only the flags it reads
# ---------------------------------------------------------------------------

LONG_OPTIONS = {
    "sieve": "--output --format --limit --fn",
    "sum": "--output --format --workers --oracle-bound --fn --x --algorithm",
    "explicit": "--output --format --oracle-bound --target --x --zeros --pairs "
                "--tail --tail-variant",
    "voronoi": "--output --format --x --kind --terms",
    "delta": "--output --format --workers --oracle-bound --target --x --grid-lo "
             "--grid-hi --ratio",
    "ap": "--output --format --oracle-bound --x --kind --q --a",
    "verify": "--suite",
    "fit": "--output --format --workers --oracle-bound --target --grid-lo "
           "--grid-hi --ratio --samples-output",
}


def test_subcommand_long_options():
    (subs,) = [action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    got = {name: " ".join(option for action in sub._actions
                          for option in action.option_strings
                          if option.startswith("--") and option != "--help")
           for name, sub in subs.choices.items()}
    assert got == LONG_OPTIONS
    assert sum(len(options.split()) for options in got.values()) == 51


# a cheap run of a command, and a flag the command does not read
UNREAD_FLAGS = [
    (("sieve", "--limit", "10"), ("--workers", "2")),
    (("sieve", "--limit", "10"), ("--oracle-bound", "1000")),
    (("voronoi", "--kind", "full", "--x", "10.5", "--terms", "1"), ("--workers", "2")),
    (("voronoi", "--kind", "full", "--x", "10.5", "--terms", "1"),
     ("--oracle-bound", "1000")),
    (("explicit", "--x", "10.5", "--pairs", "1"), ("--workers", "2")),
    (("ap", "--kind", "divisor", "--q", "4", "--a", "3", "--x", "100"),
     ("--workers", "2")),
    (("verify", "--suite", "reports"), ("--output", "v.txt")),
    (("verify", "--suite", "reports"), ("--format", "json")),
    (("verify", "--suite", "reports"), ("--workers", "2")),
    (("verify", "--suite", "reports"), ("--oracle-bound", "1000")),
    (("verify", "--suite", "explicit"),
     ("--zeros", str(pathlib.Path(divisorlab.__file__).parent / "data/zeros1000.txt"))),
]


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS,
                         ids=[f"{argv[0]}{flag[0]}" for argv, flag in UNREAD_FLAGS])
def test_unread_flag_exits_usage(capsys, monkeypatch, tmp_path, argv, flag):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv, *flag)
    assert (rc, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# determinism across workers
# ---------------------------------------------------------------------------

def test_worker_count_invisible_in_output(capsys, tmp_path):
    paths = []
    for workers in (1, 3):
        path = tmp_path / f"mertens_{workers}.csv"
        rc, _, _ = run(capsys, "sum", "--fn", "mu", "--x", "20000",
                       "--algorithm", "brute", "--workers", str(workers),
                       "--output", str(path))
        assert rc == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("fn", ["d", "two_omega", "mu", "r2"])
def test_forked_scans_print_the_one_process_bytes_at_block_edges(capsys, fn):
    # x = k 2^18 - 1, k 2^18 and k 2^18 + 1: the last block is one short,
    # full, or one long; k = 1 forks only for the one-value second block
    for k in (1, 4):
        for x in (k * 2 ** 18 - 1, k * 2 ** 18, k * 2 ** 18 + 1):
            argv = ("sum", "--algorithm", "brute", "--fn", fn, "--x", str(x))
            one = run(capsys, *argv, "--workers", "1")
            assert run(capsys, *argv, "--workers", "2") == one, (fn, x)
            assert one[0] == 0
