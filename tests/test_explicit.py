"""Explicit-formula machinery: main terms, zero sums, tails, deltas.

The oscillating sum over zero pairs has no pointwise convergence
guarantee at reachable truncation depths, so nothing here asserts that
partial sums settle; trajectories are checked structurally and against
frozen one-off evaluations that were verified by hand.
"""

import math
import pathlib

import pytest

import divisorlab.explicit as explicit
from divisorlab import summatory
from divisorlab import (divisor_delta_reference, divisor_main_term,
                        squarefree_main_term)
from divisorlab import (DeltaSample, FormulaEvaluation, TruncationConfig,
                        ZeroTable, auxiliary_sums, default_zero_table,
                        delta_error, delta_samples, divisor_sum_hyperbola,
                        evaluate_explicit, load_zero_table, main_term,
                        nontrivial_zero_sum, omega_scan,
                        squarefree_divisor_sum, trivial_zero_tail,
                        zeta_derivative)
from divisorlab.cli import main
from divisorlab.errors import ResourceLimitError
from divisorlab.explicit import TAIL_TERMS_MAX, TARGETS
from divisorlab.fitting import half_integer_grid
from divisorlab.summatory import two_omega_over_n_main_term

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# main terms
# ---------------------------------------------------------------------------

def test_main_term_anchors():
    constant, main = main_term("divisor_sum", 10)
    assert constant == pytest.approx(-math.pi ** 2 / 12, abs=1e-12)
    assert main == pytest.approx(24.57016422797109, abs=1e-10)
    constant, main = main_term("two_omega_sum", 10)
    assert constant == -0.5
    assert main == pytest.approx(21.866763425223986, abs=1e-10)


def test_main_term_formula_shapes():
    x = 1000.0
    _, main = main_term("divisor_sum", x)
    assert main == pytest.approx((math.log(x) + 2 * EULER_GAMMA - 1) * x, rel=1e-14)
    with pytest.raises(ValueError):
        main_term("divisor_sum", 1.0)
    with pytest.raises(ValueError):
        main_term("partition_sum", 10.0)


# ---------------------------------------------------------------------------
# zero-pair sums
# ---------------------------------------------------------------------------

def test_first_pair_frozen_value():
    table = default_zero_table()
    got = nontrivial_zero_sum("two_omega_sum", 100.5, table, 1)
    assert got == [(1, pytest.approx(1.368549735280956, abs=1e-12))]


def test_zero_sum_structure():
    table = default_zero_table()
    parts = nontrivial_zero_sum("divisor_sum", 50.5, table, 8)
    assert [n for n, _ in parts] == list(range(1, 9))
    assert nontrivial_zero_sum("divisor_sum", 50.5, table, 0) == []
    with pytest.raises(ValueError):
        nontrivial_zero_sum("divisor_sum", 50.5, table, len(table) + 1)
    with pytest.raises(ValueError):
        nontrivial_zero_sum("divisor_sum", 0.5, table, 1)


def test_zero_sum_integer_midpoint():
    table = default_zero_table()
    mid = nontrivial_zero_sum("divisor_sum", 100, table, 4)
    lo = nontrivial_zero_sum("divisor_sum", 99.5, table, 4)
    hi = nontrivial_zero_sum("divisor_sum", 100.5, table, 4)
    for (n, vm), (_, vl), (_, vh) in zip(mid, lo, hi):
        assert vm == pytest.approx((vl + vh) / 2.0, rel=1e-12)


def test_unvalidated_table_warns():
    table = ZeroTable(ordinates=(14.134725141734693, 21.022039638771554),
                      validated=False)
    with pytest.warns(RuntimeWarning):
        nontrivial_zero_sum("divisor_sum", 50.5, table, 1)


# ---------------------------------------------------------------------------
# packaged pair weights
# ---------------------------------------------------------------------------

DATA = pathlib.Path(explicit.__file__).with_name("data")


def _hexes(weights):
    return [(w.real.hex(), w.imag.hex()) for w in weights]


def _spy_zeta_prime(monkeypatch):
    """The ordinates at which explicit forms zeta'(rho), in call order."""
    seen = []

    def spy(s):
        if s.real == 0.5:
            seen.append(s.imag)
        return zeta_derivative(s)
    monkeypatch.setattr(explicit, "zeta_derivative", spy)
    return seen


def test_packaged_weights_sit_at_the_packaged_ordinates():
    ordinates, weights = explicit._packaged_pair_weights()
    zeros = load_zero_table(DATA / "zeros1000.txt")
    assert len(ordinates) == len(weights) == 1000
    assert ordinates == zeros.ordinates


def test_packaged_weights_are_the_bits_the_engine_forms():
    ordinates, weights = explicit._packaged_pair_weights()
    formed = explicit._form_pair_weights(ordinates)
    stale = [t for t, got, want in zip(ordinates, _hexes(weights),
                                       _hexes(formed)) if got != want]
    assert not stale, (
        f"{len(stale)} packaged pair weights differ from the zeta engine's, "
        f"the first at t = {stale[0]!r}; if the engine change is meant to "
        f"move them, rewrite the file with "
        f"PYTHONPATH=src python tests/write_pair_weights.py")


def test_a_packaged_table_forms_no_zeta_prime(monkeypatch):
    seen = _spy_zeta_prime(monkeypatch)
    ev = evaluate_explicit("divisor_sum", 300000, default_zero_table(),
                           TruncationConfig(num_zero_pairs=1000))
    assert len(ev.zero_sum_partials) == 1001
    assert seen == []


def test_a_moved_ordinate_forms_every_weight_from_its_index_on(monkeypatch):
    known, packaged = explicit._packaged_pair_weights()
    k = 3           # the third ordinate moves
    moved = (*known[:k - 1], known[k - 1] + 1e-9, *known[k:8])
    table = ZeroTable(ordinates=moved, validated=True)
    seen = _spy_zeta_prime(monkeypatch)
    for n in range(8):
        seen.clear()
        got = explicit._pair_weights(table, n)
        if n < k:
            assert (seen, _hexes(got)) == ([], _hexes(packaged[:n]))
        else:
            assert seen == list(moved[:n])
            assert _hexes(got) == _hexes(explicit._form_pair_weights(moved[:n]))


def test_only_a_zero_sum_reads_the_weight_file():
    read = explicit._packaged_pair_weights
    read.cache_clear()
    for argv in (["sum", "--x", "1000"], ["delta", "--target", "d", "--x", "10.5"],
                 ["voronoi", "--kind", "full", "--x", "10.5", "--terms", "10"]):
        assert main(argv) == 0
    assert read.cache_info().misses == 0
    for _ in range(2):
        assert main(["explicit", "--x", "10.5", "--pairs", "1"]) == 0
    assert read.cache_info().misses == 1


# ---------------------------------------------------------------------------
# trivial-zero tail
# ---------------------------------------------------------------------------

def test_tail_first_coefficient_frozen():
    got = trivial_zero_tail("two_omega_sum", 10, 1)
    assert got == pytest.approx(0.011403606480168384, abs=1e-15)
    got = trivial_zero_tail("divisor_sum", 10, 1)
    assert got == pytest.approx(0.01875818078416017, abs=1e-15)


def test_tail_saturates_quickly():
    a = trivial_zero_tail("divisor_sum", 2.0, 10)
    b = trivial_zero_tail("divisor_sum", 2.0, 20)
    assert a == pytest.approx(b, abs=1e-15)


def test_tail_magnitude_bound():
    for target in ("divisor_sum", "two_omega_sum"):
        for x in (10.5, 100.5, 1000.5, 10 ** 4 + 0.5, 10 ** 5 + 0.5):
            for variant in ("residue", "printed"):
                assert abs(trivial_zero_tail(target, x, 10,
                                             variant=variant)) <= 0.02


def test_tail_flags():
    base = trivial_zero_tail("divisor_sum", 10, 3)
    printed = trivial_zero_tail("divisor_sum", 10, 3, variant="printed")
    assert printed != base  # conventions differ, both stay tiny
    with pytest.raises(ValueError):
        trivial_zero_tail("divisor_sum", 10, TAIL_TERMS_MAX + 1)
    with pytest.raises(ValueError):
        trivial_zero_tail("divisor_sum", 10, 3, variant="other")


def test_over_n_tail_uses_shifted_power():
    # power shift 1: tail terms decay like x^(-2n-2)
    t1 = trivial_zero_tail("two_omega_over_n_sum", 10, 1)
    t2 = trivial_zero_tail("two_omega_sum", 10, 1)
    assert abs(t1) == pytest.approx(abs(t2) / 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------

def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(num_zero_pairs=-1)
    with pytest.raises(ValueError):
        TruncationConfig(tail_terms=0)
    with pytest.raises(ValueError):
        TruncationConfig(tail_variant="other")
    # the tail-term cap is enforced where the tail is evaluated
    cfg = TruncationConfig(num_zero_pairs=0, tail_terms=TAIL_TERMS_MAX + 1)
    with pytest.raises(ValueError):
        evaluate_explicit("divisor_sum", 10.5, default_zero_table(), cfg)


def test_evaluate_explicit_full_decomposition():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=100, tail_terms=10)
    ev = evaluate_explicit("divisor_sum", 10 ** 4 + 0.5, table, cfg)
    assert isinstance(ev, FormulaEvaluation)
    assert ev.exact == 93668
    assert not ev.averaged
    assert len(ev.zero_sum_partials) == 101
    assert ev.zero_sum_partials[0] == (0, 0.0)
    # total and residual identities
    for n in (0, 10, 100):
        total = (ev.constant_term + ev.main_term + ev.zero_sum_at(n)
                 + ev.trivial_tail)
        assert ev.total_at(n) == pytest.approx(total, abs=1e-12)
        assert ev.residual_at(n) == pytest.approx(ev.exact - total, abs=1e-9)
    with pytest.raises(ValueError):
        ev.zero_sum_at(101)


def test_evaluate_explicit_two_omega_exact():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=10, tail_terms=5)
    ev = evaluate_explicit("two_omega_sum", 10 ** 4 + 0.5, table, cfg)
    assert ev.exact == 63869
    assert ev.exact == squarefree_divisor_sum(10 ** 4).value


def test_evaluate_explicit_integer_averages():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=5, tail_terms=5)
    ev = evaluate_explicit("divisor_sum", 100, table, cfg)
    assert ev.averaged
    want = (divisor_sum_hyperbola(99).value
            + divisor_sum_hyperbola(100).value) / 2.0
    assert ev.exact == want
    # each piece is the average of the two offset evaluations
    lo = evaluate_explicit("divisor_sum", 99.5, table, cfg)
    hi = evaluate_explicit("divisor_sum", 100.5, table, cfg)
    assert ev.main_term == pytest.approx((lo.main_term + hi.main_term) / 2,
                                         rel=1e-14)
    assert ev.trivial_tail == pytest.approx(
        (lo.trivial_tail + hi.trivial_tail) / 2, rel=1e-12)


def test_evaluate_explicit_over_n_target():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=3, tail_terms=3)
    ev = evaluate_explicit("two_omega_over_n_sum", 1000.5, table, cfg)
    want = auxiliary_sums([1000])[0]
    assert ev.exact == pytest.approx(want, rel=1e-12)
    # the registry's constant leaves a known stable offset; just check
    # the residual is small and does not explode
    assert abs(ev.residual_at(0)) < 1.0


# ---------------------------------------------------------------------------
# delta samples and omega scans
# ---------------------------------------------------------------------------

def test_delta_error_frozen_values():
    s = delta_error("divisor_sum", 100)
    assert s.exact == 482
    assert s.delta == pytest.approx(6.039848420884425, abs=1e-9)
    s = delta_error("divisor_sum", 1)
    assert s.delta == pytest.approx(0.8455686701969367, abs=1e-12)


def test_delta_sample_scaled_columns():
    s = delta_error("two_omega_sum", 12345.5)
    x = 12345.5
    assert s.delta == pytest.approx(s.exact - s.predicted, abs=1e-9)
    assert s.delta_over_x14 == pytest.approx(s.delta / x ** 0.25, rel=1e-12)
    assert s.delta_over_x12 == pytest.approx(s.delta / x ** 0.5, rel=1e-12)
    built = DeltaSample.build(x, s.exact, s.predicted)
    assert built == s


def test_delta_error_resource_guard():
    with pytest.raises(ResourceLimitError):
        delta_error("divisor_sum", 2 * 10 ** 8)
    with pytest.raises(ValueError):
        delta_error("divisor_sum", 0.5)


def test_omega_scan_finds_both_signs():
    grid = half_integer_grid(10, 10 ** 4, 1.2)
    for target in ("divisor_sum", "two_omega_sum"):
        rep = omega_scan(target, grid)
        assert rep.sup_scaled > 0
        assert rep.inf_scaled < 0
        assert rep.sign_changes >= 5
        assert rep.count == len(grid)
        assert grid[0] <= rep.sup_x <= grid[-1]
        assert grid[0] <= rep.inf_x <= grid[-1]


def test_targets_registry():
    assert TARGETS == ("divisor_sum", "two_omega_sum", "two_omega_over_n_sum")


# ---------------------------------------------------------------------------
# one home per main term, constant and oracle bound
# ---------------------------------------------------------------------------

HOME_MAIN_TERMS = {
    "divisor_sum": divisor_main_term,
    "two_omega_sum": squarefree_main_term,
    "two_omega_over_n_sum": two_omega_over_n_main_term,
}


def test_main_terms_have_one_home():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=2, tail_terms=2)
    for target, home in HOME_MAIN_TERMS.items():
        for x in (2.5, 100.5, 12345.5, 65432.75):
            want = home(x)
            assert explicit._TARGET_SPECS[target].main(x) == want
            assert main_term(target, x)[1] == want
            assert delta_error(target, x).predicted == want
            assert evaluate_explicit(target, x, table, cfg).main_term == want
    assert main_term("two_omega_over_n_sum", 10)[0] == 2.0 * EULER_GAMMA - 1.0
    for x in (2.5, 100.5, 12345.5):
        bare = float(divisor_sum_hyperbola(x).value) - divisor_main_term(x)
        assert delta_error("divisor_sum", x).delta == bare
        assert divisor_delta_reference(x) == bare - 0.25


def test_exact_routes_take_the_bound_and_their_oracle_at_call_time(monkeypatch):
    # a rebound module attribute (as a tracer installs) is the one called
    seen = []

    def oracle(ys, *, bound):
        seen.append((list(ys), bound))
        return [7] * len(ys)

    monkeypatch.setattr(explicit, "auxiliary_sums", oracle)
    sample = delta_error("two_omega_over_n_sum", 500.5, bound=777)
    assert seen == [([500.5], 777)]
    assert sample.exact == 7.0


def test_one_scan_per_grid(monkeypatch):
    # a grid, an omega scan and an integer x (checkpoints x - 1 and x)
    # each take one weighted walk, with every checkpoint's
    # value equal to that of a scan to it alone
    target = "two_omega_over_n_sum"
    grid = half_integer_grid(10, 200000, 1.4)
    alone = [auxiliary_sums([x])[0] for x in grid]
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=2, tail_terms=2)
    below, at = (auxiliary_sums([y])[0] for y in (65536, 65537))
    scans = []
    real = summatory._weighted_sums

    def counting(f, checkpoints, *args, **kwargs):
        scans.append(sorted(checkpoints))
        return real(f, checkpoints, *args, **kwargs)

    monkeypatch.setattr(summatory, "_weighted_sums", counting)
    assert [s.exact for s in delta_samples(target, grid)] == alone
    assert len(scans) == 1
    assert omega_scan(target, grid).count == len(grid)
    assert len(scans) == 2
    ev = evaluate_explicit(target, 65537, table, cfg)
    assert scans[2:] == [[65536, 65537]]
    assert ev.exact == (below + at) / 2.0


def test_oracle_bound_is_an_argument():
    table = default_zero_table()
    cfg = TruncationConfig(num_zero_pairs=2, tail_terms=2)
    for target in TARGETS:
        with pytest.raises(ResourceLimitError, match="bound 1000"):
            delta_error(target, 2000.5, bound=1000)
        assert evaluate_explicit(target, 2000.5, table, cfg, bound=1000).exact is None
        assert evaluate_explicit(target, 2000.5, table, cfg).exact is not None
    with pytest.raises(ResourceLimitError):
        omega_scan("divisor_sum", [10.5, 2000.5], bound=1000)
