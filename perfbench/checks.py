"""Checks of every op's output against the references in refs.py.

`check_*(ops, outputs)` re-derives every reported number and returns a
list of mismatch messages; an empty list means all outputs hold.  Reference
values are computed once per distinct input per call.
"""

from __future__ import annotations

import json
import math

import refs
from workloads import Op

# Explicit-formula pairs re-derived with mpmath; the rest of the 1000 are
# checked for shape only.
CHECKED_PAIRS = 5
# Reports print 15 significant digits: a printed value is off by at most
# 5e-15 of itself, so differences of printed values carry twice that.
ROUNDING = 1e-14


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_sums(ops, outputs) -> list[str]:
    mus = refs.mertens_at([op.params["x"] for op in ops if op.params["fn"] == "mu"])
    exact = {"d": refs.divisor_summatory, "two_omega": refs.squarefree_summatory,
             "mu": mus.__getitem__, "r2": refs.circle_count}
    cache: dict[tuple, int] = {}
    errors = []
    for op, out in zip(ops, outputs):
        p = op.params
        key = (p["fn"], p["x"])
        if key not in cache:
            cache[key] = exact[p["fn"]](p["x"])
        rows = csv_rows(out)
        want = {"x": str(p["x"]), "fn": p["fn"], "value": str(cache[key]),
                "algorithm": p["algorithm"]}
        if rows != [want]:
            errors.append(f"{' '.join(op.argv)}: got {rows}, want {want}")
    return errors


def exact_values(target: str, xs: list[float]) -> list[float]:
    ms = [math.floor(x) for x in xs]
    if target == "divisor_sum":
        return [float(refs.divisor_summatory(m)) for m in ms]
    if target == "two_omega_sum":
        return [float(refs.squarefree_summatory(m)) for m in ms]
    prefix = refs.two_omega_over_n_prefix(max(ms))
    return [float(prefix[m]) for m in ms]


def check_delta_rows(target: str, xs, exact, predicted, rows) -> list[str]:
    """Each row's x, exact, predicted and derived columns against the references."""
    if [float(r["x"]) for r in rows] != xs:
        return [f"{target}: grid x column differs from the documented grid"]
    errors = []
    exact_tol = 0.0 if target != "two_omega_over_n_sum" else 1e-13
    for r, e, pr in zip(rows, exact, predicted):
        got = {k: float(v) for k, v in r.items()}
        x = got["x"]
        delta = got["exact"] - got["predicted"]
        ok = (close(got["exact"], e, exact_tol * abs(e))
              and close(got["predicted"], pr, 1e-12 * abs(pr))
              and close(got["delta"], delta, ROUNDING * (abs(got["predicted"]) + abs(e)))
              and close(got["delta_over_x14"], got["delta"] / x ** 0.25,
                        1e-13 * abs(got["delta"]))
              and close(got["delta_over_x12"], got["delta"] / math.sqrt(x),
                        1e-13 * abs(got["delta"])))
        if not ok:
            errors.append(f"{target} x={x}: row {r}, want exact {e!r} predicted {pr!r}")
    return errors[:5]


def check_fit(target: str, xs, exact, predicted, fit: dict) -> list[str]:
    """Least-squares slope of log|delta| on log x, recomputed from the references."""
    us = [math.log(x) for x in xs]
    vs = [math.log(abs(e - p)) for e, p in zip(exact, predicted)]
    n = len(us)
    um, vm = math.fsum(us) / n, math.fsum(vs) / n
    theta = (math.fsum((u - um) * (v - vm) for u, v in zip(us, vs))
             / math.fsum((u - um) ** 2 for u in us))
    intercept = vm - theta * um
    rms = math.sqrt(math.fsum((v - theta * u - intercept) ** 2
                              for u, v in zip(us, vs)) / n)
    ok = (fit["n_samples"] == n
          and close(fit["decades"], math.log10(xs[-1] / xs[0]), 1e-12)
          and close(fit["theta"], theta, 1e-7)
          and close(fit["intercept"], intercept, 1e-5)
          and close(fit["residual_rms"], rms, 1e-6))
    return [] if ok else [f"fit {target}: got {fit}, want theta {theta} "
                          f"intercept {intercept} rms {rms} n {n}"]


def check_profiles(ops, outputs) -> list[str]:
    cache: dict[tuple, tuple] = {}
    errors = []
    for op, out in zip(ops, outputs):
        target, xs = op.params["target"], op.params["xs"]
        key = (target, tuple(xs))
        if key not in cache:
            cache[key] = (exact_values(target, xs),
                          [refs.main_term(target, x) for x in xs])
        exact, predicted = cache[key]
        if op.kind == "delta":
            errors += check_delta_rows(target, xs, exact, predicted, csv_rows(out))
        else:
            errors += check_fit(target, xs, exact, predicted, json.loads(out)[0])
    return errors


def check_explicit(op: Op, out: str) -> list[str]:
    p = op.params
    target, x, pairs = p["target"], p["x"], p["pairs"]
    (ev,) = json.loads(out)
    m = math.floor(x)
    exact = (refs.divisor_summatory(m) if target == "divisor_sum"
             else refs.squarefree_summatory(m))
    partials = ev["zero_sum_partials"]
    count = min(CHECKED_PAIRS, pairs)
    want = refs.zero_pair_partials(target, x, count)
    ok = (ev["x"] == x and ev["target"] == target and ev["exact"] == exact
          and ev["averaged"] is False and ev["zero_table_validated"] is True
          and [k for k, _ in partials] == list(range(pairs + 1))
          and partials[0][1] == 0
          and close(ev["constant_term"], refs.constant_term(target), 1e-14)
          and close(ev["main_term"], refs.main_term(target, x),
                    1e-12 * abs(ev["main_term"]))
          and close(ev["trivial_tail"], refs.trivial_tail(target, x, 10),
                    1e-9 * abs(ev["trivial_tail"]) + 1e-15)
          and all(close(got, w, 1e-8 * (1 + abs(w)))
                  for (_, got), w in zip(partials[1:count + 1], want)))
    return [] if ok else [f"{' '.join(op.argv)}: report disagrees with references"]


def check_voronoi(op: Op, out: str) -> list[str]:
    x, terms = op.params["x"], op.params["terms"]
    (row,) = csv_rows(out)
    got = {k: (float(v) if v else None) for k, v in row.items() if k != "kind"}
    if op.kind == "full":
        value, last, budget = refs.voronoi_full(x, terms)
        reference = refs.divisor_summatory(math.floor(x))
        last_ok = close(got["last_term"], last, 1e-6 * last)
    else:
        value, budget = refs.sierpinski(x, terms)
        reference = refs.circle_count(math.floor(x))
        last_ok = got["last_term"] is None
    ok = (row["kind"] == op.kind and got["x"] == x and got["n_terms"] == terms
          and last_ok and got["reference"] == reference
          and close(got["value"], value, budget + 1e-12 * abs(value))
          and close(got["residual"], got["value"] - got["reference"],
                    ROUNDING * (abs(got["value"]) + abs(got["residual"]))))
    return [] if ok else [f"{' '.join(op.argv)}: got {row}, want value {value!r} "
                          f"reference {reference}"]


def check_analytic(ops, outputs) -> list[str]:
    errors = []
    for op, out in zip(ops, outputs):
        errors += (check_explicit if op.kind == "explicit" else check_voronoi)(op, out)
    return errors
