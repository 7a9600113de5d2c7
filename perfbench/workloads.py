"""The benchmark's four workloads: seeded divlab command lines.

Every op of a workload is one `divlab` invocation of the same command
shape.  Inputs come from `random.Random(f"{workload}:{seed}")`; each x is
drawn once per stratum of a narrow band, so every seed covers its band
evenly and two runs time nearly the same mix of op sizes.  A run holds
whole rounds of one fixed cycle, and the round count depends only on the
run length, so the op list is a pure function of (workload, seed, seconds).

This module imports only the standard library.  Its checks live in
checks.py, which run.py imports after the timed phase: a spawned op's peak
RSS as the kernel reports it includes the spawning process's memory at the
moment of the spawn, so the benchmark stays small while it times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TARGET_NAMES = {"d": "divisor_sum", "two_omega": "two_omega_sum",
                "two_omega_over_n": "two_omega_over_n_sum"}


@dataclass
class Op:
    argv: list[str]
    kind: str
    params: dict = field(default_factory=dict)


def spread(rng, lo: float, hi: float, count: int) -> list[float]:
    """One seeded point in each of count equal strata of [lo, hi), shuffled."""
    pts = [lo + (k + rng.random()) * (hi - lo) / count for k in range(count)]
    rng.shuffle(pts)
    return pts


def half_integer(v: float) -> float:
    return math.floor(v) + 0.5


def number(v) -> str:
    """Command-line text of an exact integer or half-integer x."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


# ---------------------------------------------------------------------------
# sum ops (oracle_scan, sublinear_points)
# ---------------------------------------------------------------------------

def sum_op(fn: str, algorithm: str, x: int, extra=()) -> Op:
    argv = ["sum", "--algorithm", algorithm, *extra, "--fn", fn, "--x", str(x)]
    return Op(argv, "sum", {"fn": fn, "algorithm": algorithm, "x": x})


# ---------------------------------------------------------------------------
# delta and fit ops (error_profile)
# ---------------------------------------------------------------------------

def grid_points(lo: float, hi: float, ratio: float) -> list[float]:
    """floor(lo * ratio^k) + 1/2, deduplicated, while <= hi (the documented grid)."""
    out: list[float] = []
    cur = float(lo)
    while True:
        x = math.floor(cur) + 0.5
        if x > hi:
            break
        if not out or x > out[-1]:
            out.append(x)
        cur *= ratio
        if cur > 4.0 * hi:
            break
    return out


def grid_op(command: str, target: str, lo: int, hi: int, ratio: float) -> Op:
    argv = [command, "--target", target, "--grid-lo", str(lo), "--grid-hi", str(hi),
            "--ratio", repr(ratio)]
    return Op(argv, command, {"target": TARGET_NAMES[target],
                              "xs": grid_points(lo, hi, ratio)})


# ---------------------------------------------------------------------------
# explicit and voronoi ops (analytic_series)
# ---------------------------------------------------------------------------

def explicit_op(target: str, x: float, pairs: int) -> Op:
    argv = ["explicit", "--target", target, "--x", number(x), "--pairs", str(pairs)]
    return Op(argv, "explicit", {"target": TARGET_NAMES[target], "x": x,
                                 "pairs": pairs})


def voronoi_op(kind: str, x: float, terms: int) -> Op:
    argv = ["voronoi", "--kind", kind, "--x", number(x), "--terms", str(terms)]
    return Op(argv, kind, {"x": x, "terms": terms})


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A fixed cycle of op shapes, sized so each op costs about op_seconds."""

    name: str
    cycle: int
    op_seconds: float
    setup: Op
    build: object   # (rng, rounds) -> list[Op], rounds * cycle long
    check: str      # name of a checks.py function (ops, outputs) -> list[str]

    def ops(self, rng, seconds: float) -> list[Op]:
        rounds = max(1, round(seconds / (self.cycle * self.op_seconds)))
        return self.build(rng, rounds)


ORACLE_TAGS = ("d", "two_omega", "mu", "r2")
# Six 2^21-long segments for the two-worker pool: x in (5 * 2^21, 6 * 2^21].
ORACLE_BAND = (10_700_000, 12_500_000)


def build_oracle(rng, rounds):
    xs = {tag: spread(rng, *ORACLE_BAND, rounds) for tag in ORACLE_TAGS}
    return [sum_op(tag, "brute", int(xs[tag][r]), ("--workers", "2"))
            for r in range(rounds) for tag in ORACLE_TAGS]


# (fn, algorithm, x band); bands sized so the three routes cost about the same
SUBLINEAR_ROUTES = (("d", "hyperbola", (2.4e13, 3.0e13)),
                    ("two_omega", "moebius_kernel", (1.6e11, 1.9e11)),
                    ("d", "convolution_kernel", (0.7e10, 1.0e10)))


def build_sublinear(rng, rounds):
    xs = [spread(rng, *band, rounds) for _, _, band in SUBLINEAR_ROUTES]
    return [sum_op(fn, algo, int(xs[i][r]))
            for r in range(rounds) for i, (fn, algo, _) in enumerate(SUBLINEAR_ROUTES)]


# target -> (grid-hi band, ratio band), sized for equal op cost
PROFILE_GRIDS = {"d": ((0.95e8, 1.0e8), (1.00150, 1.00155)),
                 "two_omega": ((0.95e8, 1.0e8), (1.020, 1.021)),
                 "two_omega_over_n": ((1.5e6, 1.6e6), (1.30, 1.31))}
# Grids start near here; grid-lo is floor(hi / ratio^k) so the last point
# lands just below grid-hi whatever the seed, even on the coarse grid.
GRID_START = 110
PROFILE_CYCLE = (("delta", "d"), ("fit", "two_omega"), ("delta", "two_omega_over_n"),
                 ("fit", "d"), ("delta", "two_omega"), ("fit", "two_omega_over_n"))


def build_profile(rng, rounds):
    grids = {}
    for t, (hi_band, ratio_band) in PROFILE_GRIDS.items():
        hi, ratio = int(rng.uniform(*hi_band)), rng.uniform(*ratio_band)
        steps = round(math.log(hi / GRID_START) / math.log(ratio))
        grids[t] = (math.floor(hi / ratio ** steps), hi, ratio)
    return [grid_op(cmd, t, *grids[t]) for _ in range(rounds) for cmd, t in PROFILE_CYCLE]


EXPLICIT_BAND = (1.0e5, 1.0e6)
EXPLICIT_PAIRS = 1000
# (kind, x band, terms band): 4 pi sqrt(N x) (full) and 2 pi sqrt(N x)
# (sierpinski) stay inside the Bessel envelope for every draw.
VORONOI = (("full", (1250.0, 1350.0), (41_000, 44_000)),
           ("sierpinski", (5000.0, 6000.0), (19_000, 21_000)))


def build_analytic(rng, rounds):
    ex = {t: spread(rng, *EXPLICIT_BAND, rounds) for t in ("d", "two_omega")}
    vor = {kind: (spread(rng, *xb, rounds), spread(rng, *nb, rounds))
           for kind, xb, nb in VORONOI}
    ops = []
    for r in range(rounds):
        for t in ("d", "two_omega"):
            ops.append(explicit_op(t, half_integer(ex[t][r]), EXPLICIT_PAIRS))
        for kind, _, _ in VORONOI:
            xs, ns = vor[kind]
            ops.append(voronoi_op(kind, half_integer(xs[r]), int(ns[r])))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("oracle_scan", len(ORACLE_TAGS), 1.75,
             sum_op("d", "brute", 2, ("--workers", "2")), build_oracle, "check_sums"),
    Workload("sublinear_points", len(SUBLINEAR_ROUTES), 1.05,
             sum_op("d", "hyperbola", 10), build_sublinear, "check_sums"),
    Workload("error_profile", len(PROFILE_CYCLE), 1.7,
             Op(["delta", "--target", "d", "--x", "10.5"], "delta",
                {"target": "divisor_sum", "xs": [10.5]}),
             build_profile, "check_profiles"),
    Workload("analytic_series", 2 + len(VORONOI), 0.75,
             explicit_op("d", 10.5, 1), build_analytic, "check_analytic"),
)}
