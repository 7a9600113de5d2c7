"""Report bytes of a fixed command set against committed expected text.

The byte-stability contract covers more than worker counts: a refactor
must not move a report byte either.  tests/golden_reports.txt holds the
stdout of each command below; rewrite it (only for an intended change of
output) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_reports.txt
"""

import contextlib
import io
import pathlib
import sys

from divisorlab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.txt")

TARGETS = ("d", "two_omega", "two_omega_over_n")
COMMANDS = (
    [("sum", "--algorithm", "brute", "--x", "100000")]
    + [("delta", "--target", t, "--grid-lo", "10", "--grid-hi", "100000")
       for t in TARGETS]
    + [("explicit", "--target", t, "--x", "1000.5", "--pairs", "5")
       for t in TARGETS]
    + [("voronoi", "--kind", kind, "--x", "1000.5", "--terms", "2000")
       for kind in ("full", "sierpinski")]
    + [("ap", "--kind", "harmonic", "--x", "100000")]
    + [("delta", "--target", "two_omega_over_n", "--grid-lo", "2000000",
        "--grid-hi", "2200000", "--ratio", "1.01"),
       ("explicit", "--target", "two_omega_over_n", "--x", "65537",
        "--pairs", "5")]
    + [("sum", "--algorithm", "brute", "--fn", fn, "--x", "4500000")
       for fn in ("mu", "two_omega", "r2")]
    + [("sum", "--algorithm", "brute", "--fn", "d_restricted_4_1",
        "--x", "100000")]
    # K1 is not negligible next to Y1 at x = 1.5; the sierpinski run
    # crosses the series/asymptotic switch z = 12; 4097 terms end one past
    # a 2^12-term chunk; 1000 pairs put every pair weight into the bytes
    + [("voronoi", "--kind", "full", "--x", "1.5", "--terms", "5000"),
       ("voronoi", "--kind", "sierpinski", "--x", "1.5", "--terms", "3000"),
       ("voronoi", "--kind", "full", "--x", "1000.5", "--terms", "4097"),
       ("explicit", "--target", "d", "--x", "500000.5", "--pairs", "1000")]
    # one table per value rule; sigma_40 and d_33 overflow int64, and
    # sigma_3 at 2^20 + 1 and d_33 sum past it
    + [("sieve", "--fn", fn, "--limit", "1000")
       for fn in ("d", "mu", "r2", "sigma_40", "d_33", "d_restricted_4_1")]
    + [("sieve", "--fn", "sigma_2", "--limit", "1000", "--format", "json"),
       ("sum", "--algorithm", "brute", "--fn", "sigma_3", "--x", "1048577"),
       ("sum", "--algorithm", "brute", "--fn", "d_33", "--x", "100000")]
    # each ap run crosses a q 2^16 chunk edge of its progression; the two
    # voronoi runs are shapes of the analytic_series benchmark
    + [("ap", "--kind", "divisor", "--q", "3", "--a", "1", "--x", "200000"),
       # r = isqrt(x) = 2^14 + 1: the hyperbola runs a second chunk
       ("ap", "--kind", "divisor", "--q", "4", "--a", "3", "--x", "268468225",
        "--oracle-bound", "300000000"),
       ("ap", "--kind", "harmonic", "--q", "4", "--a", "1", "--x", "300000"),
       ("ap", "--kind", "fractional", "--x", "150000.5"),
       ("ap", "--kind", "fractional", "--q", "4", "--a", "3", "--x", "300000.5"),
       ("voronoi", "--kind", "full", "--x", "1300.5", "--terms", "43000"),
       ("voronoi", "--kind", "sierpinski", "--x", "5500.5", "--terms", "20000")]
    # the cosine sum: 4999 terms cross a 2^12-term chunk edge, 123456.5 takes
    # the default count and 200000 terms run 49 chunks
    + [("voronoi", "--kind", "truncated", "--x", x, *terms)
       for x, terms in (("1000.5", ("--terms", "999")),
                        ("5000.25", ("--terms", "4999")),
                        ("123456.5", ()),
                        ("300000.5", ("--terms", "200000")))]
    # x = 2 * 2^21 + 1: each brute scan crosses sixteen 2^18 block edges,
    # every oracle tag of the benchmark (d, two_omega, mu, r2) among them
    + [("sum", "--algorithm", "brute", "--workers", "2", "--fn", fn,
        "--x", "4194305")
       for fn in ("d", "omega", "big_omega", "mu_squared", "two_big_omega",
                  "two_omega", "mu", "r2")]
    # a fine d grid up to the 1e8 oracle bound; hyperbola sums on both sides
    # of the largest m whose chunk sums of quotients stay below 2^53 in
    # floats (11 m < 2^53) and of m = 2^53 (2^53 + 1 reads as 2^53, so
    # 2^53 + 2); 12 two_omega_over_n points, 6 in one SUM_CHUNK, across the
    # chunk edge at n = 2^17
    + [("delta", "--target", "d", "--grid-lo", "99990000", "--grid-hi",
        "100000000", "--ratio", "1.000001")]
    + [("sum", "--algorithm", "hyperbola", "--x", str(x))
       for x in (818836295885544, 818836295885545, 2 ** 53 - 1, 2 ** 53,
                 2 ** 53 + 2)]
    + [("delta", "--target", "two_omega_over_n", "--grid-lo", "130900",
        "--grid-hi", "131200", "--ratio", "1.0002")]
    # a report of each remaining shape: fit in both formats, auto and kernel
    # sums, JSON rows of delta, voronoi and ap, and an averaged integer x
    + [("fit", "--target", "d", "--grid-lo", "1000", "--grid-hi", "3000000",
        "--ratio", "1.4"),
       ("fit", "--target", "two_omega", "--grid-lo", "1000", "--grid-hi",
        "3000000", "--ratio", "1.4", "--format", "csv"),
       ("delta", "--target", "d", "--x", "1000.5", "--format", "json"),
       ("sum", "--fn", "two_omega", "--x", "1000000"),
       ("sum", "--algorithm", "convolution_kernel", "--x", "1000000000"),
       ("voronoi", "--kind", "truncated", "--x", "1000.5", "--terms", "999",
        "--format", "json"),
       ("ap", "--kind", "divisor", "--q", "3", "--a", "1", "--x", "200000",
        "--format", "json"),
       ("explicit", "--target", "d", "--x", "100", "--pairs", "5")]
    # x = 3 * 2^18 + 1: brute scans across two 2^18 block edges, at one and
    # two workers; d_22 walks object values across them; the weighted
    # two_omega_over_n points straddle n = 2^18 + 1
    + [("sum", "--algorithm", "brute", "--workers", w, "--fn", fn,
        "--x", "786433")
       for fn in ("omega", "big_omega", "two_big_omega", "mu_squared",
                  "sigma_1", "d_3")
       for w in ("1", "2")]
    + [("sum", "--algorithm", "brute", "--fn", "d_22", "--x", "600000"),
       ("delta", "--target", "two_omega_over_n", "--grid-lo", "262000",
        "--grid-hi", "262400", "--ratio", "1.0001")]
    # the two verify suites whose lines hold integers only
    + [("verify", "--suite", suite) for suite in ("identities", "summatory")]
    # integer x averages every piece over x -+ 1/2 for the d and two_omega
    # targets too, over 50 pairs
    + [("explicit", "--target", t, "--x", "1000", "--pairs", "50")
       for t in ("d", "two_omega")]
    # many-x grids through the batched hyperbola: d rows on both sides of
    # FLOAT_SUM_MAX in one batch, a dense two_omega grid whose inner D
    # values batch across points, Moebius-kernel sums at two x, and a d fit
    # at the density of the benchmark's d grid
    + [("delta", "--target", "d", "--grid-lo", "818835500000000", "--grid-hi",
        "818837500000000", "--ratio", "1.000001", "--oracle-bound",
        "1000000000000000"),
       ("delta", "--target", "two_omega", "--grid-lo", "110", "--grid-hi",
        "99000000", "--ratio", "1.02")]
    + [("sum", "--algorithm", "moebius_kernel", "--fn", "two_omega", "--x", x)
       for x in ("1000000007", "170000000001")]
    + [("fit", "--target", "d", "--grid-lo", "110", "--grid-hi", "99500000",
        "--ratio", "1.0015")]
    # a single delta --x of each target as CSV; T's walk to 262145 ends on
    # the first n of its second 2^18-long block
    + [("delta", "--target", t, "--x", "262145.5") for t in TARGETS]
    # the D batch at r = 2^14 - 1, 2^14 and 2^14 (the last column of one
    # 2^14-column chunk, then a second chunk), and a grid whose roots cross
    # the bit-length step at 2^14
    + [("sum", "--algorithm", "hyperbola", "--x", x)
       for x in ("268435455", "268435456", "268468224")]
    + [("delta", "--target", "d", "--grid-lo", "268400000", "--grid-hi",
        "268500000", "--ratio", "1.00002", "--oracle-bound", "300000000")]
    # every pair weight of the other two targets, and one run at the
    # default pair count
    + [("explicit", "--target", "two_omega", "--x", "704252.5", "--pairs",
        "1000"),
       ("explicit", "--target", "two_omega_over_n", "--x", "5000.5",
        "--pairs", "1000"),
       ("explicit", "--target", "two_omega", "--x", "123456.5")]
    # the zeta and explicit self-checks print the engine's values and
    # errors to three digits and more
    + [("verify", "--suite", suite) for suite in ("zeta", "explicit")]
)


def render() -> str:
    out = []
    for argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
        out.append(f"$ divlab {' '.join(argv)}\n# exit {rc}\n{buf.getvalue()}")
    return "".join(out)


def test_report_bytes_match_golden():
    assert render().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    sys.stdout.write(render())
