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
