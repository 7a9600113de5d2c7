"""Write src/divisorlab/data/weights1000.txt from the zeta engine.

    PYTHONPATH=src python tests/write_pair_weights.py

The weights are explicit._form_pair_weights at the ordinates of the
packaged zeros1000.txt, so the file holds the bits of the numpy log, exp
and sum of the machine that runs this script.  Rerun it only when a
change to the zeta engine is meant to move a pair weight; the golden
explicit lines move with it.
"""

import pathlib

from divisorlab.explicit import _form_pair_weights
from divisorlab.zeta import load_zero_table

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "divisorlab" / "data"

HEADER = """\
# Pair weights w = zeta(rho/2)^2 / (rho zeta'(rho)) at rho = 1/2 + i t for
# the 1000 ordinates t of zeros1000.txt, in its order, as the package's
# Euler-Maclaurin engine forms them (explicit._form_pair_weights).  One
# line per zero: repr(t), then float.hex of Re w and of Im w.
# explicit._pair_weights reads these in place of forming them when a zero
# table's first n ordinates equal the first n here.
# The bits are those of numpy's log, exp and sum on the machine that wrote
# the file (x86-64 Linux, numpy 2.4), as are the golden explicit lines;
# tests/test_explicit.py checks every weight against the engine.
# Regenerate with
#     PYTHONPATH=src python tests/write_pair_weights.py
"""


def main() -> None:
    ordinates = load_zero_table(DATA / "zeros1000.txt").ordinates
    rows = (f"{t!r} {w.real.hex()} {w.imag.hex()}\n"
            for t, w in zip(ordinates, _form_pair_weights(ordinates)))
    (DATA / "weights1000.txt").write_text(HEADER + "".join(rows),
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
