"""Run one divlab command with spans around each layer's public functions.

    PYTHONPATH=src python3 perfbench/trace_boot.py TRACE.json DIVLAB-ARGS...

The bootstrap imports divisorlab.cli (timing the import), replaces every
module attribute bound to a listed function with a recording wrapper, calls
cli.main(args) and writes the counters to TRACE.json.  The modules bind
names with `from .x import y`, so each binding is replaced, not only the
defining one.  Spans nest: a layer's busy time counts only its outermost
span, and its self time subtracts the spans of other layers inside it.

Pool workers forked by the program inherit the wrappers; each writes its
own counters when it exits, and the parent adds them in.  Nothing here
writes to standard output, so the report bytes are the program's own.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys
import time
from multiprocessing import util

t0 = time.perf_counter()
import divisorlab.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - t0


def _n_scanned(args, kwargs, result):
    xs = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("xs"))
    return max(math.floor(x) for x in xs) if isinstance(xs, (list, tuple, range)) \
        else math.floor(xs)


def _pairs(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    return 100 if cfg is None else cfg.num_zero_pairs


def _terms(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("n_terms", 10 ** 4)


def _report_bytes(args, kwargs, result):
    return result if isinstance(result, int) else len(result)


# layer -> (module, {function: (extra counter name, extractor) or None})
LAYERS = {
    "arith.sieve": ("arith", dict.fromkeys(
        ("divisor_count_sieve", "primes_up_to", "build_factor_table",
         "shared_factor_table"))),
    "summatory.brute": ("summatory", dict.fromkeys(
        ("brute_force_sum", "brute_force_profile"), ("summatory.brute.n", _n_scanned))),
    "summatory.aux": ("summatory", {"auxiliary_sums": None}),
    "summatory.hyperbola": ("summatory", {"divisor_sum_hyperbola": None}),
    "summatory.moebius_kernel": ("summatory", {"squarefree_divisor_sum": None}),
    "summatory.convolution": ("summatory", {"divisor_sum_from_squarefree": None}),
    "zeta.zero_table": ("zeta", {"load_zero_table": ("zeta.zero_table.ordinates",
                                                     lambda a, k, r: len(r))}),
    "zeta.eval": ("zeta", dict.fromkeys(("zeta", "zeta_derivative"))),
    "explicit.evaluate": ("explicit", {"evaluate_explicit": ("explicit.pairs", _pairs)}),
    "explicit.delta": ("explicit", {"delta_error": None}),
    "bessel.series": ("bessel", dict.fromkeys(
        ("voronoi_full", "voronoi_truncated", "sierpinski_sum"),
        ("bessel.series.terms", _terms))),
    "fitting": ("fitting", {"half_integer_grid": ("fitting.points",
                                                  lambda a, k, r: len(r)),
                            "delta_samples": None, "exponent_fit": None}),
    "reports": ("reports", dict.fromkeys(
        ("render_csv", "render_json", "emit_report"), ("reports.bytes", _report_bytes))),
}
KERNELS = ("bessel_J1", "bessel_Y1", "bessel_K1")


class Recorder:
    """Span stack and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack: list[list] = []      # [layer, start, child seconds]
        self.counters: dict[str, float] = {}
        self.pool_workers = 0

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def span(self, layer, fn, extra):
        def wrapper(*args, **kwargs):
            outermost = all(frame[0] != layer for frame in self.stack)
            frame = [layer, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                duration = time.perf_counter() - frame[1]
                self.add(f"{layer}.calls", 1)
                self.add(f"{layer}.self_s", duration - frame[2])
                if outermost:
                    self.add(f"{layer}.busy_s", duration)
                if self.stack:
                    self.stack[-1][2] += duration
            if extra is not None and outermost:
                self.add(extra[0], extra[1](args, kwargs, result))
            return result
        return wrapper

    def kernel(self, fn, switch: float):
        def wrapper(z):
            branch = "series" if float(z) <= switch else "asymptotic"
            self.add(f"bessel.kernel.{branch}_calls", 1)
            return fn(z)
        return wrapper

    def pool(self, executor):
        def wrapper(*args, **kwargs):
            self.pool_workers = max(self.pool_workers, kwargs.get("max_workers", 0))
            return executor(*args, **kwargs)
        return wrapper

    def dump(self, path: str, **fields):
        with open(path, "w") as fh:
            json.dump({"counters": self.counters,
                       "pool_workers": self.pool_workers, **fields}, fh)


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "divisorlab" or name.startswith("divisorlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    for layer, (module, functions) in LAYERS.items():
        mod = sys.modules[f"divisorlab.{module}"]
        for fname, extra in functions.items():
            fn = getattr(mod, fname)
            _rebind(fn, rec.span(layer, fn, extra))
    bessel = sys.modules["divisorlab.bessel"]
    for fname in KERNELS:
        fn = getattr(bessel, fname)
        _rebind(fn, rec.kernel(fn, bessel.ASYMPTOTIC_SWITCH))
    summatory = sys.modules["divisorlab.summatory"]
    summatory.ProcessPoolExecutor = rec.pool(summatory.ProcessPoolExecutor)


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)

    def in_worker(recorder):
        # a forked pool worker: start empty and write counters on exit
        recorder.reset()
        util.Finalize(None, recorder.dump, args=(f"{path}.w{os.getpid()}",),
                      exitpriority=10)
    util.register_after_fork(rec, in_worker)

    t = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t
        sys.stdout.flush()
        for worker in glob.glob(f"{glob.escape(path)}.w*"):
            with open(worker) as fh:
                for key, value in json.load(fh)["counters"].items():
                    rec.add(key, value)
            os.unlink(worker)
        rec.dump(path, import_s=IMPORT_S, main_s=main_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
