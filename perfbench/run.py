"""Benchmark of divlab invocations: one cold `python -m divisorlab` process per op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, so the
benchmark measures the checkout it sits in and nothing installed.

With --trace 0 a run
  1. starts one untimed process (byte-compiles the package, warms the page
     cache);
  2. times a fixed, seeded list of ops back to back, one at a time (a
     closed loop with one client), each from spawn to exit, with
     SETUP_REPEATS cold set-up processes spread evenly among them;
  3. checks every output against the references in refs.py, outside the
     timed region;
and prints the end-to-end metrics.  With --trace 1 the same op list runs
through trace_boot.py, which records spans around each layer's public
functions, and the run prints the per-layer metrics; its first round is
also run untraced to show the output bytes are identical and to measure the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted and failed count the
ops of the seeded list only; a set-up or comparison process that fails
makes correct false instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = os.path.join(HERE, "out")
NUMERIC_FLAGS = ("--x", "--grid-lo", "--grid-hi", "--ratio", "--terms")

class Runner:
    """Spawns ops one at a time and reaps each with its resource usage."""

    def __init__(self, root: str, scratch: str):
        self.scratch = scratch
        # ops see no PYTHON* settings of the caller, so they read and write
        # byte-code caches like an installed package, and the packaged zeros
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "ZD_ZEROS"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self.count = 0

    def run(self, argv: list[str]) -> dict:
        """Run `python3 <argv>`; return wall time, exit code, rusage, output."""
        self.count += 1
        out_path = os.path.join(self.scratch, f"{self.count}.out")
        err_path = os.path.join(self.scratch, f"{self.count}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=actions, setpgroup=0)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                # stop the op and any pool workers it forked, then reap it
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        os.unlink(out_path)
        os.unlink(err_path)
        return {"wall": wall, "code": os.waitstatus_to_exitcode(status),
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr}


def shape(argv: list[str]) -> str:
    """The command line with its numeric inputs left out."""
    return " ".join(a for i, a in enumerate(argv)
                    if i == 0 or argv[i - 1] not in NUMERIC_FLAGS)


def divlab(argv):
    return ["-m", "divisorlab", *argv]


def check_outputs(check, ops, results) -> tuple[list[str], list[str]]:
    """The messages of the failed ops, and the check errors of the ops that ran."""
    good = [(op, r["stdout"].decode("ascii", errors="replace"))
            for op, r in zip(ops, results) if r["code"] == 0]
    failures = [f"exit {r['code']}: {' '.join(op.argv)}: "
                f"{r['stderr'].decode(errors='replace').strip()[-300:]}"
                for op, r in zip(ops, results) if r["code"] != 0]
    try:
        errors = check([op for op, _ in good], [out for _, out in good])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        errors = [f"output could not be parsed: {exc!r}"]
    return failures, errors


def timed_run(workload, ops, runner) -> tuple[dict, list, list[dict], list[str]]:
    """The timed ops with set-up samples among them; returns metrics, ops run, results, errors."""
    runner.run(divlab(workload.setup.argv))
    # set-up samples spread evenly through the op list see the same host
    # speed as the ops around them, not that of one moment of the run
    setup_at = [k * len(ops) // SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setup, results = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        setup += [runner.run(divlab(workload.setup.argv)) for _ in range(setup_at.count(i))]
        results.append(runner.run(divlab(op.argv)))
    elapsed = time.perf_counter() - start - sum(r["wall"] for r in setup)
    ok = sum(1 for r in results if r["code"] == 0)
    by_shape: dict[str, list[dict]] = {}
    for op, r in zip(ops, results):
        by_shape.setdefault(shape(op.argv), []).append(r)
    for key, rs in by_shape.items():
        print(f"  {len(rs):3d} x {1000 * statistics.median(r['wall'] for r in rs):8.1f} ms "
              f"{max(r['rss_mb'] for r in rs):6.1f} MiB  {key}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(r["wall"] for r in setup), "s"),
        "op_p50_ms": (1000.0 * statistics.median(r["wall"] for r in results), "ms"),
        "ops_per_s": (ok / elapsed, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MiB"),
    }
    return metrics, ops + [workload.setup] * len(setup), results + setup, []


def traced_run(workload, ops, runner, units) -> tuple[dict, list, list[dict], list[str]]:
    """Ops through trace_boot.py, then the first round untraced for comparison.

    units maps each per-layer metric of BENCHMARK.json to its unit.
    """
    boot = os.path.join(HERE, "trace_boot.py")
    traces, results = [], []
    for i, op in enumerate(ops):
        path = os.path.join(runner.scratch, f"trace-{i}.json")
        results.append(runner.run([boot, path, *op.argv]))
        if os.path.exists(path):
            with open(path) as fh:
                traces.append(json.load(fh))
    first = ops[:workload.cycle]
    plain = [runner.run(divlab(op.argv)) for op in first]
    errors = [f"traced output differs: {' '.join(op.argv)}"
              for op, t, u in zip(first, results, plain) if t["stdout"] != u["stdout"]]
    if len(traces) < len(ops):
        errors.append(f"{len(ops) - len(traces)} traced ops wrote no trace")
    overhead = (sum(r["wall"] for r in results[:workload.cycle])
                / sum(r["wall"] for r in plain) - 1.0)
    print(f"trace overhead on the first round: {100 * overhead:+.1f} % wall time",
          file=sys.stderr)
    return layer_metrics(traces, results, units), ops + first, results + plain, errors


def layer_metrics(traces: list[dict], results: list[dict], units: dict) -> dict:
    """Per-layer values: medians per op for process figures, means per op for layers."""
    if not traces:
        return {name: (0.0, unit) for name, unit in units.items()}
    n = len(traces)
    total: dict[str, float] = {}
    for t in traces:
        for key, value in t["counters"].items():
            total[key] = total.get(key, 0.0) + value
    values = {
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
        "cli.main_s": statistics.median(t["main_s"] for t in traces),
        "process.cpu_s": statistics.median(r["cpu"] for r in results),
        "process.rss_mb": max(r["rss_mb"] for r in results),
        "summatory.brute.pool_workers": max(t["pool_workers"] for t in traces),
    }
    brute_busy = total.get("summatory.brute.busy_s", 0.0)
    values["summatory.brute.n_per_s"] = (total.get("summatory.brute.n", 0.0) / brute_busy
                                         if brute_busy else 0.0)
    for name in units:
        values.setdefault(name, total.get(name, 0.0) / n)
    return {name: (values[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the op it is waiting for (see Runner.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "divisorlab", "cli.py")):
        print("run.py: no src/divisorlab here; run it from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    ops = workload.ops(random.Random(f"{workload.name}:{args.seed}"), args.seconds)
    scratch = os.path.join(OUT_DIR, f"tmp-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(root, scratch)
    try:
        if args.trace:
            with open(os.path.join(root, "BENCHMARK.json")) as fh:
                units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
            metrics, ran, results, errors = traced_run(workload, ops, runner, units)
        else:
            metrics, ran, results, errors = timed_run(workload, ops, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    t = time.perf_counter()
    import checks  # after timing: it loads numpy, scipy and mpmath
    failures, check_errors = check_outputs(getattr(checks, workload.check), ran, results)
    # ran and results start with the seeded ops; set-up and comparison
    # processes come after them and are not counted as attempted
    failed = sum(1 for r in results[:len(ops)] if r["code"] != 0)
    if len(failures) > failed:
        check_errors.append(f"{len(failures) - failed} set-up or comparison processes failed")
    print(f"{workload.name} seed {args.seed}: {len(ran)} outputs checked in "
          f"{time.perf_counter() - t:.1f} s", file=sys.stderr)
    errors += check_errors
    for line in failures[:10] + [f"CHECK: {e}" for e in errors[:20]]:
        print(line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}", file=sys.stderr)
    report = {"correct": not errors, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
