"""Steadiness check: two independent sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10]

Run from the repository root.  Set A uses seeds 1 .. runs and set B seeds
runs + 1 .. 2 * runs; the two sets alternate run by run, and which of them
goes first alternates too.  For every workload and end-to-end metric of
BENCHMARK.json the command prints both medians with their quartiles, each
set's spread (quartile distance over median), and whether the sets agree:
neither median worse than the other by more than the metric's bound, and
every spread but set-up time's within the bound.  Set-up time is judged on
its medians alone, because its few cold starts per run spread more than the
ops do; its spread is printed all the same.  It
also checks that both sets fail the same share of ops.  Raw results go to
perfbench/out/steady-<time>.jsonl.  Exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(new: float, old: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(spec: dict, results: dict) -> bool:
    ok = True
    print(f"{'workload':17s} {'metric':12s} {'set A median [q1, q3]':>32s} "
          f"{'set B median [q1, q3]':>32s} {'spread A':>8s} {'spread B':>8s} "
          f"{'B vs A':>7s} {'bound':>6s}  verdict")
    for workload, sets in results.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                stats.append((med, q1, q3, (q3 - q1) / med))
            (ma, a1, a3, sa), (mb, b1, b3, sb) = stats
            change = worse(mb, ma, metric["better"])
            agree = change <= bound and worse(ma, mb, metric["better"]) <= bound
            steady = name == "setup_s" or (sa <= bound and sb <= bound)
            ok &= agree and steady
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", SPREAD")
            print(f"{workload:17s} {name:12s} "
                  f"{ma:12.5g} [{a1:9.5g}, {a3:9.5g}] {mb:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{100 * sa:7.2f}% {100 * sb:7.2f}% {100 * change:+6.2f}% "
                  f"{100 * bound:5.1f}%  {verdict}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= shares[0] == shares[1] and correct
        print(f"{workload:17s} failed share A {shares[0]:.6f}, B {shares[1]:.6f}; "
              f"outputs {'correct' if correct else 'WRONG'} in every run")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl")
    results = {n: ([], []) for n in names}
    with open(raw, "w") as log:
        for i in range(args.runs):
            for workload in names:
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for s in order:
                    seed = 1 + s * args.runs + i
                    result = run_once(spec, workload, seed)
                    results[workload][s].append(result)
                    log.write(json.dumps({"set": "AB"[s], "workload": workload,
                                          "seed": seed, **result}) + "\n")
                    log.flush()
                    print(f"[{time.strftime('%H:%M:%S')}] set {'AB'[s]} {workload} "
                          f"seed {seed} done", file=sys.stderr)
    print(f"raw results: {os.path.relpath(raw)}")
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
