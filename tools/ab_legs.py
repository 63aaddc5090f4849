"""Paired A/B timing of one benchmark leg in two checkouts.

Usage, from anywhere::

    python3 tools/ab_legs.py <workload> <seeds> <reps> <parentdir> <changedir>

``workload`` is a name from ``perfbench/workloads.py`` (``khop``,
``snb-mixed``, ``skew-churn``); ``seeds`` is a comma list and/or ranges
(``5-9``, ``1,3,5``); ``reps`` is the number of pairs per seed. Each
checkout gets one long-lived worker process that imports only that
checkout's ``perfbench/workloads.py`` (and the ``src/`` beside it), builds
the workload's set-up once, and then runs legs on request. Each pair runs
the same full-scale leg (the first leg of the seed) once in each worker,
alternating which side goes first, so slow drift of the machine falls on
both sides alike.

Printed per pair: parent and change CPU and wall seconds and their ratios
(parent / change, so above 1 means the change is faster). The summary
gives the median ratios, the number of pairs the change won on CPU and on
wall time, and each side's median and interquartile range.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

#: the worker: set up once, then answer one JSON request per stdin line
WORKER = r"""
import gc, json, os, sys
out = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)  # anything the program prints goes to stderr
root = os.getcwd()
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from workloads import WORKLOADS
wl = WORKLOADS[sys.argv[1]]
ctx = wl.setup()
out.write("ready\n"); out.flush()
for line in sys.stdin:
    seed = json.loads(line)["seed"]
    leg_input = wl.legs(ctx, seed, 1, 1.0)[0]
    prepared = wl.prepare(ctx, leg_input)
    gc.collect()
    leg = wl.run_leg(ctx, prepared)
    out.write(json.dumps({"wall": leg.wall_s, "cpu": leg.cpu_s,
                          "ops": leg.ops}) + "\n")
    out.flush()
"""


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


class Side:
    """One checkout's long-lived leg runner."""

    def __init__(self, name: str, root: str, workload: str) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, workload],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{name}: worker failed to set up in {root}")

    def run(self, seed: int) -> Dict[str, float]:
        self.proc.stdin.write(json.dumps({"seed": seed}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name}: worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: List[str]) -> int:
    if len(argv) != 5:
        print("usage: python3 tools/ab_legs.py <workload> <seeds> <reps> "
              "<parentdir> <changedir>", file=sys.stderr)
        return 2
    workload, seeds, reps, parent_dir, change_dir = argv
    seeds_list = parse_seeds(seeds)
    pairs: List[Tuple[Dict[str, float], Dict[str, float]]] = []
    sides: List[Side] = []
    try:
        for name, root in (("parent", parent_dir), ("change", change_dir)):
            sides.append(Side(name, os.path.abspath(root), workload))
        print(f"{'pair':>4} {'seed':>4} {'first':>6} "
              f"{'cpu_p':>7} {'cpu_c':>7} {'cpu_x':>6} "
              f"{'wall_p':>7} {'wall_c':>7} {'wall_x':>6}")
        for seed in seeds_list:
            for _ in range(int(reps)):
                order = sides if len(pairs) % 2 == 0 else sides[::-1]
                got = {side.name: side.run(seed) for side in order}
                p, c = got["parent"], got["change"]
                pairs.append((p, c))
                print(f"{len(pairs):>4} {seed:>4} {order[0].name:>6} "
                      f"{p['cpu']:>7.3f} {c['cpu']:>7.3f} "
                      f"{p['cpu'] / c['cpu']:>6.3f} "
                      f"{p['wall']:>7.3f} {c['wall']:>7.3f} "
                      f"{p['wall'] / c['wall']:>6.3f}", flush=True)
    finally:
        for side in sides:
            side.close()
    n = len(pairs)
    for clock in ("cpu", "wall"):
        ratios = [p[clock] / c[clock] for p, c in pairs]
        wins = sum(1 for p, c in pairs if c[clock] < p[clock])
        print(f"{clock}: median parent/change ratio "
              f"{statistics.median(ratios):.3f}, change won {wins}/{n}")
        for side, name in enumerate(("parent", "change")):
            q1, q2, q3 = quartiles([pair[side][clock] for pair in pairs])
            print(f"  {name:<6} median {q2:.3f} s, IQR {q3 - q1:.3f} s "
                  f"({q1:.3f}..{q3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
