"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``perfbench/run.py`` writes to ``perfbench/results/`` (copy them aside per
commit).  For every end-to-end metric in BENCHMARK.json the script prints
each side's median and quartiles and whether the new median is worse than
the base median by more than the metric's bound.  It refuses to compare
sets whose kernel backend differs, and exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]
    if not runs:
        sys.exit(f"no untraced records (*-trace0.json) in {directory}")
    return runs


def backend(runs: list[dict], directory: Path) -> str:
    found = {r["environment"]["kernel_backend"] for r in runs}
    if len(found) != 1:
        sys.exit(f"{directory} mixes kernel backends {sorted(found)}; refusing to compare")
    return found.pop()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base_dir, new_dir = Path(argv[0]), Path(argv[1])
    base, new = load(base_dir), load(new_dir)
    b_backend, n_backend = backend(base, base_dir), backend(new, new_dir)
    if b_backend != n_backend:
        sys.exit(f"kernel backends differ ({b_backend} vs {n_backend}); refusing to compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"backend {b_backend}")
    for workload in sorted({r["workload"] for r in base} | {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            sides = []
            for runs in (base, new):
                values = [r["measured"][m["name"]]["value"] for r in runs
                          if r["workload"] == workload and m["name"] in r["measured"]]
                sides.append(values)
            if not all(sides):
                print(f"{workload:10s} {m['name']:14s} missing on one side")
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(sides[0]), quartiles(sides[1])
            change = (n2 - b2) / b2 if m["better"] == "lower" else (b2 - n2) / b2
            worse = change > m["bound"]
            regressed |= worse
            print(f"{workload:10s} {m['name']:14s} base {b2:.4g} [{b1:.4g}, {b3:.4g}] "
                  f"n={len(sides[0])}  new {n2:.4g} [{n1:.4g}, {n3:.4g}] n={len(sides[1])}  "
                  f"worse by {change:+.1%} (bound {m['bound']:.0%})"
                  + ("  REGRESSED" if worse else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
