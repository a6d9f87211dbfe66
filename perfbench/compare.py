"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds records as ``run.py`` appends them to
``.perfbench/results.jsonl``; only untraced runs count. For every workload
and end-to-end metric it prints each side's median and quartiles over its
runs and the change of the median, judged against the bound in
``BENCHMARK.json``: ``worse`` beyond the bound, ``unresolved`` when the
base's own spread is wider than the bound. It refuses (exit 2) to compare
records whose kernel, Python version or CPU count differ, since those
measure different programs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SAME = ("kernel", "python", "nproc")


def load(path: str) -> tuple[dict, set]:
    """workload -> metric -> values, and the set of SAME tuples seen."""
    values: dict = defaultdict(lambda: defaultdict(list))
    envs = set()
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        meta = record["meta"]
        if meta["trace"] or meta.get("small"):
            continue
        envs.add(tuple(meta[k] for k in SAME))
        for name, metric in record["metrics"].items():
            values[meta["workload"]][name].append(metric["value"])
    return values, envs


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    if len(base_env | new_env) != 1:
        print(f"error: records differ in {'/'.join(SAME)}: {sorted(base_env | new_env)}",
              file=sys.stderr)
        return 2
    for workload in base:
        if workload not in new:
            continue
        print(workload)
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if metric["better"] == "lower" else -change
            verdict = "within bound"
            if (bq[2] - bq[0]) / bq[1] > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            print(f"  {name:<15} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] (n={len(b)})"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] (n={len(n)})"
                  f"  {change:+.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
