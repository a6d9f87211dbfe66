"""Benchmark the compiled board kernels against the pure-Python fallback.

Two layers are timed: raw kernel calls (safe-square enumeration and the
pairwise attack check over every reachable placement of a small board) and
complete searches, which call the kernel only for the pairwise attack check
(known states and full boards in the goal predicate).

    python -m essm_search.kernel_bench [--n 6] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time
from typing import Optional, Sequence

from . import kernels
from .engine import bfs, ebfs
from .nqueens import (KnownState, KnownStateSpec, ROLE_INITIAL,
                      ROLE_ON_SOLUTION, empty_board, enumerate_states,
                      nqueens_rep, on_solution_state)


def _time_best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _micro_workload(kernel, n: int, boards: list) -> None:
    safe_squares = kernel.safe_squares
    pairwise_safe = kernel.pairwise_safe
    for queens in boards:
        safe_squares(n, queens)
        pairwise_safe(queens)


def _search_workload(n: int) -> None:
    single = KnownStateSpec((KnownState(empty_board(n), ROLE_INITIAL),))
    bfs(nqueens_rep(n, single))
    two = KnownStateSpec((
        KnownState(empty_board(n), ROLE_INITIAL),
        KnownState(on_solution_state(n, (n + 1) // 2), ROLE_ON_SOLUTION),
    ))
    ebfs(nqueens_rep(n, two))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare compiled and pure board kernels.")
    parser.add_argument("--n", type=int, default=6, help="board size")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best is kept)")
    args = parser.parse_args(argv)

    boards = [s.queens for s in enumerate_states(args.n)]
    impls = kernels.implementations()
    print(f"workload: {len(boards)} placements on a {args.n}x{args.n} board, "
          f"plus full bfs/ebfs runs")
    print(f"{'kernel':<10} {'micro ms':>10} {'search ms':>10}")
    timings = {}
    previous = kernels.active_name()
    try:
        for name, kernel in sorted(impls.items()):
            micro = _time_best(lambda: _micro_workload(kernel, args.n, boards),
                               args.repeat)
            kernels.use(name)
            search = _time_best(lambda: _search_workload(args.n), args.repeat)
            timings[name] = (micro, search)
            print(f"{name:<10} {micro:>10.2f} {search:>10.2f}")
    finally:
        kernels.use(previous)
    if "compiled" in timings and "pure" in timings:
        micro_speedup = timings["pure"][0] / timings["compiled"][0]
        search_speedup = timings["pure"][1] / timings["compiled"][1]
        print(f"speedup: {micro_speedup:.1f}x on raw kernel calls, "
              f"{search_speedup:.1f}x on full searches")
    else:
        print("compiled kernels not built; only the pure implementation was timed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
