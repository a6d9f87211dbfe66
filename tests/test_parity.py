"""Pinned digests of whole search results.

Each digest covers, per node in discovery order: the state, the distance
vector, the status, the generating operators by parent discovery order and
the children by discovery order; then the run's counters and the solution's
edges. The values were recorded from the object-per-node engine, so any
change to how the engine stores nodes must leave every one of them as is.
"""

import hashlib

import pytest

from essm_search import Path, bfs, ebfs
from essm_search.nqueens import (KnownState, KnownStateSpec, ROLE_FALSE_HEURISTIC,
                                 ROLE_INITIAL, ROLE_ON_SOLUTION, empty_board,
                                 false_heuristic_state, nqueens_rep,
                                 on_solution_state)

from helpers import graph_rep


def queens_case(n, known):
    """``known`` is 1 (empty board), 2 (plus a solution prefix at half the
    board) or 3 (plus the false-heuristic state for that prefix)."""
    entries = [KnownState(empty_board(n), ROLE_INITIAL)]
    if known >= 2:
        prefix = on_solution_state(n, (n + 1) // 2)
        entries.append(KnownState(prefix, ROLE_ON_SOLUTION))
    if known == 3:
        entries.append(KnownState(false_heuristic_state(n, prefix), ROLE_FALSE_HEURISTIC))
    return nqueens_rep(n, KnownStateSpec(tuple(entries)))


GRAPHS = {
    "merge": ([("s", "m1"), ("m1", "m2"), ("t", "m2"), ("m1", "m1")], ["s", "t"]),
    "shortcut": ([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("t", "c")], ["s", "t"]),
    "lattice": ([("s", "x"), ("s", "y"), ("x", "z"), ("y", "z"), ("z", "w"), ("t", "y")],
                ["s", "t", "u"]),
}


def digest(result):
    rows = []
    for node in result.db:
        rows.append((repr(node.state), node.f_distance, node.f_status.value,
                     sorted((p.order, op) for p, op in node.parent_ops.items()),
                     sorted(c.order for c in node.f_children)))
    stats = result.stats
    rows.append((stats.nodes_created, stats.expansions, stats.duplicate_hits,
                 stats.max_open_size, result.db.closed_count))
    sol = result.solution
    if isinstance(sol, Path):
        rows.append([(repr(e.src), repr(e.dst), e.op.kind, e.op.index) for e in sol.edges])
    else:
        rows.append(repr(sol))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


PINNED = {
    ("bfs", 5): "73bfe38d877ab414",
    ("bfs", 6): "a6f32ad6975866d1",
    ("bfs", 7): "0f002c3f0e3996b9",
    ("ebfs2", 5): "edd0a3b595387e38",
    ("ebfs2", 6): "e1310e98e9b312c5",
    ("ebfs2", 7): "d29bc474fb1a4b34",
    ("ebfs3", 5): "e53c964bc48922f9",
    ("ebfs3", 6): "e851d2428849e77b",
    ("ebfs3", 7): "c77d921332609460",
    ("graph", "merge"): "83a304c8330cc778",
    ("graph", "shortcut"): "396ee6cb1a99b97f",
    ("graph", "lattice"): "bc73e5acb47ce25f",
}


def run_case(kind, arg):
    if kind == "bfs":
        return bfs(queens_case(arg, 1))
    if kind == "graph":
        edges, known = GRAPHS[arg]
        rep, _ = graph_rep(edges, known=known, initial=["s"], goal=[])
        return ebfs(rep)
    return ebfs(queens_case(arg, int(kind[-1])))


@pytest.mark.parametrize("kind, arg", sorted(PINNED, key=str))
def test_search_results_match_their_pinned_digests(kind, arg):
    assert digest(run_case(kind, arg)) == PINNED[(kind, arg)]
