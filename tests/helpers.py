"""Shared builders and independent oracles used across the test modules.

The oracles deliberately avoid the package's engine internals: plain deque
breadth-first sweeps and exhaustive enumeration, so engine results can be
checked against something that cannot share their bugs.
"""

from __future__ import annotations

import math
import random
from collections import deque

from essm_search import EssmRepresentation, FiniteSpace
from essm_search.nqueens import (KnownState, KnownStateSpec,
                                 ROLE_FALSE_HEURISTIC, ROLE_INITIAL,
                                 ROLE_ON_SOLUTION, empty_board,
                                 false_heuristic_state, nqueens_rep,
                                 on_solution_state)

INF = math.inf


def graph_rep(edges, known, initial, goal):
    """A deterministic representation over an explicit digraph.

    ``edges`` is an iterable of (src, dst) pairs. Forward function j maps a
    state to its j-th successor in sorted order (at most one state each), so
    the representation is deterministic whatever the out-degrees are.
    Returns (rep, space) where the space holds every mentioned state.
    """
    adj: dict = {}
    nodes = set()
    for s, t in edges:
        adj.setdefault(s, []).append(t)
        nodes.add(s)
        nodes.add(t)
    nodes.update(known)
    nodes.update(initial)
    nodes.update(goal)
    for s in adj:
        adj[s] = sorted(set(adj[s]))
    max_deg = max((len(v) for v in adj.values()), default=0)

    def fn(j):
        def f(s):
            succ = adj.get(s, ())
            return frozenset((succ[j],)) if j < len(succ) else frozenset()
        return f

    initial_set = frozenset(initial)
    goal_set = frozenset(goal)
    rep = EssmRepresentation(
        known_states=tuple(known),
        initial=lambda s: s in initial_set,
        goal=lambda s: s in goal_set,
        forward_fns=tuple(fn(j) for j in range(max(max_deg, 1))),
    )
    return rep, FiniteSpace(tuple(sorted(nodes)))


def queens_rep(n, *extra_depths):
    entries = [KnownState(empty_board(n), ROLE_INITIAL)]
    for d in extra_depths:
        entries.append(KnownState(on_solution_state(n, d), ROLE_ON_SOLUTION))
    return nqueens_rep(n, KnownStateSpec(tuple(entries)))


def three_known_rep(n, depth):
    """The empty board, a solution prefix and its false-heuristic state."""
    prefix = on_solution_state(n, depth)
    return nqueens_rep(n, KnownStateSpec((
        KnownState(empty_board(n), ROLE_INITIAL),
        KnownState(prefix, ROLE_ON_SOLUTION),
        KnownState(false_heuristic_state(n, prefix), ROLE_FALSE_HEURISTIC))))


def relay_dag_rep(width=600, layers=24, relay_layers=(9, 15, 20)):
    """An int-state layered DAG: a root, then ``layers - 1`` layers of
    ``width`` states, each mapped by three forward functions to random
    states of the next layer. Half the last layer are goals. The known
    states are the root and, in each of ``relay_layers``, the smallest
    state the root reaches."""
    rng = random.Random(2014)
    tables = ({}, {}, {})
    reached, relays = {0}, []
    for layer in range(1, layers):
        base = 1 + (layer - 1) * width
        for s in sorted(reached):
            for table in tables:
                table[s] = base + rng.randrange(width)
        reached = {table[s] for s in reached for table in tables}
        if layer in relay_layers:
            relays.append(min(reached))
    goals = {s for s in reached if rng.random() < 0.5}
    return EssmRepresentation(
        (0, *relays), lambda s: s == 0, goals.__contains__,
        tuple(lambda s, t=t: frozenset((t[s],)) if s in t else frozenset() for t in tables),
        successors=lambda s: [t[s] for t in tables if s in t])


def oracle_reachable(rep, start):
    """States reachable from ``start`` by a plain deque sweep over the
    representation's forward functions, with their depths."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        s = frontier.popleft()
        for f in rep.forward_fns:
            for t in f(s):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    frontier.append(t)
    return dist


def oracle_solution_depth(rep, start):
    """Depth of the shallowest goal reachable from ``start``; None if none."""
    dist = oracle_reachable(rep, start)
    depths = [d for s, d in dist.items() if rep.goal(s)]
    return min(depths) if depths else None


def oracle_stored_distances(db):
    """Per-source shortest distances over the *stored* child links.

    Source i is the node seeded for known state i (backward entry i is 0).
    An unweighted breadth-first sweep per source; returns node -> list.
    """
    nodes = list(db)
    if not nodes:
        return {}
    k = len(nodes[0].f_distance)
    dist = {node: [INF] * k for node in nodes}
    for i in range(k):
        sources = [node for node in nodes if node.b_distance[i] == 0]
        assert len(sources) <= 1, "at most one seed per index"
        if not sources:
            continue
        src = sources[0]
        dist[src][i] = 0
        frontier = deque([src])
        while frontier:
            nd = frontier.popleft()
            for child in nd.f_children:
                if dist[child][i] == INF:
                    dist[child][i] = dist[nd][i] + 1
                    frontier.append(child)
    return dist


def scan_select(db):
    """Reference implementation of select: linear scan over the open nodes,
    smallest min entry first, discovery order on ties."""
    best = None
    best_key = None
    for node in db.open_nodes():
        key = (min(node.f_distance), node.order)
        if best_key is None or key < best_key:
            best, best_key = node, key
    return best


def random_micro_rep(rng, max_states=6):
    """A small random representation plus its space.

    States are 0..size-1. Half the time the backward family is built as the
    exact index-wise inverse of the forward one, so strict symmetry shows up
    often enough to matter.
    """
    size = rng.randint(1, max_states)
    states = tuple(range(size))
    n_forward = rng.randint(0, 2)
    strict_mirror = n_forward > 0 and rng.random() < 0.5
    if strict_mirror:
        n_backward = n_forward
    else:
        n_backward = rng.randint(0, 2)
        if n_forward + n_backward == 0:
            n_forward = 1

    def random_mapping():
        return {s: frozenset(rng.sample(states, rng.randint(0, size))) for s in states}

    def fn_from(mapping):
        return lambda s, m=mapping: m.get(s, frozenset())

    forward_maps = [random_mapping() for _ in range(n_forward)]
    if strict_mirror:
        backward_maps = []
        for m in forward_maps:
            inv: dict = {s: set() for s in states}
            for s, outs in m.items():
                for t in outs:
                    inv[t].add(s)
            backward_maps.append({s: frozenset(v) for s, v in inv.items()})
    else:
        backward_maps = [random_mapping() for _ in range(n_backward)]

    known = tuple(rng.sample(states, rng.randint(1, size)))
    initial_set = frozenset(rng.sample(states, rng.randint(0, size)))
    goal_set = frozenset(rng.sample(states, rng.randint(0, size)))
    rep = EssmRepresentation(
        known_states=known,
        initial=lambda s: s in initial_set,
        goal=lambda s: s in goal_set,
        forward_fns=tuple(fn_from(m) for m in forward_maps),
        backward_fns=tuple(fn_from(m) for m in backward_maps),
    )
    return rep, FiniteSpace(states)
