"""The ``relay-goals`` input: a layered DAG over int states.

Layer 0 holds the single initial state (the root); every later layer holds
``width`` states. Each state outside the last layer has three forward
functions; each one maps it to one state of the next layer or to nothing.
Goals are dense in the last layer. The known states are the root first, then
relays on root-to-goal paths at a few depths (the last one near the goal
layer), then the entry of a small dead component that reaches no goal.

The graph's shape comes from a fixed structure seed, so every workload seed
searches an isomorphic graph and does the same work. The workload seed
relabels the states: it picks which int stands for which vertex. The engine
only hashes states and orders them by discovery, so relabelling cannot
change what it does, and the pinned counts hold for every seed.

Tables are flat int arrays, so building the input leaves no large garbage
behind that would blur the memory measured for the search.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

FANOUT = 3
STRUCTURE_SEED = 20140221


@dataclass(frozen=True)
class RelayShape:
    width: int
    layers: int
    edge_p: float        # chance that one forward function is defined on a state
    goal_p: float        # chance that a last-layer state is a goal
    relay_depths: tuple  # layers of the relays, the last one near the goals
    dead_size: int       # states in the dead component


FULL = RelayShape(width=3000, layers=40, edge_p=0.7, goal_p=0.5,
                  relay_depths=(15, 25, 31), dead_size=63)
SMALL = RelayShape(width=300, layers=16, edge_p=0.7, goal_p=0.5,
                   relay_depths=(6, 10, 12), dead_size=15)


@dataclass(frozen=True)
class RelayGraph:
    """Forward tables in label space: ``succ[j][s]`` is the state that
    forward function ``j`` maps ``s`` to, or -1."""

    succ: tuple
    root: int
    known: tuple
    goals: frozenset


def _vertex_graph(shape: RelayShape):
    """Tables over vertex ids (layer * width + index; the root is 0), with
    the dead component appended after the last layer. Every edge goes from
    a lower id to a higher one."""
    rng = random.Random(STRUCTURE_SEED)
    w, layers = shape.width, shape.layers
    main = layers * w
    total = main + shape.dead_size
    succ = [array("i", [-1]) * total for _ in range(FANOUT)]
    for layer in range(layers - 1):
        count = 1 if layer == 0 else w  # only the root is used in layer 0
        base, nxt = layer * w, (layer + 1) * w
        for v in range(base, base + count):
            for table in succ:
                if rng.random() < shape.edge_p:
                    table[v] = nxt + rng.randrange(w)
    last = (layers - 1) * w
    goals = [v for v in range(last, main) if rng.random() < shape.goal_p]
    # the dead component is a binary tree with no goal and no edge out of it
    for k in range(shape.dead_size):
        for j in range(2):
            child = 2 * k + 1 + j
            if child < shape.dead_size:
                succ[j][main + k] = main + child
    return succ, goals, main


def _on_goal_paths(succ, goals, total) -> bytearray:
    """Marks of the vertices reachable from the root that reach a goal.
    Edges only go to higher ids, so one sweep in each direction does it."""
    reached = bytearray(total)
    reached[0] = 1
    for v in range(total):
        if reached[v]:
            for table in succ:
                if table[v] >= 0:
                    reached[table[v]] = 1
    useful = bytearray(total)
    for g in goals:
        useful[g] = 1
    for v in range(total - 1, -1, -1):
        if not useful[v] and any(t[v] >= 0 and useful[t[v]] for t in succ):
            useful[v] = 1
    return bytearray(a & b for a, b in zip(reached, useful))


def build(shape: RelayShape, seed: int) -> RelayGraph:
    succ, goals, main = _vertex_graph(shape)
    total = len(succ[0])
    on_path = _on_goal_paths(succ, goals, total)
    rng = random.Random(STRUCTURE_SEED + 1)
    relays = []
    for depth in shape.relay_depths:
        lo = depth * shape.width
        relays.append(rng.choice([v for v in range(lo, lo + shape.width) if on_path[v]]))
    known_vertices = [0, *relays, main]
    labels = list(range(total))
    random.Random(seed).shuffle(labels)
    succ_l = tuple(array("i", [-1]) * total for _ in range(FANOUT))
    for table, out in zip(succ, succ_l):
        for v, t in enumerate(table):
            if t >= 0:
                out[labels[v]] = labels[t]
    return RelayGraph(
        succ=succ_l,
        root=labels[0],
        known=tuple(labels[v] for v in known_vertices),
        goals=frozenset(labels[g] for g in goals),
    )


def representation(graph: RelayGraph, model):
    """The graph as an ``EssmRepresentation`` of the given ``model`` module."""
    empty = frozenset()

    def forward(table):
        def f(s):
            t = table[s]
            return frozenset((t,)) if t >= 0 else empty
        return f

    root, goals = graph.root, graph.goals
    return model.EssmRepresentation(
        known_states=graph.known,
        initial=lambda s: s == root,
        goal=lambda s: s in goals,
        forward_fns=tuple(forward(t) for t in graph.succ),
    )
