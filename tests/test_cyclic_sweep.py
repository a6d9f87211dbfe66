"""Differential sweep of ``ebfs`` over seeded random cyclic digraphs.

Each graph has up to about 200 int states and two operators; each operator
maps a state to at most one state, so the graphs carry cycles, self-loops
and parallel edges (both operators to one state). Known states are partly
drawn from what earlier known states reach, and goal sets may contain known
states. Every graph runs with and without a ``successors`` hook, and keyed
by a codec (states as their decimal text) with and without a key hook.

After every expansion the run is checked against the independent oracles of
``helpers``: stored vectors equal per-source sweeps over the stored links,
``select`` agrees with a linear scan, and the search has stopped exactly
when a goal first got a finite entry at a live index (the index of a known
state that satisfies ``initial``).
"""

import random

import pytest

from essm_search import (INF, EssmRepresentation, Outcome, Path,
                         SingleStateSolution, ebfs, engine, select,
                         validate_path)

from helpers import oracle_reachable, oracle_stored_distances, scan_select

GRAPHS = 200


def random_case(rng):
    """(known, initial, goals, tables) of one random graph."""
    size = rng.choice((rng.randint(1, 8), rng.randint(1, 40), rng.randint(100, 200)))
    edge_p = rng.uniform(0.4, 0.95)
    tables = ({}, {})
    for s in range(size):
        for table in tables:
            roll = rng.random()
            if roll < 0.05:
                table[s] = s                          # self-loop
            elif roll < edge_p:
                table[s] = rng.randrange(size)
        if s in tables[0] and rng.random() < 0.1:
            tables[1][s] = tables[0][s]               # parallel edge
    known = [rng.randrange(size)]
    for _ in range(rng.randint(0, min(4, size - 1))):
        reached = set()
        for k in known:
            reached.update(reachable(tables, k))
        pool = sorted(reached - set(known)) if rng.random() < 0.5 else []
        pool = pool or sorted(set(range(size)) - set(known))
        known.append(rng.choice(pool))
    initial = set(rng.sample(known, rng.randint(0, len(known))))
    initial.update(rng.sample(range(size), rng.randint(0, min(2, size))))
    goals = set(rng.sample(range(size), rng.randint(0, min(3, size))))
    if rng.random() < 0.3:
        goals.add(rng.choice(known))
    return known, initial, goals, tables


def reachable(tables, start):
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for table in tables:
            t = table.get(s)
            if t is not None and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def representation(known, initial, goals, tables, hook, keyed=False):
    fns = tuple((lambda s, t=table: frozenset((t[s],)) if s in t else frozenset())
                for table in tables)

    def walk(s):
        return [table[s] for table in tables if s in table]

    def key_walk(key):
        return [str(t) for t in walk(int(key))]

    if keyed:
        return EssmRepresentation(tuple(known), initial.__contains__, goals.__contains__,
                                  fns, successors=key_walk if hook else None,
                                  encode=str, decode=int)
    return EssmRepresentation(tuple(known), initial.__contains__, goals.__contains__,
                              fns, successors=walk if hook else None)


def connected(db, live, goals, want):
    """The oracle's stop test: some goal node has a finite entry at a live
    index of the oracle's vectors."""
    return any(node.state in goals and any(want[node][j] != INF for j in live)
               for node in db)


class RecordingDatabase(engine.NodeDatabase):
    made: list = []

    def __init__(self):
        super().__init__()
        RecordingDatabase.made.append(self)


def checked_run(rep, known, initial, goals):
    """Run ``ebfs`` with the per-expansion checks; returns the result and a
    record of the run: nodes, stats, outcome, solution, distance events and
    trace records."""
    live = [j for j, s in enumerate(known) if s in initial]
    RecordingDatabase.made = []
    events, steps, picked = [], [], []

    def after_expansion(record):
        db = RecordingDatabase.made[-1]
        if picked:  # the step expanded what select gave, at the min it had then
            assert (record.state, record.min_distance) == picked.pop()
        want = oracle_stored_distances(db)
        for node in db:
            assert node.f_distance == tuple(want[node]), node
        ref, got = scan_select(db), select(db)
        assert (got is None and ref is None) or db.node(got) == ref
        if got is not None:
            picked.append((db.node(got).state, db.node(got).min_distance()))
        steps.append((record, connected(db, live, goals, want)))

    result = ebfs(rep, trace=after_expansion,
                  on_distance_update=lambda node, old, new: events.append((node.state, old, new)))
    db = result.db
    stops = [hit for _, hit in steps]
    at_seed = any(known[j] in goals for j in live)
    if at_seed:
        assert result.outcome is Outcome.SUCCESS and not steps
    elif result.outcome is Outcome.SUCCESS:
        assert stops and stops[-1] and not any(stops[:-1])
    else:
        assert result.outcome is Outcome.FAILURE and not any(stops)
        assert not db.open_nodes()
        reached = set()
        for k in known:
            reached.update(oracle_reachable(rep, k))
        assert {node.state for node in db} == reached
    sol = result.solution
    if isinstance(sol, SingleStateSolution):
        assert sol.state in goals and known.index(sol.state) in live
    elif sol is not None:
        assert isinstance(sol, Path) and validate_path(rep, sol)
        start, end = sol.states()[0], sol.states()[-1]
        assert start in known and known.index(start) in live and end in goals
        assert len(sol) == db.node(db.node_for(end)).f_distance[known.index(start)]
    for _, old, new in events:
        assert new != old and all(b <= a for a, b in zip(old, new))
    record = ([(n.state, n.f_distance, n.f_status,
                {p.state: op for p, op in n.parent_ops.items()}) for n in db],
              result.stats, result.outcome, sol, events, [r for r, _ in steps])
    return result, record


@pytest.mark.parametrize("chunk", range(4))
def test_ebfs_matches_the_oracles_on_random_cyclic_graphs(chunk, monkeypatch):
    monkeypatch.setattr(engine, "NodeDatabase", RecordingDatabase)
    outcomes = set()
    for seed in range(chunk, GRAPHS, 4):
        case = random_case(random.Random(seed))
        plain, plain_record = checked_run(representation(*case, hook=False), *case[:3])
        for hook, keyed in ((True, False), (False, True), (True, True)):
            _, record = checked_run(representation(*case, hook=hook, keyed=keyed), *case[:3])
            assert record == plain_record, (seed, hook, keyed)
        outcomes.add(plain.outcome)
    assert outcomes == {Outcome.SUCCESS, Outcome.FAILURE}
