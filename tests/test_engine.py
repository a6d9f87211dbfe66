"""Engine primitives (seed, select, expand, f_update, goal condition,
path reconstruction) and the two searches on their shared loop."""

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import essm_search
from essm_search import (INF, Edge, EssmRepresentation, ModelError,
                         NodeDatabase, NodeStatus, Outcome, Path,
                         ProblemDefinitionError, SearchInvariantError,
                         SearchLimits, SingleStateSolution, bfs, ebfs, engine,
                         expand, f_update, goal_condition, make_classical,
                         reconstruct_path, seed, select, validate_path)
from essm_search.nqueens import NQueensState, empty_board

from helpers import (graph_rep, oracle_reachable, oracle_solution_depth,
                     oracle_stored_distances, queens_rep, relay_dag_rep,
                     scan_select, three_known_rep)


def closed_chain(length):
    """A database whose nodes 0..length-1 form a closed chain reached from
    known state 0 only; known state -1 (the second index) reaches nothing."""
    rep, _ = graph_rep([(i, i + 1) for i in range(length - 1)], known=[0, -1],
                       initial=[], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    for i in range(length):
        expand(db, db.node_for(i), rep)
    return db


# --- nodes and the database ---------------------------------------------

def test_added_node_starts_open_and_unlinked():
    db = NodeDatabase()
    node = db.node(db.add("s", (INF, INF, INF)))
    assert node.f_status is NodeStatus.OPEN
    assert (db.open_count, db.closed_count) == (1, 0)
    assert node.f_distance == (INF, INF, INF)
    assert node.b_distance == (INF, INF, INF)
    assert node.min_distance() == INF
    assert not node.f_parents and not node.f_children and not node.parent_ops


def test_database_add_needs_distance_entries_of_one_length():
    db = NodeDatabase()
    with pytest.raises(ModelError):
        db.add("s", ())
    db.add("a", (1, 2))
    with pytest.raises(ModelError):
        db.add("b", (1,))


def test_views_of_one_node_are_equal_and_read_only():
    db, other = NodeDatabase(), NodeDatabase()
    a, b = db.add("a", (1,)), db.add("b", (1,))
    other.add("a", (1,))
    assert db.node(a) == db.node(a) and db.node(a) is not db.node(a)
    assert hash(db.node(a)) == hash(db.node(a))
    assert db.node(a) != db.node(b)
    assert db.node(a) != other.node(a)
    assert len({db.node(a), db.node(a), db.node(b)}) == 2
    with pytest.raises(AttributeError):
        db.node(a).f_distance = (0,)
    with pytest.raises(AttributeError):
        db.node(a).order = 5


def test_database_assigns_discovery_order_and_rejects_repeats():
    db = NodeDatabase()
    a, b = db.add("a", (1,)), db.add("b", (1,))
    assert (a, b) == (0, 1)
    assert [node.order for node in db] == [0, 1]
    assert list(db) == [db.node(a), db.node(b)]
    assert db.lookup("a") == a and db.lookup("zz") is None
    assert db.node_for("b") == b
    with pytest.raises(ModelError):
        db.add("a", (1,))
    with pytest.raises(ModelError):
        db.node_for("zz")


# --- keyed representations ----------------------------------------------

def test_a_board_of_another_size_never_aliases_a_same_mask_state():
    db = NodeDatabase()
    seed(db, queens_rep(5))
    expand(db, db.node_for(empty_board(5)), queens_rep(5))
    corner = NQueensState(5, ((0, 0),))
    assert db.lookup(corner) is not None
    for foreign in (NQueensState(4, ((0, 0),)), empty_board(4), "5:0,0", 1):
        assert db.lookup(foreign) is None
        with pytest.raises(ModelError):
            db.node_for(foreign)
        with pytest.raises(ModelError):
            db.add(foreign, (INF,))
    assert [node.state for node in db][:2] == [empty_board(5), corner]


def test_keyed_failures_name_the_decoded_state():
    def boom(s):
        raise ValueError("no")

    rep = queens_rep(5)
    for search in (ebfs, bfs):
        with pytest.raises(ProblemDefinitionError,
                           match=r"successors failed on NQueensState\(n=5, queens=\(\)\)"):
            search(dataclasses.replace(rep, successors=boom))
        with pytest.raises(ProblemDefinitionError, match=r"goal predicate failed on "
                           r"NQueensState\(n=5, queens=\(\(0, 0\),\)\)"):
            search(dataclasses.replace(rep, goal=lambda s: s.queens and boom(s)))
        with pytest.raises(ProblemDefinitionError, match=r"forward function 0 failed on "
                           r"NQueensState\(n=5, queens=\(\)\)"):
            search(dataclasses.replace(rep, successors=None,
                                       forward_fns=(boom,) + rep.forward_fns[1:]))


# --- seeding -------------------------------------------------------------

def test_seed_places_diagonal_zeros_in_order():
    rep, _ = graph_rep([("a", "b")], known=["a", "b", "c"], initial=[], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    nodes = list(db)
    assert [n.state for n in nodes] == ["a", "b", "c"]
    assert nodes[0].f_distance == (0, INF, INF)
    assert nodes[1].f_distance == (INF, 0, INF)
    assert nodes[2].b_distance == (INF, INF, 0)
    assert all(n.f_status is NodeStatus.OPEN for n in nodes)
    assert db.open_count == 3 and db.max_open_size == 3


def test_seed_requires_an_empty_database():
    rep, _ = graph_rep([(0, 1)], known=[0], initial=[], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    with pytest.raises(ModelError):
        seed(db, rep)


# --- selection -----------------------------------------------------------

def test_select_prefers_smallest_min_entry():
    db = NodeDatabase()
    db.add("far", (2, INF))
    near = db.add("near", (INF, 1))
    assert select(db) == near


def test_select_breaks_ties_by_discovery_order():
    db = NodeDatabase()
    first = db.add("first", (1,))
    db.add("second", (1,))
    assert select(db) == first


def test_select_skips_closed_and_returns_none_when_drained():
    rep, _ = graph_rep([], known=["a", "b"], initial=[], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    a, b = db.node_for("a"), db.node_for("b")
    assert select(db) == a
    expand(db, a, rep)
    assert select(db) == b
    expand(db, b, rep)
    assert select(db) is None
    assert (db.open_count, db.closed_count) == (0, 2)


def test_select_sees_distance_drops():
    db = NodeDatabase()
    slow = db.add("slow", (5,))
    db.add("mid", (3,))
    f_update(db, slow, (1,))
    assert db.node(slow).f_distance == (1,)
    assert select(db) == slow


@pytest.mark.parametrize("search", [bfs, ebfs])
def test_searches_never_call_select(monkeypatch, search):
    def forbidden(*args):
        raise AssertionError("the search called select")
    monkeypatch.setattr(engine, "select", forbidden)
    result = search(queens_rep(5, 3))
    assert result.outcome is Outcome.SUCCESS
    assert result.stats.max_open_size > 1


def test_select_matches_linear_scan_throughout_a_run():
    rep = queens_rep(4, 2)
    db = NodeDatabase()
    seed(db, rep)
    steps = 0
    while not goal_condition(db):
        curr = select(db)
        assert db.node(curr) == scan_select(db)
        assert curr == db.expansions
        expand(db, curr, rep)
        steps += 1
        assert steps < 10_000
    assert steps > 0


# --- relaxation ----------------------------------------------------------

def test_f_update_relaxes_componentwise():
    db = NodeDatabase()
    x = db.add("x", (INF, 3))
    f_update(db, x, (3, 6))
    assert db.node(x).f_distance == (3, 3)


def test_f_update_cascades_through_closed_children():
    db = closed_chain(3)
    nodes = [db.node_for(i) for i in range(3)]
    assert [db.node(i).f_status for i in nodes] == [NodeStatus.CLOSED] * 3
    changed = []
    f_update(db, nodes[0], (INF, 1), on_change=lambda i, old, new: changed.append(i))
    assert [db.node(i).f_distance for i in nodes] == [(0, 1), (1, 2), (2, 3)]
    assert changed == nodes


def test_f_update_stops_where_nothing_improves():
    db = closed_chain(2)
    a, b = db.node_for(0), db.node_for(1)
    fired = []
    f_update(db, a, (3, INF), on_change=lambda i, old, new: fired.append(i))
    assert db.node(a).f_distance == (0, INF) and db.node(b).f_distance == (1, INF)
    assert fired == []


def test_f_update_entries_never_increase():
    db = NodeDatabase()
    x = db.add("x", (4, INF, 0))
    seen = []
    f_update(db, x, (1, 6, INF), on_change=lambda i, old, new: seen.append((old, new)))
    assert db.node(x).f_distance == (1, 6, 0)
    for old, new in seen:
        assert all(b <= a for a, b in zip(old, new))


def test_f_update_rejects_length_mismatch():
    db = NodeDatabase()
    x = db.add("x", (INF, INF))
    with pytest.raises(ModelError):
        f_update(db, x, (1,))


def test_f_update_survives_long_closed_chains():
    # a chain far beyond the recursion limit must relax iteratively
    db = closed_chain(5000)
    f_update(db, db.node_for(0), (INF, 1))
    assert db.node(db.node_for(4999)).f_distance == (4999, 5000)


# --- expansion -----------------------------------------------------------

def test_expand_creates_open_children_with_relaxed_distances():
    rep = queens_rep(4)
    db = NodeDatabase()
    seed(db, rep)
    root = db.node(db.node_for(empty_board(4)))
    expand(db, root.order, rep)
    assert root.f_status is NodeStatus.CLOSED
    assert len(db) == 17          # the seed plus one child per square
    assert db.expansions == 1
    for child in root.f_children:
        assert child.f_status is NodeStatus.OPEN
        assert child.f_distance == (1,)
        assert child.f_parents == (root,)
        r, c = child.state.queens[0]
        assert child.parent_ops[root] == r * 4 + c


def test_expand_requires_an_open_node():
    rep = queens_rep(4)
    db = NodeDatabase()
    seed(db, rep)
    root = db.node_for(empty_board(4))
    expand(db, root, rep)
    with pytest.raises(ModelError):
        expand(db, root, rep)


def test_expand_links_duplicates_instead_of_recreating():
    rep = queens_rep(4, 1)        # knowns: empty board and the (0,1) board
    db = NodeDatabase()
    seed(db, rep)
    root, known = list(db)
    assert known.f_distance == (INF, 0)
    expand(db, root.order, rep)
    assert db.duplicate_hits == 1
    assert known.f_distance == (1, 0)     # reached from the empty board too
    assert known in root.f_children and root in known.f_parents
    assert len(db) == 17                   # 16 children, one of them the seed


def test_expand_links_each_parent_once_in_link_order():
    # two operators of state 0 both produce state 1
    step = (lambda s: frozenset((1,)) if s in (0, 2) else frozenset(),
            lambda s: frozenset((1,)) if s == 0 else frozenset())
    rep = EssmRepresentation((2, 0), lambda s: s == 0, lambda s: False, step)
    db = NodeDatabase()
    seed(db, rep)
    zero, two = db.node(db.node_for(0)), db.node(db.node_for(2))
    expand(db, zero.order, rep)
    mid = db.node(db.node_for(1))
    assert db.duplicate_hits == 1
    assert zero.f_children == (mid,)
    assert mid.parent_ops == {zero: 0}
    assert mid.f_parents == (zero,)
    expand(db, two.order, rep)  # the view sees the link made after the read
    assert db.duplicate_hits == 2
    assert mid.f_parents == (zero, two)
    assert mid.parent_ops == {zero: 0, two: 0}
    assert mid.f_distance == (1, 1)


def test_expand_links_a_merging_parent_once_whatever_its_operator_count():
    # both operators of states 0 and 2 produce state 1; 0 expands first
    step = lambda s: frozenset((1,)) if s in (0, 2) else frozenset()
    rep = EssmRepresentation((0, 2), lambda s: s == 0, lambda s: False, (step, step))
    db = NodeDatabase()
    seed(db, rep)
    zero, two = db.node(db.node_for(0)), db.node(db.node_for(2))
    expand(db, zero.order, rep)
    expand(db, two.order, rep)
    mid = db.node(db.node_for(1))
    assert db.duplicate_hits == 3
    assert zero.f_children == two.f_children == (mid,)
    assert mid.f_parents == (zero, two)
    assert mid.parent_ops == {zero: 0, two: 0}
    assert mid.f_distance == (1, 1)


def test_expand_keeps_four_parents_in_link_order():
    # 9 reaches 5 by two operators; then 3, 2 (by two operators) and 1,
    # discovered as 1, 2, 3, link to it in the reverse of discovery order
    table = ({0: 1, 9: 5, 3: 5}, {0: 2, 9: 5, 2: 5}, {0: 3, 2: 5, 1: 5})
    step = tuple(lambda s, t=t: frozenset((t[s],)) if s in t else frozenset()
                 for t in table)
    rep = EssmRepresentation((0, 9), lambda s: s == 0, lambda s: False, step)
    db = NodeDatabase()
    seed(db, rep)
    expand(db, db.node_for(9), rep)
    assert db.duplicate_hits == 1
    expand(db, db.node_for(0), rep)
    one, two, three, five, nine = (db.node(db.node_for(s)) for s in (1, 2, 3, 5, 9))
    assert one.order < two.order < three.order
    for parent, hits in ((three, 2), (two, 4), (one, 5)):
        expand(db, parent.order, rep)
        assert db.duplicate_hits == hits
        assert parent.f_children == (five,)
    assert five.f_parents == (nine, three, two, one)
    assert list(five.parent_ops.items()) == [(nine, 0), (three, 0), (two, 1), (one, 2)]
    assert five.f_distance == (2, 1)
    # 1, 2 and 3 all lie one step from 0: the earliest discovered wins
    path = reconstruct_path(db, five.order, 0)
    assert path.states() == (0, 1, 5)
    assert [e.op.index for e in path.edges] == [0, 2]
    assert reconstruct_path(db, five.order, 1).states() == (9, 5)


def test_expand_wraps_operator_failures():
    def boom(s):
        raise ValueError("no")
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (boom,))
    db = NodeDatabase()
    seed(db, rep)
    with pytest.raises(ProblemDefinitionError, match="forward function 0"):
        expand(db, db.node_for(0), rep)


def test_expand_wraps_successor_walk_failures():
    def boom(s):
        raise ValueError("no")

    def lazy_boom(s):
        yield 1
        raise ValueError("no")

    for walk in (boom, lazy_boom):
        rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False,
                                 (lambda s: frozenset(),), successors=walk)
        db = NodeDatabase()
        seed(db, rep)
        with pytest.raises(ProblemDefinitionError, match="successors"):
            expand(db, db.node_for(0), rep)
        with pytest.raises(ProblemDefinitionError, match="successors"):
            bfs(rep)


def test_a_hook_link_that_no_forward_function_makes_has_no_operator():
    # the hook adds a link root -> rogue that the forward functions lack
    step = (lambda s: frozenset(("a",)) if s == "root" else frozenset(),)
    rep = EssmRepresentation(("root",), lambda s: s == "root", lambda s: s == "rogue",
                             step, successors=lambda s: ["a", "rogue"] if s == "root" else [])
    db = NodeDatabase()
    seed(db, rep)
    expand(db, db.node_for("root"), rep)
    assert goal_condition(db)
    assert db.node(db.node_for("a")).parent_ops == {db.node(0): 0}
    with pytest.raises(SearchInvariantError, match="maps 'root' to its child 'rogue'"):
        reconstruct_path(db, db.node_for("rogue"), 0)
    for search in (ebfs, bfs):
        with pytest.raises(SearchInvariantError, match="'root'"):
            search(rep)


def test_a_forward_function_failing_on_an_operator_read_is_named():
    # with a hook the search never calls the forward functions; only the
    # operator of a link does, in order, so function 0 fails first
    def boom(s):
        raise ValueError("no")

    step = lambda s: frozenset((s + 1,)) if s < 2 else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: s == 1, (boom, step),
                             successors=lambda s: list(step(s)))
    for search in (ebfs, bfs):
        with pytest.raises(ProblemDefinitionError, match="forward function 0 failed on 0"):
            search(rep)
    db = NodeDatabase()
    seed(db, rep)
    expand(db, 0, rep)
    with pytest.raises(ProblemDefinitionError, match="forward function 0 failed on 0"):
        db.node(1).parent_ops


@pytest.mark.parametrize("search", [ebfs, bfs])
def test_predicate_failures_are_problem_definition_errors(search):
    def boom(s):
        raise ValueError("no")

    step = (lambda s: frozenset((s + 1,)) if s < 3 else frozenset(),)
    rep = EssmRepresentation((0,), boom, lambda s: False, step)
    with pytest.raises(ProblemDefinitionError, match="initial predicate"):
        search(rep)
    rep = EssmRepresentation((0,), lambda s: s == 0, boom, step)
    with pytest.raises(ProblemDefinitionError, match="goal predicate"):
        search(rep)
    # a goal predicate that fails only on states the search discovers
    rep = EssmRepresentation((0,), lambda s: s == 0,
                             lambda s: s == 3 and boom(s), step)
    with pytest.raises(ProblemDefinitionError, match="goal predicate failed on 3"):
        search(rep)


def derived_successors(rep):
    """``rep`` with a successor walk built from its forward functions."""
    def walk(s):
        return [t for f in rep.forward_fns for t in f(s)]
    return dataclasses.replace(rep, successors=walk)


def keyed_variants(rep):
    """``rep`` keyed by its int states' decimal text, with the walk derived
    from the forward functions and with a key-level hook."""
    keyed = dataclasses.replace(rep, encode=str, decode=int)

    def walk(key):
        return [str(t) for f in rep.forward_fns for t in f(int(key))]
    return keyed, dataclasses.replace(keyed, successors=walk)


def search_record(result):
    return ([n.state for n in result.db],
            [{p.state: i for p, i in n.parent_ops.items()} for n in result.db],
            result.stats, result.outcome, result.solution)


@pytest.mark.parametrize("search", [ebfs, bfs])
def test_derived_successor_walk_searches_like_the_forward_loop(search):
    rng = random.Random(7)
    edges = [(s, t) for s in range(40) for t in rng.sample(range(s + 1, 44), 3)]
    edges += [(44, 45), (45, 12), (46, 20)]
    for known, goal in (((0, 44, 46), (43,)), ((0, 12, 30), (41, 42)),
                        ((0,), (99,))):
        rep, _ = graph_rep(edges, known, initial=(0,), goal=goal)
        plain = search(rep)
        for variant in (derived_successors(rep), *keyed_variants(rep)):
            assert search_record(search(variant)) == search_record(plain)
    assert plain.outcome is Outcome.FAILURE


@pytest.mark.parametrize("search", [ebfs, bfs])
def test_queens_keyed_by_mask_search_like_queens_keyed_by_state(search):
    rep = three_known_rep(6, 3) if search is ebfs else queens_rep(6)
    unkeyed = dataclasses.replace(rep, successors=None, encode=None, decode=None)
    trace_keyed, trace_unkeyed = [], []
    keyed_result = search(rep, trace=trace_keyed.append)
    assert search_record(keyed_result) == search_record(
        search(unkeyed, trace=trace_unkeyed.append))
    assert trace_keyed == trace_unkeyed
    assert all(type(e.src) is NQueensState for e in keyed_result.solution.edges)


@pytest.mark.parametrize("search", [ebfs, bfs])
def test_a_replaced_representation_searches_with_its_new_functions(search):
    def step(s):
        return frozenset((s + 1,)) if s < 6 else frozenset()

    def leap(s):
        return frozenset((s + 2,)) if s < 6 else frozenset()

    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (step,))
    replaced = dataclasses.replace(rep, forward_fns=(leap,))
    assert [n.state for n in search(replaced).db] == [0, 2, 4, 6]
    hooked = dataclasses.replace(rep, successors=lambda s: list(step(s)))
    assert [n.state for n in search(dataclasses.replace(hooked, forward_fns=(leap,))).db] \
        == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_closed_count_matches_a_scan(n):
    for result in (bfs(queens_rep(n)), ebfs(queens_rep(n, (n + 1) // 2))):
        scan = sum(1 for node in result.db if node.f_status is NodeStatus.CLOSED)
        assert result.db.closed_count == scan == result.stats.expansions


def test_self_loop_terminates_as_failure():
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False,
                             (lambda s: frozenset((s,)),))
    result = ebfs(rep)
    assert result.outcome is Outcome.FAILURE
    assert result.stats.nodes_created == 1
    assert result.stats.expansions == 1
    assert result.stats.duplicate_hits == 1


# --- termination condition ----------------------------------------------

def test_goal_condition_empty_database_is_false():
    assert not goal_condition(NodeDatabase())


def test_goal_condition_holds_once_subgraphs_chain():
    rep, _ = graph_rep([(0, 1), (1, 2)], known=[0, 2], initial=[0], goal=[2])
    db = NodeDatabase()
    seed(db, rep)
    # the goal node exists from the start, but nothing connects it yet
    assert not goal_condition(db)
    expand(db, db.node_for(0), rep)
    assert not goal_condition(db)
    expand(db, db.node_for(2), rep)
    assert not goal_condition(db)
    expand(db, db.node_for(1), rep)
    assert db.node(db.node_for(2)).f_distance == (2, 0)
    assert goal_condition(db)


def test_goal_condition_true_at_seed_time_for_known_initial_goal():
    rep, _ = graph_rep([(0, 1)], known=[0], initial=[0], goal=[0])
    db = NodeDatabase()
    seed(db, rep)
    assert goal_condition(db)


def chain_probe(goals, initial=lambda s: s == 0):
    """3G+1 int states in one chain, for G = ``goals``. The known states are
    the root 0 and the relay 2G; the goals 2G+1..3G follow the relay, so its
    subtree finds every goal long before the root's chain reaches it."""
    last = 3 * goals
    return EssmRepresentation((0, 2 * goals), initial, lambda s: s > 2 * goals,
                              (lambda s: frozenset((s + 1,)) if s < last else frozenset(),))


@pytest.mark.parametrize("search, nodes", [(ebfs, 151), (bfs, 102)])
def test_predicates_run_once_per_known_state_and_once_per_node(search, nodes):
    calls = Counter()

    def counted(name, predicate):
        def run(s):
            calls[name] += 1
            return predicate(s)
        return run

    rep = chain_probe(50)
    rep = dataclasses.replace(rep, initial=counted("initial", rep.initial),
                              goal=counted("goal", rep.goal))
    result = search(rep)
    assert result.outcome is Outcome.SUCCESS and result.solution_length == 101
    assert result.stats.nodes_created == nodes
    assert calls == {"initial": 2, "goal": nodes}


def test_without_an_initial_known_state_both_searches_fail():
    rep = chain_probe(50, initial=lambda s: False)
    result = bfs(rep)
    assert result.outcome is Outcome.FAILURE
    assert result.stats.nodes_created == result.stats.expansions == 0
    result = ebfs(rep)
    assert result.outcome is Outcome.FAILURE
    assert result.stats.nodes_created == result.stats.expansions == 151
    assert not result.db.open_nodes()


# --- path reconstruction -------------------------------------------------

def test_reconstruct_zero_distance_gives_single_state():
    db = NodeDatabase()
    node = db.add("s", (0,))
    assert reconstruct_path(db, node, 0) == SingleStateSolution("s")


def test_reconstruct_rejects_unreached_index():
    db = NodeDatabase()
    node = db.add("s", (INF,))
    with pytest.raises(ModelError):
        reconstruct_path(db, node, 0)


def test_reconstruct_walks_earliest_parent_on_ties():
    # d has parents b and c, both one step from a; b is discovered first
    rep, _ = graph_rep([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e")],
                       known=["a"], initial=["a"], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    for state in "abc":
        expand(db, db.node_for(state), rep)
    path = reconstruct_path(db, db.node_for("d"), 0)
    assert [e.src for e in path.edges] == ["a", "b"]
    assert [e.op.index for e in path.edges] == [0, 0]
    assert path.states() == ("a", "b", "d")
    path = reconstruct_path(db, db.node_for("e"), 0)
    assert [e.op.index for e in path.edges] == [1, 1]


def test_parent_scan_ignores_id_bytes_that_span_two_entries():
    # node 2's children 256 and 512 lie side by side in the child runs, and
    # their bytes hold those of id 1 one byte in; node 1, the second seed,
    # has node 3 for its only parent
    edges = [(0, s) for s in range(2, 514)] + [(2, 256), (2, 512), (3, 1)]
    rep, _ = graph_rep(edges, known=[0, 1], initial=[0], goal=[1])
    result = ebfs(rep)
    db = result.db
    assert [db.node_for(s) for s in (0, 1, 2, 3, 256, 512)] == [0, 1, 2, 3, 256, 512]
    one, three = db.node(1), db.node(3)
    assert one.f_parents == (three,) and one.parent_ops == {three: 0}
    assert result.solution.states() == (0, 3, 1)
    assert [e.op.index for e in result.solution.edges] == [1, 0]


def test_searches_never_build_the_view_index(monkeypatch):
    def refuse(db):
        raise AssertionError("the search read a view")
    monkeypatch.setattr(NodeDatabase, "_parent_index", refuse)
    for search, rep in ((ebfs, three_known_rep(7, 3)), (bfs, queens_rep(7)),
                        (ebfs, relay_dag_rep())):
        result = search(rep)
        assert result.outcome is Outcome.SUCCESS
        assert validate_path(rep, result.solution)


def test_reconstruct_detects_missing_parent_gradient():
    db = NodeDatabase()
    db.add("y", (1,))
    stuck = db.add("x", (2,))
    with pytest.raises(SearchInvariantError):
        reconstruct_path(db, stuck, 0)


# --- the multi-source loop ----------------------------------------------

def test_ebfs_rejects_backward_families():
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False,
                             (lambda s: frozenset(),),
                             (lambda s: frozenset(),))
    with pytest.raises(ModelError):
        ebfs(rep)
    with pytest.raises(ModelError):
        bfs(rep)


def test_ebfs_degenerate_goal_at_seed_time():
    rep = make_classical([lambda s: None], 7, goal=lambda s: s == 7)
    result = ebfs(rep)
    assert result.outcome is Outcome.SUCCESS
    assert result.solution == SingleStateSolution(7)
    assert result.solution_length == 0
    assert result.stats.expansions == 0


def test_ebfs_connects_subtrees_across_sources():
    rep, _ = graph_rep([(0, 1), (1, 2)], known=[0, 2], initial=[0], goal=[2])
    result = ebfs(rep)
    assert result.outcome is Outcome.SUCCESS
    assert result.solution_length == 2
    assert result.solution.states() == (0, 1, 2)
    assert validate_path(rep, result.solution)


def test_ebfs_solves_four_queens_at_oracle_depth():
    rep = queens_rep(4)
    result = ebfs(rep)
    assert result.outcome is Outcome.SUCCESS
    assert result.solution_length == oracle_solution_depth(rep, empty_board(4)) == 4
    assert validate_path(rep, result.solution)
    states = result.solution.states()
    assert rep.initial(states[0]) and rep.goal(states[-1])


def test_ebfs_failure_exhausts_reachable_space():
    rep = queens_rep(3)
    result = ebfs(rep)
    assert result.outcome is Outcome.FAILURE
    assert result.solution is None and result.solution_length is None
    reached = oracle_reachable(rep, empty_board(3))
    assert {n.state for n in result.db} == set(reached)


def test_ebfs_respects_node_cap():
    result = ebfs(queens_rep(5), limits=SearchLimits(max_nodes=10))
    assert result.outcome is Outcome.RESOURCE_LIMIT
    assert result.solution is None
    assert result.stats.nodes_created >= 10


def test_ebfs_respects_expansion_cap():
    result = ebfs(queens_rep(5), limits=SearchLimits(max_expansions=3))
    assert result.outcome is Outcome.RESOURCE_LIMIT
    assert result.stats.expansions == 3


def test_ebfs_trace_is_contiguous_and_monotone():
    records = []
    rep = queens_rep(4)
    result = ebfs(rep, trace=records.append)
    assert [r.step for r in records] == list(range(1, len(records) + 1))
    mins = [r.min_distance for r in records]
    assert mins == sorted(mins)
    created = [r.nodes_created for r in records]
    assert created == sorted(created)
    assert created[-1] == result.stats.nodes_created


def test_ebfs_distance_updates_are_observable_and_decreasing():
    events = []
    ebfs(queens_rep(5, 3),
         on_distance_update=lambda n, old, new: events.append((old, new)))
    assert events
    for old, new in events:
        assert all(b <= a for a, b in zip(old, new))
        assert new != old


def test_ebfs_stored_distances_match_per_source_sweep():
    result = ebfs(queens_rep(5, 3))
    want = oracle_stored_distances(result.db)
    for node in result.db:
        assert node.f_distance == tuple(want[node])


def shares_vectors(db):
    """Equal distance vectors of ``db`` are one tuple."""
    return len({id(v) for v in db._dist}) == len(set(db._dist))


def test_equal_distance_vectors_are_one_tuple():
    shortcut, _ = graph_rep([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("t", "c")],
                            known=["s", "t"], initial=["s"], goal=[])
    for rep in (shortcut, three_known_rep(7, 3)):
        closed_changes = []
        result = ebfs(rep, on_distance_update=lambda node, old, new: closed_changes.append(
            node.f_status is NodeStatus.CLOSED))
        assert any(closed_changes)  # a change cascaded through a closed node
        want = oracle_stored_distances(result.db)
        for node in result.db:
            assert node.f_distance == tuple(want[node])
        assert shares_vectors(result.db)
    result = bfs(queens_rep(7))
    want = oracle_stored_distances(result.db)
    assert all(node.f_distance == tuple(want[node]) for node in result.db)
    assert shares_vectors(result.db) and len(set(result.db._dist)) == 8


def test_ebfs_runs_are_deterministic():
    def run():
        events = []
        result = ebfs(three_known_rep(7, 3), on_distance_update=lambda node, old, new:
                      events.append((node.state, old, new)))
        return result, events

    (first, first_events), (second, second_events) = run(), run()
    assert [n.state for n in first.db] == [n.state for n in second.db]
    assert first.stats == second.stats
    assert first.solution == second.solution
    assert len(first_events) > first.stats.nodes_created
    assert first_events == second_events


@pytest.mark.parametrize("search, rep, seeds, peak", [
    (bfs, queens_rep(7), 1, 7234),
    (ebfs, three_known_rep(7, 4), 3, 3668),
    (ebfs, relay_dag_rep(), 4, 1780),
])
def test_max_open_size_is_the_peak_of_the_traced_open_counts(search, rep, seeds, peak):
    # a step's record counts the open nodes after its node closed, so the
    # open set peaked one higher within the step
    records = []
    result = search(rep, trace=records.append)
    assert result.stats.max_open_size == max(seeds, max(r.open_count + 1 for r in records))
    assert result.stats.max_open_size == peak


def test_stats_are_internally_consistent():
    result = ebfs(queens_rep(5, 2))
    stats = result.stats
    assert stats.expansions <= stats.nodes_created
    assert stats.max_open_size <= stats.nodes_created
    assert stats.nodes_created == len(result.db)
    assert stats.duplicate_hits >= 0


# --- the single-source baseline -----------------------------------------

def test_bfs_degenerate_goal_at_seed_time():
    rep = make_classical([lambda s: None], 7, goal=lambda s: s == 7)
    result = bfs(rep)
    assert result.outcome is Outcome.SUCCESS
    assert result.solution == SingleStateSolution(7)
    assert result.stats.expansions == 0


def test_bfs_matches_depth_oracle_on_four_queens():
    rep = queens_rep(4)
    result = bfs(rep)
    assert result.outcome is Outcome.SUCCESS
    assert result.solution_length == 4
    assert validate_path(rep, result.solution)


def test_bfs_failure_covers_exactly_the_reachable_states():
    rep = queens_rep(3)
    result = bfs(rep)
    assert result.outcome is Outcome.FAILURE
    reached = oracle_reachable(rep, empty_board(3))
    assert {n.state for n in result.db} == set(reached)
    for node in result.db:
        assert node.f_distance == (reached[node.state],)


def test_bfs_ignores_known_states_beyond_the_initial_one():
    single = bfs(queens_rep(4))
    seeded = bfs(queens_rep(4, 2))
    assert seeded.stats == single.stats
    assert [n.state for n in seeded.db] == [n.state for n in single.db]


def test_bfs_trace_depths_never_decrease():
    records = []
    bfs(queens_rep(4), trace=records.append)
    depths = [r.min_distance for r in records]
    assert depths == sorted(depths)
    assert [r.step for r in records] == list(range(1, len(records) + 1))


def test_bfs_respects_caps():
    capped = bfs(queens_rep(5), limits=SearchLimits(max_expansions=2))
    assert capped.outcome is Outcome.RESOURCE_LIMIT
    assert capped.stats.expansions == 2


@pytest.mark.parametrize("search", [bfs, ebfs])
def test_a_tiny_wall_time_cap_ends_n8_as_resource_limit(search):
    result = search(queens_rep(8), limits=SearchLimits(max_seconds=0.02))
    assert result.outcome is Outcome.RESOURCE_LIMIT
    assert result.solution is None
    assert result.stats.expansions < 115777


def test_a_wall_time_cap_that_is_not_reached_changes_nothing():
    capped = bfs(queens_rep(6), limits=SearchLimits(max_seconds=600))
    assert search_record(capped) == search_record(bfs(queens_rep(6)))


# --- memory -------------------------------------------------------------

MEMORY_PROBE = """
import tracemalloc
from essm_search import bfs, ebfs
from essm_search.nqueens import _attack_table
from helpers import queens_rep, relay_dag_rep, three_known_rep
search, rep = {case}
_attack_table(7)  # built once per process; not part of the search
tracemalloc.start()
result = search(rep)
peak = tracemalloc.get_traced_memory()[1]
print(result.outcome.value, peak / result.stats.nodes_created)
"""


@pytest.mark.parametrize("case, bound", [("bfs, queens_rep(7)", 160),
                                         ("ebfs, three_known_rep(7, 3)", 215),
                                         ("ebfs, relay_dag_rep()", 180)],
                         ids=["bfs", "ebfs3", "relay"])
def test_search_memory_per_node_stays_small(case, bound):
    # each case in a fresh interpreter: tracemalloc does not count tuples
    # taken from free lists that earlier work filled, so the figure would
    # depend on which tests ran before
    path = os.pathsep.join((os.path.dirname(os.path.dirname(essm_search.__file__)),
                            os.path.dirname(__file__)))
    probe = subprocess.run([sys.executable, "-c", MEMORY_PROBE.format(case=case)],
                           env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    outcome, per_node = probe.stdout.split()
    assert outcome == Outcome.SUCCESS.value
    assert float(per_node) <= bound
