"""Engine primitives (seed, select, expand, f_update, goal condition,
path reconstruction) and the two search loops."""

import dataclasses
import random

import pytest

from essm_search import (INF, Edge, EssmRepresentation, ModelError,
                         NodeDatabase, NodeStatus, Outcome, Path,
                         ProblemDefinitionError, SearchInvariantError,
                         SearchLimits, SingleStateSolution, bfs, ebfs, expand,
                         f_update, goal_condition, make_classical, new_node,
                         reconstruct_path, seed, select, validate_path)
from essm_search.nqueens import (KnownState, KnownStateSpec, ROLE_INITIAL,
                                 ROLE_ON_SOLUTION, empty_board, nqueens_rep,
                                 on_solution_state)

from helpers import (graph_rep, oracle_reachable, oracle_solution_depth,
                     oracle_stored_distances, scan_select)


def open_node(db, state, distances):
    """Manually placed open node with a preset distance vector."""
    node = new_node(state, len(distances))
    node.f_distance = tuple(distances)
    db.add(node)
    db.mark_open(node)
    return node


def queens_rep(n, *extra_depths):
    entries = [KnownState(empty_board(n), ROLE_INITIAL)]
    for d in extra_depths:
        entries.append(KnownState(on_solution_state(n, d), ROLE_ON_SOLUTION))
    return nqueens_rep(n, KnownStateSpec(tuple(entries)))


# --- nodes and the database ---------------------------------------------

def test_new_node_starts_unset_and_infinite():
    node = new_node("s", 3)
    assert node.f_status is NodeStatus.UNSET
    assert node.f_distance == (INF, INF, INF)
    assert node.b_distance == (INF, INF, INF)
    assert node.min_distance() == INF
    assert not node.f_parents and not node.f_children


def test_new_node_needs_a_distance_entry():
    with pytest.raises(ModelError):
        new_node("s", 0)


def test_new_node_calls_do_not_deduplicate():
    assert new_node("s", 1) is not new_node("s", 1)


def test_database_assigns_discovery_order_and_rejects_repeats():
    db = NodeDatabase()
    a, b = new_node("a", 1), new_node("b", 1)
    db.add(a)
    db.add(b)
    assert (a.order, b.order) == (0, 1)
    assert list(db) == [a, b]
    assert db.lookup("a") is a and db.lookup("zz") is None
    assert db.node_for("b") is b
    with pytest.raises(ModelError):
        db.add(new_node("a", 1))
    with pytest.raises(ModelError):
        db.node_for("zz")


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
    open_node(db, "far", (2, INF))
    near = open_node(db, "near", (INF, 1))
    assert select(db) is near


def test_select_breaks_ties_by_discovery_order():
    db = NodeDatabase()
    first = open_node(db, "first", (1,))
    open_node(db, "second", (1,))
    assert select(db) is first


def test_select_skips_closed_and_returns_none_when_drained():
    db = NodeDatabase()
    a = open_node(db, "a", (0,))
    b = open_node(db, "b", (1,))
    db.mark_closed(a)
    assert select(db) is b
    db.mark_closed(b)
    assert select(db) is None


def test_select_sees_distance_drops():
    db = NodeDatabase()
    slow = open_node(db, "slow", (5,))
    open_node(db, "mid", (3,))
    f_update(slow, (0,), on_change=db.note_distance_change)
    assert slow.f_distance == (1,)
    assert select(db) is slow


def test_select_needs_a_tracked_frontier():
    db = NodeDatabase(track_frontier=False)
    with pytest.raises(ModelError):
        select(db)


def test_select_matches_linear_scan_throughout_a_run():
    rep = queens_rep(4, 2)
    db = NodeDatabase()
    seed(db, rep)
    steps = 0
    while not goal_condition(db, rep):
        curr = select(db)
        assert curr is scan_select(db)
        expand(curr, db, rep)
        steps += 1
        assert steps < 10_000
    assert steps > 0


# --- relaxation ----------------------------------------------------------

def test_f_update_relaxes_componentwise():
    node = new_node("x", 2)
    node.f_distance = (INF, 3)
    f_update(node, (2, 5))
    assert node.f_distance == (3, 3)


def test_f_update_cascades_through_closed_children():
    a, b, c = new_node("a", 2), new_node("b", 2), new_node("c", 2)
    a.f_distance, b.f_distance, c.f_distance = (1, INF), (2, INF), (3, INF)
    a.f_status = b.f_status = NodeStatus.CLOSED
    a.f_children.add(b)
    b.f_children.add(c)
    changed = []
    f_update(a, (INF, 1), on_change=lambda n, old, new: changed.append(n.state))
    assert a.f_distance == (1, 2)
    assert b.f_distance == (2, 3)
    assert c.f_distance == (3, 4)
    assert changed == ["a", "b", "c"]


def test_f_update_stops_where_nothing_improves():
    a, b = new_node("a", 1), new_node("b", 1)
    a.f_distance, b.f_distance = (1,), (2,)
    a.f_status = NodeStatus.CLOSED
    a.f_children.add(b)
    fired = []
    f_update(a, (4,), on_change=lambda n, old, new: fired.append(n.state))
    assert a.f_distance == (1,) and b.f_distance == (2,)
    assert fired == []


def test_f_update_entries_never_increase():
    node = new_node("x", 3)
    node.f_distance = (4, INF, 0)
    seen = []
    f_update(node, (0, 5, INF), on_change=lambda n, old, new: seen.append((old, new)))
    assert node.f_distance == (1, 6, 0)
    for old, new in seen:
        assert all(b <= a for a, b in zip(old, new))


def test_f_update_rejects_length_mismatch():
    node = new_node("x", 2)
    with pytest.raises(ModelError):
        f_update(node, (1,))


def test_f_update_survives_long_closed_chains():
    # a chain far beyond the recursion limit must relax iteratively
    nodes = [new_node(i, 1) for i in range(5000)]
    for i, nd in enumerate(nodes):
        nd.f_distance = (INF,)
        nd.f_status = NodeStatus.CLOSED
        if i:
            nodes[i - 1].f_children.add(nd)
    f_update(nodes[0], (0,))
    assert nodes[-1].f_distance == (5000,)


# --- expansion -----------------------------------------------------------

def test_expand_creates_open_children_with_relaxed_distances():
    rep = queens_rep(4)
    db = NodeDatabase()
    seed(db, rep)
    root = db.node_for(empty_board(4))
    expand(root, db, rep)
    assert root.f_status is NodeStatus.CLOSED
    assert len(db) == 17          # the seed plus one child per square
    assert db.expansions == 1
    for child in root.f_children:
        assert child.f_status is NodeStatus.OPEN
        assert child.f_distance == (1,)
        assert child.f_parents == {root}
        r, c = child.state.queens[0]
        assert child.parent_ops[root] == r * 4 + c


def test_expand_requires_an_open_node():
    rep = queens_rep(4)
    db = NodeDatabase()
    seed(db, rep)
    root = db.node_for(empty_board(4))
    expand(root, db, rep)
    with pytest.raises(ModelError):
        expand(root, db, rep)


def test_expand_links_duplicates_instead_of_recreating():
    rep = queens_rep(4, 1)        # knowns: empty board and the (0,1) board
    db = NodeDatabase()
    seed(db, rep)
    root, known = list(db)
    assert known.f_distance == (INF, 0)
    expand(root, db, rep)
    assert db.duplicate_hits == 1
    assert known.f_distance == (1, 0)     # reached from the empty board too
    assert known in root.f_children and root in known.f_parents
    assert len(db) == 17                   # 16 children, one of them the seed


def test_expand_revives_not_relevant_nodes():
    rep, _ = graph_rep([(0, 1), (2, 1)], known=[0, 2], initial=[0], goal=[])
    db = NodeDatabase()
    seed(db, rep)
    expand(db.node_for(0), db, rep)
    mid = db.node_for(1)
    db.mark_closed(mid)
    mid.f_status = NodeStatus.NOT_RELEVANT
    expand(db.node_for(2), db, rep)
    assert mid.f_status is NodeStatus.OPEN
    assert db.duplicate_hits == 1
    assert mid.f_parents == {db.node_for(0), db.node_for(2)}


def test_expand_wraps_operator_failures():
    def boom(s):
        raise ValueError("no")
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (boom,))
    db = NodeDatabase()
    seed(db, rep)
    with pytest.raises(ProblemDefinitionError, match="forward function 0"):
        expand(db.node_for(0), db, rep)


def test_expand_wraps_successor_walk_failures():
    def boom(s):
        raise ValueError("no")

    def lazy_boom(s):
        yield 0, 1
        raise ValueError("no")

    for walk in (boom, lazy_boom):
        rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False,
                                 (lambda s: frozenset(),), successors=walk)
        db = NodeDatabase()
        seed(db, rep)
        with pytest.raises(ProblemDefinitionError, match="successors"):
            expand(db.node_for(0), db, rep)
        with pytest.raises(ProblemDefinitionError, match="successors"):
            bfs(rep)


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
        return [(i, t) for i, f in enumerate(rep.forward_fns) for t in f(s)]
    return dataclasses.replace(rep, successors=walk)


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
        plain, walked = search(rep), search(derived_successors(rep))
        assert search_record(walked) == search_record(plain)
    assert plain.outcome is Outcome.FAILURE


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
    rep, _ = graph_rep([(0, 1)], known=[0], initial=[0], goal=[1])
    assert not goal_condition(NodeDatabase(), rep)


def test_goal_condition_holds_once_subgraphs_chain():
    rep, _ = graph_rep([(0, 1), (1, 2)], known=[0, 2], initial=[0], goal=[2])
    db = NodeDatabase()
    seed(db, rep)
    # the goal node exists from the start, but nothing connects it yet
    assert not goal_condition(db, rep)
    expand(db.node_for(0), db, rep)
    assert not goal_condition(db, rep)
    expand(db.node_for(2), db, rep)
    assert not goal_condition(db, rep)
    expand(db.node_for(1), db, rep)
    assert db.node_for(2).f_distance == (2, 0)
    assert goal_condition(db, rep)


def test_goal_condition_true_at_seed_time_for_known_initial_goal():
    rep, _ = graph_rep([(0, 1)], known=[0], initial=[0], goal=[0])
    db = NodeDatabase()
    seed(db, rep)
    assert goal_condition(db, rep)


# --- path reconstruction -------------------------------------------------

def test_reconstruct_zero_distance_gives_single_state():
    db = NodeDatabase()
    node = open_node(db, "s", (0,))
    assert reconstruct_path(db, node, 0) == SingleStateSolution("s")


def test_reconstruct_rejects_unreached_index():
    db = NodeDatabase()
    node = open_node(db, "s", (INF,))
    with pytest.raises(ModelError):
        reconstruct_path(db, node, 0)


def test_reconstruct_walks_earliest_parent_on_ties():
    db = NodeDatabase()
    a = open_node(db, "a", (0,))
    b = open_node(db, "b", (1,))
    c = open_node(db, "c", (1,))
    d = open_node(db, "d", (2,))
    b.f_parents, b.parent_ops = {a}, {a: 0}
    c.f_parents, c.parent_ops = {a}, {a: 1}
    d.f_parents, d.parent_ops = {b, c}, {b: 5, c: 6}
    path = reconstruct_path(db, d, 0)
    assert [e.src for e in path.edges] == ["a", "b"]
    assert [e.op.index for e in path.edges] == [0, 5]
    assert path.states() == ("a", "b", "d")


def test_reconstruct_detects_missing_parent_gradient():
    db = NodeDatabase()
    stuck = open_node(db, "x", (2,))
    peer = open_node(db, "y", (2,))
    stuck.f_parents = {peer}
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


def test_ebfs_runs_are_deterministic():
    first = ebfs(queens_rep(5, 2))
    second = ebfs(queens_rep(5, 2))
    assert [n.state for n in first.db] == [n.state for n in second.db]
    assert first.stats == second.stats
    assert first.solution == second.solution


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
