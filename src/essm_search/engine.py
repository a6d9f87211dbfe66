"""Multi-source breadth-first search with per-known-state distance vectors.

Every discovered state gets exactly one node holding its status, its
parent/child links, and a vector with the best known distance from each
known state (index fixed by the order of ``known_states``). All known
states are seeded as one frontier; when the subtree grown from one known
state runs into the subtree of another, the distance update cascades
through the already-closed nodes, so the merged subgraph immediately knows
how far every node is from every source that reaches it.

The search succeeds as soon as some discovered goal node has a finite
distance from a known state that satisfies the initial predicate: at that
point the stored subgraph contains a start-to-goal chain through a known
state. Running out of open nodes is failure; configured caps produce the
distinct resource_limit outcome.

Only forward function families are supported; a representation's
``successors`` hook, when set, stands in for them with one call per
expansion and the same pairs in the same order. Backward distance vectors are
carried (seeds get their diagonal zero) but never propagated, and the
not_relevant status is handled on the revival path in expand without ever
being produced here.

A node database belongs to one search on one thread. Searches over the same
representation may run concurrently as long as each has its own database,
which both entry points (:func:`ebfs`, :func:`bfs`) create for themselves.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .errors import ModelError, ProblemDefinitionError, SearchInvariantError
from .model import (FORWARD, Edge, EssmRepresentation, OpRef, Path,
                    SingleStateSolution, State)

INF = math.inf


class NodeStatus(Enum):
    UNSET = "unset"
    OPEN = "open"
    CLOSED = "closed"
    NOT_RELEVANT = "not_relevant"


class SearchNode:
    """Per-state search record. Nodes compare by identity; the database
    guarantees at most one node per distinct state."""

    __slots__ = ("state", "f_status", "f_parents", "f_children",
                 "f_distance", "b_distance", "order", "parent_ops")

    def __init__(self, state: State, k_count: int):
        self.state = state
        self.f_status = NodeStatus.UNSET
        self.f_parents: set = set()
        self.f_children: set = set()
        self.f_distance: tuple = (INF,) * k_count
        self.b_distance: tuple = (INF,) * k_count
        self.order = -1            # discovery index, assigned by NodeDatabase.add
        self.parent_ops: dict = {}  # parent node -> forward fn index of the first link

    def min_distance(self) -> float:
        return min(self.f_distance)

    def __repr__(self) -> str:
        return f"SearchNode({self.state!r}, {self.f_status.value}, f={self.f_distance})"


def new_node(state: State, k_count: int) -> SearchNode:
    """A fresh unset node with every distance entry infinite. Two calls with
    equal states produce distinct records; deduplication is the database's
    job, not this one's."""
    if k_count < 1:
        raise ModelError("a node needs at least one distance entry")
    return SearchNode(state, k_count)


class NodeDatabase:
    """State-indexed store of search nodes in discovery order.

    Also owns the frontier index behind :func:`select`: a lazy-deletion heap
    keyed by (min distance entry, discovery order), so selection stays cheap
    while staying exactly "smallest min-entry, earliest discovered on ties".
    Status and distance changes must go through mark_open / mark_closed /
    note_distance_change to keep that index consistent.
    """

    def __init__(self, track_frontier: bool = True):
        self._by_state: dict = {}
        self._order: list[SearchNode] = []
        self.open_count = 0
        self.closed_count = 0
        self.max_open_size = 0
        self.expansions = 0
        self.duplicate_hits = 0
        self._frontier: list | None = [] if track_frontier else None
        # predicate caches for the termination check, advanced lazily
        self._cat_rep: EssmRepresentation | None = None
        self._cat_upto = 0
        self._initial_nodes: list[SearchNode] = []
        self._goal_nodes: list[SearchNode] = []

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[SearchNode]:
        return iter(self._order)

    def lookup(self, state: State) -> Optional[SearchNode]:
        return self._by_state.get(state)

    def node_for(self, state: State) -> SearchNode:
        node = self._by_state.get(state)
        if node is None:
            raise ModelError(f"no node for state {state!r}")
        return node

    def add(self, node: SearchNode) -> None:
        if node.state in self._by_state:
            raise ModelError(f"state already in database: {node.state!r}")
        node.order = len(self._order)
        self._by_state[node.state] = node
        self._order.append(node)

    def mark_open(self, node: SearchNode) -> None:
        if node.f_status is not NodeStatus.OPEN:
            self.open_count += 1
            if self.open_count > self.max_open_size:
                self.max_open_size = self.open_count
        node.f_status = NodeStatus.OPEN
        if self._frontier is not None:
            heapq.heappush(self._frontier, (min(node.f_distance), node.order, node))

    def mark_closed(self, node: SearchNode) -> None:
        if node.f_status is NodeStatus.OPEN:
            self.open_count -= 1
        if node.f_status is not NodeStatus.CLOSED:
            self.closed_count += 1
        node.f_status = NodeStatus.CLOSED

    def note_distance_change(self, node: SearchNode, old: tuple, new: tuple) -> None:
        if node.f_status is NodeStatus.OPEN and self._frontier is not None:
            heapq.heappush(self._frontier, (min(new), node.order, node))

    def open_nodes(self) -> list[SearchNode]:
        """Every open node, in discovery order. Linear scan; audits only."""
        return [n for n in self._order if n.f_status is NodeStatus.OPEN]

    def categories(self, rep: EssmRepresentation) -> tuple[list, list]:
        """Nodes whose states satisfy the initial / goal predicate, in
        discovery order. Each predicate runs once per node; the caches reset
        if a different representation is passed. An exception from either
        predicate surfaces as ProblemDefinitionError."""
        if rep is not self._cat_rep:
            self._cat_rep = rep
            self._cat_upto = 0
            self._initial_nodes = []
            self._goal_nodes = []
        while self._cat_upto < len(self._order):
            node = self._order[self._cat_upto]
            self._cat_upto += 1
            predicate = "initial"
            try:
                if rep.initial(node.state):
                    self._initial_nodes.append(node)
                predicate = "goal"
                if rep.goal(node.state):
                    self._goal_nodes.append(node)
            except Exception as exc:
                raise ProblemDefinitionError(
                    f"{predicate} predicate failed on {node.state!r}") from exc
        return self._initial_nodes, self._goal_nodes


def _walk(rep: EssmRepresentation, state: State) -> list:
    """The (forward function index, successor) pairs ``rep.successors``
    gives for ``state``, taken in full so that an exception raised while
    producing them surfaces as ProblemDefinitionError."""
    try:
        return list(rep.successors(state))
    except Exception as exc:
        raise ProblemDefinitionError(f"successors failed on {state!r}") from exc


def seed(db: NodeDatabase, rep: EssmRepresentation) -> None:
    """Insert one open node per known state, in order, with distance zero to
    itself (both directions) and infinity elsewhere."""
    if len(db):
        raise ModelError("seeding requires an empty database")
    k = rep.k_count
    for i, s in enumerate(rep.known_states):
        node = new_node(s, k)
        diag = tuple(0 if j == i else INF for j in range(k))
        node.f_distance = diag
        node.b_distance = diag
        db.add(node)
        db.mark_open(node)


def select(db: NodeDatabase) -> Optional[SearchNode]:
    """The open node whose smallest distance entry is minimal over all open
    nodes, earliest discovered on ties; None when nothing is open."""
    frontier = db._frontier
    if frontier is None:
        raise ModelError("this database does not track a frontier")
    while frontier:
        d, order, node = frontier[0]
        if node.f_status is NodeStatus.OPEN and min(node.f_distance) == d:
            return node
        heapq.heappop(frontier)  # stale: closed since, or distance dropped
    return None


OnChange = Callable[[SearchNode, tuple, tuple], None]


def f_update(node: SearchNode, parent_distance: tuple,
             on_change: Optional[OnChange] = None) -> None:
    """Componentwise relaxation: each entry becomes min(own, parent + 1).

    A change on a closed node re-relaxes all of its children, so better
    distances flow through every already-explored subtree they can improve.
    Entries never increase, and every relaxation lowers some finite entry,
    which bounds the total work. A worklist replaces the natural recursion
    so long chains cannot overflow the stack. ``on_change(node, old, new)``
    fires for every node whose vector actually changed.
    """
    work = [(node, parent_distance)]
    while work:
        nd, pd = work.pop()
        old = nd.f_distance
        if len(pd) != len(old):
            raise ModelError("distance vector length mismatch")
        new = tuple(min(d, p + 1) for d, p in zip(old, pd))
        if new == old:
            continue
        nd.f_distance = new
        if on_change is not None:
            on_change(nd, old, new)
        if nd.f_status is NodeStatus.CLOSED:
            for child in nd.f_children:
                work.append((child, new))


def expand(curr: SearchNode, db: NodeDatabase, rep: EssmRepresentation,
           on_change: Optional[OnChange] = None) -> None:
    """Apply every forward function to curr's state, through one call of
    ``rep.successors`` when the representation has one.

    Unknown successors are created open; known ones are linked (reviving a
    not_relevant node to open). Every successor is relaxed against curr's
    current distances. curr is closed at the end. A successor equal to curr
    itself just adds a self-link; the relaxation is a no-op on it.
    """
    if curr.f_status is not NodeStatus.OPEN:
        raise ModelError("only open nodes can be expanded")
    if on_change is None:
        on_change = db.note_distance_change
    db.expansions += 1
    k = len(curr.f_distance)
    if rep.successors is None:
        for f_index, f in enumerate(rep.forward_fns):
            try:
                successors = f(curr.state)
            except Exception as exc:
                raise ProblemDefinitionError(
                    f"forward function {f_index} failed on {curr.state!r}") from exc
            for s2 in successors:
                node = db.lookup(s2)
                if node is None:
                    node = new_node(s2, k)
                    db.add(node)
                    db.mark_open(node)
                else:
                    db.duplicate_hits += 1
                    if node.f_status is NodeStatus.NOT_RELEVANT:
                        db.mark_open(node)
                curr.f_children.add(node)
                node.f_parents.add(curr)
                node.parent_ops.setdefault(curr, f_index)
                f_update(node, curr.f_distance, on_change=on_change)
    else:
        for f_index, s2 in _walk(rep, curr.state):
            node = db.lookup(s2)
            if node is None:
                node = new_node(s2, k)
                db.add(node)
                db.mark_open(node)
            else:
                db.duplicate_hits += 1
                if node.f_status is NodeStatus.NOT_RELEVANT:
                    db.mark_open(node)
            curr.f_children.add(node)
            node.f_parents.add(curr)
            node.parent_ops.setdefault(curr, f_index)
            f_update(node, curr.f_distance, on_change=on_change)
    db.mark_closed(curr)


def goal_condition(db: NodeDatabase, rep: EssmRepresentation) -> bool:
    """True when some node satisfying ``initial`` has a finite backward
    entry at an index where some node satisfying ``goal`` has a finite
    forward entry. In a seeded search the finite backward entries are the
    seeds' own indexes, so this reads: a discovered goal is connected to an
    initial known state through the stored subgraph."""
    initial_nodes, goal_nodes = db.categories(rep)
    if not initial_nodes or not goal_nodes:
        return False
    live = set()
    for s in initial_nodes:
        for i, d in enumerate(s.b_distance):
            if d != INF:
                live.add(i)
    if not live:
        return False
    for g in goal_nodes:
        fd = g.f_distance
        for i in live:
            if fd[i] != INF:
                return True
    return False


def reconstruct_path(db: NodeDatabase, goal_node: SearchNode, i: int) -> Path | SingleStateSolution:
    """Walk stored parent links from ``goal_node`` back to the known state
    of index ``i``, at each step taking a parent exactly one step closer to
    that known state (earliest-discovered parent on ties). Distance zero at
    the goal itself means the known state is the goal: the result is then a
    single-state solution with no edges."""
    dist = goal_node.f_distance[i]
    if dist == INF:
        raise ModelError(f"node {goal_node.state!r} has no stored path from known state {i}")
    if dist == 0:
        return SingleStateSolution(goal_node.state)
    edges: list[Edge] = []
    cur = goal_node
    while dist > 0:
        best = None
        for p in cur.f_parents:
            if p.f_distance[i] == dist - 1 and (best is None or p.order < best.order):
                best = p
        if best is None:
            raise SearchInvariantError(
                f"no parent of {cur.state!r} at distance {dist - 1} from known state {i}")
        edges.append(Edge(best.state, cur.state, OpRef(FORWARD, cur.parent_ops[best])))
        cur = best
        dist -= 1
    edges.reverse()
    return Path(tuple(edges))


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RESOURCE_LIMIT = "resource_limit"


@dataclass(frozen=True)
class SearchLimits:
    """Caps checked before every expansion. None means unlimited."""

    max_nodes: int | None = None
    max_expansions: int | None = None


@dataclass(frozen=True)
class SearchStats:
    nodes_created: int
    expansions: int
    max_open_size: int
    duplicate_hits: int


@dataclass(frozen=True)
class TraceRecord:
    """One expansion step: which state was selected at which min distance,
    and the open node count / total created count after the step."""

    step: int
    state: State
    min_distance: float
    open_count: int
    nodes_created: int


Tracer = Callable[[TraceRecord], None]


@dataclass
class SearchResult:
    outcome: Outcome
    solution: Path | SingleStateSolution | None
    stats: SearchStats
    db: NodeDatabase

    @property
    def solution_length(self) -> int | None:
        if isinstance(self.solution, SingleStateSolution):
            return 0
        if isinstance(self.solution, Path):
            return len(self.solution)
        return None


def _stats(db: NodeDatabase) -> SearchStats:
    return SearchStats(
        nodes_created=len(db),
        expansions=db.expansions,
        max_open_size=db.max_open_size,
        duplicate_hits=db.duplicate_hits,
    )


def _limit_hit(db: NodeDatabase, limits: Optional[SearchLimits]) -> bool:
    if limits is None:
        return False
    if limits.max_nodes is not None and len(db) >= limits.max_nodes:
        return True
    if limits.max_expansions is not None and db.expansions >= limits.max_expansions:
        return True
    return False


def _success(db: NodeDatabase, rep: EssmRepresentation) -> SearchResult:
    """Locate the earliest-discovered goal node connected to an initial
    known state and reconstruct its path. Deterministic: goal nodes in
    discovery order, indexes ascending."""
    initial_nodes, goal_nodes = db.categories(rep)
    live = sorted({i for s in initial_nodes
                   for i, d in enumerate(s.b_distance) if d != INF})
    for g in goal_nodes:
        for i in live:
            if g.f_distance[i] != INF:
                return SearchResult(Outcome.SUCCESS, reconstruct_path(db, g, i), _stats(db), db)
    raise SearchInvariantError("success reported without a qualifying goal node")


def ebfs(rep: EssmRepresentation, limits: Optional[SearchLimits] = None,
         trace: Optional[Tracer] = None,
         on_distance_update: Optional[OnChange] = None) -> SearchResult:
    """Run the multi-source search.

    The representation must be deterministic (every forward function yields
    at most one successor) and have no backward functions; a nonempty
    backward family is rejected. The termination condition is checked once
    right after seeding, so a known state that is both initial and goal
    succeeds with a zero-edge solution, and then after every expansion.
    ``on_distance_update`` observes every distance-vector change (audits).
    """
    if rep.backward_fns:
        raise ModelError("backward function families are not supported by this engine")
    db = NodeDatabase()
    if on_distance_update is None:
        notify: OnChange = db.note_distance_change
    else:
        def notify(node: SearchNode, old: tuple, new: tuple) -> None:
            db.note_distance_change(node, old, new)
            on_distance_update(node, old, new)
    seed(db, rep)
    if goal_condition(db, rep):
        return _success(db, rep)
    step = 0
    while True:
        if _limit_hit(db, limits):
            return SearchResult(Outcome.RESOURCE_LIMIT, None, _stats(db), db)
        curr = select(db)
        if curr is None:
            return SearchResult(Outcome.FAILURE, None, _stats(db), db)
        selected_min = min(curr.f_distance)
        expand(curr, db, rep, on_change=notify)
        step += 1
        if trace is not None:
            trace(TraceRecord(step, curr.state, selected_min, db.open_count, len(db)))
        if goal_condition(db, rep):
            return _success(db, rep)


def bfs(rep: EssmRepresentation, limits: Optional[SearchLimits] = None,
        trace: Optional[Tracer] = None) -> SearchResult:
    """Classical breadth-first search, the single-source baseline.

    The frontier is a FIFO queue seeded with the known states that satisfy
    the initial predicate; other known states are not used. Each node keeps
    a single distance entry (its layer depth), discovery links form a tree
    (the first generating parent wins, repeats count as duplicate hits), and
    the goal check runs after seeding and then after each full expansion,
    mirroring the multi-source loop. Requires a deterministic representation
    with no backward functions.
    """
    if rep.backward_fns:
        raise ModelError("backward function families are not supported by this engine")
    db = NodeDatabase(track_frontier=False)
    queue: deque[SearchNode] = deque()
    for s in rep.known_states:
        try:
            is_initial = rep.initial(s)
        except Exception as exc:
            raise ProblemDefinitionError(f"initial predicate failed on {s!r}") from exc
        if not is_initial:
            continue
        node = new_node(s, 1)
        node.f_distance = (0,)
        node.b_distance = (0,)
        db.add(node)
        db.mark_open(node)
        queue.append(node)
    if goal_condition(db, rep):
        return _success(db, rep)
    step = 0
    while True:
        if _limit_hit(db, limits):
            return SearchResult(Outcome.RESOURCE_LIMIT, None, _stats(db), db)
        if not queue:
            return SearchResult(Outcome.FAILURE, None, _stats(db), db)
        curr = queue.popleft()
        depth = curr.f_distance[0]
        db.expansions += 1
        if rep.successors is None:
            for f_index, f in enumerate(rep.forward_fns):
                try:
                    successors = f(curr.state)
                except Exception as exc:
                    raise ProblemDefinitionError(
                        f"forward function {f_index} failed on {curr.state!r}") from exc
                for s2 in successors:
                    if db.lookup(s2) is not None:
                        db.duplicate_hits += 1
                        continue
                    node = new_node(s2, 1)
                    node.f_distance = (depth + 1,)
                    node.f_parents.add(curr)
                    curr.f_children.add(node)
                    node.parent_ops[curr] = f_index
                    db.add(node)
                    db.mark_open(node)
                    queue.append(node)
        else:
            for f_index, s2 in _walk(rep, curr.state):
                if db.lookup(s2) is not None:
                    db.duplicate_hits += 1
                    continue
                node = new_node(s2, 1)
                node.f_distance = (depth + 1,)
                node.f_parents.add(curr)
                curr.f_children.add(node)
                node.parent_ops[curr] = f_index
                db.add(node)
                db.mark_open(node)
                queue.append(node)
        db.mark_closed(curr)
        step += 1
        if trace is not None:
            trace(TraceRecord(step, curr.state, depth, db.open_count, len(db)))
        if goal_condition(db, rep):
            return _success(db, rep)
