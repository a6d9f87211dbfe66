"""Multi-source breadth-first search with per-known-state distance vectors.

Every discovered state gets exactly one node, identified by an int id that
is its discovery index and found by the state's key (see the representation's
codec). A node holds its child links and a vector with the best known
distance from each known state (index fixed by the order of
``known_states``). It is open until its one expansion gives it a child run
and closed after, so its status is read from the runs. All known states are
seeded as one frontier; when the subtree grown from one known state runs
into the subtree of another, the distance update cascades through the
already-closed nodes, so the merged subgraph immediately knows how far
every node is from every source that reaches it. Only child links are
stored: parents are derived from them, operators from ``forward_fns``.
Nodes with equal vectors share one tuple.

The search succeeds as soon as some discovered goal node has a finite
distance from a known state that satisfies the initial predicate (a live
index): the stored subgraph then holds a start-to-goal chain through a
known state. ``initial`` runs once per known state, at seeding, and
``goal`` once per node, when the node is created. A stop flag goes up where
a goal's entry at a live index becomes finite, for a new node or inside
:func:`f_update`, so the stop test does no per-goal work. Running out of
open nodes is failure; caps produce the distinct resource_limit outcome.

:func:`ebfs` and :func:`bfs` run one driver loop with different policies.
Only forward functions are followed, through the representation's ``walk``.

A node database belongs to one search on one thread. Searches over the same
representation may run concurrently as long as each has its own database,
which both entry points (:func:`ebfs`, :func:`bfs`) create for themselves.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import gt
from typing import Callable, Iterator, Optional

from .errors import ModelError, ProblemDefinitionError, SearchInvariantError
from .model import (FORWARD, Edge, EssmRepresentation, OpRef, Path,
                    SingleStateSolution, State, _images)

INF = math.inf


class NodeStatus(Enum):
    """A node's place in the search. Every node is created OPEN and becomes
    CLOSED when it expands, which is when it gets its child run."""

    OPEN = "open"
    CLOSED = "closed"


class SearchNode:
    """Read-only view of one node of a :class:`NodeDatabase`.

    Views are built on access and hold no data of their own: two views of
    the same node in the same database are equal and hash alike. ``state``
    is the decoded state. The links come out in the order they were made;
    ``parent_ops`` maps each parent to the forward function index of its
    link. ``b_distance`` is 0 at the index of the known state a seed was
    placed for and infinite elsewhere (only a seed is at distance 0 from a
    known state).
    """

    __slots__ = ("_db", "_order")

    def __init__(self, db: "NodeDatabase", order: int):
        self._db = db
        self._order = order

    @property
    def order(self) -> int:
        """The node's id: its discovery index."""
        return self._order

    @property
    def state(self) -> State:
        return self._db._state(self._order)

    @property
    def f_status(self) -> NodeStatus:
        return NodeStatus.CLOSED if self._db._lo[self._order] else NodeStatus.OPEN

    @property
    def f_distance(self) -> tuple:
        return self._db._dist[self._order]

    @property
    def b_distance(self) -> tuple:
        return tuple(0 if d == 0 else INF for d in self.f_distance)

    @property
    def f_children(self) -> tuple:
        db, i = self._db, self._order
        return tuple(map(db.node, db._kids[db._lo[i]:db._hi[i]]))

    @property
    def f_parents(self) -> tuple:
        db = self._db
        return tuple(map(db.node, db._parent_index().get(self._order, ())))

    @property
    def parent_ops(self) -> dict:
        db, i = self._db, self._order
        return {db.node(p): db._link_op(p, i) for p in db._parent_index().get(i, ())}

    def min_distance(self) -> float:
        return min(self.f_distance)

    def __eq__(self, other) -> bool:
        if other.__class__ is not SearchNode:
            return NotImplemented
        return self._db is other._db and self._order == other._order

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        return f"SearchNode({self.state!r}, {self.f_status.value}, f={self.f_distance})"


class NodeDatabase:
    """Columnar store of search nodes, indexed by int id in discovery order.

    Nodes are keyed by the representation's ``encode`` (the state itself
    without a codec); seeding hands the database the codec and the forward
    functions, and it decodes only for views, traces, solutions, messages.
    ``lookup``, ``node_for`` and ``add`` take states.

    Position ``i`` of each column belongs to node ``i``: its key, its
    distance tuple and, in ``array('i')`` columns, the ``[lo, hi)`` bounds
    of its children in one flat child-id array. A node's links are all made
    during its single expansion, so its children are one run of that array,
    in link order, after the marker ``~i``. The marker comes first, so an
    expanded node has ``lo >= 1``: a node is closed exactly when its ``lo``
    is set, and the open and closed counts follow from the expansions. A
    node's parents are the runs that hold its id, in link order, and a
    link's operator is the first forward function whose image of the
    parent holds the child. Every stored distance vector is the one tuple
    a dict keeps for its value, so nodes with equal vectors share it.
    Iterating the database yields read-only :class:`SearchNode` views, whose
    parent reads build a reverse index of the runs.

    Also owns the frontier index behind :func:`select`: a lazy-deletion heap
    of (min distance entry, id), so selection stays cheap while staying
    exactly "smallest min-entry, earliest discovered on ties". Every change
    of an open node's distances pushes a fresh entry. It also holds the
    live indexes, the ids of goal nodes and the stop flag.
    """

    def __init__(self):
        self._encode: Optional[Callable] = None
        self._decode: Optional[Callable] = None
        self._fns: tuple = ()
        self._ids: dict = {}
        self._keys: list = []
        self._dist: list[tuple] = []
        self._vectors: dict[tuple, tuple] = {}
        self._kids = array("i")
        self._lo = array("i")
        self._hi = array("i")
        self._index: dict[int, list] = {}
        self._indexed = 0  # len(_kids) when _index was built
        self.max_open_size = 0
        self.expansions = 0
        self.duplicate_hits = 0
        self._frontier: list = []
        self._live: tuple = ()
        self._goals: set[int] = set()
        self._goal_reached = False

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def open_count(self) -> int:
        """Nodes not yet expanded: every node is created open and only its
        expansion closes it."""
        return len(self._keys) - self.expansions

    @property
    def closed_count(self) -> int:
        return self.expansions

    def __iter__(self) -> Iterator[SearchNode]:
        return map(self.node, range(len(self._keys)))

    def node(self, i: int) -> SearchNode:
        """The view of node ``i``."""
        return SearchNode(self, i)

    def _use_rep(self, rep: EssmRepresentation) -> None:
        """Take ``rep``'s codec and operators; only an empty database may."""
        if len(self):
            raise ModelError("seeding requires an empty database")
        self._encode, self._decode, self._fns = rep.encode, rep.decode, rep.forward_fns

    def _key(self, state: State):
        return state if self._encode is None else self._encode(state)

    def _state(self, i: int) -> State:
        """The decoded state of node ``i``."""
        key = self._keys[i]
        return key if self._decode is None else self._decode(key)

    def _parents(self, i: int) -> list[int]:
        """Node ``i``'s parent ids in link order, by a byte search of the
        runs at whole-entry offsets (``i``'s bytes can span two entries)."""
        kids = self._kids
        size = kids.itemsize
        search = re.compile(re.escape(array("i", (i,)).tobytes())).search
        parents = []
        with memoryview(kids) as view, view.cast("B") as raw:
            m = search(raw)
            while m is not None:
                pos = m.start()
                if pos % size == 0:
                    j = pos // size - 1
                    while kids[j] >= 0:
                        j -= 1
                    parents.append(~kids[j])
                m = search(raw, pos + 1)
        return parents

    def _parent_index(self) -> dict[int, list]:
        """Each linked node's parent ids in link order, for views; built
        again once the runs have grown."""
        kids = self._kids
        if self._indexed != len(kids):
            index: dict[int, list] = {}
            p = -1
            for x in kids:
                if x < 0:
                    p = ~x
                else:
                    index.setdefault(x, []).append(p)
            self._index, self._indexed = index, len(kids)
        return self._index

    def _link_op(self, p: int, i: int) -> int:
        """The operator of the link from ``p`` to ``i``: the first forward
        function whose image of ``p``'s state encodes to ``i``'s key."""
        key, encode = self._keys[i], self._key
        for op, image in enumerate(_images(self._fns, self._state(p))):
            if any(encode(t) == key for t in image):
                return op
        raise SearchInvariantError(
            f"no forward function maps {self._state(p)!r} to its child {self._state(i)!r}")

    def lookup(self, state: State) -> Optional[int]:
        """The id of ``state``'s node; None when it has none."""
        return self._ids.get(self._key(state))

    def node_for(self, state: State) -> int:
        i = self.lookup(state)
        if i is None:
            raise ModelError(f"no node for state {state!r}")
        return i

    def add(self, state: State, distance: tuple) -> int:
        """A new open node with no links for ``state``, which must have a
        key and no node yet; returns its id. It enters the frontier through
        :meth:`mark_open`."""
        key = self._key(state)
        if key is None and self._encode is not None:
            raise ModelError(f"state {state!r} has no key in this representation")
        if key in self._ids:
            raise ModelError(f"state already in database: {state!r}")
        distance = tuple(distance)
        if not distance:
            raise ModelError("a node needs at least one distance entry")
        if self._dist and len(distance) != len(self._dist[0]):
            raise ModelError("distance vector length mismatch")
        i = len(self._keys)
        self._ids[key] = i
        self._keys.append(key)
        self._dist.append(self._vectors.setdefault(distance, distance))
        self._lo.append(0)
        self._hi.append(0)
        return i

    def mark_open(self, i: int) -> None:
        """Push open node ``i``'s frontier entry. A closed node has had its
        one expansion and cannot reopen."""
        if self._lo[i]:
            raise ModelError(f"node {self._state(i)!r} is closed and cannot reopen")
        heapq.heappush(self._frontier, (min(self._dist[i]), i))

    def note_distance_change(self, i: int, new: tuple) -> None:
        """Node ``i``'s distances just dropped to ``new``: an open node gets
        a fresh frontier entry under its new key."""
        if not self._lo[i]:
            heapq.heappush(self._frontier, (min(new), i))

    def open_nodes(self) -> list[SearchNode]:
        """Every open node, in discovery order. Linear scan; audits only."""
        return [self.node(i) for i, lo in enumerate(self._lo) if not lo]


def _holds(predicate: Callable[[State], bool], name: str, state: State) -> bool:
    """``predicate(state)``; an exception surfaces as ProblemDefinitionError."""
    try:
        return predicate(state)
    except Exception as exc:
        raise ProblemDefinitionError(f"{name} predicate failed on {state!r}") from exc


def seed(db: NodeDatabase, rep: EssmRepresentation) -> None:
    """Insert one open node per known state, in order, with distance zero to
    itself and infinity elsewhere. ``initial`` runs once per known state and
    fixes the live indexes; ``goal`` runs once per seed. The database takes
    the representation's codec and forward functions."""
    db._use_rep(rep)
    k = rep.k_count
    live = []
    for i, s in enumerate(rep.known_states):
        if _holds(rep.initial, "initial", s):
            live.append(i)
        db.mark_open(db.add(s, tuple(0 if j == i else INF for j in range(k))))
        if _holds(rep.goal, "goal", s):
            db._goals.add(i)
    db.max_open_size = len(db)
    db._live = tuple(live)
    db._goal_reached = any(i in db._goals for i in live)


def select(db: NodeDatabase) -> Optional[int]:
    """The id of the open node whose smallest distance entry is minimal over
    all open nodes, earliest discovered on ties; None when nothing is open."""
    frontier = db._frontier
    lo, dist = db._lo, db._dist
    while frontier:
        d, i = frontier[0]
        if not lo[i] and min(dist[i]) == d:
            return i
        heapq.heappop(frontier)  # stale: closed since, or distance dropped
    return None


OnChange = Callable[[int, tuple, tuple], None]


def f_update(db: NodeDatabase, i: int, candidate: tuple,
             on_change: Optional[OnChange] = None) -> None:
    """Componentwise relaxation of node ``i`` against ``candidate``, a
    parent's distances plus one: each entry becomes min(own, candidate).

    Every change goes through :meth:`NodeDatabase.note_distance_change`,
    which re-keys an open node in the frontier; a change on a closed node
    also relaxes each of its children, in link order, against its new
    distances plus one, so better distances flow through every
    already-explored subtree they can improve. Entries never increase, and
    every relaxation lowers some finite entry, which bounds the total work.
    A first-in first-out worklist replaces the natural recursion so long
    chains cannot overflow the stack. ``on_change(id, old, new)`` fires for
    every node whose vector actually changed, in the order the changes are
    made. A change that gives a goal node a finite entry at a live index
    raises the stop flag.
    """
    dist, vectors = db._dist, db._vectors
    kids, lo, hi = db._kids, db._lo, db._hi
    goals, live = db._goals, db._live
    if len(candidate) != len(dist[i]):
        raise ModelError("distance vector length mismatch")
    work = deque(((i, candidate),))
    while work:
        x, cand = work.popleft()
        old = dist[x]
        new = tuple(map(min, old, cand))
        if new == old:
            continue
        dist[x] = new = vectors.setdefault(new, new)
        db.note_distance_change(x, new)
        if x in goals and any(new[j] != INF for j in live):
            db._goal_reached = True
        if on_change is not None:
            on_change(x, old, new)
        if lo[x]:
            plus1 = tuple(d + 1 for d in new)
            work.extend((child, plus1) for child in kids[lo[x]:hi[x]])


def expand(db: NodeDatabase, curr: int, rep: EssmRepresentation,
           on_change: Optional[OnChange] = None) -> None:
    """Link every successor of node ``curr`` and close it.

    curr's distances plus one are computed once: curr's own vector cannot
    drop while it expands, since every change made here is curr's
    distances plus at least one. Unknown successors are created open with
    that vector and enter the frontier once, already final. Known ones are
    linked once each and relaxed against the same vector; only a real drop
    runs :func:`f_update`, and a successor whose stored vector is that very
    tuple cannot drop. A successor equal to curr itself just adds a
    self-link. ``on_change`` also fires for each new node, from the
    all-infinite vector to its first one. The goal predicate runs once on
    each new node, decoded. curr reads closed from the moment its run
    starts, which changes nothing here, since its vector cannot drop.
    """
    kids, lo, hi = db._kids, db._lo, db._hi
    if lo[curr]:
        raise ModelError("only open nodes can be expanded")
    frontier = db._frontier
    ids, keys, dist, decode = db._ids, db._keys, db._dist, db._decode
    goal, goals, live = rep.goal, db._goals, db._live
    db.expansions += 1
    plus1 = tuple(x + 1 for x in dist[curr])
    plus1 = db._vectors.setdefault(plus1, plus1)
    plus1_min = min(plus1)
    kids.append(~curr)
    lo[curr] = len(kids)
    first = n = len(keys)
    duplicates = 0
    linked = set()  # nodes older than this expansion that curr has linked
    for k2 in rep.walk(keys[curr]):
        i = ids.setdefault(k2, n)
        if i == n:
            keys.append(k2)
            dist.append(plus1)
            lo.append(0)
            hi.append(0)
            kids.append(i)
            heapq.heappush(frontier, (plus1_min, i))
            n += 1
            if on_change is not None:
                on_change(i, (INF,) * len(plus1), plus1)
            if _holds(goal, "goal", k2 if decode is None else decode(k2)):
                goals.add(i)
                if any(plus1[j] != INF for j in live):
                    db._goal_reached = True
            continue
        duplicates += 1
        # a node created in this expansion is already curr's child
        if i < first and i not in linked:
            linked.add(i)
            kids.append(i)
        old = dist[i]
        if old is not plus1 and any(map(gt, old, plus1)):
            f_update(db, i, plus1, on_change)
    hi[curr] = len(kids)
    db.duplicate_hits += duplicates
    if n - db.expansions + 1 > db.max_open_size:  # open nodes, curr not yet closed
        db.max_open_size = n - db.expansions + 1


def goal_condition(db: NodeDatabase) -> bool:
    """True when some node satisfying ``goal`` has a finite distance from a
    seed that satisfies ``initial``: a discovered goal is connected to an
    initial known state through the stored subgraph. Reads the stop flag
    that :func:`seed`, :func:`expand` and :func:`f_update` raise."""
    return db._goal_reached


def reconstruct_path(db: NodeDatabase, goal: int, i: int) -> Path | SingleStateSolution:
    """Walk links back from node ``goal`` to the known state of index ``i``,
    at each step taking a parent exactly one step closer to that known
    state (earliest-discovered parent on ties). Only the nodes on the path
    have their parents found, and only the chosen link its operator.
    Distance zero at the goal itself means the known state is the goal: the
    result is then a single-state solution with no edges."""
    state, dist_of = db._state, db._dist
    dist = dist_of[goal][i]
    if dist == INF:
        raise ModelError(f"node {state(goal)!r} has no stored path from known state {i}")
    if dist == 0:
        return SingleStateSolution(state(goal))
    edges: list[Edge] = []
    cur = goal
    while dist > 0:
        best = min((p for p in db._parents(cur) if dist_of[p][i] == dist - 1), default=None)
        if best is None:
            raise SearchInvariantError(
                f"no parent of {state(cur)!r} at distance {dist - 1} from known state {i}")
        edges.append(Edge(state(best), state(cur), OpRef(FORWARD, db._link_op(best, cur))))
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
    """Caps checked before every expansion. None means unlimited.
    ``max_seconds`` caps the wall time of the search loop."""

    max_nodes: int | None = None
    max_expansions: int | None = None
    max_seconds: float | None = None


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


def _limit_hit(db: NodeDatabase, limits: SearchLimits, deadline: float | None) -> bool:
    if limits.max_nodes is not None and len(db) >= limits.max_nodes:
        return True
    if limits.max_expansions is not None and db.expansions >= limits.max_expansions:
        return True
    return deadline is not None and time.perf_counter() >= deadline


def _success(db: NodeDatabase) -> SearchResult:
    """Locate the earliest-discovered goal node connected to an initial
    known state and reconstruct its path. Deterministic: goal nodes in
    discovery order, indexes ascending."""
    dist, live = db._dist, db._live
    for g in sorted(db._goals):
        for j in live:
            if dist[g][j] != INF:
                return SearchResult(Outcome.SUCCESS, reconstruct_path(db, g, j), _stats(db), db)
    raise SearchInvariantError("success reported without a qualifying goal node")


def _drive(db: NodeDatabase, pick: Callable[[], Optional[int]],
           grow: Callable[[int], None], limits: Optional[SearchLimits],
           trace: Optional[Tracer]) -> SearchResult:
    """The loop both searches run on a seeded database: until the stop flag
    is up, check the caps, ``pick`` an open node (None when there is none)
    and ``grow`` it, then report the step to ``trace``. The wall-time cap
    counts from the loop's start."""
    deadline = None
    if limits is not None and limits.max_seconds is not None:
        deadline = time.perf_counter() + limits.max_seconds
    while not db._goal_reached:
        if limits is not None and _limit_hit(db, limits, deadline):
            return SearchResult(Outcome.RESOURCE_LIMIT, None, _stats(db), db)
        curr = pick()
        if curr is None:
            return SearchResult(Outcome.FAILURE, None, _stats(db), db)
        grow(curr)
        if trace is not None:  # curr's own distances do not drop while it grows
            trace(TraceRecord(db.expansions, db._state(curr), min(db._dist[curr]),
                              db.open_count, len(db)))
    return _success(db)


def ebfs(rep: EssmRepresentation, limits: Optional[SearchLimits] = None,
         trace: Optional[Tracer] = None,
         on_distance_update: Optional[Callable[[SearchNode, tuple, tuple], None]] = None
         ) -> SearchResult:
    """Run the multi-source search.

    The representation must be deterministic (every forward function yields
    at most one successor) and have no backward functions; a nonempty
    backward family is rejected. The driver loop picks with :func:`select`
    and grows with :func:`expand`. The termination condition is checked
    once right after seeding, so a known state that is both initial and goal
    succeeds with a zero-edge solution, and then after every expansion.
    ``on_distance_update(node, old, new)`` observes every distance-vector
    change, a new node's first vector included, with a view of the node
    (audits).
    """
    if rep.backward_fns:
        raise ModelError("backward function families are not supported by this engine")
    db = NodeDatabase()
    notify: Optional[OnChange] = None
    if on_distance_update is not None:
        def notify(i: int, old: tuple, new: tuple) -> None:
            on_distance_update(db.node(i), old, new)
    seed(db, rep)
    return _drive(db, partial(select, db), partial(expand, db, rep=rep, on_change=notify),
                  limits, trace)


def _grow_tree(db: NodeDatabase, rep: EssmRepresentation, queue: deque, curr: int) -> None:
    """bfs's expansion of node ``curr``: each unknown successor becomes an
    open node one layer deeper, linked to curr alone, at the back of
    ``queue``; a known one only counts as a duplicate hit. Every entry is
    finite at the live index 0, so a new goal node raises the stop flag.
    curr's children are the new nodes, so they are one id range."""
    ids, keys, dist = db._ids, db._keys, db._dist
    lo, hi = db._lo, db._hi
    goal, decode = rep.goal, db._decode
    child_dist = (dist[curr][0] + 1,)
    child_dist = db._vectors.setdefault(child_dist, child_dist)
    db.expansions += 1
    first = n = len(keys)
    duplicates = 0
    for k2 in rep.walk(keys[curr]):
        if ids.setdefault(k2, n) != n:
            duplicates += 1
            continue
        keys.append(k2)
        dist.append(child_dist)
        lo.append(0)
        hi.append(0)
        queue.append(n)
        if _holds(goal, "goal", k2 if decode is None else decode(k2)):
            db._goals.add(n)
            db._goal_reached = True
        n += 1
    kids = db._kids
    kids.append(~curr)
    lo[curr] = len(kids)
    kids.extend(range(first, n))
    hi[curr] = len(kids)
    db.duplicate_hits += duplicates
    if n - db.expansions + 1 > db.max_open_size:  # open nodes, curr not yet closed
        db.max_open_size = n - db.expansions + 1


def bfs(rep: EssmRepresentation, limits: Optional[SearchLimits] = None,
        trace: Optional[Tracer] = None) -> SearchResult:
    """Classical breadth-first search, the single-source baseline.

    It runs the loop of :func:`ebfs` with another policy: the frontier is a
    FIFO queue seeded with the known states that satisfy the initial
    predicate (other known states are not used), each node keeps a single
    distance entry (its layer depth), and discovery links form a tree (the
    first generating parent wins, repeats count as duplicate hits), so
    nothing is relaxed and the heap stays empty. The goal check runs after
    seeding and then after each full expansion. Requires a deterministic
    representation with no backward functions.
    """
    if rep.backward_fns:
        raise ModelError("backward function families are not supported by this engine")
    db = NodeDatabase()
    db._use_rep(rep)
    queue = deque(db.add(s, (0,)) for s in rep.known_states
                  if _holds(rep.initial, "initial", s))
    for i in queue:
        if _holds(rep.goal, "goal", db._state(i)):
            db._goals.add(i)
            db._goal_reached = True
    db.max_open_size = len(queue)
    db._live = (0,)
    return _drive(db, lambda: queue.popleft() if queue else None,
                  partial(_grow_tree, db, rep, queue), limits, trace)
