"""Core model for search over extended state-space representations.

A representation bundles an ordered list of states known up front, initial
and goal predicates, and two families of set-valued successor functions
(forward and backward). States are opaque values owned by the problem
definition: they must support equality, hashing, and round-trip text
serialization, and two states must compare equal exactly when their
serialized forms are identical.

Predicates and successor functions are required to be pure. That contract is
what makes it safe to run independent searches over the same representation
concurrently; all types defined here are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import ClassificationError, ModelError, ProblemDefinitionError

State = Any
Key = Any

SuccessorFn = Callable[[State], "frozenset[State]"]
SuccessorWalk = Callable[[Key], "Iterable[Key]"]
Predicate = Callable[[State], bool]

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class OpRef:
    """Reference identifying one function in a representation's forward or
    backward family by position."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in (FORWARD, BACKWARD):
            raise ModelError(f"op kind must be {FORWARD!r} or {BACKWARD!r}, got {self.kind!r}")
        if self.index < 0:
            raise ModelError(f"op index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class Edge:
    """One labeled transition: ``dst`` is produced from ``src`` by the
    referenced forward function (or ``src`` from ``dst`` for a backward one)."""

    src: State
    dst: State
    op: OpRef


@dataclass(frozen=True)
class Path:
    """A nonempty sequence of edges.

    Valid paths chain: each edge starts where the previous one ended. The
    constructor only enforces nonemptiness so that defective inputs can still
    be built and rejected by :func:`validate_path`; a zero-edge solution is
    never a Path, it is a :class:`SingleStateSolution`.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ModelError("a path needs at least one edge")

    def __len__(self) -> int:
        return len(self.edges)

    def states(self) -> tuple[State, ...]:
        """All visited states in order, assuming the edges chain."""
        return (self.edges[0].src,) + tuple(e.dst for e in self.edges)


@dataclass(frozen=True)
class SingleStateSolution:
    """Degenerate solution: a single state that is both a valid starting
    point and a goal, reached without applying any operator."""

    state: State


def _images(fns: tuple, state: State) -> Iterable:
    """Each function's image of ``state``, in order; an exception surfaces
    as ProblemDefinitionError naming the function and the state."""
    for i, f in enumerate(fns):
        try:
            image = f(state)
        except Exception as exc:
            raise ProblemDefinitionError(f"forward function {i} failed on {state!r}") from exc
        yield image


def _walk(hook: Optional[SuccessorWalk], fns: tuple, encode: Optional[Callable],
          decode: Optional[Callable]) -> Callable[[Key], list]:
    """The engine's walk from a key to its successor keys: ``hook`` when
    given, else ``fns`` on the decoded key, encoded (no codec: key = state)."""
    if hook is None and encode is None:
        return lambda state: [t for image in _images(fns, state) for t in image]
    if hook is None:
        return lambda key: [encode(t) for image in _images(fns, decode(key)) for t in image]

    def walk(key: Key) -> list:
        try:
            return list(hook(key))
        except Exception as exc:
            state = key if decode is None else decode(key)
            raise ProblemDefinitionError(f"successors failed on {state!r}") from exc
    return walk


@dataclass(frozen=True)
class EssmRepresentation:
    """A search problem as a five-part structure.

    ``known_states`` is ordered and duplicate free; its order fixes the index
    every distance vector uses for that state. ``initial`` and ``goal`` are
    predicates over states. ``forward_fns`` and ``backward_fns`` map a state
    to a finite set of states; at least one of the two families must be
    nonempty. Backward functions are carried for classification purposes,
    the bundled engine only follows forward ones.

    ``encode`` and ``decode`` are an optional codec, given both or neither:
    ``encode(state)`` is the key the engine stores and looks the state up
    by (None for a state outside the representation's space, which then
    has no node), and ``decode(key)`` gives the state back. Without a codec
    the key is the state itself. The engine decodes only where states leave
    it: predicates, views, traces and solutions.

    ``successors`` is an optional faster route to the forward family: given
    a key it returns the successor keys
    ``[encode(t) for f in forward_fns for t in f(decode(key))]``, in that
    order (without a codec, keys are states). Every construction
    (``dataclasses.replace`` too) derives ``walk``, which the engine calls
    once per expansion, from that hook when it is set and from
    ``forward_fns`` otherwise; it returns the keys as a list and raises
    ProblemDefinitionError naming what failed on which decoded state.
    Operators come from ``forward_fns`` alone, as do :func:`validate_path`
    and :func:`classify`: a link's is the first one that yields the child.
    """

    known_states: tuple[State, ...]
    initial: Predicate
    goal: Predicate
    forward_fns: tuple[SuccessorFn, ...] = ()
    backward_fns: tuple[SuccessorFn, ...] = ()
    successors: Optional[SuccessorWalk] = None
    encode: Optional[Callable[[State], Key]] = None
    decode: Optional[Callable[[Key], State]] = None
    walk: Callable[[Key], list] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "known_states", tuple(self.known_states))
        object.__setattr__(self, "forward_fns", tuple(self.forward_fns))
        object.__setattr__(self, "backward_fns", tuple(self.backward_fns))
        if not self.known_states:
            raise ModelError("at least one known state is required")
        seen = set()
        for s in self.known_states:
            if s in seen:
                raise ModelError(f"duplicate known state: {s!r}")
            seen.add(s)
        if not self.forward_fns and not self.backward_fns:
            raise ModelError("at least one forward or backward function is required")
        if self.successors is not None:
            if not callable(self.successors):
                raise ModelError("successors must be callable or None")
            if not self.forward_fns:
                raise ModelError("successors needs the forward functions it stands for")
        if (self.encode is None) != (self.decode is None):
            raise ModelError("encode and decode go together: give both or neither")
        if self.encode is not None and not (callable(self.encode) and callable(self.decode)):
            raise ModelError("encode and decode must be callable")
        object.__setattr__(self, "walk", _walk(self.successors, self.forward_fns,
                                               self.encode, self.decode))

    @property
    def k_count(self) -> int:
        return len(self.known_states)


@dataclass(frozen=True)
class FiniteSpace:
    """An explicitly enumerated, duplicate-free set of states. Only used for
    desk-scale analysis such as :func:`classify`; searches never require one."""

    states: tuple[State, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        seen = set()
        for s in self.states:
            if s in seen:
                raise ModelError(f"duplicate state in space: {s!r}")
            seen.add(s)
        object.__setattr__(self, "_members", frozenset(seen))

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: State) -> bool:
        return state in self._members

    @classmethod
    def from_text(cls, text: str, parse: Callable[[str], State]) -> "FiniteSpace":
        """Load a space from a newline-delimited list of serialized states.
        Blank lines are ignored."""
        return cls(tuple(parse(line) for line in text.splitlines() if line.strip()))

    def to_text(self, fmt: Callable[[State], str]) -> str:
        return "\n".join(fmt(s) for s in self.states)


@dataclass(frozen=True)
class ClassificationReport:
    """Structural properties of a representation over one finite space."""

    deterministic: bool
    symmetric: bool
    antisymmetric: bool
    strictly_symmetric: bool
    one_way_forward: bool
    one_way_backward: bool
    initial_state_count: int


def make_classical(operators: Sequence[Callable[[State], State | None]],
                   s0: State, goal: Predicate) -> EssmRepresentation:
    """Embed a classical single-start problem.

    Each operator is a partial function given as a callable returning the
    successor state, or None where it does not apply. The result has the one
    known state ``s0``, an initial predicate satisfied by ``s0`` alone, one
    forward function per operator yielding at most one state, and no backward
    functions.
    """
    if not operators:
        raise ModelError("a classical problem needs at least one operator")

    def lift(op: Callable[[State], State | None]) -> SuccessorFn:
        def fn(s: State) -> frozenset:
            out = op(s)
            return frozenset() if out is None else frozenset((out,))
        return fn

    return EssmRepresentation(
        known_states=(s0,),
        initial=lambda s: s == s0,
        goal=goal,
        forward_fns=tuple(lift(op) for op in operators),
        backward_fns=(),
    )


def _edge_sets(fns: Iterable[SuccessorFn], states: Sequence[State],
               members: set, direction: str) -> tuple[list, int]:
    """Per-function edge sets as ordered (src, dst) pairs, and the largest
    successor-set size seen. Raises if a function leaves the space."""
    per_fn = []
    max_fanout = 0
    for fn_index, fn in enumerate(fns):
        edges = set()
        for s in states:
            outputs = fn(s)
            if len(outputs) > max_fanout:
                max_fanout = len(outputs)
            for t in outputs:
                if t not in members:
                    raise ClassificationError(
                        f"space is not closed: {direction} function {fn_index} "
                        f"maps {s!r} to {t!r}, which is outside the space")
                if direction == FORWARD:
                    edges.add((s, t))
                else:
                    # s' in b(t') witnesses the pair (s', t')
                    edges.add((t, s))
        per_fn.append(edges)
    return per_fn, max_fanout


def classify(rep: EssmRepresentation, space: FiniteSpace) -> ClassificationReport:
    """Brute-force the structural properties of ``rep`` over ``space``.

    The space must contain every known state and be closed under all forward
    and backward functions; an escaping state raises ClassificationError
    naming it. Quantified properties are checked exhaustively:

    - deterministic: every forward function yields at most one successor
    - symmetric: a forward edge between an ordered pair of states exists
      exactly when some backward function witnesses the same pair
    - antisymmetric: no ordered pair has both a forward edge and a backward
      witness
    - strictly symmetric: the families have equal length and are index-wise
      inverses of each other (which implies symmetric)
    """
    states = space.states
    members = set(states)
    for ks in rep.known_states:
        if ks not in members:
            raise ClassificationError(f"known state {ks!r} is missing from the space")

    f_per_fn, max_fanout = _edge_sets(rep.forward_fns, states, members, FORWARD)
    b_per_fn, _ = _edge_sets(rep.backward_fns, states, members, BACKWARD)

    forward_edges = set().union(*f_per_fn) if f_per_fn else set()
    backward_edges = set().union(*b_per_fn) if b_per_fn else set()
    strictly = (
        len(rep.forward_fns) == len(rep.backward_fns)
        and len(rep.forward_fns) > 0
        and all(fe == be for fe, be in zip(f_per_fn, b_per_fn))
    )

    return ClassificationReport(
        deterministic=max_fanout <= 1,
        symmetric=forward_edges == backward_edges,
        antisymmetric=not (forward_edges & backward_edges),
        strictly_symmetric=strictly,
        one_way_forward=not rep.backward_fns,
        one_way_backward=not rep.forward_fns,
        initial_state_count=sum(1 for s in states if rep.initial(s)),
    )


def validate_path(rep: EssmRepresentation, path: Path) -> bool:
    """True when ``path`` is a well-formed chained path whose every edge is
    realized by the referenced function of ``rep``. Malformed input (wrong
    types, dangling op indexes, broken chaining) yields False, not an error.
    Any prefix of a valid path is itself valid.
    """
    if not isinstance(path, Path) or not path.edges:
        return False
    prev_dst = None
    for edge in path.edges:
        if not isinstance(edge, Edge) or not isinstance(edge.op, OpRef):
            return False
        if prev_dst is not None and edge.src != prev_dst:
            return False
        family = rep.forward_fns if edge.op.kind == FORWARD else rep.backward_fns
        if edge.op.index >= len(family):
            return False
        fn = family[edge.op.index]
        if edge.op.kind == FORWARD:
            if edge.dst not in fn(edge.src):
                return False
        else:
            if edge.src not in fn(edge.dst):
                return False
        prev_dst = edge.dst
    return True
