"""The n-queens placement problem as a one-way forward representation.

A state is a set of queen coordinates on an n-by-n board, held as an int
mask with bit ``row * n + col`` set for each queen. There is one operator per
square: it places a queen there when the square is empty and unattacked, and
is inapplicable otherwise. Queens are never removed, so the reachable space
is a directed acyclic graph layered by queen count, and one placement can
reach another exactly when it is a subset of it.

The engine keys states by their mask. The representation's ``successors``
hook maps a mask to its children's masks, ascending by square, in a single
pass over its free squares, using the bit-pattern technique (Richards 1997,
"Backtracking algorithms in MCPL using bit patterns and recursion"): a
per-size table gives, for each square, the mask of squares a queen there
occupies or attacks. A link's operator is the square it places a queen on.

Serialized form: ``<n> ":" [ <r> "," <c> ( ";" <r> "," <c> )* ]`` with
decimal integers and no whitespace, coordinate pairs sorted ascending.
Example: ``5:0,0;1,2``. Equal states serialize identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .errors import ModelError, StateParseError
from .model import EssmRepresentation, FiniteSpace

_EMPTY_SET: frozenset = frozenset()


class NQueensState:
    """An n-by-n board with zero or more non-attacked queens placed.

    ``NQueensState(n, queens)`` takes the queens as (row, col) pairs in any
    order and checks the board size, duplicates, the queen count and the
    bounds. The state is stored as ``(n, mask)``; ``queens`` is the sorted
    coordinate view of the mask, so equality, hashing and serialization
    agree. Instances are immutable.
    """

    __slots__ = ("_n", "_mask")

    def __init__(self, n: int, queens) -> None:
        if not isinstance(n, int) or n < 1:
            raise ModelError(f"board size must be a positive int, got {n!r}")
        qs = tuple(sorted((int(r), int(c)) for r, c in queens))
        if len(set(qs)) != len(qs):
            raise ModelError("duplicate queen coordinates")
        if len(qs) > n:
            raise ModelError(f"{len(qs)} queens cannot be placed on a {n}x{n} board")
        mask = 0
        for r, c in qs:
            if not (0 <= r < n and 0 <= c < n):
                raise ModelError(f"coordinate ({r},{c}) is outside a {n}x{n} board")
            mask |= 1 << (r * n + c)
        self._n = n
        self._mask = mask

    @property
    def n(self) -> int:
        return self._n

    @property
    def mask(self) -> int:
        """Bit ``row * n + col`` is set for each queen."""
        return self._mask

    @property
    def queens(self) -> tuple:
        """The queens as (row, col) pairs, sorted ascending."""
        return tuple(divmod(sq, self._n) for sq in _bits(self._mask))

    @property
    def safe_squares(self) -> frozenset:
        """Flat indexes (row * n + col) where one more queen can be placed."""
        return frozenset(_bits(_free_mask(self._n, self._mask)))

    def with_queen(self, r: int, c: int) -> "NQueensState":
        return NQueensState(self._n, self.queens + ((r, c),))

    def __eq__(self, other) -> bool:
        if other.__class__ is not NQueensState:
            return NotImplemented
        return self._mask == other._mask and self._n == other._n

    def __hash__(self) -> int:
        # equal states have equal masks; boards of two sizes may share a
        # mask, and __eq__ tells them apart
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"NQueensState(n={self._n}, queens={self.queens!r})"

    def __str__(self) -> str:
        return format_state(self)


def _trusted(n: int, mask: int, _new=object.__new__) -> NQueensState:
    """A state built without checks, for a mask known to be a valid
    placement on an n-by-n board (a valid parent plus one free square)."""
    s = _new(NQueensState)
    s._n = n
    s._mask = mask
    return s


def _pairwise_safe(queens: tuple) -> bool:
    """True when no two of the (row, col) pairs share a row, a column or a
    diagonal."""
    for i in range(len(queens)):
        r1, c1 = queens[i]
        for j in range(i + 1, len(queens)):
            r2, c2 = queens[j]
            if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                return False
    return True


def _bits(mask: int) -> Iterator[int]:
    """Indexes of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(maxsize=None)
def _attack_table(n: int) -> tuple:
    """``table[sq]``: the mask of ``sq`` and of every square a queen on
    ``sq`` attacks (same row, column or diagonal). Built on first use."""
    table = []
    for r in range(n):
        for c in range(n):
            m = 0
            for i in range(n):  # row i meets the four lines through (r, c)
                m |= 1 << (r * n + i) | 1 << (i * n + c)
                d = i - r
                if 0 <= c + d < n:
                    m |= 1 << (i * n + c + d)
                if 0 <= c - d < n:
                    m |= 1 << (i * n + c - d)
            table.append(m)
    return tuple(table)


def _free_mask(n: int, mask: int) -> int:
    """The squares of an n-by-n board that no queen of ``mask`` occupies
    or attacks."""
    return _unattacked(_attack_table(n), (1 << (n * n)) - 1, mask)


def _unattacked(attack: tuple, board: int, mask: int) -> int:
    """The squares of ``board`` that no queen of ``mask`` occupies or
    attacks, by the size's attack table."""
    blocked = 0
    while mask:
        low = mask & -mask
        blocked |= attack[low.bit_length() - 1]
        mask ^= low
    return board & ~blocked


def empty_board(n: int) -> NQueensState:
    return NQueensState(n, ())


def format_state(state: NQueensState) -> str:
    """Canonical text form of a state. Inverse of :func:`parse_state`."""
    return f"{state.n}:" + ";".join(f"{r},{c}" for r, c in state.queens)


def _parse_int(text: str, pos: int, what: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise StateParseError(f"expected {what}", start)
    return int(text[start:pos]), pos


def parse_state(text: str) -> NQueensState:
    """Parse the serialized form, reporting the offset of the first defect.

    Rejects anything the grammar does not produce: whitespace, signs,
    out-of-range or duplicate coordinates, unsorted pairs, trailing garbage.
    """
    n, pos = _parse_int(text, 0, "board size")
    if n < 1:
        raise StateParseError("board size must be at least 1", 0)
    if pos >= len(text) or text[pos] != ":":
        raise StateParseError("expected ':' after board size", pos)
    pos += 1
    queens = []
    if pos < len(text):
        while True:
            pair_start = pos
            r, pos = _parse_int(text, pos, "row")
            if pos >= len(text) or text[pos] != ",":
                raise StateParseError("expected ',' between row and column", pos)
            pos += 1
            c, pos = _parse_int(text, pos, "column")
            if not (0 <= r < n and 0 <= c < n):
                raise StateParseError(f"coordinate ({r},{c}) is outside the board", pair_start)
            if queens and (r, c) <= queens[-1]:
                raise StateParseError("coordinates must be strictly ascending", pair_start)
            queens.append((r, c))
            if pos == len(text):
                break
            if text[pos] != ";":
                raise StateParseError("expected ';' between coordinates", pos)
            pos += 1
    return NQueensState(n, tuple(queens))


# roles a known state can play in a seeding
ROLE_INITIAL = "initial"
ROLE_ON_SOLUTION = "solution-prefix"
ROLE_FALSE_HEURISTIC = "false-heuristic"
ROLE_EXPLICIT = "explicit"

_ROLES = (ROLE_INITIAL, ROLE_ON_SOLUTION, ROLE_FALSE_HEURISTIC, ROLE_EXPLICIT)


@dataclass(frozen=True)
class KnownState:
    state: NQueensState
    role: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ModelError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class KnownStateSpec:
    """The ordered known states a search starts from, with the role each one
    was generated for. Order is significant: it fixes distance indexes."""

    entries: tuple[KnownState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ModelError("a known-state spec needs at least one entry")
        sizes = {e.state.n for e in self.entries}
        if len(sizes) != 1:
            raise ModelError(f"known states mix board sizes: {sorted(sizes)}")

    @property
    def n(self) -> int:
        return self.entries[0].state.n

    @property
    def states(self) -> tuple:
        return tuple(e.state for e in self.entries)


def _placement_fn(n: int, sq: int):
    bit = 1 << sq

    def place(state: NQueensState) -> frozenset:
        if state._n == n and _free_mask(n, state._mask) & bit:
            return frozenset((_trusted(n, state._mask | bit),))
        return _EMPTY_SET

    return place


def _successor_walk(n: int):
    """The child mask of every placement on a mask, ascending by square:
    what the per-square placement functions give, in their index order, as
    keys. The attack table is bound on the first walk."""
    attack = None
    board = (1 << (n * n)) - 1

    def successors(mask: int) -> list:
        nonlocal attack
        if attack is None:
            attack = _attack_table(n)
        free = _unattacked(attack, board, mask)
        out = []
        while free:
            low = free & -free
            out.append(mask | low)
            free ^= low
        return out

    return successors


def nqueens_rep(n: int, known: KnownStateSpec) -> EssmRepresentation:
    """Build the representation for an n-by-n board.

    Every known state must be a valid non-attacking placement of size n;
    an attacking placement cannot be extended to a solution and is rejected.
    The forward family has one placement function per square, in row-major
    order (function index = row * n + col). There are no backward
    functions. The engine keys states by their mask: ``encode`` gives a
    size-n board's mask, ``decode`` builds the board back unchecked, and
    ``successors`` walks all placements of a mask in one pass.
    """
    if known.n != n:
        raise ModelError(f"known states are for n={known.n}, expected n={n}")
    for s in known.states:
        if not _pairwise_safe(s.queens):
            raise ModelError(f"known state {format_state(s)} contains attacking queens")

    def initial(s: NQueensState) -> bool:
        return s._n == n and not s._mask

    def goal(s: NQueensState) -> bool:
        return (s._n == n and s._mask.bit_count() == n
                and _pairwise_safe(s.queens))

    def encode(s) -> int | None:
        # None for anything but a size-n board: no other board size may
        # alias a size-n board of the same mask
        if s.__class__ is NQueensState and s._n == n:
            return s._mask
        return None

    return EssmRepresentation(
        known_states=known.states,
        initial=initial,
        goal=goal,
        forward_fns=tuple(_placement_fn(n, sq) for sq in range(n * n)),
        backward_fns=(),
        successors=_successor_walk(n),
        encode=encode,
        decode=functools.partial(_trusted, n),
    )


@functools.lru_cache(maxsize=None)
def first_solution(n: int) -> tuple | None:
    """The lexicographically-first complete solution, found by backtracking
    over rows 0..n-1 trying columns 0..n-1, or None when none exists."""
    cols: list[int] = []

    def attacked(row: int, col: int) -> bool:
        for r, c in enumerate(cols):
            if c == col or abs(r - row) == abs(c - col):
                return True
        return False

    def extend(row: int) -> bool:
        if row == n:
            return True
        for col in range(n):
            if not attacked(row, col):
                cols.append(col)
                if extend(row + 1):
                    return True
                cols.pop()
        return False

    if not extend(0):
        return None
    return tuple((r, c) for r, c in enumerate(cols))


def on_solution_state(n: int, depth: int) -> NQueensState:
    """The first ``depth`` queens, in row order, of the lexicographically
    first complete solution. Raises when no solution exists (n of 2 or 3)
    or when depth is outside 1..n."""
    if not 1 <= depth <= n:
        raise ModelError(f"depth must be between 1 and {n}, got {depth}")
    solution = first_solution(n)
    if solution is None:
        raise ModelError(f"the {n}-queens problem has no solution")
    return NQueensState(n, solution[:depth])


def _lex_placements(n: int, size: int) -> Iterator[tuple]:
    """Non-attacking placements of exactly ``size`` queens in lexicographic
    order of their sorted coordinate tuples."""
    squares = n * n

    def extend(chosen: list, start: int) -> Iterator[tuple]:
        if len(chosen) == size:
            yield tuple(chosen)
            return
        # not enough squares left to finish: prune
        for sq in range(start, squares - (size - len(chosen)) + 1):
            r, c = divmod(sq, n)
            ok = True
            for qr, qc in chosen:
                if qr == r or qc == c or abs(qr - r) == abs(qc - c):
                    ok = False
                    break
            if ok:
                chosen.append((r, c))
                yield from extend(chosen, sq + 1)
                chosen.pop()

    yield from extend([], 0)


def false_heuristic_state(n: int, other: NQueensState) -> NQueensState:
    """The lexicographically-first non-attacking placement with the same
    queen count as ``other`` that is neither a subset nor a superset of it.
    With equal counts that means: the first placement different from
    ``other``. The result seeds a search subtree that cannot merge with the
    one grown from ``other``."""
    if other.n != n:
        raise ModelError(f"reference state is for n={other.n}, expected n={n}")
    if not other.queens:
        raise ModelError("the empty placement is comparable to everything; "
                         "a false-heuristic mate for it does not exist")
    if not _pairwise_safe(other.queens):
        raise ModelError("reference state contains attacking queens")
    for queens in _lex_placements(n, len(other.queens)):
        if queens != other.queens:
            return NQueensState(n, queens)
    raise ModelError(f"no incomparable placement of {len(other.queens)} queens exists on n={n}")


def enumerate_states(n: int) -> tuple:
    """Every reachable state: all non-attacking placements of 0..n queens,
    in lexicographic order. Exponential; meant for desk-scale boards."""
    out = [empty_board(n)]

    def extend(mask: int, start: int) -> None:
        for sq in _bits(_free_mask(n, mask) >> start << start):
            child = mask | (1 << sq)
            out.append(_trusted(n, child))
            extend(child, sq + 1)

    extend(0, 0)
    return tuple(out)


def enumerate_space(n: int) -> FiniteSpace:
    """The reachable space as a FiniteSpace, for classification and audits."""
    return FiniteSpace(enumerate_states(n))
