"""Board states, the text format, known-state generators, and the
placement representation."""

import itertools
import random

import pytest

from essm_search import (ClassificationError, FiniteSpace, ModelError,
                         StateParseError, classify)
from essm_search.nqueens import (KnownState, KnownStateSpec, NQueensState,
                                 ROLE_EXPLICIT, ROLE_FALSE_HEURISTIC,
                                 ROLE_INITIAL, ROLE_ON_SOLUTION, _attack_table,
                                 empty_board, enumerate_space, enumerate_states,
                                 false_heuristic_state, first_solution,
                                 format_state, nqueens_rep, on_solution_state,
                                 parse_state)

from helpers import oracle_reachable


def attacks(a, b):
    """Independent attack predicate: shared row, column, or diagonal."""
    return a[0] == b[0] or a[1] == b[1] or abs(a[0] - b[0]) == abs(a[1] - b[1])


def brute_placements(n):
    """All non-attacking placements of 0..n queens, by exhaustive subsets."""
    squares = [(r, c) for r in range(n) for c in range(n)]
    out = set()
    for size in range(n + 1):
        for combo in itertools.combinations(squares, size):
            if all(not attacks(a, b) for a, b in itertools.combinations(combo, 2)):
                out.add(combo)
    return out


def single_known(n):
    return KnownStateSpec((KnownState(empty_board(n), ROLE_INITIAL),))


# --- states ---------------------------------------------------------------

def test_state_canonicalizes_queen_order():
    a = NQueensState(4, ((1, 3), (0, 1)))
    b = NQueensState(4, ((0, 1), (1, 3)))
    assert a.queens == ((0, 1), (1, 3))
    assert a == b and hash(a) == hash(b)


def test_state_validation():
    with pytest.raises(ModelError):
        NQueensState(0, ())
    with pytest.raises(ModelError):
        NQueensState("4", ())
    with pytest.raises(ModelError):
        NQueensState(4, ((0, 0), (0, 0)))
    with pytest.raises(ModelError):
        NQueensState(4, ((4, 0),))
    with pytest.raises(ModelError):
        NQueensState(2, ((0, 0), (0, 1), (1, 0)))


def test_state_is_an_immutable_mask():
    s = NQueensState(4, ((1, 3), (0, 1)))
    assert (s.n, s.mask) == (4, (1 << 1) | (1 << 7))
    assert empty_board(4).mask == 0
    with pytest.raises(AttributeError):
        s.n = 5
    with pytest.raises(AttributeError):
        s.mask = 0
    assert s != NQueensState(5, ((1, 3), (0, 1)))
    assert s != "4:0,1;1,3"


def test_with_queen_keeps_canonical_form():
    s = empty_board(4).with_queen(2, 1).with_queen(0, 3)
    assert s.queens == ((0, 3), (2, 1))


def brute_safe_squares(n, queens):
    """Free squares that no queen attacks, by the independent predicate."""
    return {
        r * n + c
        for r in range(n) for c in range(n)
        if (r, c) not in queens and all(not attacks((r, c), q) for q in queens)
    }


def test_safe_squares_match_brute_force():
    for queens in [(), ((0, 0),), ((0, 1), (1, 3)), ((0, 0), (1, 2))]:
        assert NQueensState(4, queens).safe_squares == brute_safe_squares(4, queens)


def test_safe_squares_match_the_pure_kernel_on_every_reachable_state():
    # The reference is the square-by-square attack check that the removed
    # pure-Python kernel computed; the bitmask tables must agree with it.
    for n in range(1, 7):
        for s in enumerate_states(n):
            assert s.safe_squares == brute_safe_squares(n, s.queens)


# --- text format -----------------------------------------------------------

def test_format_examples():
    assert format_state(empty_board(7)) == "7:"
    assert format_state(NQueensState(5, ((1, 2), (0, 0)))) == "5:0,0;1,2"
    assert str(NQueensState(5, ((0, 0),))) == "5:0,0"


def test_round_trip_over_every_reachable_state():
    for s in enumerate_states(4):
        assert parse_state(format_state(s)) == s


@pytest.mark.parametrize("text,position", [
    ("", 0),            # no board size
    ("x", 0),
    ("4", 1),           # missing ':'
    ("4x", 1),
    ("0:", 0),          # size below 1
    ("4:a", 2),         # missing row
    ("4: 0,0", 2),      # whitespace is not part of the grammar
    ("4:-1,0", 2),      # signs are not part of the grammar
    ("4:0", 3),         # missing ','
    ("4:0,a", 4),       # missing column
    ("4:0,0x", 5),      # junk instead of ';'
    ("4:0,0;", 6),      # dangling separator
    ("4:5,0", 2),       # off the board
    ("4:0,0;0,0", 6),   # duplicate pair
    ("4:1,0;0,0", 6),   # not ascending
    ("4:\u00b2,0", 2),  # only ASCII digits: not a superscript two
    ("4:\u0663,0", 2),  # nor an Arabic-Indic three
    ("\u00b2:", 0),     # nor a superscript board size
])
def test_parse_rejects_defects_with_positions(text, position):
    with pytest.raises(StateParseError) as err:
        parse_state(text)
    assert err.value.position == position


# --- known-state generators -------------------------------------------------

def test_first_solution_values():
    assert first_solution(1) == ((0, 0),)
    assert first_solution(2) is None
    assert first_solution(3) is None
    assert first_solution(4) == ((0, 1), (1, 3), (2, 0), (3, 2))
    assert first_solution(5) == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def test_on_solution_state_prefixes():
    s = on_solution_state(4, 2)
    assert s.queens == ((0, 1), (1, 3))
    full = first_solution(6)
    for depth in range(1, 7):
        prefix = on_solution_state(6, depth)
        assert prefix.queens == full[:depth]
        assert all(not attacks(a, b)
                   for a, b in itertools.combinations(prefix.queens, 2))


def test_on_solution_state_errors():
    with pytest.raises(ModelError):
        on_solution_state(4, 0)
    with pytest.raises(ModelError):
        on_solution_state(4, 5)
    with pytest.raises(ModelError):
        on_solution_state(3, 1)     # unsolvable board


def test_false_heuristic_is_the_first_different_placement():
    prefix = on_solution_state(5, 3)
    mate = false_heuristic_state(5, prefix)
    assert mate == parse_state("5:0,0;1,2;3,1")
    assert len(mate.queens) == len(prefix.queens)
    assert mate != prefix
    assert not set(mate.queens) <= set(prefix.queens)
    assert not set(prefix.queens) <= set(mate.queens)
    assert all(not attacks(a, b) for a, b in itertools.combinations(mate.queens, 2))


def test_false_heuristic_errors():
    with pytest.raises(ModelError):
        false_heuristic_state(5, empty_board(5))
    with pytest.raises(ModelError):
        false_heuristic_state(5, on_solution_state(4, 2))
    with pytest.raises(ModelError):
        false_heuristic_state(4, NQueensState(4, ((0, 0), (0, 1))))
    with pytest.raises(ModelError):
        false_heuristic_state(1, NQueensState(1, ((0, 0),)))


def test_known_state_spec_validation():
    with pytest.raises(ModelError):
        KnownState(empty_board(4), "made-up-role")
    with pytest.raises(ModelError):
        KnownStateSpec(())
    with pytest.raises(ModelError):
        KnownStateSpec((KnownState(empty_board(4), ROLE_INITIAL),
                        KnownState(empty_board(5), ROLE_INITIAL)))
    spec = KnownStateSpec((KnownState(empty_board(4), ROLE_INITIAL),
                           KnownState(on_solution_state(4, 2), ROLE_EXPLICIT)))
    assert spec.n == 4
    assert spec.states == (empty_board(4), on_solution_state(4, 2))


# --- the representation ------------------------------------------------------

def test_rep_has_one_operator_per_square_in_row_major_order():
    rep = nqueens_rep(4, single_known(4))
    assert len(rep.forward_fns) == 16
    assert rep.backward_fns == ()
    for r in range(4):
        for c in range(4):
            out = rep.forward_fns[r * 4 + c](empty_board(4))
            assert out == frozenset((NQueensState(4, ((r, c),)),))


def test_rep_operators_refuse_occupied_and_attacked_squares():
    rep = nqueens_rep(4, single_known(4))
    s = NQueensState(4, ((0, 0),))
    assert rep.forward_fns[0](s) == frozenset()       # occupied
    assert rep.forward_fns[1](s) == frozenset()       # same row
    assert rep.forward_fns[5](s) == frozenset()       # diagonal (1,1)
    assert rep.forward_fns[6](s) == frozenset((s.with_queen(1, 2),))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_successor_walk_matches_the_placement_functions(n):
    # the hook works on keys: they are the placement functions' children's
    rep = nqueens_rep(n, single_known(n))
    for s in enumerate_states(n):
        assert rep.successors(rep.encode(s)) == [
            rep.encode(t) for f in rep.forward_fns for t in f(s)]
        assert rep.walk(rep.encode(s)) == list(rep.successors(rep.encode(s)))
    # a board of another size has no key, so no walk ever reaches it
    other = empty_board(n + 1)
    assert rep.encode(other) is None
    assert all(f(other) == frozenset() for f in rep.forward_fns)


def test_the_attack_table_is_built_on_the_first_walk_and_looked_up_once():
    _attack_table.cache_clear()
    prefix = on_solution_state(8, 4)
    rep = nqueens_rep(8, KnownStateSpec((
        KnownState(empty_board(8), ROLE_INITIAL),
        KnownState(prefix, ROLE_ON_SOLUTION),
        KnownState(false_heuristic_state(8, prefix), ROLE_FALSE_HEURISTIC))))
    assert _attack_table.cache_info().misses == 0
    assert len(rep.successors(0)) == 64
    assert len(rep.successors(1)) == 42  # a corner queen blocks 22 squares
    info = _attack_table.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_trusted_children_equal_their_public_twins():
    for n in range(1, 6):
        rep = nqueens_rep(n, single_known(n))
        for s in enumerate_states(n):
            keys = rep.successors(rep.encode(s))
            squares = [sq for sq, f in enumerate(rep.forward_fns) if f(s)]
            assert len(keys) == len(squares)
            for sq, key in zip(squares, keys):
                child = rep.decode(key)
                r, c = divmod(sq, n)
                twin = NQueensState(n, s.queens + ((r, c),))
                assert child == twin and twin == child
                assert hash(child) == hash(twin)
                assert str(child) == str(twin) and repr(child) == repr(twin)
                assert child.queens == twin.queens
                assert s.with_queen(r, c) == child
                assert parse_state(str(child)) == child
                assert rep.encode(child) == rep.encode(twin) == key


def test_rep_predicates():
    rep = nqueens_rep(4, single_known(4))
    assert rep.initial(empty_board(4))
    assert not rep.initial(NQueensState(4, ((0, 0),)))
    assert not rep.initial(empty_board(5))
    solution = NQueensState(4, first_solution(4))
    assert rep.goal(solution)
    assert not rep.goal(on_solution_state(4, 2))
    assert not rep.goal(NQueensState(4, ((0, 0), (1, 1), (2, 2), (3, 3))))


def test_rep_rejects_bad_known_states():
    with pytest.raises(ModelError):
        nqueens_rep(5, single_known(4))
    attacking = KnownStateSpec((KnownState(NQueensState(4, ((0, 0), (1, 1))),
                                           ROLE_EXPLICIT),))
    with pytest.raises(ModelError):
        nqueens_rep(4, attacking)


def test_goal_and_known_state_check_agree_with_the_attack_predicate():
    for n in (4, 5):
        rep = nqueens_rep(n, single_known(n))
        squares = [(r, c) for r in range(n) for c in range(n)]
        for queens in itertools.combinations(squares, n):
            safe = all(not attacks(a, b) for a, b in itertools.combinations(queens, 2))
            assert rep.goal(NQueensState(n, queens)) == safe
    squares = [(r, c) for r in range(4) for c in range(4)]
    for size in (2, 3):
        for queens in itertools.combinations(squares, size):
            spec = KnownStateSpec((KnownState(empty_board(4), ROLE_INITIAL),
                                   KnownState(NQueensState(4, queens), ROLE_EXPLICIT)))
            if any(attacks(a, b) for a, b in itertools.combinations(queens, 2)):
                with pytest.raises(ModelError):
                    nqueens_rep(4, spec)
            else:
                assert nqueens_rep(4, spec).known_states == spec.states


def test_rep_preserves_known_state_order():
    spec = KnownStateSpec((KnownState(empty_board(4), ROLE_INITIAL),
                           KnownState(on_solution_state(4, 2), ROLE_EXPLICIT)))
    rep = nqueens_rep(4, spec)
    assert rep.known_states == spec.states
    assert rep.k_count == 2


# --- enumeration --------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_exhaustive_subsets(n):
    states = enumerate_states(n)
    assert len(states) == len(set(states))
    assert {s.queens for s in states} == brute_placements(n)
    # documented order: lexicographic by coordinate tuple
    listed = [s.queens for s in states]
    assert listed == sorted(listed)


def test_enumeration_is_closed_under_placement():
    states = enumerate_states(4)
    members = set(states)
    for s in states:
        for sq in s.safe_squares:
            assert s.with_queen(*divmod(sq, 4)) in members


def test_enumerate_space_wraps_the_same_states():
    space = enumerate_space(3)
    assert len(space) == len(enumerate_states(3))
    assert empty_board(3) in space


def test_classifier_flags_for_the_placement_problem():
    rep = nqueens_rep(3, single_known(3))
    report = classify(rep, enumerate_space(3))
    assert report.deterministic
    assert report.one_way_forward and not report.one_way_backward
    assert report.antisymmetric and not report.symmetric
    assert not report.strictly_symmetric
    assert report.initial_state_count == 1


def test_classifier_requires_a_closed_space():
    rep = nqueens_rep(3, single_known(3))
    clipped = FiniteSpace(enumerate_states(3)[:5])
    with pytest.raises(ClassificationError, match="not closed"):
        classify(rep, clipped)


def test_reachability_is_exactly_the_subset_order():
    rep = nqueens_rep(4, single_known(4))
    states = enumerate_states(4)
    rng = random.Random(20260815)
    for a in [empty_board(4)] + rng.sample(states, 5):
        reached = set(oracle_reachable(rep, a))
        for b in states:
            assert (b in reached) == (set(a.queens) <= set(b.queens))
