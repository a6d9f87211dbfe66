"""Core model types, the classifier, and path validation."""

import pytest

from essm_search import (BACKWARD, FORWARD, ClassificationError, Edge,
                         EssmRepresentation, FiniteSpace, ModelError, OpRef,
                         Path, SingleStateSolution, classify, make_classical,
                         validate_path)

from helpers import graph_rep


def test_opref_rejects_bad_kind_and_index():
    with pytest.raises(ModelError):
        OpRef("sideways", 0)
    with pytest.raises(ModelError):
        OpRef(FORWARD, -1)
    assert OpRef(BACKWARD, 3).index == 3


def test_path_requires_at_least_one_edge():
    with pytest.raises(ModelError):
        Path(())


def test_path_states_in_visit_order():
    p = Path((Edge(0, 1, OpRef(FORWARD, 0)), Edge(1, 2, OpRef(FORWARD, 0))))
    assert p.states() == (0, 1, 2)
    assert len(p) == 2


def test_representation_validation():
    initial = goal = lambda s: False
    f = lambda s: frozenset()
    with pytest.raises(ModelError):
        EssmRepresentation((), initial, goal, (f,))
    with pytest.raises(ModelError):
        EssmRepresentation((1, 2, 1), initial, goal, (f,))
    with pytest.raises(ModelError):
        EssmRepresentation((1,), initial, goal)


def test_representation_coerces_sequences_and_counts():
    f = lambda s: frozenset()
    rep = EssmRepresentation(["a", "b"], lambda s: False, lambda s: False, [f])
    assert rep.known_states == ("a", "b")
    assert isinstance(rep.forward_fns, tuple)
    assert rep.k_count == 2


def test_finite_space_rejects_duplicates():
    with pytest.raises(ModelError):
        FiniteSpace((1, 2, 1))
    space = FiniteSpace((1, 2, 3))
    assert len(space) == 3
    assert 2 in space and 9 not in space


def test_finite_space_membership_matches_the_tuple():
    states = ("a", (1, 2), 7, frozenset({3}))
    space = FiniteSpace(states)
    for s in states + ("b", (2, 1), 8, frozenset()):
        assert (s in space) == (s in space.states)
    assert "b" not in space


def test_representation_checks_the_successor_walk():
    f = lambda s: frozenset()
    rep = EssmRepresentation((1,), lambda s: False, lambda s: False, (f,))
    assert rep.successors is None
    with pytest.raises(ModelError):
        EssmRepresentation((1,), lambda s: False, lambda s: False, (f,),
                           successors="not callable")
    with pytest.raises(ModelError):
        EssmRepresentation((1,), lambda s: False, lambda s: False, (), (f,),
                           successors=lambda s: ())


def test_representation_takes_a_codec_whole_or_not_at_all():
    f = lambda s: frozenset()
    rep = EssmRepresentation((1,), lambda s: False, lambda s: False, (f,))
    assert rep.encode is None and rep.decode is None
    keyed = EssmRepresentation((1,), lambda s: False, lambda s: False, (f,),
                               encode=str, decode=int)
    assert (keyed.encode, keyed.decode) == (str, int)
    for half in ({"encode": str}, {"decode": int}):
        with pytest.raises(ModelError, match="both or neither"):
            EssmRepresentation((1,), lambda s: False, lambda s: False, (f,), **half)
    with pytest.raises(ModelError):
        EssmRepresentation((1,), lambda s: False, lambda s: False, (f,),
                           encode=str, decode="not callable")


def test_finite_space_text_round_trip():
    space = FiniteSpace((3, 1, 2))
    text = space.to_text(str)
    assert text == "3\n1\n2"
    again = FiniteSpace.from_text(text + "\n\n", int)
    assert again.states == (3, 1, 2)


def test_make_classical_lifts_partial_operators():
    # increment on 0..3, applicable below 3
    inc = lambda s: s + 1 if s < 3 else None
    rep = make_classical([inc], 0, goal=lambda s: s == 3)
    assert rep.known_states == (0,)
    assert rep.initial(0) and not rep.initial(1)
    assert rep.forward_fns[0](1) == frozenset((2,))
    assert rep.forward_fns[0](3) == frozenset()
    assert rep.backward_fns == ()
    with pytest.raises(ModelError):
        make_classical([], 0, goal=lambda s: False)


def test_classify_classical_chain():
    inc = lambda s: s + 1 if s < 3 else None
    rep = make_classical([inc], 0, goal=lambda s: s == 3)
    report = classify(rep, FiniteSpace((0, 1, 2, 3)))
    assert report.deterministic
    assert report.one_way_forward and not report.one_way_backward
    assert report.antisymmetric          # no backward witnesses at all
    assert not report.symmetric          # forward edges exist, none mirrored
    assert not report.strictly_symmetric
    assert report.initial_state_count == 1


def test_classify_strictly_symmetric_cycle():
    nxt = {0: 1, 1: 2, 2: 0}
    prv = {v: k for k, v in nxt.items()}
    rep = EssmRepresentation(
        known_states=(0,),
        initial=lambda s: s == 0,
        goal=lambda s: False,
        forward_fns=(lambda s: frozenset((nxt[s],)),),
        backward_fns=(lambda s: frozenset((prv[s],)),),
    )
    report = classify(rep, FiniteSpace((0, 1, 2)))
    assert report.strictly_symmetric
    assert report.symmetric
    assert not report.antisymmetric
    assert not report.one_way_forward and not report.one_way_backward


def test_classify_symmetric_but_not_strictly():
    # two forward functions, one backward function covering both edges
    f1 = lambda s: frozenset((1,)) if s == 0 else frozenset()
    f2 = lambda s: frozenset((2,)) if s == 1 else frozenset()
    b = lambda s: frozenset((s - 1,)) if s in (1, 2) else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False,
                             (f1, f2), (b,))
    report = classify(rep, FiniteSpace((0, 1, 2)))
    assert report.symmetric
    assert not report.strictly_symmetric


def test_classify_nondeterministic_fanout():
    f = lambda s: frozenset((1, 2)) if s == 0 else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (f,))
    assert not classify(rep, FiniteSpace((0, 1, 2))).deterministic


def test_classify_escaping_state_is_named():
    f = lambda s: frozenset((99,)) if s == 0 else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (f,))
    with pytest.raises(ClassificationError, match="99"):
        classify(rep, FiniteSpace((0, 1)))


def test_classify_escaping_backward_state_is_named():
    f = lambda s: frozenset((1,)) if s == 0 else frozenset()
    b = lambda s: frozenset((99,)) if s == 1 else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: False, (f,), (b,))
    with pytest.raises(ClassificationError,
                       match="space is not closed: backward function 0 maps 1 to 99, "):
        classify(rep, FiniteSpace((0, 1)))


def test_classify_requires_known_states_in_space():
    f = lambda s: frozenset()
    rep = EssmRepresentation((7,), lambda s: False, lambda s: False, (f,))
    with pytest.raises(ClassificationError, match="7"):
        classify(rep, FiniteSpace((0, 1)))


def test_classify_counts_initial_states():
    rep, space = graph_rep([(0, 1), (1, 2)], known=[0],
                           initial=[0, 2], goal=[])
    assert classify(rep, space).initial_state_count == 2


def test_validate_path_accepts_realized_chain():
    rep, _ = graph_rep([(0, 1), (1, 2)], known=[0], initial=[0], goal=[2])
    good = Path((Edge(0, 1, OpRef(FORWARD, 0)), Edge(1, 2, OpRef(FORWARD, 0))))
    assert validate_path(rep, good)
    # any prefix of a valid path is valid
    assert validate_path(rep, Path(good.edges[:1]))


def test_validate_path_rejects_defects_quietly():
    rep, _ = graph_rep([(0, 1), (1, 2), (2, 3)], known=[0],
                       initial=[0], goal=[3])
    broken = Path((Edge(0, 1, OpRef(FORWARD, 0)), Edge(2, 3, OpRef(FORWARD, 0))))
    assert not validate_path(rep, broken)
    dangling = Path((Edge(0, 1, OpRef(FORWARD, 5)),))
    assert not validate_path(rep, dangling)
    unrealized = Path((Edge(0, 3, OpRef(FORWARD, 0)),))
    assert not validate_path(rep, unrealized)
    assert not validate_path(rep, SingleStateSolution(0))
    assert not validate_path(rep, "not a path")


def test_validate_path_checks_backward_edges_in_reverse():
    b = lambda s: frozenset((0,)) if s == 1 else frozenset()
    rep = EssmRepresentation((0,), lambda s: s == 0, lambda s: s == 1,
                             backward_fns=(b,))
    assert validate_path(rep, Path((Edge(0, 1, OpRef(BACKWARD, 0)),)))
    assert not validate_path(rep, Path((Edge(1, 0, OpRef(BACKWARD, 0)),)))
