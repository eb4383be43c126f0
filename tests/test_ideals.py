import pytest

from ordtop import (
    NotAnIdeal,
    QTriple,
    UnknownLabel,
    all_ideals,
    build_poset,
    compact_elements,
    find_order_isomorphism,
    ideal_J,
    idl_poset,
    principal_ideal,
)
from helpers import all_posets, antichain, chain, diamond, oracle_posets, rooted_model, vshape


def test_ideals_of_small_posets_are_exactly_the_principal_ones():
    for p in [chain(3), antichain(2), diamond(), vshape()]:
        ideals = set(all_ideals(p))
        principal = {principal_ideal(p, e) for e in p.elements}
        assert ideals == principal


def test_all_ideals_match_the_subset_sweep():
    # the sweep of all 2^n subsets finds the principal down-sets and no other ideal
    for p in oracle_posets():
        principal = sorted({p.down_set([e]) for e in p.elements},
                           key=lambda m: (len(m), sorted(p.index(e) for e in m)))
        assert all_ideals(p) == principal, p.covers()


def test_completion_lists_every_ideal_in_the_order_of_all_ideals():
    for p in oracle_posets():
        completion, embedding = idl_poset(p)
        assert list(completion.elements) == all_ideals(p), p.covers()
        for a in completion.elements:
            for b in completion.elements:
                assert completion.le(a, b) == (a <= b)
        assert embedding == {e: p.down_set([e]) for e in p.elements}


def test_diamond_has_four_ideals():
    # {bot, l, r} is a lower set but not directed, so it does not count
    members = sorted(sorted(ideal) for ideal in all_ideals(diamond()))
    assert members == [
        ["bot"],
        ["bot", "l"],
        ["bot", "l", "r", "top"],
        ["bot", "r"],
    ]


def test_ideal_validation():
    ideals = all_ideals(chain(3))
    assert frozenset() not in ideals
    assert frozenset({"c2"}) not in ideals  # not a lower set
    assert frozenset({"a", "b"}) not in all_ideals(vshape())  # lower but not directed
    assert frozenset({"c0", "c1"}) in ideals
    # a selection that is lower but not directed is no triple's down-set
    m = rooted_model()
    v = frozenset({"y"})
    t1 = QTriple(frozenset({"x1"}), v, "a1")
    t2 = QTriple(frozenset({"x1", "x2"}), v, "a2")
    apart = build_poset([t1, t2], [])
    with pytest.raises(NotAnIdeal, match="^triples selected by 'x1' are not an ideal: "):
        ideal_J(m, "x1", apart)
    assert ideal_J(m, "x2", apart) == frozenset({t2})


def test_principal_ideal():
    d = diamond()
    assert principal_ideal(d, "l") == frozenset({"bot", "l"})
    with pytest.raises(UnknownLabel):
        principal_ideal(d, "zzz")


def test_ideal_value_equality():
    p = chain(2)
    assert frozenset({"c0"}) == principal_ideal(p, "c0")
    assert frozenset({"c0"}) != principal_ideal(p, "c1")


def test_completion_is_isomorphic_to_a_finite_base():
    for n in range(1, 5):
        for p in all_posets(n):
            completion, embedding = idl_poset(p)
            assert len(completion) == len(p)
            assert find_order_isomorphism(p, completion) is not None
            assert set(embedding.values()) == set(completion.elements)


def test_completion_embedding_preserves_and_reflects_order():
    for p in [chain(4), diamond(), vshape()]:
        completion, embedding = idl_poset(p)
        for a in p.elements:
            for b in p.elements:
                assert p.le(a, b) == completion.le(embedding[a], embedding[b])


def test_completion_elements_are_compact():
    completion, _ = idl_poset(diamond())
    assert compact_elements(completion) == frozenset(completion.elements)
