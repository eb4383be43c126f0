from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordtop import (
    ForeignSet,
    Topology,
    compact_elements,
    is_algebraic,
    is_bounded_complete,
    is_continuous,
    is_gdelta,
    idl_poset,
    is_ideal_domain,
    is_scott_closed,
    is_scott_open,
    is_upper_set,
    relative_topology,
    scott_opens,
    way_below,
)
from ordtop.generate import all_posets, random_poset

from helpers import (
    antichain,
    chain,
    crown,
    diamond,
    numeric_poset,
    oracle_is_bounded_complete,
    oracle_is_upper_set,
    oracle_posets,
    oracle_scott_opens,
    oracle_sorted_opens,
    subsets,
    vshape,
)


def _oracle_inputs():
    # every subset of the posets up to five elements; the principal up- and
    # down-sets of the larger random ones
    for p in oracle_posets():
        if len(p) <= 5:
            candidates = subsets(p.elements)
        else:
            candidates = [s for x in p.elements for s in (p.up_set([x]), p.down_set([x]))]
        for subset in candidates:
            yield p, subset


def test_two_chain_scott_topology_is_exact():
    t = scott_opens(chain(2))
    assert t.opens == frozenset(
        {frozenset(), frozenset({"c1"}), frozenset({"c0", "c1"})}
    )


def test_topology_constructor_rejects_broken_families():
    with pytest.raises(ValueError):
        Topology.from_opens(["a", "a"], [frozenset(), frozenset({"a"})])
    with pytest.raises(ValueError):
        Topology.from_opens(["a"], [frozenset({"a"})])  # missing the empty set
    with pytest.raises(ValueError):
        Topology.from_opens(["a"], [frozenset(), frozenset({"a"}), frozenset({"b"})])


def test_topology_constructor_rejects_malformed_rows():
    with pytest.raises(ValueError):
        Topology(["a", "b"], [0b01])  # one row short
    with pytest.raises(ValueError):
        Topology(["a", "b"], [0b10, 0b10])  # a's smallest open misses a
    with pytest.raises(ValueError):
        Topology(["a"], [0b11])  # the row leaves the space
    with pytest.raises(ValueError):
        Topology(["a", "a"], [0b01, 0b10])


def test_topology_validate_finds_missing_meets():
    # {a,b} and {b,c} are open but their meet {b} is not
    with pytest.raises(ValueError):
        Topology.from_opens(
            ["a", "b", "c"],
            [frozenset(), frozenset({"a", "b"}), frozenset({"b", "c"}),
             frozenset({"a", "b", "c"})],
        )
    # the same failure given as rows: b sits in a's smallest open, c in b's
    with pytest.raises(ValueError):
        Topology(["a", "b", "c"], [0b011, 0b110, 0b100]).validate()


def test_scott_topologies_validate_exhaustively():
    for n in range(1, 6):
        for p in all_posets(n):
            scott_opens(p).validate()


def test_upper_set_detection():
    d = diamond()
    assert is_upper_set(d, {"top"})
    assert is_upper_set(d, {"l", "top"})
    assert not is_upper_set(d, {"l"})
    assert not is_upper_set(d, {"bot"})


def test_upper_sets_refuse_a_foreign_label():
    d = diamond()
    for members, first in ((["zzz"], "'zzz'"), (["l", "zzz"], "'zzz'"), (["top", "yyy", "zzz"], "'yyy'")):
        with pytest.raises(ForeignSet, match=f"^label {first} is not an element of this poset$"):
            is_upper_set(d, iter(members))


def test_fast_and_exhaustive_openness_agree_on_small_posets():
    # the fast tests: upper sets, and lower sets through their members' down-set rows
    for p, subset in _oracle_inputs():
        upper = oracle_is_upper_set(p, subset)
        assert is_upper_set(p, subset) == upper == is_scott_open(p, subset), (p.covers(), subset)
        # a one-shot iterable, with a repeated member, is read once
        assert is_upper_set(p, iter([*subset, *subset])) == upper, (p.covers(), subset)
        assert (p.down_set(subset) == subset) == is_scott_closed(p, subset), (p.covers(), subset)


def test_closed_sets_are_complements_of_open_sets():
    for p, subset in _oracle_inputs():
        complement = frozenset(p.elements) - subset
        assert is_scott_closed(p, subset) == is_scott_open(p, complement) == is_upper_set(p, complement)


def test_way_below_on_the_diamond():
    d = diamond()
    assert way_below(d, "bot", "top")
    assert way_below(d, "l", "top")
    assert not way_below(d, "top", "bot")


def test_way_below_coincides_with_the_order_when_finite():
    rng = Random(7)
    posets = [p for n in range(1, 6) for p in all_posets(n)]
    posets += [random_poset(rng.randint(1, 7), rng) for _ in range(30)]
    for p in posets:
        for a in p.elements:
            for b in p.elements:
                assert way_below(p, a, b) == p.le(a, b)


def test_every_element_of_a_finite_poset_is_compact():
    for p in oracle_posets():
        assert compact_elements(p) == frozenset(p.elements), p.covers()


def test_finite_posets_are_continuous_algebraic_ideal_domains():
    for p in oracle_posets():
        assert is_continuous(p), p.covers()
        assert is_algebraic(p), p.covers()
        assert is_ideal_domain(p), p.covers()


def test_bounded_completeness_examples():
    assert is_bounded_complete(chain(3))
    assert is_bounded_complete(diamond())
    assert not is_bounded_complete(vshape())
    # no bottom element, so the empty subset has no supremum
    assert not is_bounded_complete(antichain(2))
    assert is_bounded_complete(antichain(1))


def test_bounded_completeness_on_crowns():
    # unrooted, the empty subset has no join; rooted, two bottoms lose theirs from n = 4
    for n in range(2, 6):
        for p, verdict in ((crown(n), False), (crown(n, rooted=True), n <= 3)):
            assert is_bounded_complete(p) == oracle_is_bounded_complete(p) == verdict
    # 61 elements with 2^30 distinct bound sets: only a pairwise test answers at this size
    assert not is_bounded_complete(crown(30, rooted=True))


def test_scott_opens_match_the_subset_sweep():
    for p in oracle_posets():
        fast, slow = scott_opens(p), oracle_scott_opens(p)
        assert fast.space == slow.space
        assert fast.opens == slow.opens, p.covers()


def test_bounded_completeness_matches_the_subset_sweep():
    verdicts = set()
    for p in oracle_posets():
        verdict = is_bounded_complete(p)
        assert verdict == oracle_is_bounded_complete(p), p.covers()
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_relative_topology_traces_every_oracle_open():
    rng = Random(1937)
    for p in oracle_posets():
        whole = oracle_scott_opens(p).opens
        for _ in range(3):
            subspace = [e for e in p.elements if rng.random() < 0.5]
            rel = relative_topology(p, subspace)
            assert rel.space == tuple(subspace)
            assert rel.opens == {u & frozenset(subspace) for u in whole}, (p.covers(), subspace)


def test_relative_topology_on_maxima_is_discrete():
    for p in oracle_posets():
        maximal = p.maximal_elements()
        rel = relative_topology(p, maximal)
        assert rel.is_discrete, p.covers()
        traces = {u & maximal for u in oracle_scott_opens(p).opens}
        assert traces == set(subsets(maximal)), p.covers()


def test_relative_topology_keeps_ambient_traces():
    d = diamond()
    rel = relative_topology(d, ["bot", "top"])
    assert rel.opens == frozenset(
        {frozenset(), frozenset({"top"}), frozenset({"bot", "top"})}
    )


def test_gdelta_in_a_two_point_space():
    t = Topology.from_opens(["a", "b"], [frozenset(), frozenset({"b"}), frozenset({"a", "b"})])
    assert is_gdelta(t, {"b"})
    # every open around a also holds b, so the meet never shrinks to {a}
    assert not is_gdelta(t, {"a"})
    with pytest.raises(ForeignSet):
        is_gdelta(t, {"zzz"})


def test_a_foreign_point_is_a_foreign_set():
    t = Topology.from_opens(["a", "b"], [frozenset(), frozenset({"b"}), frozenset({"a", "b"})])
    long = "z" * 5000
    for call in (lambda: t.smallest_open("zzz"), lambda: t.is_open({"b", "zzz"}),
                 lambda: t.smallest_open(long), lambda: t.is_open([long])):
        with pytest.raises(ForeignSet) as info:
            call()
        assert len(str(info.value)) < 100
    assert t.smallest_open("a") == {"a", "b"} and t.is_open({"b"})


def test_from_opens_rebuilds_the_smallest_opens():
    for p in oracle_posets():
        t = scott_opens(p)
        assert Topology.from_opens(t.space, t.opens) == t, p.covers()


def test_open_masks_hold_position_i_at_bit_n_minus_1_minus_i():
    t = scott_opens(chain(3))  # c0 < c1 < c2
    assert t.open_masks == (0b000, 0b001, 0b011, 0b111)
    assert t.sorted_opens() == [frozenset(), frozenset({"c2"}), frozenset({"c1", "c2"}),
                                frozenset({"c0", "c1", "c2"})]


def test_sorted_opens_match_the_frozenset_sort():
    topologies = [t for p in [*oracle_posets(), numeric_poset()]
                  for t in (scott_opens(p), relative_topology(p, p.maximal_elements()))]
    topologies += [scott_opens(antichain(n)) for n in (0, 1, 7, 8, 9)]
    for t in topologies:
        expected = oracle_sorted_opens(t)
        assert t.sorted_opens() == expected, t.around
        assert t.opens == frozenset(expected), t.around


def test_gdelta_matches_the_meet_of_opens():
    rng = Random(1937)
    verdicts = set()
    for p in oracle_posets():
        t = scott_opens(p)
        if len(p) <= 5:
            candidates = subsets(p.elements)
        else:
            candidates = [[e for e in p.elements if rng.random() < 0.5] for _ in range(20)]
        for subset in candidates:
            verdict = t.is_open(subset)
            assert verdict == is_gdelta(t, subset), (p.covers(), subset)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_maxima_form_a_gdelta_in_finite_scott_topologies():
    for n in range(1, 5):
        for p in all_posets(n):
            assert is_gdelta(scott_opens(p), p.maximal_elements())


def test_points_are_separated_in_the_maximal_subspace():
    # the meet of all relatively open sets around a maximal point is the point
    for n in range(1, 6):
        for p in all_posets(n):
            rel = relative_topology(p, p.maximal_elements())
            for m in rel.space:
                around = [u for u in rel.opens if m in u]
                assert frozenset.intersection(*around) == frozenset({m})


def test_no_library_size_bound_on_a_long_chain():
    # the CLI bounds its input once; the library answers at any size
    p = chain(40)
    assert len(scott_opens(p).open_masks) == 41
    assert relative_topology(p, p.maximal_elements()).space == ("c39",)
    assert is_bounded_complete(p)
    completion, _ = idl_poset(p)
    assert len(completion) == 40
    assert is_upper_set(p, [f"c{i}" for i in range(5, 40)])


def test_no_library_size_bound_on_a_wide_crown():
    p = crown(30)
    assert scott_opens(p).around == p._up
    assert relative_topology(p, p.maximal_elements()).is_discrete
    assert not is_bounded_complete(p)
    completion, _ = idl_poset(p)
    assert len(completion) == 60


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
def test_up_sets_are_scott_open(seed, n, data):
    p = random_poset(n, Random(seed))
    subset = data.draw(st.sets(st.sampled_from(p.elements)))
    members = p.up_set(subset)
    assert is_scott_open(p, members)


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
def test_open_families_are_closed_under_union_and_meet(seed, n, data):
    p = random_poset(n, Random(seed))
    a = data.draw(st.sets(st.sampled_from(p.elements)))
    b = data.draw(st.sets(st.sampled_from(p.elements)))
    ua, ub = p.up_set(a), p.up_set(b)
    assert is_scott_open(p, ua | ub)
    assert is_scott_open(p, ua & ub)
