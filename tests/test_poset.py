import json
import sys
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordtop import (
    MODE_L,
    MODE_LHAT,
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    FinitePoset,
    ForeignSet,
    FormatError,
    UnknownLabel,
    build_poset,
    find_order_isomorphism,
    label_text,
    load_poset,
    poset_from_json,
    poset_to_json,
    principal_ideal,
    product,
    to_dot,
    truncate_domain,
)
from ordtop.cli import main
from ordtop.poset import (
    _dot_quote,
    _iter_bits,
    _mirror,
    _order_violation,
    _transitive_close,
    covers_json_text,
)
from ordtop.topology import _directed_sups

from helpers import (
    all_posets,
    antichain,
    chain,
    diamond,
    oracle_covers,
    oracle_mirror,
    oracle_poset_from_json,
    oracle_posets,
    oracle_product,
    oracle_transitive_close,
    random_poset,
    vshape,
)

DATA = Path(__file__).parent / "data"


def test_three_chain_order():
    p = chain(3)
    assert sum(row.bit_count() for row in p._up) == 6
    assert repr(p) == "FinitePoset(3 elements, 6 related pairs)"
    assert p.le("c0", "c2")
    assert not p.le("c2", "c0")
    assert p.le("c1", "c1")


def test_covers_drop_transitive_edges():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers() == (("a", "b"), ("b", "c"))


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        chain(2).index("zzz")
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "b")])


def test_foreign_set():
    with pytest.raises(ForeignSet):
        chain(2).up_set(["c0", "nope"])


def test_messages_cut_long_labels_short():
    long = "L" * 200000
    p = chain(2)
    calls = [
        (UnknownLabel, lambda: p.index(long)),
        (ForeignSet, lambda: p.mask_of([long])),
        (UnknownLabel, lambda: principal_ideal(p, long)),
        (UnknownLabel, lambda: FinitePoset.from_relation(["a"], [("a", long)])),
        (DuplicateLabel, lambda: FinitePoset([long, long], [1, 2])),
        (CycleDetected, lambda: build_poset([long, "b"], [(long, "b"), ("b", long)])),
    ]
    for error, call in calls:
        with pytest.raises(error) as info:
            call()
        assert len(str(info.value)) < 300


def test_up_and_down_sets():
    d = diamond()
    assert d.up_set(["l"]) == frozenset({"l", "top"})
    assert d.down_set(["l"]) == frozenset({"bot", "l"})
    assert d.up_set(["l", "r"]) == frozenset({"l", "r", "top"})


def test_maximal_elements():
    assert diamond().maximal_elements() == frozenset({"top"})
    assert vshape().maximal_elements() == frozenset({"t1", "t2"})
    assert antichain(3).maximal_elements() == frozenset({"a0", "a1", "a2"})


def test_is_directed():
    p = chain(3)
    assert p.is_directed(["c0", "c2"])
    assert not p.is_directed([])
    assert not vshape().is_directed(["a", "b"])
    assert diamond().is_directed(["l", "r", "top"])


def test_supremum():
    d = diamond()
    assert d.supremum(["l", "r"]) == "top"
    assert d.supremum(["bot"]) == "bot"
    assert vshape().supremum(["a", "b"]) is None
    with pytest.raises(EmptySet):
        d.supremum([])


def test_every_finite_poset_is_a_dcpo():
    # each directed subset has a supremum, and it is the subset's greatest element
    for p in oracle_posets():
        for mask, _ in _directed_sups(p):
            directed = p.labels_of(mask)
            assert p.supremum(directed) in directed, (p.covers(), directed)
    assert _directed_sups.cache_info().currsize == 1  # the sweep is cached for the last poset only


def test_restrict_induces_suborder():
    sub = diamond().restrict(["bot", "l", "top"])
    assert find_order_isomorphism(sub, chain(3)) is not None


def test_product_of_two_chains_is_a_grid():
    grid = product(chain(2), chain(2))
    assert len(grid) == 4
    assert sum(row.bit_count() for row in grid._up) == 9
    assert find_order_isomorphism(grid, diamond()) is not None


def test_product_matches_the_oracle():
    # every pair of posets on up to three elements, empty ones included, and random pairs up to 5 x 4
    small = [p for n in range(4) for p in all_posets(n)]
    rng = Random(2009)
    pairs = [(p, q) for p in small for q in small]
    pairs += [(random_poset(rng.randint(1, 5), rng), random_poset(rng.randint(1, 4), rng)) for _ in range(100)]
    for p, q in pairs:
        assert product(p, q) == oracle_product(p, q), (p.covers(), q.covers())


def test_product_is_associative_up_to_isomorphism():
    small = [p for n in range(1, 4) for p in all_posets(n)]
    for p in small:
        for q in small:
            for r in small:
                left = product(product(p, q), r)
                right = product(p, product(q, r))
                assert find_order_isomorphism(left, right) is not None


def test_from_relation_rejects_broken_input():
    with pytest.raises(ValueError):
        FinitePoset.from_relation(
            ["a", "b", "c"],
            {("a", "b"), ("b", "c"), ("a", "a"), ("b", "b"), ("c", "c")},
        )
    with pytest.raises(CycleDetected):
        FinitePoset.from_relation(
            ["a", "b"], {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}
        )


def test_order_violation_names_a_broken_axiom():
    rng = Random(1937)
    found = set()
    for _ in range(2000):
        n = rng.randint(1, 4)
        masks = [sum(1 << j for j in range(n) if rng.random() < 0.6) for _ in range(n)]
        rel = {(i, j) for i in range(n) for j in range(n) if masks[i] >> j & 1}
        preorder = all((i, i) in rel for i in range(n)) and all(
            (i, k) in rel for i, j in rel for j2, k in rel if j == j2
        )
        cyclic = any(i != j and (j, i) in rel for i, j in rel)
        violation = _order_violation(masks)
        axiom, at = violation or (None, ())
        found.add(axiom)
        if not preorder:
            assert axiom in ("reflexive", "transitive"), masks
        elif cyclic:
            assert axiom == "antisymmetric", masks
        else:
            assert violation is None, masks
        if axiom == "reflexive":
            assert (at[0], at[0]) not in rel
        if axiom == "transitive":
            i, j, k = at
            assert (i, j) in rel and (j, k) in rel and (i, k) not in rel
        if axiom == "antisymmetric":
            i, j = at
            assert i != j and (i, j) in rel and (j, i) in rel
    assert found == {None, "reflexive", "transitive", "antisymmetric"}


def test_value_equality():
    assert chain(3) == chain(3)
    assert chain(3) != chain(2)
    assert hash(chain(3)) == hash(chain(3))
    relabeled = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert chain(3) != relabeled


def test_isomorphism_search():
    relabeled = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    iso = find_order_isomorphism(chain(3), relabeled)
    assert iso == {"c0": "x", "c1": "y", "c2": "z"}
    assert find_order_isomorphism(chain(3), antichain(3)) is None
    assert find_order_isomorphism(diamond(), vshape()) is None


def _bipartite_cycle(n: int, tag: str = "") -> FinitePoset:
    """Bottoms b_i below the tops t_i and t_(i+1 mod n): its Hasse diagram is a cycle of 2n points."""
    bottoms = [f"{tag}b{i}" for i in range(n)]
    tops = [f"{tag}t{i}" for i in range(n)]
    return build_poset(bottoms + tops, [(b, tops[(i + d) % n]) for i, b in enumerate(bottoms) for d in (0, 1)])


def test_isomorphism_search_backtracks_where_no_degree_separates_the_points():
    # every bottom is below two tops and every top above two bottoms, on both sides; at 20 points
    # a search that places every bottom before a top can prune runs for over a minute
    for n in (6, 8, 10):
        cycle = _bipartite_cycle(n)
        halves = [_bipartite_cycle(n // 2, tag) for tag in "xy"]
        two = build_poset(halves[0].elements + halves[1].elements, halves[0].covers() + halves[1].covers())
        assert len(cycle) == len(two) == 2 * n
        assert find_order_isomorphism(cycle, two) is None, n
        assert find_order_isomorphism(two, cycle) is None, n
    c6 = _bipartite_cycle(6)
    # the same cycle, relabelled and listed in a shuffled order
    rng = Random(2015)
    rename = {e: f"r{k}" for k, e in enumerate(rng.sample(c6.elements, len(c6)))}
    shuffled = rng.sample([rename[e] for e in c6.elements], len(c6))
    copy = build_poset(shuffled, [(rename[a], rename[b]) for a, b in c6.covers()])
    iso = find_order_isomorphism(c6, copy)
    assert iso is not None and sorted(iso.values(), key=copy.index) == list(copy.elements)
    assert all(c6.le(a, b) == copy.le(iso[a], iso[b]) for a in c6.elements for b in c6.elements)


def test_label_text():
    assert label_text("a") == "a"
    assert label_text(("a", "b")) == "(a,b)"
    assert label_text(frozenset({"b", "a"})) == "{a,b}"


def test_json_round_trip():
    p = diamond()
    again = poset_from_json(poset_to_json(p))
    assert again == p


def test_json_requires_string_labels():
    with pytest.raises(FormatError):
        poset_to_json(product(chain(2), chain(2)))


AWKWARD_LABELS = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9",
                  "\u2203x\u2200y", "\U0001d4ab", "\ud800", "", "'single'", "/"]


@pytest.mark.parametrize("p", [
    pytest.param(FinitePoset((), ()), id="empty"),
    pytest.param(antichain(3), id="no-covers"),
    pytest.param(chain(1), id="one-element"),
    pytest.param(diamond(), id="diamond"),
    pytest.param(build_poset(AWKWARD_LABELS, list(zip(AWKWARD_LABELS, AWKWARD_LABELS[1:4]))),
                 id="awkward-labels"),
    pytest.param(build_poset(AWKWARD_LABELS, []), id="awkward-labels-no-covers"),
    pytest.param(truncate_domain(2, 3, MODE_L)[0], id="truncation"),
])
def test_json_text_is_the_indented_json_dump(p):
    assert covers_json_text(p.elements, p.covers()) == json.dumps(poset_to_json(p), indent=2)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"elements": "ab", "covers": []},
        {"elements": ["a"], "covers": [["a"]]},
        {"elements": ["a"], "covers": "none"},
        {"covers": []},
    ],
)
def test_json_rejects_malformed_documents(data):
    with pytest.raises(FormatError):
        poset_from_json(data)


class _Pair(list):
    """A cover entry as a library caller may hand it: a list subclass."""


_LOADER_LABELS = ["a", "b", "c"]
_cover_label = st.sampled_from([*_LOADER_LABELS, "zz", "\ud800"])
_cover_pairs = st.lists(_cover_label, min_size=2, max_size=2)
_cover_entries = st.one_of(_cover_pairs, _cover_pairs, _cover_pairs.map(_Pair), st.sampled_from(
    ["ab", {"a": "b", "c": "a"}, ["a"], ["a", "b", "c"], [1, "a"], [["x"], "a"], [True, "a"], None]))
_hostile_documents = st.fixed_dictionaries({
    "elements": st.lists(st.sampled_from(_LOADER_LABELS), max_size=4)
    | st.lists(st.sampled_from([*_LOADER_LABELS, "\ud800"]), max_size=4),
    "covers": st.lists(_cover_entries, max_size=6),
})


def _loaded(load, data) -> object:
    """The poset ``load`` builds from ``data``, or the type and text of what it raises."""
    try:
        return load(data)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(data=_hostile_documents)
@example(data={"elements": ["a", "b"], "covers": ["ab"]})  # a string would unpack as a pair
@example(data={"elements": ["a"], "covers": [[1, "a"]]})  # the build meets 1 as an unknown label
@example(data={"elements": ["a", "a"], "covers": [["a", "zz"], [True, "a"]]})
@example(data={"elements": ["a"], "covers": [["zz", "a"]]})  # the low label is the unknown one
@example(data={"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"], None]})
@example(data={"elements": ["a", "b"], "covers": [_Pair(["a", "b"])]})  # no error: the poset is built
def test_loader_faults_match_the_two_pass_reference(data):
    # a malformed entry first, then a duplicate label, then an unknown one, then a cycle
    assert _loaded(poset_from_json, data) == _loaded(oracle_poset_from_json, data)


def test_load_poset_from_file():
    p = load_poset(str(DATA / "two_chain.json"))
    assert p.elements == ("a", "b")
    assert p.le("a", "b")


def test_load_poset_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(FormatError):
        load_poset(str(bad))


def test_dot_output_is_exact():
    assert to_dot(chain(2)) == (
        'digraph poset {\n'
        '  rankdir=BT;\n'
        '  "c0";\n'
        '  "c1";\n'
        '  "c0" -> "c1";\n'
        '}\n'
    )


def test_known_isomorphism_class_counts():
    assert [len(all_posets(n)) for n in range(1, 5)] == [1, 2, 5, 16]


@given(st.integers(0, 10**6), st.integers(1, 6))
def test_random_poset_satisfies_order_axioms(seed, n):
    p = random_poset(n, Random(seed))
    elems = p.elements
    for a in elems:
        assert p.le(a, a)
        for b in elems:
            if p.le(a, b) and p.le(b, a):
                assert a == b
            for c in elems:
                if p.le(a, b) and p.le(b, c):
                    assert p.le(a, c)


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
def test_up_set_is_a_closure_operator(seed, n, data):
    p = random_poset(n, Random(seed))
    subset = data.draw(st.sets(st.sampled_from(p.elements)))
    up = p.up_set(subset)
    assert subset <= up
    assert p.up_set(up) == up
    down = p.down_set(subset)
    assert subset <= down
    assert p.down_set(down) == down


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
def test_up_and_down_sets_are_monotone(seed, n, data):
    p = random_poset(n, Random(seed))
    smaller = data.draw(st.sets(st.sampled_from(p.elements)))
    bigger = smaller | data.draw(st.sets(st.sampled_from(p.elements)))
    assert p.up_set(smaller) <= p.up_set(bigger)
    assert p.down_set(smaller) <= p.down_set(bigger)


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
def test_supremum_is_the_least_upper_bound(seed, n, data):
    p = random_poset(n, Random(seed))
    subset = data.draw(st.sets(st.sampled_from(p.elements), min_size=1))
    uppers = [u for u in p.elements if all(p.le(a, u) for a in subset)]
    least = [u for u in uppers if all(p.le(u, v) for v in uppers)]
    top = p.supremum(subset)
    if least:
        assert top == least[0] and len(least) == 1
        assert all(top in p.up_set([a]) for a in subset)
    else:
        assert top is None


@given(st.integers(0, 10**6), st.integers(1, 6))
def test_random_poset_has_maximal_elements(seed, n):
    p = random_poset(n, Random(seed))
    maximal = p.maximal_elements()
    assert maximal
    for m in maximal:
        for other in p.elements:
            assert m == other or not p.le(m, other)
    assert maximal == frozenset(
        x for x in p.elements if p.up_set([x]) == frozenset({x})
    )


def _relations(n: int, pairs):
    """Every relation on n points whose pairs are drawn from ``pairs``, as rows."""
    for choice in range(1 << len(pairs)):
        masks = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if choice >> bit & 1:
                masks[i] |= 1 << j
        yield masks


def _agrees_with_warshall(masks: list[int]) -> list[int]:
    closed = list(masks)
    cycle = _transitive_close(closed)
    assert closed == oracle_transitive_close(masks), masks
    # the closing pass reports the antisymmetry witness the definitional check finds
    assert _order_violation(closed) == (None if cycle is None else ("antisymmetric", cycle)), masks
    return closed


def test_mirror_matches_the_bit_walk():
    rng = Random(1000)
    cases = [(mask, n) for n in range(11) for mask in range(1 << n)]
    for n in range(11, 21):
        cases += [(0, n), ((1 << n) - 1, n), *((rng.getrandbits(n), n) for _ in range(200))]
    cases += [(0, 1000), ((1 << 1000) - 1, 1000), *((rng.getrandbits(1000), 1000) for _ in range(50))]
    for mask, n in cases:
        assert _mirror(mask, n) == oracle_mirror(mask, n), (mask, n)


def test_closure_matches_warshall_on_every_small_relation():
    for n in range(4):
        for masks in _relations(n, [(i, j) for i in range(n) for j in range(n)]):
            _agrees_with_warshall(masks)
    for masks in _relations(4, [(i, j) for i in range(4) for j in range(4) if i != j]):
        _agrees_with_warshall(masks)


def test_closure_matches_warshall_on_random_cyclic_relations():
    rng = Random(1972)
    cyclic = 0
    for _ in range(500):
        n = rng.randint(5, 40)
        density = rng.uniform(0.0, 4.0 / n)
        masks = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        closed = _agrees_with_warshall(masks)
        cyclic += _order_violation(closed) is not None
    assert 0 < cyclic < 500


@pytest.mark.parametrize("width,depth", [(2, 6), (3, 5)])
@pytest.mark.parametrize("mode", [MODE_L, MODE_LHAT])
def test_closure_matches_warshall_on_truncation_covers(width, depth, mode):
    p, _ = truncate_domain(width, depth, mode)
    masks = [0] * len(p)
    for low, high in p.covers():
        masks[p.index(low)] |= 1 << p.index(high)
    assert _agrees_with_warshall(masks) == list(p._up)


def test_posets_closed_from_covers_satisfy_the_order_axioms():
    for p in oracle_posets():
        q = build_poset(p.elements, p.covers())
        assert q == p, p.covers()
        assert _order_violation(q._up) is None, p.covers()
    for width, depth in ((2, 6), (3, 5)):
        for mode in (MODE_L, MODE_LHAT):
            assert _order_violation(truncate_domain(width, depth, mode)[0]._up) is None


def _patch_ordtop(monkeypatch, attr, replacement):
    """Replace ``attr`` on every ``ordtop`` module that has it, imported names included."""
    for name, module in list(sys.modules.items()):
        if (name == "ordtop" or name.startswith("ordtop.")) and hasattr(module, attr):
            monkeypatch.setattr(module, attr, replacement)


def test_closing_builds_never_recheck_the_order_axioms(monkeypatch, capsys):
    calls = []

    def spy(masks):
        calls.append(len(masks))
        return _order_violation(masks)

    def refuse(*args):
        raise AssertionError("truncate-l built the point map")

    _patch_ordtop(monkeypatch, "_order_violation", spy)
    build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    truncate_domain(2, 3, MODE_LHAT)
    _patch_ordtop(monkeypatch, "truncate_domain", refuse)
    assert main(["truncate-l", "--width", "2", "--depth", "3"]) == 0
    golden = DATA / "golden" / "argv" / "truncate-l_2x3_L.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert calls == []
    FinitePoset.from_relation(["a", "b"], [("a", "a"), ("b", "b")])
    assert calls == [2]


@pytest.mark.parametrize("n,covers,message", [
    # a chain e0 < ... < e39 whose top is sent back below e35
    pytest.param(40, [(f"e{i}", f"e{i + 1}") for i in range(39)] + [("e39", "e35")],
                 "'e35' and 'e36' sit below each other", id="chain-back-edge"),
    # a three-cycle on high indices, entered from a low one
    pytest.param(40, [("e30", "e38"), ("e38", "e33"), ("e33", "e30"), ("e2", "e30")],
                 "'e30' and 'e33' sit below each other", id="three-cycle"),
    # a chain e0 < ... < e2999 whose top is sent back below e1500
    pytest.param(3000, [(f"e{i}", f"e{i + 1}") for i in range(2999)] + [("e2999", "e1500")],
                 "'e1500' and 'e1501' sit below each other", id="long-chain-back-edge"),
])
def test_cycles_at_high_indices_keep_their_message(n, covers, message):
    with pytest.raises(CycleDetected) as info:
        build_poset([f"e{i}" for i in range(n)], covers)
    assert str(info.value) == message


# -- networkx as a second oracle ------------------------------------------------


def _digraph(p: FinitePoset, edges) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(len(p)))
    g.add_edges_from(edges)
    return g


def _hasse(p: FinitePoset) -> nx.DiGraph:
    return _digraph(p, ((p.index(a), p.index(b)) for a, b in p.covers()))


def test_covers_and_maxima_match_the_networkx_reduction():
    for p in oracle_posets():
        n = len(p)
        strict = _digraph(p, ((i, j) for i in range(n) for j in _iter_bits(p._up[i]) if i != j))
        reduction = nx.transitive_reduction(strict)
        assert set(reduction.edges) == set(_hasse(p).edges), p.covers()
        sinks = {p.elements[i] for i in reduction.nodes if reduction.out_degree(i) == 0}
        assert p.maximal_elements() == sinks, p.covers()


def _relabeled(p: FinitePoset, order) -> FinitePoset:
    """The same order with its elements listed in the given index order."""
    elements = [p.elements[i] for i in order]
    pairs = ((p.elements[i], p.elements[j]) for i in range(len(p)) for j in _iter_bits(p._up[i]))
    return FinitePoset.from_relation(elements, pairs)


def test_covers_match_the_pairwise_oracle():
    # the generators and truncations list every element after the ones below it, and
    # then the walk visits covers only; relabeled copies make it visit non-covers too
    rng = Random(4096)
    posets = [_relabeled(p, order) for n in range(6) for p in all_posets(n)
              for order in permutations(range(n))]
    for _ in range(150):
        p = random_poset(rng.randint(1, 40), rng)
        order = list(range(len(p)))
        rng.shuffle(order)
        posets += [p, _relabeled(p, order), _relabeled(p, order[::-1])]
    for width in range(1, 4):
        for depth in range(1, 5):
            for mode in (MODE_L, MODE_LHAT):
                p, _ = truncate_domain(width, depth, mode)
                posets += [p, _relabeled(p, range(len(p) - 1, -1, -1))]
    for p in posets:
        assert p.covers() == oracle_covers(p), p.elements


def test_closure_matches_the_networkx_closure_of_the_covers():
    for p in oracle_posets():
        hasse = _hasse(p)
        masks = [sum(1 << j for j in hasse.successors(i)) for i in range(len(p))]
        _transitive_close(masks)
        closure = nx.transitive_closure_dag(hasse)
        assert masks == [1 << i | sum(1 << j for j in closure.successors(i))
                         for i in range(len(p))], p.covers()


def _nested_cycles(n: int, rng: Random) -> list[int]:
    """A shuffled path on n points, cut here and there, with back edges that close cycles inside cycles."""
    at = list(range(n))
    rng.shuffle(at)
    masks = [0] * n
    steps = [(a, a + 1) for a in range(n - 1) if rng.random() < 0.95]
    backs = []
    for _ in range(rng.randint(1, 8)):
        a = rng.randrange(n)
        backs.append((rng.randrange(a, n), a))
    forwards = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 10)]
    for a, b in steps + backs + forwards:
        masks[at[a]] |= 1 << at[b]
    return masks


def test_closure_matches_networkx_on_large_cyclic_relations():
    rng = Random(1973)
    cyclic = 0
    for _ in range(35):
        n = rng.randint(50, 300)
        masks = _nested_cycles(n, rng)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, j) for i in range(n) for j in _iter_bits(masks[i]))
        closure = nx.transitive_closure(g, reflexive=True)
        components = [sorted(c) for c in nx.strongly_connected_components(g) if len(c) > 1]
        closed = list(masks)
        cycle = _transitive_close(closed)
        assert closed == [sum(1 << j for j in closure.successors(i)) for i in range(n)], masks
        # the least pair of the cyclic component whose least member is least
        assert cycle == (tuple(min(components)[:2]) if components else None), masks
        cyclic += cycle is not None
    assert 0 < cyclic < 35



def test_isomorphism_search_matches_networkx_on_hasse_diagrams():
    # each poset against every other of its size, and against a shuffled copy
    rng = Random(1966)
    by_size: dict[int, list[FinitePoset]] = {}
    for p in oracle_posets():
        by_size.setdefault(len(p), []).append(p)
    pairs = [pair for posets in by_size.values() for pair in combinations(posets, 2)]
    for p in oracle_posets():
        shuffled = list(p.elements)
        rng.shuffle(shuffled)
        pairs.append((p, build_poset(shuffled, p.covers())))
    found = 0
    for p, q in pairs:
        iso = find_order_isomorphism(p, q)
        assert (iso is not None) == nx.is_isomorphic(_hasse(p), _hasse(q)), (p.covers(), q.covers())
        if iso is not None:
            found += 1
            assert sorted(iso.values(), key=q.index) == list(q.elements)
            assert all(p.le(a, b) == q.le(iso[a], iso[b]) for a in p.elements for b in p.elements)
    assert found >= len(oracle_posets())


def test_dot_edges_match_the_networkx_reduction():
    # the strict order from le(), not from covers(), reduced by networkx
    for p in oracle_posets():
        strict = nx.DiGraph()
        strict.add_nodes_from(p.elements)
        strict.add_edges_from((a, b) for a in p.elements for b in p.elements if a != b and p.le(a, b))
        expected = {f"  {_dot_quote(label_text(a))} -> {_dot_quote(label_text(b))};"
                    for a, b in nx.transitive_reduction(strict).edges}
        lines = to_dot(p).splitlines()
        edges = [line for line in lines if " -> " in line]
        assert len(edges) == len(expected) and set(edges) == expected, p.covers()
        assert lines[2:2 + len(p)] == [f"  {_dot_quote(label_text(x))};" for x in p.elements]
