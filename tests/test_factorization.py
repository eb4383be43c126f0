from functools import cached_property
from itertools import permutations
from random import Random

import pytest

from ordtop import (
    DuplicateLabel,
    FormatError,
    Ideal,
    InputError,
    InvalidModel,
    NotAnIdeal,
    NotAProductTopology,
    ProductModel,
    QTriple,
    Topology,
    UnknownLabel,
    VerificationFailed,
    algebraic_model,
    build_Q,
    build_poset,
    chain_pairs_model,
    covering_intersection,
    factor_model,
    find_order_isomorphism,
    ideal_J,
    idl_poset,
    lower_set_model,
    model_from_json,
    model_to_json,
    product,
    relative_topology,
    scott_opens,
    split_product_topology,
    verify_claims,
)
import ordtop.factorization as factorization
from ordtop.generate import all_posets
from ordtop.poset import _transitive_close

from helpers import (
    chain,
    diamond,
    discrete_model,
    oracle_box_order_Q,
    oracle_build_Q,
    oracle_max_shadow,
    oracle_posets,
    oracle_split_product_topology,
    rooted_model,
    vshape,
)


def test_qtriple_renders_sorted():
    t = QTriple(frozenset({"x2", "x1"}), frozenset({"y"}), "k0")
    assert str(t) == "(U={x1,x2},V={y},k=k0)"


def test_split_product_topology_recovers_discrete_factors():
    xs, ys = ("x1", "x2"), ("y1", "y2")
    pairs = [(x, y) for x in xs for y in ys]
    every = [frozenset(s) for s in _powerset(pairs)]
    tx, ty = split_product_topology(Topology.from_opens(pairs, every), xs, ys)
    assert tx.is_discrete and ty.is_discrete


def test_split_product_topology_rejects_a_diagonal():
    xs, ys = ("x1", "x2"), ("y1", "y2")
    pairs = [(x, y) for x in xs for y in ys]
    diagonal = frozenset({("x1", "y1"), ("x2", "y2")})
    t = Topology.from_opens(pairs, [frozenset(), frozenset(pairs), diagonal])
    with pytest.raises(NotAProductTopology):
        split_product_topology(t, xs, ys)


def test_split_product_topology_needs_the_pair_space():
    t = Topology.from_opens(["a"], [frozenset(), frozenset({"a"})])
    with pytest.raises(InvalidModel):
        split_product_topology(t, ("x",), ("y1", "y2"))


def _both_splits(topology, xs, ys):
    """The factors from the fast split and from the explicit-family oracle, or None for both."""
    outcomes = []
    for split in (split_product_topology, oracle_split_product_topology):
        try:
            outcomes.append(split(topology, xs, ys))
        except NotAProductTopology:
            outcomes.append(None)
    return outcomes


def test_split_matches_the_oracle_on_every_preorder_of_the_2x2_pairs():
    xs, ys = ("x1", "x2"), ("y1", "y2")
    pairs = [(x, y) for x in xs for y in ys]
    off = [(i, j) for i in range(4) for j in range(4) if i != j]
    verdicts = set()
    for choice in range(1 << len(off)):
        masks = [1 << i for i in range(4)]
        for bit, (i, j) in enumerate(off):
            if choice >> bit & 1:
                masks[i] |= 1 << j
        closed = list(masks)
        _transitive_close(closed)
        if closed != masks:
            continue
        fast, slow = _both_splits(Topology(pairs, masks), xs, ys)
        assert fast == slow, masks
        verdicts.add(fast is None)
    assert verdicts == {True, False}


def test_split_recovers_both_factors_of_poset_products():
    for p in [q for n in range(1, 4) for q in all_posets(n)]:
        for q in [r for n in range(1, 3) for r in all_posets(n)]:
            topology = scott_opens(product(p, q))
            fast, slow = _both_splits(topology, p.elements, q.elements)
            assert fast == slow == (scott_opens(p), scott_opens(q))


def test_split_matches_the_oracle_on_random_3x2_topologies():
    rng = Random(1966)
    xs, ys = ("x1", "x2", "x3"), ("y1", "y2")
    pairs = [(x, y) for x in xs for y in ys]
    verdicts = set()
    for _ in range(300):
        masks = [sum(1 << j for j in range(6) if rng.random() < 0.15) for _ in range(6)]
        _transitive_close(masks)
        fast, slow = _both_splits(Topology(pairs, masks), xs, ys)
        assert fast == slow, masks
        verdicts.add(fast is None)
    assert verdicts == {True, False}


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


def test_model_validation_errors():
    poset = build_poset(["(x0,y0)"], [])
    labeling = {"(x0,y0)": ("x0", "y0")}
    with pytest.raises(InvalidModel):
        ProductModel(poset, [], ["y0"], labeling, "y0")
    with pytest.raises(DuplicateLabel):
        ProductModel(poset, ["x0", "x0"], ["y0"], labeling, "y0")
    with pytest.raises(UnknownLabel):
        ProductModel(poset, ["x0"], ["y0"], labeling, "zzz")
    with pytest.raises(InvalidModel):
        ProductModel(poset, ["x0"], ["y0"], {}, "y0")
    with pytest.raises(InvalidModel):
        ProductModel(poset, ["x0"], ["y0"], {"(x0,y0)": ("x0", "nope")}, "y0")
    two = build_poset(["m1", "m2"], [])
    with pytest.raises(InvalidModel):
        ProductModel(
            two, ["x0", "x1"], ["y0"],
            {"m1": ("x0", "y0"), "m2": ("x0", "y0")}, "y0",
        )


def test_factor_topologies_of_a_discrete_model_are_discrete():
    model = discrete_model(3, 2)
    tx, ty = model.topology_x, model.topology_y
    assert tx.is_discrete and len(tx.opens) == 8
    assert ty.is_discrete and len(ty.opens) == 4


def test_factor_pipeline_lists_no_open(monkeypatch):
    # the library lists an open family only through Topology.open_masks, and
    # the pipeline reads smallest opens only: it lists no open at all
    listed = []
    build = Topology.open_masks.func

    def spy(self):
        listed.append(len(self.space))
        return build(self)

    spied = cached_property(spy)
    spied.__set_name__(Topology, "open_masks")
    monkeypatch.setattr(Topology, "open_masks", spied)
    m = discrete_model(5, 3)
    assert factor_model(m)[2].ok
    assert lower_set_model(m, "y0")[1].ok
    assert listed == []


def test_triple_poset_of_the_rooted_model_is_two_chains():
    m = rooted_model()
    q = build_Q(m)
    v = frozenset({"y"})
    low1 = QTriple(frozenset({"x1"}), v, "a1")
    top1 = QTriple(frozenset({"x1"}), v, "(x1,y)")
    low2 = QTriple(frozenset({"x2"}), v, "a2")
    top2 = QTriple(frozenset({"x2"}), v, "(x2,y)")
    assert set(q.elements) == {low1, top1, low2, top2}
    assert q.lt(low1, top1) and q.lt(low2, top2)
    assert not q.le(low1, top2) and not q.le(low2, top1)
    assert not q.le(top1, low1)


def test_selected_triples_form_ideals():
    m = rooted_model()
    q = build_Q(m)
    ideal = ideal_J(m, "x1", q)
    assert ideal.members == frozenset(t for t in q.elements if "x1" in t.u)
    assert len(ideal.members) == 2
    with pytest.raises(UnknownLabel):
        ideal_J(m, "zzz", q)


def test_a_single_point_factor_selects_every_triple():
    # with one X label, every first slot contains it
    m = discrete_model(1, 2)
    q = build_Q(m)
    assert ideal_J(m, "x0", q).members == frozenset(q.elements)


def test_selection_on_a_doctored_poset_is_rejected():
    m = rooted_model()
    v = frozenset({"y"})
    t1 = QTriple(frozenset({"x1"}), v, "a1")
    t2 = QTriple(frozenset({"x2"}), v, "a2")
    doctored = build_poset([t1, t2], [(t1, t2)])
    with pytest.raises(NotAnIdeal, match="^triples selected by 'x2' are not an ideal: "):
        ideal_J(m, "x2", doctored)


def _pipeline(m):
    q = build_Q(m)
    completion, _ = idl_poset(q)
    return q, completion, {x: ideal_J(m, x, q).members for x in m.label_x}


def _fails(report, key) -> bool:
    """The verdict is no, and the claim's own line says no with a witness."""
    return not report.ok and dict(report.entries)[key].startswith("no [")


def test_verification_rejects_swapped_ideals():
    m = rooted_model()
    q, completion, selected = _pipeline(m)
    swapped = {"x1": selected["x2"], "x2": selected["x1"]}
    report = verify_claims(m, q, completion, swapped)
    assert not report.ok and dict(report.entries)["claim-selected-are-ideals"] == "no [x1]"


def test_verification_rejects_ideals_over_another_base():
    m = rooted_model()
    q, completion, selected = _pipeline(m)
    # J(x1)'s lower triple alone is an ideal, of Q and of the subposet it
    # spans, but not the set of triples that x1 selects
    lower = frozenset(t for t in selected["x1"] if t.k == "a1")
    assert lower < selected["x1"] and Ideal(q, lower).members == lower
    selected["x1"] = lower
    report = verify_claims(m, q, completion, selected)
    assert not report.ok and dict(report.entries)["claim-selected-are-ideals"] == "no [x1]"


def test_verification_rejects_a_doctored_completion():
    m = rooted_model()
    q, completion, selected = _pipeline(m)
    flattened = build_poset(completion.elements, [])
    report = verify_claims(m, q, flattened, selected)
    assert _fails(report, "claim-max-ideals-are-selected")


def test_verification_rejects_a_coarser_x_topology():
    m = discrete_model(3, 2)
    q, completion, selected = _pipeline(m)
    m.topology_x = Topology(m.label_x, [0b111] * 3)
    report = verify_claims(m, q, completion, selected)
    assert _fails(report, "claim-map-continuous")


def test_verification_rejects_a_non_discrete_maximal_space(monkeypatch):
    m = discrete_model(3, 2)
    q, completion, selected = _pipeline(m)
    honest = factorization.relative_topology

    def indiscrete(p, subspace):
        rel = honest(p, subspace)
        return Topology(rel.space, [(1 << len(rel.space)) - 1] * len(rel.space))

    monkeypatch.setattr(factorization, "relative_topology", indiscrete)
    report = verify_claims(m, q, completion, selected)
    assert _fails(report, "claim-map-open")


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (3, 2)])
def test_factor_model_recovers_the_first_factor(nx, ny):
    m = discrete_model(nx, ny)
    completion, point_map, report = factor_model(m)
    assert report.ok
    assert set(point_map) == set(m.label_x)
    assert len(completion.maximal_elements()) == nx
    rel = relative_topology(completion, completion.maximal_elements())
    assert rel.is_discrete


def test_factor_model_on_the_rooted_model():
    completion, point_map, report = factor_model(rooted_model())
    assert report.ok
    assert len(completion) == 4
    assert len(completion.maximal_elements()) == 2
    assert {len(s) for s in point_map.values()} == {2}


def test_covering_intersection_isolates_the_point():
    for m in [rooted_model(), discrete_model(3, 2), chain_pairs_model(2)]:
        q = build_Q(m)
        for x in m.label_x:
            assert covering_intersection(m, q, x) == frozenset({x})


def _labelled_models(p):
    """p with its maxima labelled by X x Y in every way, for each factoring of their count.

    The factor topologies are discrete, so renaming Y labels gives nothing
    new: the base point stays the first Y label.
    """
    maxima = [e for e in p.elements if e in p.maximal_elements()]
    for nx in range(1, len(maxima) + 1):
        if len(maxima) % nx == 0:
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{j}" for j in range(len(maxima) // nx)]
            for pairs in permutations([(x, y) for x in xs for y in ys]):
                yield ProductModel(p, xs, ys, dict(zip(maxima, pairs)), ys[0])


def _random_model(rng):
    """1-3 x 1-2 labelled maxima under up to six extra elements, each below some maximum."""
    xs = [f"x{i}" for i in range(rng.randint(1, 3))]
    ys = [f"y{j}" for j in range(rng.randint(1, 2))]
    labeling = {f"({x},{y})": (x, y) for x in xs for y in ys}
    extras = [f"e{i}" for i in range(rng.randint(0, 6))]
    covers = []
    for i, e in enumerate(extras):
        above = extras[i + 1:] + list(labeling)
        covers += [(e, h) for h in rng.sample(above, rng.randint(1, min(3, len(above))))]
    elements = extras + list(labeling)
    rng.shuffle(elements)
    return ProductModel(build_poset(elements, covers), xs, ys, labeling, rng.choice(ys))


def _compared_models() -> list[ProductModel]:
    """Every labelled model on the posets with up to 5 elements, and 300 seeded random ones."""
    rng = Random(11)
    models = [m for p in oracle_posets() if len(p) <= 5 for m in _labelled_models(p)]
    return models + [_random_model(rng) for _ in range(300)]


def test_max_shadow_matches_the_label_sets():
    for m in _compared_models():
        for k in m.poset.elements:
            assert m.max_shadow(k) == oracle_max_shadow(m, k), (m.poset.covers(), k)
    with pytest.raises(InputError):
        m.max_shadow("no such element")


def test_triple_poset_matches_both_enumerations():
    # the enumeration gives the same Q wherever its shadow order is one, and
    # ordering its triples by comparing boxes gives a Q whose claims hold too
    models = _compared_models()
    enumerated = multi_pair = 0
    for m in models:
        q = build_Q(m)
        _, point_map, report = factor_model(m)
        assert report.ok
        # the one pass over the triples selects what J's definition does
        assert point_map == {x: frozenset(t for t in q.elements if x in t.u) for x in m.label_x}
        try:
            oracle = oracle_build_Q(m)
        except VerificationFailed as exc:
            # the broken triple order itself, not a subclass caught on the way
            assert type(exc) is VerificationFailed and "triple order" in str(exc)
            oracle = None
        if oracle is not None:
            enumerated += 1
            assert oracle.elements == q.elements and oracle._up == q._up
        boxes = oracle_box_order_Q(m)
        completion, _ = idl_poset(boxes)
        selected = {x: ideal_J(m, x, boxes).members for x in m.label_x}
        assert verify_claims(m, boxes, completion, selected).ok
        multi_pair += any(len(m.max_shadow(k)) > 1 for k in m.poset.elements)
    assert 0 < enumerated < len(models)
    assert multi_pair > len(models) // 3


def test_chain_pairs_model_shape():
    m = chain_pairs_model(1)
    assert len(m.poset) == 7
    assert len(build_Q(m)) == 2
    _, _, report = factor_model(m)
    assert report.ok
    with pytest.raises(InvalidModel):
        chain_pairs_model(-1)


def test_lower_set_models_of_both_fibers():
    m = chain_pairs_model(1)
    sub0, report0 = lower_set_model(m, "0")
    assert report0.ok
    assert sub0.maximal_elements() == frozenset({"(0,0)", "(1,0)"})
    sub1, report1 = lower_set_model(m, "1")
    assert report1.ok
    assert "inf" in sub1.elements
    with pytest.raises(UnknownLabel):
        lower_set_model(m, "zzz")


def test_lower_set_model_with_extra_covers():
    base = chain_pairs_model(1)
    poset = build_poset(base.poset.elements, base.poset.covers() + (("0", "(1,0)"),))
    m = ProductModel(poset, base.label_x, base.label_y, base.max_labeling, base.y0)
    sub, report = lower_set_model(m, "0")
    assert report.ok
    assert "0" in sub.elements


def test_algebraic_model_preserves_the_maximal_space():
    for p in [chain(3), diamond(), vshape()]:
        completion = algebraic_model(p)
        assert find_order_isomorphism(p, completion) is not None
        assert len(completion.maximal_elements()) == len(p.maximal_elements())


def test_model_json_round_trip():
    m = discrete_model(2, 2)
    again = model_from_json(model_to_json(m))
    assert again.poset == m.poset
    assert again.label_x == m.label_x
    assert again.label_y == m.label_y
    assert again.max_labeling == m.max_labeling
    assert again.y0 == m.y0


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("y0"),
        lambda d: d.update(labelX="x0"),
        lambda d: d.update(maxLabeling=[]),
        lambda d: d["maxLabeling"].update({"(x0,y0)": ["x0"]}),
    ],
)
def test_model_json_rejects_malformed_documents(mangle):
    data = model_to_json(discrete_model(1, 1))
    mangle(data)
    with pytest.raises(FormatError):
        model_from_json(data)


def test_model_json_rejects_non_objects():
    with pytest.raises(FormatError):
        model_from_json([1, 2, 3])
