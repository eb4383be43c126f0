"""End-to-end acceptance sweep.

Each criterion prints one visible PASS/FAIL line (through the capture
bypass) and asserts the same condition, so the suite output doubles as a
checklist.  Oracles here are deliberately independent re-derivations: brute
enumeration straight from definitions, never calls back into the code path
under test.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from ordtop import (
    ProductModel,
    SelectorPoint,
    SymbolicOpen,
    ThresholdRule,
    Cylinder,
    build_Q,
    build_poset,
    chain_pairs_model,
    compact_elements,
    covering_intersection,
    cutoff_open,
    diagonal_witness,
    factor_model,
    find_order_isomorphism,
    gdelta_certificate_lhat,
    idl_poset,
    is_gdelta,
    is_ideal_domain,
    is_maximal,
    is_scott_closed,
    is_upper_set,
    relative_topology,
    scott_opens,
    symbolic_member,
    truncate_domain,
    truncation_members,
    way_below,
    MODE_L,
    MODE_LHAT,
    OpenFamily,
)
from ordtop.symbolic import chain_label, top_label

from helpers import all_posets, discrete_model, max_shadow, random_poset, rooted_model, subsets

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


@pytest.fixture
def record(capsys):
    def _record(number: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _record


# -- 1: the finite engine agrees with first principles ---------------------------


def test_acceptance_1_finite_engine(record):
    started = time.monotonic()
    posets = [p for n in range(1, 5) for p in all_posets(n)]
    rng = Random(20260816)
    posets += [random_poset(rng.randint(1, 8), rng) for _ in range(500)]
    ok = True
    for p in posets:
        topology = scott_opens(p)
        topology.validate()
        for a in p.elements:
            for b in p.elements:
                if way_below(p, a, b) != p.le(a, b):
                    ok = False
        if compact_elements(p) != frozenset(p.elements):
            ok = False
        if not is_gdelta(topology, p.maximal_elements()):
            ok = False
    elapsed = time.monotonic() - started
    record(1, "finite engine", ok and elapsed < 60.0,
           f"{len(posets)} posets in {elapsed:.1f}s")


# -- 2: ideal completions of every small poset -----------------------------------


def test_acceptance_2_ideal_completions(record):
    ok = True
    checked = 0
    for n in range(1, 6):
        for p in all_posets(n):
            completion, embedding = idl_poset(p)
            checked += 1
            if find_order_isomorphism(p, completion) is None:
                ok = False
            if compact_elements(completion) != frozenset(embedding.values()):
                ok = False
            for a in p.elements:
                for b in p.elements:
                    if p.le(a, b) != completion.le(embedding[a], embedding[b]):
                        ok = False
    record(2, "ideal completions", ok and checked == 87, f"{checked} posets")


# -- 3: the factor construction against a brute-force oracle ---------------------


def _count_triples_by_definition(model: ProductModel) -> int:
    """Enumerate admissible triples straight from the definition."""
    p = model.poset
    maximal = p.maximal_elements()
    compact = [k for k in p.elements if way_below(p, k, k)]
    count = 0
    for k in compact:
        above = {model.max_labeling[m] for m in maximal if p.le(k, m)}
        for u in subsets(model.label_x):
            if not u or u not in model.topology_x.opens:
                continue
            for v in subsets(model.label_y):
                if model.y0 not in v or v not in model.topology_y.opens:
                    continue
                if all((x, y) in above for x in u for y in v):
                    count += 1
    return count


def _factor_instances():
    for nx in (1, 2, 3):
        for ny in (1, 2):
            yield discrete_model(nx, ny)
    yield rooted_model()
    yield chain_pairs_model(1)
    yield chain_pairs_model(2)


def test_acceptance_3_factor_construction(record):
    ok = True
    slowest = 0.0
    for model in _factor_instances():
        started = time.monotonic()
        q = build_Q(model)
        completion, point_map, report = factor_model(model)
        elapsed = time.monotonic() - started
        slowest = max(slowest, elapsed)
        if not report.ok:
            ok = False
        if len(q) != _count_triples_by_definition(model):
            ok = False
        if len(completion.maximal_elements()) != len(model.label_x):
            ok = False
        if not relative_topology(completion, completion.maximal_elements()).is_discrete:
            ok = False
        if set(point_map) != set(model.label_x):
            ok = False
        if elapsed >= 10.0:
            ok = False
    record(3, "factor construction", ok, f"slowest instance {slowest:.2f}s")


# -- 4: the two core laws, also under shuffled labelings --------------------------


def _shuffled_model(rng: Random) -> ProductModel:
    nx, ny = rng.randint(1, 3), rng.randint(1, 2)
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{j}" for j in range(ny)]
    names = [f"m{i}" for i in range(nx * ny)]
    rng.shuffle(names)
    pairs = [(x, y) for x in xs for y in ys]
    rng.shuffle(pairs)
    poset = build_poset(names, [])
    return ProductModel(poset, xs, ys, dict(zip(names, pairs)), rng.choice(ys))


def test_acceptance_4_factor_laws(record):
    rng = Random(416)
    models = list(_factor_instances()) + [_shuffled_model(rng) for _ in range(20)]
    ok = True
    for model in models:
        q = build_Q(model)
        _, _, report = factor_model(model)
        if not report.ok:
            ok = False
        for t in q.elements:
            if frozenset((x, y) for x in t.u for y in t.v) != max_shadow(model, t.k):
                ok = False
        for x in model.label_x:
            if covering_intersection(model, q, x) != frozenset({x}):
                ok = False
    record(4, "factor laws", ok, f"{len(models)} models")


# -- 5: the diagonal argument, cross-validated on truncations ---------------------


def _random_covering_family(rng: Random) -> OpenFamily:
    members = []
    for _ in range(rng.randint(3, 12)):
        exceptions = {
            rng.randint(0, 30): rng.randint(0, 100) for _ in range(rng.randint(0, 5))
        }
        members.append(
            SymbolicOpen(
                ThresholdRule(rng.randint(0, 100), tuple(exceptions.items())),
                all_level1=True,
            )
        )
    return OpenFamily(members)


def _random_open(rng: Random, mode: str) -> SymbolicOpen:
    default = rng.choice([None, 0, 1, 2, 3, 5])
    exceptions = {
        rng.randint(0, 6): rng.choice([None, 0, 1, 2, 3, 4, 6])
        for _ in range(rng.randint(0, 4))
    }
    cylinders = []
    for _ in range(rng.randint(0, 2)):
        conds = {
            rng.randint(0, 5): rng.randint(0, 3) for _ in range(rng.randint(0, 3))
        }
        levels = frozenset({0}) if mode == MODE_LHAT else rng.choice(
            [frozenset({0, 1}), frozenset({1})]
        )
        cylinders.append(Cylinder(tuple(conds.items()), levels))
    all_level1 = mode == MODE_L and rng.random() < 0.5
    return SymbolicOpen(
        ThresholdRule(default, tuple(exceptions.items())), all_level1, tuple(cylinders)
    )


def _oracle_members(open_set: SymbolicOpen, trunc, points, width: int, depth: int):
    """Seed-based oracle: members are the up set of explicit entry points."""
    thresholds = open_set.thresholds
    seeds = set()
    for i in range(width):
        t = thresholds(i)
        if t is None:
            continue
        seeds.add(top_label(i))
        if t < depth:
            seeds.add(chain_label(i, t))
    by_level = {0: [], 1: []}
    for label, point in points.items():
        if isinstance(point, SelectorPoint):
            by_level[point.level].append(label)
    # a zero threshold anywhere admits every selector point, because beyond
    # the truncated chains every selector sits at position zero
    zero_somewhere = thresholds.default == 0 or any(
        v == 0 for _, v in thresholds.exceptions
    )
    if zero_somewhere:
        seeds.update(by_level[0])
    if open_set.all_level1:
        seeds.update(by_level[1])
    for cylinder in open_set.cylinders:
        for level in cylinder.levels:
            for label in by_level[level]:
                selector = points[label].selector
                if all(selector(i) >= m for i, m in cylinder.conds):
                    seeds.add(label)
    return trunc.up_set(seeds)


def test_acceptance_5_diagonal_and_truncations(record):
    rng = Random(3105)
    ok = True

    families = [_random_covering_family(rng) for _ in range(50)]
    families.append(
        OpenFamily(
            SymbolicOpen(ThresholdRule(default=j), all_level1=True) for j in range(100)
        )
    )
    for family in families:
        witness, report = diagonal_witness(family)
        if not report.ok:
            ok = False
        point = SelectorPoint(witness, 0)
        for j in family.indices():
            if not symbolic_member(family.member(j), point):
                ok = False
        if is_maximal(point, MODE_L):
            ok = False

    comparisons = 0
    for mode, width, depth, extra in (
        (MODE_L, 4, 4, []),
        (MODE_LHAT, 4, 4, [cutoff_open(k) for k in range(5)]),
    ):
        trunc, points = truncate_domain(width, depth, mode)
        opens = [_random_open(rng, mode) for _ in range(60)] + extra + [
            SymbolicOpen(ThresholdRule(default=depth)),
            SymbolicOpen(ThresholdRule(default=None)),
        ]
        for u in opens:
            members = truncation_members(u, points)
            if members != _oracle_members(u, trunc, points, width, depth):
                ok = False
            if not is_upper_set(trunc, members):
                ok = False
            comparisons += 1
    record(5, "diagonal and truncations", ok,
           f"{len(families)} families, {comparisons} open-set comparisons")


# -- 6: the countable certificate for the pruned domain ---------------------------


def test_acceptance_6_countable_certificate(record):
    started = time.monotonic()
    report = gdelta_certificate_lhat(50)
    elapsed = time.monotonic() - started
    keys = [key for key, _ in report.entries]
    ok = (
        report.ok
        and sum(1 for k in keys if k.startswith("cutoff ")) == 51
        and "non-maximal-chain-points-excluded" in keys
        and "chain-tops-in-every-cutoff" in keys
        and "selector-points-in-every-cutoff" in keys
        and elapsed < 5.0
    )
    record(6, "countable certificate", ok, f"{elapsed:.2f}s")


# -- 7: closed subspaces of maximal point spaces keep their models -----------------


def test_acceptance_7_closed_subspace_models(record):
    ok = True
    checked = 0
    for n in range(1, 6):
        for p in all_posets(n):
            if not is_ideal_domain(p):
                ok = False
                continue
            maximal = p.maximal_elements()
            rel = relative_topology(p, maximal)
            closed_sets = {frozenset(maximal) - u for u in rel.opens}
            for s in closed_sets:
                checked += 1
                lower = p.down_set(s)
                if not is_scott_closed(p, lower):
                    ok = False
                sub = p.restrict(lower)
                if not is_ideal_domain(sub):
                    ok = False
                if sub.maximal_elements() != s:
                    ok = False
                sub_rel = relative_topology(sub, s)
                if sub_rel.opens != frozenset(u & s for u in rel.opens):
                    ok = False
    record(7, "closed subspace models", ok, f"{checked} closed subsets")


# -- 8: the command line is deterministic ------------------------------------------


def test_acceptance_8_cli_determinism(record, tmp_path):
    bad_family = tmp_path / "family_gap.json"
    bad_family.write_text(json.dumps([
        {"thresholds": {"default": 0, "exceptions": {}}, "allPhiLevel1": True},
        {"thresholds": {"default": None, "exceptions": {}}, "allPhiLevel1": True},
    ]))
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(
        {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}
    ))
    commands = [
        ["check", "--input", str(DATA / "diamond.json")],
        ["topology", "--input", str(DATA / "two_chain.json")],
        ["maxspace", "--input", str(DATA / "diamond.json")],
        ["idl", "--input", str(DATA / "diamond.json")],
        ["factor", "--input", str(DATA / "model_3x2.json")],
        ["lower-model", "--input", str(DATA / "model_2x1.json"), "--y0", "y"],
        ["diagonal", "--input", str(DATA / "family_uniform3.json")],
        ["lhat-cert", "--eval-bound", "10"],
        ["truncate-l", "--width", "2", "--depth", "2"],
        ["hasse", "--input", str(DATA / "two_chain.json")],
        ["diagonal", "--input", str(bad_family)],
        ["check", "--input", str(cycle)],
    ]
    expected_codes = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2]
    # the child processes import this checkout's package, as the test process does
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    ok = True
    for command, expected in zip(commands, expected_codes):
        outcomes = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-m", "ordtop", *command],
                capture_output=True,
                env=env,
                cwd=str(ROOT),
            )
            outcomes.append((result.returncode, result.stdout, result.stderr))
        if outcomes[0] != outcomes[1] or outcomes[0][0] != expected:
            ok = False
    record(8, "cli determinism", ok, f"{len(commands)} commands x 2 seeds")
