import json
import tracemalloc
from collections.abc import Mapping
from itertools import product as cartesian
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop
from ordtop import (
    MODE_L,
    MODE_LHAT,
    ChainPoint,
    ChainTop,
    Cylinder,
    FinitePoset,
    FormatError,
    NotCoveringMax,
    OpenFamily,
    Selector,
    SelectorPoint,
    SymbolicOpen,
    ThresholdRule,
    contains_max,
    cutoff_open,
    diagonal_witness,
    family_from_json,
    family_to_json,
    gdelta_certificate_lhat,
    in_mode,
    is_ideal_domain,
    is_maximal,
    is_scott_open,
    l_leq,
    open_from_json,
    open_to_json,
    poset,
    poset_to_json,
    symbolic_member,
    truncate_domain,
    truncation_members,
    truncation_poset,
    symbolic,
    validate_open,
)
from ordtop.cli import main
from ordtop.symbolic import MODES, _forced, truncation_hasse, truncation_size

from helpers import oracle_forced, oracle_gdelta_certificate_lhat, oracle_truncation


def uniform_family(size: int) -> OpenFamily:
    return OpenFamily(
        SymbolicOpen(ThresholdRule(default=j), all_level1=True) for j in range(size)
    )


# -- order -----------------------------------------------------------------------


def test_order_within_a_chain():
    assert l_leq(ChainPoint(0, 1), ChainPoint(0, 3))
    assert not l_leq(ChainPoint(0, 3), ChainPoint(0, 1))
    assert not l_leq(ChainPoint(0, 1), ChainPoint(1, 3))
    assert l_leq(ChainPoint(0, 5), ChainTop(0))
    assert not l_leq(ChainPoint(0, 5), ChainTop(1))
    assert not l_leq(ChainTop(0), ChainPoint(0, 99))


def test_order_around_selector_points():
    s = Selector.from_mapping({0: 2, 1: 5})
    assert l_leq(ChainPoint(0, 2), SelectorPoint(s, 0))
    assert l_leq(ChainPoint(0, 1), SelectorPoint(s, 0))
    assert not l_leq(ChainPoint(0, 3), SelectorPoint(s, 0))
    assert l_leq(ChainPoint(7, 0), SelectorPoint(s, 0))  # default pick is 0
    assert l_leq(SelectorPoint(s, 0), SelectorPoint(s, 1))
    assert not l_leq(SelectorPoint(s, 1), SelectorPoint(s, 0))
    other = Selector.from_mapping({0: 2})
    assert not l_leq(SelectorPoint(s, 0), SelectorPoint(other, 1))
    assert not l_leq(ChainTop(0), SelectorPoint(s, 0))


_points = st.one_of(
    st.builds(ChainPoint, st.integers(0, 2), st.integers(0, 3)),
    st.builds(ChainTop, st.integers(0, 2)),
    st.builds(
        SelectorPoint,
        st.builds(
            Selector.from_mapping,
            st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=3),
            st.integers(0, 1),
        ),
        st.integers(0, 1),
    ),
)


@given(_points, _points, _points)
def test_symbolic_order_is_a_partial_order(a, b, c):
    assert l_leq(a, a)
    if l_leq(a, b) and l_leq(b, a):
        assert a == b
    if l_leq(a, b) and l_leq(b, c):
        assert l_leq(a, c)


def test_selector_normalization_drops_default_picks():
    s = Selector.from_mapping({0: 0, 1: 2, 5: 0}, default=0)
    assert s.exceptions == ((1, 2),)
    assert s(0) == 0 and s(1) == 2 and s(99) == 0
    assert s == Selector.from_mapping({1: 2})


def test_selector_rejects_bad_values():
    with pytest.raises(ValueError):
        Selector.from_mapping({0: -1})
    with pytest.raises(ValueError):
        Selector.from_mapping({-1: 0})
    with pytest.raises(ValueError):
        Selector(default=-2)
    # a bool is not a natural number here, as in the JSON layer
    with pytest.raises(ValueError):
        Selector.from_mapping({0: True})
    with pytest.raises(ValueError):
        ThresholdRule(True)
    with pytest.raises(ValueError):
        ThresholdRule.from_mapping({2: False})


def _scan(rule, i):
    # the definition: an exception for chain i, else the default
    for j, value in rule.exceptions:
        if j == i:
            return value
    return rule.default


def test_lookups_match_a_scan_of_the_exceptions():
    rng = Random(2003)
    for _ in range(300):
        chains = rng.sample(range(60), rng.randint(0, 20))
        default = rng.randint(0, 3)
        selector = Selector.from_mapping({i: rng.randint(0, 4) for i in chains}, default)
        threshold_default = rng.choice([None, 0, 1, 2])
        rule = ThresholdRule.from_mapping(
            {i: rng.choice([None, 0, 1, 2, 3]) for i in chains}, threshold_default
        )
        for i in range(80):
            assert selector(i) == _scan(selector, i)
            assert rule(i) == _scan(rule, i)


def test_lookup_tables_leave_value_semantics_alone():
    selector, fresh = (Selector.from_mapping({3: 1, 7: 4}, default=2) for _ in range(2))
    rule, fresh_rule = (ThresholdRule.from_mapping({0: None, 5: 3}, 1) for _ in range(2))
    assert selector(7) == 4 and rule(0) is None
    # each side is the longer function once
    assert not _forced(ThresholdRule(9), selector)
    assert not _forced(rule, Selector(default=0))
    # the canonical steps are the whole state: nothing is cached beside them
    assert vars(selector).keys() == vars(rule).keys() == {"starts", "values"}
    assert (selector.starts, selector.values) == ((0, 3, 4, 7, 8), (2, 1, 2, 4, 2))
    assert (rule.starts, rule.values) == ((0, 1, 5, 6), (None, 1, 3, 1))
    assert repr(rule) == "ThresholdRule(starts=(0, 1, 5, 6), values=(None, 1, 3, 1))"
    assert selector == fresh and hash(selector) == hash(fresh) and repr(selector) == repr(fresh)
    assert rule == fresh_rule and hash(rule) == hash(fresh_rule) and repr(rule) == repr(fresh_rule)
    assert dict(selector.exceptions) == {3: 1, 7: 4}


# chain indices near 0, where runs and equal neighbours are common, and past 2**63
_indices = st.integers(0, 12) | st.integers(2**63 - 2, 2**63 + 2) | st.just(2**64)


def _values(rule_class):
    return st.integers(0, 3) | st.none() if rule_class is ThresholdRule else st.integers(0, 3)


def _same_function(points, default, other_points, other_default):
    # past every named chain both sides hold their defaults
    return default == other_default and all(
        points.get(i, default) == other_points.get(i, other_default)
        for i in points.keys() | other_points.keys())


def _assert_canonical(rule, points, default):
    assert rule.starts[0] == 0 and all(a < b for a, b in zip(rule.starts, rule.starts[1:]))
    assert len(rule.starts) == len(rule.values) and rule.default == default
    assert all(a != b for a, b in zip(rule.values, rule.values[1:]))
    assert rule.exceptions == tuple(sorted((i, v) for i, v in points.items() if v != default))
    probes = {0, *(j for i in points for j in (i - 1, i, i + 1) if j >= 0)}
    for i in probes | {max(probes) + 1}:
        assert rule(i) == points.get(i, default)


@given(st.sampled_from([Selector, ThresholdRule]), st.data())
def test_rules_are_equal_exactly_when_their_points_agree(rule_class, data):
    values = _values(rule_class)
    points, default = data.draw(st.dictionaries(_indices, values, max_size=8)), data.draw(values)
    if data.draw(st.booleans()):
        # a respelling of the same function: other default-valued entries, in another order
        other = {i: v for i, v in points.items() if v != default or data.draw(st.booleans())}
        other |= {i: default for i in data.draw(st.lists(_indices, max_size=3)) if i not in points}
        other_default = default
    else:
        other = data.draw(st.dictionaries(_indices, values, max_size=8))
        other_default = data.draw(values)
    rule, other_rule = (
        rule_class(exceptions=data.draw(st.permutations(list(p.items()))), default=d)
        for p, d in ((points, default), (other, other_default)))
    _assert_canonical(rule, points, default)
    _assert_canonical(other_rule, other, other_default)
    same = _same_function(points, default, other, other_default)
    assert (rule == other_rule) == same
    if same:
        assert hash(rule) == hash(other_rule) and repr(rule) == repr(other_rule)


@given(st.sampled_from([Selector, ThresholdRule]), st.data())
def test_checked_points_build_what_the_validating_constructor_builds(rule_class, data):
    # small values and indices near 0: default-valued points and equal neighbours are common
    values = _values(rule_class)
    points = sorted(data.draw(st.dictionaries(_indices, values, max_size=8)).items())
    default = data.draw(values)
    rule = rule_class._from_points(iter(points), default)
    assert rule == rule_class(exceptions=points, default=default)
    _assert_canonical(rule, dict(points), default)


def test_checked_points_drop_a_default_point_before_a_gap():
    # kept, the default point at chain 1 and the gap after it would be two equal steps
    rule = Selector._from_points([(0, 5), (1, 0), (3, 5), (4, 5), (5, 0)], 0)
    assert (rule.starts, rule.values) == ((0, 1, 3, 5), (5, 0, 5, 0))
    assert rule == Selector.from_mapping({0: 5, 3: 5, 4: 5})
    rule = ThresholdRule._from_points([(0, None), (1, 2), (2, 2), (4, None)], None)
    assert (rule.starts, rule.values) == ((0, 1, 3), (None, 2, None))


def test_steps_over_a_range_are_the_runs_it_meets():
    rng = Random(21)
    for _ in range(300):
        rule = ThresholdRule.from_mapping(_random_exceptions(rng, rng.randint(0, 8), [None, 0, 1, 2]),
                                          rng.choice([None, 0, 1]))
        low, high = rng.randint(0, 30), rng.randint(0, 30)
        runs = [(i, rule(i)) for i in range(low, high) if i == low or i in rule.starts]
        assert list(rule.steps_over(low, high)) == runs, (rule, low, high)


def test_a_cutoff_is_its_points_in_two_steps():
    for k in (0, 1, 5, 40):
        points = ThresholdRule.from_mapping(dict.fromkeys(range(k + 1), k + 1))
        assert cutoff_open(k).thresholds == points
        assert hash(cutoff_open(k).thresholds) == hash(points)
    assert cutoff_open(10**6).thresholds.starts == (0, 10**6 + 1)
    with pytest.raises(ValueError):
        cutoff_open(True)


def test_cutoffs_share_one_grant_and_equal_the_open_built_in_full():
    for k in (0, 1, 7):
        full = SymbolicOpen(ThresholdRule.from_mapping(dict.fromkeys(range(k + 1), k + 1)),
                            False, (Cylinder((), frozenset({0})),))
        assert cutoff_open(k) == full and hash(cutoff_open(k)) == hash(full)
    assert cutoff_open(3).cylinders[0] is cutoff_open(4).cylinders[0]


def _random_exceptions(rng, length, values):
    return {i: rng.choice(values) for i in rng.sample(range(3 * length + 5), length)}


def test_forcing_matches_the_exception_scan():
    rng = Random(2009)
    for trial in range(4000):
        # one side short (possibly empty), the other up to 40 long, either way round
        short, long = rng.randint(0, 3), rng.choice([0, 1, rng.randint(2, 40)])
        t_len, s_len = (short, long) if trial % 2 else (long, short)
        rule = ThresholdRule.from_mapping(
            _random_exceptions(rng, t_len, [None, 0, 1, 2, 3, 4, 5, 6]),
            rng.choice([None, 0, 1, 2, 3, 5, 7]),
        )
        selector = Selector.from_mapping(
            _random_exceptions(rng, s_len, [0, 1, 2, 3, 4, 5, 6]), rng.randint(0, 6)
        )
        expected = oracle_forced(rule, selector)
        assert _forced(rule, selector) == expected, (rule, selector)
        assert _forced(rule, selector) == expected  # again, with the views cached


# (threshold points, selector points): one side far longer than the other, either way round
_LOPSIDED = [(1, 600), (600, 1), (0, 600), (3, 300), (300, 3), (2, 40), (40, 2), (5, 5)]


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(_LOPSIDED))
def test_forcing_matches_the_oracle_on_lopsided_pairs(rng, sizes):
    # picks at most `cut` against thresholds from `cut - 1` up, so either answer is common
    cut = rng.randint(0, 7)
    t_len, s_len = sizes
    rule = ThresholdRule.from_mapping(
        _random_exceptions(rng, t_len, [None, *range(max(cut - 1, 0), 9)]),
        rng.choice([None, cut, cut + 1, cut + 3]))
    selector = Selector.from_mapping(_random_exceptions(rng, s_len, range(cut + 1)), rng.randint(0, cut))
    assert _forced(rule, selector) == oracle_forced(rule, selector), (rule, selector)


def test_mode_membership_and_maximality():
    s = Selector()
    assert in_mode(SelectorPoint(s, 1), MODE_L)
    assert not in_mode(SelectorPoint(s, 1), MODE_LHAT)
    assert is_maximal(ChainTop(0), MODE_L)
    assert not is_maximal(ChainPoint(0, 7), MODE_L)
    assert not is_maximal(SelectorPoint(s, 0), MODE_L)
    assert is_maximal(SelectorPoint(s, 1), MODE_L)
    assert is_maximal(SelectorPoint(s, 0), MODE_LHAT)
    with pytest.raises(ValueError):
        is_maximal(SelectorPoint(s, 1), MODE_LHAT)
    with pytest.raises(ValueError):
        is_maximal(ChainTop(0), "nope")


# -- membership -------------------------------------------------------------------


def test_threshold_membership_boundary():
    u = SymbolicOpen(ThresholdRule.from_mapping({0: 3}, default=1))
    assert not symbolic_member(u, ChainPoint(0, 2))
    assert symbolic_member(u, ChainPoint(0, 3))
    assert symbolic_member(u, ChainPoint(0, 9))
    assert symbolic_member(u, ChainPoint(4, 1))
    assert not symbolic_member(u, ChainPoint(4, 0))
    assert symbolic_member(u, ChainTop(0))


def test_absent_chains_exclude_points_and_tops():
    u = SymbolicOpen(ThresholdRule.from_mapping({2: None}, default=0))
    assert not symbolic_member(u, ChainPoint(2, 50))
    assert not symbolic_member(u, ChainTop(2))
    assert symbolic_member(u, ChainTop(3))


def test_selector_points_enter_through_upward_closure():
    u = SymbolicOpen(ThresholdRule.from_mapping({0: 3}, default=None))
    fits = Selector.from_mapping({0: 3})
    misses = Selector.from_mapping({0: 2})
    assert symbolic_member(u, SelectorPoint(fits, 0))
    assert symbolic_member(u, SelectorPoint(fits, 1))
    assert not symbolic_member(u, SelectorPoint(misses, 0))


def test_default_against_default_forcing():
    # infinitely many chains share both defaults, so one comparison decides
    u = SymbolicOpen(ThresholdRule(default=5))
    assert symbolic_member(u, SelectorPoint(Selector(default=5), 0))
    assert not symbolic_member(u, SelectorPoint(Selector(default=4), 0))


def test_all_level1_flag_and_cylinders():
    s = Selector.from_mapping({0: 1})
    u = SymbolicOpen(ThresholdRule(default=None), all_level1=True)
    assert symbolic_member(u, SelectorPoint(s, 1))
    assert not symbolic_member(u, SelectorPoint(s, 0))
    grant = Cylinder(((0, 1),), frozenset({0, 1}))
    v = SymbolicOpen(ThresholdRule(default=None), cylinders=(grant,))
    assert symbolic_member(v, SelectorPoint(s, 0))
    assert not symbolic_member(v, SelectorPoint(Selector(), 0))


def test_cylinder_validation():
    with pytest.raises(ValueError):
        Cylinder(((0, 1),), frozenset({2}))
    with pytest.raises(ValueError):
        Cylinder(((-1, 0),), frozenset({0}))
    with pytest.raises(ValueError):
        Cylinder(((True, 1),))
    assert Cylinder(((3, 0), (1, 2))).conds == ((1, 2), (3, 0))


# -- openness and covering ---------------------------------------------------------


def test_validate_open_per_mode():
    half = SymbolicOpen(cylinders=(Cylinder((), frozenset({0})),))
    assert not validate_open(half, MODE_L)  # level set not upward closed
    assert validate_open(half, MODE_LHAT)
    full = SymbolicOpen(cylinders=(Cylinder((), frozenset({0, 1})),))
    assert validate_open(full, MODE_L)
    assert not validate_open(full, MODE_LHAT)
    flagged = SymbolicOpen(all_level1=True)
    assert validate_open(flagged, MODE_L)
    assert not validate_open(flagged, MODE_LHAT)


def test_contains_max_certificates():
    covered = SymbolicOpen(ThresholdRule(default=0), all_level1=True)
    assert contains_max(covered, MODE_L)
    missing_chain = SymbolicOpen(
        ThresholdRule.from_mapping({3: None}, default=0), all_level1=True
    )
    assert not contains_max(missing_chain, MODE_L)
    no_flag = SymbolicOpen(ThresholdRule(default=1))
    assert not contains_max(no_flag, MODE_L)
    assert contains_max(cutoff_open(4), MODE_LHAT)
    assert validate_open(cutoff_open(4), MODE_LHAT)
    assert not contains_max(SymbolicOpen(ThresholdRule(default=1)), MODE_LHAT)


# -- the diagonal argument ----------------------------------------------------------


def test_diagonal_witness_on_the_uniform_family():
    witness, report = diagonal_witness(uniform_family(3))
    assert report.ok
    assert witness.default == 0
    assert witness.exceptions == ((1, 1), (2, 2))
    point = SelectorPoint(witness, 0)
    for j in range(3):
        assert symbolic_member(uniform_family(3).member(j), point)
    assert not is_maximal(point, MODE_L)


def test_diagonal_witness_respects_offsets():
    witness, report = diagonal_witness(uniform_family(4), offsets=2)
    assert report.ok
    assert [witness(j) for j in range(4)] == [2, 3, 4, 5]
    # a library caller may lift the picks below zero; the witness's constructor refuses them
    with pytest.raises(ValueError, match="position -2 must be a natural number"):
        diagonal_witness(uniform_family(4), offsets=-2)


def test_diagonal_requires_cover_certificates():
    members = [
        SymbolicOpen(ThresholdRule(default=j), all_level1=(j != 1)) for j in range(3)
    ]
    with pytest.raises(NotCoveringMax, match="member 1"):
        diagonal_witness(OpenFamily(members))


def test_diagonal_on_a_rule_family():
    # member j of the rule "threshold 2j+1 on chain j", listed up to 8
    family = OpenFamily(
        SymbolicOpen(ThresholdRule.from_mapping({j: 2 * j + 1}), all_level1=True)
        for j in range(8)
    )
    witness, report = diagonal_witness(family)
    assert report.ok
    assert [witness(j) for j in range(3)] == [1, 3, 5]


def test_open_family_argument_checks():
    assert uniform_family(2).validate(MODE_L)
    assert not uniform_family(2).validate(MODE_LHAT)  # Lhat has no level-1 points


# -- the countable certificate -------------------------------------------------------


def test_cutoff_open_excludes_the_right_prefix():
    u = cutoff_open(5)
    assert not symbolic_member(u, ChainPoint(2, 5))
    assert not symbolic_member(u, ChainPoint(5, 5))
    assert symbolic_member(u, ChainPoint(2, 6))
    assert symbolic_member(u, ChainPoint(6, 0))
    assert symbolic_member(u, ChainTop(0))
    assert symbolic_member(u, SelectorPoint(Selector(), 0))
    with pytest.raises(ValueError):
        cutoff_open(-1)


def test_certificate_report_is_complete():
    report = gdelta_certificate_lhat(6)
    assert report.ok
    keys = [key for key, _ in report.entries]
    assert "non-maximal-chain-points-excluded" in keys
    assert "chain-tops-in-every-cutoff" in keys
    assert "selector-points-in-every-cutoff" in keys
    assert sum(1 for k in keys if k.startswith("cutoff ")) == 7
    with pytest.raises(ValueError):
        gdelta_certificate_lhat(-1)


def _cutoff_with(thresholds: ThresholdRule) -> SymbolicOpen:
    return SymbolicOpen(thresholds, False, (Cylinder((), frozenset({0})),))


def _excluding_too_little(k):
    # threshold k admits chain point (k, k), and at k = 0 everything
    return _cutoff_with(ThresholdRule(0, tuple((i, k) for i in range(k + 1))))


def _excluding_too_little_below(k):
    # only the column, from k = 3 on: chains below k get threshold k, which admits (i, k)
    if k < 3:
        return cutoff_open(k)
    return _cutoff_with(ThresholdRule(0, tuple((i, k) for i in range(k)) + ((k, k + 1),)))


def _dropping_a_chain(k):
    # from k = 2 on, chain 2k+1 is missing, and with it its top
    exceptions = {i: k + 1 for i in range(k + 1)}
    if k >= 2:
        exceptions[2 * k + 1] = None
    return _cutoff_with(ThresholdRule.from_mapping(exceptions))


def _losing_the_selectors(k):
    # from k = 3 on, no cylinder and no zero threshold keep the default selector
    if k < 3:
        return cutoff_open(k)
    return SymbolicOpen(ThresholdRule(1, tuple((i, k + 1) for i in range(k + 1))))


MUTANTS = {"excluding-too-little": _excluding_too_little,
           "excluding-too-little-below": _excluding_too_little_below,
           "dropping-a-chain": _dropping_a_chain,
           "losing-the-selectors": _losing_the_selectors}


def test_certificate_matches_the_point_by_point_oracle():
    for bound in range(61):
        assert gdelta_certificate_lhat(bound).render() == oracle_gdelta_certificate_lhat(bound).render()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutated_cutoffs_fail_as_the_oracle_does(monkeypatch, mutant):
    monkeypatch.setattr(symbolic, "cutoff_open", MUTANTS[mutant])
    for bound in range(13):
        report = gdelta_certificate_lhat(bound)
        assert report.render() == oracle_gdelta_certificate_lhat(bound).render(), bound
    assert not report.ok


def test_certificate_reads_arbitrary_cutoffs_as_the_oracle_does():
    # random point lists near each cutoff's own thresholds, so rows, columns and tops fail here and there
    rng = Random(2003)
    for _ in range(300):
        bound = rng.randint(0, 6)
        rules = {k: ThresholdRule.from_mapping(
            {i: rng.choice([k + 1, k + 1, k + 1, k, max(k - 1, 0), None]) for i in range(k + 2)
             if rng.random() < 0.8}, rng.choice([0, 0, k])) for k in range(bound + 1)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symbolic, "cutoff_open", lambda k: _cutoff_with(rules[k]))
            expected = oracle_gdelta_certificate_lhat(bound).render()
            assert gdelta_certificate_lhat(bound).render() == expected, rules


def test_the_certificate_reads_a_few_steps_per_cutoff_and_no_point_view(capsys, monkeypatch):
    # the oracle's report at a small bound, whose shape the run at this bound must keep
    small = oracle_gdelta_certificate_lhat(2).render().splitlines()
    read = []
    steps_over = symbolic._StepFunction.steps_over

    def counted(self, low, high):
        steps = list(steps_over(self, low, high))
        read.append(len(steps))
        return iter(steps)

    def refuse(self):
        raise AssertionError("the certificate rebuilt a point view")

    monkeypatch.setattr(symbolic._StepFunction, "steps_over", counted)
    monkeypatch.setattr(symbolic._StepFunction, "exceptions", property(refuse))
    bound = 3000
    assert main(["lhat-cert", "--eval-bound", str(bound)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mode: Lhat", f"bound: {bound}",
                     *(f"cutoff {k} valid-and-covering: yes" for k in range(bound + 1)),
                     f"chain-points-checked: {(bound + 1) ** 2}", *small[6:], "verified: yes"]
    assert small[5] == "chain-points-checked: 9"
    # a column read and a tops read per cutoff, each meeting at most two steps
    assert len(read) == 2 * (bound + 1) and sum(read) <= 3 * (bound + 1)


def test_certificate_holds_one_cutoff_at_a_time():
    # holding every cutoff at once, about b^2/2 exceptions, peaks near 24 MB at this bound
    tracemalloc.start()
    try:
        assert gdelta_certificate_lhat(600).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("mutant,line", [
    ("excluding-too-little", "non-maximal-chain-points-excluded: no [(0, 0)]"),
    ("excluding-too-little-below", "non-maximal-chain-points-excluded: no [(0, 3)]"),
    ("dropping-a-chain", "chain-tops-in-every-cutoff: no [(2, 5)]"),
    ("losing-the-selectors", "selector-points-in-every-cutoff: no [(3, 0)]"),
])
def test_failed_certificates_name_their_first_witness(capsys, monkeypatch, mutant, line):
    monkeypatch.setattr(symbolic, "cutoff_open", MUTANTS[mutant])
    assert main(["lhat-cert", "--eval-bound", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert lines[-1] == "verified: no"


# -- truncations ----------------------------------------------------------------------


def test_truncation_sizes():
    assert len(truncate_domain(1, 1, MODE_L)[0]) == 4
    assert len(truncate_domain(2, 2, MODE_L)[0]) == 14
    assert len(truncate_domain(4, 4, MODE_L)[0]) == 532
    assert len(truncate_domain(2, 2, MODE_LHAT)[0]) == 10


def test_truncation_size_counts_the_truncation():
    for mode in MODES:
        for width, depth in cartesian(range(1, 4), repeat=2):
            assert truncation_size(width, depth, mode) == len(truncation_poset(width, depth, mode))
    assert truncation_size(10**30, 2, MODE_LHAT) is None
    assert truncation_size(10**30, 1, MODE_L) is None
    with pytest.raises(ValueError):
        truncation_size(1, 1, "M")


def test_truncations_are_ideal_domains():
    for mode in (MODE_L, MODE_LHAT):
        assert is_ideal_domain(truncate_domain(2, 2, mode)[0])


def test_truncation_maximal_elements_follow_the_mode():
    t, points = truncate_domain(2, 2, MODE_L)
    maximal = t.maximal_elements()
    assert len(maximal) == 6
    assert all(
        isinstance(points[m], ChainTop)
        or (isinstance(points[m], SelectorPoint) and points[m].level == 1)
        for m in maximal
    )
    t, points = truncate_domain(2, 2, MODE_LHAT)
    assert all(
        isinstance(points[m], ChainTop)
        or (isinstance(points[m], SelectorPoint) and points[m].level == 0)
        for m in t.maximal_elements()
    )


def _reference_truncation(width: int, depth: int, mode: str) -> dict:
    """Label to point, in element order: each chain then its top, then every selector's levels."""
    levels = (0, 1) if mode == MODE_L else (0,)
    points = {}
    for i in range(width):
        for n in range(depth):
            points[f"({i},{n})"] = ChainPoint(i, n)
        points[f"({i},inf)"] = ChainTop(i)
    for values in cartesian(range(depth), repeat=width):
        selector = Selector.from_mapping({i: v for i, v in enumerate(values)})
        for level in levels:
            name = "s[" + ",".join(str(v) for v in values) + f"]@{level}"
            points[name] = SelectorPoint(selector, level)
    return points


def test_truncation_order_matches_the_symbolic_order():
    for (width, depth), mode in cartesian([(2, 2), (3, 3), (2, 4)], [MODE_L, MODE_LHAT]):
        t, points = truncate_domain(width, depth, mode)
        reference = _reference_truncation(width, depth, mode)
        assert t.elements == tuple(reference)
        assert list(points.items()) == list(reference.items())
        for a in t.elements:
            for b in t.elements:
                assert t.le(a, b) == l_leq(points[a], points[b]), (width, depth, mode, a, b)


def test_point_map_rides_on_the_truncation_poset():
    for (width, depth), mode in cartesian([(2, 2), (3, 3), (2, 4)], [MODE_L, MODE_LHAT]):
        t, points = truncate_domain(width, depth, mode)
        p = truncation_poset(width, depth, mode)
        assert t.elements == p.elements and t._up == p._up
        assert list(points.items()) == list(_reference_truncation(width, depth, mode).items())
    assert "truncation_poset" in ordtop.__all__


# width 1 to 3 by depth 1 to 5, where the strides collapse, and the benchmark's big shapes
_CLOSED_FORM_SHAPES = [*cartesian(range(1, 4), range(1, 6)), (4, 6), (3, 8), (2, 20)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("width,depth", _CLOSED_FORM_SHAPES)
def test_truncation_closed_form_matches_the_closed_generators(capsys, width, depth, mode):
    oracle = oracle_truncation(width, depth, mode)
    p = truncation_poset(width, depth, mode)
    assert p.elements == oracle.elements
    assert p._up == oracle._up
    elements, covers = truncation_hasse(width, depth, mode)
    assert tuple(elements) == oracle.elements
    assert tuple(covers) == oracle.covers()
    argv = ["truncate-l", "--width", str(width), "--depth", str(depth), "--mode", mode]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(poset_to_json(oracle), indent=2) + "\n"


def test_truncations_run_no_generic_closure_or_cover_walk(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a truncation ran the generic closure or the cover walk")

    monkeypatch.setattr(poset, "_transitive_close", refuse)
    monkeypatch.setattr(FinitePoset, "covers", refuse)
    for mode in MODES:
        truncate_domain(3, 4, mode)
    assert main(["truncate-l", "--width", "2", "--depth", "3", "--mode", "L"]) == 0
    golden = Path(__file__).parent / "data" / "golden" / "argv" / "truncate-l_2x3_L.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_truncation_guard_and_argument_checks():
    # the size bound is the CLI's (test_truncation_guard_is_an_input_error)
    for build in (truncate_domain, truncation_poset):
        with pytest.raises(ValueError):
            build(0, 2, MODE_L)
        with pytest.raises(ValueError):
            build(2, 0, MODE_LHAT)
        with pytest.raises(ValueError):
            build(2, 2, "nope")


def test_truncation_members_are_scott_open():
    t, points = truncate_domain(2, 2, MODE_L)
    opens = [
        SymbolicOpen(ThresholdRule(default=1), all_level1=True),
        SymbolicOpen(ThresholdRule.from_mapping({0: 2}, default=0)),
        SymbolicOpen(
            ThresholdRule(default=None),
            cylinders=(Cylinder(((0, 1),), frozenset({0, 1})),),
        ),
        cutoff_open(1),
    ]
    for u in opens:
        members = truncation_members(u, points)
        assert is_scott_open(t, members)


def _random_open(rng: Random, width: int, depth: int) -> SymbolicOpen:
    """Thresholds often above every pick, so that grants decide; cylinders at level 0, 1 or both."""
    thresholds = ThresholdRule.from_mapping(
        {i: rng.choice([None, *range(depth + 2)]) for i in rng.sample(range(width + 2), rng.randint(0, 3))},
        rng.choice([None, depth, depth + 1, 0]))
    cylinders = tuple(
        Cylinder(tuple((i, rng.randrange(depth + 1)) for i in rng.sample(range(width + 1), rng.randint(0, 2))),
                 rng.choice([{0}, {1}, {0, 1}]))
        for _ in range(rng.randint(0, 2)))
    return SymbolicOpen(thresholds, rng.random() < 0.5, cylinders)


class _FreshPoints(Mapping):
    """The truncation's points, each selector point built anew, with a selector of its own, on every read."""

    def __init__(self, points):
        self._points = points

    def __getitem__(self, label):
        point = self._points[label]
        if isinstance(point, SelectorPoint):
            return SelectorPoint(Selector.from_mapping(dict(point.selector.exceptions)), point.level)
        return point

    def __iter__(self):
        return iter(self._points)

    def __len__(self):
        return len(self._points)


def test_truncation_members_match_point_by_point_membership():
    rng = Random(1975)
    for (width, depth), mode in cartesian([(2, 2), (3, 3), (2, 4), (1, 3)], MODES):
        shared = truncate_domain(width, depth, mode)[1]
        # the same points, each selector point with a selector object of its own
        distinct = {label: SelectorPoint(Selector.from_mapping(dict(point.selector.exceptions)), point.level)
                    if isinstance(point, SelectorPoint) else point for label, point in shared.items()}
        assert distinct == shared
        for _ in range(40):
            u = _random_open(rng, width, depth)
            expected = frozenset(label for label, point in shared.items() if symbolic_member(u, point))
            assert truncation_members(u, shared) == expected, (width, depth, mode, u)
            assert truncation_members(u, distinct) == expected, (width, depth, mode, u)
            # a lazy mapping frees each selector once read, so a freed object's id comes back
            assert truncation_members(u, _FreshPoints(shared)) == expected, (width, depth, mode, u)


# -- file format -----------------------------------------------------------------------


def test_open_json_round_trip():
    u = SymbolicOpen(
        ThresholdRule.from_mapping({0: 3, 2: None}, default=1),
        all_level1=True,
        cylinders=(Cylinder(((1, 2),), frozenset({0, 1})),),
    )
    assert open_from_json(open_to_json(u)) == u


def test_parsed_thresholds_are_the_validating_constructors():
    rng = Random(53)
    for _ in range(300):
        default = rng.choice([None, 0, 1, 2])
        exceptions = {rng.randrange(12): rng.choice([None, 0, 1, 2]) for _ in range(rng.randint(0, 6))}
        # keys in document order, not chain order, with default-valued entries among them
        document = {"thresholds": {"default": default,
                                   "exceptions": {str(i): v for i, v in exceptions.items()}}}
        assert open_from_json(document).thresholds == ThresholdRule(default, tuple(exceptions.items()))


def test_family_json_round_trip():
    family = uniform_family(3)
    again = family_from_json(family_to_json(family))
    assert [again.member(j) for j in again.indices()] == [
        family.member(j) for j in family.indices()
    ]


@pytest.mark.parametrize(
    "data",
    [
        "not an object",
        {},
        {"thresholds": []},
        {"thresholds": {"default": -1}},
        {"thresholds": {"default": 0, "exceptions": {"x": 1}}},
        {"thresholds": {"default": 0, "exceptions": {"0": -3}}},
        {"thresholds": {"default": 0}, "allPhiLevel1": "yes"},
        {"thresholds": {"default": 0}, "extraPhi": {}},
        {"thresholds": {"default": 0}, "extraPhi": [{"conds": {"0": None}}]},
        {"thresholds": {"default": 0}, "extraPhi": [{"conds": {}, "levels": [3]}]},
    ],
)
def test_open_json_rejects_malformed_documents(data):
    with pytest.raises(FormatError):
        open_from_json(data)


def test_family_json_rejects_non_arrays():
    with pytest.raises(FormatError):
        family_from_json({})
    with pytest.raises(FormatError):
        family_from_json([])
