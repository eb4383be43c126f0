"""A catalogue of broken fast paths, and an opt-in runner that checks the tests catch each one.

Each entry names a source file, a text that occurs exactly once in it, the
text that replaces it, and the tests that must fail once it is replaced.
``tests/test_mutants.py`` checks on every run that each old text still
occurs exactly once, so a refactor that moves a fast path updates its
entries instead of leaving them behind.

The runner is not part of the test suite.  From the repository root:

    python -m tests.mutants [name ...]

It copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, checks that the named tests pass there, then applies each
mutant in turn, runs its tests with ``-x -q`` and reports it killed (the
tests fail) or survived.  It exits 1 when a mutant survives.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SYMBOLIC = "src/ordtop/symbolic.py"
CLI = "src/ordtop/cli.py"
TOPOLOGY = "src/ordtop/topology.py"
POSET = "src/ordtop/poset.py"
FACTORIZATION = "src/ordtop/factorization.py"
IDEALS = "src/ordtop/ideals.py"
TEST_SYMBOLIC = "tests/test_symbolic.py::"
TEST_CLI = "tests/test_cli.py::"
TEST_TOPOLOGY = "tests/test_topology.py::"
TEST_POSET = "tests/test_poset.py::"
TEST_FACTORIZATION = "tests/test_factorization.py::"
TEST_IDEALS = "tests/test_ideals.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "forced-skips-the-defaults", SYMBOLIC,
        "    if t_default is not None and s_default >= t_default:\n        return True\n"
        "    t_last, s_last",
        "    t_last, s_last",
        (TEST_SYMBOLIC + "test_default_against_default_forcing",
         TEST_SYMBOLIC + "test_forcing_matches_the_exception_scan"),
    ),
    Mutant(
        "cutoff-run-stops-at-k", SYMBOLIC,
        "ThresholdRule._from_steps((0, k + 1), (k + 1, 0))",
        "ThresholdRule._from_steps((0, k), (k + 1, 0))",
        (TEST_SYMBOLIC + "test_cutoff_open_excludes_the_right_prefix",
         TEST_SYMBOLIC + "test_a_cutoff_is_its_points_in_two_steps",
         TEST_SYMBOLIC + "test_certificate_report_is_complete"),
    ),
    Mutant(
        "equal-neighbours-not-merged", SYMBOLIC,
        "            if value != values[-1]:\n",
        "            if True:\n",
        (TEST_SYMBOLIC + "test_rules_are_equal_exactly_when_their_points_agree",
         TEST_SYMBOLIC + "test_a_cutoff_is_its_points_in_two_steps"),
    ),
    Mutant(
        "certificate-column-stops-a-chain-short", SYMBOLIC,
        "thresholds.steps_over(0, k)",
        "thresholds.steps_over(0, k - 1)",
        (TEST_SYMBOLIC + "test_certificate_reads_arbitrary_cutoffs_as_the_oracle_does",),
    ),
    Mutant(
        "steps-over-an-empty-range-meets-a-step", SYMBOLIC,
        "bisect_left(self.starts, high) if low < high else first",
        "bisect_left(self.starts, high)",
        (TEST_SYMBOLIC + "test_steps_over_a_range_are_the_runs_it_meets",),
    ),
    Mutant(
        "lookup-bisects-left", SYMBOLIC,
        "return self.values[bisect_right(self.starts, i) - 1]",
        "return self.values[bisect_left(self.starts, i) - 1]",
        (TEST_SYMBOLIC + "test_lookups_match_a_scan_of_the_exceptions",),
    ),
    Mutant(
        "walk-keeps-a-stale-threshold-at-a-shared-start", SYMBOLIC,
        "        if t_next <= s_next:\n            i += 1",
        "        if t_next < s_next:\n            i += 1",
        (TEST_SYMBOLIC + "test_forcing_matches_the_exception_scan",
         TEST_SYMBOLIC + "test_forcing_matches_the_oracle_on_lopsided_pairs"),
    ),
    Mutant(
        "bisection-pass-leaves-its-step", SYMBOLIC,
        "                while j <= s_last and s_starts[j] < end:",
        "                while j <= s_last:",
        (TEST_SYMBOLIC + "test_forcing_matches_the_exception_scan",
         TEST_SYMBOLIC + "test_forcing_matches_the_oracle_on_lopsided_pairs"),
    ),
    Mutant(
        "point-view-keeps-default-steps", SYMBOLIC,
        "if value != default for i in range(start, end)",
        "for i in range(start, end)",
        (TEST_SYMBOLIC + "test_selector_normalization_drops_default_picks",
         TEST_SYMBOLIC + "test_rules_are_equal_exactly_when_their_points_agree"),
    ),
    Mutant(
        "members-memo-keeps-the-first-levels-grant", SYMBOLIC,
        "                last, forced = selector, _forced(thresholds, selector)\n",
        "                last, forced = selector, (_forced(thresholds, selector)\n"
        "                                          or _granted(open_set, selector, point.level))\n",
        (TEST_SYMBOLIC + "test_truncation_members_match_point_by_point_membership",),
    ),
    Mutant(
        "checked-points-keep-default-points", SYMBOLIC,
        "            if value == default:\n                continue\n",
        "",
        (TEST_SYMBOLIC + "test_checked_points_drop_a_default_point_before_a_gap",
         TEST_SYMBOLIC + "test_checked_points_build_what_the_validating_constructor_builds"),
    ),
    Mutant(
        "grant-without-the-highest-level-accepted", SYMBOLIC,
        "if cylinder.levels and max(cylinder.levels) != top:",
        "if cylinder.levels and max(cylinder.levels) > top:",
        (TEST_SYMBOLIC + "test_validate_open_per_mode",),
    ),
    Mutant(
        "maximality-reads-the-lowest-level", SYMBOLIC,
        "return point.level == _levels(mode)[-1]",
        "return point.level == _levels(mode)[0]",
        (TEST_SYMBOLIC + "test_mode_membership_and_maximality",),
    ),
    Mutant(
        "level-1-maxima-certified-by-a-zero-threshold", SYMBOLIC,
        "        return open_set.all_level1\n",
        "        return open_set.all_level1 or 0 in thresholds\n",
        (TEST_SYMBOLIC + "test_a_zero_threshold_does_not_certify_the_level_1_maxima",),
    ),
    Mutant(
        "upper-set-complement-drops-the-top-bit", POSET,
        "outside = (1 << len(rows)) - 1 ^ mask",
        "outside = (1 << len(rows) - 1) - 1 ^ mask",
        (TEST_TOPOLOGY + "test_fast_and_exhaustive_openness_agree_on_small_posets",),
    ),
    Mutant(
        "upper-set-skips-the-last-position", POSET,
        "map(rows.__getitem__, positions)",
        "map(rows.__getitem__, list(positions)[:-1])",
        (TEST_TOPOLOGY + "test_fast_and_exhaustive_openness_agree_on_small_posets",
         TEST_SYMBOLIC + "test_replay_upper_sets_match_the_oracle_and_walk_no_bits"),
    ),
    Mutant(
        "upper-test-skips-its-last-position", POSET,
        "return _rows_inside(self._up, positions, _mask_at(positions, len(self)))",
        "return _rows_inside(self._up, positions[:-1], _mask_at(positions, len(self)))",
        (TEST_TOPOLOGY + "test_fast_and_exhaustive_openness_agree_on_small_posets",
         TEST_FACTORIZATION + "test_split_matches_the_oracle_on_shuffled_spaces"),
    ),
    Mutant(
        "labels-read-the-digits-unreversed", POSET,
        "bin(mask)[:1:-1].encode()",
        "bin(mask)[2:].encode()",
        (TEST_POSET + "test_maximal_elements",
         TEST_CLI + "test_finite_verbs_match_their_golden_stdout"),
    ),
    Mutant(
        "relative-topology-keeps-the-parent-index", TOPOLOGY,
        "Topology._indexed(sub.elements, sub._index, sub._up)",
        "Topology._indexed(sub.elements, p._index, sub._up)",
        (TEST_TOPOLOGY + "test_relative_topology_traces_every_oracle_open",),
    ),
    Mutant(
        "scott-closed-reads-up-rows", TOPOLOGY,
        "lower = _rows_inside(p._down, _iter_bits(mask), mask)",
        "lower = _rows_inside(p._up, _iter_bits(mask), mask)",
        (TEST_TOPOLOGY + "test_closed_sets_are_complements_of_open_sets",),
    ),
    Mutant(
        "restriction-renumbers-one-off", POSET,
        "bit = {old: 1 << new for new, old in enumerate(kept)}",
        "bit = {old: 1 << new for new, old in enumerate(kept, 1)}",
        (TEST_POSET + "test_restrict_induces_suborder",
         TEST_TOPOLOGY + "test_relative_topology_traces_every_oracle_open",
         TEST_TOPOLOGY + "test_a_renaming_names_the_label_it_cannot_match"),
    ),
    Mutant(
        "lower-model-closed-test-reads-up-rows", FACTORIZATION,
        "_rows_inside(p._down, positions, lower)",
        "_rows_inside(p._up, positions, lower)",
        # the lower-model goldens cannot see it: their lower sets are upward closed as well
        (TEST_FACTORIZATION + "test_lower_set_model_with_extra_covers",),
    ),
    Mutant(
        "ideal-J-skips-the-principal-check", FACTORIZATION,
        "    if mask not in q_poset._down:\n",
        "    if False:\n",
        (TEST_FACTORIZATION + "test_selection_on_a_doctored_poset_is_rejected",
         TEST_IDEALS + "test_ideal_validation"),
    ),
    Mutant(
        "positions-skip-foreign-labels", POSET,
        "return [index[label] for label in labels]",
        "return [index[label] for label in labels if label in index]",
        (TEST_TOPOLOGY + "test_upper_sets_refuse_a_foreign_label",
         TEST_POSET + "test_foreign_set"),
    ),
    Mutant(
        "mask-skips-foreign-labels", POSET,
        "return _mask_at(self._positions(labels), len(self))",
        "return _mask_at((pos for pos in map(self._index.get, labels) if pos is not None), len(self))",
        (TEST_POSET + "test_messages_cut_long_labels_short",
         TEST_SYMBOLIC + "test_replay_upper_sets_match_the_oracle_and_walk_no_bits"),
    ),
    Mutant(
        "mask-digit-one-off", POSET,
        "digits[pos] = 49",
        "digits[pos + 1] = 49",
        (TEST_TOPOLOGY + "test_fast_and_exhaustive_openness_agree_on_small_posets",
         TEST_SYMBOLIC + "test_replay_upper_sets_match_the_oracle_and_walk_no_bits"),
    ),
    Mutant(
        "selector-steps-lose-the-default-zero", SYMBOLIC,
        "steps = [((), (0,))]",
        "steps = [((), (1,))]",
        (TEST_SYMBOLIC + "test_replay_selectors_are_the_validating_constructors",
         TEST_SYMBOLIC + "test_truncation_order_matches_the_symbolic_order"),
    ),
    Mutant(
        "selector-steps-keep-equal-picks-apart", SYMBOLIC,
        "(rest, values) if values[0] == v else",
        "(rest, values) if False else",
        (TEST_SYMBOLIC + "test_replay_selectors_are_the_validating_constructors",),
    ),
    Mutant(
        "hasse-selector-runs-one-period-off", SYMBOLIC,
        "for r in range(n * run, len(bottoms), period)]",
        "for r in range(n * run, len(bottoms), period + 1)]",
        (TEST_SYMBOLIC + "test_truncation_closed_form_matches_the_closed_generators",),
    ),
    Mutant(
        "rows-selector-period-one-off", SYMBOLIC,
        "every = ((1 << count) - 1) // ((1 << period) - 1) << start",
        "every = ((1 << count) - 1) // ((1 << period + 1) - 1) << start",
        (TEST_SYMBOLIC + "test_truncation_closed_form_matches_the_closed_generators",),
    ),
    Mutant(
        "chain-row-without-its-top", SYMBOLIC,
        "above = ((1 << (depth + 1 - n)) - 1) << (base + n)",
        "above = ((1 << (depth - n)) - 1) << (base + n)",
        (TEST_SYMBOLIC + "test_truncation_closed_form_matches_the_closed_generators",),
    ),
    Mutant(
        "discrete-listing-switched-off", CLI,
        "    if not topology.is_discrete:",
        "    if True:",
        (TEST_CLI + "test_maxspace_builds_no_open_mask",
         TEST_CLI + "test_topology_on_an_antichain_builds_no_open_mask"),
    ),
    Mutant(
        "discrete-head-spells-the-next-position", CLI,
        'head + texts[s] + ","',
        'head + texts[s + 1] + ","',
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",
         TEST_CLI + "test_discrete_listing_matches_the_combinations"),
    ),
    Mutant(
        "discrete-listing-drops-the-empty-open", CLI,
        'subsets = [[""], texts]',
        "subsets = [[], texts]",
        (TEST_CLI + "test_the_empty_poset_has_one_open",
         TEST_CLI + "test_discrete_listing_matches_the_combinations"),
    ),
    Mutant(
        "discrete-unheld-point-read-as-held", CLI,
        "range(first, min(tail, n - k + 1))",
        "range(first, min(tail - 1, n - k + 1))",
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",
         TEST_CLI + "test_discrete_listing_matches_the_combinations"),
    ),
    Mutant(
        "discrete-held-tail-one-point-too-long", CLI,
        "combinations(texts[tail:], k)",
        "combinations(texts[tail - 1:], k)",
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",
         TEST_CLI + "test_discrete_listing_matches_the_combinations"),
    ),
    Mutant(
        "discrete-listing-holds-every-class", CLI,
        "+ 1)) <= LISTING_CHUNK_BYTES // 4:",
        "+ 1)) <= sys.maxsize:",
        (TEST_CLI + "test_a_discrete_listing_holds_about_a_write_bound_of_text",),
    ),
    Mutant(
        "discrete-budget-ignores-the-str-object", CLI,
        'tail, held, span = n, sys.getsizeof(""), 1',
        "tail, held, span = n, 0, 1",
        (TEST_CLI + "test_a_listing_of_one_character_labels_holds_under_a_write_bound",),
    ),
    Mutant(
        "discrete-held-texts-written-without-their-head", CLI,
        "_write_lines(head, subsets[k], per_write)",
        '_write_lines("open: {", subsets[k], per_write)',
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",
         TEST_CLI + "test_discrete_listing_matches_the_combinations"),
    ),
    Mutant(
        "open-count-always-a-power-of-two", TOPOLOGY,
        "return 1 << len(self) if self.is_discrete else len(self.open_masks)",
        "return 1 << len(self)",
        (TEST_CLI + "test_open_listings_match_the_frozenset_sort",
         TEST_CLI + "test_finite_verbs_match_their_golden_stdout"),
    ),
    Mutant(
        "check-prints-its-maxima-reversed", CLI,
        "map(label_text, _picked(p.elements, p._max_mask))",
        "map(label_text, reversed([*_picked(p.elements, p._max_mask)]))",
        (TEST_CLI + "test_finite_verbs_match_their_golden_stdout",),
    ),
    Mutant(
        "selection-sets-the-next-triples-bit", FACTORIZATION,
        "columns[x] |= 1 << j",
        "columns[x] |= 1 << j + 1",
        (TEST_FACTORIZATION + "test_selected_triples_form_ideals",
         TEST_CLI + "test_factor_verifies_the_model"),
    ),
    Mutant(
        "listing-chunks-count-characters", CLI,
        "LISTING_CHUNK_BYTES // len(longest.encode())",
        "LISTING_CHUNK_BYTES // len(longest)",
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",),
    ),
    Mutant(
        "listing-writes-sized-from-the-shortest-line", CLI,
        "LISTING_CHUNK_BYTES // len(longest.encode())",
        'LISTING_CHUNK_BYTES // len("open: {}\\n")',
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",),
    ),
    Mutant(
        "dispatch-ignores-leftover-arguments", CLI,
        "    if extras:\n",
        "    if False:\n",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",
         TEST_CLI + "test_main_matches_the_full_parse"),
    ),
    Mutant(
        "dispatch-never-sets-the-command", CLI,
        "    args.command = argv[0]\n",
        "",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",
         TEST_CLI + "test_main_matches_the_full_parse"),
    ),
    Mutant(
        "plain-argv-keeps-the-first-of-a-repeated-flag", CLI,
        "    given = dict(zip(argv[1::2], argv[2::2]))\n    if 2 * len(given) != len(argv) - 1 or not",
        "    given = dict(reversed([*zip(argv[1::2], argv[2::2])]))\n    if not",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",),
    ),
    Mutant(
        "plain-argv-takes-a-dash-led-value", CLI,
        'isinstance(text, str) or text.startswith("-"):',
        "isinstance(text, str):",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",),
    ),
    Mutant(
        "plain-argv-takes-a-value-that-is-not-text", CLI,
        "        if not isinstance(text, str) or text",
        "        if text",
        (TEST_CLI + "test_a_value_that_is_not_text_meets_the_parsers_error",),
    ),
    Mutant(
        "plain-argv-skips-the-choices", CLI,
        '        if "choices" in options and value not in options["choices"]:\n            return None\n',
        "",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",),
    ),
    Mutant(
        "plain-argv-reads-a-missing-required-flag-as-none", CLI,
        '            if options.get("required"):\n                return None\n',
        "",
        (TEST_CLI + "test_edge_argvs_match_the_full_parse",),
    ),
    Mutant(
        "plain-argv-reads-every-option", CLI,
        "        if not options.keys() <= _PLAIN_OPTIONS:\n            return None\n",
        "",
        (TEST_CLI + "test_a_flag_with_another_option_leaves_its_verb_to_argparse",),
    ),
    Mutant(
        "loader-closes-a-string-entry-as-a-cover", POSET,
        "        if not (isinstance(item, list) and len(item) == 2\n",
        "        if not (len(item) == 2\n",
        (TEST_POSET + "test_loader_faults_match_the_two_pass_reference",),
    ),
    Mutant(
        "unknown-cover-label-named-from-high", POSET,
        "excerpt(unknown.args[0])",
        "excerpt(high)",
        (TEST_POSET + "test_loader_faults_match_the_two_pass_reference",),
    ),
    Mutant(
        "loader-skips-the-cr-translation", POSET,
        '        if "\\r" in text:\n',
        "        if False:\n",
        (TEST_CLI + "test_load_json_matches_the_text_reader_on_hostile_files",
         TEST_CLI + "test_load_json_matches_the_text_reader"),
    ),
    Mutant(
        "loader-replaces-undecodable-bytes", POSET,
        'text = data.decode("utf-8")',
        'text = data.decode("utf-8", errors="replace")',
        (TEST_CLI + "test_load_json_matches_the_text_reader_on_hostile_files",
         TEST_CLI + "test_load_json_matches_the_text_reader"),
    ),
    Mutant(
        "loader-drops-a-byte-order-mark", POSET,
        'text = data.decode("utf-8")',
        'text = data.decode("utf-8-sig")',
        (TEST_CLI + "test_load_json_matches_the_text_reader_on_hostile_files",),
    ),
    Mutant(
        "mirror-one-digit-short", POSET,
        'int(f"{mask:0{n}b}"[::-1], 2)',
        'int(f"{mask:0{n - 1}b}"[::-1], 2)',
        (TEST_POSET + "test_mirror_matches_the_bit_walk",
         TEST_CLI + "test_finite_verbs_match_their_golden_stdout"),
    ),
    Mutant(
        "split-x-row-from-the-last-y-slice", FACTORIZATION,
        "for row in rows[::ny]",
        "for row in rows[ny - 1::ny]",
        (TEST_FACTORIZATION + "test_split_recovers_both_factors_of_poset_products",
         TEST_FACTORIZATION + "test_split_matches_the_oracle_on_shuffled_spaces"),
    ),
    Mutant(
        "split-skips-the-cut-onto-pair-positions", FACTORIZATION,
        "rows = topology._up if at == sorted(at) else _cut_rows(topology._up, at)",
        "rows = topology._up",
        (TEST_FACTORIZATION + "test_split_matches_the_oracle_on_shuffled_spaces",),
    ),
    Mutant(
        "spread-one-block-too-far", POSET,
        'int(("0" * (ny - 1)).join(f"{u:b}"), 2)',
        'int(("0" * ny).join(f"{u:b}"), 2)',
        (TEST_FACTORIZATION + "test_split_recovers_both_factors_of_poset_products",
         TEST_FACTORIZATION + "test_triple_poset_matches_both_enumerations"),
    ),
    Mutant(
        "product-box-transposed", POSET,
        "_spread(u, nq) * v",
        "_spread(v, nq) * u",
        (TEST_POSET + "test_product_matches_the_oracle",),
    ),
    Mutant(
        "canonical-key-ascending", IDEALS,
        "-_mirror(mask, n)",
        "_mirror(mask, n)",
        # idl_poset and all_ideals share the key, so only a sort of their own can see it
        (TEST_IDEALS + "test_all_ideals_match_the_subset_sweep",),
    ),
    Mutant(
        "max-mask-reads-any-set-bit", POSET,
        "row == 1 << i",
        "row & 1 << i",
        (TEST_POSET + "test_maximal_elements",
         TEST_CLI + "test_finite_verbs_match_their_golden_stdout"),
    ),
    Mutant(
        "record-equality-skips-the-class-test", POSET,
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n"
        "        return self._key(self) == self._key(other)\n",
        "        return self._key(self) == self._key(other)\n",
        (TEST_SYMBOLIC + "test_value_classes_compare_hash_print_and_freeze_as_their_fields",),
    ),
    Mutant(
        "record-assignment-goes-through", POSET,
        '        raise FrozenInstanceError(f"cannot {action} field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        (TEST_SYMBOLIC + "test_value_classes_compare_hash_print_and_freeze_as_their_fields",
         TEST_SYMBOLIC + "test_replay_selectors_are_the_validating_constructors"),
    ),
    Mutant(
        "record-repr-drops-the-field-names", POSET,
        "map('{}={!r}'.format, self._fields, self._key(self))",
        "map(repr, self._key(self))",
        (TEST_SYMBOLIC + "test_lookup_tables_leave_value_semantics_alone",
         TEST_SYMBOLIC + "test_value_classes_compare_hash_print_and_freeze_as_their_fields"),
    ),
    Mutant(
        "closure-child-hands-its-parent-nothing", POSET,
        "below, lowest = reach, low",
        "below, lowest = 0, closed",
        (TEST_POSET + "test_closure_matches_warshall_on_every_small_relation",
         TEST_POSET + "test_closure_matches_networkx_on_large_cyclic_relations"),
    ),
    Mutant(
        "closure-closes-above-its-low-link", POSET,
        "            if low == order[v]:\n",
        "            if low <= order[v]:\n",
        (TEST_POSET + "test_closure_matches_warshall_on_every_small_relation",
         TEST_POSET + "test_cycles_at_high_indices_keep_their_message"),
    ),
    Mutant(
        "closure-drops-a-closed-row-untaken", POSET,
        "                    reach |= row\n                    rest &= ~row\n",
        "                    rest &= ~row\n",
        (TEST_POSET + "test_closure_matches_warshall_on_every_small_relation",
         TEST_POSET + "test_closure_matches_networkx_on_large_cyclic_relations"),
    ),
    Mutant(
        "closure-cycle-pair-from-the-first-two-popped", POSET,
        "i, j = sorted(component)[:2]",
        "i, j = component[:-3:-1]",
        (TEST_POSET + "test_cycles_at_high_indices_keep_their_message",
         TEST_POSET + "test_closure_matches_warshall_on_random_cyclic_relations"),
    ),
    Mutant(
        "q-box-spreads-the-y-projection", FACTORIZATION,
        "shadow == _spread(u, ny) * v",
        "shadow == _spread(v, ny) * u",
        (TEST_FACTORIZATION + "test_triple_poset_matches_both_enumerations",
         TEST_CLI + "test_factor_verifies_the_model"),
    ),
    Mutant(
        "q-skips-the-x-openness-test", FACTORIZATION,
        "and _rows_inside(tx._up, _iter_bits(u), u) and",
        "and",
        (TEST_FACTORIZATION + "test_triple_poset_matches_the_label_sets",),
    ),
    Mutant(
        "q-projection-keeps-the-last-block-only", FACTORIZATION,
        "            u |= 1 << q // ny\n",
        "            u = 1 << q // ny\n",
        (TEST_FACTORIZATION + "test_triple_poset_matches_the_label_sets",),
    ),
    Mutant(
        "shadow-drops-its-lowest-maximum", FACTORIZATION,
        "_iter_bits(row & top)",
        "_iter_bits(row & top & (row & top) - 1)",
        (TEST_FACTORIZATION + "test_max_shadow_matches_the_label_sets",
         TEST_FACTORIZATION + "test_triple_poset_matches_both_enumerations"),
    ),
    Mutant(
        "transport-open-test-reads-the-continuity-side", FACTORIZATION,
        "tight = [row for row, back in zip(tx._up, pulled) if back & ~row]",
        "tight = [row for row, back in zip(tx._up, pulled) if row & ~back]",
        (TEST_FACTORIZATION + "test_verification_rejects_a_non_discrete_maximal_space",),
    ),
    Mutant(
        "lower-model-maxima-read-down-rows", FACTORIZATION,
        "p._up[i] & lower == 1 << i",
        "p._down[i] & lower == 1 << i",
        (TEST_FACTORIZATION + "test_lower_set_model_matches_the_label_sets",
         TEST_CLI + "test_lower_model_fiber"),
    ),
    Mutant(
        "selected-maximal-test-reads-the-image", FACTORIZATION,
        "if i is None or not maximal >> i & 1]",
        "if i is None or not image >> i & 1]",
        (TEST_FACTORIZATION + "test_verification_rejects_ideals_over_another_base",),
    ),
    Mutant(
        "diagonal-skips-the-openness-check", SYMBOLIC,
        "        if not validate_open(member, MODE_L):\n",
        "        if False:\n",
        (TEST_SYMBOLIC + "test_diagonal_refuses_a_member_that_is_not_open",),
    ),
    Mutant(
        "idl-spells-the-up-sets", CLI,
        "zip(texts, p._down)",
        "zip(texts, p._up)",
        (TEST_CLI + "test_finite_verbs_match_their_golden_stdout",),
    ),
    Mutant(
        "parser-adds-a-verbs-flags-in-reverse", CLI,
        "for flag, options in flags.items():",
        "for flag, options in reversed(flags.items()):",
        (TEST_CLI + "test_help_matches_its_golden",),
    ),
)


def _copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _tests_fail(tree: Path, killers: tuple[str, ...]) -> bool:
    """Do the tests fail in ``tree``?  Exit code 1 means a test failed; anything else is an error."""
    argv = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    done = subprocess.run([sys.executable, *argv, *killers], cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {' '.join(killers)}:\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        _copy_tree(tree)
        if _tests_fail(tree, tuple(dict.fromkeys(k for m in chosen for k in m.killers))):
            print("the named tests fail without any mutant", file=sys.stderr)
            return 2
        for mutant in chosen:
            target = tree / mutant.file
            clean = target.read_text(encoding="utf-8")
            if clean.count(mutant.old) != 1:
                print(f"{mutant.name}: the old text does not occur exactly once", file=sys.stderr)
                return 2
            target.write_text(clean.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                killed = _tests_fail(tree, mutant.killers)
            finally:
                target.write_text(clean, encoding="utf-8")
            survivors += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8s} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} survived, "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
