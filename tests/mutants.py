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
TEST_SYMBOLIC = "tests/test_symbolic.py::"
TEST_CLI = "tests/test_cli.py::"
TEST_TOPOLOGY = "tests/test_topology.py::"


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
        "upper-set-complement-drops-the-top-bit", TOPOLOGY,
        "outside = (1 << len(p)) - 1 ^ mask",
        "outside = (1 << len(p) - 1) - 1 ^ mask",
        (TEST_TOPOLOGY + "test_fast_and_exhaustive_openness_agree_on_small_posets",),
    ),
    Mutant(
        "mask-skips-foreign-labels", POSET,
        "                raise ForeignSet(f\"label {excerpt(label)} is not an element of this poset\")\n",
        "                continue\n",
        (TEST_TOPOLOGY + "test_upper_sets_refuse_a_foreign_label",),
    ),
    Mutant(
        "listing-chunks-count-characters", CLI,
        "LISTING_CHUNK_BYTES // len(longest.encode())",
        "LISTING_CHUNK_BYTES // len(longest)",
        (TEST_CLI + "test_listings_are_written_in_bounded_chunks",),
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
