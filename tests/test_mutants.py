import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_exactly_once(mutant):
    # a refactor that moves a fast path must move its catalogue entry too
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.killers
    for killer in mutant.killers:
        path, _, name = killer.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), killer
