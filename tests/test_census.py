"""The reachability census: which functions of ``src/ordtop`` a run of the program enters.

A fresh interpreter installs a ``sys.settrace`` hook before it imports
``ordtop.cli``, then runs ``main`` on the argvs of the CLI goldens, of
``ARGV_GOLDEN``, of the help goldens and one usage error, and of every CLI job
of the three benchmark workloads at seed 101.  A function is a ``def`` at any depth; class bodies, comprehensions and
lambdas are not counted, and what runs at import counts as entered.  Every
function that no run enters must be listed in ``UNENTERED`` with its reason,
and no listed function may be entered, so the table cannot go stale: a perf
change to a listed function speeds up nothing a verb runs.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

from test_cli import ARGV_GOLDEN, DATA, GOLDEN, HELP_GOLDEN
from test_perfbench_verdicts import _load

SRC = Path(__file__).resolve().parents[1] / "src"

# the child: from before ordtop's first import, record the code of every call (the hook returns None, so no
# line is traced), run each argv and print what was entered
CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

seen = set()
sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))
import ordtop.cli
with open(sys.argv[1], encoding="utf-8") as handle:
    argvs = json.load(handle)
for argv in argvs:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            ordtop.cli.main(argv)
        except SystemExit:
            pass
sys.settrace(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in seen]))
"""

DEFINITION = "a directed-set definition or an oracle that a fast path answers to"
LIBRARY = "the library's own surface, a public name or a method of a public class, that no verb needs"
TOOLING = "test tooling or a second body for a claim, waiting to move to tests/helpers.py"
REPLAY = "the truncation replay and what only it reaches: no verb calls it, the benchmark's replay jobs do"

# every function that no run enters, by <module>.<qualified name>, with its reason
UNENTERED = {
    **dict.fromkeys([
        "ideals.all_ideals", "poset.FinitePoset._directed", "poset.FinitePoset._sup", "topology._directed_sups",
        "topology.compact_elements", "topology.is_algebraic", "topology.is_continuous", "topology.is_gdelta",
        "topology.is_ideal_domain", "topology.is_scott_closed", "topology.is_scott_open", "topology.way_below",
    ], DEFINITION),
    **dict.fromkeys([
        "factorization.ProductModel.__repr__", "factorization.QTriple.__str__", "factorization.chain_pairs_model",
        "poset.FinitePoset.__repr__", "poset.FinitePoset.down_set", "poset.FinitePoset.from_relation",
        "poset.FinitePoset.index", "poset.FinitePoset.is_directed", "poset.FinitePoset.le",
        "poset.FinitePoset.restrict", "poset.FinitePoset.supremum", "poset.FinitePoset.up_set",
        "poset.LabelledRows.__contains__", "poset.LabelledRows.__eq__", "poset.LabelledRows.__hash__",
        "poset.LabelledRows.__iter__", "poset.LabelledRows._positions", "poset.LabelledRows.is_open",
        "poset.LabelledRows.mask_of", "poset.Record.__delattr__", "poset.Record.__repr__",
        "poset.Record.__setattr__", "poset.load_poset", "report.Report.__repr__", "report.Report.__str__",
        "topology.Topology.__repr__", "topology.Topology.from_opens", "topology.Topology.opens",
        "topology.Topology.renamed", "topology.Topology.smallest_open", "topology.Topology.sorted_opens",
        "topology.Topology.validate", "topology.relative_topology",
    ], LIBRARY),
    **dict.fromkeys([
        "factorization.algebraic_model", "factorization.covering_intersection", "factorization.ideal_J",
        "ideals.principal_ideal", "poset.find_order_isomorphism", "poset.find_order_isomorphism.<locals>.backtrack",
        "poset.find_order_isomorphism.<locals>.consistent", "poset.poset_to_json", "poset._string_labels",
        "poset.product",
    ], TOOLING),
    **dict.fromkeys([
        "symbolic.ChainPoint.__init__", "symbolic.ChainTop.__init__", "symbolic.Cylinder.matches",
        "symbolic.SelectorPoint._from_fields", "symbolic._granted", "symbolic._selectors",
        "symbolic.truncate_domain", "symbolic.truncation_members", "symbolic.truncation_poset",
    ], REPLAY),
}


def _functions(code: CodeType, module: str, prefix: str = ""):
    """((module, first line, name), qualified name) for each function compiled into ``code``, at any depth."""
    for const in code.co_consts:
        if not isinstance(const, CodeType):
            continue
        name = prefix + const.co_name
        if const.co_name.startswith("<"):  # a comprehension, generator expression or lambda
            yield from _functions(const, module, prefix)
        elif const.co_flags & inspect.CO_OPTIMIZED:  # a function; a class body is not optimized
            yield (module, const.co_firstlineno, const.co_name), f"{module}.{name}"
            yield from _functions(const, module, name + ".<locals>.")
        else:
            yield from _functions(const, module, name + ".")


def _census(tmp_path: Path) -> tuple[set[str], set[str]]:
    """Every function of ``src/ordtop`` by qualified name, and those that some run entered."""
    functions = {}
    for path in sorted((SRC / "ordtop").glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        functions.update(_functions(code, path.stem))
    argvs = [[verb, "--input", str(DATA / f"{stem}.json")]
             for verb, _, stem in (g.stem.partition("_") for g in GOLDEN)]
    argvs += ARGV_GOLDEN.values()
    # help and a usage error are runs too, and only they reach argparse
    argvs += [["-h"] if g.stem == "ordtop" else [g.stem, "-h"] for g in HELP_GOLDEN] + [["check"]]
    corpus = _load("corpus")
    for workload in corpus.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        argvs += [job["argv"] for job in corpus.build(workload, str(directory), 101) if job["kind"] == "cli"]
    listed = tmp_path / "argvs.json"
    listed.write_text(json.dumps(argvs), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(listed)], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    entered = {functions.get((Path(file).stem, line, name)) for file, line, name in json.loads(done.stdout)
               if Path(file).parent == SRC / "ordtop"}
    return set(functions.values()), entered - {None}


def test_every_function_is_entered_or_listed_with_a_reason(tmp_path):
    functions, entered = _census(tmp_path)
    assert sorted(set(UNENTERED) - functions) == []  # a listed name that is gone
    assert sorted(set(UNENTERED) & entered) == []  # a listed function that a run enters
    assert sorted(functions - entered - set(UNENTERED)) == []  # a function nothing enters or lists
