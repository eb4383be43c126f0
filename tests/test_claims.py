"""Every line a claim verb checks can print ``no``, or restates a named theorem.

The keys come from the goldens, run with ``Report.check`` recording, and from
the ``report.check`` calls in ``src/ordtop``; a key is its first word.  Under its
``KILLERS`` entry, one replaced function, a key's line prints ``no`` and its verb
exits 1; ``THEOREMS`` names the theorem fixing each other line.

Every other ``key: yes`` line of the goldens is a verdict that no check
records: ``STATED`` names the theorem a literal line restates, and
``COMPUTED`` the run on which a computed verdict prints ``no``.
"""

import re
from pathlib import Path

import pytest

import ordtop.cli
import ordtop.factorization as factorization
from ordtop import (ProductModel, Report, Topology, build_poset, build_Q, idl_poset,
                    lower_set_model, symbolic)
from ordtop.factorization import _relative_rows

from test_cli import ARGV_GOLDEN, DATA, GOLDEN, _call, all_pairs_shadows
from test_symbolic import MUTANTS


def _indiscrete(topology: Topology) -> Topology:
    n = len(topology)
    return Topology(topology.elements, [(1 << n) - 1] * n)


def _unordered_completion(q):
    return build_poset(idl_poset(q)[0].elements, []), {}


def _coarse_x_after_q(model):
    # made coarse once Q is built, so that Q keeps the triples of the discrete X
    q = build_Q(model)
    model.topology_x = _indiscrete(model.topology_x)
    return q


def _indiscrete_on_ideals(p, at):
    # the model's own maxima keep their topology; only the completion's, sets of triples, lose it
    rows = _relative_rows(p, at)
    return [(1 << len(at)) - 1] * len(at) if all(isinstance(e, frozenset) for e in p.elements) else rows


def _coarse_x_first(model, y):
    # made coarse once the model is built, so that the model keeps its discrete X
    model.topology_x = _indiscrete(model.topology_x)
    return lower_set_model(model, y)


def _cutoffs(mutant):
    return (["lhat-cert", "--eval-bound", "6"], symbolic, "cutoff_open", MUTANTS[mutant])


FACTOR = ["factor", "--input", DATA / "model_2x1.json"]
ALL_PAIRS = (FACTOR, ProductModel, "_shadows", all_pairs_shadows)
COARSE_X = (FACTOR, factorization, "build_Q", _coarse_x_after_q)
DIAGONAL = ["diagonal", "--input", DATA / "family_uniform3.json"]
OUTSIDE = (DIAGONAL, symbolic, "symbolic_member", lambda open_set, point: False)

# key -> (argv, owner, attribute, replacement)
KILLERS = {
    "claim-selected-are-ideals": ALL_PAIRS,
    "claim-max-ideals-are-selected": (FACTOR, factorization, "idl_poset", _unordered_completion),
    "claim-selected-are-maximal": ALL_PAIRS,
    "claim-max-point-bijection": ALL_PAIRS,
    "claim-map-continuous": COARSE_X,
    "claim-map-open": (FACTOR, factorization, "_relative_rows", _indiscrete_on_ideals),
    "topology-transport-exact": COARSE_X,
    "max-homeomorphic-to-factor": (["lower-model", "--input", DATA / "model_2x1.json"],
                                   ordtop.cli, "lower_set_model", _coarse_x_first),
    "witness-in-member": OUTSIDE,
    "witness-in-every-member": OUTSIDE,
    "witness-not-maximal": (DIAGONAL, symbolic, "is_maximal", lambda point, mode: True),
    "intersection-strictly-exceeds-max": OUTSIDE,
    "cutoff": _cutoffs("dropping-a-chain"),
    "non-maximal-chain-points-excluded": _cutoffs("excluding-too-little"),
    "chain-tops-in-every-cutoff": _cutoffs("dropping-a-chain"),
    "selector-points-in-every-cutoff": _cutoffs("losing-the-selectors"),
    "intersection-equals-max-at-bound": _cutoffs("excluding-too-little"),
}

# the keys whose check names its first witness, as ``no [witness]``
WITNESSED = {"claim-selected-are-ideals", "claim-max-ideals-are-selected",
             "claim-selected-are-maximal", "claim-map-continuous", "claim-map-open",
             "non-maximal-chain-points-excluded", "chain-tops-in-every-cutoff",
             "selector-points-in-every-cutoff"}

THEOREMS = {
    "claim-partial-order": "Q is P restricted to its open-box elements: a partial order",
    "scott-closed": "a down-set is lower, and a finite directed set holds its supremum",
    "max-equals-fiber": "the maximal elements below a set of maximal elements are that set",
}


# key -> the theorem restated by a ``yes`` line that no check records
STATED = {
    "dcpo": "a nonempty finite directed set holds its supremum as its greatest element",
    "continuous": "way-below is the order on a finite dcpo, so each element is the sup "
                  "of its approximants",
    "algebraic": "every element of a finite dcpo is compact",
    "ideal-domain": "every element of a finite dcpo is compact",
    "isomorphic-to-base": "every ideal of a finite poset is principal, and down(a) <= down(b) "
                          "exactly when a <= b",
    "ambient-ideal-domain": "the model poset is finite, so every element is compact",
    "lower-set-ideal-domain": "a lower set of a finite poset is finite, so every element is compact",
    "discrete": "the maxima of a finite poset form an antichain, so each trace of a principal "
                "up-set is a singleton",
}

# key -> (argv, owner, attribute, replacement) under which a computed verdict prints ``no``
COMPUTED = {
    "bounded-complete": (["check", "--input", DATA / "bowtie.json"], None, None, None),
    "verified": ALL_PAIRS,
}


def test_every_checked_line_is_killed_or_a_theorem(monkeypatch, capsys):
    ran, check = set(), Report.check

    def recording(self, key, *args):
        ran.add(key.partition(" ")[0])
        return check(self, key, *args)

    monkeypatch.setattr(Report, "check", recording)
    for golden in GOLDEN:
        verb, _, stem = golden.stem.partition("_")
        assert _call(capsys, [verb, "--input", DATA / f"{stem}.json"])[0] == 0
    for argv in ARGV_GOLDEN.values():
        assert _call(capsys, argv)[0] == 0
    calls = re.compile(r'report\.check\(\s*f?"([^"]*)"')
    scanned = {key.partition(" ")[0] for path in Path(factorization.__file__).parent.glob("*.py")
               for key in calls.findall(path.read_text(encoding="utf-8"))}
    assert ran == scanned and len(scanned) == 20
    assert not KILLERS.keys() & THEOREMS.keys()
    assert scanned == KILLERS.keys() | THEOREMS.keys()


@pytest.mark.parametrize("key", sorted(KILLERS))
def test_each_killer_makes_its_line_print_no(capsys, monkeypatch, key):
    argv, owner, attribute, replacement = KILLERS[key]
    monkeypatch.setattr(owner, attribute, replacement)
    code, out, err = _call(capsys, argv)
    assert (code, err) == (1, "")
    value = next(value for name, _, value in (line.partition(": ") for line in out.splitlines())
                 if name.partition(" ")[0] == key and value != "yes")
    assert value.startswith("no [") if key in WITNESSED else value == "no"
    assert out.endswith("verified: no\n")


def test_every_other_yes_line_is_stated_or_computed():
    checked = KILLERS.keys() | THEOREMS.keys()
    lines = [line.partition(": ") for golden in sorted((DATA / "golden").rglob("*.out"))
             for line in golden.read_text(encoding="utf-8").splitlines()]
    yes = {name.partition(" ")[0] for name, _, value in lines if value == "yes"}
    assert not STATED.keys() & COMPUTED.keys() and not (STATED.keys() | COMPUTED.keys()) & checked
    assert yes - checked == STATED.keys() | COMPUTED.keys()


@pytest.mark.parametrize("key", sorted(COMPUTED))
def test_each_computed_line_can_print_no(capsys, monkeypatch, key):
    argv, owner, attribute, replacement = COMPUTED[key]
    if owner is not None:
        monkeypatch.setattr(owner, attribute, replacement)
    out = _call(capsys, argv)[1]
    assert f"{key}: no" in out.splitlines()
