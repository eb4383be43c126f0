import json
import sys
from functools import cached_property
from pathlib import Path

import pytest

from ordtop import ProductModel, Topology, label_text, model_to_json, relative_topology, scott_opens
from ordtop.cli import _set_texts, main

from helpers import (antichain, chain, discrete_model, numeric_poset, oracle_posets,
                     oracle_sorted_opens)

DATA = Path(__file__).parent / "data"
GOLDEN = sorted((DATA / "golden").glob("*.out"))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_check_reports_structure(capsys):
    code, out = run(capsys, "check", "--input", DATA / "diamond.json")
    assert code == 0
    assert "elements: 4" in out
    assert "ideal-domain: yes" in out
    assert "bounded-complete: yes" in out
    assert "maximal: {top}" in out


def test_topology_lists_every_open(capsys):
    code, out = run(capsys, "topology", "--input", DATA / "two_chain.json")
    assert code == 0
    assert out.splitlines() == [
        "elements: 2",
        "open-count: 3",
        "open: {}",
        "open: {b}",
        "open: {a,b}",
    ]


def test_maxspace_is_discrete(capsys):
    code, out = run(capsys, "maxspace", "--input", DATA / "diamond.json")
    assert code == 0
    assert "discrete: yes" in out


def test_idl_matches_the_base(capsys):
    code, out = run(capsys, "idl", "--input", DATA / "two_chain.json")
    assert code == 0
    assert "isomorphic-to-base: yes" in out
    assert "principal b: {a,b}" in out


def test_factor_verifies_the_model(capsys):
    code, out = run(capsys, "factor", "--input", DATA / "model_2x1.json")
    assert code == 0
    assert "claim-max-point-bijection: yes" in out
    assert "verified: yes" in out


def test_lower_model_fiber(capsys):
    code, out = run(capsys, "lower-model", "--input", DATA / "model_2x1.json", "--y0", "y")
    assert code == 0
    assert "max-homeomorphic-to-factor: yes" in out


def test_lower_model_defaults_to_the_base_point(capsys):
    code, out = run(capsys, "lower-model", "--input", DATA / "model_2x1.json")
    assert code == 0
    assert "max-homeomorphic-to-factor: yes" in out


def test_lower_model_unknown_fiber_is_an_input_error(capsys):
    code, _ = run(capsys, "lower-model", "--input", DATA / "model_2x1.json", "--y0", "zzz")
    assert code == 2


def _numeric_fibers(*labels):
    # model_3x2 with its Y labels y1, y2 renamed to the given JSON values
    def edit(d):
        rename = dict(zip(d["labelY"], labels))
        d["labelY"] = list(labels)
        d["maxLabeling"] = {k: [x, rename[y]] for k, (x, y) in d["maxLabeling"].items()}
        d["y0"] = rename[d["y0"]]
    return _edited("model_3x2", edit)


def _lower_model(capsys, tmp_path, document, *flags):
    path = tmp_path / "model.json"
    path.write_bytes(document)
    code = main(["lower-model", "--input", str(path), *flags])
    return code, capsys.readouterr()


def test_lower_model_names_a_numeric_fiber_by_its_text(capsys, tmp_path):
    document = _numeric_fibers(7, 8)
    code, captured = _lower_model(capsys, tmp_path, document, "--y0", "8")
    assert code == 0
    assert "fiber: 8" in captured.out and "verified: yes" in captured.out
    # the base point 7, named by the flag or taken by default
    flagged = _lower_model(capsys, tmp_path, document, "--y0", "7")
    assert flagged == _lower_model(capsys, tmp_path, document)
    assert flagged[0] == 0


def test_lower_model_flag_matching_no_fiber_is_an_input_error(capsys, tmp_path):
    code, captured = _lower_model(capsys, tmp_path, _numeric_fibers(7, 8), "--y0", "9")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: '9' is not a Y label\n"


def test_lower_model_flag_matching_two_fibers_is_an_input_error(capsys, tmp_path):
    code, captured = _lower_model(capsys, tmp_path, _numeric_fibers(7, "7"), "--y0", "7")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: '7' names 2 Y labels\n"


def test_diagonal_prints_the_witness(capsys):
    code, out = run(capsys, "diagonal", "--input", DATA / "family_uniform3.json")
    assert code == 0
    assert "witness: 1:1 2:2" in out
    assert "witness-default: 0" in out
    assert "verified: yes" in out


def test_diagonal_offset(capsys):
    code, out = run(
        capsys, "diagonal", "--input", DATA / "family_uniform3.json", "--offset", "3"
    )
    assert code == 0
    assert "witness: 0:3 1:4 2:5" in out


def test_diagonal_rejects_non_covering_families(capsys, tmp_path):
    bad = tmp_path / "family.json"
    bad.write_text(json.dumps([
        {"thresholds": {"default": 0, "exceptions": {}}, "allPhiLevel1": True},
        {"thresholds": {"default": None, "exceptions": {}}, "allPhiLevel1": True},
    ]))
    code, _ = run(capsys, "diagonal", "--input", bad)
    assert code == 1


def test_lhat_certificate(capsys):
    code, out = run(capsys, "lhat-cert", "--eval-bound", 4)
    assert code == 0
    assert "cutoff 4 valid-and-covering: yes" in out
    assert "non-maximal-chain-points-excluded: yes" in out
    assert "verified: yes" in out


def test_truncate_emits_loadable_poset_json(capsys, tmp_path):
    code, out = run(capsys, "truncate-l", "--width", 1, "--depth", 1)
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 4
    path = tmp_path / "trunc.json"
    path.write_text(out)
    code, out = run(capsys, "check", "--input", path)
    assert code == 0
    assert "max-count: 2" in out


def test_hasse_writes_dot(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out = run(capsys, "hasse", "--input", DATA / "two_chain.json", "--dot", target)
    assert code == 0
    assert f"written: {target}" in out
    text = target.read_text()
    assert text.startswith("digraph poset {")
    assert '"a" -> "b";' in text


def test_hasse_prints_to_stdout(capsys):
    code, out = run(capsys, "hasse", "--input", DATA / "two_chain.json")
    assert code == 0
    assert out.endswith("}\n")


def test_missing_file_is_an_input_error(capsys):
    code, _ = run(capsys, "check", "--input", "no/such/file.json")
    assert code == 2


def test_invalid_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _ = run(capsys, "check", "--input", bad)
    assert code == 2


def test_cycle_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "cycle.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}))
    code, _ = run(capsys, "check", "--input", bad)
    assert code == 2


@pytest.mark.parametrize("verb,kind", [
    ("check", "chain"), ("topology", "chain"), ("maxspace", "chain"), ("idl", "chain"),
    ("factor", "model"), ("lower-model", "model"),
])
def test_size_guard_is_an_input_error(capsys, tmp_path, verb, kind):
    # 21 input elements: a chain, or the maxima of a discrete 7x3 model
    if kind == "chain":
        labels = [f"e{i}" for i in range(21)]
        document = {"elements": labels, "covers": [list(pair) for pair in zip(labels, labels[1:])]}
    else:
        document = model_to_json(discrete_model(7, 3))
    big = tmp_path / "big.json"
    big.write_text(json.dumps(document))
    code = main([verb, "--input", str(big)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: poset has 21 elements; input size bounded at 20\n"
    code, _ = run(capsys, verb, "--input", big, "--max-elements", "21")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["lhat-cert", "--eval-bound", "-1"],
    ["truncate-l", "--width", "0", "--depth", "1"],
    ["truncate-l", "--width", "1", "--depth", "-1"],
    ["diagonal", "--input", str(DATA / "family_uniform3.json"), "--offset", "-5"],
    ["check", "--input", str(DATA / "diamond.json"), "--max-elements", "-3"],
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err
    assert "Traceback" not in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2


@pytest.mark.parametrize("golden", GOLDEN, ids=[g.stem for g in GOLDEN])
def test_finite_verbs_match_their_golden_stdout(capsys, golden):
    # golden/<verb>_<input>.out holds the stdout of `ordtop <verb> --input data/<input>.json`
    verb, _, stem = golden.stem.partition("_")
    code, out = run(capsys, verb, "--input", DATA / f"{stem}.json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


LISTING_VERBS = [g for g in GOLDEN if g.stem.partition("_")[0] in ("topology", "maxspace")]


@pytest.mark.parametrize("golden", LISTING_VERBS, ids=[g.stem for g in LISTING_VERBS])
def test_listing_verbs_never_build_the_label_set_family(capsys, monkeypatch, golden):
    def refuse(self):
        raise AssertionError("Topology.opens built on a listing path")

    spied = cached_property(refuse)
    spied.__set_name__(Topology, "opens")
    monkeypatch.setattr(Topology, "opens", spied)
    test_finite_verbs_match_their_golden_stdout(capsys, golden)


CHUNK_EDGES = (0, 1, 7, 8, 9, 15, 16, 17)  # around the 8-bit chunks of the text tables
LISTINGS = {
    "oracle-posets": lambda: [t for p in oracle_posets()
                              for t in (scott_opens(p), relative_topology(p, p.maximal_elements()))],
    **{f"discrete-{n}": (lambda n=n: [scott_opens(antichain(n))]) for n in CHUNK_EDGES},
    **{f"chain-{n}": (lambda n=n: [scott_opens(chain(n))]) for n in CHUNK_EDGES},
    "numeric-labels": lambda: [scott_opens(numeric_poset()),
                               relative_topology(numeric_poset(), [100, 2.5, 20, 11, 30])],
}


@pytest.mark.parametrize("name", list(LISTINGS))
def test_open_listings_match_the_frozenset_sort(name):
    # no two opens share a text here, so equal texts mean the same opens in the same order
    for t in LISTINGS[name]():
        position = {pt: i for i, pt in enumerate(t.space)}
        texts = [",".join(label_text(x) for x in sorted(u, key=position.__getitem__))
                 for u in oracle_sorted_opens(t)]
        assert list(_set_texts(t.space, t.open_masks)) == texts, t.around


# the definitions that the finite theorems stand in for; no verb may call them
REFERENCES = ("is_continuous", "is_algebraic", "is_ideal_domain", "compact_elements",
              "all_ideals", "find_order_isomorphism")
THEOREM_VERBS = [g for g in GOLDEN if g.stem.partition("_")[0] in ("check", "idl", "factor",
                                                                   "lower-model")]


@pytest.mark.parametrize("golden", THEOREM_VERBS, ids=[g.stem for g in THEOREM_VERBS])
def test_finite_verbs_state_theorems_without_the_definitions(capsys, monkeypatch, golden):
    def refuse(*args, **kwargs):
        raise AssertionError("a reference definition ran on a default path")

    for name, module in list(sys.modules.items()):
        if name == "ordtop" or name.startswith("ordtop."):
            for attr in REFERENCES:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    test_finite_verbs_match_their_golden_stdout(capsys, golden)


# golden/argv/<name>.out holds the stdout of `ordtop <argv>`; made by the same argv
ARGV_GOLDEN = {
    "lhat-cert_eval-bound-20": ["lhat-cert", "--eval-bound", "20"],
    "truncate-l_2x3_L": ["truncate-l", "--width", "2", "--depth", "3", "--mode", "L"],
    "truncate-l_2x3_Lhat": ["truncate-l", "--width", "2", "--depth", "3", "--mode", "Lhat"],
}


@pytest.mark.parametrize("name", sorted(ARGV_GOLDEN))
def test_symbolic_verbs_match_their_golden_stdout(capsys, name):
    code, out = run(capsys, *ARGV_GOLDEN[name])
    assert code == 0
    assert out == (DATA / "golden" / "argv" / f"{name}.out").read_text(encoding="utf-8")


ARABIC_INDIC_THREE = "\u0663"


def _edited(source, edit) -> bytes:
    data = json.loads((DATA / f"{source}.json").read_text())
    edit(data)
    return json.dumps(data).encode()


UNREADABLE = {"undecodable": b"\xff\xfe{}", "deep-nesting": b"[" * 200000}


@pytest.mark.parametrize("verb,document", [
    pytest.param("factor", _edited("model_2x1", lambda d: d.update(labelX=[["x1"], "x2"])),
                 id="array-label"),
    pytest.param("lower-model", _edited("model_2x1", lambda d: d.update(labelY=[{"y": 1}])),
                 id="object-label"),
    pytest.param("diagonal", _edited("family_uniform3", lambda d: d[0]["thresholds"].update(
        exceptions={ARABIC_INDIC_THREE: 1})), id="non-ascii-exception-index"),
    pytest.param("diagonal", _edited("family_uniform3", lambda d: d[0].update(
        extraPhi=[{"conds": {ARABIC_INDIC_THREE: 1}, "levels": [1]}])), id="non-ascii-cylinder-index"),
    pytest.param("diagonal", _edited("family_uniform3", lambda d: d[0].update(
        extraPhi=[{"conds": {"0": 1}, "levels": [True]}])), id="bool-level"),
    pytest.param("diagonal", _edited("family_uniform3", lambda d: d[0].update(
        extraPhi=[{"conds": {"0": 1}, "levels": [1.0]}])), id="float-level"),
    *(pytest.param(verb, blob, id=f"{name}-{verb}")
      for name, blob in UNREADABLE.items() for verb in ("check", "factor", "diagonal")),
])
def test_malformed_documents_are_input_errors(capsys, tmp_path, verb, document):
    path = tmp_path / "doc.json"
    path.write_bytes(document)
    code = main([verb, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


HUGE = list(range(100000))
LONG = "L" * 200000


@pytest.mark.parametrize("argv,document", [
    pytest.param(["check"], json.dumps({"elements": ["a"], "covers": [HUGE]}).encode(),
                 id="cover-entry"),
    pytest.param(["factor"], _edited("model_2x1", lambda d: d["maxLabeling"].update(
        {"(x1,y)": HUGE})), id="max-labeling-entry"),
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0].update(extraPhi=[HUGE])),
                 id="extra-phi-entry"),
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0]["thresholds"].update(
        default=HUGE)), id="threshold-default"),
    pytest.param(["check"], json.dumps({"elements": [LONG, LONG], "covers": []}).encode(),
                 id="duplicate-label"),
    pytest.param(["check"], json.dumps({"elements": ["a"], "covers": [["a", LONG]]}).encode(),
                 id="unknown-cover-label"),
    pytest.param(["factor"], _edited("model_2x1", lambda d: d["maxLabeling"].update(
        {"(x1,y)": [LONG, "y"]})), id="max-labeling-value"),
    pytest.param(["factor"], _edited("model_2x1", lambda d: d["maxLabeling"].update(
        {LONG: ["x1", "y"]})), id="max-labeling-key"),
    pytest.param(["factor"], _edited("model_2x1", lambda d: d.update(y0=LONG)), id="base-point"),
    pytest.param(["lower-model", "--y0", LONG], _edited("model_2x1", lambda d: None),
                 id="y0-flag"),
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0]["thresholds"].update(
        exceptions={"1" * 4000: -1})), id="threshold-exception-key"),
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0]["thresholds"].update(
        exceptions={"1" * 200000: 1})), id="chain-index-past-the-digit-limit"),
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0].update(
        extraPhi=[{"conds": {LONG: -1}, "levels": [1]}])), id="cylinder-minimum-key"),
    pytest.param(["check"], b'{"elements": [], "covers": [], "n": ' + b"1" * 5000 + b"}",
                 id="integer-past-the-digit-limit"),
])
def test_oversized_entries_keep_stderr_short(capsys, tmp_path, argv, document):
    path = tmp_path / "doc.json"
    path.write_bytes(document)
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300


def test_a_broken_triple_order_is_a_failed_verification(capsys, monkeypatch):
    # every compact element claims every pair, so boxes smaller than the
    # whole space sit below no triple, not even themselves
    def everything(model, k):
        return frozenset((x, y) for x in model.label_x for y in model.label_y)

    monkeypatch.setattr(ProductModel, "max_shadow", everything)
    code = main(["factor", "--input", str(DATA / "model_2x1.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "triple order is not reflexive" in captured.err
    assert "Traceback" not in captured.err
