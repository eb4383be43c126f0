import argparse
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from io import BytesIO, TextIOWrapper
from pathlib import Path
from tempfile import TemporaryDirectory
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ordtop.cli
import ordtop.poset
from ordtop import (InputError, OrdtopError, ProductModel, Topology, VerificationFailed, build_poset,
                    chain_pairs_model, label_text, model_to_json, relative_topology, scott_opens)
from ordtop.cli import MAX_EVAL_BOUND, _open_texts, _set_texts, build_parser, main
from ordtop.symbolic import MODE_L, MODE_LHAT, truncation_size

from helpers import (antichain, chain, discrete_model, numeric_poset, oracle_posets,
                     oracle_sorted_opens)

DATA = Path(__file__).parent / "data"
GOLDEN = sorted((DATA / "golden").glob("*.out"))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def _call(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call, a usage error included."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _utf8_call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call, through streams that encode like a process's.

    Stdout encodes UTF-8 strictly, as under ``PYTHONIOENCODING=utf-8:strict``,
    and stderr escapes what UTF-8 cannot encode, as Python's always does;
    a ``StringIO`` takes text that no process could print.
    """
    out = TextIOWrapper(BytesIO(), encoding="utf-8", errors="strict")
    err = TextIOWrapper(BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        out.flush()
        err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


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
    ("hasse", "chain"), ("factor", "model"), ("lower-model", "model"),
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


@pytest.mark.parametrize("verb,kind", [
    ("check", "chain"), ("topology", "chain"), ("maxspace", "chain"), ("idl", "chain"),
    ("hasse", "chain"), ("factor", "model"), ("lower-model", "model"),
])
def test_size_guard_runs_before_the_closure(capsys, monkeypatch, tmp_path, verb, kind):
    # the bound reads the document's elements array, so an oversized input closes no order
    if kind == "chain":
        labels = [f"e{i}" for i in range(25)]
        document = {"elements": labels, "covers": [list(pair) for pair in zip(labels, labels[1:])]}
    else:
        document = model_to_json(discrete_model(5, 5))
    big = tmp_path / "big.json"
    big.write_text(json.dumps(document))
    closed = []
    monkeypatch.setattr(ordtop.poset, "_transitive_close", closed.append)
    assert _call(capsys, [verb, "--input", big]) == (
        2, "", "error: poset has 25 elements; input size bounded at 20\n")
    assert not closed


def test_truncation_guard_is_an_input_error(capsys):
    # 4 chains of 5 points and 4^4 selectors at two levels: 532 elements
    code = main(["truncate-l", "--width", "4", "--depth", "4", "--max-elements", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: truncation would hold 532 elements, bound is 100\n"
    code, out = run(capsys, "truncate-l", "--width", 4, "--depth", 4, "--max-elements", 532)
    assert code == 0
    assert len(json.loads(out)["elements"]) == 532


@pytest.mark.parametrize("width,depth", [(5000, 10), (3000, 10), (10**30, 1), (1, 10**30)],
                         ids=["width-5000", "width-3000", "huge-width", "huge-depth"])
def test_truncation_guard_needs_no_full_power(capsys, width, depth):
    # 10^5000 selectors: the count is refused before its 5000 digits are formed
    code = main(["truncate-l", "--width", str(width), "--depth", str(depth)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: truncation would hold more than ")
    assert "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["check", "--input", str(DATA / "diamond.json"), "--max-elements", "9" * 5000],
    ["lhat-cert", "--eval-bound", "9" * 5000],
    ["lhat-cert", "--eval-bound", "-" + "9" * 4000],
    ["truncate-l", "--width", "5000", "--depth", "10", "--max-elements", "9" * 4000],
], ids=["check-bound-5000-digits", "eval-bound-5000-digits", "eval-bound-minus-4000-digits",
        "truncation-bound-4000-digits"])
def test_huge_numeric_flags_keep_stderr_short(capsys, argv):
    # a value past the 4300-digit limit is an invalid int; one below it is printed cut short
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize("bound", ["3001", "1" * 28])
def test_eval_bound_past_the_cap_is_a_usage_error(capsys, bound):
    # a 28-digit bound used to build cutoff exceptions until memory ran out
    code, out, err = _call(capsys, ["lhat-cert", "--eval-bound", bound])
    assert code == 2
    assert out == ""
    assert "must be at most 3000" in err
    assert "Traceback" not in err
    assert len(err.encode()) < 300


def test_eval_bound_cap_is_inclusive():
    # the parser's own type function; bound 3000 itself takes seconds, so it is not run
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    [flag] = [a for a in commands.choices["lhat-cert"]._actions if "--eval-bound" in a.option_strings]
    assert flag.type("3000") == 3000
    with pytest.raises(argparse.ArgumentTypeError):
        flag.type("3001")


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


# each verb with an input it accepts, and the numeric flags it takes
_NUMERIC_FLAGS = {
    **{verb: (["--input", str(DATA / "diamond.json")], ["--max-elements"])
       for verb in ("check", "topology", "maxspace", "idl", "hasse")},
    **{verb: (["--input", str(DATA / "model_2x1.json")], ["--max-elements"])
       for verb in ("factor", "lower-model")},
    "diagonal": (["--input", str(DATA / "family_uniform3.json")], ["--offset"]),
    "lhat-cert": ([], ["--eval-bound"]),
    "truncate-l": ([], ["--width", "--depth", "--max-elements"]),
}
# arbitrary text, negative and huge integers, and small values in range
_flag_texts = st.one_of(st.text(max_size=8), st.integers(max_value=-1).map(str),
                        st.integers(min_value=10**6, max_value=10**4000).map(str),
                        st.integers(0, 5).map(str))


def _int_or_none(text: str) -> int | None:
    """The value the flag's ``int()`` parse gives, or None when it refuses the text."""
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numeric_flags_keep_the_input_contract(data):
    verb = data.draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    fixed, flags = _NUMERIC_FLAGS[verb]
    # a flag left alone keeps its default, or takes a small width or depth, so that
    # truncate-l, which needs both, often runs
    texts = {}
    for flag in flags:
        if data.draw(st.booleans()):
            texts[flag] = data.draw(_flag_texts)
        elif flag in ("--width", "--depth"):
            texts[flag] = data.draw(st.integers(1, 4).map(str))
    argv = [verb, *fixed, *(f"{flag}={text}" for flag, text in texts.items())]
    value = {flag: _int_or_none(text) for flag, text in texts.items()}.get
    if verb == "lhat-cert":
        bound = value("--eval-bound", 50)
        assume(bound is None or not 0 <= bound <= MAX_EVAL_BOUND or bound <= 50)
    if verb == "truncate-l":
        mode = data.draw(st.sampled_from([MODE_L, MODE_LHAT]))
        argv += ["--mode", mode]
        width, depth, bound = value("--width"), value("--depth"), value("--max-elements", 5000)
        if None not in (width, depth, bound) and width >= 1 and depth >= 1 and bound >= 0:
            size = truncation_size(width, depth, mode)
            assume(size is None or size > bound or size <= 200)
    code, out, err = _utf8_call(argv)
    assert code in (0, 2), argv
    assert "Traceback" not in err
    assert len(err.encode()) < 300
    if code == 2:
        assert out == ""
    else:
        assert err == ""
    if verb == "truncate-l" and code == 0:
        assert len(json.loads(out)["elements"]) == truncation_size(width, depth, mode)


# what argv can carry: any bytes but NUL, decoded as Python decodes argv
_argv_texts = st.binary(max_size=8).filter(lambda raw: b"\0" not in raw).map(os.fsdecode)
_TEXT_FLAGS = {
    "--mode": (["truncate-l", "--width", "2", "--depth", "2"], [MODE_L, MODE_LHAT]),
    "--y0": (["lower-model", "--input", str(DATA / "model_2x1.json")], ["y"]),
    "--dot": (["hasse", "--input", str(DATA / "diamond.json")], ["out.dot", "caf\u00e9.dot"]),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_text_flags_keep_the_input_contract(tmp_path_factory, data):
    flag = data.draw(st.sampled_from(sorted(_TEXT_FLAGS)))
    fixed, accepted = _TEXT_FLAGS[flag]
    text = data.draw(st.sampled_from(accepted) | _argv_texts)
    if flag == "--dot":
        # one file name in a fresh directory: no separator, so the path stays there
        assume("/" not in text)
        text = f"{tmp_path_factory.mktemp('dot')}/{text}"
    code, out, err = _utf8_call([*fixed, f"{flag}={text}"])
    assert code in (0, 2), text
    assert "Traceback" not in err
    assert len(err.encode()) < 300
    if code == 2:
        assert out == "" and err
    else:
        assert err == ""
    if flag == "--mode":
        assert (code == 0) == (text in accepted)
        if code == 0:
            assert len(json.loads(out)["elements"]) == truncation_size(2, 2, text)
    elif flag == "--y0":
        assert (code == 0) == (text in accepted)
        if code == 0:
            assert out.endswith("verified: yes\n")
    elif code == 0:
        assert out == f"written: {os.fsencode(text).decode('utf-8', 'backslashreplace')}\n"
        written = Path(text).read_text(encoding="utf-8")
        assert written == (DATA / "golden" / "hasse_diamond.out").read_text(encoding="utf-8")


# -- labels that no output stream can print ---------------------------------------------

LONE = "\ud801"
_ONE_PAIR = {"poset": {"elements": ["m"], "covers": []}, "labelX": ["x"], "labelY": ["y"],
             "maxLabeling": {"m": ["x", "y"]}, "y0": "y"}


@pytest.mark.parametrize("verb,document", [
    *(pytest.param(verb, {"elements": ["a", LONE], "covers": [["a", LONE]]}, id=f"element-{verb}")
      for verb in ("check", "topology", "maxspace", "idl", "hasse")),
    *(pytest.param(verb, {**_ONE_PAIR, "labelX": [LONE], "maxLabeling": {"m": [LONE, "y"]}},
                   id=f"x-label-{verb}") for verb in ("factor", "lower-model")),
    *(pytest.param(verb, {**_ONE_PAIR, "labelY": [LONE], "maxLabeling": {"m": ["x", LONE]},
                          "y0": LONE}, id=f"y-label-{verb}") for verb in ("factor", "lower-model")),
])
def test_labels_utf8_cannot_encode_are_input_errors(tmp_path, verb, document):
    # JSON spells a lone surrogate as \ud801; printed, it would raise past main
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert _utf8_call([verb, "--input", path]) == (
        2, "", "error: label '\\ud801' is not UTF-8 text\n")


def test_a_strict_utf8_process_prints_no_traceback(tmp_path):
    # the two escapes as a shell meets them: a lone surrogate in the input,
    # and a --dot file name whose byte is not UTF-8
    poset, broken = tmp_path / "poset.json", tmp_path / "broken.json"
    poset.write_text(json.dumps({"elements": ["a"], "covers": []}))
    broken.write_text(json.dumps({"elements": [LONE], "covers": []}))
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "ordtop"]
    refused = subprocess.run([*command, "check", "--input", broken], capture_output=True, env=env)
    assert (refused.returncode, refused.stdout) == (2, b"")
    assert refused.stderr == b"error: label '\\ud801' is not UTF-8 text\n"
    written = subprocess.run([*command, "hasse", "--input", poset, "--dot", b"\xfd.dot"],
                             capture_output=True, env=env, cwd=tmp_path)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"written: \\xfd.dot\n", b"")
    assert (tmp_path / os.fsdecode(b"\xfd.dot")).read_text().startswith("digraph poset {")


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2


def _error_classes(base: type = OrdtopError) -> list[type]:
    """Every subclass of ``base``, recursively, in definition order."""
    return [c for sub in base.__subclasses__() for c in (sub, *_error_classes(sub))]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
def test_each_error_class_carries_its_exit_code(capsys, monkeypatch, error):
    # the exit code follows the base class alone, so no class can leak a traceback
    assert issubclass(error, InputError) != issubclass(error, VerificationFailed)

    def raises(args):
        raise error("the claim at hand")

    monkeypatch.setattr(ordtop.cli, "cmd_check", raises)
    code = main(["check", "--input", str(DATA / "diamond.json")])
    captured = capsys.readouterr()
    assert code == (2 if issubclass(error, InputError) else 1)
    assert captured.out == ""
    assert captured.err == "error: the claim at hand\n"


# -- one parser for every call in a process -----------------------------------------


@pytest.mark.parametrize("first,code,second,golden", [
    pytest.param(["lower-model", "--input", DATA / "model_3x2.json", "--y0", "y2"], 0,
                 ["lower-model", "--input", DATA / "model_3x2.json"], "lower-model_model_3x2",
                 id="fiber-flag-then-base-point"),
    pytest.param(["truncate-l", "--width", 2, "--depth", 3, "--mode", "Lhat", "--max-elements", 10], 2,
                 ["truncate-l", "--width", 2, "--depth", 3], "argv/truncate-l_2x3_L",
                 id="refusal-then-defaults"),
    pytest.param(["check", "--input", DATA / "diamond.json", "--max-elements", -3], 2,
                 ["check", "--input", DATA / "diamond.json"], "check_diamond",
                 id="usage-error-then-check"),
])
def test_a_call_keeps_no_flag_of_the_call_before(capsys, first, code, second, golden):
    assert _call(capsys, first)[0] == code
    expected = (DATA / "golden" / f"{golden}.out").read_text(encoding="utf-8")
    assert _call(capsys, second) == (0, expected, "")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    ordtop.cli._parser.cache_clear()
    monkeypatch.setattr(ordtop.cli, "build_parser", counted)
    try:
        assert _call(capsys, ["check", "--input", DATA / "diamond.json"])[0] == 0
        assert _call(capsys, ["no-such-verb"])[0] == 2
        assert _call(capsys, ["lhat-cert", "--eval-bound", 4])[0] == 0
        assert _call(capsys, ["hasse", "--input", DATA / "diamond.json"])[0] == 0
    finally:
        ordtop.cli._parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    source = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    probe = "import ordtop.cli; print(ordtop.cli._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    assert result.stdout == "0\n"


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
# labels whose texts collide: "a,b" is one label, and the string "{a,b}" prints as the frozenset
PUNCTUATED = ["a,b", "a", "b", "{a,b}", frozenset({"a", "b"}), ("a", "b"), "(a,b)", "{", "}"]


def punctuated_topologies() -> list[Topology]:
    """Scott opens under some covers, the discrete space on their maxima, and the antichain."""
    p = build_poset(PUNCTUATED, [("a", "a,b"), ("b", "a,b"), ("{", frozenset({"a", "b"})),
                                 ("}", ("a", "b")), ("}", "(a,b)")])
    return [scott_opens(p), relative_topology(p, p.maximal_elements()),
            scott_opens(build_poset(PUNCTUATED, []))]


LISTINGS = {
    "oracle-posets": lambda: [t for p in oracle_posets()
                              for t in (scott_opens(p), relative_topology(p, p.maximal_elements()))],
    **{f"discrete-{n}": (lambda n=n: [scott_opens(antichain(n))]) for n in CHUNK_EDGES},
    **{f"chain-{n}": (lambda n=n: [scott_opens(chain(n))]) for n in CHUNK_EDGES},
    "numeric-labels": lambda: [scott_opens(numeric_poset()),
                               relative_topology(numeric_poset(), [100, 2.5, 20, 11, 30])],
    "punctuated-labels": punctuated_topologies,
}


@pytest.mark.parametrize("name", list(LISTINGS))
def test_open_listings_match_the_frozenset_sort(name):
    # the mask path, the texts the verbs print and the count all follow the oracle's opens;
    # where no two opens share a text, equal texts mean the same opens in the same order
    for t in LISTINGS[name]():
        position = {pt: i for i, pt in enumerate(t.space)}
        texts = [",".join(label_text(x) for x in sorted(u, key=position.__getitem__))
                 for u in oracle_sorted_opens(t)]
        masked = list(_set_texts(t.space, t.open_masks))
        assert masked == texts, t.around
        assert list(_open_texts(t)) == masked and t.open_count == len(texts), t.around


def _written_opens(topology) -> list[str]:
    writes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        ordtop.cli._print_opens(topology)
    return writes


def test_listings_are_written_in_bounded_chunks(monkeypatch):
    topology = scott_opens(antichain(16))  # 2^16 opens, about 2 MB of lines
    one_write = "open: {" + "}\nopen: {".join(_open_texts(topology)) + "}\n"
    writes = _written_opens(topology)
    assert len(writes) >= 2 and "".join(writes) == one_write
    assert max(len(w.encode()) for w in writes) <= ordtop.cli.LISTING_CHUNK_BYTES
    # the bound holds in UTF-8 bytes, on the mask path too, and a line longer than it goes alone
    wide = "\u4e2d" * 4  # 4 characters, 12 bytes
    ordered = scott_opens(build_poset([wide, "\u00e9" * 4, "x"], [("x", wide)]))
    for bound in (1, 20, 64, 200):
        monkeypatch.setattr(ordtop.cli, "LISTING_CHUNK_BYTES", bound)
        writes = _written_opens(ordered)
        assert "".join(writes) == "open: {" + "}\nopen: {".join(_open_texts(ordered)) + "}\n"
        assert all(len(w.encode()) <= bound or w.count("\n") == 1 for w in writes), bound


def test_punctuated_labels_collide_on_both_listing_paths():
    # so that entry holds the discrete path to the mask path, not to distinct texts
    listed = punctuated_topologies()
    assert [t.is_discrete for t in listed] == [False, True, True]
    assert all(len(set(_open_texts(t))) < t.open_count for t in listed)


def _refuse_open_masks(monkeypatch):
    def refuse(self):
        raise AssertionError("Topology.open_masks built for a discrete space")

    spied = cached_property(refuse)
    spied.__set_name__(Topology, "open_masks")
    monkeypatch.setattr(Topology, "open_masks", spied)


MAXSPACE_GOLDEN = [g for g in GOLDEN if g.stem.partition("_")[0] == "maxspace"]


@pytest.mark.parametrize("golden", MAXSPACE_GOLDEN, ids=[g.stem for g in MAXSPACE_GOLDEN])
def test_maxspace_builds_no_open_mask(capsys, monkeypatch, golden):
    _refuse_open_masks(monkeypatch)
    test_finite_verbs_match_their_golden_stdout(capsys, golden)


@pytest.mark.parametrize("n", [0, 1, 9])
def test_topology_on_an_antichain_builds_no_open_mask(capsys, monkeypatch, tmp_path, n):
    p = antichain(n)
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"elements": list(p.elements), "covers": []}))
    opens = oracle_sorted_opens(scott_opens(p))
    _refuse_open_masks(monkeypatch)
    code, out = run(capsys, "topology", "--input", path)
    assert code == 0
    position = {pt: i for i, pt in enumerate(p.elements)}
    assert out.splitlines() == [f"elements: {n}", f"open-count: {2 ** n}"] + [
        "open: {" + ",".join(sorted(u, key=position.__getitem__)) + "}" for u in opens]


def test_topology_on_an_ordered_golden_reads_the_masks(capsys, monkeypatch):
    read = []
    build = Topology.open_masks.func

    def spy(self):
        read.append(len(self.space))
        return build(self)

    spied = cached_property(spy)
    spied.__set_name__(Topology, "open_masks")
    monkeypatch.setattr(Topology, "open_masks", spied)
    test_finite_verbs_match_their_golden_stdout(capsys, DATA / "golden" / "topology_diamond.out")
    assert read == [4]


@pytest.mark.parametrize("verb, lines", [
    ("maxspace", ["max-count: 0", "open-count: 1", "discrete: yes", "open: {}"]),
    ("topology", ["elements: 0", "open-count: 1", "open: {}"]),
])
def test_the_empty_poset_has_one_open(capsys, tmp_path, verb, lines):
    path = tmp_path / "empty.json"
    path.write_text('{"elements": [], "covers": []}')
    code, out = run(capsys, verb, "--input", path)
    assert code == 0
    assert out.splitlines() == lines


# golden/argv/<name>.out holds the stdout of `ordtop <argv>`; made by the same argv
ARGV_GOLDEN = {
    "lhat-cert_eval-bound-20": ["lhat-cert", "--eval-bound", "20"],
    "lhat-cert_eval-bound-150": ["lhat-cert", "--eval-bound", "150"],
    "truncate-l_2x3_L": ["truncate-l", "--width", "2", "--depth", "3", "--mode", "L"],
    "truncate-l_2x3_Lhat": ["truncate-l", "--width", "2", "--depth", "3", "--mode", "Lhat"],
    # one chain, one position, or both: the closed form's strides collapse
    "truncate-l_1x1_L": ["truncate-l", "--width", "1", "--depth", "1", "--mode", "L"],
    "truncate-l_3x1_Lhat": ["truncate-l", "--width", "3", "--depth", "1", "--mode", "Lhat"],
    "truncate-l_1x4_Lhat": ["truncate-l", "--width", "1", "--depth", "4", "--mode", "Lhat"],
}


@pytest.mark.parametrize("name", sorted(ARGV_GOLDEN))
def test_symbolic_verbs_match_their_golden_stdout(capsys, name):
    code, out = run(capsys, *ARGV_GOLDEN[name])
    assert code == 0
    assert out == (DATA / "golden" / "argv" / f"{name}.out").read_text(encoding="utf-8")


# the definitions that the finite theorems stand in for; no verb may call them
REFERENCES = ("way_below", "is_scott_open", "is_scott_closed", "is_gdelta", "is_continuous",
              "is_algebraic", "is_ideal_domain", "compact_elements", "all_ideals",
              "find_order_isomorphism")


@pytest.mark.parametrize("golden", [g.stem for g in GOLDEN] + sorted(ARGV_GOLDEN))
def test_finite_verbs_state_theorems_without_the_definitions(capsys, monkeypatch, golden):
    def refuse(*args, **kwargs):
        raise AssertionError("a reference definition ran on a default path")

    for name, module in list(sys.modules.items()):
        if name == "ordtop" or name.startswith("ordtop."):
            for attr in REFERENCES:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    if golden in ARGV_GOLDEN:
        test_symbolic_verbs_match_their_golden_stdout(capsys, golden)
    else:
        test_finite_verbs_match_their_golden_stdout(capsys, DATA / "golden" / f"{golden}.out")


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


@pytest.mark.parametrize("member", [
    pytest.param({"thresholds": {"default": 0, "exceptions": {"1": 5, "01": None}},
                  "allPhiLevel1": True}, id="threshold-exceptions"),
    pytest.param({"thresholds": {"default": 0, "exceptions": {}}, "allPhiLevel1": True,
                  "extraPhi": [{"conds": {"1": 2, "01": 0}, "levels": [1]}]},
                 id="cylinder-conds"),
])
def test_two_spellings_of_one_chain_index_are_refused(capsys, tmp_path, member):
    # read silently, the later spelling would win: exit 1 for the thresholds, 0 for the conds
    path = tmp_path / "family.json"
    path.write_text(json.dumps([member]))
    code = main(["diagonal", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: chain index 1 is given twice (again as '01')\n"


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
    pytest.param(["diagonal"], _edited("family_uniform3", lambda d: d[0]["thresholds"].update(
        exceptions={"1" * 4000: 1, "0" + "1" * 4000: 2})), id="aliased-chain-index"),
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


# -- the family input contract, fuzzed ----------------------------------------------

_nat = st.integers(0, 30)
_index = _nat.map(str)
_cylinders = st.fixed_dictionaries({
    "conds": st.dictionaries(_index, _nat, max_size=3),
    "levels": st.lists(st.sampled_from([0, 1]), max_size=2, unique=True),
})
_members = st.fixed_dictionaries({
    "thresholds": st.fixed_dictionaries({
        "default": st.none() | _nat,
        "exceptions": st.dictionaries(_index, st.none() | _nat, max_size=4),
    }),
    "allPhiLevel1": st.booleans(),
    "extraPhi": st.lists(_cylinders, max_size=2),
})
_families = st.lists(_members, min_size=1, max_size=5)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_not_natural = (st.integers(-10**6, -1) | st.booleans() | st.floats(allow_nan=False)
                | st.text(max_size=4) | st.lists(_nat, max_size=2))
_non_digit_keys = st.text(max_size=6).filter(lambda key: not (key.isascii() and key.isdigit()))
_bad_levels = (st.integers(-5, 5).filter(lambda lv: lv not in (0, 1)) | st.booleans()
               | st.sampled_from([0.0, 1.0, "0", "1", None]))


def _wrong_type(kind: type):
    return _json_values.filter(lambda value: not isinstance(value, kind))


@st.composite
def _malformed_families(draw):
    """A well-formed family with exactly one fault drawn into it."""
    family = draw(_families)
    member = draw(st.sampled_from(family))
    thresholds = member["thresholds"]
    cylinder = draw(_cylinders)
    fault = draw(st.sampled_from([
        "document", "member", "thresholds", "exceptions", "all-level1", "extra-phi",
        "cylinder", "conds", "levels", "threshold-default", "threshold-exception",
        "cylinder-minimum", "exception-key", "cond-key", "level",
    ]))
    if fault == "document":
        return draw(_wrong_type(list) | st.just([]))
    if fault == "member":
        family[family.index(member)] = draw(_wrong_type(dict))
    elif fault == "thresholds":
        member["thresholds"] = draw(_wrong_type(dict))
    elif fault == "exceptions":
        thresholds["exceptions"] = draw(_wrong_type(dict))
    elif fault == "all-level1":
        member["allPhiLevel1"] = draw(_wrong_type(bool))
    elif fault == "extra-phi":
        member["extraPhi"] = draw(_wrong_type(list))
    elif fault == "cylinder":
        member["extraPhi"].append(draw(_wrong_type(dict)))
    elif fault == "threshold-default":
        thresholds["default"] = draw(_not_natural)
    elif fault == "threshold-exception":
        thresholds["exceptions"][draw(_index)] = draw(_not_natural)
    elif fault == "exception-key":
        thresholds["exceptions"][draw(_non_digit_keys)] = draw(st.none() | _nat)
    else:
        if fault == "conds":
            cylinder["conds"] = draw(_wrong_type(dict))
        elif fault == "levels":
            cylinder["levels"] = draw(_wrong_type(list))
        elif fault == "cylinder-minimum":
            cylinder["conds"][draw(_index)] = draw(_not_natural | st.none())
        elif fault == "cond-key":
            cylinder["conds"][draw(_non_digit_keys)] = draw(_nat)
        else:
            cylinder["levels"].insert(draw(st.integers(0, 2)), draw(_bad_levels))
        member["extraPhi"].append(cylinder)
    return family


def _run_document(verb: str, document) -> tuple[int, str, str]:
    with TemporaryDirectory() as directory:
        path = Path(directory) / "input.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return _utf8_call([verb, "--input", path])


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_diagonal_keeps_its_input_contract(malformed, data):
    document = data.draw(_malformed_families() if malformed else _families)
    code, out, err = _run_document("diagonal", document)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.encode()) < 300
    if malformed:
        assert code == 2 and out == "" and err.startswith("error: ")
    else:
        assert code in (0, 1)


# -- the model input contract, fuzzed -----------------------------------------------


@st.composite
def _models(draw):
    """A well-formed product model: labelled maxima above extra elements, each below some maximum."""
    xs = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    ys = [f"y{j}" for j in range(draw(st.integers(1, 2)))]
    labeling = {f"({x},{y})": [x, y] for x in xs for y in ys}
    # at least two elements, so that a cycle can be drawn in
    extras = [f"e{i}" for i in range(draw(st.integers(len(labeling) == 1, 6)))]
    covers = []
    for i, low in enumerate(extras):
        above = extras[i + 1:] + list(labeling)
        highs = draw(st.lists(st.sampled_from(above), min_size=1, max_size=3, unique=True))
        covers += [[low, high] for high in highs]
    elements = draw(st.permutations(extras + list(labeling)))
    return {"poset": {"elements": elements, "covers": covers}, "labelX": xs, "labelY": ys,
            "maxLabeling": labeling, "y0": draw(st.sampled_from(ys))}


@st.composite
def _malformed_models(draw):
    """A well-formed model with exactly one fault drawn into it."""
    model = draw(_models())
    labeling = model["maxLabeling"]
    fault = draw(st.sampled_from(["document", "missing-key", "label-x", "pair", "y0",
                                  "bijection", "cycle"]))
    if fault == "document":
        return draw(_wrong_type(dict))
    if fault == "missing-key":
        del model[draw(st.sampled_from(sorted(model)))]
    elif fault == "label-x":
        model["labelX"] = draw(_wrong_type(list))
    elif fault == "pair":
        not_a_pair = st.lists(_json_values, max_size=4).filter(lambda pair: len(pair) != 2)
        labeling[draw(st.sampled_from(sorted(labeling)))] = draw(_wrong_type(list) | not_a_pair)
    elif fault == "y0":
        model["y0"] = draw(_json_values.filter(lambda y: y not in model["labelY"]))
    elif fault == "bijection":
        keys = draw(st.permutations(sorted(labeling)))
        if len(keys) > 1 and draw(st.booleans()):
            labeling[keys[0]] = labeling[keys[1]]
        else:
            del labeling[keys[0]]
    else:
        low, high = draw(st.permutations(model["poset"]["elements"]))[:2]
        model["poset"]["covers"] += [[low, high], [high, low]]
    return model


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_model_verbs_keep_their_input_contract(malformed, data):
    document = data.draw(_malformed_models() if malformed else _models())
    for verb in ("factor", "lower-model"):
        code, out, err = _run_document(verb, document)
        assert "Traceback" not in err
        assert len(err.encode()) < 300
        if malformed:
            assert code == 2 and out == "" and err.startswith("error: ")
        else:
            assert code == 0 and out.endswith("verified: yes\n")


# -- the poset input contract, fuzzed -----------------------------------------------

_labels = st.text(max_size=4)


@st.composite
def _posets(draw, min_size=0, max_size=8):
    """A well-formed poset: unique string labels, covers from earlier to later labels."""
    labels = draw(st.lists(_labels, min_size=min_size, max_size=max_size, unique=True))
    pairs = [[low, high] for i, low in enumerate(labels) for high in labels[i + 1:]]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    covers = [pair for pair, keep in zip(pairs, kept) if keep]
    return {"elements": draw(st.permutations(labels)), "covers": draw(st.permutations(covers))}


@st.composite
def _pair_with(draw, elements, odd):
    """A cover of one known label and one drawn from ``odd``, on either side."""
    pair = [draw(st.sampled_from(elements)), draw(odd)]
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def _malformed_posets(draw):
    """A well-formed poset of at most 7 elements with exactly one fault drawn into it."""
    poset = draw(_posets(min_size=2, max_size=7))
    elements, covers = poset["elements"], poset["covers"]
    fault = draw(st.sampled_from(["document", "missing-key", "elements", "covers", "label",
                                  "cover-label", "pair", "unknown", "duplicate", "cycle"]))
    if fault == "document":
        return draw(_wrong_type(dict))
    if fault == "missing-key":
        del poset[draw(st.sampled_from(sorted(poset)))]
    elif fault in ("elements", "covers"):
        poset[fault] = draw(_wrong_type(list))
    elif fault == "label":
        elements.insert(draw(st.integers(0, len(elements))), draw(_wrong_type(str)))
    elif fault == "cover-label":
        covers.insert(draw(st.integers(0, len(covers))), draw(_pair_with(elements, _wrong_type(str))))
    elif fault == "pair":
        not_a_pair = st.lists(st.sampled_from(elements), max_size=4).filter(lambda p: len(p) != 2)
        covers.insert(draw(st.integers(0, len(covers))), draw(_wrong_type(list) | not_a_pair))
    elif fault == "unknown":
        unknown = _labels.filter(lambda label: label not in elements)
        covers.insert(draw(st.integers(0, len(covers))), draw(_pair_with(elements, unknown)))
    elif fault == "duplicate":
        elements.insert(draw(st.integers(0, len(elements))), draw(st.sampled_from(elements)))
    else:
        low, high = draw(st.permutations(elements))[:2]
        covers += [[low, high], [high, low]]
    return poset


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_poset_verbs_keep_their_input_contract(malformed, data):
    document = data.draw(_malformed_posets() if malformed else _posets())
    for verb in ("check", "topology", "maxspace", "idl", "hasse"):
        code, out, err = _run_document(verb, document)
        assert "Traceback" not in err
        assert len(err.encode()) < 300
        if malformed:
            assert code == 2 and out == "" and err.startswith("error: ")
        else:
            assert (code, err) == (0, "")


def all_pairs_shadow(model, k):
    return frozenset((x, y) for x in model.label_x for y in model.label_y)


def test_an_all_pairs_shadow_fails_as_an_undirected_ideal(capsys, monkeypatch):
    # every element claims every pair, so every element is a triple and
    # J(x) is all of the poset, whose two maxima have no upper bound
    monkeypatch.setattr(ProductModel, "max_shadow", all_pairs_shadow)
    assert _call(capsys, ["factor", "--input", DATA / "model_2x1.json"]) == (1, (
        "q-count: 4\n"
        "claim-partial-order: yes\n"
        "claim-selected-are-ideals: no [x1]\n"
        "claim-max-ideals-are-selected: no [['(U={x1,x2},V={y},k=(x1,y))', "
        "'(U={x1,x2},V={y},k=a1)']]\n"
        "claim-selected-are-maximal: no [x1]\n"
        "claim-max-point-bijection: no\n"
        "max-count: 2\n"
        "ideal-size x1: 4\n"
        "ideal-size x2: 4\n"
        "completion-elements: 4\n"
        "verified: no\n"
    ), "")


SPLIT_MODEL = {
    # b lies below both maxima, so its shadow is the two-pair box {x0,x1} x {y0}
    "poset": {"elements": ["b", "a", "d"], "covers": [["b", "a"], ["b", "d"]]},
    "labelX": ["x0", "x1"], "labelY": ["y0"],
    "maxLabeling": {"a": ["x0", "y0"], "d": ["x1", "y0"]}, "y0": "y0",
}


def test_an_element_below_two_maxima_is_one_triple(capsys, tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(SPLIT_MODEL))
    code = main(["factor", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (
        "q-count: 3\n"
        "claim-partial-order: yes\n"
        "claim-selected-are-ideals: yes\n"
        "claim-max-ideals-are-selected: yes\n"
        "claim-selected-are-maximal: yes\n"
        "claim-max-point-bijection: yes\n"
        "claim-map-continuous: yes\n"
        "claim-map-open: yes\n"
        "topology-transport-exact: yes\n"
        "max-count: 2\n"
        "ideal-size x0: 2\n"
        "ideal-size x1: 2\n"
        "completion-elements: 3\n"
        "verified: yes\n"
    )


@pytest.mark.parametrize("model", [
    pytest.param(lambda: discrete_model(20, 1), id="discrete20x1"),
    pytest.param(lambda: discrete_model(40, 5), id="discrete40x5"),
    pytest.param(lambda: chain_pairs_model(50), id="chainpairs50"),
])
@pytest.mark.parametrize("verb", ["factor", "lower-model"])
def test_factor_verbs_cost_no_open_listing(capsys, tmp_path, verb, model):
    # 2^20 X opens, or 2^40 x 2^4, would have to be listed to enumerate the triples
    m = model()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(m)))
    code, out = run(capsys, verb, "--input", path, "--max-elements", len(m.poset))
    assert code == 0
    assert out.endswith("verified: yes\n")
