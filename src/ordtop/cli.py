"""Command line interface.

Every verb prints stable ``key: value`` lines (or a JSON / DOT document for
the export verbs) so runs can be diffed.  Exit codes: 0 when the requested
checks pass; 1 when a claim does not hold, either because a claim verb
(``factor``, ``lower-model``, ``diagonal``, ``lhat-cert``) printed a report
holding a failed check or because a ``VerificationFailed`` was raised; 2 for
an ``InputError`` or ``OSError`` (the input is unusable) or a ``MemoryError``;
141 (128 + SIGPIPE) with nothing printed when stdout's reader goes away.  A verb is one
``_COMMANDS`` row, which holds all of its flags, and one ``cmd_<verb>`` function.
A plain argv is read from its verb's row; any other goes through argparse.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import combinations, islice, repeat
from operator import add, and_, itemgetter, rshift
from typing import Iterator, Sequence

from .errors import InputError, TooLarge, UnknownLabel, VerificationFailed, excerpt
from .factorization import ProductModel, factor_model, lower_set_model, model_from_json
from .poset import FinitePoset, _picked, covers_json_text, label_text, load_json, poset_from_json, to_dot
from .report import Report
from .symbolic import (
    MODE_L,
    MODES,
    Selector,
    diagonal_witness,
    family_from_json,
    gdelta_certificate_lhat,
    truncation_hasse,
    truncation_size,
)
from .topology import Topology, is_bounded_complete, scott_opens


def _yn(value: bool) -> str:
    return "yes" if value else "no"


def _verdict(report: Report) -> int:
    """A claim verb's last line and exit code: 0 when every check of its report held, else 1."""
    print(f"verified: {_yn(report.ok)}")
    return 0 if report.ok else 1


def _set_texts(points: Sequence, masks: Sequence[int]) -> Iterator[str]:
    """The points of each mask as ``a,b``, in position order.

    A mask holds position i at bit n - 1 - i, as ``Topology.open_masks``
    does.  Each 8-bit chunk is looked up in a table of the texts its points
    can spell (each with a leading comma), built once from each point's
    ``label_text``, and the chunks are joined from the lowest positions up.
    The per-mask work is ``map`` over ``operator`` functions, so no Python
    bytecode runs per mask.
    """
    n = len(points)
    texts: Iterator[str] = repeat("", len(masks))
    for shift in reversed(range(0, n, 8)):
        # bit b of the chunk holds position n - 1 - shift - b, so its higher bits print first
        table = [""]
        for b in range(min(8, n - shift)):
            text = "," + label_text(points[n - 1 - shift - b])
            table += [text + rest for rest in table]
        chunk = map(and_, map(rshift, masks, repeat(shift)), repeat(255))
        texts = map(add, texts, map(table.__getitem__, chunk))
    return map(itemgetter(slice(1, None)), texts)


def _bounded(document: object, args: argparse.Namespace) -> object:
    """A poset document, held to ``--max-elements``: the one size bound of the finite verbs.

    Its ``elements`` array is counted before any order is built.  Derived
    posets need no bound: the triple poset has at most one triple per
    element by construction, so it, its completion and a lower set are no
    larger than the input.
    """
    elements = document.get("elements") if isinstance(document, dict) else None
    if isinstance(elements, list) and len(elements) > args.max_elements:
        raise TooLarge(f"poset has {len(elements)} elements; input size bounded at {args.max_elements}")
    return document


def _load_poset(args: argparse.Namespace) -> FinitePoset:
    return poset_from_json(_bounded(load_json(args.input), args))


def _load_model(args: argparse.Namespace) -> ProductModel:
    document = load_json(args.input)
    _bounded(document.get("poset") if isinstance(document, dict) else None, args)
    return model_from_json(document)


def _witness_text(selector: Selector) -> str:
    points = selector.exceptions  # rebuilt from the steps on each read, so read once
    if not points:
        return "(default everywhere)"
    return " ".join(f"{i}:{v}" for i, v in points)


def cmd_check(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    print(f"elements: {len(p)}")
    # a nonempty finite directed set holds its supremum as its greatest element
    print("dcpo: yes")
    # ... so way-below is the order: every element is compact, hence all of these
    print("continuous: yes")
    print("algebraic: yes")
    print("ideal-domain: yes")
    print(f"bounded-complete: {_yn(is_bounded_complete(p))}")
    print(f"compact-count: {len(p)}")
    print(f"max-count: {p._max_mask.bit_count()}")
    text = ",".join(map(label_text, _picked(p.elements, p._max_mask)))
    print(f"maximal: {{{text}}}")
    return 0


# a listing goes to stdout in writes of at most this many UTF-8 bytes, unless one line is longer
LISTING_CHUNK_BYTES = 1 << 20


def _write_lines(head: str, texts: Sequence[str], per_write: int) -> None:
    """Each of ``texts`` as the line ``head + text + "}"``, ``per_write`` lines to a write."""
    for start in range(0, len(texts), per_write):
        sys.stdout.write(head + ("}\n" + head).join(texts[start:start + per_write]) + "}\n")


def _print_opens(topology: Topology) -> None:
    """One ``open: {...}`` line per open in the canonical order: by mask, or on a discrete space by size and
    then as ``combinations``, the subsets of the points from ``tail`` on held as texts and written under heads
    that spell the earlier points.  The held texts fit in a quarter of the write bound, each counted as its
    characters, a comma per point and its str object, so peak memory stays near that of the writes."""
    texts, n = [label_text(pt) for pt in topology.elements], len(topology)
    longest = f"open: {{{','.join(texts)}}}\n"
    per_write = max(1, LISTING_CHUNK_BYTES // len(longest.encode()))
    if not topology.is_discrete:  # one batch of masks at a time, spelled by one set of chunk tables
        spelled = _set_texts(topology.elements, topology.open_masks)
        while batch := list(islice(spelled, per_write)):
            _write_lines("open: {", batch, per_write)
        return
    tail, held, span = n, sys.getsizeof(""), 1
    while tail and (held := 2 * held + span * (len(texts[tail - 1]) + 1)) <= LISTING_CHUNK_BYTES // 4:
        tail, span = tail - 1, 2 * span
    subsets = [[""], texts] + [list(map(",".join, combinations(texts[tail:], k))) for k in range(2, n + 1)]

    def write_opens(k: int, first: int, head: str) -> None:  # the size-k opens of least position >= first
        if k < 2:  # no point, or one: held or not, each point is its own text
            return _write_lines(head, subsets[k][first:], per_write)
        for s in range(first, min(tail, n - k + 1)):
            write_opens(k - 1, s + 1, head + texts[s] + ",")
        _write_lines(head, subsets[k], per_write)

    for k in range(n + 1):
        write_opens(k, 0, "open: {")


def cmd_topology(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    topology = scott_opens(p)
    print(f"elements: {len(p)}")
    print(f"open-count: {topology.open_count}")
    _print_opens(topology)
    return 0


def cmd_maxspace(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    count = p._max_mask.bit_count()
    print(f"max-count: {count}")
    # the maxima form an antichain, so each trace of a principal up-set is a singleton
    print(f"open-count: {1 << count}")
    print("discrete: yes")
    _print_opens(Topology(_picked(p.elements, p._max_mask), (1 << i for i in range(count))))
    return 0


def cmd_idl(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    print(f"base-elements: {len(p)}")
    # every ideal is principal, and down(a) <= down(b) exactly when a <= b
    print(f"ideal-count: {len(p)}")
    print("isomorphic-to-base: yes")
    texts = list(map(label_text, p.elements))
    for text, down in zip(texts, p._down):
        print(f"principal {text}: {{{','.join(_picked(texts, down))}}}")
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    model = _load_model(args)
    completion, point_map, report = factor_model(model)
    print(report.render())
    for x in model.label_x:
        print(f"ideal-size {label_text(x)}: {len(point_map[x])}")
    print(f"completion-elements: {len(completion)}")
    return _verdict(report)


def _y_label(model: ProductModel, text: str):
    """The one Y label whose ``label_text`` is the flag's text; labels need not be strings."""
    named = [y for y in model.label_y if label_text(y) == text]
    if not named:
        raise UnknownLabel(f"{excerpt(text)} is not a Y label")
    if len(named) > 1:
        raise UnknownLabel(f"{excerpt(text)} names {len(named)} Y labels")
    return named[0]


def cmd_lower_model(args: argparse.Namespace) -> int:
    model = _load_model(args)
    fiber = model.y0 if args.y0 is None else _y_label(model, args.y0)
    sub, report = lower_set_model(model, fiber)
    print(report.render())
    return _verdict(report)


def cmd_diagonal(args: argparse.Namespace) -> int:
    family = family_from_json(load_json(args.input))
    witness, report = diagonal_witness(family, offsets=args.offset)
    print(report.render())
    print(f"witness: {_witness_text(witness)}")
    print(f"witness-default: {witness.default}")
    return _verdict(report)


# lhat-cert costs O(1) per cutoff and prints one line per cutoff, so time and output are
# linear in b = --eval-bound; the cap bounds the output (about 107 KB at 3000) until the
# certificate is decided over all naturals
MAX_EVAL_BOUND = 3000


def cmd_lhat_cert(args: argparse.Namespace) -> int:
    report = gdelta_certificate_lhat(args.eval_bound)
    print(report.render())
    return _verdict(report)


def cmd_truncate_l(args: argparse.Namespace) -> int:
    count = truncation_size(args.width, args.depth, args.mode)
    if count is None or count > args.max_elements:
        held = f"more than {sys.maxsize}" if count is None else count
        bound = excerpt(args.max_elements)
        raise TooLarge(f"truncation would hold {held} elements, bound is {bound}")
    print(covers_json_text(*truncation_hasse(args.width, args.depth, args.mode)))
    return 0


def cmd_hasse(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    text = to_dot(p)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
        # the path as the file system has it: a byte that is not UTF-8 prints as \xNN
        print(f"written: {os.fsencode(args.dot).decode('utf-8', 'backslashreplace')}")
    else:
        print(text, end="")
    return 0


def _in_range(low: int, high: int | None = None):
    """Argparse type for an integer flag from ``low`` to ``high`` (no upper end when None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {excerpt(value)}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {excerpt(value)}")
        return value

    return parse


def _flags(holds: str | None, own: dict[str, dict], bound: int | None) -> dict[str, dict]:
    """A verb's flags in its parser's order, each long name with its ``add_argument`` options: ``--input``
    when the verb reads a file that holds ``holds``, its own flags, and ``--max-elements`` when it has a bound."""
    flags = {"--input": dict(required=True, help=f"path to a {holds} file")} if holds is not None else {}
    flags.update(own)
    if bound is not None:
        flags["--max-elements"] = dict(type=_in_range(0), default=bound,
                                       help=f"input size bound, in poset elements (default {bound})")
    return flags


# one row per verb, in help's order: its help, and its flags from what its --input file holds (None: no
# --input), its own flags and its --max-elements default (None: no bound)
_COMMANDS = {
    "check": ("structural properties of a finite poset", _flags("poset JSON", {}, 20)),
    "topology": ("all Scott open sets of a finite poset", _flags("poset JSON", {}, 20)),
    "maxspace": ("relative topology on the maximal elements", _flags("poset JSON", {}, 20)),
    "idl": ("ideal completion of a finite poset", _flags("poset JSON", {}, 20)),
    "factor": ("factor model construction with verification", _flags("product model JSON", {}, 20)),
    "lower-model": ("down set of one fiber of a product model", _flags("product model JSON", {
        "--y0": dict(help="fiber label on the second factor (default: the model's base point)"),
    }, 20)),
    "diagonal": ("diagonal witness against a covering family", _flags("open family JSON", {
        "--offset": dict(type=_in_range(0), default=0, help="lift every witness position this far above its threshold"),
    }, None)),
    "lhat-cert": ("countable-intersection certificate for the pruned domain", _flags(None, {
        "--eval-bound": dict(type=_in_range(0, MAX_EVAL_BOUND), default=50,
                             help="check chain points and cutoffs up to this index (default 50)"),
    }, None)),
    "truncate-l": ("finite prefix of the chain-bundle domain as poset JSON", _flags(None, {
        "--width": dict(type=_in_range(1), required=True, help="number of chains kept"),
        "--depth": dict(type=_in_range(1), required=True, help="finite positions kept per chain"),
        "--mode": dict(choices=MODES, default=MODE_L),
    }, 5000)),
    "hasse": ("DOT rendering of the cover relation", _flags("poset JSON", {
        "--dot": dict(help="write the DOT text here instead of stdout"),
    }, 20)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordtop", description="order-theoretic domain checks, factorizations, and certificates")
    commands = parser.add_subparsers(dest="command", required=True)
    for verb, (text, flags) in _COMMANDS.items():
        sub = commands.add_parser(verb, help=text)
        for flag, options in flags.items():
            sub.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call that needs it and shared by every later call.

    Nothing changes it once built, and ``parse_args`` fills a fresh namespace
    on every call, so no call sees the flags of another.
    """
    return build_parser()


@functools.cache
def _verbs() -> dict[str, argparse.ArgumentParser]:
    """Each verb's own parser: the ones the subparsers action of ``_parser()`` holds."""
    commands, = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


# the add_argument options _plain reads as argparse does; a flag with any other (an action, nargs, a dest)
# makes its verb's argv argparse's to read
_PLAIN_OPTIONS = frozenset({"help", "type", "default", "required", "choices"})


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the verb's parser gives a plain argv, read from the verb's row; None for any other argv.

    An argv is plain when it is a verb and then (flag, value) pairs: each flag
    one of the verb's, spelled in full and given once, every required flag
    given, each value a ``str`` led by no ``-`` and passing its flag's type
    and choices, and no flag of the verb's holding an option outside
    ``_PLAIN_OPTIONS``.  The parser reads such an argv the same way, one value
    per flag, so each dest is its value or its default.
    """
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None or not len(argv) & 1:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1 or not given.keys() <= row[1].keys():  # a flag repeated or not the verb's
        return None
    values = {}
    for flag, options in row[1].items():
        if not options.keys() <= _PLAIN_OPTIONS:
            return None
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if options.get("required"):
                return None
            values[dest] = options.get("default")
            continue
        text = given[flag]
        if not isinstance(text, str) or text.startswith("-"):  # argparse reads it: its own error, or a flag
            return None
        convert = options.get("type")
        try:
            value = text if convert is None else convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # the errors argparse reports as usage
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    return argparse.Namespace(**values, command=argv[0])


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace ``_parser().parse_args(argv)`` gives, or its usage error.

    A plain argv is read from its verb's row, and no parser is built.  When
    any other argv starts with a verb, the top-level parse only hands the
    rest to that verb's parser, so its parser reads the rest directly.  Any
    other argv (none, ``-h``, an unknown verb, a leading flag or ``--``) ends
    in help or a usage error, and takes the full parse.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv)
    if args is not None:
        return args
    verb = _verbs().get(argv[0]) if argv else None
    if verb is None:
        return _parser().parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    # verb v is answered by cmd_v (dashes as underscores), looked up per call
    # so that a handler replaced on this module is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
        sys.stdout.flush()  # so that a reader gone before the exit flush is met here
        return code
    except BrokenPipeError:  # stdout's reader left (say ``| head -1``): exit as SIGPIPE would, silently
        with open(os.devnull, "w") as devnull:  # the rest, the exit flush included, goes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
