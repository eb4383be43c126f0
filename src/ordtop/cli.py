"""Command line interface.

Every verb prints stable ``key: value`` lines (or a JSON / DOT document for
the export verbs) so runs can be diffed.  Exit codes: 0 when the requested
checks pass; 1 when a claim does not hold, either because a claim verb
(``factor``, ``lower-model``, ``diagonal``, ``lhat-cert``) printed a report
holding a failed check or because a ``VerificationFailed`` was raised; 2 for
an ``InputError`` or ``OSError`` (the input is unusable).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain, combinations, islice, repeat
from operator import add, and_, itemgetter, rshift
from typing import Iterator, Sequence

from .errors import InputError, TooLarge, UnknownLabel, VerificationFailed, excerpt
from .factorization import ProductModel, factor_model, lower_set_model, model_from_json
from .poset import (FinitePoset, _iter_bits, _mirror, covers_json_text, label_text, load_json,
                    poset_from_json, to_dot)
from .symbolic import (
    MODE_L,
    MODE_LHAT,
    Selector,
    diagonal_witness,
    family_from_json,
    gdelta_certificate_lhat,
    truncation_hasse,
    truncation_size,
)
from .topology import Topology, is_bounded_complete, relative_topology, scott_opens


def _yn(value: bool) -> str:
    return "yes" if value else "no"


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
    text = ",".join(label_text(p.elements[i]) for i in _iter_bits(p._max_mask))
    print(f"maximal: {{{text}}}")
    return 0


def _open_texts(topology: Topology) -> Iterator[str]:
    """The points of each open as ``a,b``, in the canonical order of ``Topology.open_masks``.

    On a discrete space every subset is open, and ``combinations`` yields
    each size by sorted positions, which is the canonical order: no mask is
    built.  Any other space is spelled from its masks.
    """
    if topology.is_discrete:
        texts = [label_text(pt) for pt in topology.space]
        return chain.from_iterable(map(",".join, combinations(texts, k))
                                   for k in range(len(texts) + 1))
    return _set_texts(topology.space, topology.open_masks)


# a listing goes to stdout in writes of at most this many UTF-8 bytes, unless one line is longer
LISTING_CHUNK_BYTES = 1 << 20


def _print_opens(topology: Topology) -> None:
    """One ``open: {...}`` line per open, in the canonical order, in writes of about 1 MB.

    No open is longer than the whole space, so each write takes as many
    lines as fit in ``LISTING_CHUNK_BYTES`` at the whole space's line
    length.  A write joins its lines in one call, so no Python bytecode
    runs per open, and one chunk of the listing is held at a time.
    """
    texts = _open_texts(topology)
    longest = f"open: {{{','.join(map(label_text, topology.space))}}}\n"
    per_write = max(1, LISTING_CHUNK_BYTES // len(longest.encode()))
    while batch := list(islice(texts, per_write)):
        sys.stdout.write("open: {" + "}\nopen: {".join(batch) + "}\n")


def cmd_topology(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    topology = scott_opens(p)
    print(f"elements: {len(p)}")
    print(f"open-count: {topology.open_count}")
    _print_opens(topology)
    return 0


def cmd_maxspace(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    maximal = p.maximal_elements()
    rel = relative_topology(p, maximal)
    print(f"max-count: {len(rel.space)}")
    print(f"open-count: {rel.open_count}")
    print(f"discrete: {_yn(rel.is_discrete)}")
    _print_opens(rel)
    return 0


def cmd_idl(args: argparse.Namespace) -> int:
    p = _load_poset(args)
    print(f"base-elements: {len(p)}")
    # every ideal is principal, and down(a) <= down(b) exactly when a <= b
    print(f"ideal-count: {len(p)}")
    print("isomorphic-to-base: yes")
    masks = [_mirror(down, len(p)) for down in p._down]
    for e, text in zip(p.elements, _set_texts(p.elements, masks)):
        print(f"principal {label_text(e)}: {{{text}}}")
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    model = _load_model(args)
    completion, point_map, report = factor_model(model)
    print(report.render())
    for x in model.label_x:
        print(f"ideal-size {label_text(x)}: {len(point_map[x])}")
    print(f"completion-elements: {len(completion)}")
    print(f"verified: {_yn(report.ok)}")
    return 0 if report.ok else 1


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
    print(f"verified: {_yn(report.ok)}")
    return 0 if report.ok else 1


def cmd_diagonal(args: argparse.Namespace) -> int:
    family = family_from_json(load_json(args.input))
    witness, report = diagonal_witness(family, offsets=args.offset)
    print(report.render())
    print(f"witness: {_witness_text(witness)}")
    print(f"witness-default: {witness.default}")
    print(f"verified: {_yn(report.ok)}")
    return 0 if report.ok else 1


# lhat-cert costs O(1) per cutoff and prints one line per cutoff, so time and output are
# linear in b = --eval-bound; the cap bounds the output (about 107 KB at 3000) until the
# certificate is decided over all naturals
MAX_EVAL_BOUND = 3000


def cmd_lhat_cert(args: argparse.Namespace) -> int:
    report = gdelta_certificate_lhat(args.eval_bound)
    print(report.render())
    print(f"verified: {_yn(report.ok)}")
    return 0 if report.ok else 1


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


def _add_input(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument("--input", required=True, help=f"path to a {what} file")


def _add_bound(sub: argparse.ArgumentParser, default: int = 20) -> None:
    sub.add_argument("--max-elements", type=_in_range(0), default=default,
                     help=f"input size bound, in poset elements (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordtop",
        description="order-theoretic domain checks, factorizations, and certificates",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check", help="structural properties of a finite poset")
    _add_input(sub, "poset JSON")
    _add_bound(sub)

    sub = commands.add_parser("topology", help="all Scott open sets of a finite poset")
    _add_input(sub, "poset JSON")
    _add_bound(sub)

    sub = commands.add_parser("maxspace", help="relative topology on the maximal elements")
    _add_input(sub, "poset JSON")
    _add_bound(sub)

    sub = commands.add_parser("idl", help="ideal completion of a finite poset")
    _add_input(sub, "poset JSON")
    _add_bound(sub)

    sub = commands.add_parser("factor", help="factor model construction with verification")
    _add_input(sub, "product model JSON")
    _add_bound(sub)

    sub = commands.add_parser("lower-model", help="down set of one fiber of a product model")
    _add_input(sub, "product model JSON")
    sub.add_argument("--y0", help="fiber label on the second factor (default: the model's base point)")
    _add_bound(sub)

    sub = commands.add_parser("diagonal", help="diagonal witness against a covering family")
    _add_input(sub, "open family JSON")
    sub.add_argument("--offset", type=_in_range(0), default=0,
                     help="lift every witness position this far above its threshold")

    sub = commands.add_parser("lhat-cert", help="countable-intersection certificate for the pruned domain")
    sub.add_argument("--eval-bound", type=_in_range(0, MAX_EVAL_BOUND), default=50,
                     help="check chain points and cutoffs up to this index (default 50)")

    sub = commands.add_parser("truncate-l", help="finite prefix of the chain-bundle domain as poset JSON")
    sub.add_argument("--width", type=_in_range(1), required=True, help="number of chains kept")
    sub.add_argument("--depth", type=_in_range(1), required=True,
                     help="finite positions kept per chain")
    sub.add_argument("--mode", choices=(MODE_L, MODE_LHAT), default=MODE_L)
    _add_bound(sub, default=5000)

    sub = commands.add_parser("hasse", help="DOT rendering of the cover relation")
    _add_input(sub, "poset JSON")
    sub.add_argument("--dot", help="write the DOT text here instead of stdout")
    _add_bound(sub)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and shared by every later call.

    Nothing changes it once built, and ``parse_args`` fills a fresh namespace
    on every call, so no call sees the flags of another.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # verb v is answered by cmd_v (dashes as underscores), looked up per call
    # so that a handler replaced on this module is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
