"""Verdict checks: compare one job's exit code and output with its known answer.

Each check returns None when the verdict matches and a one-line reason when
it does not.  The checks parse the documented CLI formats and never call
into ``ordtop``.
"""

from __future__ import annotations

import json
from itertools import product as cartesian


def _split_top(text: str) -> list[str]:
    """Split ``a,(b,c),d`` at the commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    parts.append(text[start:])
    return parts


def check_exact(expect: dict, stdout: str, stderr: str) -> str | None:
    if stdout != expect["stdout"]:
        want, got = expect["stdout"].splitlines(), stdout.splitlines()
        for k, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return f"line {k + 1}: expected {a!r}, got {b!r}"
        return f"expected {len(want)} lines, got {len(got)}"
    prefix = expect.get("stderr_prefix")
    if prefix is not None and not stderr.startswith(prefix):
        return f"stderr does not start with {prefix!r}: {stderr[:120]!r}"
    return None


def check_opens(expect: dict, stdout: str) -> str | None:
    """Head lines, then ``count`` distinct upper sets in canonical order.

    Distinct upper sets, as many as there are, means every upper set is
    listed exactly once.
    """
    lines = stdout.splitlines()
    head = expect["head"]
    if lines[:len(head)] != head:
        return f"head {lines[:len(head)]!r} differs from {head!r}"
    body = lines[len(head):]
    if len(body) != expect["count"]:
        return f"{len(body)} open lines, expected {expect['count']}"
    pos = {label: i for i, label in enumerate(expect["space"])}
    up = expect["up"]
    previous = None
    for line in body:
        if not (line.startswith("open: {") and line.endswith("}")):
            return f"malformed open line {line!r}"
        inner = line[7:-1]
        try:
            members = [pos[label] for label in _split_top(inner)] if inner else []
        except KeyError:
            return f"open line names a foreign point: {line!r}"
        mask = 0
        for i in members:
            mask |= 1 << i
        if any(up[i] & ~mask for i in members):
            return f"not an upper set: {line!r}"
        key = (len(members), members)
        if members != sorted(members) or len(set(members)) != len(members) or (
                previous is not None and key <= previous):
            return f"open out of canonical order or repeated: {line!r}"
        previous = key
    return None


def check_lines(expect: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    present = set(lines)
    for line in expect["required"]:
        if line not in present:
            return f"missing line {line!r}"
    for line in lines:
        if line.endswith(": no") or ": no [" in line:
            return f"failed claim {line!r}"
    return None


def truncation_shape(width: int, depth: int, mode: str) -> tuple[set, set]:
    """Elements and covers of a truncation, from the construction."""
    levels = (0, 1) if mode == "L" else (0,)
    elements, covers = set(), set()
    for i in range(width):
        elements.update(f"({i},{n})" for n in range(depth))
        elements.add(f"({i},inf)")
        covers.update((f"({i},{n})", f"({i},{n + 1})") for n in range(depth - 1))
        covers.add((f"({i},{depth - 1})", f"({i},inf)"))
    for values in cartesian(range(depth), repeat=width):
        name = "s[" + ",".join(map(str, values)) + "]@"
        elements.update(f"{name}{level}" for level in levels)
        covers.update((f"({i},{v})", f"{name}0") for i, v in enumerate(values))
        if mode == "L":
            covers.add((f"{name}0", f"{name}1"))
    return elements, covers


def check_truncation(expect: dict, stdout: str) -> str | None:
    width, depth, mode = expect["width"], expect["depth"], expect["mode"]
    data = json.loads(stdout)
    elements, covers = truncation_shape(width, depth, mode)
    count = width * (depth + 1) + depth ** width * (2 if mode == "L" else 1)
    if len(data["elements"]) != count or set(data["elements"]) != elements:
        return f"{len(data['elements'])} elements, expected {count} from the construction"
    if len(data["covers"]) != len(covers) or {tuple(p) for p in data["covers"]} != covers:
        return f"{len(data['covers'])} covers differ from the construction's {len(covers)}"
    return None


def check_replay(expect: dict, result: list) -> str | None:
    counts = [count for count, _ in result]
    if counts != expect["counts"]:
        return f"member counts {counts} differ from {expect['counts']}"
    if not all(upper for _, upper in result):
        return "a member's truncation is not an upper set"
    return None


def verdict_error(expect: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the job's verdict matches its known answer."""
    if "Traceback" in stderr:
        return "traceback leaked: " + stderr.strip().splitlines()[-1]
    if code != expect["code"]:
        return f"exit {code}, expected {expect['code']}: {stderr.strip()[:120]!r}"
    kind = expect["type"]
    try:
        if kind == "exact":
            return check_exact(expect, stdout, stderr)
        if kind == "opens":
            return check_opens(expect, stdout)
        if kind == "lines":
            return check_lines(expect, stdout)
        if kind == "truncation":
            return check_truncation(expect, stdout)
        if kind == "replay":
            return check_replay(expect, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    raise ValueError(f"unknown expectation type {kind!r}")
