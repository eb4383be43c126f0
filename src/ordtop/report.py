"""Verification reports: ordered key/value findings with a global verdict."""

from __future__ import annotations


class Report:
    """Append-only findings, rendered one ``key: value`` line at a time.

    ``check`` records an obligation; a failing obligation flips the overall
    verdict and keeps its first witness in the rendered line, so a failed
    report says what broke without a debugger.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, str]] = []
        self.ok = True

    def info(self, key: str, value: object) -> None:
        self.entries.append((key, str(value)))

    def check(self, key: str, passed: bool, witness: object | None = None) -> bool:
        if passed:
            self.entries.append((key, "yes"))
        else:
            text = "no" if witness is None else f"no [{witness}]"
            self.entries.append((key, text))
            self.ok = False
        return passed

    def render(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.entries)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        state = "ok" if self.ok else "failed"
        return f"Report({len(self.entries)} entries, {state})"
