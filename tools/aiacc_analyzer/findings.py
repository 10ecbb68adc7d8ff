"""Finding record, text/JSON emitters, baseline, inline suppressions.

The JSON artifact format is shared with tools/run_clang_tidy.py
(--fix-notes) so CI consumes one findings shape from both linters:

    {"version": 1, "tool": "...",
     "findings": [{"check","file","line","message","symbol"}...]}

Baselines match on (check, file, symbol, message) — never on line, so
unrelated edits above a baselined finding don't resurrect it.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass

FORMAT_VERSION = 1

SUPPRESS_RE = re.compile(r"ANALYZER-OK\(\s*([\w-]+)\s*(?::[^)]*)?\)")


@dataclass(frozen=True)
class Finding:
    check: str
    file: str  # repo-relative
    line: int
    message: str
    symbol: str = ""  # enclosing function, for stable baseline keys

    def text(self) -> str:
        return f"{self.file}:{self.line}: {self.check}: {self.message}"

    def baseline_key(self) -> tuple:
        return (self.check, self.file, self.symbol, self.message)


def to_json(findings: list[Finding], tool: str) -> str:
    return json.dumps(
        {
            "version": FORMAT_VERSION,
            "tool": tool,
            "findings": [asdict(f) for f in findings],
        },
        indent=2,
    ) + "\n"


def load_baseline(path: str) -> set[tuple]:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return set()
    keys = set()
    for item in data.get("findings", []):
        keys.add((item.get("check", ""), item.get("file", ""),
                  item.get("symbol", ""), item.get("message", "")))
    return keys


def write_baseline(path: str, findings: list[Finding]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "version": FORMAT_VERSION,
                "findings": [
                    {"check": x.check, "file": x.file, "symbol": x.symbol,
                     "message": x.message}
                    for x in findings
                ],
            },
            f, indent=2)
        f.write("\n")


def inline_suppressions(raw_text: str) -> dict[int, set[str]]:
    """line number -> suppressed check names, from
    `// ANALYZER-OK(check: reason)` comments in the raw (unstripped)
    file text. A comment suppresses findings on its own line and the
    line below it."""
    supp: dict[int, set[str]] = {}
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        for m in SUPPRESS_RE.finditer(line):
            supp.setdefault(lineno, set()).add(m.group(1))
    return supp


def is_suppressed(f: Finding, supp: dict[int, set[str]]) -> bool:
    for line in (f.line, f.line - 1):
        checks = supp.get(line)
        if checks and (f.check in checks or "all" in checks):
            return True
    return False
