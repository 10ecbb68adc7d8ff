#!/usr/bin/env python3
"""Static concurrency-invariant checks for the AIACC-Training repo.

Run as a ctest (label: lint). Three checks, all plain-text so they work
without a compiler or libclang:

  1. raw-primitive ban: `std::mutex` / `std::condition_variable` /
     `std::recursive_mutex` / `std::shared_mutex` / `notify_one(` /
     `notify_all(` may appear only in src/common/sync.h (the annotated
     wrapper layer). Everything else must use common::Mutex / CondVar so
     the lock-order detector and Clang thread-safety analysis see every
     lock in the process.

  2. (moved) the tag-layout cross-check now lives in
     tools/aiacc_analyzer as the `tag-collision` check, which evaluates
     arbitrary constant `tag_base + expr` arithmetic instead of only
     literal offsets.

  3. guarded-member audit: any class/struct in src/ that owns a
     common::Mutex member must annotate its mutable data members with
     GUARDED_BY(...) or carry an explicit `NOLOCK(reason)` comment on the
     member's line. Catches "added a field, forgot the lock" drift that
     GCC builds (no thread-safety analysis) would never see.

  4. legacy-counter ban: the HotPathCounters struct was replaced by the
     telemetry metrics registry (src/telemetry/metrics.h); any reappearance
     of `HotPathCounters` / `GlobalHotPathCounters` in src/, tests/, or
     bench/ is a regression to the pre-registry side-channel.

  5. hot-path raw-alloc ban: `new` / `malloc` / `calloc` / `realloc` may
     not appear in src/transport/ or src/compress/. Every payload and codec
     scratch buffer there must come from common::BufferPool so the
     reliability layer and the compression codecs stay allocation-free in
     steady state (the zero-alloc chaos and codec assertions depend on it).
     Deliberate exceptions carry a `NOALLOC(reason)` comment on the line.

Exit code 0 = clean, 1 = violations (printed one per line as
`file:line: message`).
"""

from __future__ import annotations

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")
SYNC_HEADER = os.path.join("src", "common", "sync.h")

FORBIDDEN = (
    "std::mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::condition_variable",
    "notify_one(",
    "notify_all(",
)


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "R" and nxt == '"' and not (
                    i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                # Raw string literal R"delim( ... )delim": no escapes, may
                # contain quotes and //-lookalikes; blank the body but
                # keep line structure.
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, i + m.end())
                    if end < 0:
                        end = n - len(close)
                    out.append('R"')
                    for ch in text[i + 2:end + len(close) - 1]:
                        out.append(ch if ch == "\n" else " ")
                    out.append('"')
                    i = end + len(close)
                    continue
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def cpp_files(*dirs: str):
    for d in dirs:
        root = os.path.join(REPO, d)
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(CPP_EXTS):
                    yield os.path.join(dirpath, name)


def relpath(path: str) -> str:
    return os.path.relpath(path, REPO)


# --- check 1: raw-primitive ban -------------------------------------------

def check_raw_primitives(errors: list[str]) -> None:
    for path in cpp_files(*SCAN_DIRS):
        rel = relpath(path)
        if rel == SYNC_HEADER:
            continue
        code = strip_comments(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            for token in FORBIDDEN:
                if token in line:
                    errors.append(
                        f"{rel}:{lineno}: raw '{token.rstrip('(')}' outside "
                        f"{SYNC_HEADER}; use common::Mutex / common::CondVar"
                    )


# Check 2 (tag-layout cross-check) moved to tools/aiacc_analyzer — the
# `tag-collision` check there folds arbitrary constant expressions over
# the tags.h environment instead of only literal `tag_base + N` offsets.


# --- check 4: legacy hot-path counter ban ---------------------------------

LEGACY_COUNTER = re.compile(r"\b(?:Global)?HotPathCounters\b")


def check_legacy_counters(errors: list[str]) -> None:
    for path in cpp_files("src", "tests", "bench"):
        code = strip_comments(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if LEGACY_COUNTER.search(line):
                errors.append(
                    f"{relpath(path)}:{lineno}: HotPathCounters was replaced "
                    f"by the telemetry metrics registry — use "
                    f"MetricsRegistry handles (src/telemetry/metrics.h)"
                )


# --- check 5: transport raw-alloc ban --------------------------------------

RAW_ALLOC = re.compile(r"\bnew\b|\b(?:malloc|calloc|realloc)\s*\(")


# Directories on the steady-state hot path: every payload / scratch buffer
# must come from common::BufferPool. src/compress/ joined the list when the
# codec layer landed — encode/decode scratch is acquired per collective.
RAW_ALLOC_DIRS = (
    os.path.join("src", "transport"),
    os.path.join("src", "compress"),
)


def check_transport_allocs(errors: list[str]) -> None:
    for alloc_dir in RAW_ALLOC_DIRS:
        for path in cpp_files(alloc_dir):
            raw = open(path, encoding="utf-8").read()
            raw_lines = raw.splitlines()
            code = strip_comments(raw)
            for lineno, line in enumerate(code.splitlines(), 1):
                m = RAW_ALLOC.search(line)
                if not m:
                    continue
                raw_line = (
                    raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
                )
                if re.search(r"NOALLOC\([^)]+\)", raw_line):
                    continue
                errors.append(
                    f"{relpath(path)}:{lineno}: raw "
                    f"'{m.group(0).rstrip('(').strip()}' "
                    f"in {alloc_dir}/ — payload buffers must come from "
                    f"common::BufferPool (steady-state zero-alloc invariant); "
                    f"mark deliberate exceptions with NOLOCK-style "
                    f"NOALLOC(reason)"
                )


# --- check 3: guarded-member audit ----------------------------------------

MEMBER_SKIP = re.compile(
    r"^\s*(?:"
    r"static\b|using\b|typedef\b|friend\b|public:|private:|protected:|"
    r"template\b|enum\b|struct\b|class\b|return\b|if\b|for\b|while\b|"
    r"switch\b|case\b|#"
    r")"
)

# A data member is "synchronization-exempt" when its type is itself a
# synchronization primitive, an atomic, or it is const (immutable after
# construction).
EXEMPT_TYPE = re.compile(
    r"^\s*(?:mutable\s+)?(?:"
    r"(?:common::|aiacc::common::)?(?:Mutex|CondVar|MutexLock)\b|"
    r"std::atomic\b|"
    r"const\b|"
    r"(?:[\w:<>,\s*&]+\s)?const\s+[\w:]+\s*(?:\*\s*)?const\b"
    r")"
)

MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+)?[\w:<>,\s*&\[\]~]+?[\s*&]"
    r"(\w+)\s*(?:\{[^;]*\}|=[^;]*)?;"
)


def find_mutex_classes(text: str):
    """Yield (class_start_line, member_lines) for every class/struct body
    that declares a common::Mutex member. member_lines holds only the lines
    at the class body's top level (brace depth exactly one inside the class,
    zero unclosed parentheses at line start) — method bodies, nested
    structs, and wrapped parameter lists are excluded. Brace tracking; good
    enough for this codebase's clang-format style."""
    lines = text.splitlines()
    opener = re.compile(r"^\s*(?:class|struct)\s+\w+[^;{]*\{")
    stack = []  # [start_line_idx, depth_at_open, member_lines]
    depth = 0
    parens = 0
    bodies = []
    for idx, line in enumerate(lines):
        if opener.match(line) and line.count("}") == 0 and parens == 0:
            stack.append([idx, depth, []])
        else:
            for s in stack:
                # Top level of this class body only.
                if depth == s[1] + 1 and parens == 0:
                    s[2].append((idx, line))
        depth += line.count("{") - line.count("}")
        parens += line.count("(") - line.count(")")
        while stack and depth <= stack[-1][1]:
            bodies.append(stack.pop())
    for start, _, members in bodies:
        body_text = "\n".join(l for _, l in members)
        if re.search(r"\b(?:common::)?Mutex\s+\w+", body_text):
            yield start, members


def check_guarded_members(errors: list[str]) -> None:
    for path in cpp_files("src"):
        rel = relpath(path)
        if rel == SYNC_HEADER:
            continue
        raw = open(path, encoding="utf-8").read()
        code = strip_comments(raw)
        raw_lines = raw.splitlines()
        if "Mutex" not in code:
            continue
        for _, body in find_mutex_classes(code):
            for idx, line in body:
                if MEMBER_SKIP.match(line):
                    continue
                if "operator" in line:
                    continue  # deleted/declared copy & assignment operators
                if re.search(r"\)\s*(?:const\s*)?"
                             r"(?:noexcept\s*)?(?:override\s*)?"
                             r"(?:=\s*(?:default|delete|0)\s*)?;",
                             line):
                    continue  # function declaration
                m = MEMBER_DECL.match(line)
                if not m:
                    continue
                if EXEMPT_TYPE.match(line):
                    continue
                if "GUARDED_BY" in line or "PT_GUARDED_BY" in line:
                    continue
                raw_line = raw_lines[idx] if idx < len(raw_lines) else ""
                if re.search(r"NOLOCK\([^)]+\)", raw_line):
                    continue
                # Multi-line declarations: GUARDED_BY may sit on the next
                # physical line (clang-format wraps long annotations).
                context = "\n".join(
                    l for _, l in body if abs(_ - idx) <= 1
                )
                if f"{m.group(1)} GUARDED_BY" in context:
                    continue
                errors.append(
                    f"{rel}:{idx + 1}: member '{m.group(1)}' in a "
                    f"Mutex-owning class lacks GUARDED_BY(...) — annotate "
                    f"it or mark the line with NOLOCK(reason)"
                )


def main() -> int:
    errors: list[str] = []
    check_raw_primitives(errors)
    check_guarded_members(errors)
    check_legacy_counters(errors)
    check_transport_allocs(errors)
    if errors:
        for e in errors:
            print(e)
        print(f"\ncheck_invariants: {len(errors)} violation(s)")
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
