#!/usr/bin/env python3
"""Run clang-tidy (config: .clang-tidy at the repo root) over the library
sources using the build tree's compile_commands.json. Registered as the
`clang_tidy` ctest when a clang-tidy binary exists; CI's lint job is the
canonical runner.

`--fix-notes OUT.json` additionally writes every diagnostic in the
findings-JSON format shared with tools/aiacc_analyzer (version 1,
`findings: [{check, file, line, message, symbol}]`), so downstream
tooling can merge both linters' output into one burn-down list.

Exit 0 when every file is clean, 1 otherwise (diagnostics pass through).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# path:line:col: severity: message [check-name]
_DIAG_RE = re.compile(
    r"^(?P<file>[^\s:][^:]*):(?P<line>\d+):\d+:\s+"
    r"(?:warning|error):\s+(?P<msg>.*?)\s+\[(?P<check>[\w.,-]+)\]\s*$")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--clang-tidy", default="clang-tidy")
    parser.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--fix-notes", metavar="OUT.json",
                        help="write diagnostics as aiacc-analyzer-format "
                             "findings JSON")
    args = parser.parse_args()

    compdb = os.path.join(args.build_dir, "compile_commands.json")
    if not os.path.exists(compdb):
        print(f"error: {compdb} not found — configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        return 1

    with open(compdb, encoding="utf-8") as f:
        entries = json.load(f)
    src_prefix = os.path.join(REPO, "src") + os.sep
    files = sorted({e["file"] for e in entries
                    if e["file"].startswith(src_prefix)})
    if not files:
        print("error: no src/ entries in compile_commands.json",
              file=sys.stderr)
        return 1

    print(f"clang-tidy: {len(files)} files, {args.jobs} jobs")
    failures = 0
    notes: list[dict] = []
    running: list[tuple[str, subprocess.Popen]] = []

    def collect_notes(out: str) -> None:
        for line in out.splitlines():
            m = _DIAG_RE.match(line)
            if m:
                rel = os.path.relpath(m.group("file"), REPO)
                notes.append({"check": m.group("check"), "file": rel,
                              "line": int(m.group("line")),
                              "message": m.group("msg"), "symbol": ""})

    def drain(block: bool) -> None:
        nonlocal failures
        still = []
        for name, proc in running:
            if block or proc.poll() is not None:
                out, _ = proc.communicate()
                if proc.returncode != 0:
                    failures += 1
                    sys.stdout.write(out)
                    print(f"FAILED: {name}")
                    collect_notes(out)
            else:
                still.append((name, proc))
        running[:] = still

    for path in files:
        while len(running) >= args.jobs:
            drain(block=False)
            if len(running) >= args.jobs:
                time.sleep(0.05)
        running.append((os.path.relpath(path, REPO), subprocess.Popen(
            [args.clang_tidy, "-p", args.build_dir, "--quiet", path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)))
    drain(block=True)

    if args.fix_notes:
        with open(args.fix_notes, "w", encoding="utf-8") as f:
            json.dump({"version": 1, "tool": "clang-tidy",
                       "findings": notes},
                      f, indent=2)
            f.write("\n")
        print(f"clang-tidy: {len(notes)} note(s) -> {args.fix_notes}")

    if failures:
        print(f"clang-tidy: {failures} file(s) with diagnostics")
        return 1
    print("clang-tidy: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
