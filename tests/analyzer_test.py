#!/usr/bin/env python3
"""Self-tests for tools/aiacc_analyzer.

Four layers:
  1. Fixture goldens: each check, run in isolation over its known-bad /
     known-good fixture pair, must report exactly the findings in
     tests/analyzer_fixtures/expected_findings.json and nothing on the
     good file.
  2. Suppression: inline ANALYZER-OK annotations silence findings (same
     line and line-above placements).
  3. Header-lane audit: the tag-collision check cross-checks the tracing
     stamp magic (src/telemetry/trace_context.h) against the reliable
     layer's frame-kind lanes (src/transport/reliable.cpp). A synthetic
     repo whose magic equals a kind value must be flagged; the repaired
     repo must pass.
  4. Line-rule scopes: in a synthetic repo, raw-sync-primitive exempts
     src/common/sync.h and covers examples/, hot-path-alloc covers
     src/transport/ but not src/core/, and NOLOCK(...) / NOALLOC(...)
     exempt their line.

Every analyzer run is an in-process call of analyze.main, so the src/
signature index is scanned once per file for the whole suite, not once
per run.

Exit 0 on success, 1 with a failure list otherwise.
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools", "aiacc_analyzer"))
import analyze  # noqa: E402

FIXDIR = os.path.join("tests", "analyzer_fixtures")

CHECK_STEMS = {
    "dropped-status": "dropped_status",
    "pool-leak": "pool_leak",
    "blocking-under-lock": "blocking_under_lock",
    "tag-collision": "tag_collision",
    "codec-record-validation": "codec_validation",
    "priority-ordering": "priority_ordering",
    "raw-sync-primitive": "raw_sync_primitive",
    "guarded-member": "guarded_member",
    "hot-path-alloc": "hot_path_alloc",
}

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print("FAIL:", msg)


def run(args):
    """analyze.py `args` run from the repo root: returncode, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = analyze.main(args)
            except SystemExit as e:  # usage errors exit from argparse
                code = e.code
    finally:
        os.chdir(cwd)
    return SimpleNamespace(returncode=code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def findings_of(json_path):
    with open(json_path, encoding="utf-8") as f:
        data = json.load(f)
    return sorted(f"{x['file']}:{x['line']}" for x in data["findings"])


def golden_pass() -> None:
    with open(os.path.join(REPO, FIXDIR, "expected_findings.json"),
              encoding="utf-8") as f:
        expected = {k: sorted(v) for k, v in json.load(f).items()
                    if not k.startswith("_")}
    for check, stem in CHECK_STEMS.items():
        bad = os.path.join(FIXDIR, f"{stem}_bad.cc")
        good = os.path.join(FIXDIR, f"{stem}_good.cc")
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
            out_json = tf.name
        try:
            p = run(["--no-baseline", "--check", check, "--json", out_json,
                     bad, good])
            if p.returncode != 1:
                fail(f"{check}: expected exit 1 over bad+good "
                     f"fixtures, got {p.returncode}\n{p.stdout}{p.stderr}")
                continue
            got = findings_of(out_json)
            if got != expected[check]:
                fail(f"{check}: findings mismatch\n"
                     f"  want: {expected[check]}\n  got:  {got}")
            p_good = run(["--no-baseline", "--check", check, good])
            if p_good.returncode != 0:
                fail(f"{check}: good fixture not clean "
                     f"(exit {p_good.returncode})\n"
                     f"{p_good.stdout}{p_good.stderr}")
        finally:
            os.unlink(out_json)


# --- 1. fixture goldens -------------------------------------------------
golden_pass()

# --- 2. inline suppression ----------------------------------------------
p = run(["--no-baseline", "--check", "dropped-status",
         os.path.join(FIXDIR, "suppressed.cc")])
if p.returncode != 0 or "suppressed" not in p.stdout + p.stderr:
    fail(f"suppressed.cc: expected clean exit with suppression note, got "
         f"exit {p.returncode}\n{p.stdout}{p.stderr}")


def trailer_lane_audit_pass(fake_repo: str) -> None:
    """Layer 3: synthetic repo — real tags.h (so the tag relations stay
    green), a minimal reliable.cpp, and a trace_context.h whose stamp
    magic varies per sub-case. The audit keys off repo files, not the
    analyzed translation units, so any clean .cc probe works as input."""
    os.makedirs(os.path.join(fake_repo, "src", "collective"))
    os.makedirs(os.path.join(fake_repo, "src", "transport"))
    os.makedirs(os.path.join(fake_repo, "src", "telemetry"))
    open(os.path.join(fake_repo, "ROADMAP.md"), "w").close()  # pins repo root
    shutil.copy(os.path.join(REPO, "src", "collective", "tags.h"),
                os.path.join(fake_repo, "src", "collective", "tags.h"))
    with open(os.path.join(fake_repo, "src", "transport", "reliable.cpp"),
              "w", encoding="utf-8") as f:
        f.write("constexpr std::size_t kTrailerLanes = 4;\n"
                "constexpr float kKindData = 1.0f;\n"
                "constexpr float kKindAck = 2.0f;\n")
    stamp_h = os.path.join(fake_repo, "src", "telemetry", "trace_context.h")
    probe = os.path.join(fake_repo, "probe.cc")
    with open(probe, "w", encoding="utf-8") as f:
        f.write("int Probe() { return 0; }\n")

    def write_stamp(magic: str) -> None:
        with open(stamp_h, "w", encoding="utf-8") as f:
            f.write("inline constexpr std::size_t kStampLanes = 4;\n"
                    f"inline constexpr std::uint32_t kStampMagic = {magic};\n")

    write_stamp("2")  # collides with kKindAck
    p = run(["--repo", fake_repo, "--no-baseline", "--check",
             "tag-collision", probe])
    if p.returncode != 1 or "masquerade" not in p.stdout + p.stderr:
        fail(f"trailer-lane audit: expected exit 1 + masquerade finding for "
             f"colliding stamp magic, got exit {p.returncode}\n"
             f"{p.stdout}{p.stderr}")

    write_stamp("0x2000000")  # disjoint from the kinds but not float-exact
    p = run(["--repo", fake_repo, "--no-baseline", "--check",
             "tag-collision", probe])
    if p.returncode != 1 or "float-representable" not in p.stdout + p.stderr:
        fail(f"trailer-lane audit: expected exit 1 + float-representable "
             f"finding for wide stamp magic, got exit {p.returncode}\n"
             f"{p.stdout}{p.stderr}")

    write_stamp("0xA1ACC")  # the real layout: disjoint and exact
    p = run(["--repo", fake_repo, "--no-baseline", "--check",
             "tag-collision", probe])
    if p.returncode != 0:
        fail(f"trailer-lane audit: repaired repo not clean "
             f"(exit {p.returncode})\n{p.stdout}{p.stderr}")


def line_rule_scope_pass(fake_repo: str) -> None:
    """Layer 4: synthetic repo — the path scopes and line markers of the
    three line rules. Each case is one file holding one candidate line;
    each check runs once over its cases and must flag exactly the files
    marked True."""
    open(os.path.join(fake_repo, "ROADMAP.md"), "w").close()  # pins repo root
    member = "class C {{\n  common::Mutex mu_;\n  int n_ = 0;{}\n}};"
    cases = {
        "raw-sync-primitive": [
            ("src/common/sync.h", "std::mutex mu;", False),
            ("src/core/a.cpp", "std::mutex mu;", True),
            ("examples/demo.cpp", "std::condition_variable cv;", True),
        ],
        "hot-path-alloc": [
            ("src/transport/a.cpp", "int* p = new int(1);", True),
            ("src/compress/a.cpp", "void* p = malloc(8);", True),
            ("src/core/a.cpp", "int* p = new int(1);", False),
            ("src/transport/b.cpp",
             "int* p = new int(1);  // NOALLOC(one-time setup)", False),
        ],
        "guarded-member": [
            ("src/core/c.h", member.format(""), True),
            ("src/core/d.h", member.format("  // NOLOCK(set before start)"),
             False),
            ("tools/e.h", member.format(""), False),
        ],
    }
    out_json = os.path.join(fake_repo, "findings.json")
    for check, files in cases.items():
        for rel, text, _ in files:
            path = os.path.join(fake_repo, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        run(["--repo", fake_repo, "--no-baseline", "--check", check,
             "--json", out_json] + [rel for rel, _, _ in files])
        with open(out_json, encoding="utf-8") as f:
            got = sorted({x["file"] for x in json.load(f)["findings"]})
        want = sorted(rel for rel, _, flagged in files if flagged)
        if got != want:
            fail(f"line-rule scope: {check} flagged {got}, want {want}")


# --- 3. trailer-lane audit -------------------------------------------------
with tempfile.TemporaryDirectory() as td:
    trailer_lane_audit_pass(td)

# --- 4. line-rule scopes --------------------------------------------------
with tempfile.TemporaryDirectory() as td:
    line_rule_scope_pass(td)

if failures:
    print(f"\n{len(failures)} analyzer self-test failure(s)")
    sys.exit(1)
print("analyzer self-tests passed")
