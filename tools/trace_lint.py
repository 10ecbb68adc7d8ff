#!/usr/bin/env python3
"""Schema lint for AIACC telemetry output (ctest label: lint).

Validates the two JSON artifacts the runtime emits so that a trace written
by either producer (sim::Tracer or telemetry::RuntimeTracer) is guaranteed
to open in chrome://tracing / Perfetto, and a metrics dump is guaranteed to
be machine-consumable:

  trace file (Chrome trace-event format):
    * top level is {"traceEvents": [...]} (an "otherData" object is allowed)
    * every event has ph in {X, i, M, s, f}, pid 1, an integer tid, and a
      non-empty name (all ranks are threads of one process; a lane's rank
      is in its "r<k>/..." label)
    * complete spans (ph=X) have ts >= 0 and dur >= 0; instants (ph=i)
      have ts >= 0
    * flow events: every start (ph=s) has a well-formed unique id; every
      end (ph=f) carries bp="e", references an id with exactly one start,
      and happens no earlier than that start (every event is timed by the
      one tracer clock, so no tolerance applies); a dangling flow end (no
      start anywhere) is a violation (a dangling start is not — the
      message may still have been in flight when the trace was collected)
    * every tid referenced by an event has a thread_name metadata
      record (ph=M) naming its lane
    * trace_dropped_events metadata records carry a non-negative integer
      args.count
    * categories, when present, start with a known prefix (comm, engine,
      transport, autotune, elastic, compute, test, stress)

  metrics file (--metrics, RegistrySnapshot::ToJson):
    * top level is {"metrics": [...]}
    * names match <layer>.<metric> with an optional @scope suffix
    * counters have a non-negative integer value
    * histograms: bounds strictly increasing, len(buckets) ==
      len(bounds) + 1, sum(buckets) == count

Usage: trace_lint.py TRACE.json [--metrics METRICS.json]
Exit code 0 = clean, 1 = violations (printed one per line).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

KNOWN_CAT_PREFIXES = (
    "comm",
    "engine",
    "transport",
    "autotune",
    "elastic",
    "compute",
    "test",
    "stress",
)

METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+(?:@[\w.\-]+)?$")


def parse_flow_id(raw: object) -> int | None:
    """Chrome flow ids: an int, or a (usually hex) string of one."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw, 0)
        except ValueError:
            return None
    return None


def lint_trace(path: str, errors: list[str]) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        errors.append(f"{path}: top level must be {{\"traceEvents\": [...]}}")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list):
        errors.append(f"{path}: traceEvents must be a list")
        return

    used_tids: set[int] = set()
    named_tids: set[int] = set()
    # flow id -> list of (event index, ts) per half
    flow_starts: dict[int, list[tuple[int, float]]] = {}
    flow_ends: dict[int, list[tuple[int, float]]] = {}
    for n, ev in enumerate(events):
        where = f"{path}: event {n}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "s", "f"):
            errors.append(
                f"{where}: ph must be X, i, M, s, or f (got {ph!r})"
            )
            continue
        pid = ev.get("pid", 1)
        if type(pid) is not int or pid != 1:
            errors.append(f"{where}: pid must be 1 (got {pid!r})")
            continue
        tid = ev.get("tid")
        if not isinstance(tid, int) or isinstance(tid, bool):
            errors.append(f"{where}: tid must be an integer (got {tid!r})")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty name")
        if ph == "M":
            if name == "thread_name":
                lane = ev.get("args", {}).get("name")
                if not isinstance(lane, str) or not lane:
                    errors.append(f"{where}: thread_name without args.name")
                named_tids.add(tid)
            elif name == "trace_dropped_events":
                count = ev.get("args", {}).get("count")
                if (
                    not isinstance(count, int)
                    or isinstance(count, bool)
                    or count < 0
                ):
                    errors.append(
                        f"{where}: trace_dropped_events args.count must be "
                        f"a non-negative integer (got {count!r})"
                    )
            continue
        used_tids.add(tid)
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a number >= 0 (got {ts!r})")
            ts = 0.0
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: dur must be a number >= 0 (got {dur!r})"
                )
        if ph in ("s", "f"):
            flow_id = parse_flow_id(ev.get("id"))
            if flow_id is None:
                errors.append(
                    f"{where}: flow event without a parseable id "
                    f"(got {ev.get('id')!r})"
                )
            elif ph == "s":
                flow_starts.setdefault(flow_id, []).append((n, float(ts)))
            else:
                if ev.get("bp") != "e":
                    errors.append(
                        f"{where}: flow end must carry bp=\"e\" (else "
                        f"viewers bind it to the next slice, not the "
                        f"enclosing one)"
                    )
                flow_ends.setdefault(flow_id, []).append((n, float(ts)))
        cat = ev.get("cat")
        if cat is not None:
            if not isinstance(cat, str) or not cat.startswith(
                KNOWN_CAT_PREFIXES
            ):
                errors.append(f"{where}: unknown category {cat!r}")

    for tid in sorted(used_tids - named_tids):
        errors.append(
            f"{path}: tid {tid} has events but no thread_name metadata record"
        )

    # Flow graph: ids bind exactly one start to its ends; ends never dangle
    # and never precede their start.
    for flow_id, starts in sorted(flow_starts.items()):
        if len(starts) > 1:
            positions = ", ".join(str(i) for i, _ in starts)
            errors.append(
                f"{path}: flow id {flow_id:#x} has {len(starts)} start "
                f"events (events {positions}); bind ids must be unique"
            )
    for flow_id, ends in sorted(flow_ends.items()):
        starts = flow_starts.get(flow_id)
        if not starts:
            positions = ", ".join(str(i) for i, _ in ends)
            errors.append(
                f"{path}: flow id {flow_id:#x} has {len(ends)} dangling "
                f"end(s) with no start (events {positions})"
            )
            continue
        start_ts = min(ts for _, ts in starts)
        for n, end_ts in ends:
            if end_ts < start_ts:
                errors.append(
                    f"{path}: event {n}: flow id {flow_id:#x} ends "
                    f"{start_ts - end_ts:.1f}us before its start"
                )


def lint_metrics(path: str, errors: list[str]) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict) or "metrics" not in doc:
        errors.append(f"{path}: top level must be {{\"metrics\": [...]}}")
        return
    for n, m in enumerate(doc["metrics"]):
        where = f"{path}: metric {n}"
        if not isinstance(m, dict):
            errors.append(f"{where}: not an object")
            continue
        name = m.get("name", "")
        if not isinstance(name, str) or not METRIC_NAME.match(name):
            errors.append(
                f"{where}: name {name!r} does not match "
                f"<layer>.<metric>[@scope]"
            )
        mtype = m.get("type")
        if mtype == "counter":
            v = m.get("value")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(
                    f"{where} ({name}): counter value must be a "
                    f"non-negative integer (got {v!r})"
                )
        elif mtype == "gauge":
            if not isinstance(m.get("value"), (int, float)):
                errors.append(f"{where} ({name}): gauge value must be a number")
        elif mtype == "histogram":
            bounds = m.get("bounds", [])
            buckets = m.get("buckets", [])
            count = m.get("count")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                errors.append(
                    f"{where} ({name}): bounds must be strictly increasing"
                )
            if len(buckets) != len(bounds) + 1:
                errors.append(
                    f"{where} ({name}): expected {len(bounds) + 1} buckets, "
                    f"got {len(buckets)}"
                )
            if count != sum(buckets):
                errors.append(
                    f"{where} ({name}): bucket sum {sum(buckets)} != "
                    f"count {count!r}"
                )
        else:
            errors.append(f"{where} ({name}): unknown type {mtype!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--metrics", help="RegistrySnapshot::ToJson metrics file"
    )
    args = parser.parse_args()

    errors: list[str] = []
    lint_trace(args.trace, errors)
    if args.metrics:
        lint_metrics(args.metrics, errors)
    if errors:
        for e in errors:
            print(e)
        print(f"\ntrace_lint: {len(errors)} violation(s)")
        return 1
    print("trace_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
