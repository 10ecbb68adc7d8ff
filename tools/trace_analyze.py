#!/usr/bin/env python3
"""Iteration critical-path analyzer for multi-rank AIACC traces.

Consumes a multi-rank Chrome trace-event JSON — normally `trace.json` from
`bench_hotpath --trace-dir`, or any RuntimeTracer dump of a threaded engine
run, where every lane is labelled "r<k>/..." with its rank and all ranks
share one clock — walks the span + flow-event graph, and reports, per
iteration and overall:

  * wall-time attribution per rank: every microsecond of the rank's
    iteration window lands in exactly one of {compute, overlapped comm
    (comm under compute), exposed comm (comm with no compute running),
    sync/idle} — the four buckets always sum to 100% of the window;
  * per-channel and per-ring-step utilization (busy fraction of the
    iteration window, from "comm.channel" / "comm.phase" spans);
  * the longest cross-rank dependency chain ending at the iteration's last
    finishing span (blame spans, walked backwards over flow edges and
    same-lane ordering);
  * per-rank straggler scores (how far behind the earliest rank each rank
    finishes, normalized by iteration duration);
  * per-iteration priority-dispatch stats from the ready-set scheduler's
    "engine.sched" events: unit push-to-pop wait times ("unit.wait" spans,
    priority in args) and priority inversions ("sched.inversion" instants
    — an urgent unit popped only after lower-priority in-flight transfers
    overtook it, args carry the bypass count).

With --flight, merges one or more flight-recorder dumps
(telemetry::FlightRecorder::ToJson, e.g. $AIACC_FLIGHT_DIR/flight-*.json)
into a post-mortem section naming the failing component/channel/tag.

--check turns the report into a gate (wired as a lint-labeled ctest):
non-zero exit unless at least one iteration was found, every rank's
attribution covers >= 95% of its window, and the critical path is
non-empty.

Usage: trace_analyze.py TRACE.json [--json OUT.json] [--flight DUMP...]
                        [--check] [--top N]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

COMM_CATS = ("comm", "comm.phase", "comm.channel", "comm.flow")
COMPUTE_CAT = "compute"
ITERATION_CAT = "engine.iteration"


@dataclass
class Span:
    lane: str
    rank: int
    name: str
    cat: str
    ts: float  # microseconds
    dur: float
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass
class Instant:
    lane: str
    rank: int
    name: str
    cat: str
    ts: float
    args: dict = field(default_factory=dict)


@dataclass
class Flow:
    flow_id: int
    lane: str
    rank: int
    ts: float
    start: bool


@dataclass
class Trace:
    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    dropped_events: int = 0


def parse_flow_id(raw: object) -> int | None:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw, 0)
        except ValueError:
            return None
    return None


def rank_of(lane: str) -> int:
    """Rank from a "r<N>/..." lane label; -1 for lanes without one."""
    if lane.startswith("r"):
        head = lane.split("/", 1)[0][1:]
        if head.isdigit():
            return int(head)
    return -1


def load_trace(path: str) -> Trace:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents", [])
    lanes: dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            lanes[ev["tid"]] = ev["args"]["name"]
    trace = Trace()
    other = doc.get("otherData", {})
    if isinstance(other, dict):
        dropped = other.get("dropped_events", 0)
        if isinstance(dropped, int) and not isinstance(dropped, bool):
            trace.dropped_events = dropped
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("X", "i", "s", "f"):
            continue
        tid = ev.get("tid", 0)
        lane = lanes.get(tid, f"tid{tid}")
        rank = rank_of(lane)
        ev_args = ev.get("args") if isinstance(ev.get("args"), dict) else {}
        if ph == "X":
            trace.spans.append(
                Span(
                    lane=lane,
                    rank=rank,
                    name=ev.get("name", ""),
                    cat=ev.get("cat", ""),
                    ts=float(ev.get("ts", 0.0)),
                    dur=float(ev.get("dur", 0.0)),
                    args=ev_args,
                )
            )
        elif ph == "i":
            trace.instants.append(
                Instant(
                    lane=lane,
                    rank=rank,
                    name=ev.get("name", ""),
                    cat=ev.get("cat", ""),
                    ts=float(ev.get("ts", 0.0)),
                    args=ev_args,
                )
            )
        else:
            flow_id = parse_flow_id(ev.get("id"))
            if flow_id is None:
                continue
            trace.flows.append(
                Flow(
                    flow_id=flow_id,
                    lane=lane,
                    rank=rank,
                    ts=float(ev.get("ts", 0.0)),
                    start=(ph == "s"),
                )
            )
    return trace


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of [begin, end) intervals."""
    total = 0.0
    last_end = float("-inf")
    for begin, end in sorted(intervals):
        if end <= last_end:
            continue
        total += end - max(begin, last_end)
        last_end = end
    return total


def clip(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    out = []
    for begin, end in intervals:
        b, e = max(begin, lo), min(end, hi)
        if e > b:
            out.append((b, e))
    return out


def intersect(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Pairwise intersection of two interval sets (each first unioned)."""
    out = []
    a = merged(a)
    b = merged(b)
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def merged(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for begin, end in sorted(intervals):
        if out and begin <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((begin, end))
    return out


def subtract(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """a minus b, both treated as unions."""
    out = []
    b = merged(b)
    for begin, end in merged(a):
        cursor = begin
        for b0, b1 in b:
            if b1 <= cursor or b0 >= end:
                continue
            if b0 > cursor:
                out.append((cursor, b0))
            cursor = max(cursor, b1)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def iteration_index(name: str) -> int | None:
    """Spans are named "iteration#<i>" (RuntimeTracer's index suffix)."""
    if "#" in name:
        tail = name.rsplit("#", 1)[1]
        if tail.isdigit():
            return int(tail)
    return None


def analyze_iterations(trace: Trace) -> list[dict]:
    iters: dict[int, dict[int, Span]] = {}
    for s in trace.spans:
        if s.cat != ITERATION_CAT:
            continue
        idx = iteration_index(s.name)
        if idx is None or s.rank < 0:
            continue
        iters.setdefault(idx, {})[s.rank] = s

    # Per-rank comm / compute interval pools (iteration windows clip them).
    comm_by_rank: dict[int, list[tuple[float, float]]] = {}
    compute_by_rank: dict[int, list[tuple[float, float]]] = {}
    for s in trace.spans:
        if s.rank < 0:
            continue
        if s.cat in COMM_CATS:
            comm_by_rank.setdefault(s.rank, []).append((s.ts, s.end))
        elif s.cat == COMPUTE_CAT:
            compute_by_rank.setdefault(s.rank, []).append((s.ts, s.end))

    out = []
    for idx in sorted(iters):
        ranks = iters[idx]
        starts = [s.ts for s in ranks.values()]
        ends = [s.end for s in ranks.values()]
        record = {
            "iteration": idx,
            "begin_us": min(starts),
            "end_us": max(ends),
            "wall_us": max(ends) - min(starts),
            "ranks": {},
        }
        earliest_end = min(ends)
        for rank in sorted(ranks):
            span = ranks[rank]
            window = span.dur
            comm = clip(comm_by_rank.get(rank, []), span.ts, span.end)
            compute = clip(compute_by_rank.get(rank, []), span.ts, span.end)
            overlapped = union_length(intersect(comm, compute))
            exposed = union_length(subtract(comm, compute))
            compute_only = union_length(subtract(compute, comm))
            idle = window - compute_only - overlapped - exposed
            record["ranks"][str(rank)] = {
                "window_us": window,
                "compute_us": compute_only,
                "overlapped_comm_us": overlapped,
                "exposed_comm_us": exposed,
                "sync_idle_us": max(0.0, idle),
                "attributed_fraction": 1.0 if window > 0 else 0.0,
                "behind_earliest_us": span.end - earliest_end,
            }
        out.append(record)
    return out


def analyze_channels(trace: Trace, iterations: list[dict]) -> dict:
    if not iterations:
        return {}
    begin = min(i["begin_us"] for i in iterations)
    end = max(i["end_us"] for i in iterations)
    wall = max(end - begin, 1e-9)
    channels: dict[str, list[tuple[float, float]]] = {}
    steps: dict[str, list[tuple[float, float]]] = {}
    for s in trace.spans:
        if s.cat == "comm.channel":
            channels.setdefault(s.name, []).append((s.ts, s.end))
        elif s.cat == "comm.phase":
            steps.setdefault(s.name, []).append((s.ts, s.end))
    return {
        "window_us": wall,
        "channels": {
            name: {
                "busy_us": union_length(clip(iv, begin, end)),
                "utilization": union_length(clip(iv, begin, end)) / wall,
                "spans": len(iv),
            }
            for name, iv in sorted(channels.items())
        },
        "steps": {
            name: {
                "busy_us": union_length(clip(iv, begin, end)),
                "utilization": union_length(clip(iv, begin, end)) / wall,
                "spans": len(iv),
            }
            for name, iv in sorted(steps.items())
        },
    }


def critical_path(trace: Trace, iteration: dict) -> list[dict]:
    """Longest dependency chain ending at the iteration's last span.

    Walk backwards from the last span to finish inside the iteration
    window: the predecessor of a span is the sender span behind the
    latest inbound flow edge it contains, or — when no flow edge feeds
    it — the previous span on its own lane. Each chain element's blame
    is the wall time it personally contributed (its end minus its
    predecessor's end)."""
    lo, hi = iteration["begin_us"], iteration["end_us"]
    spans = [
        s
        for s in trace.spans
        if s.ts < hi and s.end > lo and s.cat != ITERATION_CAT
    ]
    if not spans:
        return []
    by_lane: dict[str, list[Span]] = {}
    for s in spans:
        by_lane.setdefault(s.lane, []).append(s)
    for lane_spans in by_lane.values():
        lane_spans.sort(key=lambda s: (s.ts, s.end))

    starts = {f.flow_id: f for f in trace.flows if f.start}
    # Inbound flow edges per lane, sorted by end-time (the recv side).
    ends_by_lane: dict[str, list[Flow]] = {}
    for f in trace.flows:
        if not f.start and lo <= f.ts <= hi:
            ends_by_lane.setdefault(f.lane, []).append(f)
    for lst in ends_by_lane.values():
        lst.sort(key=lambda f: f.ts)

    def enclosing(lane: str, ts: float) -> Span | None:
        best = None
        for s in by_lane.get(lane, []):
            if s.ts <= ts <= s.end:
                # Innermost (shortest) span enclosing ts wins the blame.
                if best is None or s.dur < best.dur:
                    best = s
        return best

    def previous_on_lane(span: Span) -> Span | None:
        best = None
        for s in by_lane.get(span.lane, []):
            if s is span:
                continue
            if s.end <= span.ts and (best is None or s.end > best.end):
                best = s
        return best

    current = max(spans, key=lambda s: s.end)
    chain = [current]
    seen = {id(current)}
    for _ in range(10_000):
        # Latest inbound flow edge landing inside `current`.
        pred: Span | None = None
        via = "start"
        latest_ts = float("-inf")
        for f in ends_by_lane.get(current.lane, []):
            if current.ts <= f.ts <= current.end:
                start = starts.get(f.flow_id)
                if start is None:
                    continue
                sender = enclosing(start.lane, start.ts)
                if sender is not None and start.ts > latest_ts:
                    latest_ts = start.ts
                    pred = sender
                    via = "flow"
        if pred is None:
            pred = previous_on_lane(current)
            via = "lane"
        if pred is None or id(pred) in seen:
            break
        chain.append(pred)
        seen.add(id(pred))
        current = pred
    chain.reverse()
    out = []
    for i, s in enumerate(chain):
        blame_begin = chain[i - 1].end if i > 0 else s.ts
        out.append(
            {
                "rank": s.rank,
                "lane": s.lane,
                "name": s.name,
                "cat": s.cat,
                "begin_us": s.ts,
                "end_us": s.end,
                "blame_us": max(0.0, s.end - max(s.ts, blame_begin)),
            }
        )
    return out


SCHED_CAT = "engine.sched"


def _int_arg(args: dict, key: str) -> int:
    val = args.get(key, 0)
    return val if isinstance(val, int) and not isinstance(val, bool) else 0


def analyze_priority(trace: Trace, iterations: list[dict]) -> dict:
    """Per-iteration priority-dispatch stats from the scheduler's trace
    events (core/scheduler.h): "unit.wait" spans carry each unit's
    push-to-pop wall time and its priority in args; a "sched.inversion"
    instant marks an urgent unit popped only after `bypassed` less-urgent
    units overtook it — the unit waited behind lower-priority in-flight
    transfers. Attaches a "priority" record to every iteration (a wait
    span belongs to the iteration whose window contains its end, the pop
    time) and returns the whole-trace summary. All-zero when the
    scheduler ran FIFO (policy disabled) or tracing was below kPhase."""
    waits = [
        s
        for s in trace.spans
        if s.cat == SCHED_CAT and s.name.startswith("unit.wait")
    ]
    inversions = [
        i
        for i in trace.instants
        if i.cat == SCHED_CAT and i.name.startswith("sched.inversion")
    ]
    for it in iterations:
        lo, hi = it["begin_us"], it["end_us"]
        it_waits = [s for s in waits if lo <= s.end <= hi]
        it_invs = [i for i in inversions if lo <= i.ts <= hi]
        wait_us = [s.dur for s in it_waits]
        it["priority"] = {
            "unit_waits": len(it_waits),
            "mean_wait_us": sum(wait_us) / len(wait_us) if wait_us else 0.0,
            "max_wait_us": max(wait_us, default=0.0),
            "inversions": len(it_invs),
            "bypassed_total": sum(_int_arg(i.args, "bypassed")
                                  for i in it_invs),
        }
    return {
        "unit_waits": len(waits),
        "inversions": len(inversions),
        "bypassed_total": sum(_int_arg(i.args, "bypassed")
                              for i in inversions),
    }


def straggler_scores(iterations: list[dict]) -> dict:
    per_rank: dict[str, list[float]] = {}
    for it in iterations:
        wall = max(it["wall_us"], 1e-9)
        for rank, rec in it["ranks"].items():
            per_rank.setdefault(rank, []).append(
                rec["behind_earliest_us"] / wall
            )
    return {
        rank: {
            "mean_behind_fraction": sum(v) / len(v),
            "max_behind_fraction": max(v),
        }
        for rank, v in sorted(per_rank.items(), key=lambda kv: int(kv[0]))
    }


def load_flight(paths: list[str]) -> dict:
    events = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                dump = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            events.append({"error": f"{path}: {e}"})
            continue
        for ev in dump.get("events", []):
            ev = dict(ev)
            ev["file"] = path
            events.append(ev)
    events.sort(key=lambda e: (e.get("t_ns", 0), e.get("seq", 0)))
    failing = [
        e
        for e in events
        if e.get("severity") in ("error", "fatal") and "error" not in e
    ]
    verdict = {}
    if failing:
        last = failing[-1]
        verdict = {
            "component": last.get("component"),
            "what": last.get("what"),
            "rank": last.get("rank"),
            "channel": last.get("channel"),
            "tag": last.get("tag"),
        }
    return {"events": events, "first_failure_chain": failing, "verdict": verdict}


def render_table(report: dict) -> str:
    lines = []
    iterations = report["iterations"]
    lines.append(
        f"{'iter':>4} {'rank':>4} {'window':>10} {'compute':>10} "
        f"{'overlap':>10} {'exposed':>10} {'idle':>10}  (us)"
    )
    for it in iterations:
        for rank, rec in sorted(it["ranks"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"{it['iteration']:>4} {rank:>4} "
                f"{rec['window_us']:>10.1f} {rec['compute_us']:>10.1f} "
                f"{rec['overlapped_comm_us']:>10.1f} "
                f"{rec['exposed_comm_us']:>10.1f} "
                f"{rec['sync_idle_us']:>10.1f}"
            )
    util = report.get("utilization", {})
    if util.get("channels"):
        lines.append("")
        lines.append("channel utilization over the traced window:")
        for name, rec in util["channels"].items():
            lines.append(
                f"  {name:<16} {100.0 * rec['utilization']:>6.1f}%  "
                f"({rec['spans']} spans, {rec['busy_us']:.1f} us busy)"
            )
    if util.get("steps"):
        lines.append("ring-step utilization:")
        for name, rec in util["steps"].items():
            lines.append(
                f"  {name:<16} {100.0 * rec['utilization']:>6.1f}%  "
                f"({rec['spans']} spans)"
            )
    cp = report.get("critical_path", [])
    if cp:
        lines.append("")
        total = sum(s["blame_us"] for s in cp)
        lines.append(
            f"critical path, last iteration ({len(cp)} spans, "
            f"{total:.1f} us blamed):"
        )
        shown = cp if len(cp) <= 12 else cp[:6] + cp[-6:]
        for s in shown:
            lines.append(
                f"  r{s['rank']} {s['lane']:<14} {s['cat']}/{s['name']:<20} "
                f"blame {s['blame_us']:>8.1f} us"
            )
        if len(cp) > 12:
            lines.insert(-6, f"  ... {len(cp) - 12} more ...")
    pr = report.get("priority_inversions", {})
    if pr.get("unit_waits") or pr.get("inversions"):
        lines.append("")
        lines.append(
            "priority dispatch (engine.sched): unit wait + inversions "
            "per iteration:"
        )
        for it in iterations:
            rec = it.get("priority")
            if not rec:
                continue
            lines.append(
                f"  iter {it['iteration']:>3}: {rec['unit_waits']:>4} waits "
                f"(mean {rec['mean_wait_us']:>9.1f} us, "
                f"max {rec['max_wait_us']:>9.1f} us), "
                f"{rec['inversions']:>4} inversions, "
                f"{rec['bypassed_total']:>5} bulk pops overtook urgent"
            )
    stragglers = report.get("stragglers", {})
    if stragglers:
        lines.append("")
        lines.append("straggler scores (fraction of iteration spent behind):")
        for rank, rec in stragglers.items():
            lines.append(
                f"  rank {rank}: mean {rec['mean_behind_fraction']:.3f}  "
                f"max {rec['max_behind_fraction']:.3f}"
            )
    pm = report.get("post_mortem")
    if pm:
        lines.append("")
        verdict = pm.get("verdict") or {}
        if verdict:
            lines.append(
                f"post-mortem: {verdict.get('component')}/"
                f"{verdict.get('what')} at rank {verdict.get('rank')} "
                f"channel {verdict.get('channel')} tag {verdict.get('tag')}"
            )
        lines.append(f"  {len(pm.get('events', []))} flight events merged")
        for ev in pm.get("events", [])[-8:]:
            if "error" in ev:
                lines.append(f"  ! {ev['error']}")
                continue
            lines.append(
                f"  [{ev.get('severity', '?'):<5}] t+{ev.get('t_ns', 0) / 1e6:.3f}ms "
                f"{ev.get('component')}/{ev.get('what')} rank={ev.get('rank')} "
                f"channel={ev.get('channel')} tag={ev.get('tag')}"
            )
    if report.get("dropped_events"):
        lines.append("")
        lines.append(
            f"WARNING: {report['dropped_events']} trace events dropped "
            f"(ring overwrites) — attribution is a lower bound"
        )
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="multi-rank Chrome trace-event JSON")
    parser.add_argument("--json", dest="json_out", help="write report JSON")
    parser.add_argument(
        "--flight",
        nargs="+",
        default=[],
        help="flight-recorder dump(s) to merge into a post-mortem",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode: fail unless iterations were found, attribution "
        "covers >= 95%% per rank, and the critical path is non-empty",
    )
    args = parser.parse_args()

    trace = load_trace(args.trace)
    iterations = analyze_iterations(trace)
    priority_summary = analyze_priority(trace, iterations)
    report = {
        "trace": args.trace,
        "iterations": iterations,
        "utilization": analyze_channels(trace, iterations),
        "critical_path": critical_path(trace, iterations[-1])
        if iterations
        else [],
        "stragglers": straggler_scores(iterations),
        "priority_inversions": priority_summary,
        "dropped_events": trace.dropped_events,
        "flow_edges": sum(1 for f in trace.flows if not f.start),
    }
    if args.flight:
        report["post_mortem"] = load_flight(args.flight)

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.stdout.write(render_table(report))

    if args.check:
        failures = []
        if not iterations:
            failures.append("no engine.iteration spans found")
        for it in iterations:
            for rank, rec in it["ranks"].items():
                window = rec["window_us"]
                if window <= 0:
                    continue
                covered = (
                    rec["compute_us"]
                    + rec["overlapped_comm_us"]
                    + rec["exposed_comm_us"]
                    + rec["sync_idle_us"]
                )
                if covered < 0.95 * window:
                    failures.append(
                        f"iteration {it['iteration']} rank {rank}: only "
                        f"{100.0 * covered / window:.1f}% of the window "
                        f"attributed"
                    )
        if not report["critical_path"]:
            failures.append("critical path is empty")
        if failures:
            for f in failures:
                print(f"trace_analyze CHECK FAILURE: {f}", file=sys.stderr)
            return 1
        print(
            f"trace_analyze: priority inversions: "
            f"{priority_summary['inversions']} across {len(iterations)} "
            f"iteration(s) ({priority_summary['bypassed_total']} bulk pops "
            f"overtook urgent units; {priority_summary['unit_waits']} unit "
            f"waits traced)"
        )
        print("trace_analyze: checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
