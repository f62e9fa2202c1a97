"""Artifact exporters: JSONL and Chrome trace-event (Perfetto) JSON.

The JSONL form is the canonical on-disk artifact — one JSON object per
line with a ``kind`` discriminator, so multi-million-record artifacts can
be streamed instead of parsed whole.  ``write_jsonl`` → ``load_jsonl`` is
an exact round trip of :meth:`Observer.finish` output.

The Chrome form follows the Trace Event Format (the JSON flavour both
``chrome://tracing`` and https://ui.perfetto.dev load): one named thread
track per obs track, ``"X"`` complete slices for spans, ``"i"`` instants,
``"C"`` counter tracks for every epoch series, and legacy async
``"b"``/``"e"`` pairs for RPC stage timelines (async events may overlap,
which per-thread slices may not).  Timestamps are microseconds; we emit
fractional µs so integer-ns precision survives.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

_PID = 1  # single simulated process; tracks map to threads


def write_jsonl(artifact: dict, path) -> None:
    """Stream ``artifact`` (an :meth:`Observer.finish` dict) to ``path``."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "meta", **artifact["meta"]}) + "\n")
        for kind in ("spans", "instants", "rpcs", "series"):
            singular = kind[:-1]
            for record in artifact[kind]:
                fh.write(json.dumps({"kind": singular, **record}) + "\n")


def load_jsonl(path) -> dict:
    """Load a JSONL artifact back into the in-memory artifact shape."""
    artifact: dict[str, Any] = {
        "meta": {},
        "spans": [],
        "instants": [],
        "rpcs": [],
        "series": [],
    }
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind")
            if kind == "meta":
                artifact["meta"] = record
            else:
                artifact[kind + "s"].append(record)
    return artifact


def _ts_us(ns: int) -> float:
    return ns / 1000


def to_chrome_trace(artifact: dict) -> dict:
    """Convert an artifact to a Trace Event Format document."""
    events: list[dict] = []
    tids: dict[str, int] = {}

    def tid(track: str) -> int:
        t = tids.get(track)
        if t is None:
            t = tids[track] = len(tids) + 1
            events.append({
                "ph": "M", "pid": _PID, "tid": t, "name": "thread_name",
                "args": {"name": track},
            })
        return t

    events.append({
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": artifact["meta"].get("experiment", "repro.obs")},
    })
    for span in artifact["spans"]:
        event = {
            "ph": "X", "pid": _PID, "tid": tid(span["track"]),
            "name": span["name"], "cat": "obs",
            "ts": _ts_us(span["start"]),
            "dur": _ts_us(span["end"] - span["start"]),
        }
        if "args" in span:
            event["args"] = span["args"]
        events.append(event)
    drops_marked = False
    for inst in artifact["instants"]:
        # Drop markers render globally (full-height line in Perfetto) so
        # a truncated trace is impossible to mistake for a complete one.
        global_marker = inst["track"] == "obs.drops"
        drops_marked = drops_marked or global_marker
        event = {
            "ph": "i", "pid": _PID, "tid": tid(inst["track"]),
            "name": inst["name"], "cat": "obs",
            "ts": _ts_us(inst["ts"]), "s": "g" if global_marker else "t",
        }
        if "args" in inst:
            event["args"] = inst["args"]
        events.append(event)
    # Artifacts written before drops became first-class records (or
    # assembled by hand) still get the marker, synthesized from meta.
    meta = artifact["meta"]
    meta_drops = meta.get("dropped", 0) + meta.get("rpc_dropped", 0)
    if meta_drops and not drops_marked:
        events.append({
            "ph": "i", "pid": _PID, "tid": tid("obs.drops"),
            "name": "tracer.dropped", "cat": "obs", "ts": 0.0, "s": "g",
            "args": {"count": meta_drops},
        })
    # RPC stage timelines as async spans: consecutive stages bound the
    # time spent in the earlier stage, and async events tolerate the
    # overlap between concurrent RPCs that thread slices cannot.
    for rpc in artifact["rpcs"]:
        stages = rpc["stages"]
        rid = rpc["id"]
        for (stage, start, *_), (_next, end, *_x) in zip(stages, stages[1:]):
            events.append({
                "ph": "b", "cat": "rpc", "id": rid, "pid": _PID, "tid": 0,
                "name": stage, "ts": _ts_us(start),
            })
            events.append({
                "ph": "e", "cat": "rpc", "id": rid, "pid": _PID, "tid": 0,
                "name": stage, "ts": _ts_us(end),
            })
    for series in artifact["series"]:
        for ts, value in series["points"]:
            if value is None:
                continue
            # Histogram series carry dict-valued points (count/p50/...):
            # each numeric key becomes one line on the counter track.
            if isinstance(value, dict):
                args = {k: v for k, v in value.items() if v is not None}
                if not args:
                    continue
            else:
                args = {"value": value}
            events.append({
                "ph": "C", "pid": _PID, "tid": 0, "name": series["name"],
                "ts": _ts_us(ts), "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(artifact: dict, path) -> None:
    """Write the Chrome trace-event JSON for ``artifact`` to ``path``."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(artifact), fh)


#: Phases we emit; validation also accepts the instant-scope field values.
_KNOWN_PHASES = {"M", "X", "i", "C", "b", "n", "e", "s", "t", "f"}
_INSTANT_SCOPES = {"g", "p", "t"}


def validate_chrome_trace(trace: dict) -> list[str]:
    """Check ``trace`` against the Trace Event Format rules we rely on.

    Returns a list of problems (empty means the document is well-formed
    enough for Perfetto/chrome://tracing to load every event).
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    open_async: dict[tuple, int] = {}
    flow_starts: dict[tuple, float] = {}  # (cat, id) -> start ts
    flow_ended: set = set()
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: pid/tid must be integers")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing name")
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                problems.append(f"{where}: metadata event without args")
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"{where}: missing ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        elif ph == "i":
            if ev.get("s") not in _INSTANT_SCOPES:
                problems.append(f"{where}: instant scope must be one of g/p/t")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: counter args must be numeric")
        elif ph in ("b", "n", "e"):
            if "id" not in ev or "cat" not in ev:
                problems.append(f"{where}: async event needs id and cat")
            else:
                key = (ev["cat"], ev["id"], ev["name"])
                if ph == "b":
                    open_async[key] = open_async.get(key, 0) + 1
                elif ph == "e":
                    if open_async.get(key, 0) <= 0:
                        problems.append(f"{where}: async end without begin {key}")
                    else:
                        open_async[key] -= 1
        elif ph in ("s", "t", "f"):
            if "id" not in ev or "cat" not in ev:
                problems.append(f"{where}: flow event needs id and cat")
                continue
            key = (ev["cat"], ev["id"])
            ts = ev.get("ts")
            if ph == "s":
                if key in flow_starts:
                    problems.append(f"{where}: duplicate flow start {key}")
                if isinstance(ts, (int, float)):
                    flow_starts[key] = ts
            else:
                start = flow_starts.get(key)
                if key not in flow_starts:
                    problems.append(f"{where}: flow {ph!r} without start {key}")
                elif isinstance(ts, (int, float)) and ts < start:
                    # Causality: a flow arrow must point forward in time.
                    problems.append(
                        f"{where}: flow {key} points backward in time"
                        f" ({start} -> {ts})"
                    )
                if ph == "f":
                    flow_ended.add(key)
    for key, count in open_async.items():
        if count:
            problems.append(f"async begin without end: {key}")
    for key in flow_starts:
        if key not in flow_ended:
            problems.append(f"flow start without finish: {key}")
    return problems
