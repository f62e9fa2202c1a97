"""Distributed tracing: deterministic ids, shard merge, flow events.

The proc backend (:mod:`repro.net`) runs each role as its own OS process,
and each process keeps a private :class:`~repro.obs.Observer` with a
private :class:`~repro.net.clock.Clock` zeroed at startup.  This module
is what joins those per-process JSONL *shards* back into one trace:

- **Deterministic ids** — :func:`rpc_trace_id` mints a 64-bit trace id
  from ``(client_id, req_id)`` and :func:`span_id` derives per-role span
  ids from it.  No wall clock, no ``os.urandom``: the same workload mints
  the same ids, so merged artifacts are reproducible byte-for-byte
  modulo the timestamps themselves.
- **Shard loading** — :func:`load_shards` reads every ``*.obs.jsonl``
  file in a directory (sorted by name, for determinism) and fails with a
  clear error when the directory or the shards are missing.
- **Clock alignment** — each client shard carries the
  :class:`~repro.net.clock.OffsetEstimator` summary in
  ``meta["clock_sync"]``; :func:`merge_shards` shifts that shard's
  timestamps by ``offset_ns`` into the server's clock domain.
- **Flow events** — the merged Perfetto trace gives each shard its own
  process (pid), lays concurrent RPCs out on non-overlapping lanes, and
  connects client post → server dispatch and server done → client
  complete with Trace Event Format flow events (``ph: s``/``f``), so one
  RPC reads as a single connected story across process boundaries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .export import load_jsonl, validate_chrome_trace

__all__ = [
    "rpc_trace_id",
    "span_id",
    "format_trace_id",
    "MergeError",
    "JoinedRpc",
    "MergedTrace",
    "load_shards",
    "merge_shards",
    "merge_dir",
]

_M64 = (1 << 64) - 1

#: Role salts for span-id derivation; one trace id fans out into one
#: span id per role that touched the RPC.
_ROLE_SALTS = {"client": 0x636C69, "server": 0x737276}


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed, well-mixed 64-bit permutation."""
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def rpc_trace_id(client_id: int, req_id: int) -> int:
    """Deterministic 64-bit trace id for one RPC.

    ``req_id`` counts from 1 per process and ``client_id`` is unique per
    client, so the pair is unique across a proc workload; mixing keeps
    ids from colliding when either counter is small and sequential.
    Never zero (zero is reserved as "untraced").
    """
    return _mix64((client_id << 44) ^ req_id ^ 0x5CA1AB1E) or 1


def span_id(trace_id: int, role: str) -> int:
    """Deterministic span id for ``role``'s span of ``trace_id``."""
    try:
        salt = _ROLE_SALTS[role]
    except KeyError:
        raise ValueError(
            f"unknown span role {role!r}; pick from {sorted(_ROLE_SALTS)}"
        ) from None
    return _mix64(trace_id ^ salt) or 1


def format_trace_id(trace_id: int) -> str:
    """Canonical artifact form of a trace id (16 hex digits)."""
    return f"{trace_id & _M64:016x}"


class MergeError(RuntimeError):
    """Shard loading or merging failed (missing dir, no shards, ...)."""


@dataclass
class JoinedRpc:
    """One RPC stitched across shards, all timestamps in the merged
    (server) clock domain."""

    trace: str
    client_shard: int
    server_shard: Optional[int] = None
    #: ``[stage, ts]``/``[stage, ts, extra]`` rows, aligned and sorted.
    client_stages: list = field(default_factory=list)
    server_stages: list = field(default_factory=list)
    #: Clock-alignment error bound for cross-clock comparisons (ns).
    #: The NTP-style offset estimate is only good to +-rtt_min/2, so
    #: nesting can only be asserted up to that slack.
    slack_ns: int = 0

    def _stage_ts(self, stages: list, name: str) -> Optional[int]:
        for row in stages:
            if row[0] == name:
                return row[1]
        return None

    @property
    def post_ns(self) -> Optional[int]:
        return self._stage_ts(self.client_stages, "post")

    @property
    def complete_ns(self) -> Optional[int]:
        return self._stage_ts(self.client_stages, "complete")

    @property
    def dispatch_ns(self) -> Optional[int]:
        return self._stage_ts(self.server_stages, "dispatch")

    @property
    def done_ns(self) -> Optional[int]:
        return self._stage_ts(self.server_stages, "done")

    @property
    def nested(self) -> bool:
        """After alignment the server span must sit inside the client
        span: post <= dispatch <= done <= complete.

        Same-clock orders (post <= complete, dispatch <= done) are exact;
        cross-clock orders are checked up to ``slack_ns``, the offset
        estimator's error bound.
        """
        post, dispatch = self.post_ns, self.dispatch_ns
        done, complete = self.done_ns, self.complete_ns
        if any(t is None for t in (post, dispatch, done, complete)):
            return False
        return (
            post <= complete
            and dispatch <= done
            and post <= dispatch + self.slack_ns
            and done <= complete + self.slack_ns
        )


@dataclass
class MergedTrace:
    """The merge result: shards, joins, and the merged artifact."""

    shards: list  #: the input artifacts, in load order
    offsets: list  #: per-shard applied offset (ns, server domain)
    joined: list  #: :class:`JoinedRpc` rows, sorted by (post, trace)
    artifact: dict  #: one obs-artifact-shaped dict (aligned timestamps)

    @property
    def cross_process(self) -> list:
        """Joins that actually span two shards (client AND server side)."""
        return [j for j in self.joined if j.server_shard is not None]

    def problems(self) -> list[str]:
        """Structural checks on the merged result (empty == good)."""
        out = []
        for j in self.cross_process:
            if not j.nested:
                out.append(
                    f"rpc {j.trace}: spans do not nest after alignment "
                    f"(post={j.post_ns} dispatch={j.dispatch_ns} "
                    f"done={j.done_ns} complete={j.complete_ns} "
                    f"slack={j.slack_ns})"
                )
        return out

    def to_chrome(self) -> dict:
        return _merged_chrome_trace(self)


def _shard_sort_key(meta: dict) -> tuple:
    # Server shard first, then clients by id: stable regardless of the
    # shard filenames a particular exporter chose.
    role = meta.get("role", "client")
    return (0 if role == "server" else 1, meta.get("client_id", 0))


def load_shards(directory) -> list[dict]:
    """Load every ``*.obs.jsonl`` shard under ``directory``.

    Raises :class:`MergeError` with an actionable message when the
    directory does not exist or holds no shards — the usual cause is a
    run that never had tracing enabled (``--obs-dir`` / ``--obs``).
    """
    if not os.path.isdir(directory):
        raise MergeError(
            f"shard directory {directory!r} does not exist; run the proc "
            "workload with an obs export first (python -m repro.net "
            "--obs-dir DIR, or python -m repro.bench --backend proc --obs DIR)"
        )
    names = sorted(
        name for name in os.listdir(directory) if name.endswith(".obs.jsonl")
    )
    if not names:
        raise MergeError(
            f"no *.obs.jsonl shards in {directory!r}; the run either had "
            "observability off or exported somewhere else"
        )
    shards = [load_jsonl(os.path.join(directory, name)) for name in names]
    shards.sort(key=lambda a: _shard_sort_key(a["meta"]))
    return shards


def _shift_stages(stages: list, offset: int) -> list:
    out = []
    for row in stages:
        row = list(row)
        row[1] = row[1] + offset
        out.append(row)
    return out


def merge_shards(shards: list[dict]) -> MergedTrace:
    """Clock-align ``shards`` and join their RPC timelines by trace id.

    The server shard (``meta["role"] == "server"``) anchors the merged
    clock domain; every client shard is shifted by its own
    ``meta["clock_sync"]["offset_ns"]``.  A merge without a server shard
    still works (offsets default to 0) — useful for client-only runs —
    but produces no cross-process joins.
    """
    if not shards:
        raise MergeError("no shards to merge")
    offsets = []
    for artifact in shards:
        meta = artifact["meta"]
        if meta.get("role") == "server":
            offsets.append(0)
            continue
        sync = meta.get("clock_sync") or {}
        offset = sync.get("offset_ns")
        offsets.append(int(offset) if offset is not None else 0)

    # Per-shard alignment error bound: half the min RTT the estimator
    # saw (the classical NTP guarantee).  Zero for the server anchor.
    slacks = []
    for artifact in shards:
        meta = artifact["meta"]
        sync = meta.get("clock_sync") or {}
        slacks.append(
            0 if meta.get("role") == "server"
            else int(sync.get("rtt_ns") or 0) // 2
        )

    # Join timelines by trace id.  Client stages win the "client side"
    # slot; server shards contribute the server side.
    joins: dict[str, JoinedRpc] = {}
    merged_rpcs = []
    spans, instants, series = [], [], []
    for index, (artifact, offset) in enumerate(zip(shards, offsets)):
        meta = artifact["meta"]
        role = meta.get("role", "client")
        label = (
            "server" if role == "server"
            else f"client{meta.get('client_id', index)}"
        )
        for span in artifact["spans"]:
            out = dict(span)
            out["track"] = f"{label}.{span['track']}"
            out["start"] = span["start"] + offset
            out["end"] = span["end"] + offset
            spans.append(out)
        for inst in artifact["instants"]:
            out = dict(inst)
            out["track"] = f"{label}.{inst['track']}"
            out["ts"] = inst["ts"] + offset
            instants.append(out)
        for record in artifact["series"]:
            out = dict(record)
            out["name"] = f"{label}.{record['name']}"
            out["points"] = [[ts + offset, v] for ts, v in record["points"]]
            series.append(out)
        for rpc in artifact["rpcs"]:
            stages = _shift_stages(rpc["stages"], offset)
            merged_rpcs.append({
                "id": len(merged_rpcs), "shard": index, "stages": stages,
                **({"trace": rpc["trace"]} if "trace" in rpc else {}),
            })
            trace = rpc.get("trace")
            if trace is None:
                continue
            join = joins.get(trace)
            if join is None:
                join = joins[trace] = JoinedRpc(trace=trace, client_shard=index)
            if role == "server":
                join.server_shard = index
                join.server_stages = stages
            else:
                join.client_shard = index
                join.client_stages = stages
                join.slack_ns = slacks[index]

    joined = sorted(
        (j for j in joins.values() if j.client_stages),
        key=lambda j: (j.post_ns if j.post_ns is not None else 0, j.trace),
    )
    merged_meta = {
        "merged_from": len(shards),
        "offsets_ns": offsets,
        "joined_rpcs": len(joined),
        "cross_process_rpcs": sum(
            1 for j in joined if j.server_shard is not None
        ),
        "shards": [
            {
                "role": a["meta"].get("role", "client"),
                "client_id": a["meta"].get("client_id"),
                "dropped": a["meta"].get("dropped", 0),
                "rpc_dropped": a["meta"].get("rpc_dropped", 0),
            }
            for a in shards
        ],
    }
    artifact = {
        "meta": merged_meta,
        "spans": spans,
        "instants": instants,
        "rpcs": merged_rpcs,
        "series": series,
    }
    return MergedTrace(
        shards=shards, offsets=offsets, joined=joined, artifact=artifact
    )


def _assign_lanes(intervals: list[tuple]) -> list[int]:
    """Greedy interval partitioning: earliest-start first, reuse the
    lowest free lane.  Deterministic, and no two slices on one lane
    overlap — which is what keeps the Perfetto rendering honest."""
    lane_free_at: list[int] = []
    out = []
    for start, end in intervals:
        lane = None
        for index, free_at in enumerate(lane_free_at):
            if free_at <= start:
                lane = index
                break
        if lane is None:
            lane = len(lane_free_at)
            lane_free_at.append(0)
        lane_free_at[lane] = max(end, start + 1)
        out.append(lane)
    return out


def _merged_chrome_trace(merged: MergedTrace) -> dict:
    """The merged Perfetto document: one process per shard, RPC lanes,
    and cross-process flow events."""
    events: list[dict] = []

    def process(pid: int, name: str) -> None:
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })

    def thread(pid: int, tid: int, name: str) -> None:
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    # pid per shard: 1..n in shard order (server first by load_shards).
    pids = []
    for index, artifact in enumerate(merged.shards):
        meta = artifact["meta"]
        pid = index + 1
        pids.append(pid)
        role = meta.get("role", "client")
        name = (
            f"server ({meta.get('transport', '?')})" if role == "server"
            else f"client {meta.get('client_id', index)}"
        )
        process(pid, name)

    # RPC lanes per shard.  The client side spans post..complete, the
    # server side dispatch..done (req_rx..done when present); each gets
    # an X slice on a non-overlapping lane, which is what the flow
    # events below bind to.
    lane_threads: dict[tuple, int] = {}
    next_tid: dict[int, int] = {pid: 1 for pid in pids}

    def lane_tid(pid: int, lane: int) -> int:
        tid = lane_threads.get((pid, lane))
        if tid is None:
            tid = lane_threads[(pid, lane)] = next_tid[pid]
            next_tid[pid] += 1
            thread(pid, tid, f"rpc lane {lane}")
        return tid

    def side_interval(stages: list) -> Optional[tuple]:
        if not stages:
            return None
        times = [row[1] for row in stages]
        return min(times), max(times)

    slices = []  # (pid, interval, name, trace, stages)
    for j in merged.joined:
        client_pid = pids[j.client_shard]
        interval = side_interval(j.client_stages)
        if interval is not None:
            slices.append((client_pid, interval, "rpc", j.trace, j.client_stages))
        if j.server_shard is not None:
            interval = side_interval(j.server_stages)
            if interval is not None:
                slices.append((
                    pids[j.server_shard], interval, "serve", j.trace,
                    j.server_stages,
                ))

    # Lane assignment is per pid, over that pid's slices in time order.
    by_pid: dict[int, list] = {}
    for entry in slices:
        by_pid.setdefault(entry[0], []).append(entry)
    slice_tids: dict[tuple, int] = {}  # (pid, trace, name) -> tid
    slice_spans: dict[tuple, tuple] = {}  # (pid, trace, name) -> (start, end)
    for pid, entries in sorted(by_pid.items()):
        entries.sort(key=lambda e: (e[1][0], e[3]))
        lanes = _assign_lanes([e[1] for e in entries])
        for (epid, (start, end), name, trace, stages), lane in zip(entries, lanes):
            tid = lane_tid(epid, lane)
            slice_tids[(epid, trace, name)] = tid
            slice_spans[(epid, trace, name)] = (start, end)
            events.append({
                "ph": "X", "pid": epid, "tid": tid, "name": name,
                "cat": "rpc", "ts": _us(start),
                "dur": _us(max(end - start, 1)),
                "args": {"trace": trace, "stages": [
                    [row[0], row[1]] for row in stages
                ]},
            })

    # Flow events: client post -> server dispatch, server done -> client
    # complete.  ``bp: "e"`` binds each endpoint to its enclosing slice.
    for j in merged.joined:
        if j.server_shard is None or not j.nested:
            continue
        client_pid = pids[j.client_shard]
        server_pid = pids[j.server_shard]
        client_tid = slice_tids.get((client_pid, j.trace, "rpc"))
        server_tid = slice_tids.get((server_pid, j.trace, "serve"))
        if client_tid is None or server_tid is None:
            continue
        server_span = slice_spans[(server_pid, j.trace, "serve")]
        client_span = slice_spans[(client_pid, j.trace, "rpc")]
        for suffix, (from_pid, from_tid, from_ts), (to_pid, to_tid, to_ts, to_span) in (
            ("req",
             (client_pid, client_tid, j.post_ns),
             (server_pid, server_tid, j.dispatch_ns, server_span)),
            ("resp",
             (server_pid, server_tid, j.done_ns),
             (client_pid, client_tid, j.complete_ns, client_span)),
        ):
            # Clock alignment is only good to +-slack, so a cross-clock
            # hop can come out slightly backward; clamp the finish onto
            # the destination slice, and skip the flow entirely when no
            # forward-pointing rendering exists.
            to_ts = min(max(to_ts, from_ts), to_span[1])
            if to_ts < from_ts:
                continue
            flow_id = f"{j.trace}.{suffix}"
            events.append({
                "ph": "s", "cat": "rpcflow", "id": flow_id, "pid": from_pid,
                "tid": from_tid, "name": suffix, "ts": _us(from_ts),
            })
            events.append({
                "ph": "f", "bp": "e", "cat": "rpcflow", "id": flow_id,
                "pid": to_pid, "tid": to_tid, "name": suffix,
                "ts": _us(to_ts),
            })

    # Per-shard drops markers and instants, on their own threads.
    for index, artifact in enumerate(merged.shards):
        pid = pids[index]
        offset = merged.offsets[index]
        meta = artifact["meta"]
        drops = meta.get("dropped", 0) + meta.get("rpc_dropped", 0)
        if drops:
            tid = next_tid[pid]
            next_tid[pid] += 1
            thread(pid, tid, "obs.drops")
            events.append({
                "ph": "i", "pid": pid, "tid": tid, "name": "tracer.dropped",
                "cat": "obs", "ts": 0.0, "s": "p",
                "args": {"count": drops},
            })
        if artifact["instants"]:
            tid = next_tid[pid]
            next_tid[pid] += 1
            thread(pid, tid, "instants")
            for inst in artifact["instants"]:
                event = {
                    "ph": "i", "pid": pid, "tid": tid, "name": inst["name"],
                    "cat": "obs", "ts": _us(inst["ts"] + offset), "s": "t",
                }
                if "args" in inst:
                    event["args"] = inst["args"]
                events.append(event)

    return {"traceEvents": events, "displayTimeUnit": "ns"}


def _us(ns: int) -> float:
    return ns / 1000


def merge_dir(directory) -> MergedTrace:
    """Load the shards under ``directory`` and merge them."""
    merged = merge_shards(load_shards(directory))
    return merged


def write_merged_chrome_trace(merged: MergedTrace, path) -> list[str]:
    """Validate and write the merged Perfetto trace; returns problems
    (the file is written regardless, so a bad trace can be inspected)."""
    trace = merged.to_chrome()
    problems = validate_chrome_trace(trace) + merged.problems()
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return problems
