"""CLI: summarize and merge obs artifacts.

    python -m repro.obs summary run.jsonl [--chrome out.trace.json]
    python -m repro.obs merge SHARD_DIR --out merged.trace.json

``summary`` prints run metadata (including every drop counter), the
critical-path breakdown of tail latency, and cliff detection over each
epoch series.  ``merge`` clock-aligns the per-process shards a proc run
exported and writes one Perfetto trace with cross-process flow events.

The bare legacy form ``python -m repro.obs run.jsonl`` still works and
is equivalent to ``summary``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .critical import detect_cliff, stage_breakdown
from .dist import MergeError, merge_dir, write_merged_chrome_trace
from .export import load_jsonl, to_chrome_trace, validate_chrome_trace, write_chrome_trace


def _fmt_ns(ns: float) -> str:
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.3f} us"
    return f"{ns:.0f} ns"


def _cmd_summary(args) -> int:
    artifact = load_jsonl(args.artifact)
    meta = artifact["meta"]

    print(f"artifact: {args.artifact}")
    for key in sorted(meta):
        print(f"  {key}: {meta[key]}")
    print(f"  spans: {len(artifact['spans'])}  instants: {len(artifact['instants'])}"
          f"  rpcs: {len(artifact['rpcs'])}  series: {len(artifact['series'])}")

    breakdown = stage_breakdown(artifact, percentile=args.percentile)
    if breakdown is None:
        print("\nno complete RPC timelines — skipping critical-path breakdown")
    else:
        print(f"\ncritical path, p{args.percentile:g} = "
              f"{_fmt_ns(breakdown.latency_ns)} "
              f"({breakdown.tail_count}/{breakdown.count} RPCs in tail):")
        for name, mean_ns, share in breakdown.top(args.top):
            print(f"  {name:<22} {_fmt_ns(mean_ns):>12}  {share * 100:5.1f}%")

    cliffed = False
    for series in artifact["series"]:
        points = [
            [ts, v] for ts, v in series["points"]
            if not isinstance(v, dict)
        ]
        cliff = detect_cliff(points, drop=args.drop)
        if cliff is not None:
            cliffed = True
            print(f"\ncliff in {series['name']}: {cliff.before:.4g} -> "
                  f"{cliff.after:.4g} ({cliff.ratio * 100:.1f}% of peak) "
                  f"at t={_fmt_ns(cliff.ts)}")
    if not cliffed and artifact["series"]:
        print("\nno cliffs detected in any series")

    if args.chrome:
        write_chrome_trace(artifact, args.chrome)
        problems = validate_chrome_trace(to_chrome_trace(artifact))
        status = "valid" if not problems else f"{len(problems)} problems"
        print(f"\nwrote Chrome trace ({status}): {args.chrome}")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1 if problems else 0
    return 0


def _cmd_merge(args) -> int:
    try:
        merged = merge_dir(args.shard_dir)
    except MergeError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    meta = merged.artifact["meta"]
    print(f"merged {meta['merged_from']} shards from {args.shard_dir}: "
          f"{meta['joined_rpcs']} traced RPCs, "
          f"{meta['cross_process_rpcs']} joined across processes")
    for shard, offset in zip(meta["shards"], meta["offsets_ns"]):
        who = shard["role"]
        if shard.get("client_id") is not None:
            who = f"{who} {shard['client_id']}"
        drops = shard["dropped"] + shard["rpc_dropped"]
        note = f", {drops} dropped" if drops else ""
        print(f"  {who}: clock offset {offset:+,} ns{note}")
    problems = write_merged_chrome_trace(merged, args.out)
    if problems:
        print(f"wrote {args.out} with {len(problems)} problems:",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"wrote Perfetto trace (valid): {args.out}")
    if args.artifact_out:
        with open(args.artifact_out, "w") as fh:
            json.dump(merged.artifact, fh, sort_keys=True)
        print(f"wrote merged artifact: {args.artifact_out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize and merge obs artifacts.",
    )
    sub = parser.add_subparsers(dest="command")

    p_summary = sub.add_parser("summary", help="summarize one JSONL artifact")
    p_summary.add_argument("artifact", help="path to a JSONL artifact")
    p_summary.add_argument("--percentile", type=float, default=99.0,
                           help="tail percentile for the breakdown (default 99)")
    p_summary.add_argument("--top", type=int, default=8,
                           help="stages to show in the breakdown (default 8)")
    p_summary.add_argument("--drop", type=float, default=0.3,
                           help="relative drop that counts as a cliff (default 0.3)")
    p_summary.add_argument("--chrome", metavar="OUT",
                           help="also export a Chrome trace-event JSON file")

    p_merge = sub.add_parser(
        "merge", help="merge per-process shards into one Perfetto trace"
    )
    p_merge.add_argument("shard_dir", help="directory of *.obs.jsonl shards")
    p_merge.add_argument("--out", default="merged.trace.json",
                         help="merged Perfetto trace path")
    p_merge.add_argument("--artifact-out", default=None,
                         help="also write the merged artifact JSON here")

    # Legacy form: a bare artifact path means "summary".
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("summary", "merge", "-h", "--help"):
        argv.insert(0, "summary")
    args = parser.parse_args(argv)

    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "summary":
        return _cmd_summary(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
