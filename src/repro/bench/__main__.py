"""CLI for regenerating the paper's tables and figures.

After each figure it checks that figure's claims (:mod:`repro.bench.claims`),
prints ``ok`` or ``BROKEN`` per row, and exits 1 if any row is broken.

Usage::

    python -m repro.bench --figure fig8_clients
    python -m repro.bench --all
    python -m repro.bench --all --full        # paper-scale sweeps
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..transport import BACKENDS
from .claims import claims_for
from .experiments import ALL_FIGURES, BACKEND_FIGURES, run_figure
from .harness import set_obs_export_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the ScaleRPC paper's evaluation figures.",
    )
    parser.add_argument("--figure", action="append", default=[],
                        help="figure to run (repeatable); see --list")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--full", action="store_true",
                        help="full paper-scale sweeps (slower)")
    parser.add_argument("--list", action="store_true", help="list figures")
    parser.add_argument("--backend", default="sim",
                        help="execution backend for figures that support one"
                             " (e.g. fig_real); default: sim")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the results as JSON to PATH")
    parser.add_argument("--obs", metavar="DIR",
                        help="export repro.obs artifacts (JSONL + Perfetto"
                             " trace) of obs-enabled experiments to DIR"
                             " (e.g. --figure fig_overrun)")
    args = parser.parse_args(argv)

    if args.obs:
        set_obs_export_dir(args.obs)

    if args.list:
        for name in ALL_FIGURES:
            print(name)
        return 0
    names = list(ALL_FIGURES) if args.all else args.figure
    if not names:
        parser.print_help()
        return 2
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)}\navailable figures:",
            file=sys.stderr,
        )
        for name in ALL_FIGURES:
            print(f"  {name}", file=sys.stderr)
        return 2
    if args.backend not in BACKENDS:
        print(
            f"unknown backend: {args.backend}\navailable backends:",
            file=sys.stderr,
        )
        for name in BACKENDS:
            print(f"  {name}", file=sys.stderr)
        return 2
    collected = {}
    broken: list[str] = []
    for name in names:
        started = time.time()  # flowlint: ignore[wall-clock] — CLI progress timing
        backend = args.backend if name in BACKEND_FIGURES else "sim"
        result = run_figure(name, quick=not args.full, backend=backend)
        print(result.render())
        for claim in claims_for(name):
            held = claim.check(result)
            line = f"{'ok' if held else 'BROKEN'} [{name}] {claim.text}"
            print(f"  {line}")
            if not held:
                broken.append(line)
        print(f"  ({time.time() - started:.1f}s)\n")  # flowlint: ignore[wall-clock]
        collected[name] = result.as_dict()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(collected, handle, indent=2)
        print(f"wrote {args.json}")
    for line in broken:
        print(line, file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
