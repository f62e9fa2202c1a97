#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark, for both backends.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--json PATH]
    python3 benchmarks/e2e/run.py compare A.json B.json

Runs the closed-loop workloads declared in ``BENCHMARK.json`` (three on the
simulated backend, three over real loopback TCP), one child process at a
time, checks their outputs, and prints every metric by name with its unit:
the end-to-end metrics with tracing off, or — with ``--trace`` — the
per-layer metrics from a separate traced run.  With ``--workload`` the last
stdout line is one JSON object (``correct`` / ``attempted`` / ``failed`` /
``metrics``).  ``--json PATH`` appends the run to ``PATH``; ``compare``
judges two such files against each metric's bound, one row per workload.
See README.md beside this file for the workloads, metrics and their map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: The whole command must end within 180 s; no single child may outlive this.
CHILD_TIMEOUT_S = 170

#: Set-up is measured in this many children per run (each imports, builds
#: and exits); ``setup_s`` is their median.
SETUP_PROBES = 5

#: The run is marked ``noisy`` when other processes use more than this
#: many cores just before it starts.  (The 1-min load average is recorded
#: too, but in a back-to-back set it still carries the previous run.)
NOISY_BUSY_CORES = 0.25

#: Every child runs with glibc's malloc at its default thresholds, frozen.
#: Left alone, glibc raises its mmap threshold the first time a large block
#: is freed, and what asyncio's ``recv(256 KiB)`` costs — an mmap, page
#: faults and a munmap per read, 4 faults per RPC, a third of its CPU —
#: then depends on when, if ever, each process happened to free one.  Naming
#: a threshold switches that adjustment off; 128 KiB is the value a process
#: starts with.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

#: ``--smoke``: one sim repeat, 0.3 s proc segments, one set-up probe.
SMOKE_SECONDS = 1.5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def make_header() -> dict:
    """Where and under what load the numbers were taken (the noise guard)."""
    busy = busy_cores()
    header = {
        "nproc": os.cpu_count() or 1,
        "load1": os.getloadavg()[0],
        "busy_cores": busy,
        "python": platform.python_version(),
        "sim.ring_events_per_s": layers.ring_events_per_s(),
        "noisy": busy > NOISY_BUSY_CORES,
    }
    if header["noisy"]:
        print(f"e2e: NOISY run: other processes are using {busy:.2f} cores; "
              "timings may not repeat", file=sys.stderr)
    return header


def busy_cores(sample_s: float = 0.25) -> float:
    """Cores' worth of CPU the rest of the machine uses right now: the
    non-idle share of /proc/stat over a short sleep of this process."""
    def jiffies():
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
        return sum(fields), fields[3] + fields[4]  # total, idle + iowait

    total0, idle0 = jiffies()
    time.sleep(sample_s)
    total1, idle1 = jiffies()
    elapsed = total1 - total0
    return (os.cpu_count() or 1) * (1 - (idle1 - idle0) / elapsed) if elapsed else 0.0


def run_child(mode: str, name: str, args, trace: int) -> dict:
    """Run ``workloads.py`` once, alone, and return the object it printed."""
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "workloads.py"), mode,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--min-repeats", "1" if args.smoke else "3",
        "--t0", repr(time.monotonic()),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: {mode} child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, args, declared: list, header: dict) -> dict:
    """One workload: the set-up probes and the measuring child (tracing
    off), or the traced child; the metrics it measured, by declared name."""
    if args.trace:
        out = run_child("measure", name, args, trace=1)
        out["metrics"]["sim.ring_events_per_s"] = header["sim.ring_events_per_s"]
    else:
        probes = 1 if args.smoke else SETUP_PROBES
        setups = [run_child("setup", name, args, trace=0)["setup_s"]
                  for _ in range(probes)]
        out = run_child("measure", name, args, trace=0)
        out["metrics"] = {"setup_s": statistics.median(setups), **out["metrics"]}
    undeclared = set(out["metrics"]) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"{name}: metrics not in BENCHMARK.json: {sorted(undeclared)}")
    for note in out.pop("notes"):
        print(f"e2e: NOTE: {note}", file=sys.stderr)
    return out


def print_workload(name: str, result: dict, units: dict) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{name}: {verdict}  ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<36} {value:>14.6g} {units[metric]}")


def append_run(path: Path, run: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def spread(values: list) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 for a single run: one run shows no spread)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    """``(ratio change/base, spread, verdict)`` for one metric on one workload."""
    a, b = statistics.median(base), statistics.median(change)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    noise = max(spread(base), spread(change))
    if noise > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < 0 and -worse_by > noise:
        word = "better"
    else:
        word = "within"
    return b / a, noise, word


def end_to_end_values(doc: dict, workload: str, metric: str) -> list:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in doc["runs"]
        if not run["trace"] and workload in run["workloads"]
    ]


def compare(base_path: Path, change_path: Path, spec: dict) -> int:
    """Print, per workload x end-to-end metric, both medians, the ratio
    with its base, the bound and a verdict.  Returns 1 if any is worse."""
    base, change = json.loads(base_path.read_text()), json.loads(change_path.read_text())
    print(f"base A = {base_path} ({len(base['runs'])} runs), "
          f"B = {change_path} ({len(change['runs'])} runs); ratio is B/A")
    print(f"{'workload':<22} {'metric':<15} {'A median':>11} {'B median':>11} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = end_to_end_values(base, workload, metric["name"])
            b = end_to_end_values(change, workload, metric["name"])
            if not a or not b:
                continue
            ratio, noise, word = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= word == "worse"
            print(f"{workload:<22} {metric['name']:<15} {statistics.median(a):>11.5g} "
                  f"{statistics.median(b):>11.5g} {ratio:>7.3f} {metric['bound']:>6.2f} "
                  f"{noise:>7.3f}  {word}")
    return 1 if any_worse else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"e2e: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.change, spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="the traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="shortest run that still exercises everything")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="append this run to PATH (input of `compare`)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS

    sys.path.insert(0, str(SRC))  # the header's ring probe runs repro.sim
    header = make_header()
    print("e2e: " + "  ".join(f"{key}={value}" for key, value in header.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in [args.workload] if args.workload else names:
        results[name] = run_workload(name, args, declared, header)
        print_workload(name, results[name], units)
    if args.json:
        append_run(args.json, {"header": header, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "workloads": results})
    if args.workload:
        # The last line reports every declared metric: a per-layer metric of
        # a layer this workload never enters reads 0.
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
                for m in declared
            },
        }))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
