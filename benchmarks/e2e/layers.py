"""Measurement helpers for the e2e benchmark: the machine-speed probe,
percentiles, the profile-path -> layer mapping, the kernel ring probe and
the codec timers.

Everything here measures ``repro`` from outside — by calling its public
functions or by reading a ``cProfile`` table — and changes nothing in it.
"""

from __future__ import annotations

import math
import pstats
import re
import signal
import statistics
import time
import timeit

#: Layers the sim profile is split into (``src/repro/<layer>/``); every
#: other frame (stdlib, numpy, builtins, repro.transport, repro.obs, the
#: benchmark's own file) is ``other``, so the shares always sum to 1.
SIM_LAYERS = ("sim", "rdma", "memsys", "core", "baselines", "txn", "bench", "other")

#: A percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: End-to-end times are reported as they would read on a machine that does
#: one :func:`work_unit` in this long (about what the reference box takes).
REFERENCE_UNIT_S = 0.002

_LAYER_RE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


def work_unit() -> None:
    """A fixed amount of pure-Python work (about 2 ms) that no change to
    ``repro`` can make faster: the yardstick of :class:`SpeedProbe`."""
    x = 0
    for i in range(40_000):
        x += i * i % 7


class SpeedProbe:
    """Measures how fast the machine is *while* a measurement runs.

    The host is a shared VM whose speed sits at one of two levels a
    quarter apart and changes level for seconds to minutes at a time, so
    raw times of identical runs spread by 10-25 %.  Between ``__enter__``
    and ``__exit__`` an interval timer interrupts the measuring thread
    every ``period_s``; the handler does one :func:`work_unit` there and
    then and adds what it took to the running totals ``units``, ``wall_s``
    and ``cpu_s``.  A measured interval subtracts the units that ran
    inside it and is scaled by how long they took (:func:`at_reference_speed`);
    a run's work and its yardstick then see the same machine, and the
    scaled times of identical runs agree to 2-3 %.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.units = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        work_unit()
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu
        self.units += 1

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def unit_seconds(repeat: int = 5) -> float:
    """What one :func:`work_unit` takes right now (median of ``repeat``)."""
    return statistics.median(timeit.repeat(work_unit, number=1, repeat=repeat))


def at_reference_speed(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while a :func:`work_unit` took ``unit_s``, as
    they would read on a machine where it takes :data:`REFERENCE_UNIT_S`."""
    return seconds * REFERENCE_UNIT_S / unit_s


def percentile(sorted_values, p: float):
    """Nearest-rank percentile: the smallest sample with at least ``p`` %
    of the population at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def _rank(n: int, p: float) -> int:
    # Rounded first, so that 99.9 % of 1000 is rank 999 whatever the
    # last bit of the float product says.
    return max(1, math.ceil(round(p * n / 100, 9)))


def supports_percentile(n: int, p: float) -> bool:
    """Whether ``n`` samples can carry the ``p``-th percentile: at least
    :data:`MIN_SAMPLES_BEYOND` of them must lie beyond its rank."""
    return n > 0 and n - _rank(n, p) >= MIN_SAMPLES_BEYOND


def layer_of(path: str) -> str:
    """The layer a profiler filename belongs to (see :data:`SIM_LAYERS`)."""
    match = _LAYER_RE.search(path)
    if match and match.group(1) in SIM_LAYERS:
        return match.group(1)
    return "other"


def profile_stats(profile) -> dict:
    """The ``pstats`` table of a finished ``cProfile.Profile``:
    ``(file, line, name) -> (primitive calls, calls, tottime, cumtime, callers)``."""
    return pstats.Stats(profile).stats


def profile_layers(stats: dict) -> dict:
    """Self time (``tottime``, seconds) of a profile table summed per layer."""
    totals = dict.fromkeys(SIM_LAYERS, 0.0)
    for (path, _line, _name), entry in stats.items():
        totals[layer_of(path)] += entry[2]
    return totals


def profile_calls(stats: dict, function) -> int:
    """Exact number of calls a profile table holds of one Python function."""
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def ring_events_per_s(n_procs: int = 64, n_tokens: int = 8, hops: int = 200_000) -> float:
    """The machine calibrator: events/s of the sim kernel passing tokens
    round a ring of processes (same-instant Store hand-offs, with a short
    timeout every 16th hop so the heap path is exercised too).  The same
    probe as ``benchmarks/quick_bench.py``, at half the hop count."""
    from repro.sim import Simulator, Store

    sim = Simulator()
    stores = [Store(sim) for _ in range(n_procs)]
    state = {"hops": 0}

    def worker(sim, index):
        mine = stores[index]
        nxt = stores[(index + 1) % n_procs]
        while True:
            token = yield mine.get()
            state["hops"] += 1
            if state["hops"] >= hops:
                return
            if state["hops"] % 16 == 0:
                yield sim.timeout(5)
            nxt.put(token)

    for index in range(n_procs):
        sim.process(worker(sim, index), name=f"ring.{index}")
    for token in range(n_tokens):
        stores[(token * n_procs) // n_tokens].put(token)
    start = time.perf_counter()
    sim.run()
    # Each hop delivers at least two events (store get + process resume).
    return 2 * state["hops"] / (time.perf_counter() - start)


def codec_us(payload, data_bytes: int, number: int = 20_000, repeat: int = 5) -> dict:
    """Microseconds per call (``timeit`` min of ``repeat``) of the wire
    codec and the stream framing, at one payload size."""
    from repro.core.message import (
        RpcRequest,
        RpcResponse,
        decode_request,
        decode_response,
        encode_request,
        encode_response,
    )
    from repro.net.framing import FrameDecoder, encode_frame

    request = RpcRequest(client_id=1, rpc_type="echo", payload=payload,
                         data_bytes=data_bytes)
    response = RpcResponse(req_id=request.req_id, client_id=1, payload=payload,
                           data_bytes=data_bytes)
    request_wire = encode_request(request)
    response_wire = encode_response(response)
    frame = encode_frame(request_wire)
    decoder = FrameDecoder()
    timed = {
        "core.message.encode_request_us": lambda: encode_request(request),
        "core.message.decode_request_us": lambda: decode_request(request_wire),
        "core.message.encode_response_us": lambda: encode_response(response),
        "core.message.decode_response_us": lambda: decode_response(response_wire),
        "net.framing.encode_frame_us": lambda: encode_frame(request_wire),
        "net.framing.feed_us": lambda: decoder.feed(frame),
    }
    return {
        name: min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6
        for name, fn in timed.items()
    }
