"""Canned experiments: one function per paper table/figure.

Each ``figXX`` function runs the corresponding evaluation and returns a
:class:`~repro.bench.report.FigureResult`.  ``quick=True`` (the default)
uses shorter measurement windows and a sparser sweep so the full set
finishes in minutes; ``quick=False`` runs the paper's full sweeps.

Most figures are one sweep (:func:`_sweep`: every run label over every x)
or one table (:func:`_table`: one row per run, one column per metric);
the paper's shape each figure must show is in :mod:`repro.bench.claims`.
The mapping to paper figures is indexed in DESIGN.md section 3, and
paper-vs-measured values are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from ..dfs import MdtestConfig, run_mdtest
from ..faults import FaultPlan
from ..txn import ObjectStoreConfig, SmallBankConfig, TxnClusterConfig, run_object_store, run_smallbank
from ..workloads import (
    RawVerbConfig,
    compare_rc_dct_latency,
    gaussian_afd_think_time,
    run_dct_outbound,
    run_inbound_write,
    run_outbound_write,
    run_transfer_comparison,
    run_ud_send,
)
from .harness import RpcExperiment, run_rpc_experiment
from .report import FigureResult

__all__ = [
    "fig1a", "fig1b", "fig3a", "fig3b",
    "fig8_clients", "fig8_machines", "fig9", "fig9_cdf", "fig10",
    "fig11a", "fig11b", "fig12", "fig13",
    "fig16a", "fig16a_ro", "fig16b",
    "disc_transfer", "disc_dct", "disc_newer_hca", "abl_mechanisms",
    "fig_overrun", "fig_faults", "fig_real", "fig_failover",
    "ALL_FIGURES", "BACKEND_FIGURES", "run_figure",
]

US = 1_000
MS = 1_000_000

RPC_SYSTEMS = ("scalerpc", "rawwrite", "herd", "fasst")
TXN_SYSTEMS = ("scaletx", "scaletx-o", "rawwrite", "herd", "fasst")
MDTEST_OPS = ("Mknod", "Rmnod", "Stat", "ReadDir")

Extract = Callable[[Any], float]
_tput: Extract = attrgetter("throughput_mops")
_mtps: Extract = attrgetter("mtps")


def _mdtest_metrics(template: str) -> dict[str, Extract]:
    return {template.format(op=op): lambda r, op=op: r.as_dict()[op] for op in MDTEST_OPS}


def _rpc(**fields):
    return run_rpc_experiment(RpcExperiment(**fields))


def _sweep(figure: str, title: str, x_label: str, xs: Sequence,
           runs: Mapping[str, Callable[[Any], Any]], metrics: Mapping[str, Extract] | None = None,
           unit: str = "Mops/s", notes: Sequence[str] = ()) -> FigureResult:
    """Run ``runs[label](x)`` for every label (outer) and x (inner).

    Each metric ``template -> extract`` fills the series
    ``template.format(label)``; by default a run label is one series of
    its throughput.
    """
    series: dict[str, list] = {}
    for label, run in runs.items():
        for x in xs:
            result = run(x)
            for template, extract in (metrics or {"{}": _tput}).items():
                series.setdefault(template.format(label), []).append(extract(result))
    return FigureResult(figure, title, x_label, xs, series, unit, list(notes))


def _table(figure: str, title: str, rows: Mapping[str, Any], metrics: Mapping[Any, Extract],
           unit: str, notes: Sequence[str], x_label: str = "metric") -> FigureResult:
    """One row per run result, one column per metric."""
    series = {label: [extract(result) for extract in metrics.values()]
              for label, result in rows.items()}
    return FigureResult(figure, title, x_label, tuple(metrics), series, unit, list(notes))


# ---------------------------------------------------------------------------
# The paper's figures: motivation (Figs. 1, 3) and evaluation (Figs. 8-16)
# ---------------------------------------------------------------------------

def fig1a(quick: bool = True) -> FigureResult:
    """Octopus (self-identified RPC) metadata throughput vs clients."""
    measure = 600 * US if quick else 1500 * US
    return _sweep(
        "Figure 1(a)",
        "DFS metadata throughput vs clients (Octopus, self-identified RPC)",
        "clients", (40, 80, 120),
        {"": lambda n: run_mdtest(MdtestConfig(
            rpc_system="selfrpc", n_clients=n, measure_ns=measure))},
        _mdtest_metrics("{op}"),
        notes=["paper: Stat/ReadDir drop ~50% from 40 to 120 clients; Mknod ~5%"],
    )


def fig1b(quick: bool = True) -> FigureResult:
    """Raw verb throughput vs clients."""
    counts = (10, 40, 80, 120, 200, 400, 800) if not quick else (10, 40, 120, 400, 800)
    measure = 400 * US if quick else 1 * MS
    return _sweep(
        "Figure 1(b)", "Raw RDMA verb throughput vs clients", "clients", counts,
        {
            "outbound RC write": lambda n: run_outbound_write(
                RawVerbConfig(n_clients=n, measure_ns=measure)),
            # Small blocks keep the inbound footprint LLC-resident at any
            # client count, as in the paper's flat inbound line.
            "inbound RC write": lambda n: run_inbound_write(RawVerbConfig(
                n_clients=n, block_size=512, warmup_ns=3 * MS, measure_ns=measure)),
            "UD send": lambda n: run_ud_send(RawVerbConfig(n_clients=n, measure_ns=measure)),
        },
        notes=["paper: outbound drops ~20 -> ~2 Mops from 10 to 800 clients; others flat"],
    )


def fig3a(quick: bool = True) -> FigureResult:
    """In/outbound RC write throughput and the PCIe read rate."""
    counts = (10, 40, 80, 120, 200, 400) if not quick else (10, 40, 120, 400)
    measure = 400 * US if quick else 1 * MS
    return _sweep(
        "Figure 3(a)", "RC write throughput vs PCIe read rate (NIC cache thrashing)",
        "clients", counts,
        {
            "outbound": lambda n: run_outbound_write(
                RawVerbConfig(n_clients=n, measure_ns=measure)),
            "inbound": lambda n: run_inbound_write(RawVerbConfig(
                n_clients=n, block_size=512, warmup_ns=3 * MS, measure_ns=measure)),
        },
        {"{} tput": _tput, "{} PCIeRdCur (M/s)": lambda r: r.pcie_rd_cur_mops},
        notes=["paper: outbound PCIe reads outgrow its throughput past the peak;"
               " inbound PCIe reads stay low"],
    )


def fig3b(quick: bool = True) -> FigureResult:
    """Inbound throughput and L3 miss rate vs message block size."""
    sizes = (128, 256, 512, 1024, 2048, 4096) if not quick else (128, 512, 1024, 2048, 4096)
    measure = 400 * US if quick else 1 * MS
    return _sweep(
        "Figure 3(b)", "Inbound RC write vs block size (400 clients x 20 blocks)",
        "block bytes", sizes,
        {"": lambda block: run_inbound_write(RawVerbConfig(
            n_clients=400, block_size=block, warmup_ns=4 * MS, measure_ns=measure))},
        {
            "throughput": _tput,
            "L3 miss rate": lambda r: r.l3_miss_rate,
            "PCIeItoM (M/s)": lambda r: r.pcie_itom_mops,
        },
        notes=["paper: sharp drop once blocks exceed 2 KB (footprint ~ LLC size)"],
    )


def fig8_clients(quick: bool = True) -> FigureResult:
    """Throughput vs client count for all four RPCs, at batch 1 and 8."""
    measure = 1 * MS if quick else 2 * MS
    return _sweep(
        "Figure 8 (left)", "RPC throughput vs clients", "clients",
        (40, 120, 240, 400) if quick else tuple(range(40, 401, 40)),
        {
            f"{system} (batch {batch})": lambda n, system=system, batch=batch: _rpc(
                system=system, n_clients=n, batch_size=batch,
                warmup_ns=600 * US, measure_ns=measure)
            for system in RPC_SYSTEMS for batch in (1, 8)
        },
        notes=["paper: ScaleRPC ~ FaSST stay flat; RawWrite collapses; HERD"
               " declines at small batch"],
    )


def fig8_machines(quick: bool = True) -> FigureResult:
    """Throughput of 40 clients spread over 1..5 physical machines."""
    measure = 800 * US if quick else 2 * MS
    return _sweep(
        "Figure 8 (right)", "40 client threads over 1..5 physical machines",
        "machines", (1, 2, 3, 4, 5),
        {
            system: lambda m, system=system: _rpc(
                system=system, n_clients=40, n_client_machines=m, batch_size=1,
                warmup_ns=600 * US, measure_ns=measure)
            for system in RPC_SYSTEMS
        },
        notes=["paper: RC RPCs saturate with <= 2 machines; UD RPCs need >= 4"],
    )


def fig9(quick: bool = True) -> FigureResult:
    """Latency distribution at 120 clients (median/mean/max + tput)."""
    measure = 2 * MS if quick else 5 * MS
    return _table(
        "Figure 9", "Latency at 120 clients",
        {
            f"{system} (batch {batch})": _rpc(
                system=system, n_clients=120, batch_size=batch,
                warmup_ns=600 * US, measure_ns=measure)
            for batch in (1, 8) for system in RPC_SYSTEMS
        },
        {
            "median_us": lambda r: r.latency.median_ns / 1e3,
            "mean_us": lambda r: r.latency.mean_ns / 1e3,
            "max_us": lambda r: r.latency.max_ns / 1e3,
            "tput_mops": _tput,
        },
        "us / Mops",
        [
            "paper (batch 1): medians ScaleRPC ~4us, RawWrite 19us, HERD 10us, FaSST 11us",
            "paper: ScaleRPC bimodal (low median, slice-bound max); UD tails >200us at batch 8",
        ],
    )


def fig9_cdf(quick: bool = True) -> FigureResult:
    """The latency distribution itself (inverse CDF at key percentiles,
    batch 1), mirroring the paper's Figure 9 plot."""
    measure = 2 * MS if quick else 5 * MS
    return _table(
        "Figure 9 (CDF, batch 1)", "Latency percentiles at 120 clients, batch 1",
        {
            system: _rpc(system=system, n_clients=120, batch_size=1,
                         warmup_ns=600 * US, measure_ns=measure)
            for system in RPC_SYSTEMS
        },
        {p: lambda r, p=p: r.recorder.percentile(p) / 1e3
         for p in (5, 25, 50, 75, 90, 95, 99, 100)},
        "us",
        ["paper: ScaleRPC's CDF is bimodal — a low plateau for most"
         " requests, then a jump to the slice-bound tail"],
        x_label="percentile",
    )


def fig10(quick: bool = True) -> FigureResult:
    """PCIeRdCur / PCIeItoM for RawWrite vs ScaleRPC."""
    counts = (40, 120, 200, 400) if quick else (40, 80, 120, 160, 200, 280, 400)
    measure = 1 * MS if quick else 2 * MS
    return _sweep(
        "Figure 10", "Hardware counters: RawWrite vs ScaleRPC", "clients", counts,
        {
            system: lambda n, system=system: _rpc(
                system=system, n_clients=n, batch_size=1,
                warmup_ns=600 * US, measure_ns=measure)
            for system in ("rawwrite", "scalerpc")
        },
        {
            "{} tput": _tput,
            "{} PCIeRdCur (M/s)": lambda r: r.counters.pcie_rd_cur_per_s / 1e6,
            "{} PCIeItoM (M/s)": lambda r: r.counters.pcie_itom_per_s / 1e6,
        },
        notes=["paper: RawWrite PCIeRdCur explodes past 40 clients and PCIeItoM"
               " grows with the static pool; ScaleRPC counters track its tput"],
    )


def fig11a(quick: bool = True) -> FigureResult:
    """Throughput vs time slice (80 clients, group 40)."""
    measure = 1 * MS if quick else 3 * MS
    return _sweep(
        "Figure 11(a)", "Sensitivity to the time slice (80 clients, group 40)",
        "slice (us)", (30, 50, 100, 150, 200, 250),
        {"scalerpc": lambda slice_us: _rpc(
            system="scalerpc", n_clients=80, batch_size=1, time_slice_ns=slice_us * US,
            warmup_ns=800 * US, measure_ns=measure)},
        notes=["paper: 7.6 -> 8.9 Mops from 30us to 250us; 100us is the"
               " throughput/latency sweet spot"],
    )


def fig11b(quick: bool = True) -> FigureResult:
    """Throughput vs group size (two groups of clients)."""
    measure = 1 * MS if quick else 3 * MS
    return _sweep(
        "Figure 11(b)", "Sensitivity to the group size (2 groups)",
        "group size", (10, 20, 30, 40, 50, 60, 70),
        {"scalerpc": lambda group: _rpc(
            system="scalerpc", n_clients=2 * group, group_size=group,
            batch_size=1, warmup_ns=800 * US, measure_ns=measure)},
        notes=["paper: rises to an optimum near 40, slight drop by 70 (NIC/CPU"
               " cache contention)"],
    )


def fig12(quick: bool = True) -> FigureResult:
    """Dynamic vs Static scheduling under Gaussian AFD."""
    measure = 2 * MS if quick else 5 * MS
    return _sweep(
        "Figure 12", "Priority scheduling under Gaussian access-frequency skew",
        "sigma", (0.8, 1.0),
        {
            label: lambda sigma, system=system: _rpc(
                system=system, n_clients=120, batch_size=4,
                think_time_fn=gaussian_afd_think_time(sigma, base_ns=20_000),
                warmup_ns=1500 * US, measure_ns=measure)
            for label, system in (("Dynamic", "scalerpc"), ("Static", "scalerpc-static"))
        },
        notes=["paper: Dynamic outperforms Static by 9% / 10% at sigma 0.8 / 1.0"],
    )


def fig13(quick: bool = True) -> FigureResult:
    """Octopus metadata ops: self-identified RPC vs ScaleRPC."""
    measure = 600 * US if quick else 1500 * US
    return _sweep(
        "Figure 13", "DFS metadata throughput: selfRPC vs ScaleRPC", "clients", (40, 80, 120),
        {
            system: lambda n, system=system: run_mdtest(MdtestConfig(
                rpc_system=system, n_clients=n, measure_ns=measure))
            for system in ("selfrpc", "scalerpc")
        },
        _mdtest_metrics("{op} ({{}})"),
        notes=["paper: ScaleRPC +5-6.5% on Mknod/Rmnod, +50%/+90% on"
               " Stat/ReadDir at 80/120 clients"],
    )


def _object_store(quick: bool, reads: int, writes: int) -> FigureResult:
    measure = 700 * US if quick else 2 * MS
    return _sweep(
        f"Figure 16(a) ({reads},{writes})",
        f"Object store transactions, read set {reads} / write set {writes}",
        "clients", (80, 160),
        {
            system: lambda n, system=system: run_object_store(ObjectStoreConfig(
                cluster=TxnClusterConfig(system=system, n_coordinators=n),
                reads=reads, writes=writes, warmup_ns=400 * US, measure_ns=measure))
            for system in TXN_SYSTEMS
        },
        {"{}": _mtps},
        unit="Mtxn/s",
        notes=[
            "paper (read-write, 160 clients): ScaleTX beats RawWrite/HERD/FaSST/"
            "ScaleTX-O by 131/60/51/10%",
            "paper (read-only): ScaleTX == ScaleTX-O",
        ],
    )


def fig16a(quick: bool = True) -> FigureResult:
    """Object store, read-write transactions (Figure 16(a.2)): 3 reads, 1 write."""
    return _object_store(quick, 3, 1)


def fig16a_ro(quick: bool = True) -> FigureResult:
    """Object store, read-only transactions (Figure 16(a.1)): 4 reads."""
    return _object_store(quick, 4, 0)


def fig16b(quick: bool = True) -> FigureResult:
    """SmallBank."""
    measure = 700 * US if quick else 2 * MS
    return _sweep(
        "Figure 16(b)", "SmallBank transactions", "clients", (80, 160),
        {
            system: lambda n, system=system: run_smallbank(SmallBankConfig(
                # Full scale: the crc32 split puts up to 200,314 items on a shard.
                cluster=TxnClusterConfig(system=system, n_coordinators=n,
                                         items_per_shard=1 << (16 if quick else 18)),
                accounts_per_server=10_000 if quick else 100_000,
                warmup_ns=400 * US, measure_ns=measure))
            for system in TXN_SYSTEMS
        },
        {"{}": _mtps},
        unit="Mtxn/s",
        notes=["paper: ScaleTX beats RawWrite/HERD/FaSST/ScaleTX-O by"
               " 18/112/120/30% at 80 and 160/73/79/26% at 160 clients"],
    )


# ---------------------------------------------------------------------------
# Section 5.1 discussion experiments
# ---------------------------------------------------------------------------

def disc_transfer(quick: bool = True) -> FigureResult:
    """Large-message strategies: RC write vs ordered / pipelined UD
    slicing (the paper's in-text prototype measurement)."""
    size = (8 << 20) if quick else (64 << 20)
    results = run_transfer_comparison(total_bytes=size)
    return _table(
        "Section 5.1 (UD large transfers)", f"Transferring {size >> 20} MB: RC vs UD slicing",
        {
            "RC single write": results["rc"],
            "UD ordered (stop-and-wait)": results["ud"],
            "UD pipelined (window 16)": results["ud_pipelined"],
        },
        {"GB/s": lambda r: r.gbytes_per_s, "messages": lambda r: r.messages},
        "GB/s / count",
        ["paper: ordered UD slicing reached 0.8 GB/s single-threaded,"
         " 12.5% of RC; pipelining recovers bandwidth at a software"
         " complexity cost"],
    )


def disc_dct(quick: bool = True) -> FigureResult:
    """DCT vs RC: scalable but packet-doubled and slower per message."""
    counts = (10, 120, 400) if quick else (10, 40, 120, 200, 400, 800)
    measure = 400 * US if quick else 1 * MS
    latency = compare_rc_dct_latency()
    return _sweep(
        "Section 5.1 (DCT)", "Outbound writes: DCT (shared context) vs RC", "clients", counts,
        {
            "DCT": lambda n: run_dct_outbound(RawVerbConfig(n_clients=n, measure_ns=measure)),
            "RC": lambda n: run_outbound_write(RawVerbConfig(n_clients=n, measure_ns=measure)),
        },
        notes=[
            f"single-message latency: RC {latency.rc_ns} ns vs DCT "
            f"{latency.dct_ns} ns (+{latency.dct_penalty_ns} ns when switching"
            " targets; paper: DCT adds up to ~3 us)",
            "paper: DCT stays flat (no per-connection NIC state) but the"
            " connect packet doubles small-message traffic",
        ],
    )


def disc_newer_hca(quick: bool = True) -> FigureResult:
    """Newer HCAs with larger caches (paper Section 5.1): ConnectX-4/5
    delay the collapse but, per eRPC's measurement the paper cites, still
    lose roughly half their throughput by ~5000 connections — NIC caches
    are memory-less, they cannot scale to unbounded connection counts."""
    from ..rdma import NicParams

    counts = (40, 400, 1000, 3000, 5000) if not quick else (40, 400, 2000, 5000)
    measure = 300 * US if quick else 1 * MS
    # A newer-generation HCA: much larger connection caches and faster
    # refetches — but still finite.  None is the paper's ConnectX-3
    # calibration (the defaults).
    cx5 = NicParams(conn_cache_entries=4096, wqe_cache_entries=2500,
                    conn_miss_penalty_ns=250, wqe_miss_penalty_ns=80)
    return _sweep(
        "Section 5.1 (newer HCAs)",
        "Outbound RC writes: larger NIC caches only delay the collapse", "clients", counts,
        {
            label: lambda n, nic=nic: run_outbound_write(RawVerbConfig(
                n_clients=n, measure_ns=measure, server_nic_params=nic))
            for label, nic in (("ConnectX-3 (model)", None),
                               ("ConnectX-5-like (8x caches)", cx5))
        },
        notes=["paper (citing eRPC): ConnectX-4/5 throughput still drops"
               " ~2x by 5000 connections"],
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def abl_mechanisms(quick: bool = True) -> FigureResult:
    """Ablate requests warmup and connection prefetch across time slices.

    Warmup hides the slice-start gap (activation + repost round trips), so
    its benefit concentrates at small slices where switches are frequent;
    connection prefetch removes the NIC-cache refetch stall at each
    group's first verbs.
    """
    measure = 1500 * US if quick else 3 * MS
    variants = {
        "full (warmup+prefetch)": {},
        "no warmup": {"warmup_enabled": False},
        "no prefetch": {"conn_prefetch_enabled": False},
        "neither": {"warmup_enabled": False, "conn_prefetch_enabled": False},
    }
    return _sweep(
        "Ablation", "ScaleRPC mechanism ablation (120 clients, batch 4)",
        "slice (us)", (30, 100, 250),
        {
            label: lambda slice_us, kwargs=kwargs: _rpc(
                system="scalerpc", n_clients=120, batch_size=4,
                time_slice_ns=slice_us * US, warmup_ns=600 * US, measure_ns=measure, **kwargs)
            for label, kwargs in variants.items()
        },
        notes=["warmup pipelines the next group's requests across the switch;"
               " disabling it reopens the slice-start gap (worst at small"
               " slices)"],
    )


def fig_overrun(quick: bool = True) -> FigureResult:
    """The fatal-overrun sweep (ROADMAP): clients that stop polling.

    Half the clients go dead at ``stop_at`` — they keep posting requests
    but never again consume a completion.  Client recv CQs are bounded and
    fatal (``IBV_EVENT_CQ_ERR`` on overrun), as on real HCAs configured
    without CQ resize.  The repro.obs epoch series turn the aftermath into
    a degradation curve: throughput falls to the surviving fraction, and
    the UD-based clients (HERD/FaSST) additionally overrun their recv CQs
    and error out their QPs.
    """
    n_clients = 40 if quick else 120
    measure = 300 * US if quick else 1 * MS
    warmup = 200 * US
    stop_at = warmup + 400 * US  # absolute simulation time of the failure
    series: dict[str, list] = {}
    notes = [f"clients stop polling at t={stop_at // US} us (half of them)"]
    times: list[int] = []
    for system in RPC_SYSTEMS:
        result = run_rpc_experiment(RpcExperiment(
            system=system, n_clients=n_clients, batch_size=1,
            warmup_ns=warmup, measure_ns=measure,
            obs_enabled=True,
            cq_overrun_fatal=True,
            stop_polling_after_ns=stop_at,
        ))
        points = next(
            s["points"] for s in result.obs["series"]
            if s["name"] == "rpc.completed_per_s"
        )
        times = [t for t, _v in points]
        series[system] = [v / 1e6 for _t, v in points]
        # Satellite of the obs work: truncated telemetry must be visible
        # in the summary, never silently partial.
        notes.append(f"{system}: obs_dropped={result.obs['meta']['dropped']}")
    shortest = min(len(values) for values in series.values())
    series = {label: values[:shortest] for label, values in series.items()}
    return FigureResult(
        figure="Fatal-overrun sweep",
        title="Throughput over time as half the clients stop polling",
        x_label="t (us)",
        x_values=[t // US for t in times[:shortest]],
        series=series,
        notes=notes,
    )


def fig_faults(quick: bool = True) -> FigureResult:
    """The fault plane (DESIGN.md section 10): crash, recover, reclaim.

    Part A — every system survives a single-client crash.  Client 0 is
    fail-stopped mid-run (its QPs error out, in-flight responses are
    lost) and restarted ``down`` later; the RPC timeout watchdog drives
    the bounded reconnect + repost path and the run must observe the
    client complete new requests after restart.  For ScaleRPC the lease
    is set shorter than the downtime, so the server *evicts* the dead
    client first — reclaiming its group slot and virtualized-pool region
    — and then readmits it on reconnect; group membership must come back
    consistent.  All of this is checked (by claims on the series, or by
    asserts on what is not in it), not just plotted.

    Part B — a crash storm against ScaleRPC: rate-driven crashes
    (exponential inter-arrival, drawn from the plan's own RNG substream)
    of randomly chosen victims, swept over the mean time between
    failures.
    """
    n_clients = 24 if quick else 80
    measure = 300 * US if quick else 1 * MS
    warmup = 200 * US
    crash_at = warmup + 100 * US
    down = 300 * US
    rpc_timeout = 50 * US
    lease = 100 * US  # < down: ScaleRPC evicts before the client returns
    metrics = ("tput_mops", "injected", "recovered", "mean_recovery_us",
               "reconnects")
    series: dict[str, list] = {}
    notes = [
        f"client 0 crashes at t={crash_at // US} us, restarts "
        f"{down // US} us later; rpc_timeout={rpc_timeout // US} us",
        f"scalerpc lease={lease // US} us < downtime: the dead client's"
        " slice slot and msgpool region are reclaimed, then re-granted"
        " on readmission",
    ]

    def row(result) -> list:
        faults = result.faults
        recovery = faults["recovery_ns"]
        mean_us = (sum(recovery) / len(recovery) / 1e3) if recovery else 0.0
        return [
            result.throughput_mops,
            faults["injected"],
            faults["recovered"],
            mean_us,
            faults["client_reconnects"],
        ]

    for system in RPC_SYSTEMS:
        result = run_rpc_experiment(RpcExperiment(
            system=system, n_clients=n_clients, batch_size=1,
            warmup_ns=warmup, measure_ns=measure,
            fault_plan=FaultPlan.single_crash(crash_at, down, target=0),
            rpc_timeout_ns=rpc_timeout, lease_ns=lease,
        ))
        faults = result.faults
        # Injection, recovery and reconnects are claims on the series;
        # the per-crash recovery times are not in it.
        assert all(lat < 2 * MS for lat in faults["recovery_ns"]), (
            f"{system}: unbounded recovery: {faults['recovery_ns']}"
        )
        if system == "scalerpc":
            health = faults["scalerpc"]
            assert health["lease_evictions"] >= 1, (
                "the lease reaper never reclaimed the dead client's slot"
            )
            assert health["readmissions"] >= 1, (
                "the evicted client was never readmitted on reconnect"
            )
            assert health["slots_consistent"], (
                f"group slots inconsistent after evict/readmit: {health}"
            )
            assert health["clients_registered"] == n_clients, health
            notes.append(
                f"scalerpc: evictions={health['lease_evictions']},"
                f" readmissions={health['readmissions']},"
                f" group_sizes={health['group_sizes']}"
            )
        series[system] = row(result)

    mtbfs_us = (300, 600) if quick else (200, 400, 800)
    for mtbf_us in mtbfs_us:
        result = run_rpc_experiment(RpcExperiment(
            system="scalerpc", n_clients=n_clients, batch_size=1,
            warmup_ns=warmup, measure_ns=measure,
            fault_plan=FaultPlan.crash_storm(
                mtbf_ns=mtbf_us * US, down_ns=100 * US, count=3),
            rpc_timeout_ns=rpc_timeout,
        ))
        series[f"scalerpc storm (mtbf {mtbf_us} us)"] = row(result)

    return FigureResult(
        figure="Fault injection",
        title="Crash / recover / reclaim across the RPC systems",
        x_label="metric",
        x_values=metrics,
        series=series,
        unit="Mops / count / us",
        notes=notes,
    )


def fig_real(quick: bool = True, backend: str = "proc") -> FigureResult:
    """Sim vs reality: the same echo workload on both backends.

    The backend seam's acceptance test (DESIGN.md section 11): an
    identical small closed-loop batched echo workload runs once on the
    simulated fabric and once as real OS processes over asyncio loopback
    sockets, through the same registry and the same call surface.  The
    comparison is of *shape*, never absolute numbers — the simulator
    models a 56 Gbps RDMA fabric, the real run is python frames over
    kernel TCP, so the sim is orders of magnitude faster; what must
    match is accounting: every issued op completes on both backends, and
    both emit the same obs lifecycle stages.  The completed-op and span
    checks are asserted, not just plotted.
    """
    from ..net import ProcWorkload, run_proc_workload
    from ..transport import BACKENDS
    from .harness import obs_export_dir

    if backend != "proc":
        raise ValueError(
            f"fig_real compares sim against a real backend; got {backend!r}"
            f" (available backends: {', '.join(BACKENDS)})"
        )
    counts = (2, 4) if quick else (2, 4, 8)
    ops = 40 if quick else 200
    batch = 4
    sim_kops, real_kops = [], []
    notes = [
        "shape, not speed: the simulator models RDMA hardware, the real"
        " backend is python-over-TCP — compare trends across client"
        " counts, not magnitudes",
    ]
    for n in counts:
        sim = run_rpc_experiment(RpcExperiment(
            system="scalerpc", n_clients=n, n_client_machines=1,
            batch_size=batch, warmup_ns=100 * US, measure_ns=400 * US))
        sim_kops.append(sim.throughput_mops * 1e3)
        # ``--obs DIR`` flows through to the process runner: each worker
        # process writes its own JSONL shard, one subdirectory per client
        # count so every sweep point stays independently mergeable with
        # ``python -m repro.obs merge DIR/real_<n>c``.
        export = obs_export_dir()
        real = run_proc_workload(ProcWorkload(
            transport="scalerpc", n_clients=n, ops_per_client=ops,
            batch_size=batch, timeout_s=120.0,
            obs_export_dir=(
                None if export is None
                else os.path.join(export, f"real_{n}c")
            )))
        assert real.completed_ops == n * ops, (
            f"real backend lost ops: {real.completed_ops}/{n * ops}"
        )
        assert real.obs_spans > 0 and real.obs_rpcs > 0, (
            "real backend produced no obs lifecycle telemetry"
        )
        real_kops.append(real.throughput_mops * 1e3)
        notes.append(
            f"{n} clients: real completed {real.completed_ops}/{n * ops} ops"
            f" in {real.wall_ns / 1e6:.1f} ms across {n} processes"
            f" ({real.obs_spans} spans, {real.obs_rpcs} rpc timelines,"
            f" reconnects={real.reconnects})"
        )
    return FigureResult(
        figure="Sim vs real backend",
        title="Same echo workload: simulated fabric vs real asyncio processes",
        x_label="clients",
        x_values=counts,
        series={"sim (Kops/s)": sim_kops, "real proc (Kops/s)": real_kops},
        unit="Kops/s",
        notes=notes,
    )


def fig_failover(quick: bool = True, backend: str = "sim") -> FigureResult:
    """Replicated failover (DESIGN.md section 15): bounded recovery.

    The primary of a replicated group is fail-stopped mid-workload;
    heartbeat-driven membership installs a new view, the backup is
    promoted (with its replay digest asserted), and every client
    re-homes — by push (view notice) or pull (watchdog escalation) —
    reposting in-flight requests that the replica log deduplicates.
    Everything the section-15 story promises is checked, not plotted
    (by claims on the series, or by asserts on what is not in it):

    - **availability**: the unavailability window (gap between the last
      pre-fault and first post-fault completion) is bounded, and
      post-recovery goodput is at least 90% of pre-fault;
    - **exactly-once**: zero duplicate executions (per-identity commit
      counts) and zero lost ops (every issued request completes);
    - **convergence**: exactly one view change lands, and surviving
      replicas' state-machine digests agree;
    - **determinism** (sim): same seed → byte-identical summaries, with
      telemetry on or off.

    ``backend="proc"`` runs the real-socket analogue: the victim's
    listener actually closes, so recovery rides EOF → bounded reconnect
    → failover retarget on real connections (wall-clock bounds are
    correspondingly looser).
    """
    import json
    from dataclasses import replace

    metrics = ("completed", "total", "unavailable_us", "goodput_ratio",
               "view_epoch", "duplicates", "failovers")

    def row(result: dict) -> list:
        failovers = sum(
            pc["failovers"] for pc in result["per_client"].values()
        )
        return [
            result["completed"], result["total_ops"],
            result["unavailable_ns"] / 1e3,
            round(result["goodput_ratio"], 4),
            result["view"]["epoch"], result["duplicate_executions"],
            failovers,
        ]

    # Lost ops, duplicates and the view epoch are claims on the series
    # (the same rows on either backend); the rest is checked here, where
    # the bounds can differ by backend.
    def check(result: dict, what: str, unavailable_bound_ns: int) -> None:
        assert result["replica_digests_agree"], (
            f"{what}: surviving replicas diverged: {result['group']}"
        )
        assert result["view"]["changes"] == 1, (
            f"{what}: expected exactly one view change: {result['view']}"
        )
        assert result["group"]["promotions"] == 1, (
            f"{what}: expected exactly one promotion: {result['group']}"
        )
        assert 0 < result["unavailable_ns"] < unavailable_bound_ns, (
            f"{what}: recovery not bounded: unavailable for "
            f"{result['unavailable_ns']} ns (bound {unavailable_bound_ns})"
        )

    if backend == "proc":
        from ..replica.procrunner import ReplicaProcConfig, run_replica_proc

        config = ReplicaProcConfig(
            ops_per_client=20 if quick else 40,
            fail_primary_at_ns=100_000_000 if quick else 200_000_000,
        )
        result = run_replica_proc(config)
        # Real sockets, real clocks: the bound covers detection plus two
        # reconnect-backoff cycles with generous CI headroom.
        check(result, "proc", unavailable_bound_ns=10_000_000_000)
        return FigureResult(
            figure="Failover (proc backend)",
            title="Primary fail-stop on real sockets: bounded recovery",
            x_label="metric",
            x_values=metrics,
            series={"proc failover": row(result)},
            unit="count / us / ratio",
            notes=[
                f"unavailable {result['unavailable_ns'] / 1e6:.0f} ms on"
                " loopback TCP (detection + reconnect backoff)",
                f"group: {result['group']}",
            ],
        )

    from ..replica.simrunner import ReplicaSimConfig, run_replica_sim

    config = ReplicaSimConfig() if quick else ReplicaSimConfig(
        n_clients=4, ops_per_client=120, horizon_ns=4_000_000
    )
    baseline = run_replica_sim(replace(config, fail_primary_at_ns=None))
    assert baseline["view"]["changes"] == 0, (
        f"healthy baseline changed views: {baseline['view']}"
    )
    result = run_replica_sim(config)
    check(result, "sim", unavailable_bound_ns=800_000)
    assert result["goodput_ratio"] >= 0.9, (
        f"post-recovery goodput below 90% of pre-fault:"
        f" {result['goodput_ratio']:.3f}"
    )
    # Determinism: same seed → byte-identical summary, obs on or off.
    again = run_replica_sim(config)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        result, sort_keys=True
    ), "same-seed replicated runs diverged"
    with_obs = run_replica_sim(replace(config, obs_enabled=True))
    assert json.dumps(with_obs, sort_keys=True) == json.dumps(
        result, sort_keys=True
    ), "telemetry perturbed the replicated run"
    return FigureResult(
        figure="Failover (sim backend)",
        title="Primary fail-stop mid-workload: bounded recovery",
        x_label="metric",
        x_values=metrics,
        series={
            "healthy baseline": row(baseline),
            "primary fail-stop": row(result),
        },
        unit="count / us / ratio",
        notes=[
            f"fault at t={config.fail_primary_at_ns // US} us;"
            f" unavailable {result['unavailable_ns'] / 1e3:.0f} us;"
            f" goodput ratio {result['goodput_ratio']:.3f}",
            f"group: {result['group']}",
            "determinism asserted: same-seed and obs-on/off summaries"
            " byte-identical",
        ],
    )


ALL_FIGURES = {fn.__name__: fn for fn in (
    fig1a, fig1b, fig3a, fig3b, fig8_clients, fig8_machines, fig9, fig9_cdf, fig10,
    fig11a, fig11b, fig12, fig13, fig16a, fig16a_ro, fig16b,
    disc_transfer, disc_dct, disc_newer_hca, abl_mechanisms,
    fig_overrun, fig_faults, fig_real, fig_failover,
)}

#: Figures that take a ``backend`` argument (``--backend`` on the CLI).
#: Everything else models RDMA hardware and only runs on the simulator.
BACKEND_FIGURES = frozenset({"fig_real", "fig_failover"})


def run_figure(name: str, quick: bool = True, backend: str = "sim") -> FigureResult:
    """Run one figure by name (see ``ALL_FIGURES``).

    ``backend`` other than ``"sim"`` only applies to figures in
    :data:`BACKEND_FIGURES`; the rest are simulator measurements of
    modeled RDMA hardware and have no real-backend counterpart.
    """
    try:
        fn = ALL_FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; pick from {sorted(ALL_FIGURES)}"
        ) from None
    if backend != "sim":
        if name not in BACKEND_FIGURES:
            raise ValueError(
                f"figure {name!r} only runs on the sim backend; "
                f"--backend {backend} applies to: {', '.join(sorted(BACKEND_FIGURES))}"
            )
        return fn(quick=quick, backend=backend)
    return fn(quick=quick)
