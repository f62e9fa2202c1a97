"""The paper's shape as data: who wins, by what factor, where cliffs fall.

Each row checks one figure's result, never an absolute number, and reads
simulated values only.  ``python -m repro.bench`` checks the rows of every
figure it runs and exits 1 if one is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .report import FigureResult

__all__ = ["CLAIMS", "Claim", "claims_for"]


@dataclass(frozen=True)
class Claim:
    figure: str  # a key of ALL_FIGURES
    text: str
    holds: Callable[[FigureResult], bool]

    def check(self, result: FigureResult) -> bool:
        """Whether the row holds; one that cannot be evaluated is broken."""
        try:
            return bool(self.holds(result))
        except (ArithmeticError, LookupError, ValueError):
            return False


def claims_for(figure: str) -> list[Claim]:
    return [claim for claim in CLAIMS if claim.figure == figure]


def _flat(values) -> float:
    return min(values) / max(values)


def _saturates_at(values) -> int:
    """The first machine count (1-based) that reaches 90 % of the peak."""
    return next(i + 1 for i, v in enumerate(values) if v >= 0.9 * max(values))


def _per_op(r: FigureResult, system: str, counter: str) -> list[float]:
    return [c / t for c, t in zip(r[f"{system} {counter} (M/s)"], r[f"{system} tput"])]


def _lat(r: FigureResult, system: str, batch: int, metric: str) -> float:
    return r.value(f"{system} (batch {batch})", metric)


def _dfs_gain(r: FigureResult, op: str, clients: int) -> float:
    return r.value(f"{op} (scalerpc)", clients) / r.value(f"{op} (selfrpc)", clients)


_CX3, _CX5 = "ConnectX-3 (model)", "ConnectX-5-like (8x caches)"
_FULL = "full (warmup+prefetch)"

CLAIMS: list[Claim] = [
    # Figure 1: RDMA fails to scale on RC.
    Claim("fig1a", "Stat loses > 30 % from 40 to 120 clients (paper: ~50 %)",
          lambda r: r.value("Stat", 120) < 0.7 * r.value("Stat", 40)),
    Claim("fig1a", "Mknod stays roughly flat, software-bound (paper: -5 %)",
          lambda r: r.value("Mknod", 120) > 0.75 * r.value("Mknod", 40)),
    Claim("fig1b", "outbound RC write collapses > 5x (paper: 20 -> 2 Mops)",
          lambda r: r["outbound RC write"][0] > 5 * r["outbound RC write"][-1]),
    Claim("fig1b", "inbound RC write stays > 60 % of its peak past the first count",
          lambda r: min(r["inbound RC write"][1:]) > 0.6 * max(r["inbound RC write"])),
    Claim("fig1b", "UD send stays flat (> 80 % of its peak)",
          lambda r: _flat(r["UD send"]) > 0.8),
    # Figure 3: the NIC cache and the LLC (DDIO) are where contention lives.
    Claim("fig3a", "at the peak, outbound PCIe reads track throughput 1:1 (within 20 %)",
          lambda r: abs(r["outbound PCIeRdCur (M/s)"][0] / r["outbound tput"][0] - 1) < 0.2),
    Claim("fig3a", "past the cliff, outbound PCIe reads exceed 2x throughput",
          lambda r: r["outbound PCIeRdCur (M/s)"][-1] > 2 * r["outbound tput"][-1]),
    Claim("fig3a", "inbound PCIe reads stay < 20 % of the outbound peak",
          lambda r: max(r["inbound PCIeRdCur (M/s)"]) < 0.2 * max(r["outbound PCIeRdCur (M/s)"])),
    Claim("fig3b", "the cliff lands at 2 KB blocks: 1 KB > 3x 2 KB throughput",
          lambda r: r.value("throughput", 1024) > 3 * r.value("throughput", 2048)),
    Claim("fig3b", "past the cliff throughput is < 10 Mops (paper: ~35 -> < 10)",
          lambda r: r.value("throughput", 2048) < 10),
    Claim("fig3b", "L3 misses low before the cliff (< 20 % at 1 KB)",
          lambda r: r.value("L3 miss rate", 1024) < 0.2),
    Claim("fig3b", "L3 misses high past the cliff (> 80 % at 2 KB)",
          lambda r: r.value("L3 miss rate", 2048) > 0.8),
    # Figure 8: ScaleRPC ~ FaSST stay flat, RawWrite collapses (batch 1).
    Claim("fig8_clients", "RawWrite collapses > 5x over the sweep",
          lambda r: r["rawwrite (batch 1)"][0] > 5 * r["rawwrite (batch 1)"][-1]),
    Claim("fig8_clients", "ScaleRPC stays within half of its best",
          lambda r: _flat(r["scalerpc (batch 1)"]) > 0.5),
    Claim("fig8_clients", "ScaleRPC is flat (> 70 %) past the first grouping step",
          lambda r: _flat(r["scalerpc (batch 1)"][1:]) > 0.7),
    Claim("fig8_clients", "FaSST is flat (> 80 %) past the first count",
          lambda r: _flat(r["fasst (batch 1)"][1:]) > 0.8),
    Claim("fig8_clients", "ScaleRPC is competitive with FaSST at the most clients (> 60 %)",
          lambda r: r["scalerpc (batch 1)"][-1] > 0.6 * r["fasst (batch 1)"][-1]),
    Claim("fig8_clients", "ScaleRPC beats RawWrite > 4x at the most clients",
          lambda r: r["scalerpc (batch 1)"][-1] > 4 * r["rawwrite (batch 1)"][-1]),
    Claim("fig8_clients", "HERD ends below 60 % of its peak",
          lambda r: r["herd (batch 1)"][-1] < 0.6 * max(r["herd (batch 1)"])),
    *(Claim("fig8_machines", f"{system} saturates with <= 3 client machines (RC)",
            lambda r, system=system: _saturates_at(r[system]) <= 3)
      for system in ("scalerpc", "rawwrite")),
    *(Claim("fig8_machines", f"{system} needs >= 4 client machines (UD, client-CPU bound)",
            lambda r, system=system: _saturates_at(r[system]) >= 4)
      for system in ("herd", "fasst")),
    Claim("fig8_machines", "FaSST on 4 machines > 2x FaSST on 1",
          lambda r: r.value("fasst", 4) > 2 * r.value("fasst", 1)),
    # Figure 9: ScaleRPC has the lowest median and a slice-bound tail.
    *(Claim("fig9", f"batch 1: ScaleRPC's median < {other}'s (paper: 4 vs 19/10/11 us)",
            lambda r, other=other: _lat(r, "scalerpc", 1, "median_us")
            < _lat(r, other, 1, "median_us"))
      for other in ("rawwrite", "herd", "fasst")),
    Claim("fig9", "ScaleRPC is bimodal: batch-1 mean > 2x median",
          lambda r: _lat(r, "scalerpc", 1, "mean_us") > 2 * _lat(r, "scalerpc", 1, "median_us")),
    Claim("fig9", "ScaleRPC's batch-1 max is slice-bound (> 100 us)",
          lambda r: _lat(r, "scalerpc", 1, "max_us") > 100),
    Claim("fig9", "batch 8: FaSST's max > 1.5x its median (UD tail)",
          lambda r: _lat(r, "fasst", 8, "max_us") > 1.5 * _lat(r, "fasst", 8, "median_us")),
    Claim("fig9", "batch 8: ScaleRPC out-runs RawWrite",
          lambda r: _lat(r, "scalerpc", 8, "tput_mops") > _lat(r, "rawwrite", 8, "tput_mops")),
    Claim("fig9_cdf", "ScaleRPC's low plateau: p75 < 3x p5",
          lambda r: r.value("scalerpc", 75) < 3 * r.value("scalerpc", 5)),
    Claim("fig9_cdf", "ScaleRPC's slice-bound jump: p99 > 8x p75",
          lambda r: r.value("scalerpc", 99) > 8 * r.value("scalerpc", 75)),
    Claim("fig9_cdf", "RawWrite has no such jump: p99 < 3x p50",
          lambda r: r.value("rawwrite", 99) < 3 * r.value("rawwrite", 50)),
    # Figure 10: the hardware counters behind Figure 8.
    Claim("fig10", "RawWrite's PCIeRdCur per op more than doubles over the sweep",
          lambda r: _per_op(r, "rawwrite", "PCIeRdCur")[-1]
          > 2 * _per_op(r, "rawwrite", "PCIeRdCur")[0]),
    Claim("fig10", "ScaleRPC's PCIeRdCur per op stays within 2x",
          lambda r: _flat(_per_op(r, "scalerpc", "PCIeRdCur")) > 0.5),
    Claim("fig10", "at the most clients RawWrite's PCIeItoM per op > 5x ScaleRPC's",
          lambda r: _per_op(r, "rawwrite", "PCIeItoM")[-1]
          > 5 * max(_per_op(r, "scalerpc", "PCIeItoM")[-1], 0.01)),
    Claim("fig10", "ScaleRPC's PCIeItoM stays < 25 % of its throughput",
          lambda r: max(r["scalerpc PCIeItoM (M/s)"]) < 0.25 * max(r["scalerpc tput"])),
    Claim("fig10", "RawWrite's PCIeItoM more than doubles over the sweep",
          lambda r: r["rawwrite PCIeItoM (M/s)"][-1]
          > 2 * max(r["rawwrite PCIeItoM (M/s)"][0], 0.05)),
    # Figure 11: sensitivity to the slice and the group size.
    Claim("fig11a", "larger slices amortize switching: 250 us > 30 us",
          lambda r: r.value("scalerpc", 250) > r.value("scalerpc", 30)),
    Claim("fig11a", "the 100 us slice keeps > 95 % of the 30 us throughput",
          lambda r: r.value("scalerpc", 100) > 0.95 * r.value("scalerpc", 30)),
    Claim("fig11b", "groups of 10 cannot saturate the NIC: 10 < 40",
          lambda r: r.value("scalerpc", 10) < r.value("scalerpc", 40)),
    Claim("fig11b", "groups of 70 fall below the best (NIC cache contention)",
          lambda r: r.value("scalerpc", 70) < max(r["scalerpc"])),
    Claim("fig11b", "the best group size is between 20 and 60 (paper: 40)",
          lambda r: 20 <= max(r.x_values, key=lambda g: r.value("scalerpc", g)) <= 60),
    # Figure 12: priority scheduling.
    Claim("fig12", "Dynamic beats Static by > 3 % at every sigma (paper: 9-10 %)",
          lambda r: all(d > 1.03 * s for d, s in zip(r["Dynamic"], r["Static"]))),
    # Figure 13: the DFS.
    Claim("fig13", "120 clients: ScaleRPC gains > 30 % on Stat (paper: +90 %)",
          lambda r: _dfs_gain(r, "Stat", 120) > 1.3),
    Claim("fig13", "120 clients: ScaleRPC gains > 20 % on ReadDir (paper: +50 %)",
          lambda r: _dfs_gain(r, "ReadDir", 120) > 1.2),
    Claim("fig13", "120 clients: Mknod near parity (0.85-1.6x; paper: +5 %)",
          lambda r: 0.85 < _dfs_gain(r, "Mknod", 120) < 1.6),
    Claim("fig13", "120 clients: Rmnod near parity (0.8-1.6x; paper: +6.5 %)",
          lambda r: 0.8 < _dfs_gain(r, "Rmnod", 120) < 1.6),
    Claim("fig13", "40 clients (one group): Stat comparable (0.7-1.4x)",
          lambda r: 0.7 < _dfs_gain(r, "Stat", 40) < 1.4),
    # Figure 16: ScaleTX.
    Claim("fig16a", "read-write, 160 clients: ScaleTX is the best system",
          lambda r: max(r.series, key=lambda s: r.value(s, 160)) == "scaletx"),
    Claim("fig16a", "read-write, 160 clients: ScaleTX > 1.5x RawWrite (paper: +131 %)",
          lambda r: r.value("scaletx", 160) > 1.5 * r.value("rawwrite", 160)),
    Claim("fig16a", "read-write, 160 clients: ScaleTX > 1.05x ScaleTX-O (paper: +10 %)",
          lambda r: r.value("scaletx", 160) > 1.05 * r.value("scaletx-o", 160)),
    Claim("fig16a", "RawWrite loses > 30 % from 80 to 160 clients (paper: -56 %)",
          lambda r: r.value("rawwrite", 160) < 0.7 * r.value("rawwrite", 80)),
    Claim("fig16a_ro", "read-only: ScaleTX == ScaleTX-O within 25 % at every count",
          lambda r: all(abs(a - b) <= 0.25 * b for a, b in zip(r["scaletx"], r["scaletx-o"]))),
    Claim("fig16b", "160 clients: ScaleTX is the best system",
          lambda r: max(r.series, key=lambda s: r.value(s, 160)) == "scaletx"),
    Claim("fig16b", "160 clients: ScaleTX > 1.8x RawWrite (paper: +160 %)",
          lambda r: r.value("scaletx", 160) > 1.8 * r.value("rawwrite", 160)),
    Claim("fig16b", "160 clients: ScaleTX > 1.15x ScaleTX-O (paper: +26 %)",
          lambda r: r.value("scaletx", 160) > 1.15 * r.value("scaletx-o", 160)),
    Claim("fig16b", "80 clients: ScaleTX > 1.1x FaSST (paper: +120 %)",
          lambda r: r.value("scaletx", 80) > 1.1 * r.value("fasst", 80)),
    Claim("fig16b", "80 clients: ScaleTX > 1.1x ScaleTX-O (paper: +30 %)",
          lambda r: r.value("scaletx", 80) > 1.1 * r.value("scaletx-o", 80)),
    # Section 5.1 discussion.
    Claim("disc_transfer", "ordered UD slicing reaches < 25 % of RC (paper: 12.5 %)",
          lambda r: r["UD ordered (stop-and-wait)"][0] < 0.25 * r["RC single write"][0]),
    Claim("disc_transfer", "pipelined UD slicing recovers > 80 % of RC",
          lambda r: r["UD pipelined (window 16)"][0] > 0.8 * r["RC single write"][0]),
    Claim("disc_dct", "DCT beats thrashed RC at the most clients",
          lambda r: r["DCT"][-1] > r["RC"][-1]),
    Claim("disc_dct", "DCT stays < 50 % of the RC peak (a connect packet per message)",
          lambda r: max(r["DCT"]) < 0.5 * max(r["RC"])),
    Claim("disc_newer_hca", "400 clients: the CX5-like NIC holds > 90 % of its peak",
          lambda r: r.value(_CX5, 400) > 0.9 * max(r[_CX5])),
    Claim("disc_newer_hca", "400 clients: the CX3 model has lost over half its peak",
          lambda r: r.value(_CX3, 400) < 0.5 * max(r[_CX3])),
    Claim("disc_newer_hca", "the CX5-like NIC still drops > 2x by 5000 clients (paper: ~2x)",
          lambda r: r.value(_CX5, 5000) < 0.5 * max(r[_CX5])),
    # The mechanism ablation and the figures beyond the paper.
    Claim("abl_mechanisms", "switching costs: full design gains > 20 % from least to most slice",
          lambda r: r[_FULL][-1] > 1.2 * r[_FULL][0]),
    Claim("abl_mechanisms", "every variant stays within 0.8-1.25x of the full design",
          lambda r: all(0.8 < v / full < 1.25 for values in r.series.values()
                        for v, full in zip(values, r[_FULL]))),
    *(Claim("fig_overrun", f"{system} falls below 60 % of its peak in the 200 us after half"
            " the clients stop polling (at 600 us)",
            lambda r, system=system: min(
                v for t, v in zip(r.x_values, r[system]) if 600 < t <= 800
            ) < 0.6 * max(r[system]))
      for system in ("scalerpc", "rawwrite", "herd", "fasst")),
    Claim("fig_faults", "every crash plan injects a fault",
          lambda r: all(r.value(s, "injected") >= 1 for s in r.series)),
    Claim("fig_faults", "every crash plan sees a crashed client complete after its restart",
          lambda r: all(r.value(s, "recovered") >= 1 for s in r.series)),
    Claim("fig_faults", "every crash plan rebuilds connection state (reconnects >= 1)",
          lambda r: all(r.value(s, "reconnects") >= 1 for s in r.series)),
    Claim("fig_real", "the simulated echo scales with clients (sim column rises)",
          lambda r: r["sim (Kops/s)"][-1] > r["sim (Kops/s)"][0]),
    Claim("fig_failover", "no op is lost: completed == total in every run",
          lambda r: all(r.value(s, "completed") == r.value(s, "total") for s in r.series)),
    Claim("fig_failover", "exactly-once: zero duplicate executions in every run",
          lambda r: all(r.value(s, "duplicates") == 0 for s in r.series)),
    Claim("fig_failover", "the failed primary's run (the last) ends in view epoch 2",
          lambda r: r.value(list(r.series)[-1], "view_epoch") == 2),
]
