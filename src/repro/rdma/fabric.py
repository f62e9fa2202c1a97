"""The switched fabric connecting nodes.

Models the paper's Mellanox SX-1012 (56 Gbps FDR InfiniBand) as a
non-blocking switch: every transfer costs a fixed one-way latency plus
payload serialization at link bandwidth.  Port contention is not modelled —
the scalability effects under study live in the end hosts, and the paper's
switch is non-blocking at the offered loads.

``WireParams.loss_rate`` injects packet loss for *unreliable* transports
(UC/UD) — RC retransmits in hardware and never loses data, which is the
reliability half of the paper's Table 1 and a reason ScaleRPC insists on
RC for file-system payloads.  ``WireParams.rc_loss_rate`` (normally 0,
raised by the fault plane's ``link_degrade``) additionally drops RC
packets; those losses are *not* silent — the verb layer retransmits them
after ``QueuePair.timeout_ns`` up to ``retry_cnt`` times, then errors the
QP, exactly the DESIGN section 10 recovery contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.engine import Simulator
from ..sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["WireParams", "Fabric"]


@dataclass
class WireParams:
    """Link timing: 56 Gbps FDR is ~7 bytes/ns on the wire."""

    latency_ns: int = 900
    bandwidth_bytes_per_ns: float = 7.0
    #: Probability that a packet on an *unreliable* transport is lost.
    loss_rate: float = 0.0
    #: Probability that a *reliable* (RC) packet is lost on the wire and
    #: must be retransmitted by the sender.  0 on a healthy fabric; the
    #: fault plane raises it during ``link_degrade`` windows.
    rc_loss_rate: float = 0.0

    def __post_init__(self):
        if self.latency_ns < 0:
            raise ValueError("latency_ns must be non-negative")
        if self.bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.rc_loss_rate < 1.0:
            raise ValueError("rc_loss_rate must be in [0, 1)")


class Fabric:
    """A non-blocking switch joining all attached nodes."""

    def __init__(self, sim: Simulator, params: WireParams | None = None,
                 seed: int = 0):
        self.sim = sim
        self.params = params or WireParams()
        self.nodes: list["Node"] = []
        rng = RngRegistry(seed)
        self._loss_rng = rng.stream("fabric.loss")
        self._rc_loss_rng = rng.stream("fabric.rc_loss")
        #: Packets dropped on unreliable transports.
        self.packets_lost = 0
        #: RC packets dropped (each one triggers a sender retransmit).
        self.rc_packets_lost = 0
        #: Optional :class:`repro.obs.Observer`.  ``None`` by default, and
        #: every hook site guards on ``is not None`` — the same zero-cost
        #: discipline as ``Simulator.tiebreak``.  Set via
        #: ``Observer.install(fabric)``, never assigned directly.
        self.obs = None

    def attach(self, node: "Node") -> None:
        """Connect ``node`` to the switch."""
        if node in self.nodes:
            raise ValueError(f"node {node.name} already attached")
        self.nodes.append(node)

    def drops_packet(self, reliable: bool) -> bool:
        """Loss decision for one packet.  Reliable transports only lose
        when the fault plane sets ``rc_loss_rate`` (and the verb layer
        then retransmits); with both rates at 0 no RNG is consumed, so a
        run without faults is byte-identical to one before the fault
        plane existed."""
        if reliable:
            if self.params.rc_loss_rate == 0.0:
                return False
            if self._rc_loss_rng.random() < self.params.rc_loss_rate:
                self.rc_packets_lost += 1
                return True
            return False
        if self.params.loss_rate == 0.0:
            return False
        if self._loss_rng.random() < self.params.loss_rate:
            self.packets_lost += 1
            return True
        return False

    def transfer_ns(self, size: int) -> int:
        """One-way transfer time for ``size`` payload bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self.params.latency_ns + int(size / self.params.bandwidth_bytes_per_ns)
