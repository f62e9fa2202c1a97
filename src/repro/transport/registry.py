"""The transport registry: every RPC stack, constructible by name.

This module is the **single** place in the repository that maps a
transport name to an implementation.  Anything that needs "an RPC server
of kind X" — the benchmark harness, the DFS, the transaction cluster, the
examples — asks the registry::

    from repro import transport

    spec = transport.get("scalerpc")
    server = spec.build_server(node, handler, group_size=40)
    client = server.connect(machine)

The table is fixed: ScaleRPC and its static variant, the paper's three
baselines (Tables 1-2) and the DFS' native RPC.  A :class:`TransportSpec` names the server class and the
native config schema it speaks (``ScaleRpcConfig`` or ``BaselineConfig``)
as ``"module:Class"`` strings, imported on first use so that the table
does not drag ``repro.dfs`` into every import, plus per-name config
overrides (e.g. the static-scheduling variant) and the benchmark
comparisons the stack takes part in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import import_module
from typing import Any, Callable, Optional

__all__ = [
    "BACKENDS",
    "TransportSpec",
    "TransportError",
    "get",
    "names",
    "bench_systems",
    "dfs_systems",
]


class TransportError(KeyError):
    """Raised for lookups of unknown transport or backend names."""


#: The execution backends every transport can be built on.  ``"sim"`` is
#: the simulated RDMA fabric (the default, and the only deterministic
#: one); ``"proc"`` runs the same call surface as real OS processes over
#: asyncio stream sockets (:mod:`repro.net`).
BACKENDS = ("sim", "proc")

#: The real-process service every transport runs as on ``backend="proc"``
#: (resolved lazily so sim-only runs do not import asyncio machinery).
_PROC_SERVER = "repro.net.procserver:ProcRpcServer"


def _resolve(ref: Any) -> type:
    if isinstance(ref, str):
        module_name, _, attr = ref.partition(":")
        ref = getattr(import_module(module_name), attr)
    return ref


@dataclass(frozen=True)
class TransportSpec:
    """One transport: name, implementation, config schema."""

    name: str
    #: ``"module.path:ClassName"``, replaced by the class on first use.
    server: Any
    #: ``"module.path:ConfigClass"``, replaced by the dataclass on first
    #: use; built from generic knobs by :meth:`make_config`.
    config: Any
    #: Config fields this transport pins (e.g. static scheduling).
    config_overrides: dict[str, Any] = field(default_factory=dict)
    #: Compared in the paper's headline RPC figures (8-12).
    in_rpc_bench: bool = False
    #: Compared in the mdtest DFS benchmark (Figure 13).
    in_dfs_bench: bool = False

    @property
    def server_cls(self) -> type:
        """The server class, imported on first use."""
        cls = _resolve(self.server)
        object.__setattr__(self, "server", cls)
        return cls

    @property
    def config_cls(self) -> type:
        """The native config dataclass, imported on first use."""
        cls = _resolve(self.config)
        object.__setattr__(self, "config", cls)
        return cls

    def make_config(self, **knobs: Any):
        """Build this transport's native config from generic knobs.

        A knob that some transport's config defines but this one's does
        not is dropped (so callers can pass ``group_size`` without caring
        whether the transport is in the ScaleRPC family); a knob that no
        config defines is a misspelling and raises :class:`TypeError`.
        Spec-level overrides win over knobs because they define the
        variant (e.g. ``scalerpc-static``).
        """
        cls = self.config_cls
        known = {f.name for f in fields(cls)}
        unknown = knobs.keys() - known
        if unknown:
            unknown -= _knob_names()  # another family's knobs are dropped
        if unknown:
            raise TypeError(f"no transport config has knob(s) {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in knobs.items() if k in known and v is not None}
        kwargs.update(self.config_overrides)
        return cls(**kwargs)

    def build_server(
        self,
        node,
        handler: Callable,
        *,
        backend: str = "sim",
        config=None,
        handler_cost_fn: Optional[Callable] = None,
        response_bytes: Any = 32,
        **knobs: Any,
    ):
        """Instantiate the server on ``node``.

        Either pass a ready ``config`` (of :attr:`config_cls`) or generic
        knobs that :meth:`make_config` maps onto it.  ``backend`` selects
        the execution model: ``"sim"`` (default) takes a simulated
        :class:`~repro.rdma.node.Node` and returns the sim server;
        ``"proc"`` takes a :class:`~repro.transport.topology.Endpoint`
        (host/port) and returns the asyncio service of :mod:`repro.net`.
        """
        if backend not in BACKENDS:
            raise TransportError(
                f"unknown backend {backend!r} for transport {self.name!r}; "
                f"available backends: {', '.join(BACKENDS)}"
            )
        if config is None:
            config = self.make_config(**knobs)
        elif knobs:
            raise TypeError("pass either config= or knobs, not both")
        if backend == "proc":
            return _resolve(_PROC_SERVER)(
                node,
                handler,
                config=config,
                handler_cost_fn=handler_cost_fn,
                response_bytes=response_bytes,
                transport=self.name,
            )
        return self.server_cls(
            node,
            handler,
            config=config,
            handler_cost_fn=handler_cost_fn,
            response_bytes=response_bytes,
        )


_SCALERPC = ("repro.core.server:ScaleRpcServer", "repro.core.config:ScaleRpcConfig")
_BASELINE_CONFIG = "repro.baselines.common:BaselineConfig"

_REGISTRY: dict[str, TransportSpec] = {spec.name: spec for spec in (
    # The paper's design: RC writes, connection grouping + virtualized
    # mapping, dynamic priority scheduling.
    TransportSpec("scalerpc", *_SCALERPC, {"dynamic_scheduling": True},
                  in_rpc_bench=True, in_dfs_bench=True),
    # Static round-robin scheduling: Figure 12's "Static", ScaleTX's RPC.
    TransportSpec("scalerpc-static", *_SCALERPC, {"dynamic_scheduling": False},
                  in_rpc_bench=True),
    # FaRM-style: RC write requests and responses, static message regions.
    TransportSpec("rawwrite", "repro.baselines.rawwrite:RawWriteServer",
                  _BASELINE_CONFIG, in_rpc_bench=True, in_dfs_bench=True),
    # UC write requests, UD send responses.
    TransportSpec("herd", "repro.baselines.herd:HerdServer", _BASELINE_CONFIG,
                  in_rpc_bench=True),
    # Symmetric UD sends both ways.
    TransportSpec("fasst", "repro.baselines.fasst:FasstServer", _BASELINE_CONFIG,
                  in_rpc_bench=True),
    # Octopus' self-identified RPC: RC write_imm requests, RC write responses.
    TransportSpec("selfrpc", "repro.dfs.selfrpc:SelfRpcServer", _BASELINE_CONFIG,
                  in_dfs_bench=True),
)}


def _knob_names() -> set[str]:
    """Every field some transport's config defines."""
    return {f.name for spec in _REGISTRY.values() for f in fields(spec.config_cls)}


def get(name: str) -> TransportSpec:
    """Look up a transport by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise TransportError(
            f"unknown transport {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return spec


def names() -> tuple[str, ...]:
    """All transport names, in table order."""
    return tuple(_REGISTRY)


def bench_systems() -> tuple[str, ...]:
    """Names compared in the RPC micro-benchmarks (paper Figures 8-12)."""
    return tuple(s.name for s in _REGISTRY.values() if s.in_rpc_bench)


def dfs_systems() -> tuple[str, ...]:
    """Names compared in the mdtest DFS benchmark (Figure 13)."""
    return tuple(s.name for s in _REGISTRY.values() if s.in_dfs_bench)
