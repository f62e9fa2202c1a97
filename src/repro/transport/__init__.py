"""The transport layer: every RPC stack, constructible by name.

``repro.transport`` owns the only name -> implementation mapping in the
repository (:mod:`repro.transport.registry`) and the shared
:class:`~repro.transport.topology.Topology` builder consumed by the
benchmark harness, the DFS, the transaction cluster, and the examples::

    from repro import transport

    topo = transport.Topology.build(n_client_machines=2, seed=7)
    server = topo.build_server("scalerpc", handler, group_size=8)
    clients = topo.connect_clients(server, 16)
    server.start()
"""

from .registry import (
    BACKENDS,
    TransportError,
    TransportSpec,
    bench_systems,
    dfs_systems,
    get,
    names,
)
from .topology import Endpoint, Topology, TopologyConfig

__all__ = [
    "BACKENDS",
    "Endpoint",
    "Topology",
    "TopologyConfig",
    "TransportError",
    "TransportSpec",
    "bench_systems",
    "dfs_systems",
    "get",
    "names",
]
