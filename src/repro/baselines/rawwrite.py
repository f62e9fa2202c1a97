"""RawWrite RPC: the FaRM-style RC-write baseline (paper Table 2).

"A baseline RPC implementation based on RC write verbs" — equivalently,
ScaleRPC with every optimization disabled: static per-client message
regions on the server, requests and responses both posted with one-sided
RC writes.  Its two scaling pathologies are exactly the paper's Section 2.3
observations:

- the server's *response* writes need one RC QP per client, overflowing
  the NIC connection cache (outbound collapse of Figure 1(b)), and
- the per-client request regions grow the pool linearly with clients,
  overflowing the LLC (inbound Write-Allocate pressure of Figure 3(b)).
"""

from __future__ import annotations

from ..core.message import RpcResponse
from ..core.msgpool import SlotCursor
from ..rdma.mr import Access
from ..rdma.node import InboundWrite, Node
from ..rdma.types import Transport
from ..rdma.verbs import post_write
from .common import BaseRpcClient, BaseRpcServer, _ClientBinding

__all__ = ["RawWriteServer", "RawWriteClient"]


class RawWriteServer(BaseRpcServer):
    """The RC-write RPC server with static mapping."""

    def _admit(self, machine: Node, client_id: int) -> "RawWriteClient":
        server_qp = self.node.create_qp(Transport.RC)
        client_qp = machine.create_qp(Transport.RC)
        client_qp.connect(server_qp)
        # Static mapping: a dedicated request region for this client.
        # Packed allocation (no per-client huge-page rounding): the static
        # pool is one contiguous run of per-client slots, as real
        # implementations carve it from a single registered region.
        request_region = self.node.register_memory(
            self.config.slot_bytes, access=Access.all_remote(), huge_pages=False
        )
        client = RawWriteClient(self, machine, client_id, client_qp, request_region)
        binding = _ClientBinding(
            client_id=client_id,
            request_region=request_region,
            send_ref=(server_qp, SlotCursor(
                client.responses.range.base, client.responses.range.size
            )),
        )
        self.bindings[client_id] = binding
        self.node.watch_writes(request_region.range, self._on_request)
        return client

    def reestablish(self, client: "RawWriteClient") -> None:
        """Fresh RC pair for a reconnecting client.  The static request
        region, the client's response ring, and the server-held response
        cursor all survive — only the connection state is rebuilt."""
        binding = self.bindings[client.client_id]
        old_server_qp, cursor = binding.send_ref
        old_server_qp.close()
        client.qp.close()
        server_qp = self.node.create_qp(Transport.RC)
        client_qp = client.machine.create_qp(Transport.RC)
        client_qp.connect(server_qp)
        client.qp = client_qp
        binding.send_ref = (server_qp, cursor)

    def _send_response(self, binding: _ClientBinding, response: RpcResponse) -> None:
        server_qp, cursor = binding.send_ref
        if not server_qp.is_ready:
            # The client's connection is down (crash fault): the response
            # has nowhere to land until recovery reposts the request.
            self.stats.dropped += 1
            return
        size = response.wire_bytes
        post_write(
            server_qp,
            local_addr=self._response_scratch(size),
            remote_addr=cursor.next(size),
            size=size,
            payload=response,
            signaled=False,
        )


class RawWriteClient(BaseRpcClient):
    """RC client: writes requests into its server region, polls its local
    response region (no CQ polling — the cheap client mode)."""

    def __init__(self, server, machine, client_id, qp, request_region):
        super().__init__(server, machine, client_id, qp, request_region)
        # Compact response ring: warms within one lap and stays resident.
        self.responses = machine.register_memory(
            4 * server.config.block_size, access=Access.all_remote(), huge_pages=False
        )
        machine.watch_writes(self.responses.range, self._on_response)

    def _fault_qps(self) -> list:
        return [self.qp]

    def _on_response(self, event: InboundWrite) -> None:
        # Polling the local pool reads the message: keep the ring hot.
        self.machine.llc.cpu_access(event.addr, event.size)
        if isinstance(event.payload, RpcResponse):
            self.deliver(event.payload)
