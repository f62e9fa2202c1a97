"""HERD RPC: UC-write requests + UD-send responses (paper Table 2).

"A scalable RPC with a hybrid of UC write and UD send verbs" (HERD,
SIGCOMM'14).  Requests are UC-written into per-client server regions —
inbound writes don't stress the NIC connection cache — and responses
return as UD sends from per-thread datagram QPs, so the server never
carries per-client send state.  What remains is the *static mapping*: the
request-region footprint grows with the client count, so HERD still
degrades at large client counts through the LLC (the paper's explanation
for its Figure-8 decline at small batch sizes), and its clients pay the
UD receive/poll CPU tax.
"""

from __future__ import annotations

from ..core.message import RpcResponse
from ..rdma.mr import Access
from ..rdma.node import Node
from ..rdma.types import Transport
from ..rdma.verbs import post_send
from .common import BaseRpcServer, UdResponseClient, _ClientBinding

__all__ = ["HerdServer", "HerdClient"]


class HerdServer(BaseRpcServer):
    """HERD server: static UC request pool, per-thread UD response QPs."""

    def start(self) -> None:
        # One UD QP per working thread for responses.
        self._response_qps = [
            self.node.create_qp(Transport.UD)
            for _ in range(self.config.n_server_threads)
        ]
        super().start()

    def _admit(self, machine: Node, client_id: int) -> "HerdClient":
        server_qp = self.node.create_qp(Transport.UC)
        client_qp = machine.create_qp(Transport.UC)
        client_qp.connect(server_qp)
        request_region = self.node.register_memory(
            self.config.slot_bytes, access=Access.all_remote(), huge_pages=False
        )
        client = HerdClient(self, machine, client_id, client_qp, request_region)
        binding = _ClientBinding(
            client_id=client_id,
            request_region=request_region,
            send_ref=client.ud.handle(),
        )
        self.bindings[client_id] = binding
        self.node.watch_writes(request_region.range, self._on_request)
        return client

    def reestablish(self, client: "HerdClient") -> None:
        """Fresh UC request pair plus a fresh client-side UD response
        endpoint (the crashed process owned the old one's polling loop);
        the static request region and its cursor survive."""
        old = client.qp
        if old.peer is not None:
            old.peer.close()
        old.close()
        server_qp = self.node.create_qp(Transport.UC)
        client_qp = client.machine.create_qp(Transport.UC)
        client_qp.connect(server_qp)
        client.qp = client_qp
        self.bindings[client.client_id].send_ref = client.open_response_endpoint()

    def _send_response(self, binding: _ClientBinding, response: RpcResponse) -> None:
        qp = self._response_qps[self.worker_index(binding.client_id)]
        size = response.wire_bytes
        post_send(
            qp,
            size,
            payload=response,
            local_addr=self._response_scratch(size),
            dest=binding.send_ref,
            signaled=False,
        )


class HerdClient(UdResponseClient):
    """HERD client: UC-writes requests, polls a UD CQ for responses.

    The UC request QP is separate from the UD response QP: a client that
    stops polling keeps posting requests."""

    def _fault_qps(self) -> list:
        return [self.qp, self.ud.qp]
