"""FaSST RPC: UD send in both directions (paper Table 2).

"A scalable RPC based on UD send verbs" (FaSST, OSDI'16), configured
asymmetrically as in the paper's evaluation: many clients post requests to
a single server.  The server keeps one UD QP per working thread with a
shared, bounded receive-buffer ring — no per-client QPs, no per-client
buffers — which is why its throughput stays flat as clients grow
(Figure 8).  The price is CPU: both sides pre-post receives and poll
completion queues, which is what keeps FaSST clients from saturating the
network without several physical machines (Figure 8, right).
"""

from __future__ import annotations

from ..core.message import RpcRequest, RpcResponse
from ..rdma.node import Node
from ..rdma.verbs import post_send
from .common import BaseRpcServer, UdEndpoint, UdResponseClient, _ClientBinding

__all__ = ["FasstServer", "FasstClient"]


class FasstServer(BaseRpcServer):
    """FaSST server: per-thread UD endpoints, shared recv rings."""

    def start(self) -> None:
        self._endpoints = [
            UdEndpoint(
                self.node,
                depth=self.config.recv_depth,
                buf_bytes=self.config.recv_buf_bytes,
                on_receive=self._on_receive,
            )
            for _ in range(self.config.n_server_threads)
        ]
        super().start()

    def endpoint_handle(self, client_id: int):
        """The server UD endpoint a client should post its requests to."""
        return self._endpoints[self.worker_index(client_id)].handle()

    def _admit(self, machine: Node, client_id: int) -> "FasstClient":
        client = FasstClient(self, machine, client_id)
        self.bindings[client_id] = _ClientBinding(
            client_id=client_id,
            request_region=None,  # no per-client server buffers in FaSST
            send_ref=client.ud.handle(),
        )
        return client

    def reestablish(self, client: "FasstClient") -> None:
        """A reconnecting FaSST client only needs a fresh UD endpoint (its
        single QP carries both directions); the server's shared endpoints
        are untouched — no per-client server state exists to rebuild."""
        self.bindings[client.client_id].send_ref = client.open_response_endpoint()

    def _on_receive(self, completion) -> None:
        if isinstance(completion.payload, RpcRequest):
            self.dispatch(completion.payload, completion.addr)

    def _send_response(self, binding: _ClientBinding, response: RpcResponse) -> None:
        qp = self._endpoints[self.worker_index(binding.client_id)].qp
        size = response.wire_bytes
        post_send(
            qp,
            size,
            payload=response,
            local_addr=self._response_scratch(size),
            dest=binding.send_ref,
            signaled=False,
        )


class FasstClient(UdResponseClient):
    """FaSST client: UD sends requests, polls a UD CQ for responses.

    One UD QP carries both directions, so when the client stops polling
    and ``cq_overrun_fatal`` errors out its recv CQ, even its posting
    path dies."""

    def _fault_qps(self) -> list:
        return [self.ud.qp]

    def _post_request(self, request: RpcRequest) -> None:
        post_send(
            self.ud.qp,
            request.wire_bytes,
            payload=request,
            local_addr=self.staging.range.base,
            dest=self.server.endpoint_handle(self.client_id),
            signaled=False,
        )
