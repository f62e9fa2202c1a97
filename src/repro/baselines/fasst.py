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
from .common import BaseRpcClient, BaseRpcServer, UdEndpoint, _ClientBinding

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
        binding = self.bindings[client.client_id]
        client.ud = UdEndpoint(
            client.machine,
            depth=self.config.recv_depth,
            buf_bytes=self.config.recv_buf_bytes,
            on_receive=client._on_receive,
            overrun_fatal=self.config.cq_overrun_fatal,
        )
        binding.send_ref = client.ud.handle()

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


class FasstClient(BaseRpcClient):
    """FaSST client: UD sends requests, polls a UD CQ for responses."""

    uses_cq_polling = True

    def __init__(self, server: FasstServer, machine: Node, client_id: int):
        super().__init__(server, machine, client_id)
        self.ud = UdEndpoint(
            machine,
            depth=server.config.recv_depth,
            buf_bytes=server.config.recv_buf_bytes,
            on_receive=self._on_receive,
            overrun_fatal=server.config.cq_overrun_fatal,
        )

    def _fault_qps(self) -> list:
        return [self.ud.qp]

    def crash(self) -> None:
        """A crash also kills the process polling the UD CQ."""
        super().crash()
        self.ud.stop()

    def stop_polling(self) -> None:
        """Stop the UD listener: with ``cq_overrun_fatal`` the recv CQ
        overruns and errors out the client's only QP, so even its posting
        path dies (FaSST shares one UD QP for both directions)."""
        super().stop_polling()
        self.ud.stop()

    def _post_request(self, request: RpcRequest) -> None:
        post_send(
            self.ud.qp,
            request.wire_bytes,
            payload=request,
            local_addr=self.staging.range.base,
            dest=self.server.endpoint_handle(self.client_id),
            signaled=False,
        )

    def _on_receive(self, completion) -> None:
        if isinstance(completion.payload, RpcResponse):
            self.deliver(completion.payload)
