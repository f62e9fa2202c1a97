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

from ..core.message import RpcRequest, RpcResponse
from ..core.msgpool import BlockCursor
from ..rdma.mr import Access
from ..rdma.node import InboundWrite, Node
from ..rdma.types import Transport
from ..rdma.verbs import post_send, post_write
from .common import BaseRpcClient, BaseRpcServer, UdEndpoint, _ClientBinding

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

    def _on_request(self, event: InboundWrite) -> None:
        if isinstance(event.payload, RpcRequest):
            self.dispatch(event.payload, event.addr)

    def reestablish(self, client: "HerdClient") -> None:
        """Fresh UC request pair plus a fresh client-side UD response
        endpoint (the crashed process owned the old one's polling loop);
        the static request region and its cursor survive."""
        binding = self.bindings[client.client_id]
        old = client.qp
        if old.peer is not None:
            old.peer.close()
        old.close()
        server_qp = self.node.create_qp(Transport.UC)
        client_qp = client.machine.create_qp(Transport.UC)
        client_qp.connect(server_qp)
        client.qp = client_qp
        client.ud = UdEndpoint(
            client.machine,
            depth=self.config.recv_depth,
            buf_bytes=self.config.recv_buf_bytes,
            on_receive=client._on_receive,
            overrun_fatal=self.config.cq_overrun_fatal,
        )
        binding.send_ref = client.ud.handle()

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


class HerdClient(BaseRpcClient):
    """HERD client: UC-writes requests, polls a UD CQ for responses."""

    uses_cq_polling = True

    def __init__(self, server, machine, client_id, qp, request_region):
        super().__init__(server, machine, client_id)
        self.qp = qp
        self.ud = UdEndpoint(
            machine,
            depth=server.config.recv_depth,
            buf_bytes=server.config.recv_buf_bytes,
            on_receive=self._on_receive,
            overrun_fatal=server.config.cq_overrun_fatal,
        )
        self._cursor = BlockCursor(
            request_region.range.base,
            server.config.block_size,
            server.config.blocks_per_client,
        )

    def _post_request(self, request: RpcRequest) -> None:
        size = request.wire_bytes
        post_write(
            self.qp,
            local_addr=self.staging.range.base,
            remote_addr=self._cursor.next(size),
            size=size,
            payload=request,
            signaled=False,
        )

    def _fault_qps(self) -> list:
        return [self.qp, self.ud.qp]

    def crash(self) -> None:
        """A crash also kills the process polling the UD response CQ."""
        super().crash()
        self.ud.stop()

    def stop_polling(self) -> None:
        """Stop the UD listener too: responses pile up in the recv CQ
        (fatal under ``cq_overrun_fatal``); the UC request QP is separate
        and keeps posting."""
        super().stop_polling()
        self.ud.stop()

    def _on_receive(self, completion) -> None:
        if isinstance(completion.payload, RpcResponse):
            self.deliver(completion.payload)
