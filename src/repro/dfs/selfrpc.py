"""Octopus' self-identified RPC.

Octopus posts metadata requests with RC ``write_imm``: the immediate
number identifies the sender, so the MDS threads locate new messages from
the receive completion instead of scanning the message pool (paper
Section 4.1).  Like RawWrite it keeps static per-client regions and
responds with RC writes — so it inherits both resource-contention
problems, which is exactly what Figures 1(a) and 13 measure against
ScaleRPC.
"""

from __future__ import annotations

from typing import Generator

from ..core.message import RpcRequest
from ..core.msgpool import SlotCursor
from ..rdma.cq import CompletionQueue
from ..rdma.mr import Access
from ..rdma.node import Node, create_qp_pair
from ..rdma.qp import QueuePair
from ..rdma.types import Transport
from ..rdma.verbs import post_recv, post_write
from ..baselines.common import BaseRpcServer, _ClientBinding
from ..baselines.rawwrite import RawWriteClient, RawWriteServer

__all__ = ["SelfRpcServer", "SelfRpcClient"]

_RECV_DEPTH = 64


class SelfRpcServer(BaseRpcServer):
    """write_imm requests, RC-write responses, static mapping."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._shared_rcq = CompletionQueue(self.sim, name="selfrpc.rcq")
        self._dummy = self.node.register_memory(4096)
        self._qps_by_imm: dict[int, QueuePair] = {}

    def start(self) -> None:
        self.sim.process(self._dispatcher(), name="selfrpc.dispatch")
        super().start()

    def _admit(self, machine: Node, client_id: int) -> "SelfRpcClient":
        client_qp, server_qp = create_qp_pair(
            machine, self.node, Transport.RC,
            recv_cq=self._shared_rcq, max_recv_wr=4 * _RECV_DEPTH,
        )
        for _ in range(_RECV_DEPTH):
            post_recv(server_qp, self._dummy.range.base, 64)
        self._qps_by_imm[client_id] = server_qp
        request_region = self.node.register_memory(
            self.config.slot_bytes, access=Access.all_remote(), huge_pages=False
        )
        client = SelfRpcClient(self, machine, client_id, client_qp, request_region)
        self.bindings[client_id] = _ClientBinding(
            client_id=client_id,
            request_region=request_region,
            send_ref=(server_qp, SlotCursor(
                client.responses.range.base, client.responses.range.size
            )),
        )
        return client

    def _dispatcher(self) -> Generator:
        """One thread draining the shared receive CQ: the immediate number
        self-identifies the message, no pool scanning required."""
        while True:
            completion = yield self._shared_rcq.get_event()
            request = completion.payload
            if not isinstance(request, RpcRequest):
                continue
            imm_client = completion.imm_data
            qp = self._qps_by_imm.get(imm_client)
            if qp is not None:
                post_recv(qp, self._dummy.range.base, 64)
            self.dispatch(request, completion.addr)

    # Responses are RawWrite's: an RC write into the client's response
    # ring, dropped while the connection is down.
    _send_response = RawWriteServer._send_response


class SelfRpcClient(RawWriteClient):
    """RC client posting write_imm requests (imm = client id)."""

    def _fault_qps(self) -> list:
        # Octopus has no reconnect path here (no ``reestablish``): a crash
        # swallows posts and ignores responses but leaves the RC pair up.
        return []

    def _post_request(self, request: RpcRequest) -> None:
        size = request.wire_bytes
        post_write(
            self.qp,
            local_addr=self.staging.range.base,
            remote_addr=self._cursor.next(size),
            size=size,
            payload=request,
            imm_data=self.client_id,
            signaled=False,
        )
