"""The backend-neutral RPC interface: what an RPC subsystem must provide.

The paper's porting story (Section 3.5) is that only the RPC subsystem is
replaced underneath an application; systems above see ``SyncCall`` /
``AsyncCall`` / ``PollCompletion`` regardless of transport.  This module
states that contract *without* prescribing an execution model, so the same
call surface can be driven by two very different backends:

- the **simulation driver** (:mod:`repro.core.api`), where every call is a
  simulation generator driven with ``yield from`` inside a sim process and
  time is the simulator's integer-ns clock;
- the **real-process driver** (:mod:`repro.net`), where every call is an
  asyncio coroutine driven with ``await`` inside a real OS process and
  time is a run-relative monotonic clock.

Concrete clients therefore implement the abstract methods either as
generators or as coroutines; callers are written against one driver and
use its native driving keyword.  What is shared — and what this module
owns — is the *shape*: method names, argument lists, the
:class:`CallHandle` state machine, and the request/response dataclasses of
:mod:`repro.core.message` (which also defines their deterministic wire
encoding for backends that move real bytes).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

from .message import RpcRequest, RpcResponse

__all__ = [
    "NO_RESPONSE",
    "CallHandle",
    "RpcCallerInterface",
    "RpcServiceInterface",
]


class _NoResponse:
    """Sentinel a handler returns to suppress the response entirely.

    Dead, fenced, or non-primary replicas (:mod:`repro.replica`) answer
    with silence rather than an error: the client's rpc-timeout watchdog
    is the failure detector, and silence is what drives its escalation
    to reconnect/failover.  Both backends honor it — the sim server
    skips ``_respond``, the proc server sends no frame.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NO_RESPONSE>"


NO_RESPONSE = _NoResponse()


@dataclass(slots=True)
class CallHandle:
    """Tracks one in-flight RPC from post to response.

    ``event`` is the backend's completion primitive: a simulator
    :class:`~repro.sim.engine.Event` on the sim path, an
    :class:`asyncio.Future` on the real-process path.  Both are succeeded
    with the :class:`~repro.core.message.RpcResponse` when it arrives.
    """

    request: RpcRequest
    event: Any = field(default=None, repr=False)
    posted_ns: int = 0
    completed_ns: Optional[int] = None
    response: Optional[RpcResponse] = None

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def latency_ns(self) -> Optional[int]:
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.posted_ns


class RpcCallerInterface(abc.ABC):
    """Client-side surface: the paper's SyncCall / AsyncCall / PollCompletion.

    Methods are *execution-model neutral*: the sim driver implements them
    as generators (drive with ``yield from``), the real-process driver as
    coroutines (drive with ``await``).  Semantics are identical:

    - :meth:`async_call` posts one request without waiting and returns a
      :class:`CallHandle`;
    - :meth:`flush` ensures everything posted is on its way to the server
      (batching clients call it once per batch);
    - :meth:`poll_completions` waits for a set of handles and returns
      their responses, in handle order;
    - :meth:`sync_call` is the composition of the three.
    """

    client_id: int

    @abc.abstractmethod
    def async_call(self, rpc_type: str, payload: Any = None, data_bytes: int = 32):
        """Post one request without waiting; yields a :class:`CallHandle`."""

    @abc.abstractmethod
    def flush(self):
        """Ensure all posted requests are on their way to the server."""

    @abc.abstractmethod
    def poll_completions(self, handles: list[CallHandle]):
        """Wait for all ``handles``; yields their responses in order."""

    @abc.abstractmethod
    def sync_call(self, rpc_type: str, payload: Any = None, data_bytes: int = 32):
        """Post one request and wait for its response."""


class RpcServiceInterface(abc.ABC):
    """Server-side surface: handler registration and client admission."""

    @abc.abstractmethod
    def connect(self, machine: Any = None) -> RpcCallerInterface:
        """Admit a new client.

        On the sim path ``machine`` is the :class:`~repro.rdma.node.Node`
        the client runs on; on the real-process path it is unused (remote
        clients connect over the network; an in-process client is returned
        for local use).
        """

    @abc.abstractmethod
    def start(self):
        """Bring the service up (spawn sim processes / open the listener)."""
