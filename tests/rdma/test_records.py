"""The per-message records' contract: field order, immutability, defaults
and text.

The data path builds :class:`Completion`, :class:`InboundWrite`,
:class:`DmaWriteResult` and :class:`CpuAccessResult` positionally, so the
field order is part of the interface: a reordered field would silently
swap two values at every hot site.  Keyword construction (tests, cold
code) must keep meaning the same thing, and the ``repr`` text that shows
up in assertion failures and traces must not change.
"""

import pytest

from repro.memsys.llc import CpuAccessResult, DmaWriteResult
from repro.rdma.cq import Completion
from repro.rdma.node import InboundWrite
from repro.rdma.types import Opcode

# (record built by keyword, the same record built positionally, its repr)
RECORDS = {
    "Completion": (
        Completion(wr_id=5, opcode=Opcode.RECV, qp_num=7, byte_len=32, imm_data=9,
                   payload="x", timestamp_ns=100, status="success", addr=4096),
        Completion(5, Opcode.RECV, 7, 32, 9, "x", 100, "success", 4096),
        "Completion(wr_id=5, opcode=<Opcode.RECV: 'recv'>, qp_num=7, byte_len=32, "
        "imm_data=9, payload='x', timestamp_ns=100, status='success', addr=4096)",
    ),
    "InboundWrite": (
        InboundWrite(addr=4096, size=32, payload="x", imm_data=None, src_qp_num=3,
                     time_ns=1200),
        InboundWrite(4096, 32, "x", None, 3, 1200),
        "InboundWrite(addr=4096, size=32, payload='x', imm_data=None, src_qp_num=3, "
        "time_ns=1200)",
    ),
    "DmaWriteResult": (
        DmaWriteResult(lines=2, update_hits=1, allocations=1, full_lines=1,
                       partial_lines=1),
        DmaWriteResult(2, 1, 1, 1, 1),
        "DmaWriteResult(lines=2, update_hits=1, allocations=1, full_lines=1, "
        "partial_lines=1)",
    ),
    "CpuAccessResult": (
        CpuAccessResult(lines=1, hits=1, misses=0, cost_ns=4),
        CpuAccessResult(1, 1, 0, 4),
        "CpuAccessResult(lines=1, hits=1, misses=0, cost_ns=4)",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keyword_construction_equals_positional(name):
    by_keyword, positional, _text = RECORDS[name]
    assert by_keyword == positional
    assert hash(by_keyword) == hash(positional)
    assert type(by_keyword) is type(positional)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]
    for field_name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field_name, 0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_unchanged(name):
    by_keyword, _positional, text = RECORDS[name]
    assert repr(by_keyword) == text


def test_completion_defaults():
    completion = Completion(1, Opcode.SEND, 3)
    assert completion.byte_len == 0
    assert completion.imm_data is None
    assert completion.payload is None
    assert completion.timestamp_ns == 0
    assert completion.status == "success"
    assert completion.addr is None
    assert completion.ok
    assert repr(completion) == (
        "Completion(wr_id=1, opcode=<Opcode.SEND: 'send'>, qp_num=3, byte_len=0, "
        "imm_data=None, payload=None, timestamp_ns=0, status='success', addr=None)"
    )
    assert not Completion(1, Opcode.SEND, 3, status="retry-exceeded").ok
