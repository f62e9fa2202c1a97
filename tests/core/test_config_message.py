"""Unit tests for ScaleRpcConfig and the message layout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ScaleRpcConfig, wire_size, layout_in_block
from repro.core.config import CpuCostModel
from repro.core.message import (
    HEADER_BYTES,
    VALID_BYTES,
    RpcRequest,
)


class TestScaleRpcConfig:
    def test_paper_defaults(self):
        config = ScaleRpcConfig()
        assert config.group_size == 40
        assert config.time_slice_ns == 100_000
        assert config.block_size == 4096
        assert config.blocks_per_client == 20

    def test_pool_sized_for_largest_legal_group(self):
        config = ScaleRpcConfig(group_size=40)
        assert config.pool_slots == 60  # 1.5x default
        assert config.pool_bytes == 60 * 20 * 4096

    def test_group_bounds_are_half_to_three_halves(self):
        config = ScaleRpcConfig(group_size=40)
        assert config.group_bounds() == (20, 60)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 0},
            {"time_slice_ns": 0},
            {"block_size": 32},
            {"blocks_per_client": 0},
            {"n_server_threads": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScaleRpcConfig(**kwargs)

    def test_cost_model_asymmetry(self):
        costs = CpuCostModel()
        rc_post, rc_poll = costs.client_cost(uses_cq_polling=False)
        ud_post, ud_poll = costs.client_cost(uses_cq_polling=True)
        assert ud_post > rc_post
        assert ud_poll > rc_poll


class TestMessageLayout:
    def test_wire_size_adds_header(self):
        assert wire_size(32) == 32 + HEADER_BYTES

    def test_wire_size_rejects_negative(self):
        with pytest.raises(ValueError):
            wire_size(-1)

    def test_right_aligned_layout(self):
        write_addr, valid_addr = layout_in_block(0x1000, 4096, 32)
        assert write_addr == 0x1000 + 4096 - (32 + HEADER_BYTES)
        assert valid_addr == 0x1000 + 4096 - VALID_BYTES
        # Valid is the *last* field: the write covers it last.
        assert valid_addr >= write_addr

    def test_oversized_message_rejected(self):
        with pytest.raises(ValueError):
            layout_in_block(0, 64, 60)

    @given(
        block=st.sampled_from([256, 1024, 4096]),
        data=st.integers(min_value=0, max_value=200),
    )
    def test_layout_always_inside_block(self, block, data):
        write_addr, valid_addr = layout_in_block(0, block, data)
        assert 0 <= write_addr
        assert valid_addr + VALID_BYTES == block

    def test_request_ids_unique(self):
        a = RpcRequest(1, "x")
        b = RpcRequest(1, "x")
        assert a.req_id != b.req_id

    def test_request_wire_bytes(self):
        assert RpcRequest(1, "x", data_bytes=100).wire_bytes == 100 + HEADER_BYTES
