"""Tests for the transport registry — the single name->implementation map."""

import pytest

from repro import transport
from repro.baselines.common import BaselineConfig
from repro.core.config import ScaleRpcConfig
from repro.transport import TransportError, bench_systems, dfs_systems


class TestLookup:
    def test_all_builtins_registered(self):
        for name in ("scalerpc", "scalerpc-static", "rawwrite", "herd",
                     "fasst", "selfrpc"):
            spec = transport.get(name)
            assert spec.name == name
            assert spec.server_cls is not None
            assert spec.config_cls is not None

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(TransportError, match="scalerpc"):
            transport.get("tcp")

    def test_names_in_registration_order(self):
        assert transport.names()[0] == "scalerpc"
        assert set(transport.names()) >= {
            "scalerpc", "scalerpc-static", "rawwrite", "herd", "fasst", "selfrpc"
        }

    def test_bench_and_dfs_subsets(self):
        assert bench_systems() == ("scalerpc", "scalerpc-static", "rawwrite",
                                   "herd", "fasst")
        assert dfs_systems() == ("scalerpc", "rawwrite", "selfrpc")


class TestMakeConfig:
    def test_knobs_filtered_to_native_schema(self):
        # group_size exists on ScaleRpcConfig but not BaselineConfig;
        # block_size exists on both.
        cfg = transport.get("scalerpc").make_config(group_size=8, block_size=2048)
        assert isinstance(cfg, ScaleRpcConfig)
        assert cfg.group_size == 8
        assert cfg.block_size == 2048

        cfg = transport.get("rawwrite").make_config(group_size=8, block_size=2048)
        assert isinstance(cfg, BaselineConfig)
        assert cfg.block_size == 2048
        assert not hasattr(cfg, "group_size")

    def test_misspelt_knob_is_rejected_by_name(self):
        # A knob no transport's config defines is a typo, not a knob of
        # another family: it must not silently build a default config.
        for name in ("scalerpc", "rawwrite"):
            with pytest.raises(TypeError, match="group_sise"):
                transport.get(name).make_config(group_sise=8)
        topo = transport.Topology.build(seed=1)
        with pytest.raises(TypeError, match="group_sise"):
            topo.build_server("scalerpc", lambda r: r.payload, group_sise=8)

    def test_none_knobs_fall_back_to_defaults(self):
        cfg = transport.get("rawwrite").make_config(block_size=None)
        assert cfg.block_size == BaselineConfig().block_size

    def test_variant_overrides_win(self):
        dynamic = transport.get("scalerpc").make_config()
        static = transport.get("scalerpc-static").make_config()
        assert dynamic.dynamic_scheduling is True
        assert static.dynamic_scheduling is False
        # Even an explicit knob cannot undo the variant's defining override.
        forced = transport.get("scalerpc-static").make_config(dynamic_scheduling=True)
        assert forced.dynamic_scheduling is False


class TestBuildServer:
    def _topo(self):
        return transport.Topology.build(seed=1)

    def test_config_and_knobs_are_exclusive(self):
        topo = self._topo()
        with pytest.raises(TypeError):
            transport.get("rawwrite").build_server(
                topo.server_node, lambda r: r.payload,
                config=BaselineConfig(), block_size=2048,
            )

    def test_each_transport_constructs_and_connects(self):
        for name in transport.names():
            topo = self._topo()
            server = transport.get(name).build_server(
                topo.server_node, lambda r: r.payload, group_size=8
            )
            client = server.connect(topo.machines[0])
            assert client is not None

    def test_ready_config_is_used_verbatim(self):
        topo = self._topo()
        cfg = BaselineConfig(block_size=8192)
        server = transport.get("rawwrite").build_server(
            topo.server_node, lambda r: r.payload, config=cfg
        )
        assert server.config is cfg
