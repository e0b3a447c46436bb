"""Unit tests for the machine configuration."""

import pytest

from repro.core.config import MachineConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_default_config_is_valid(self):
        config = MachineConfig().validate()
        assert config.num_tiles == 256

    @pytest.mark.parametrize(
        "field,value",
        [
            ("noc", "hypercube"),
            ("scheduling", "fifo"),
            ("vertex_placement", "hashed"),
            ("edge_placement", "hashed"),
            ("remote_invocation", "rpc"),
            ("memory", "hbm"),
            ("engine", "rtl"),
        ],
    )
    def test_invalid_enum_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            MachineConfig(**{field: value}).validate()

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(width=0).validate()

    def test_row_vertex_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(vertex_placement="row").validate()

    def test_invalid_cache_hit_rate(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(cache_hit_rate=1.5).validate()

    def test_invalid_ruche_factor(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(ruche_factor=1).validate()


class TestDerived:
    def test_memory_latency_sram(self):
        assert MachineConfig(memory="sram").memory_latency_cycles() == 1

    def test_memory_latency_dram(self):
        config = MachineConfig(memory="dram", dram_latency_cycles=80)
        assert config.memory_latency_cycles() == 80

    def test_memory_latency_cache_blend(self):
        config = MachineConfig(
            memory="dram_cache",
            cache_hit_rate=0.5,
            cache_hit_latency_cycles=2,
            dram_latency_cycles=100,
        )
        assert config.memory_latency_cycles() == pytest.approx(51.0)

    def test_describe_mentions_key_fields(self):
        text = MachineConfig(name="demo").describe()
        assert "demo" in text
        assert "torus" in text


class TestOverrides:
    def test_with_overrides_returns_new_object(self):
        base = MachineConfig()
        variant = base.with_overrides(noc="mesh")
        assert variant.noc == "mesh"
        assert base.noc == "torus"

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError):
            MachineConfig().with_overrides(noc="ring")

    def test_with_grid(self):
        config = MachineConfig().with_grid(8)
        assert (config.width, config.height) == (8, 8)
        rect = MachineConfig().with_grid(8, 4)
        assert rect.num_tiles == 32
