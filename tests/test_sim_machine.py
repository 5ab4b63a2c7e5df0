"""Tests for repro.sim.machine."""

import pytest

from repro.sim.machine import MachineConfig


class TestMachineConfig:
    def test_defaults(self):
        config = MachineConfig()
        assert config.eager_threshold == 16 * 1024
        assert config.eager_buffer_bytes == 16 * 1024
        assert config.preallocate_all_peers is True

    def test_with_overrides(self):
        config = MachineConfig().with_overrides(eager_threshold=1)
        assert config.eager_threshold == 1
        # original untouched (frozen dataclass semantics)
        assert MachineConfig().eager_threshold == 16 * 1024

    def test_invalid_overheads(self):
        with pytest.raises(ValueError):
            MachineConfig(send_overhead=-1.0)
        with pytest.raises(ValueError):
            MachineConfig(recv_overhead=-1.0)

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            MachineConfig(eager_buffer_bytes=0)

    def test_invalid_copy_bandwidth(self):
        with pytest.raises(ValueError):
            MachineConfig(unexpected_copy_bandwidth=0.0)

    def test_frozen(self):
        config = MachineConfig()
        with pytest.raises(Exception):
            config.eager_threshold = 1  # type: ignore[misc]
