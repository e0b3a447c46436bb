"""The shard transport choice and the process transport's failure paths."""

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.runtime.sharding import (
    DEFAULT_SHARD_BACKEND,
    SHARD_BACKEND_CHOICES,
    ProcessShardChannel,
    resolve_shard_backend,
)


class TestResolveShardBackend:
    def test_default_is_the_local_process_transport(self, monkeypatch):
        monkeypatch.delenv("DALOREX_SHARD_BACKEND", raising=False)
        assert resolve_shard_backend() == DEFAULT_SHARD_BACKEND == "local"
        assert SHARD_BACKEND_CHOICES == ("local", "inproc")

    def test_argument_beats_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("DALOREX_SHARD_BACKEND", " InProc ")
        assert resolve_shard_backend() == "inproc"
        assert resolve_shard_backend("local") == "local"

    @pytest.mark.parametrize("name", ["gang", "carrier-pigeon"])
    def test_unknown_transports_fail_loudly(self, name, monkeypatch):
        # "gang" named the deleted broker transport; a worker whose
        # environment still names it must fail, not run some other way.
        monkeypatch.setenv("DALOREX_SHARD_BACKEND", name)
        with pytest.raises(SimulationError, match=f"unknown shard backend '{name}'"):
            resolve_shard_backend()
        with pytest.raises(SimulationError, match="choices"):
            resolve_shard_backend(name)


class _ExitedProcess:
    """Stands in for a shard process that is already gone."""

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


class TestProcessShardChannel:
    def test_closed_pipe_is_a_simulation_error(self):
        # A shard process that dies mid-run fails the spec instead of
        # leaving the hub waiting on its pipe.
        hub_end, shard_end = multiprocessing.Pipe()
        shard_end.close()
        channel = ProcessShardChannel(_ExitedProcess(), hub_end)
        with pytest.raises(SimulationError, match="exited mid-run"):
            channel.wait()
        channel.close()

    def test_error_reply_is_a_simulation_error(self):
        hub_end, shard_end = multiprocessing.Pipe()
        channel = ProcessShardChannel(_ExitedProcess(), hub_end)
        shard_end.send({"ok": False, "error": "ValueError: boom"})
        with pytest.raises(SimulationError, match="shard worker failed: ValueError: boom"):
            channel.wait()
        shard_end.send({"ok": True, "reply": {"n": 1}})
        assert channel.wait() == {"n": 1}
        channel.close()
        assert shard_end.recv() == {"op": "shutdown"}
        shard_end.close()
