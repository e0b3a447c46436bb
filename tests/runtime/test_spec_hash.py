"""Property tests for RunSpec identity: equal specs hash equal, any field
perturbation changes the key, and keys are stable across processes."""

import os
import subprocess
import sys

import pytest

from repro.core.config import MachineConfig
from repro.runtime import RunSpec
from repro.runtime.spec import SPEC_VERSION


def make_spec(**overrides) -> RunSpec:
    fields = dict(
        app="bfs",
        dataset="rmat16",
        config=MachineConfig(width=4, height=4, engine="analytic"),
        scale=0.5,
        seed=7,
        verify=True,
        pagerank_iterations=5,
    )
    fields.update(overrides)
    return RunSpec(**fields)


#: One non-default value per MachineConfig field.  Values are either a bare
#: replacement or a full override dict for fields that cannot legally change
#: alone (depth needs a 3D NoC).
CONFIG_PERTURBATIONS = {
    "name": "other",
    "width": 8,
    "height": 8,
    "depth": {"depth": 2, "noc": "torus3d"},
    "noc": "mesh",
    "network": "simulated",
    "routing": "adaptive",
    "queue_depth": 8,
    "ruche_factor": 3,
    "scheduling": "round_robin",
    "remote_invocation": "interrupting",
    "interrupt_penalty_cycles": 51,
    "vertex_placement": "block",
    "edge_placement": "interleave",
    "barrier": True,
    "barrier_latency_cycles": 129,
    "max_epochs": 99_999,
    "memory": "dram",
    "sram_latency_cycles": 2,
    "dram_latency_cycles": 61,
    "cache_hit_latency_cycles": 3,
    "cache_hit_rate": 0.5,
    "scratchpad_bytes_per_tile": 1 << 20,
    "engine": "cycle",
    "frequency_ghz": 2.0,
    "flit_bytes": 8,
    "max_range_per_message": 512,
    "task_overhead_instructions": 5,
    "epoch_seed_instructions": 4,
    "frontier_refill_batch": 16,
    "frontier_refill_delay_cycles": 128,
    "queue_region_bytes": 8 * 1024,
    "code_region_bytes": 2 * 1024,
    "allow_remote_access": True,
    "remote_access_penalty_cycles": 41,
}


#: One perturbation per RunSpec field outside the config.
SPEC_PERTURBATIONS = {
    "app": {"app": "sssp"},
    "dataset": {"dataset": "rmat22"},
    "scale": {"scale": 0.25},
    "seed": {"seed": 8},
    "verify": {"verify": False},
    "pagerank_iterations": {"app": "pagerank", "pagerank_iterations": 3},
}


def perturbed_spec(name: str) -> RunSpec:
    """``make_spec()`` with one field perturbed: a ``SPEC_PERTURBATIONS``
    name, or ``config.<field>`` for a ``CONFIG_PERTURBATIONS`` field."""
    if not name.startswith("config."):
        return make_spec(**SPEC_PERTURBATIONS[name])
    field = name[len("config."):]
    value = CONFIG_PERTURBATIONS[field]
    overrides = value if isinstance(value, dict) else {field: value}
    return make_spec(config=make_spec().config.with_overrides(**overrides))


#: The key of every one-field perturbation of ``make_spec()``.  The default
#: spec's own pin only shows how default values enter the canonical form;
#: these show how each field's other values do, so no edit of any field's
#: encoding can move users' cache keys unnoticed.
PINNED_KEYS = {
    "config.name": (
        "3bb0504184eaa570646b29ca668f9d2186fffa270e184f2750c56c9b0bb0f1e4"
    ),
    "config.width": (
        "51733c0f61b114ade95b86e45f46cd0de7d1cf15eb32c2f6334bc4a205a082e0"
    ),
    "config.height": (
        "b67d15d163d1ad9f8b8622bb361682ff46e49a7ff205430750f6e6b110dcb7be"
    ),
    "config.depth": (
        "4bbed372ec39065a8bb9769f8b76873dec6453c06bafe491db7e900cb33697f8"
    ),
    "config.noc": (
        "a4d34b0d195c156715bcc5d3db525838d9072e33c67695112c4b0fda23302ae9"
    ),
    "config.network": (
        "6337ee74fe10598542021a5c7cbe82474d7c30107eb42d45a9fd1fb07e46b919"
    ),
    "config.routing": (
        "433bcea0bff839142b8d9859e5698638d1f10b2a93919be980b1207b88384979"
    ),
    "config.queue_depth": (
        "f081db21b0208175fa7e9e848333a58a7ec7070ad2fd2bdbcd44b13715645e8c"
    ),
    "config.ruche_factor": (
        "4f03b1026d2ca0afa6bf6945590294bf4b2e5e7d20e45761fe7fc65e8e06e2ea"
    ),
    "config.scheduling": (
        "6f2ca4eb39aac7175684439c1e35633860ff1c77dc0c8bec48a047f163df7964"
    ),
    "config.remote_invocation": (
        "f0b10421822fe96514c06b98c5a9d9f557d0c157512b2a6ccf7d331018bc987d"
    ),
    "config.interrupt_penalty_cycles": (
        "5cdd65e2bcd059eee6a220cd5a8f2592e776bb9c50a8d9f41c9e7d7a6cd1c56a"
    ),
    "config.vertex_placement": (
        "fd492161dedd80faa4c2dbb1147a09f750e6ec68971534b1923e9b97af9cb761"
    ),
    "config.edge_placement": (
        "38ed48f3ada5b80e839a2ee06b10a6f37d3c4ef28bf19420455a7d9fe470165f"
    ),
    "config.barrier": (
        "67a98212c5d039b853071087575c010171173fb8f80093824e2cc5bd820c5828"
    ),
    "config.barrier_latency_cycles": (
        "04b55d16c580755860a3fa3c91ebb27027ba8d0eee4e5e9db9877facffa6adf2"
    ),
    "config.max_epochs": (
        "6c633220b52ef325d010f29a61988f336fb95a9cb2056a4f96072ddd9745daaf"
    ),
    "config.memory": (
        "afab07e7b97ac07e38c4a1d40f01e4134cbad5eca60a41c15c163fe641cf274f"
    ),
    "config.sram_latency_cycles": (
        "0645da78d9c40b0e204ff4565da008f40b6a9d9c138603c217dff2d90698817a"
    ),
    "config.dram_latency_cycles": (
        "5e8be51cd4585321568538e70f989fc63419704dddd303ef944498066bfaf12f"
    ),
    "config.cache_hit_latency_cycles": (
        "bba3628d7cbeaa111d22d1d96a31b1707b699a93cc612f583603b28132857e95"
    ),
    "config.cache_hit_rate": (
        "07baa34c07fa25b930485b3f8cd6ebbd0045d364440391383f0eda7d2c82e860"
    ),
    "config.scratchpad_bytes_per_tile": (
        "77ae5ba21df80ec0383172bf74313ac7cb29d1f74d1126a65f9ffb7f98c2d22f"
    ),
    "config.engine": (
        "826d553b2e2462394fd58e5a53588ce6fe7cac8584e8ccd091f49baa1af6950f"
    ),
    "config.frequency_ghz": (
        "cf7e582fac12b3fb8b87d86ca77762640141b548864c7b308a2f17c6ed828324"
    ),
    "config.flit_bytes": (
        "1160ae8e6de3d46e057806051565e3a767fb5b740a61445ca7436311620166c2"
    ),
    "config.max_range_per_message": (
        "b71fd989933be02de3b33238d13a28bbd47b960ba7ca02c3290ce57e8c83fb55"
    ),
    "config.task_overhead_instructions": (
        "6ed0d77e00bfd34b3a50b1b8d3bb2118d4b5a4426a63f66a9aee6260e371cc1b"
    ),
    "config.epoch_seed_instructions": (
        "8a6adce3fa16629b19dbf03832d35aa9202afa7e11e57ad7d570ba33eaa0bfb6"
    ),
    "config.frontier_refill_batch": (
        "544f0bcc4a4c3d242432e20cfe68df278d5f74b1884f2f3e2ba1728e45f4143b"
    ),
    "config.frontier_refill_delay_cycles": (
        "6ba820a76eaa9b81cdd9ec58aa53caca5b9721ce4d77e2097aa23375e3ba4584"
    ),
    "config.queue_region_bytes": (
        "a05020c077257ac29d2b034c5e95ba47d4258525ca4c2cf8a4ae03c84e756470"
    ),
    "config.code_region_bytes": (
        "a6ba55b0d455ddaa1ad69808eefc0e7479fef979efb848360a2f04d92e363f8d"
    ),
    "config.allow_remote_access": (
        "5c39cfe924cd4270620f1b9c3d871a07effc895ac0f7f7bc954a4f1313ed5652"
    ),
    "config.remote_access_penalty_cycles": (
        "67432bef46d2342b5218b5d0e615318af9f909c6c99faa1ee985cf6f9c09683a"
    ),
    "app": (
        "3f0e7bc63348ad6bf9ff62c8789fedffdf497d59741a615d7b1d1349840b3d2a"
    ),
    "dataset": (
        "0831733d0e446ee50287186d74c7454d8dac6896b6c93392e1d80cc409a8767a"
    ),
    "scale": (
        "8d06a14af652a0ebd40180a88f3274cc5c11f0c9f70d0bd13897a2778c744beb"
    ),
    "seed": (
        "ffb83804667bc02a656627c1e05a38bf6d7cd4582f28d530321badf9b62ebd26"
    ),
    "verify": (
        "36aa3af23a11e5832205298a3f8f23c663c2a5e2a452225d1bb42e5186fb36ba"
    ),
    "pagerank_iterations": (
        "4f309a6a9fa4bc82ea1e9f381763b2744f8723f06e3d0c776395f88e0dc1e890"
    ),
}


class TestEquality:
    def test_independently_built_equal_specs_match(self):
        a, b = make_spec(), make_spec()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_dataset_aliases_resolve_to_the_same_key(self):
        assert make_spec(dataset="r16") == make_spec(dataset="RMAT16")

    def test_app_case_is_canonicalized(self):
        assert make_spec(app="BFS").key() == make_spec(app="bfs").key()

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            make_spec().app = "sssp"

    def test_usable_as_dict_and_set_keys(self):
        seen = {make_spec(): 1}
        assert seen[make_spec()] == 1
        assert len({make_spec(), make_spec(), make_spec(scale=0.25)}) == 2


class TestPerturbation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"app": "sssp"},
            {"dataset": "rmat22"},
            {"scale": 0.25},
            {"seed": 8},
            {"verify": False},
        ],
    )
    def test_spec_field_perturbations_change_the_key(self, overrides):
        assert make_spec(**overrides).key() != make_spec().key()

    def test_pagerank_iterations_keys_only_the_pagerank_app(self):
        # The knob cannot affect other kernels, so it must not fragment
        # their cache keys...
        assert (
            make_spec(pagerank_iterations=3).key() == make_spec().key()
        )
        # ...but it is part of a pagerank run's identity.
        assert (
            make_spec(app="pagerank", pagerank_iterations=3).key()
            != make_spec(app="pagerank").key()
        )

    def test_every_config_field_perturbation_changes_the_key(self):
        base = make_spec()
        # Every MachineConfig field must be covered, so a newly added knob
        # cannot silently alias distinct design points in the cache.
        assert set(CONFIG_PERTURBATIONS) == set(MachineConfig.__dataclass_fields__)
        seen = {base.key()}
        for field in CONFIG_PERTURBATIONS:
            key = perturbed_spec(f"config.{field}").key()
            assert key not in seen, f"perturbing {field!r} did not change the key"
            seen.add(key)


class TestStability:
    def test_key_is_hex_sha256(self):
        key = make_spec().key()
        assert len(key) == 64
        int(key, 16)

    def test_key_stable_across_processes_and_hash_seeds(self):
        code = (
            "from repro.core.config import MachineConfig\n"
            "from repro.runtime import RunSpec\n"
            "spec = RunSpec(app='bfs', dataset='rmat16',\n"
            "    config=MachineConfig(width=4, height=4, engine='analytic'),\n"
            "    scale=0.5, seed=7, verify=True, pagerank_iterations=5)\n"
            "print(spec.key())\n"
        )
        expected = make_spec().key()
        import repro

        src_path = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = src_path + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert proc.stdout.strip() == expected

    def test_version_field_participates(self):
        # Bumping SPEC_VERSION must invalidate old keys; this pins the
        # canonical form so the bump is a conscious act.
        assert make_spec().canonical()["version"] == SPEC_VERSION

    def test_key_is_pinned(self):
        # Any edit of the canonical form moves this digest, and with it
        # every key in every user's result cache: change it consciously.
        assert make_spec().key() == (
            "e387a5f80296c57328d51cc378e6bf880e99dee47f9f1369a6feace92350cc8d"
        )

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_every_perturbed_key_is_pinned(self, name):
        assert perturbed_spec(name).key() == PINNED_KEYS[name]

    def test_pins_cover_every_field(self):
        config_fields = {f"config.{field}" for field in CONFIG_PERTURBATIONS}
        assert set(PINNED_KEYS) == config_fields | set(SPEC_PERTURBATIONS)

    def test_canonical_form_holds_only_the_serial_fields(self):
        # The removed partition count never entered a serial key; the form
        # a client ships is exactly the fields a serial run is keyed by.
        assert set(make_spec().canonical()) == {
            "version", "app", "dataset", "config", "scale", "seed", "verify",
            "pagerank_iterations",
        }


class TestFromCanonical:
    def test_version_2_forms_still_parse(self):
        data = make_spec().canonical()
        data["version"] = 2
        restored = RunSpec.from_canonical(data)
        # Re-keying a v2 form lands on the current version, by design: the
        # version bump is the cache-invalidation event.
        assert restored.canonical()["version"] == SPEC_VERSION
        assert restored == make_spec()

    @pytest.mark.parametrize("version", [1, SPEC_VERSION + 1])
    def test_unknown_versions_raise(self, version):
        data = make_spec().canonical()
        data["version"] = version
        with pytest.raises(ValueError, match="version"):
            RunSpec.from_canonical(data)

    @pytest.mark.parametrize("version", [2, SPEC_VERSION])
    @pytest.mark.parametrize("shards", [1, 2, 64])
    def test_a_partition_count_is_refused(self, shards, version):
        # An older client, repro file or broker journal may still carry the
        # removed partition count; it must fail loudly, not run under a key
        # its submitter never waits for.  A count of 1 never entered a key,
        # but the field itself is gone, so it is refused all the same.
        data = dict(make_spec().canonical(), shards=shards, version=version)
        with pytest.raises(ValueError, match=r"\['shards'\].*partitioned execution"):
            RunSpec.from_canonical(data)

    def test_unknown_fields_are_refused(self):
        data = dict(make_spec().canonical(), frobnicate=True)
        with pytest.raises(ValueError, match="frobnicate"):
            RunSpec.from_canonical(data)
