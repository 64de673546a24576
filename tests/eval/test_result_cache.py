"""Behaviour of the persistent sweep-result cache.

Covers the contract the figure benchmarks rely on: hits round-trip the
full result losslessly, *any* config field change misses, corrupt files
and corrupt individual entries recover gracefully, writes are atomic,
and the ``--no-cache`` CLI flag really bypasses the store.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.eval.runner import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_key,
    run_point,
    run_sweep,
)
from repro.faults import FaultPlan
from repro.netsim.simulator import SimulationConfig, SimulationResult
from repro.netsim.stats import LatencySummary


def _result(cfg: SimulationConfig) -> SimulationResult:
    return SimulationResult(
        config=cfg,
        avg_latency=24.5,
        measured_packets=300,
        delivered_packets=300,
        injected_flit_rate=0.05,
        accepted_flit_rate=0.05,
        saturated=False,
        misspeculations=3,
        speculative_wins=290,
        latency_by_class={0: 24.0, 1: 25.0},
        latency_summary=LatencySummary(300, 24.5, 4.0, 18.0, 24.0, 31.0, 35.0, 40.0),
        latency_stderr=0.4,
    )


# A counting stand-in for run_simulation (analytic, instant).
class _FakeSim:
    def __init__(self):
        self.calls = 0

    def __call__(self, cfg: SimulationConfig) -> SimulationResult:
        self.calls += 1
        return _result(cfg)


class TestHitMiss:
    def test_round_trip_is_lossless(self, tmp_path):
        cfg = SimulationConfig(injection_rate=0.2)
        cache = ResultCache(tmp_path / "c.json")
        assert cache.get(cfg) is None
        cache.put(cfg, _result(cfg))
        cache.flush()  # persistence is batched; see test_cache_flush_batching
        reread = ResultCache(tmp_path / "c.json").get(cfg)
        assert reread == _result(cfg)
        # JSON stringifies dict keys; they must come back as ints.
        assert set(reread.latency_by_class) == {0, 1}
        assert isinstance(reread.latency_summary, LatencySummary)
        assert reread.config == cfg

    def test_counters(self, tmp_path):
        cfg = SimulationConfig()
        cache = ResultCache(tmp_path / "c.json")
        cache.get(cfg)
        cache.put(cfg, _result(cfg))
        cache.get(cfg)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_run_point_uses_cache(self, tmp_path):
        cfg = SimulationConfig()
        cache = ResultCache(tmp_path / "c.json")
        sim = _FakeSim()
        run_point(cfg, cache=cache, sim_fn=sim)
        run_point(cfg, cache=cache, sim_fn=sim)
        assert sim.calls == 1

    def test_run_sweep_mixes_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        configs = [SimulationConfig(injection_rate=r) for r in (0.1, 0.2, 0.3)]
        sim = _FakeSim()
        run_sweep(configs[:2], cache=cache, sim_fn=sim)
        results = run_sweep(configs, cache=cache, sim_fn=sim)
        assert sim.calls == 3  # only the third point was new
        assert [r.config.injection_rate for r in results] == [0.1, 0.2, 0.3]


class TestKeying:
    def test_every_config_field_affects_the_key(self):
        base = SimulationConfig()
        bumped = {
            str: lambda v: v + "_x",
            int: lambda v: v + 1,
            float: lambda v: v + 0.015625,
            bool: lambda v: not v,
        }
        # Optional fields default to a sentinel that is *omitted* from
        # the serialized form; bump them to their smallest enabled value.
        overrides = {
            "faults": FaultPlan(stuck_vc_rate=0.25),
            "hotspot_terminals": [0, 5],
        }
        for f in dataclasses.fields(SimulationConfig):
            value = getattr(base, f.name)
            if f.name in overrides:
                new_value = overrides[f.name]
            else:
                new_value = bumped[type(value)](value)
            variant = dataclasses.replace(base, **{f.name: new_value})
            assert config_key(variant) != config_key(base), f.name

    def test_fault_plan_details_affect_the_key(self):
        # Not just faults-vs-no-faults: two different plans must key
        # differently, and the same plan twice must key identically.
        a = SimulationConfig(faults=FaultPlan(seed=1, link_rate=0.01))
        b = SimulationConfig(faults=FaultPlan(seed=2, link_rate=0.01))
        c = SimulationConfig(faults=FaultPlan(seed=1, link_rate=0.01))
        assert config_key(a) != config_key(b)
        assert config_key(a) == config_key(c)

    def test_disabled_fault_fields_keep_legacy_key(self):
        # faults=None / watchdog_cycles=0 serialize exactly as pre-fault
        # configs did, so caches written before the fields existed stay
        # valid.  The expected digest is pinned from the pre-fault build.
        assert "faults" not in SimulationConfig().to_dict()
        assert "watchdog_cycles" not in SimulationConfig().to_dict()

    def test_salt_affects_the_key(self):
        cfg = SimulationConfig()
        assert config_key(cfg, "sim-rev-1") != config_key(cfg, "sim-rev-2")

    def test_key_is_stable_across_instances(self):
        assert config_key(SimulationConfig()) == config_key(SimulationConfig())

    def test_keys_and_signatures_are_pinned(self):
        # Recorded when keys still hashed through hashlib: whichever
        # SHA-256 computes them, no cache or checkpoint is invalidated.
        # Salted explicitly with the rev they were recorded at, since a
        # SIMULATOR_REV bump moves every default-salted key on purpose.
        from repro.eval.checkpoint import sweep_signature
        from repro.faults.plan import parse_fault_spec

        plain = SimulationConfig()
        faulted = SimulationConfig(
            topology="fbfly", injection_rate=0.3, traffic_pattern="transpose",
            faults=parse_fault_spec("vcs=0.05,seed=3"),
        )
        rev3 = "sim-rev-3"
        assert config_key(plain, rev3) == "41eb76681cff1e9e66613164299f6b65"
        assert config_key(plain, salt="x") == "2df75f246fdf7c7bf46a5b194fde47c3"
        assert config_key(faulted, rev3) == "d15f772c14b5fbcaff1e0ecc016e9ffa"
        assert config_key(faulted, salt="x") == "f7d978d30ce551da76d1240d48f537f9"
        keys = [config_key(plain, rev3), config_key(faulted, rev3)]
        assert sweep_signature(keys) == "b545bf55b2d9ca68a4b391ca0faa9693"
        assert sweep_signature([]) == "e3b0c44298fc1c149afbf4c8996fb924"


class TestKernelIndependence:
    """Cache keys must not encode the simulation kernel.

    The kernels are bit-identical, so a payload computed by any of them
    is valid for all of them; keying on the kernel would fracture the
    cache three ways and silently triple sweep costs.
    """

    WINDOWS = dict(warmup_cycles=60, measure_cycles=200, drain_cycles=250)

    def test_kernel_is_not_a_config_axis(self):
        # The key is a digest of the canonical config serialization;
        # the kernel is a runtime choice and must not appear in it.
        cfg = SimulationConfig(**self.WINDOWS)
        assert "kernel" not in cfg.to_dict()
        assert config_key(cfg) == config_key(SimulationConfig(**self.WINDOWS))

    @pytest.mark.parametrize("producer", ["reference", "fast", "compiled"])
    def test_any_kernel_payload_serves_every_kernel(self, tmp_path, producer):
        from repro.netsim.simulator import run_simulation

        cfg = SimulationConfig(injection_rate=0.2, **self.WINDOWS)
        cache = ResultCache(tmp_path / "c.json")
        cache.put(cfg, run_simulation(cfg, kernel=producer))
        cache.flush()

        # A later sweep -- whatever kernel it would have used -- hits.
        sim = _FakeSim()
        cached = run_point(cfg, cache=cache, sim_fn=sim)
        assert sim.calls == 0
        # And the payload it serves is the one every kernel computes.
        assert cached == run_simulation(cfg, kernel="fast")


class TestCorruptionRecovery:
    def test_garbage_file_starts_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{this is not json")
        cache = ResultCache(path)
        cfg = SimulationConfig()
        assert cache.get(cfg) is None
        cache.put(cfg, _result(cfg))
        cache.flush()
        assert ResultCache(path).get(cfg) is not None

    def test_truncated_file_starts_empty(self, tmp_path):
        path = tmp_path / "c.json"
        good = ResultCache(path)
        good.put(SimulationConfig(), _result(SimulationConfig()))
        good.flush()
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        assert len(ResultCache(path)) == 0

    def test_corrupt_entry_dropped_and_recomputed(self, tmp_path):
        path = tmp_path / "c.json"
        cfg = SimulationConfig()
        cache = ResultCache(path)
        cache.put(cfg, _result(cfg))
        cache.flush()
        doc = json.loads(path.read_text())
        key = next(iter(doc["entries"]))
        doc["entries"][key] = {"avg_latency": "not-even-close"}
        path.write_text(json.dumps(doc))
        fresh = ResultCache(path)
        assert fresh.get(cfg) is None  # dropped, not crashed
        sim = _FakeSim()
        run_point(cfg, cache=fresh, sim_fn=sim)
        assert sim.calls == 1
        assert fresh.get(cfg) is not None

    def test_schema_version_mismatch_discards_entries(self, tmp_path):
        path = tmp_path / "c.json"
        cfg = SimulationConfig()
        cache = ResultCache(path)
        cache.put(cfg, _result(cfg))
        cache.flush()
        doc = json.loads(path.read_text())
        doc["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert len(ResultCache(path)) == 0

    def test_simulator_rev_mismatch_discards_entries(self, tmp_path):
        path = tmp_path / "c.json"
        cfg = SimulationConfig()
        cache = ResultCache(path)
        cache.put(cfg, _result(cfg))
        cache.flush()
        doc = json.loads(path.read_text())
        doc["salt"] = "sim-rev-999"
        path.write_text(json.dumps(doc))
        assert ResultCache(path).get(cfg) is None

    def test_garbage_file_quarantined_for_inspection(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{this is not json")
        ResultCache(path)
        corrupt = tmp_path / "c.json.corrupt"
        assert corrupt.exists()
        assert corrupt.read_text() == "{this is not json"

    def test_checksum_mismatch_recovers_intact_entries(self, tmp_path):
        # Tampered content under a stale checksum: salvage every entry
        # that still deserializes, drop the rest, and say so.
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        good_cfg = SimulationConfig(injection_rate=0.1)
        bad_cfg = SimulationConfig(injection_rate=0.2)
        cache.put(good_cfg, _result(good_cfg))
        cache.put(bad_cfg, _result(bad_cfg))
        cache.flush()
        doc = json.loads(path.read_text())
        bad_key = ResultCache(path).key(bad_cfg)
        doc["entries"][bad_key] = {"vandalized": True}
        path.write_text(json.dumps(doc))  # checksum now stale

        warnings = []
        from repro.obs.metrics import add_warning_sink, remove_warning_sink

        add_warning_sink(warnings.append)
        try:
            fresh = ResultCache(path)
        finally:
            remove_warning_sink(warnings.append)
        assert fresh.get(good_cfg) == _result(good_cfg)
        assert fresh.get(bad_cfg) is None
        codes = [w.code for w in warnings]
        assert "cache_checksum_mismatch" in codes

    def test_flush_failure_warns_instead_of_raising(self, tmp_path, monkeypatch):
        import os as os_mod

        path = tmp_path / "c.json"
        cache = ResultCache(path)

        def broken_replace(src, dst):
            raise OSError("disk on fire")

        warnings = []
        from repro.obs.metrics import add_warning_sink, remove_warning_sink

        add_warning_sink(warnings.append)
        monkeypatch.setattr(os_mod, "replace", broken_replace)
        try:
            cache.put(SimulationConfig(), _result(SimulationConfig()))
            cache.flush()  # put() alone only marks the entry dirty
        finally:
            remove_warning_sink(warnings.append)
        assert any(w.code == "cache_flush_failed" for w in warnings)
        # The in-memory entry survives even though the disk write failed.
        assert cache.get(SimulationConfig()) is not None

    def test_writes_are_atomic(self, tmp_path):
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        for r in (0.1, 0.2, 0.3):
            cfg = SimulationConfig(injection_rate=r)
            cache.put(cfg, _result(cfg))
        cache.flush()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "c.json"]
        assert leftovers == []
        assert len(json.loads(path.read_text())["entries"]) == 3

    def test_env_var_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env.json"))
        assert str(ResultCache().path) == str(tmp_path / "env.json")


class TestCliBypass:
    ARGS = ["sweep", "--rates", "0.05", "--cycles", "200"]

    def test_no_cache_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "cli.json"
        rc = main(self.ARGS + ["--no-cache", "--cache-path", str(path)])
        assert rc == 0
        assert not path.exists()
        assert "cache:" not in capsys.readouterr().out

    def test_cache_path_written_and_reused(self, tmp_path, capsys):
        path = tmp_path / "cli.json"
        assert main(self.ARGS + ["--cache-path", str(path)]) == 0
        first = capsys.readouterr().out
        assert "1 miss(es)" in first
        assert path.exists()
        assert main(self.ARGS + ["--cache-path", str(path)]) == 0
        second = capsys.readouterr().out
        assert "1 hit(s)" in second
        # Identical numbers either way.
        assert first.splitlines()[:4] == second.splitlines()[:4]
