"""Topology-derived terminal counts and configurable hotspot placement.

Two satellite fixes ride together here: ``build_network`` used to hand
``resolve_pattern`` a hardcoded 64 terminals (a silent mis-mapping
trap for any future non-64-terminal topology), and the hotspot pattern
hardcoded its hotspot set to ``[0, N // 2]`` (unsweepable, invisible
to the cache key).
"""

import dataclasses

import pytest

from repro.eval.runner import config_key
from repro.netsim.simulator import (
    SimulationConfig,
    build_network,
    topology_num_terminals,
)


class TestTopologyNumTerminals:
    @pytest.mark.parametrize("topology", ["mesh", "fbfly", "torus"])
    def test_matches_the_built_network(self, topology):
        # The helper must stay derived from the same geometry the
        # builders receive -- a drift here silently mis-maps every
        # permutation pattern.
        net = build_network(SimulationConfig(topology=topology))
        assert topology_num_terminals(topology) == net.num_terminals

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology_num_terminals("hypercube")


class TestHotspotPlacement:
    def test_default_placement_preserved(self):
        # hotspot_terminals=None keeps the historical [0, N // 2]
        # placement and the historical serialized form.
        cfg = SimulationConfig(traffic_pattern="hotspot")
        assert "hotspot_terminals" not in cfg.to_dict()
        build_network(cfg)  # default placement still builds

    def test_explicit_placement_builds_and_roundtrips(self):
        cfg = SimulationConfig(
            traffic_pattern="hotspot", hotspot_terminals=[3, 17, 42]
        )
        build_network(cfg)
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert again.hotspot_terminals == [3, 17, 42]

    def test_out_of_range_hotspot_rejected(self):
        cfg = SimulationConfig(
            traffic_pattern="hotspot", hotspot_terminals=[0, 64]
        )
        with pytest.raises(ValueError, match="out of range"):
            build_network(cfg)

    def test_placement_enters_the_cache_key(self):
        base = SimulationConfig(traffic_pattern="hotspot")
        moved = dataclasses.replace(base, hotspot_terminals=[1, 2])
        default_explicit = dataclasses.replace(
            base, hotspot_terminals=[0, 32]
        )
        assert config_key(base) != config_key(moved)
        # Even spelling out the default placement keys differently:
        # None means "the historical default", not "[0, 32]", so
        # pre-existing cache entries are never served a lie.
        assert config_key(base) != config_key(default_explicit)

    def test_non_hotspot_configs_keep_legacy_keys(self):
        # Pinned from the pre-hotspot-field build: the default config's
        # serialized form (and so its cache key) must not change.
        assert "hotspot_terminals" not in SimulationConfig().to_dict()
        # (Salted with the rev it was recorded at: a SIMULATOR_REV bump
        # moves every default-salted key on purpose.)
        assert config_key(SimulationConfig(), "sim-rev-3") == (
            "41eb76681cff1e9e66613164299f6b65"
        )
