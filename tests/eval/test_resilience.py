"""Resilience campaign: fault selection, artifact shape, cache reuse."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.resilience import (
    RESILIENCE_SCHEMA,
    campaign_configs,
    format_resilience,
    full_delivery_violations,
    link_fault_plan,
    load_resilience_artifact,
    mesh_link_candidates,
    run_resilience_campaign,
    select_faulted_links,
    write_resilience_artifact,
)
from repro.eval.runner import ResultCache

QUICK = dict(fault_counts=[0, 1], cycles=150, injection_rate=0.05)


class TestLinkSelection:
    def test_every_directed_inter_router_link_once(self):
        links = mesh_link_candidates()
        assert len(links) == 224  # 2 * 2 * 8 * 7 directed mesh links
        assert len(set(links)) == 224
        # Terminal ports (port 0) are never candidates.
        assert all(port in (1, 2, 3, 4) for _, port in links)

    def test_selection_is_deterministic_and_nested(self):
        assert select_faulted_links(3, seed=7) == select_faulted_links(
            3, seed=7
        )
        assert (
            select_faulted_links(2, seed=7)
            == select_faulted_links(5, seed=7)[:2]
        )

    @pytest.mark.parametrize("seed,links", [
        (1, [(44, 3), (54, 1), (38, 4), (50, 2), (6, 1), (19, 3), (16, 3),
             (4, 3), (43, 2), (28, 3), (27, 1), (27, 2), (17, 3), (29, 2),
             (26, 4), (20, 3)]),
        (7, [(50, 1), (49, 3), (44, 4), (46, 2), (57, 1), (38, 2), (26, 3),
             (54, 1), (1, 2), (30, 4), (4, 1), (18, 1), (38, 4), (40, 4),
             (42, 4), (42, 3)]),
    ])
    def test_selection_is_pinned(self, seed, links):
        # Captured from the coordinate scan that preceded the topology
        # description: the nested fault sets, and with them the CI
        # ``--require-full-delivery 4`` gate, must not shift.
        assert select_faulted_links(16, seed) == links

    def test_different_seeds_differ(self):
        assert select_faulted_links(8, 1) != select_faulted_links(8, 2)

    def test_count_bounds_checked(self):
        with pytest.raises(ValueError):
            select_faulted_links(225, 1)
        with pytest.raises(ValueError):
            select_faulted_links(-1, 1)

    def test_zero_faults_is_a_fault_free_baseline(self):
        assert link_fault_plan(0, 1) is None
        plan = link_fault_plan(2, 1)
        assert len(plan.link_faults) == 2
        assert all(f.permanent for f in plan.link_faults)


class TestCampaignConfigs:
    def test_vc_budget_held_fixed_across_modes(self):
        plan = campaign_configs([0, 1], total_vcs=8)
        by_mode = {}
        for mode, _, cfg in plan:
            by_mode.setdefault(mode, cfg)
        assert by_mode["default"].vcs_per_class == 4
        assert by_mode["ft_dor"].vcs_per_class == 2
        assert by_mode["ft_dor"].routing == "ft_dor"
        assert by_mode["default"].routing == "default"

    def test_same_fault_plan_across_modes(self):
        plan = campaign_configs([1], total_vcs=8)
        faults = {cfg.faults for _, _, cfg in plan}
        assert len(faults) == 1

    def test_indivisible_vc_budget_rejected(self):
        with pytest.raises(ValueError, match="total_vcs"):
            campaign_configs([0], total_vcs=6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            campaign_configs([0], modes=["adaptive"])

    def test_watchdog_armed_on_every_point(self):
        assert all(
            cfg.watchdog_cycles >= 1000
            for _, _, cfg in campaign_configs([0, 1])
        )


class TestCampaign:
    def test_artifact_shape_and_gate(self, tmp_path):
        artifact = run_resilience_campaign(**QUICK)
        assert artifact["schema"] == RESILIENCE_SCHEMA
        assert set(artifact["curves"]) == {"default", "ft_dor"}
        for points in artifact["curves"].values():
            assert [p["link_faults"] for p in points] == [0, 1]
            assert all(not p["failed"] for p in points)
        # The fault-free baseline delivers everything in both modes.
        for mode in ("default", "ft_dor"):
            assert artifact["curves"][mode][0]["delivered_fraction"] == 1.0
        assert full_delivery_violations(artifact, max_faults=1) == []
        # The text rendering names both modes and every fault count.
        table = format_resilience(artifact)
        assert "ft_dor delivered" in table and "default delivered" in table

        path = tmp_path / "resilience.json"
        write_resilience_artifact(artifact, path)
        assert load_resilience_artifact(path) == json.loads(path.read_text())

    def test_campaign_round_trips_through_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        first = run_resilience_campaign(**QUICK, cache=cache)
        assert cache.misses == 4 and cache.hits == 0

        cache2 = ResultCache(tmp_path / "cache.json")
        second = run_resilience_campaign(**QUICK, cache=cache2)
        assert cache2.hits == 4 and cache2.misses == 0
        assert first == second

    def test_gate_flags_a_mode_that_cannot_deliver(self):
        artifact = run_resilience_campaign(**QUICK)
        # The default-routing curve loses packets at k=1 (that is the
        # point of the campaign); the gate must say so when pointed at
        # that mode.
        assert full_delivery_violations(artifact, 1, mode="default")
        assert full_delivery_violations(artifact, 1, mode="missing")

    def test_schema_marker_checked_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema"):
            load_resilience_artifact(path)
        # Valid JSON that is not an object at all gets the same error.
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="schema"):
            load_resilience_artifact(path)


class TestValidatorIntegration:
    def test_validate_telemetry_accepts_the_artifact(self, tmp_path):
        artifact = run_resilience_campaign(**QUICK)
        path = tmp_path / "resilience.json"
        write_resilience_artifact(artifact, path)
        script = (
            Path(__file__).resolve().parents[2]
            / "scripts" / "validate_telemetry.py"
        )
        proc = subprocess.run(
            [sys.executable, str(script), "--resilience", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resilience" in proc.stdout

    def test_validate_telemetry_rejects_a_truncated_curve(self, tmp_path):
        artifact = run_resilience_campaign(**QUICK)
        artifact["curves"]["ft_dor"].pop()
        path = tmp_path / "resilience.json"
        write_resilience_artifact(artifact, path)
        script = (
            Path(__file__).resolve().parents[2]
            / "scripts" / "validate_telemetry.py"
        )
        proc = subprocess.run(
            [sys.executable, str(script), "--resilience", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "point(s)" in proc.stderr
