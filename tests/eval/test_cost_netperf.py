"""Tests for the cost sweep and network-performance harnesses."""

import pytest

from repro.eval.cost import (
    CostCache,
    CostResult,
    sparse_savings,
    speculation_delay_savings,
    switch_allocator_costs,
    vc_allocator_costs,
)
from repro.eval.design_points import (
    ALL_POINTS,
    FBFLY_POINTS,
    MESH_POINTS,
    DesignPoint,
)
from repro.eval.netperf import LatencyCurve, SweepPoint, latency_sweep
from repro.eval.tables import format_cost_results, format_curves, format_table
from repro.netsim.simulator import SimulationConfig


class TestDesignPoints:
    def test_six_points(self):
        assert len(ALL_POINTS) == 6
        assert [p.num_vcs for p in MESH_POINTS] == [2, 4, 8]
        assert [p.num_vcs for p in FBFLY_POINTS] == [4, 8, 16]

    def test_labels(self):
        assert MESH_POINTS[0].label == "mesh 2x1x1 VCs (V=2)"
        assert FBFLY_POINTS[2].label == "fbfly 2x2x4 VCs (V=16)"

    def test_partitions(self):
        assert MESH_POINTS[1].partition.num_resource_classes == 1
        assert FBFLY_POINTS[1].partition.num_resource_classes == 2


class TestCostSweep:
    def test_vc_costs_smallest_point(self, tmp_path):
        cache = CostCache(str(tmp_path / "cache.json"))
        results = vc_allocator_costs(
            MESH_POINTS[0], variants=[("sep_if", "rr"), ("wf", "rr")], cache=cache
        )
        assert len(results) == 4  # 2 variants x dense/sparse
        ok = [r for r in results if not r.failed]
        assert len(ok) == 4
        for r in ok:
            assert r.delay_ns > 0 and r.area_um2 > 0 and r.power_mw > 0

    def test_cache_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = CostCache(path)
        r1 = vc_allocator_costs(
            MESH_POINTS[0], variants=[("sep_if", "rr")], cache=cache
        )
        cache2 = CostCache(path)
        r2 = vc_allocator_costs(
            MESH_POINTS[0], variants=[("sep_if", "rr")], cache=cache2
        )
        assert [x.delay_ns for x in r1] == [x.delay_ns for x in r2]

    def test_failures_recorded_for_infeasible_points(self, tmp_path):
        cache = CostCache(str(tmp_path / "cache.json"))
        results = vc_allocator_costs(
            FBFLY_POINTS[2], variants=[("sep_if", "m")], cache=cache
        )
        assert all(r.failed for r in results)  # dense AND sparse too big

    def test_switch_costs_have_three_scheme_points(self, tmp_path):
        cache = CostCache(str(tmp_path / "cache.json"))
        results = switch_allocator_costs(
            MESH_POINTS[0], variants=[("sep_if", "rr")], cache=cache
        )
        assert [r.variant for r in results] == [
            "nonspec",
            "pessimistic",
            "conventional",
        ]

    def test_sparse_savings_computation(self):
        results = [
            CostResult("x", "sep_if", "rr", "dense", 2.0, 100.0, 10.0, 50),
            CostResult("x", "sep_if", "rr", "sparse", 1.0, 20.0, 4.0, 10),
        ]
        s = sparse_savings(results)["sep_if/rr"]
        assert s["delay"] == pytest.approx(0.5)
        assert s["area"] == pytest.approx(0.8)
        assert s["power"] == pytest.approx(0.6)

    def test_sparse_savings_skips_failed(self):
        results = [
            CostResult("x", "wf", "rr", "dense", None, None, None, None, True),
            CostResult("x", "wf", "rr", "sparse", 1.0, 20.0, 4.0, 10),
        ]
        assert sparse_savings(results) == {}

    def test_speculation_savings_computation(self):
        results = [
            CostResult("x", "wf", "rr", "nonspec", 1.0, 1, 1, 1),
            CostResult("x", "wf", "rr", "pessimistic", 1.1, 1, 1, 1),
            CostResult("x", "wf", "rr", "conventional", 1.43, 1, 1, 1),
        ]
        s = speculation_delay_savings(results)
        assert s["wf/rr"] == pytest.approx(1 - 1.1 / 1.43)


class TestLatencyCurve:
    def _curve(self, pts):
        return LatencyCurve("t", [SweepPoint(*p) for p in pts])

    def test_zero_load(self):
        c = self._curve([(0.05, 10.0, 0.05, False), (0.2, 12.0, 0.2, False)])
        assert c.zero_load == 10.0

    def test_saturation_interpolated(self):
        c = self._curve(
            [(0.1, 10.0, 0.1, False), (0.2, 20.0, 0.2, False), (0.3, 60.0, 0.25, False)]
        )
        # limit = 30; crossing between 0.2 (20) and 0.3 (60): 0.2 + 0.25*0.1
        assert c.saturation_rate() == pytest.approx(0.225)

    def test_saturation_none_reached(self):
        c = self._curve([(0.1, 10.0, 0.1, False), (0.2, 11.0, 0.2, False)])
        assert c.saturation_rate() == 0.2

    def test_saturation_with_inf_point(self):
        c = self._curve([(0.1, 10.0, 0.1, False), (0.2, float("inf"), 0.1, True)])
        assert c.saturation_rate() == 0.1

    def test_first_point_saturated(self):
        c = self._curve([(0.5, float("inf"), 0.1, True)])
        assert c.saturation_rate() == 0.5


class TestLatencySweepIntegration:
    def test_small_mesh_sweep(self):
        base = SimulationConfig(
            topology="mesh",
            vcs_per_class=1,
            warmup_cycles=200,
            measure_cycles=400,
            drain_cycles=400,
        )
        curve = latency_sweep(base, rates=(0.05, 0.9), label="sep_if")
        assert curve.label == "sep_if"
        assert len(curve.points) == 2
        assert curve.points[0].latency > 0
        # 0.9 flits/cycle is far past mesh saturation.
        assert curve.points[1].saturated


class TestTables:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [None, "x"]], title="T")
        assert "T" in out
        assert "2.500" in out
        assert "-" in out

    def test_format_curves(self):
        out = format_curves("rate", [0.1, 0.2], {"wf": [1.0, 0.9]})
        assert "wf" in out and "0.900" in out

    def test_format_cost_results(self):
        rows = [
            CostResult("x", "wf", "rr", "sparse", 1.0, 10.0, 0.5, 42),
            CostResult("x", "wf", "rr", "dense", None, None, None, None, True),
        ]
        out = format_cost_results(rows, title="fig")
        assert "FAILED" in out
        assert "42" in out


class TestFigureRegistry:
    def test_every_experiment_has_an_existing_benchmark(self):
        from pathlib import Path

        from repro.eval.figures import list_experiments

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        for exp in list_experiments():
            assert (bench_dir / exp.benchmark).exists(), exp.figure

    def test_modules_importable(self):
        import importlib

        from repro.eval.figures import list_experiments

        for exp in list_experiments():
            for mod in exp.modules:
                importlib.import_module(mod)

    def test_index_renders(self):
        from repro.eval.figures import format_experiment_index

        text = format_experiment_index()
        assert "fig12" in text and "benchmarks/" in text
