"""Golden regression tests against the recorded figure results.

``benchmarks/results/fig13*/fig14*`` hold the latency tables the
benchmark suite last regenerated.  These tests re-derive a small subset
of those numbers (one fig13 panel curve and the fig14 zero-load
speculation gap) through the new sweep engine and compare against the
recorded values: the simulator is deterministic, so agreement should be
essentially exact, and the tolerances below only leave room for
intentional future simulator changes small enough not to change the
paper's conclusions.  If a change moves these numbers materially, the
benchmarks must be re-run (and ``SIMULATOR_REV`` bumped so stale sweep
caches are invalidated).

The compiled kernel is additionally pinned to the default kernel with
*exact* equality over a full recorded curve: all kernels are one
simulator, so the generated code must land on the committed tables to
the last bit, not merely within tolerance.
"""

import re
from pathlib import Path

import pytest

from repro.eval.netperf import latency_sweep
from repro.netsim.simulator import SimulationConfig, run_simulation

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

# Fidelity the recorded tables were produced at (benchmarks/conftest.py
# SIM_WINDOWS without REPRO_FULL): warmup 400, measure 1200, drain 1200.
RECORDED_FIDELITY = dict(
    warmup_cycles=400, measure_cycles=1200, drain_cycles=1200
)
MESH_C1_RATES = (0.05, 0.15, 0.25, 0.32, 0.38)


def _parse_panel(path: Path):
    """Parse a recorded figure table into {column: [latency, ...]} plus
    the trailing ``saturation rates:`` mapping."""
    lines = path.read_text().splitlines()
    header = None
    rows = []
    saturation = {}
    for line in lines:
        if line.startswith("inj rate"):
            header = line.split()
        elif line.startswith("saturation rates:"):
            for part in line.split(":", 1)[1].split(","):
                name, value = part.split("=")
                saturation[name.strip()] = float(value)
        elif header and re.match(r"^\d", line.strip()):
            rows.append([float(x) for x in line.split()])
    assert header, f"unparseable results table: {path}"
    # header was split on whitespace: ["inj", "rate", arch...]
    archs = header[2:]
    columns = {arch: [row[i + 1] for row in rows] for i, arch in enumerate(archs)}
    rates = [row[0] for row in rows]
    return rates, columns, saturation


@pytest.fixture(scope="module")
def fig13_mesh_c1():
    path = RESULTS / "fig13_network_mesh_2x1x1_VCs_V=2.txt"
    if not path.exists():
        pytest.skip("recorded fig13 results not present")
    return _parse_panel(path)


@pytest.fixture(scope="module")
def fig14_mesh_c1():
    path = RESULTS / "fig14_speculation_mesh_2x1x1_VCs_V=2.txt"
    if not path.exists():
        pytest.skip("recorded fig14 results not present")
    return _parse_panel(path)


@pytest.fixture(scope="module")
def rederived_sep_if():
    """One full fig13-style curve (mesh 2x1x1, sep_if) via the runner."""
    base = SimulationConfig(
        topology="mesh", vcs_per_class=1,
        sw_alloc_arch="sep_if", vc_alloc_arch="sep_if",
        speculation="pessimistic", **RECORDED_FIDELITY,
    )
    return latency_sweep(base, MESH_C1_RATES, label="sep_if")


class TestFig13MeshC1Golden:
    def test_recorded_grid_matches(self, fig13_mesh_c1):
        rates, _, _ = fig13_mesh_c1
        assert tuple(rates) == MESH_C1_RATES

    def test_zero_load_latency(self, fig13_mesh_c1, rederived_sep_if):
        _, columns, _ = fig13_mesh_c1
        assert rederived_sep_if.zero_load == pytest.approx(
            columns["sep_if"][0], rel=0.03
        )

    def test_curve_latencies(self, fig13_mesh_c1, rederived_sep_if):
        _, columns, _ = fig13_mesh_c1
        measured = [p.latency for p in rederived_sep_if.points]
        for got, want in zip(measured, columns["sep_if"]):
            # Post-saturation latencies are noisier; 10% covers them.
            assert got == pytest.approx(want, rel=0.10)

    def test_saturation_throughput(self, fig13_mesh_c1, rederived_sep_if):
        _, _, saturation = fig13_mesh_c1
        assert rederived_sep_if.saturation_rate() == pytest.approx(
            saturation["sep_if"], rel=0.07
        )


@pytest.fixture(scope="module")
def rederived_sep_if_compiled():
    """The same fig13 curve, simulated by the compiled kernel."""
    base = SimulationConfig(
        topology="mesh", vcs_per_class=1,
        sw_alloc_arch="sep_if", vc_alloc_arch="sep_if",
        speculation="pessimistic", **RECORDED_FIDELITY,
    )
    return latency_sweep(
        base, MESH_C1_RATES, label="sep_if",
        sim_fn=lambda cfg: run_simulation(cfg, kernel="compiled"),
    )


class TestCompiledKernelGolden:
    """The compiled kernel must reproduce the committed figure tables.

    The kernels are bit-identical by construction, so the compiled
    curve is compared against the default-kernel curve with *exact*
    equality (not a tolerance): any drift here means the generated code
    stopped being the same simulator.  The recorded-table comparison
    then rides on the same tolerances as the default-kernel golden
    tests above.
    """

    def test_curve_bit_identical_to_default_kernel(
        self, rederived_sep_if, rederived_sep_if_compiled
    ):
        fast, compiled = rederived_sep_if, rederived_sep_if_compiled
        assert compiled.zero_load == fast.zero_load
        assert compiled.saturation_rate() == fast.saturation_rate()
        assert len(compiled.points) == len(fast.points)
        for got, want in zip(compiled.points, fast.points):
            assert (got.rate, got.latency, got.p50, got.p95, got.p99,
                    got.accepted) == (want.rate, want.latency, want.p50,
                                      want.p95, want.p99, want.accepted)

    def test_recorded_fig13_table_reproduced(
        self, fig13_mesh_c1, rederived_sep_if_compiled
    ):
        _, columns, saturation = fig13_mesh_c1
        curve = rederived_sep_if_compiled
        assert curve.zero_load == pytest.approx(columns["sep_if"][0], rel=0.03)
        for got, want in zip(
            [p.latency for p in curve.points], columns["sep_if"]
        ):
            assert got == pytest.approx(want, rel=0.10)
        assert curve.saturation_rate() == pytest.approx(
            saturation["sep_if"], rel=0.07
        )

    def test_recorded_fig14_zero_load_reproduced(self, fig14_mesh_c1):
        _, columns, _ = fig14_mesh_c1
        base = SimulationConfig(
            topology="mesh", vcs_per_class=1,
            sw_alloc_arch="sep_if", vc_alloc_arch="sep_if",
            speculation="nonspec", **RECORDED_FIDELITY,
        )
        curve = latency_sweep(
            base, (0.05,),
            sim_fn=lambda cfg: run_simulation(cfg, kernel="compiled"),
        )
        assert curve.zero_load == pytest.approx(columns["nonspec"][0], rel=0.03)


class TestFig14MeshC1Golden:
    def test_speculation_zero_load_gap(self, fig14_mesh_c1):
        """Re-derive the nonspec zero-load point and check it against
        the recorded table; with the recorded spec_req zero-load this
        pins the paper's headline mesh improvement (~23%)."""
        _, columns, _ = fig14_mesh_c1
        base = SimulationConfig(
            topology="mesh", vcs_per_class=1,
            sw_alloc_arch="sep_if", vc_alloc_arch="sep_if",
            speculation="nonspec", **RECORDED_FIDELITY,
        )
        curve = latency_sweep(base, (0.05,))
        z_nonspec = curve.zero_load
        assert z_nonspec == pytest.approx(columns["nonspec"][0], rel=0.03)
        improvement = 1 - columns["spec_req"][0] / z_nonspec
        assert 0.12 < improvement < 0.35
