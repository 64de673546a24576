#!/usr/bin/env python3
"""Quickstart: allocate, measure quality, synthesize, simulate.

A five-minute tour of the library reproducing Becker & Dally,
"Allocator Implementations for Network-on-Chip Routers" (SC 2009):

1. run the three allocator architectures on a request matrix;
2. compare their matching quality against a maximum-size allocator;
3. "synthesize" a VC allocator with the gate-level cost model (the
   repo's stand-in for the paper's Design Compiler flow);
4. simulate a 64-node mesh and read off average packet latency.

Run:  python examples/quickstart.py   (numpy is not needed)
"""

from repro.core import (
    MaximumSizeAllocator,
    SeparableInputFirstAllocator,
    SeparableOutputFirstAllocator,
    VCPartition,
    WavefrontAllocator,
    matching_size,
)
from repro.hw import SynthesisCapacityError, synthesize_vc_allocator
from repro.netsim import SimulationConfig, run_simulation
from repro.netsim.rng import PCG64Stream


def random_requests(rng: PCG64Stream, n: int, density: float) -> list:
    """An n x n request matrix, each cell requested with ``density``."""
    draws = rng.random(n * n)
    return [[u < density for u in draws[i * n:(i + 1) * n]] for i in range(n)]


def demo_allocators() -> None:
    print("=== 1. Allocator architectures on one request matrix ===")
    requests = random_requests(PCG64Stream(42), 8, 0.5)
    print(f"requests ({sum(map(sum, requests))} total):")
    for row in requests:
        print("   " + "".join("R" if r else "." for r in row))

    allocators = {
        "sep_if (separable input-first)": SeparableInputFirstAllocator(8, 8),
        "sep_of (separable output-first)": SeparableOutputFirstAllocator(8, 8),
        "wf     (wavefront)": WavefrontAllocator(8, 8),
        "maxsize (upper bound)": MaximumSizeAllocator(8, 8),
    }
    for name, alloc in allocators.items():
        grants = alloc.allocate(requests)
        print(f"   {name}: {matching_size(grants)} grants")
    print()


def demo_matching_quality() -> None:
    print("=== 2. Matching quality under load (cf. Figure 12) ===")
    rng = PCG64Stream(0)
    allocators = {
        "sep_if": SeparableInputFirstAllocator(10, 10),
        "sep_of": SeparableOutputFirstAllocator(10, 10),
        "wf": WavefrontAllocator(10, 10),
    }
    reference = MaximumSizeAllocator(10, 10)
    totals = {name: 0 for name in allocators}
    total_max = 0
    for _ in range(2000):
        req = random_requests(rng, 10, 0.6)
        total_max += matching_size(reference.allocate(req))
        for name, alloc in allocators.items():
            totals[name] += matching_size(alloc.allocate(req))
    for name, total in totals.items():
        print(f"   {name}: matching quality = {total / total_max:.3f}")
    print()


def demo_synthesis() -> None:
    print("=== 3. Gate-level cost model (cf. Figures 5/6) ===")
    partition = VCPartition.mesh(2)  # 2 message classes x 2 VCs = V=4
    for sparse in (False, True):
        label = "sparse" if sparse else "dense "
        rep = synthesize_vc_allocator(5, partition, "sep_if", "rr", sparse)
        print(
            f"   sep_if/rr {label}: {rep.delay_ns:.2f} ns, "
            f"{rep.area_um2:,.0f} um2, {rep.power_mw:.2f} mW, "
            f"{rep.num_cells} cells"
        )
    try:
        synthesize_vc_allocator(10, VCPartition.fbfly(4), "wf", "rr", True)
    except SynthesisCapacityError as exc:
        print(f"   fbfly 2x2x4 wavefront: {exc}")
    print()


def demo_network() -> None:
    print("=== 4. 64-node mesh simulation (cf. Figures 13/14) ===")
    for rate in (0.1, 0.3):
        cfg = SimulationConfig(
            topology="mesh",
            vcs_per_class=1,
            injection_rate=rate,
            warmup_cycles=500,
            measure_cycles=1500,
            drain_cycles=1500,
        )
        res = run_simulation(cfg)
        print(
            f"   offered {rate:.2f} flits/cycle/node -> "
            f"avg latency {res.avg_latency:.1f} cycles "
            f"({res.measured_packets} packets, "
            f"{res.speculative_wins} speculative crossbar wins)"
        )


if __name__ == "__main__":
    demo_allocators()
    demo_matching_quality()
    demo_synthesis()
    demo_network()
