#!/usr/bin/env python3
"""Design-space exploration: pick an allocator for *your* router.

The paper's conclusion is that the right allocator depends on the
network's operating point: latency-sensitive designs favor fast
separable allocators and speculation; throughput-oriented designs favor
matching quality (wavefront).  This example walks the tradeoff for a
user-specified router configuration the way an architect would:

1. synthesize every allocator variant for the design point and rank
   them by delay / area / power;
2. measure matching quality at the expected load;
3. print a recommendation table combining both.

Run:  python examples/design_space_exploration.py [--ports P] [--vcs C]
"""

import argparse

from repro.eval.design_points import DesignPoint, SWITCH_VARIANTS, VC_VARIANTS
from repro.eval.matching import switch_matching_quality, vc_matching_quality
from repro.eval.tables import format_table
from repro.hw import (
    SynthesisCapacityError,
    synthesize_switch_allocator,
    synthesize_vc_allocator,
)


def explore_vc_allocators(point: DesignPoint, load: float, samples: int) -> None:
    print(f"--- VC allocators for {point.label} ---")
    quality = vc_matching_quality(
        point, rates=(load,), num_samples=samples
    )
    rows = []
    for arch, arbiter in VC_VARIANTS:
        try:
            rep = synthesize_vc_allocator(
                point.num_ports, point.partition, arch, arbiter, sparse=True
            )
            rows.append(
                [
                    f"{arch}/{arbiter}",
                    f"{rep.delay_ns:.2f}",
                    f"{rep.area_um2:,.0f}",
                    f"{rep.power_mw:.2f}",
                    f"{quality[arch].at(load):.3f}",
                ]
            )
        except SynthesisCapacityError:
            rows.append([f"{arch}/{arbiter}", "infeasible", "-", "-", "-"])
    print(
        format_table(
            ["variant", "delay (ns)", "area (um2)", "power (mW)",
             f"quality @ {load}"],
            rows,
        )
    )
    print()


def explore_switch_allocators(point: DesignPoint, load: float, samples: int) -> None:
    print(f"--- Switch allocators for {point.label} (pessimistic spec) ---")
    quality = switch_matching_quality(point, rates=(load,), num_samples=samples)
    rows = []
    best = None
    for arch, arbiter in SWITCH_VARIANTS:
        rep = synthesize_switch_allocator(
            point.num_ports, point.num_vcs, arch, arbiter, "pessimistic"
        )
        q = quality[arch].at(load)
        rows.append(
            [
                f"{arch}/{arbiter}",
                f"{rep.delay_ns:.2f}",
                f"{rep.area_um2:,.0f}",
                f"{rep.power_mw:.2f}",
                f"{q:.3f}",
            ]
        )
        score = q / rep.delay_ns  # quality per ns: a crude merit figure
        if best is None or score > best[1]:
            best = (f"{arch}/{arbiter}", score)
    print(
        format_table(
            ["variant", "delay (ns)", "area (um2)", "power (mW)",
             f"quality @ {load}"],
            rows,
        )
    )
    assert best is not None
    print(f"best quality-per-delay: {best[0]}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", choices=["mesh", "fbfly"], default="mesh")
    parser.add_argument("--vcs-per-class", type=int, default=2)
    parser.add_argument("--load", type=float, default=0.6,
                        help="expected requests per VC per cycle")
    parser.add_argument("--samples", type=int, default=1000)
    args = parser.parse_args()

    point = DesignPoint.paper(args.topology, args.vcs_per_class)
    explore_vc_allocators(point, args.load, args.samples)
    explore_switch_allocators(point, args.load, args.samples)


if __name__ == "__main__":
    main()
