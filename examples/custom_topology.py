#!/usr/bin/env python3
"""Building a custom network from a topology description.

The paper evaluates an 8x8 mesh and a 4x4 flattened butterfly, but the
router model is topology-agnostic.  This example describes a small ring
-- routers, links, terminals and a custom routing function -- and runs
request-reply traffic over it, demonstrating the substrate API a
downstream user would build on:

* ``TopologyDescription`` -- the network as data: router and port
  counts, one ``(router_a, port_a, router_b, port_b, latency)`` per
  bidirectional channel, where the terminals sit, the routing modes;
* ``RoutingMode``         -- a routing object with ``prepare``/``route``
  hooks plus the VC partition its deadlock argument needs;
* ``assemble``            -- turns any description into a ``Network``
  of the paper's routers (the same call builds the mesh, the flattened
  butterfly and the torus).

Run:  python examples/custom_topology.py
"""

from functools import partial

import numpy as np

from repro.core import VCPartition
from repro.netsim import Network
from repro.netsim.topology import RoutingMode, TopologyDescription, assemble

# Ring ports: 0 = terminal, 1 = clockwise, 2 = counter-clockwise.
PORT_TERMINAL, PORT_CW, PORT_CCW = 0, 1, 2


class RingRouting:
    """Shortest-direction ring routing.

    A ring has cyclic channel dependencies, so (like dateline routing in
    a torus) it needs two resource classes: packets start in class 0 and
    move to class 1 when they cross the dateline between the last and
    first router -- the same VC transition structure sparse VC
    allocation exploits (Section 4.2).
    """

    def __init__(self, size: int) -> None:
        self.size = size

    def prepare(self, network, terminal, packet) -> None:
        packet.resource_class = 0

    def route(self, network, router, packet) -> int:
        n = self.size
        dest = packet.dest
        if dest == router.id:
            return PORT_TERMINAL
        cw = (dest - router.id) % n
        ccw = (router.id - dest) % n
        port = PORT_CW if cw <= ccw else PORT_CCW
        # Dateline: crossing the n-1 -> 0 (or 0 -> n-1) boundary bumps
        # the resource class, breaking the cyclic dependency.
        nxt = (router.id + 1) % n if port == PORT_CW else (router.id - 1) % n
        if (port == PORT_CW and nxt == 0) or (port == PORT_CCW and nxt == n - 1):
            packet.resource_class = 1
        return port


def ring_partition(vcs_per_class: int) -> VCPartition:
    # Dateline deadlock avoidance: 2 resource classes; transitions only
    # 0 -> {0, 1} and 1 -> 1 (same structure as the fbfly partition).
    transitions = np.array([[True, True], [False, True]])
    return VCPartition(2, 2, vcs_per_class, transitions)


def ring_description(size: int) -> TopologyDescription:
    return TopologyDescription(
        name="ring",
        num_routers=size,
        num_ports=3,
        links=tuple(
            (rid, PORT_CW, (rid + 1) % size, PORT_CCW, 1) for rid in range(size)
        ),
        terminals=tuple((rid, PORT_TERMINAL) for rid in range(size)),
        terminal_latency=1,
        modes={"default": RoutingMode(partial(RingRouting, size), ring_partition)},
    )


def build_ring(size: int = 8, packet_rate: float = 0.02) -> Network:
    return assemble(
        ring_description(size), "default", packet_rate=packet_rate, seed=7
    )


def main() -> None:
    net = build_ring(size=8, packet_rate=0.03)
    latencies = []
    net.on_delivery = lambda pkt, now: latencies.append(now - pkt.birth_time)

    net.run(4000)
    for t in net.terminals:
        t.packet_rate = 0.0
    net.run(500)

    assert net.in_flight_flits() == 0, "ring deadlocked or lost flits!"
    print(f"8-node ring, request-reply traffic:")
    print(f"  delivered packets : {len(latencies)}")
    print(f"  average latency   : {sum(latencies) / len(latencies):.1f} cycles")
    print(f"  max latency       : {max(latencies)} cycles")
    print(
        f"  speculative wins  : {net.total_speculative_wins()}, "
        f"misspeculations: {net.total_misspeculations()}"
    )
    print("\nNo flits in flight after drain: the dateline VC transition")
    print("discipline kept the ring deadlock-free.")
    # Whoever assembles a network closes it: a wired network is one
    # reference cycle, and close() lets reference counting free it now.
    net.close()


if __name__ == "__main__":
    main()
