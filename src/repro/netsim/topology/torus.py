"""k-ary 2-cube (torus) topology -- an extension beyond the paper's two
networks that exercises the dateline resource-class machinery of
Section 4.2 on a real cyclic topology.

Same port convention as the mesh (0 = terminal, 1..4 = +x/-x/+y/-y) but
every ring closes with a wraparound link, so all five ports are wired.
V = 2 message classes x 4 dateline resource classes x C.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..kernels import DEFAULT_KERNEL
from ..network import Network
from ..router import Router
from ..routing.dor import (
    PORT_EAST,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_TERMINAL,
    PORT_WEST,
)
from ..routing.torus import TorusDatelineRouting
from ..traffic import Terminal, uniform_random_dest

__all__ = ["build_torus"]

LINK_LATENCY = 1


def build_torus(
    k: int = 8,
    vcs_per_class: int = 1,
    packet_rate: float = 0.0,
    seed: int = 1,
    vc_alloc_arch: str = "sep_if",
    vc_alloc_arbiter: str = "rr",
    sw_alloc_arch: str = "sep_if",
    sw_alloc_arbiter: str = "rr",
    speculation: str = "pessimistic",
    buffer_depth: int = 8,
    read_fraction: float = 0.5,
    dest_fn: Optional[Callable] = None,
    lookahead: bool = True,
    kernel: str = DEFAULT_KERNEL,
) -> Network:
    """Construct a ``k x k`` torus with dateline DOR routing."""
    routing = TorusDatelineRouting(k)
    partition = routing.partition(vcs_per_class)
    net = Network(routing)

    def route_fn(network, router, packet):
        return routing.route(network, router, packet)

    for rid in range(k * k):
        net.routers.append(
            Router(
                rid,
                5,
                partition,
                route_fn,
                vc_alloc_arch=vc_alloc_arch,
                vc_alloc_arbiter=vc_alloc_arbiter,
                sw_alloc_arch=sw_alloc_arch,
                sw_alloc_arbiter=sw_alloc_arbiter,
                speculation=speculation,
                buffer_depth=buffer_depth,
                lookahead=lookahead,
                kernel=kernel,
            )
        )

    # Ring links with wraparound.
    for y in range(k):
        for x in range(k):
            a = net.routers[y * k + x]
            b = net.routers[y * k + (x + 1) % k]  # eastern neighbor
            a.connect_output(PORT_EAST, "router", b, PORT_WEST, LINK_LATENCY)
            b.connect_upstream(PORT_WEST, "router", a, PORT_EAST, LINK_LATENCY)
            b.connect_output(PORT_WEST, "router", a, PORT_EAST, LINK_LATENCY)
            a.connect_upstream(PORT_EAST, "router", b, PORT_WEST, LINK_LATENCY)

            c = net.routers[((y + 1) % k) * k + x]  # northern neighbor
            a.connect_output(PORT_NORTH, "router", c, PORT_SOUTH, LINK_LATENCY)
            c.connect_upstream(PORT_SOUTH, "router", a, PORT_NORTH, LINK_LATENCY)
            c.connect_output(PORT_SOUTH, "router", a, PORT_NORTH, LINK_LATENCY)
            a.connect_upstream(PORT_NORTH, "router", c, PORT_SOUTH, LINK_LATENCY)

    num_terminals = k * k
    for rid in range(num_terminals):
        router = net.routers[rid]
        term = Terminal(
            rid,
            router,
            PORT_TERMINAL,
            LINK_LATENCY,
            packet_rate,
            np.random.default_rng((seed, rid)),
            read_fraction=read_fraction,
            dest_fn=dest_fn or uniform_random_dest,
            num_terminals=num_terminals,
        )
        net.terminals.append(term)
        router.connect_output(PORT_TERMINAL, "terminal", term, 0, LINK_LATENCY)
        router.connect_upstream(PORT_TERMINAL, "terminal", term, 0, LINK_LATENCY)
    return net
