"""8x8 mesh topology (Section 3): P = 5 ports, one terminal per router.

All links have a latency of one cycle.  Dimension-order routing with a
single resource class; two message classes (request/reply) give
V = 2 * C VCs for C VCs per class.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ...core.vc_partition import VCPartition
from ..kernels import DEFAULT_KERNEL
from ..network import Network
from ..router import Router
from ..routing.dor import (
    DORMeshRouting,
    PORT_EAST,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_TERMINAL,
    PORT_WEST,
)
from ..routing.ft import FTDORMeshRouting
from ..traffic import Terminal, uniform_random_dest

__all__ = ["build_mesh"]

LINK_LATENCY = 1


def build_mesh(
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
    routing: str = "default",
    kernel: str = DEFAULT_KERNEL,
) -> Network:
    """Construct a ``k x k`` mesh network with the paper's router.

    ``packet_rate`` is the per-terminal *request-packet* arrival rate
    (packets/cycle); with the request-reply transaction mix this yields
    an offered load of roughly ``6 * packet_rate`` flits/cycle/terminal.

    ``routing`` selects the routing mode: ``"default"`` is plain
    X-first DOR (V = 2 * C); ``"ft_dor"`` is fault-aware DOR with a
    reserved up*/down* escape class (V = 4 * C) that detours around
    permanent link faults (see :mod:`repro.netsim.routing.ft`).
    """
    if routing == "ft_dor":
        routing_obj = FTDORMeshRouting(k)
        partition = routing_obj.partition(vcs_per_class)
    elif routing == "default":
        routing_obj = DORMeshRouting(k)
        partition = VCPartition.mesh(vcs_per_class)
    else:
        raise ValueError(
            f"unknown mesh routing mode {routing!r}; "
            "expected 'default' or 'ft_dor'"
        )
    net = Network(routing_obj)

    def route_fn(network, router, packet):
        return routing_obj.route(network, router, packet)

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

    # Router-to-router links.  A router's +x output feeds its eastern
    # neighbor's -x input, etc.
    for y in range(k):
        for x in range(k):
            a = net.routers[y * k + x]
            if x + 1 < k:
                b = net.routers[y * k + x + 1]
                a.connect_output(PORT_EAST, "router", b, PORT_WEST, LINK_LATENCY)
                b.connect_upstream(PORT_WEST, "router", a, PORT_EAST, LINK_LATENCY)
                b.connect_output(PORT_WEST, "router", a, PORT_EAST, LINK_LATENCY)
                a.connect_upstream(PORT_EAST, "router", b, PORT_WEST, LINK_LATENCY)
            if y + 1 < k:
                b = net.routers[(y + 1) * k + x]
                a.connect_output(PORT_NORTH, "router", b, PORT_SOUTH, LINK_LATENCY)
                b.connect_upstream(PORT_SOUTH, "router", a, PORT_NORTH, LINK_LATENCY)
                b.connect_output(PORT_SOUTH, "router", a, PORT_NORTH, LINK_LATENCY)
                a.connect_upstream(PORT_NORTH, "router", b, PORT_SOUTH, LINK_LATENCY)

    # Terminals (one per router; terminal id == router id).
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
