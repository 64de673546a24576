"""2-D flattened butterfly topology (Section 3, [Kim et al. 2007]).

A 4x4 grid of routers, each concentrating four terminals (64 nodes
total) and fully connected within its row and its column: P = 4 + 3 + 3
= 10 ports.  Link latency is the grid distance spanned by the flattened
channel (one to three cycles, per Section 3.2).  UGAL routing with two
resource classes (non-minimal phase -> minimal phase).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ...core.vc_partition import VCPartition
from ..kernels import DEFAULT_KERNEL
from ..network import Network
from ..router import Router
from ..routing.ft import FTUGALRouting
from ..routing.ugal import UGALRouting
from ..traffic import Terminal, uniform_random_dest

__all__ = ["build_fbfly"]

TERMINAL_LINK_LATENCY = 1


def build_fbfly(
    rows: int = 4,
    cols: int = 4,
    concentration: int = 4,
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
    ugal_threshold: int = 0,
    routing: str = "default",
    kernel: str = DEFAULT_KERNEL,
) -> Network:
    """Construct the flattened-butterfly network with the paper's router.

    ``routing`` selects the routing mode: ``"default"`` is stock
    UGAL-L; ``"ft_ugal"`` repairs the source-side path decision around
    permanent link faults while keeping UGAL's two-phase VC discipline
    (see :mod:`repro.netsim.routing.ft`).  Both use the same VC
    partition, so V is unchanged.
    """
    partition = VCPartition.fbfly(vcs_per_class)
    if routing == "ft_ugal":
        routing_obj = FTUGALRouting(rows, cols, concentration, ugal_threshold)
    elif routing == "default":
        routing_obj = UGALRouting(rows, cols, concentration, ugal_threshold)
    else:
        raise ValueError(
            f"unknown fbfly routing mode {routing!r}; "
            "expected 'default' or 'ft_ugal'"
        )
    net = Network(routing_obj)
    num_ports = concentration + (cols - 1) + (rows - 1)

    def route_fn(network, router, packet):
        return routing_obj.route(network, router, packet)

    for rid in range(rows * cols):
        net.routers.append(
            Router(
                rid,
                num_ports,
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

    # Row links: every router pair sharing a row; latency = column span.
    for r in range(rows):
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                a = net.routers[r * cols + c1]
                b = net.routers[r * cols + c2]
                pa = routing_obj.row_port(a.id, c2)
                pb = routing_obj.row_port(b.id, c1)
                lat = abs(c1 - c2)
                a.connect_output(pa, "router", b, pb, lat)
                b.connect_upstream(pb, "router", a, pa, lat)
                b.connect_output(pb, "router", a, pa, lat)
                a.connect_upstream(pa, "router", b, pb, lat)

    # Column links: latency = row span.
    for c in range(cols):
        for r1 in range(rows):
            for r2 in range(r1 + 1, rows):
                a = net.routers[r1 * cols + c]
                b = net.routers[r2 * cols + c]
                pa = routing_obj.col_port(a.id, r2)
                pb = routing_obj.col_port(b.id, r1)
                lat = abs(r1 - r2)
                a.connect_output(pa, "router", b, pb, lat)
                b.connect_upstream(pb, "router", a, pa, lat)
                b.connect_output(pb, "router", a, pa, lat)
                a.connect_upstream(pa, "router", b, pb, lat)

    # Terminals: `concentration` per router.
    num_terminals = rows * cols * concentration
    for tid in range(num_terminals):
        router = net.routers[tid // concentration]
        port = tid % concentration
        term = Terminal(
            tid,
            router,
            port,
            TERMINAL_LINK_LATENCY,
            packet_rate,
            np.random.default_rng((seed, tid)),
            read_fraction=read_fraction,
            dest_fn=dest_fn or uniform_random_dest,
            num_terminals=num_terminals,
        )
        net.terminals.append(term)
        router.connect_output(port, "terminal", term, 0, TERMINAL_LINK_LATENCY)
        router.connect_upstream(port, "terminal", term, 0, TERMINAL_LINK_LATENCY)
    return net
