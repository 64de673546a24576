"""2-D flattened butterfly topology (Section 3, [Kim et al. 2007]).

A 4x4 grid of routers, each concentrating four terminals (64 nodes
total) and fully connected within its row and its column: P = 4 + 3 + 3
= 10 ports.  Link latency is the grid distance spanned by the flattened
channel (one to three cycles, per Section 3.2).  UGAL routing with two
resource classes (non-minimal phase -> minimal phase).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..routing.ft import FTUGALRouting
from ..routing.ugal import UGALRouting
from .description import RoutingMode, TopologyDescription, assemble

if TYPE_CHECKING:  # pragma: no cover
    from ...core.vc_partition import VCPartition
    from ..network import Network

__all__ = ["fbfly_description", "build_fbfly"]

TERMINAL_LINK_LATENCY = 1


def _partition(vcs_per_class: int) -> VCPartition:
    """``VCPartition.fbfly``, imported when a partition is built (only a
    process that simulates loads the allocator core; a description is
    plain data)."""
    from ...core.vc_partition import VCPartition

    return VCPartition.fbfly(vcs_per_class)


def fbfly_description(
    rows: int, cols: int, concentration: int, ugal_threshold: int
) -> TopologyDescription:
    """A ``rows x cols`` flattened butterfly; terminal ``t`` sits on
    port ``t % concentration`` of router ``t // concentration``.

    Routing ``"default"`` is stock UGAL-L; ``"ft_ugal"`` repairs the
    source-side path decision around permanent link faults while
    keeping UGAL's two-phase VC discipline (see
    :mod:`repro.netsim.routing.ft`).  Both use the same VC partition.
    """
    ports = UGALRouting(rows, cols, concentration)  # owns the port convention
    links = []
    # Row links: every router pair sharing a row; latency = column span.
    for r in range(rows):
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                a, b = r * cols + c1, r * cols + c2
                links.append(
                    (a, ports.row_port(a, c2), b, ports.row_port(b, c1), c2 - c1)
                )
    # Column links: latency = row span.
    for c in range(cols):
        for r1 in range(rows):
            for r2 in range(r1 + 1, rows):
                a, b = r1 * cols + c, r2 * cols + c
                links.append(
                    (a, ports.col_port(a, r2), b, ports.col_port(b, r1), r2 - r1)
                )
    shape = (rows, cols, concentration, ugal_threshold)
    return TopologyDescription(
        name="fbfly",
        num_routers=rows * cols,
        num_ports=concentration + (cols - 1) + (rows - 1),
        links=tuple(links),
        terminals=tuple(
            divmod(tid, concentration)
            for tid in range(rows * cols * concentration)
        ),
        terminal_latency=TERMINAL_LINK_LATENCY,
        modes={
            "default": RoutingMode(partial(UGALRouting, *shape), _partition),
            "ft_ugal": RoutingMode(partial(FTUGALRouting, *shape), _partition),
        },
    )


def build_fbfly(
    rows: int = 4,
    cols: int = 4,
    concentration: int = 4,
    *,
    ugal_threshold: int = 0,
    routing: str = "default",
    **network_args,
) -> Network:
    """Construct the flattened-butterfly network with the paper's router
    (``network_args`` as for :func:`assemble`)."""
    desc = fbfly_description(rows, cols, concentration, ugal_threshold)
    return assemble(desc, routing, **network_args)
