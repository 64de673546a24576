"""8x8 mesh topology (Section 3): P = 5 ports, one terminal per router.

All links have a latency of one cycle.  Dimension-order routing with a
single resource class; two message classes (request/reply) give
V = 2 * C VCs for C VCs per class.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..routing.dor import (
    DORMeshRouting,
    PORT_EAST,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_TERMINAL,
    PORT_WEST,
)
from ..routing.ft import FTDORMeshRouting
from .description import RoutingMode, TopologyDescription, assemble

if TYPE_CHECKING:  # pragma: no cover
    from ...core.vc_partition import VCPartition
    from ..network import Network

__all__ = ["mesh_description", "build_mesh", "grid_links"]

LINK_LATENCY = 1


def _partition(vcs_per_class: int) -> VCPartition:
    """``VCPartition.mesh``, imported when a partition is built (only a
    process that simulates loads the allocator core; a description is
    plain data)."""
    from ...core.vc_partition import VCPartition

    return VCPartition.mesh(vcs_per_class)


def grid_links(k: int, wrap: bool) -> tuple:
    """The +x and +y channels of a ``k x k`` grid, router ``y * k + x``;
    ``wrap`` closes every row and column into a ring (the torus)."""
    links = []
    for y in range(k):
        for x in range(k):
            rid = y * k + x
            if wrap or x + 1 < k:
                east = y * k + (x + 1) % k
                links.append((rid, PORT_EAST, east, PORT_WEST, LINK_LATENCY))
            if wrap or y + 1 < k:
                north = (y + 1) % k * k + x
                links.append((rid, PORT_NORTH, north, PORT_SOUTH, LINK_LATENCY))
    return tuple(links)


def mesh_description(k: int) -> TopologyDescription:
    """A ``k x k`` mesh; terminal id == router id.

    Routing ``"default"`` is plain X-first DOR (V = 2 * C); ``"ft_dor"``
    is fault-aware DOR with a reserved up*/down* escape class
    (V = 4 * C) that detours around permanent link faults (see
    :mod:`repro.netsim.routing.ft`).
    """
    return TopologyDescription(
        name="mesh",
        num_routers=k * k,
        num_ports=5,
        links=grid_links(k, wrap=False),
        terminals=tuple((rid, PORT_TERMINAL) for rid in range(k * k)),
        terminal_latency=LINK_LATENCY,
        modes={
            "default": RoutingMode(partial(DORMeshRouting, k), _partition),
            "ft_dor": RoutingMode(
                partial(FTDORMeshRouting, k), FTDORMeshRouting.partition
            ),
        },
    )


def build_mesh(
    k: int = 8, *, routing: str = "default", **network_args
) -> Network:
    """Construct a ``k x k`` mesh network with the paper's router
    (``network_args`` as for :func:`assemble`)."""
    return assemble(mesh_description(k), routing, **network_args)
