"""k-ary 2-cube (torus) topology -- an extension beyond the paper's two
networks that exercises the dateline resource-class machinery of
Section 4.2 on a real cyclic topology.

Same port convention as the mesh (0 = terminal, 1..4 = +x/-x/+y/-y) but
every ring closes with a wraparound link, so all five ports are wired.
V = 2 message classes x 4 dateline resource classes x C.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..routing.dor import PORT_TERMINAL
from ..routing.torus import TorusDatelineRouting
from .description import RoutingMode, TopologyDescription, assemble
from .mesh import LINK_LATENCY, grid_links

if TYPE_CHECKING:  # pragma: no cover
    from ..network import Network

__all__ = ["torus_description", "build_torus"]


def torus_description(k: int) -> TopologyDescription:
    """A ``k x k`` torus with dateline DOR routing; terminal id ==
    router id."""
    return TopologyDescription(
        name="torus",
        num_routers=k * k,
        num_ports=5,
        links=grid_links(k, wrap=True),
        terminals=tuple((rid, PORT_TERMINAL) for rid in range(k * k)),
        terminal_latency=LINK_LATENCY,
        modes={
            "default": RoutingMode(
                partial(TorusDatelineRouting, k), TorusDatelineRouting.partition
            ),
        },
    )


def build_torus(k: int = 8, **network_args) -> Network:
    """Construct a ``k x k`` torus network with the paper's router
    (``network_args`` as for :func:`assemble`)."""
    return assemble(torus_description(k), "default", **network_args)
