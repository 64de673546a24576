"""Cycle-accurate NoC simulator (the paper's network-level testbed).

Input-queued VC routers with a two-stage pipeline (VA+SA / ST),
credit-based flow control, lookahead routing and speculative switch
allocation, on the paper's two 64-node topologies: an 8x8 mesh with
dimension-order routing and a 4x4 flattened butterfly (concentration 4)
with UGAL routing.  Traffic is the request-reply transaction mix of
Section 3.2.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .flit import Flit, Packet, PacketType
    from .network import Network
    from .router import Router
    from .simulator import (
        SimulationConfig,
        SimulationResult,
        build_network,
        run_simulation,
    )
    from .topology import build_fbfly, build_mesh, build_torus
    from .traffic import Terminal, uniform_random_dest

__all__ = [
    "Flit",
    "Network",
    "Packet",
    "PacketType",
    "Router",
    "SimulationConfig",
    "SimulationResult",
    "Terminal",
    "build_fbfly",
    "build_mesh",
    "build_torus",
    "build_network",
    "run_simulation",
    "uniform_random_dest",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".flit": ["Flit", "Packet", "PacketType"],
        ".network": ["Network"],
        ".router": ["Router"],
        ".simulator": [
            "SimulationConfig",
            "SimulationResult",
            "build_network",
            "run_simulation",
        ],
        ".topology": ["build_fbfly", "build_mesh", "build_torus"],
        ".traffic": ["Terminal", "uniform_random_dest"],
    },
)
