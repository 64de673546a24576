"""Routing functions for the network simulator.

A routing object provides two hooks:

* ``prepare(network, terminal, packet)`` -- called once per packet at
  injection; fixes source-side decisions (UGAL's minimal/non-minimal
  choice and intermediate router) and the initial resource class.
* ``route(network, router, packet)`` -- called when a head flit is
  written into a router's input buffer (the lookahead-routing model);
  returns the output port and may advance ``packet.resource_class``.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .dor import DORMeshRouting
    from .ft import FTDORMeshRouting, FTUGALRouting
    from .ugal import UGALRouting

__all__ = ["DORMeshRouting", "FTDORMeshRouting", "FTUGALRouting", "UGALRouting"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".dor": ["DORMeshRouting"],
        ".ft": ["FTDORMeshRouting", "FTUGALRouting"],
        ".ugal": ["UGALRouting"],
    },
)
