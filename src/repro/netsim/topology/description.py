"""A topology is data: :class:`TopologyDescription` states what defines
a network -- routers, ports, who is wired to whom at what latency,
where the terminals sit and how packets may be routed -- and
:func:`assemble` is the one place that turns it into a live
:class:`~repro.netsim.network.Network`.

Everything else that needs a fact about a network (the simulator's
terminal count and kernel design point, fault-aware routing's neighbor
lookups, the resilience campaign's link list, the cost model's port
counts) reads the description instead of restating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..patterns import uniform_random_dest

if TYPE_CHECKING:  # pragma: no cover
    from ...core.vc_partition import VCPartition
    from ..network import Network

__all__ = ["RoutingMode", "TopologyDescription", "assemble"]


class RoutingMode(NamedTuple):
    """One way to route on a topology."""

    #: Makes a fresh routing object (``prepare``/``route`` hooks) per
    #: network: fault-aware ones carry per-run detour tables.
    routing: Callable[[], object]
    #: ``vcs_per_class -> VCPartition`` with the resource classes the
    #: routing's deadlock argument needs.
    partition: Callable[[int], VCPartition]


@dataclass(frozen=True)
class TopologyDescription:
    """Everything that defines one network, as plain data."""

    name: str
    num_routers: int
    num_ports: int
    #: One ``(router_a, port_a, router_b, port_b, latency)`` per
    #: bidirectional channel.
    links: Tuple[Tuple[int, int, int, int, int], ...]
    #: ``(router, port)`` of every terminal, in terminal-id order.
    terminals: Tuple[Tuple[int, int], ...]
    terminal_latency: int
    #: Routing modes by ``SimulationConfig.routing`` name.
    modes: Mapping[str, RoutingMode]
    #: Derived: ``(router, port) -> (router, port)`` across each channel.
    _far_end: Dict[Tuple[int, int], Tuple[int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        wired = set()

        def claim(router: int, port: int) -> None:
            if not (0 <= router < self.num_routers and 0 <= port < self.num_ports):
                raise ValueError(
                    f"{self.name}: port ({router}, {port}) is outside "
                    f"{self.num_routers} routers x {self.num_ports} ports"
                )
            if (router, port) in wired:
                raise ValueError(
                    f"{self.name}: port ({router}, {port}) is wired twice"
                )
            wired.add((router, port))

        far_end: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for a, port_a, b, port_b, _ in self.links:
            claim(a, port_a)
            claim(b, port_b)
            far_end[a, port_a] = (b, port_b)
            far_end[b, port_b] = (a, port_a)
        for router, port in self.terminals:
            claim(router, port)
        object.__setattr__(self, "_far_end", far_end)

    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        """``(router, port)`` at the far end of the channel leaving
        ``router`` through ``port``; None for a terminal or unwired port."""
        return self._far_end.get((router, port))

    def directed_links(self) -> List[Tuple[int, int]]:
        """Every inter-router channel direction as ``(router, output
        port)``, in ``(router, port)`` order."""
        return sorted(self._far_end)

    def mode(self, routing: str) -> RoutingMode:
        """The named routing mode; the one place an unsupported
        ``topology x routing`` pair is rejected."""
        try:
            return self.modes[routing]
        except KeyError:
            raise ValueError(
                f"routing mode {routing!r} is not supported on the "
                f"{self.name}; expected one of "
                f"{', '.join(map(repr, self.modes))}"
            ) from None


def assemble(
    desc: TopologyDescription,
    routing: str,
    vcs_per_class: int = 1,
    packet_rate: float = 0.0,
    seed: int = 1,
    read_fraction: float = 0.5,
    dest_fn: Optional[Callable] = None,
    **router_args,
) -> Network:
    """Construct the network ``desc`` describes with the paper's router.

    ``packet_rate`` is the per-terminal *request-packet* arrival rate
    (packets/cycle); with the request-reply transaction mix this yields
    an offered load of roughly ``6 * packet_rate`` flits/cycle/terminal.
    Terminal ``t`` draws from ``PCG64Stream((seed, t))`` (``netsim/rng.py``).
    ``router_args`` (allocator architectures and arbiters, speculation
    scheme, buffer depth, lookahead, kernel) go to every
    :class:`~repro.netsim.router.Router` unchanged.
    """
    # The machine is imported here, not by the module: a description is
    # data, and a process that only reads one (cache keys, config
    # checks) must not load the router or the allocator core.
    from ..network import Network
    from ..rng import PCG64Stream
    from ..router import Router
    from ..traffic import Terminal

    mode = desc.mode(routing)
    routing_obj = mode.routing()
    partition = mode.partition(vcs_per_class)
    net = Network(routing_obj)
    net.description = desc
    net.routers = routers = [
        Router(rid, desc.num_ports, partition, routing_obj.route, **router_args)
        for rid in range(desc.num_routers)
    ]

    # A router's output feeds its neighbor's input on the paired port,
    # and credits return the same way.
    for id_a, port_a, id_b, port_b, latency in desc.links:
        a, b = routers[id_a], routers[id_b]
        a.connect_output(port_a, "router", b, port_b, latency)
        b.connect_upstream(port_b, "router", a, port_a, latency)
        b.connect_output(port_b, "router", a, port_a, latency)
        a.connect_upstream(port_a, "router", b, port_b, latency)

    latency = desc.terminal_latency
    for tid, (rid, port) in enumerate(desc.terminals):
        router = routers[rid]
        term = Terminal(
            tid,
            router,
            port,
            latency,
            packet_rate,
            PCG64Stream((seed, tid)),
            read_fraction=read_fraction,
            dest_fn=dest_fn or uniform_random_dest,
            num_terminals=desc.num_terminals,
        )
        net.terminals.append(term)
        router.connect_output(port, "terminal", term, 0, latency)
        router.connect_upstream(port, "terminal", term, 0, latency)
    return net
