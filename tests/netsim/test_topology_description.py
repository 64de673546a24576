"""Topology descriptions: the data is well formed, ``assemble`` wires
exactly what the per-topology builders used to, and a bad
``topology x routing`` pair is rejected once, with one message.

The wiring digests below were captured from the hand-written
``build_mesh`` / ``build_fbfly`` / ``build_torus`` loops before they
were replaced by ``assemble``; they pin every router's ``out_links`` /
``upstream`` tables and every terminal's attachment and RNG stream.
"""

import hashlib
import json

import pytest

from repro.eval.runner import config_key
from repro.netsim.simulator import (
    SimulationConfig,
    build_network,
    kernel_spec,
    run_simulation,
    validate_config,
)
from repro.netsim.topology import (
    TOPOLOGIES,
    RoutingMode,
    TopologyDescription,
    describe,
    fbfly_description,
    mesh_description,
    torus_description,
)

#: (topology, routing) -> (wiring digest, config_key) at seed 5.
GOLDEN = {
    ("mesh", "default"): (
        "54e07b6cb5e2f7f0968192b4e7155f3b687d843a46d14f3064ae0299db1ca574",
        "538918406ae437b2b528d64327ae66c9",
    ),
    ("mesh", "ft_dor"): (
        "787148797d3538c0bf7beb0e43406b1e41186383d1b6dc6c0d7f707251cbe5af",
        "64824cf4ee2934064fbbff2b1615bf5c",
    ),
    ("fbfly", "default"): (
        "ff835625b7fff09fd74defccd4855035c155c46551d9dd4b4d7a74cd0e8da456",
        "ac19859c9d335db1ef5dfd918e5bf732",
    ),
    ("fbfly", "ft_ugal"): (
        "ff835625b7fff09fd74defccd4855035c155c46551d9dd4b4d7a74cd0e8da456",
        "2116b6e1fe3a29a9efc460e409cd5065",
    ),
    ("torus", "default"): (
        "1d97bb8b43d9b6234229d72b6bc49622b29e6dc23f431efb8e0108c6eb9a8613",
        "86ee9d56201645f21cd3c83cffdd6617",
    ),
}


def wiring_digest(net) -> str:
    def link(entry):
        if entry is None:
            return None
        kind, obj, port, latency = entry
        return [kind, obj.id, port, latency]

    doc = {
        "routers": [
            [r.id, r.num_ports, r.num_vcs,
             [link(e) for e in r.out_links], [link(e) for e in r.upstream]]
            for r in net.routers
        ],
        "terminals": [
            [t.id, t.router.id, t.router_port, t.link_latency, t.num_terminals,
             [t.rng.random() for _ in range(3)]]
            for t in net.terminals
        ],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("topology,routing", sorted(GOLDEN))
def test_assembled_wiring_and_cache_key_match_the_old_builders(topology, routing):
    cfg = SimulationConfig(topology=topology, routing=routing, seed=5)
    digest, key = GOLDEN[topology, routing]
    assert wiring_digest(build_network(cfg)) == digest
    assert config_key(cfg, "sim-rev-3") == key  # the rev it was recorded at


DESCRIPTIONS = {
    **TOPOLOGIES,
    "mesh4": mesh_description(4),
    "fbfly2x3c2": fbfly_description(2, 3, 2, 0),
    "torus3": torus_description(3),
}


@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
class TestDescriptionIsWellFormed:
    def test_every_port_is_wired_at_most_once(self, name):
        desc = DESCRIPTIONS[name]
        ends = [(a, pa) for a, pa, _, _, _ in desc.links]
        ends += [(b, pb) for _, _, b, pb, _ in desc.links]
        ends += list(desc.terminals)
        assert len(ends) == len(set(ends))
        assert all(
            0 <= r < desc.num_routers and 0 <= p < desc.num_ports for r, p in ends
        )

    def test_terminal_ports_are_disjoint_from_link_ports(self, name):
        desc = DESCRIPTIONS[name]
        assert not set(desc.terminals) & set(desc.directed_links())
        assert all(desc.neighbor(r, p) is None for r, p in desc.terminals)

    def test_neighbor_inverts_links(self, name):
        desc = DESCRIPTIONS[name]
        for a, pa, b, pb, _ in desc.links:
            assert desc.neighbor(a, pa) == (b, pb)
            assert desc.neighbor(b, pb) == (a, pa)
        assert len(desc.directed_links()) == 2 * len(desc.links)
        for router, port in desc.directed_links():
            assert desc.neighbor(*desc.neighbor(router, port)) == (router, port)

    def test_links_are_symmetric_with_equal_latency(self, name):
        desc = DESCRIPTIONS[name]
        latency = {}
        for a, pa, b, pb, lat in desc.links:
            assert lat >= 1
            latency[a, pa] = latency[b, pb] = lat
        for router, port in desc.directed_links():
            assert latency[router, port] == latency[desc.neighbor(router, port)]


def test_paper_instances():
    mesh, fbfly, torus = (TOPOLOGIES[t] for t in ("mesh", "fbfly", "torus"))
    assert (mesh.num_routers, mesh.num_ports, mesh.num_terminals) == (64, 5, 64)
    assert (fbfly.num_routers, fbfly.num_ports, fbfly.num_terminals) == (16, 10, 64)
    assert (torus.num_routers, torus.num_ports, torus.num_terminals) == (64, 5, 64)
    assert {lat for *_, lat in mesh.links} == {1}
    assert {lat for *_, lat in fbfly.links} == {1, 2, 3}
    assert list(mesh.modes) == ["default", "ft_dor"]
    assert list(fbfly.modes) == ["default", "ft_ugal"]
    assert list(torus.modes) == ["default"]


def _two_router_description(links):
    mode = TOPOLOGIES["mesh"].modes["default"]
    return TopologyDescription(
        name="pair", num_routers=2, num_ports=2, links=links,
        terminals=((0, 0), (1, 0)), terminal_latency=1,
        modes={"default": RoutingMode(*mode)},
    )


def test_a_malformed_description_is_rejected_at_construction():
    _two_router_description(((0, 1, 1, 1, 1),))
    with pytest.raises(ValueError, match=r"port \(1, 0\) is wired twice"):
        _two_router_description(((0, 1, 1, 0, 1),))
    with pytest.raises(ValueError, match=r"port \(1, 2\) is outside"):
        _two_router_description(((0, 1, 1, 2, 1),))


class TestOneErrorOnePlace:
    @pytest.mark.parametrize(
        "fn", [build_network, kernel_spec, run_simulation, validate_config]
    )
    @pytest.mark.parametrize(
        "bad,message",
        [
            (dict(topology="hypercube"),
             "unknown topology 'hypercube'; expected one of "
             "'mesh', 'fbfly', 'torus'"),
            (dict(topology="mesh", routing="ft_ugal"),
             "routing mode 'ft_ugal' is not supported on the mesh; "
             "expected one of 'default', 'ft_dor'"),
            (dict(topology="torus", routing="ft_dor"),
             "routing mode 'ft_dor' is not supported on the torus; "
             "expected one of 'default'"),
        ],
    )
    def test_every_entry_point_raises_the_same_message(self, fn, bad, message):
        with pytest.raises(ValueError) as exc:
            fn(SimulationConfig(**bad))
        assert str(exc.value) == message

    def test_describe_names_the_table(self):
        assert describe("fbfly") is TOPOLOGIES["fbfly"]
