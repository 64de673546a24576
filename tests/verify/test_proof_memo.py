"""Proving a component shape once: ``check_netlist(..., proved=memo)``.

A bank of identical arbiters is proved once per shape; every other
instance is skipped when its :func:`component_signature` is already in
the memo.  Skipping must never hide a disproof: a mutant inside any
instance's proof cones -- the first instance proved or a later one --
gets exactly the findings a memo-less run reports.
"""

import dataclasses
import random

import pytest

from repro.hw.arbiter_gates import build_arbiter
from repro.hw.netlist import Netlist
from repro.hw.sw_alloc_gates import _build_requests, _core
from repro.hw.trace import tracing
from repro.verify import equivalence
from repro.verify.equivalence import (
    check_netlist,
    component_cones,
    component_signature,
)
from repro.verify.mutate import _mutate

COPIES = 4


def _bank():
    """``COPIES`` rr4 and matrix4 arbiters and a P=2, V=3 wavefront
    switch core (two preselects), each instance on its own inputs."""
    nl = Netlist("bank")
    with tracing() as trace:
        for kind in ("rr", "m"):
            for c in range(COPIES):
                grants, fin = build_arbiter(nl, kind, nl.inputs(4, f"{kind}{c}_req"))
                fin(None)
                for i, g in enumerate(grants):
                    nl.mark_output(g, f"{kind}{c}_gnt{i}")
        core = _core(nl, 2, 3, "wf", "rr", _build_requests(nl, 2, 3, ""))
        for p, row in enumerate(core.vc_out):
            for v, g in enumerate(row):
                nl.mark_output(g, f"vcgnt_{p}_{v}")
    nl.validate()
    return nl, trace


def _instances(trace):
    rr = [a for a in trace.arbiters if a.kind == "rr"]
    matrix = [a for a in trace.arbiters if a.kind == "matrix"]
    return {"rr": rr, "matrix": matrix, "preselect": list(trace.preselects)}


def _outcome(nl, trace, proved=None):
    try:
        return check_netlist(nl, trace, "bank", proved=proved)
    except Exception as exc:  # a mutant may crash the checker: same crash
        return f"raised {type(exc).__name__}: {exc}"


def test_each_shape_is_proved_once(monkeypatch):
    nl, trace = _bank()
    calls = []

    def counting(name, real):
        def check(*args):
            calls.append(name)
            return real(*args)
        return check

    for kind in ("rr", "matrix"):
        monkeypatch.setitem(
            equivalence._ARBITER_CHECKS, kind,
            counting(kind, equivalence._ARBITER_CHECKS[kind]),
        )
    monkeypatch.setattr(
        equivalence, "_check_preselect",
        counting("preselect", equivalence._check_preselect),
    )
    proved = set()
    assert check_netlist(nl, trace, "bank", proved=proved) == []
    assert sorted(calls) == ["matrix", "preselect", "rr"]
    assert len(proved) == 3
    calls.clear()
    assert check_netlist(nl, trace, "bank") == []
    assert sorted(set(calls)) == ["matrix", "preselect", "rr"]
    assert len(calls) == 2 * COPIES + len(trace.preselects)


@pytest.mark.parametrize("kind", ["rr", "matrix", "preselect"])
@pytest.mark.parametrize("position", ["first", "later"])
def test_a_mutant_gets_the_findings_of_a_memo_less_run(kind, position):
    nl, trace = _bank()
    clean = set()
    assert check_netlist(nl, trace, "bank", proved=clean) == []
    comps = _instances(trace)[kind]
    comp = comps[0] if position == "first" else comps[-1]
    candidates = sorted({
        net
        for targets, cut in component_cones(nl, comp)
        for net in nl.support(list(targets), cut)[0]
        if nl.kinds[net] >= 0
    })
    rng = random.Random(f"{kind}:{position}")
    made = killed = 0
    while made < 12:
        net = candidates[rng.randrange(len(candidates))]
        saved = nl.kinds[net], nl.fanins[net]
        try:
            if _mutate(nl, net, rng.randrange(3), rng) is None:
                continue
            plain = _outcome(nl, trace)
            # An empty memo: the mutant is met first or after its clean
            # siblings.  A memo of every clean shape: all siblings skip.
            assert _outcome(nl, trace, set()) == plain
            assert _outcome(nl, trace, set(clean)) == plain
            made += 1
            killed += bool(plain)
        finally:
            nl.kinds[net], nl.fanins[net] = saved
    assert killed  # the sample reached the proofs


def test_a_failed_proof_is_not_remembered():
    nl, trace = _bank()
    first, second = _instances(trace)["rr"][:2]
    rng = random.Random(0)
    cone = nl.support(first.grant_nets, first.request_nets)[0]
    assert any(_mutate(nl, net, 0, rng) is not None for net in cone)
    proved = set()
    found = check_netlist(nl, trace, "bank", proved=proved)
    assert found and {f.location.split("/")[0] for f in found} == {"arbiter[0]"}
    assert component_signature(nl, first) not in proved
    assert component_signature(nl, second) in proved


def test_signatures_of_one_builder_are_equal():
    nl, trace = _bank()
    for comps in _instances(trace).values():
        sigs = {component_signature(nl, c) for c in comps}
        assert len(comps) > 1 and len(sigs) == 1


def _swap_fanins(nl, a, b):
    """Rewire every gate reading ``a`` to read ``b`` and vice versa."""
    for net, fi in enumerate(nl.fanins):
        if nl.kinds[net] >= 0 and (a in fi or b in fi):
            nl.fanins[net] = tuple(b if x == a else a if x == b else x for x in fi)


@pytest.mark.parametrize("kind", ["rr", "matrix"])
def test_swapped_requests_change_the_signature(kind):
    nl, trace = _bank()
    ref, other = _instances(trace)[kind][:2]
    _swap_fanins(nl, other.request_nets[0], other.request_nets[1])
    assert component_signature(nl, other) != component_signature(nl, ref)


@pytest.mark.parametrize("kind", ["rr", "matrix", "preselect"])
def test_every_rewire_inside_the_cones_changes_the_signature(kind):
    # Rewiring one pin of a gate to another net the cones already reach
    # (or to a constant) need not change which nets a walk meets; it
    # must still change the signature.
    nl, trace = _bank()
    ref, other = _instances(trace)[kind][:2]
    want = component_signature(nl, ref)
    gates, reached = set(), set()
    for targets, cut in component_cones(nl, other):
        cone, leaves = nl.support(list(targets), cut)
        gates.update(cone)
        reached.update(cone, leaves)
    reached = sorted(reached)
    rng = random.Random(kind)
    for gate in sorted(gates):
        fanins = nl.fanins[gate]
        below = [n for n in reached if n < gate] + [nl.const(0), nl.const(1)]
        for pin, old in enumerate(fanins):
            for repl in rng.sample(below, min(4, len(below))):
                if repl == old:
                    continue
                nl.fanins[gate] = fanins[:pin] + (repl,) + fanins[pin + 1:]
                assert component_signature(nl, other) != want, (gate, pin, repl)
        nl.fanins[gate] = fanins


@pytest.mark.parametrize("kind", ["rr", "matrix", "preselect"])
def test_a_changed_next_state_cone_changes_the_signature(kind):
    nl, trace = _bank()
    ref, other = _instances(trace)[kind][:2]
    regs = other.mask_regs if kind == "preselect" else other.state_regs
    d = nl.reg_d[regs[-1]]
    nl.fanins[d] = (nl.const(0),) + tuple(nl.fanins[d][1:])
    assert component_signature(nl, other) != component_signature(nl, ref)


def test_a_changed_record_scalar_changes_the_signature():
    nl, trace = _bank()
    rr, matrix = _instances(trace)["rr"][0], _instances(trace)["matrix"][0]
    base = component_signature(nl, matrix)
    assert component_signature(nl, dataclasses.replace(rr, finished=False)) != (
        component_signature(nl, rr)
    )
    flipped = dataclasses.replace(matrix, pairs=[(j, i) for i, j in matrix.pairs])
    assert component_signature(nl, flipped) != base
    denied = dataclasses.replace(
        matrix, deny_terms=[list(reversed(t)) for t in matrix.deny_terms]
    )
    assert component_signature(nl, denied) != base


@pytest.mark.parametrize("kind", ["rr", "matrix"])
def test_a_record_that_cannot_be_walked_is_proved(kind):
    nl, trace = _bank()
    comp = _instances(trace)[kind][1]
    comp.grant_nets[0] = nl.num_nets + 5  # a net id past the netlist
    if kind == "matrix":
        comp.pairs.pop()
    with pytest.raises((IndexError, KeyError, TypeError)):
        component_signature(nl, comp)
    assert _outcome(nl, trace, set()) == _outcome(nl, trace)
