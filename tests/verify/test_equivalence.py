"""Component equivalence-checker tests: clean proofs, injected faults,
and the semantic (not syntactic) nature of the comparison."""

import pytest

from repro.core.vc_allocator import VCRequest
from repro.core.vc_partition import VCPartition
from repro.hw.arbiter_gates import build_arbiter
from repro.hw.netlist import Netlist
from repro.hw.trace import BuildTrace, tracing
from repro.verify import equivalence
from repro.verify.equivalence import check_netlist
from repro.verify.mutate import MUTATION_TARGETS


@pytest.mark.parametrize("name", sorted(MUTATION_TARGETS))
def test_paper_components_prove_clean(name):
    nl, trace = MUTATION_TARGETS[name]()
    assert check_netlist(nl, trace, name) == []


def test_swapped_grant_wiring_is_detected():
    # The trace is plain mutable dataclasses: claim the arbiter's grant
    # outputs in the wrong order and the proof must fail loudly.
    nl, trace = MUTATION_TARGETS["rr4"]()
    g = trace.arbiters[0].grant_nets
    g[0], g[1] = g[1], g[0]
    findings = check_netlist(nl, trace, "rr4_swapped")
    assert findings
    assert any(f.rule == "VER-EQUIV" for f in findings)
    assert all(f.severity == "error" for f in findings)


def test_empty_trace_is_flagged():
    nl, _ = MUTATION_TARGETS["rr4"]()
    findings = check_netlist(nl, BuildTrace(), "rr4_untraced")
    assert [f.rule for f in findings] == ["VER-TRACE"]


def test_double_inverter_variant_still_proves():
    # Route one request through INV(INV(.)) and claim, via the trace,
    # that the arbiter consumes the raw input.  A structural matcher
    # would reject the extra gates; the packed-sweep proof is semantic
    # and must accept the variant with zero findings.
    nl = Netlist("rr4_dblinv")
    with tracing() as trace:
        r0 = nl.input("req0")
        bent = nl.gate("INV", nl.gate("INV", r0))
        reqs = [bent] + [nl.input(f"req{i}") for i in range(1, 4)]
        grants, fin = build_arbiter(nl, "rr", reqs)
        fin(None)
        for i, g in enumerate(grants):
            nl.mark_output(g, f"gnt{i}")
    nl.validate()
    claimed = trace.remap(lambda n: r0 if n == bent else n)
    assert check_netlist(nl, claimed, "rr4_dblinv") == []


@pytest.mark.parametrize("illegal", ["out_of_range", "sparse_transition"])
def test_e2e_vc_validates_every_planted_option(monkeypatch, illegal):
    # The lanes skip allocate()'s request check because every option is
    # validated up front: an illegal option, planted last in the last
    # slot, must still be refused before any lane runs.
    part = VCPartition.mesh(1)
    V = part.num_vcs
    real = equivalence._vc_slots

    def planted(P, partition):
        slots = real(P, partition)
        vc_in = (len(slots) - 1) % V
        if illegal == "out_of_range":
            cand = V
        else:
            cand = next(u for u in range(V) if not part.legal_transition(vc_in, u))
        names, _ = slots[-1][-1]
        slots[-1].append((names, VCRequest(0, (cand,))))
        return slots

    monkeypatch.setattr(equivalence, "_vc_slots", planted)
    match = "out of range" if illegal == "out_of_range" else "illegal under"
    with pytest.raises(ValueError, match=match):
        equivalence._e2e_vc(2, part, "sep_if", "rr", "e2e/planted")
