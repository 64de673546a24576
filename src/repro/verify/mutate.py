"""Mutation self-test of the equivalence checker.

A verifier that proves nothing is indistinguishable from one that
proves everything, so the checker is itself checked: inject single-gate
mutations (kind swaps, fanin rewires, constant ties) into netlists the
checker claims to cover, and assert the mutants are *killed* (at least
one finding, or a checker exception).  Candidate gates are restricted
to :func:`_covered_nets` -- the union of the exact cones the component
proofs sweep -- so every sampled mutant is inside the claimed proof
perimeter and a survivor is a genuine coverage hole, not an artefact of
mutating dead logic.

Determinism: mutant selection is seeded per target via
``random.Random(f"{seed}:{name}")`` (string seeding, stable across
processes unlike ``hash``), so a reported survivor can be replayed
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..hw.alloc_gates import build_wavefront_matrix
from ..hw.arbiter_gates import build_arbiter
from ..hw.cells import CELL_INDEX
from ..hw.netlist import Netlist
from ..hw.sw_alloc_gates import build_switch_allocator_netlist
from ..hw.trace import BuildTrace, tracing
from ..hw.vc_alloc_gates import build_vc_allocator_netlist
from ..core.vc_partition import VCPartition
from .equivalence import check_netlist, component_cones

__all__ = [
    "MutantOutcome",
    "MutationReport",
    "run_mutation_campaign",
    "MUTATION_TARGETS",
]

_DFF = CELL_INDEX["DFF"]
_KIND_NAME = {v: k for k, v in CELL_INDEX.items()}

#: Dual-kind swaps: each changes the gate's boolean function while
#: keeping its arity, the classic "operator replacement" mutation.
_SWAPS = {
    CELL_INDEX["AND2"]: CELL_INDEX["OR2"],
    CELL_INDEX["OR2"]: CELL_INDEX["AND2"],
    CELL_INDEX["AND3"]: CELL_INDEX["OR3"],
    CELL_INDEX["OR3"]: CELL_INDEX["AND3"],
    CELL_INDEX["AND4"]: CELL_INDEX["OR4"],
    CELL_INDEX["OR4"]: CELL_INDEX["AND4"],
    CELL_INDEX["NAND2"]: CELL_INDEX["NOR2"],
    CELL_INDEX["NOR2"]: CELL_INDEX["NAND2"],
    CELL_INDEX["INV"]: CELL_INDEX["BUF"],
    CELL_INDEX["BUF"]: CELL_INDEX["INV"],
}


@dataclass(frozen=True)
class MutantOutcome:
    """One injected mutant and what the checker did with it."""

    target: str
    mutant_index: int
    description: str
    killed: bool
    detail: str = ""


@dataclass
class MutationReport:
    """Campaign result; ``kill_rate`` is the CI-gated coverage metric."""

    outcomes: List[MutantOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def kill_rate(self) -> float:
        return self.killed / self.total if self.outcomes else 1.0

    @property
    def survivors(self) -> List[MutantOutcome]:
        return [o for o in self.outcomes if not o.killed]

    def summary(self) -> str:
        return (
            f"{self.killed}/{self.total} mutants killed "
            f"({self.kill_rate:.1%}); {len(self.survivors)} survivors"
        )


def _covered_nets(nl: Netlist, trace: BuildTrace) -> List[int]:
    """Gate nets inside the cones the component proofs actually sweep:
    the union of :func:`~repro.verify.equivalence.component_cones` over
    every traced component, so the sampler and the proofs read one
    definition of the proof perimeter."""
    covered: set = set()
    for comp in (
        *trace.arbiters, *trace.trees, *trace.wavefronts, *trace.preselects
    ):
        for targets, cut in component_cones(nl, comp):
            cone, _ = nl.support(list(targets), cut)
            covered.update(cone)
    return [n for n in sorted(covered) if nl.kinds[n] >= 0 and nl.kinds[n] != _DFF]


def _mutate(nl: Netlist, net: int, op: int, rng: random.Random) -> Optional[str]:
    """Apply one mutation in place; returns a description or None if
    the chosen operator does not apply to this gate."""
    kind = nl.kinds[net]
    fanins = nl.fanins[net]
    if op == 0:
        swapped = _SWAPS.get(kind)
        if swapped is None:
            return None
        nl.kinds[net] = swapped
        return (
            f"net {net}: {_KIND_NAME[kind]} -> {_KIND_NAME[swapped]} kind swap"
        )
    if not fanins or net == 0:
        return None
    idx = rng.randrange(len(fanins))
    if op == 1:
        repl = None
        for _ in range(8):
            cand = rng.randrange(net)
            if cand != fanins[idx]:
                repl = cand
                break
        if repl is None:
            return None
        new = list(fanins)
        new[idx] = repl
        nl.fanins[net] = tuple(new)
        return f"net {net} ({_KIND_NAME[kind]}): fanin {idx} rewired to net {repl}"
    cv = rng.randrange(2)
    new = list(fanins)
    new[idx] = nl.const(cv)
    nl.fanins[net] = tuple(new)
    return f"net {net} ({_KIND_NAME[kind]}): fanin {idx} tied to const {cv}"


def _arb_target(kind: str, n: int, tree_groups: Optional[int] = None):
    def make() -> Tuple[Netlist, BuildTrace]:
        nl = Netlist(f"mut_{kind}{n}")
        with tracing() as trace:
            reqs = nl.inputs(n, "req")
            grants, fin = build_arbiter(nl, kind, reqs, tree_groups=tree_groups)
            fin(None)
            for i, g in enumerate(grants):
                nl.mark_output(g, f"gnt{i}")
        nl.validate()
        return nl, trace

    return make


def _wf_target(n: int):
    def make() -> Tuple[Netlist, BuildTrace]:
        nl = Netlist(f"mut_wf{n}")
        with tracing() as trace:
            reqs = [
                [nl.input(f"r{i}_{j}") for j in range(n)] for i in range(n)
            ]
            grants = build_wavefront_matrix(nl, reqs)
            for i in range(n):
                for j in range(n):
                    nl.mark_output(grants[i][j], f"g{i}_{j}")
        nl.validate()
        return nl, trace

    return make


def _sw_target():
    with tracing() as trace:
        nl = build_switch_allocator_netlist(2, 2, "wf", "rr", "nonspec")
    return nl, trace


def _vc_target():
    with tracing() as trace:
        nl = build_vc_allocator_netlist(2, VCPartition.mesh(1), "sep_if", "rr")
    return nl, trace


#: Targets span every component checker: flat rr/matrix/fixed arbiters
#: at two widths (matrix6 exercises the exhaustive triangle sweep at
#: its 21-variable ceiling), a two-level tree, a wavefront block at a
#: packed-sweepable width, and two full allocator builds (wavefront
#: switch core with preselect; sep_if VC allocator with trees).
MUTATION_TARGETS: Dict[str, Callable[[], Tuple[Netlist, BuildTrace]]] = {
    "rr4": _arb_target("rr", 4),
    "rr6": _arb_target("rr", 6),
    "matrix4": _arb_target("m", 4),
    "matrix6": _arb_target("m", 6),
    "fixed5": _arb_target("fixed", 5),
    "tree_rr8": _arb_target("rr", 8, tree_groups=4),
    "wavefront3": _wf_target(3),
    "sw_wf_rr": _sw_target,
    "vc_sep_if_rr": _vc_target,
}


def run_mutation_campaign(
    seed: int = 0,
    mutants_per_target: int = 25,
    targets: Optional[Sequence[str]] = None,
) -> MutationReport:
    """Inject ``mutants_per_target`` single-gate mutants per target and
    run the full component checker against each.

    A mutant is *killed* when the checker reports any finding or raises
    (a mutilated netlist crashing the checker is detection, not
    failure).  Each mutation is applied in place and restored, so one
    build per target serves the whole campaign.
    """
    report = MutationReport()
    names = list(MUTATION_TARGETS) if targets is None else list(targets)
    for name in names:
        nl, trace = MUTATION_TARGETS[name]()
        candidates = _covered_nets(nl, trace)
        if not candidates:
            raise RuntimeError(f"mutation target {name} has no covered gates")
        rng = random.Random(f"{seed}:{name}")
        made = 0
        while made < mutants_per_target:
            net = candidates[rng.randrange(len(candidates))]
            op = rng.randrange(3)
            saved_kind = nl.kinds[net]
            saved_fanins = nl.fanins[net]
            desc = _mutate(nl, net, op, rng)
            if desc is None:
                nl.kinds[net] = saved_kind
                nl.fanins[net] = saved_fanins
                continue
            try:
                found = check_netlist(nl, trace, scope=f"mutation/{name}")
                killed = bool(found)
                detail = found[0].message if found else "no finding reported"
            except Exception as exc:
                killed = True
                detail = f"checker raised {type(exc).__name__}: {exc}"
            finally:
                nl.kinds[net] = saved_kind
                nl.fanins[net] = saved_fanins
            report.outcomes.append(
                MutantOutcome(
                    target=name,
                    mutant_index=made,
                    description=desc,
                    killed=killed,
                    detail=detail,
                )
            )
            made += 1
    return report
