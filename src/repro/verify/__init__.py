"""Formal verification of the gate-level allocator netlists.

``repro verify`` proves -- not samples -- three kinds of facts about
every netlist the paper evaluates:

* **combinational equivalence** (:mod:`.equivalence`): each traced
  component (arbiter, wavefront block, VC preselect) computes exactly
  the behavioural :mod:`repro.core` function over *all* request inputs
  and *all* reachable priority states, in situ in the full netlist; and
  reduced-configuration allocators match ``allocate()`` end to end over
  every legal stimulus.
* **sequential induction** (also :mod:`.equivalence`): every priority-state
  update (round-robin mask rotation, matrix triangle update, wavefront
  pointer ring) matches the behavioural update from *any* state, so the
  per-state equivalence above extends to all cycles by induction.
* **temporal safety properties** (:mod:`.properties`): a declarative
  property DSL (grant⊆request, at-most-one grant, work conservation)
  evaluated on the same packed sweeps, plus a bounded-starvation check
  over the round-robin pointer state space.

The engine (:mod:`.engine`) is a bit-parallel evaluator: one Python
bigint carries up to 2^16 evaluation lanes, so an exhaustive 16-input
sweep costs a single pass over the cone.  The mutation harness
(:mod:`.mutate`) measures checker coverage by injecting single-gate
mutations and asserting they are killed.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ConeEvaluator, MAX_EXHAUSTIVE_BITS, check_or_cone, sweep
    from .equivalence import check_netlist, e2e_check_matrix
    from .mutate import MutationReport, run_mutation_campaign
    from .properties import ARBITER_PROPERTIES, rr_starvation_bound
    from .runner import VERIFY_RULES, verify_paper_netlists

__all__ = [
    "ConeEvaluator",
    "MAX_EXHAUSTIVE_BITS",
    "check_or_cone",
    "sweep",
    "check_netlist",
    "e2e_check_matrix",
    "MutationReport",
    "run_mutation_campaign",
    "ARBITER_PROPERTIES",
    "rr_starvation_bound",
    "VERIFY_RULES",
    "verify_paper_netlists",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": [
            "ConeEvaluator",
            "MAX_EXHAUSTIVE_BITS",
            "check_or_cone",
            "sweep",
        ],
        ".equivalence": ["check_netlist", "e2e_check_matrix"],
        ".mutate": ["MutationReport", "run_mutation_campaign"],
        ".properties": ["ARBITER_PROPERTIES", "rr_starvation_bound"],
        ".runner": ["VERIFY_RULES", "verify_paper_netlists"],
    },
)
