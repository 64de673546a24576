"""repro.faults -- deterministic seeded fault injection for the NoC fabric.

The paper evaluates allocators on a perfect fabric; this package makes
resource *unavailability* a first-class, reproducible experiment axis
(in the spirit of the dynamic/preemptive VC-allocation literature in
PAPERS.md).  Three layers:

``repro.faults.plan``
    :class:`FaultPlan` -- a picklable, hashable, JSON-serializable
    schedule of transient/permanent link faults, stuck-at output VCs
    and dropped/duplicated credits at ``(cycle, router, port, vc)``
    granularity.  A plan is either written out explicitly (event
    tuples) or generated deterministically from rates + a seed when the
    network dimensions become known.  The plan is part of
    :class:`~repro.netsim.simulator.SimulationConfig` and therefore of
    the sweep-cache key; ``faults=None`` configs serialize exactly as
    before, so existing caches and goldens stay valid.

``repro.faults.state``
    :class:`FaultState` -- the per-simulation runtime the router,
    network and allocators consult.  Wired the same way as
    :mod:`repro.obs`: every hook site is behind a single
    ``fault_state is None`` check (the null-object fast path), so
    fault-free runs are bit-identical to pre-fault builds.

``repro.faults.watchdog``
    A livelock/deadlock watchdog for the simulation driver: when no
    flit moves for a configured number of cycles while work is pending,
    the run aborts with a :class:`WatchdogError` carrying a diagnostic
    snapshot (per-router occupancy, stalled packets, active faults)
    instead of silently burning to ``max_cycles``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .plan import CreditFault, FaultPlan, LinkFault, StuckVC, parse_fault_spec
    from .state import FaultState
    from .watchdog import Watchdog, WatchdogError, deadlock_snapshot

__all__ = [
    "CreditFault",
    "FaultPlan",
    "LinkFault",
    "StuckVC",
    "parse_fault_spec",
    "FaultState",
    "Watchdog",
    "WatchdogError",
    "deadlock_snapshot",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plan": [
            "CreditFault",
            "FaultPlan",
            "LinkFault",
            "StuckVC",
            "parse_fault_spec",
        ],
        ".state": ["FaultState"],
        ".watchdog": ["Watchdog", "WatchdogError", "deadlock_snapshot"],
    },
)
