"""Phase-attribution profiler for the per-cycle simulator loop.

A :class:`PhaseProfiler` attaches to a network the same way an observer
or a fault state does: every hook site in ``repro.netsim`` is one
attribute load plus an identity check when profiling is off (the
``profiler is None`` fast path ``repro lint --source`` enforces), so
no-profiler runs stay bit-identical and ``SIMULATOR_REV`` is untouched.
All wall-clock reads live here -- the simulation packages only call
methods on the attached profiler object, which keeps them clean under
the SRC-WALL-CLOCK lint rule.

Attribution model
-----------------
The network's cycle loop is split into sequential *outer* segments
(delivery, event calendar, traffic, switch allocation, stats).  Inside
an outer segment, routers mark *nested* phases (routing, VC allocation,
link traversal); the profiler subtracts nested time from the enclosing
outer segment so every second is attributed exactly once:

======================  ==================================================
phase                   what it measures
======================  ==================================================
``setup``               network construction + fault materialization
``delivery``            flit-event pop + buffer writes (minus lookahead
                        routing done inside ``receive_flit``)
``event_calendar``      credit-event processing
``traffic``             traffic generation / source serialization
``routing``             ``route_fn`` calls (lookahead and pipelined)
``vc_alloc``            VC allocator cores
``sw_alloc``            allocation-step remainder: request scan, switch
                        allocation, grant commit
``link_traversal``      departures: crossbar/link event scheduling,
                        credit return, speculation commit
``stats``               per-cycle observer sampling + end-of-run stats
======================  ==================================================
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..netsim.kernels import DEFAULT_KERNEL

__all__ = [
    "PROFILE_SCHEMA",
    "PHASES",
    "PhaseProfiler",
    "profile_point",
]

PROFILE_SCHEMA = "repro/phase-profile/v1"

#: Fixed phase taxonomy; every profile report's ``phases`` keys are a
#: subset of this tuple (validated by ``scripts/validate_telemetry.py``).
PHASES = (
    "setup",
    "delivery",
    "event_calendar",
    "traffic",
    "routing",
    "vc_alloc",
    "sw_alloc",
    "link_traversal",
    "stats",
)


class PhaseProfiler:
    """Accumulates wall time per simulation phase.

    The three attribution entry points differ in how they interact with
    the nested-time accumulator:

    - :meth:`direct` -- attribute ``now - t0`` to a phase; used outside
      the cycle loop (setup, end-of-run stats) where nesting cannot
      occur.
    - :meth:`phase` -- attribute ``now - t0`` *and* add it to the
      nested accumulator; used by routers for sub-phases that run
      inside an outer segment.
    - :meth:`outer` -- attribute ``(now - t0) - nested`` and reset the
      nested accumulator; used by the network for the sequential
      cycle-loop segments so nested time is not double counted.

    All three return ``now`` so callers can chain segments without an
    extra clock read.
    """

    __slots__ = ("totals", "nested", "_clock")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self.totals: Dict[str, float] = {name: 0.0 for name in PHASES}
        self.nested = 0.0

    # -- hot-path API (called from repro.netsim hook sites) ------------
    def begin(self) -> float:
        """Return the current clock reading (a phase start mark)."""
        return self._clock()

    def direct(self, name: str, t0: float) -> float:
        now = self._clock()
        self.totals[name] += now - t0
        return now

    def phase(self, name: str, t0: float) -> float:
        now = self._clock()
        dt = now - t0
        self.totals[name] += dt
        self.nested += dt
        return now

    def outer(self, name: str, t0: float) -> float:
        now = self._clock()
        self.totals[name] += (now - t0) - self.nested
        self.nested = 0.0
        return now

    # -- reporting ------------------------------------------------------
    def total(self) -> float:
        return sum(self.totals.values())

    def snapshot(self) -> Dict[str, float]:
        """Per-phase seconds, zero phases dropped, rounded for JSON."""
        return {
            name: round(secs, 6) for name, secs in self.totals.items() if secs > 0.0
        }

    def report(self, wall_s: float) -> Dict[str, object]:
        """Schema'd profile record against a measured wall time."""
        attributed = self.total()
        return {
            "schema": PROFILE_SCHEMA,
            "wall_s": round(wall_s, 6),
            "phases": self.snapshot(),
            "coverage": round(attributed / wall_s, 4) if wall_s > 0 else 0.0,
        }


def profile_point(cfg, kernel: str = DEFAULT_KERNEL) -> Dict[str, object]:
    """Run one simulation with a profiler attached and return the
    phase breakdown as a :data:`PROFILE_SCHEMA` record.

    The profiled run is separate from any timing run -- profiling adds
    per-phase clock reads, so callers that also want clean wall-time
    numbers (the benchmark's ``netsim.*`` probes) time unprofiled runs
    and use this only for attribution.  ``kernel`` defaults to what un-flagged
    simulations run; a compiled network binds its ``-prof`` variant.
    """
    from ..netsim.simulator import run_simulation

    profiler = PhaseProfiler()
    t0 = time.perf_counter()
    run_simulation(cfg, kernel=kernel, profiler=profiler)
    wall = time.perf_counter() - t0
    return profiler.report(wall)
