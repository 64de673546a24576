"""Fault schedules: explicit event tuples plus seeded generation.

A :class:`FaultPlan` is pure data -- frozen dataclasses of tuples -- so
it is picklable (worker transport), hashable (usable as a dict key) and
JSON-round-trippable (``to_dict``/``from_dict``, used by the sweep
cache key).  Rates describe *generative* faults: the concrete event
list is expanded deterministically from ``(seed, network dimensions)``
when the simulation is built, so the same plan applied to the same
topology always yields the same faults -- in a worker process or
inline.

Fault semantics (see ``docs/ROBUSTNESS.md`` for the full model):

* **Link fault** -- output port ``port`` of router ``router`` is down
  for cycles ``[start, end)`` (``end=None`` means permanently).  While
  down, no VC or switch grant can target the port; flits already in
  flight on the wire are *not* dropped (the fault is detected before
  transmission), they simply wait upstream.
* **Stuck-at VC** -- output VC ``(router, port, vc)`` is removed from
  every VC-allocation candidate set from cycle ``start`` on (a stuck
  valid/allocated bit).  Packets fall back to the surviving VCs of
  their class.
* **Credit fault** -- the next credit arriving at router ``router`` for
  output ``(port, vc)`` at cycle >= ``cycle`` is dropped (upstream
  permanently under-counts, shrinking the effective buffer) or
  duplicated (upstream over-counts; the injector clamps so software
  invariants hold and counts the absorbed excess).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LinkFault",
    "StuckVC",
    "CreditFault",
    "FaultPlan",
    "parse_fault_spec",
]

#: The generative fields of a :class:`FaultPlan`, each a probability.
_RATES = ("link_rate", "stuck_vc_rate", "credit_drop_rate", "credit_dup_rate")


def _check_coords(event: Any, **coords: int) -> None:
    """Structural validation shared by every fault-event dataclass."""
    for name, value in coords.items():
        if value < 0:
            raise ValueError(
                f"{type(event).__name__}: {name} must be >= 0, got {value}"
            )


@dataclass(frozen=True)
class LinkFault:
    """Output ``port`` of ``router`` is unusable for ``[start, end)``."""

    router: int
    port: int
    start: int = 0
    end: Optional[int] = None  # None = permanent

    def __post_init__(self) -> None:
        _check_coords(self, router=self.router, port=self.port)
        if self.start < 0:
            raise ValueError(f"{self!r}: start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"{self!r}: window is empty (end <= start)")

    def active(self, cycle: int) -> bool:
        return self.start <= cycle and (self.end is None or cycle < self.end)

    @property
    def permanent(self) -> bool:
        return self.end is None


@dataclass(frozen=True)
class StuckVC:
    """Output VC ``(router, port, vc)`` never grantable from ``start``."""

    router: int
    port: int
    vc: int
    start: int = 0

    def __post_init__(self) -> None:
        _check_coords(self, router=self.router, port=self.port, vc=self.vc)
        if self.start < 0:
            raise ValueError(f"{self!r}: start must be >= 0")


@dataclass(frozen=True)
class CreditFault:
    """One credit at ``(router, port, vc)`` is dropped or duplicated.

    Fires on the first credit arriving at or after ``cycle`` (credits
    arrive at unpredictable times, so an exact-cycle trigger would
    silently miss).
    """

    router: int
    port: int
    vc: int
    cycle: int
    kind: str = "drop"  # "drop" | "dup"

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "dup"):
            raise ValueError(f"unknown credit fault kind {self.kind!r}")
        _check_coords(self, router=self.router, port=self.port, vc=self.vc)
        if self.cycle < 0:
            raise ValueError(f"{self!r}: cycle must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one simulation.

    Rates are per-entity per-cycle probabilities expanded by
    :meth:`materialize` with a dedicated ``numpy`` Generator seeded by
    ``seed`` -- independent of the traffic RNG streams, so enabling
    faults never perturbs packet generation.  Explicit event tuples are
    merged with the generated ones; a plan of explicit events only
    materializes without numpy.
    """

    seed: int = 0
    #: Per-(router, output port) per-cycle probability that a transient
    #: link fault begins (while no fault is already active on the port).
    link_rate: float = 0.0
    #: Mean duration, in cycles, of a generated transient link fault.
    mean_downtime: int = 20
    #: Probability that any given output VC is stuck-at from a random
    #: cycle onwards.
    stuck_vc_rate: float = 0.0
    #: Expected dropped credits per (router, port, vc) per cycle.
    credit_drop_rate: float = 0.0
    #: Expected duplicated credits per (router, port, vc) per cycle.
    credit_dup_rate: float = 0.0
    link_faults: Tuple[LinkFault, ...] = ()
    stuck_vcs: Tuple[StuckVC, ...] = ()
    credit_faults: Tuple[CreditFault, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mean_downtime < 1:
            raise ValueError("mean_downtime must be >= 1 cycle")
        # Tolerate lists (e.g. a hand-built plan); normalize to tuples
        # so the plan stays hashable.
        for name, cls in (("link_faults", LinkFault), ("stuck_vcs", StuckVC),
                          ("credit_faults", CreditFault)):
            value = getattr(self, name)
            if not isinstance(value, tuple) or not all(
                isinstance(v, cls) for v in value
            ):
                object.__setattr__(
                    self, name,
                    tuple(v if isinstance(v, cls) else cls(**v) for v in value),
                )

    @property
    def draws(self) -> bool:
        """True when :meth:`materialize` draws events (a rate is > 0)."""
        return any(getattr(self, name) > 0.0 for name in _RATES)

    @property
    def is_empty(self) -> bool:
        """True when the plan can never produce a fault."""
        return not (
            self.draws or self.link_faults or self.stuck_vcs or self.credit_faults
        )

    # ------------------------------------------------------------------
    # serialization (cache keys, worker transport, CLI JSON files)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-friendly form (event tuples become lists)."""
        out = asdict(self)
        out["link_faults"] = [asdict(e) for e in self.link_faults]
        out["stuck_vcs"] = [asdict(e) for e in self.stuck_vcs]
        out["credit_faults"] = [asdict(e) for e in self.credit_faults]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["link_faults"] = tuple(
            LinkFault(**e) for e in kwargs.get("link_faults", ())
        )
        kwargs["stuck_vcs"] = tuple(
            StuckVC(**e) for e in kwargs.get("stuck_vcs", ())
        )
        kwargs["credit_faults"] = tuple(
            CreditFault(**e) for e in kwargs.get("credit_faults", ())
        )
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # topology validation
    # ------------------------------------------------------------------
    def validate_topology(
        self, router_ports: Sequence[int], num_vcs: int
    ) -> None:
        """Reject events naming coordinates outside the network.

        A fault aimed at a router, port or VC that does not exist would
        otherwise materialize into a silent no-op in
        :class:`~repro.faults.state.FaultState` -- the sweep would
        report healthy numbers for a plan that was never applied.
        Raises a :class:`ValueError` naming the offending event.
        """
        num_routers = len(router_ports)
        for event in (*self.link_faults, *self.stuck_vcs,
                      *self.credit_faults):
            if event.router >= num_routers:
                raise ValueError(
                    f"{event!r} names router {event.router}, but the "
                    f"topology has {num_routers} routers"
                )
            ports = router_ports[event.router]
            if event.port >= ports:
                raise ValueError(
                    f"{event!r} names port {event.port}, but router "
                    f"{event.router} has {ports} ports"
                )
            vc = getattr(event, "vc", None)
            if vc is not None and vc >= num_vcs:
                raise ValueError(
                    f"{event!r} names VC {vc}, but the network has "
                    f"{num_vcs} VCs per port"
                )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def materialize(
        self,
        router_ports: Sequence[int],
        num_vcs: int,
        horizon: int,
    ):
        """Expand the plan against concrete network dimensions.

        ``router_ports[r]`` is router ``r``'s port count (topologies
        here are port-uniform, but the per-router form keeps the
        generator honest).  ``horizon`` bounds generated fault times --
        normally ``warmup + measure + drain`` cycles.

        The draw order is fixed (links, then stuck VCs, then credits,
        each in (router, port, vc) order), so a given
        ``(plan, dimensions)`` pair always expands to the same event
        set regardless of where it runs.
        """
        from .state import FaultState  # a cycle at module level

        self.validate_topology(router_ports, num_vcs)

        link_faults: List[LinkFault] = list(self.link_faults)
        stuck_vcs: List[StuckVC] = list(self.stuck_vcs)
        credit_faults: List[CreditFault] = list(self.credit_faults)

        if self.draws:  # else no numpy: a plan is in every config
            import numpy as np
            rng = np.random.default_rng(self.seed)
        if self.link_rate > 0.0:
            for r, ports in enumerate(router_ports):
                for p in range(ports):
                    t = 0
                    while True:
                        t += int(rng.geometric(self.link_rate))
                        if t >= horizon:
                            break
                        duration = int(rng.geometric(1.0 / self.mean_downtime))
                        link_faults.append(
                            LinkFault(r, p, t, min(t + duration, horizon))
                        )
                        t += duration
        if self.stuck_vc_rate > 0.0:
            for r, ports in enumerate(router_ports):
                for p in range(ports):
                    for v in range(num_vcs):
                        if rng.random() < self.stuck_vc_rate:
                            stuck_vcs.append(
                                StuckVC(r, p, v, int(rng.integers(horizon)))
                            )
        for rate, kind in ((self.credit_drop_rate, "drop"),
                           (self.credit_dup_rate, "dup")):
            if rate <= 0.0:
                continue
            for r, ports in enumerate(router_ports):
                for p in range(ports):
                    for v in range(num_vcs):
                        count = int(rng.poisson(rate * horizon))
                        if count:
                            cycles = sorted(
                                int(c) for c in rng.integers(horizon, size=count)
                            )
                            credit_faults.extend(
                                CreditFault(r, p, v, c, kind) for c in cycles
                            )
        return FaultState(link_faults, stuck_vcs, credit_faults)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI argument.

    Accepts either a path to a JSON file holding ``FaultPlan.to_dict``
    output, or a compact ``key=value[,key=value...]`` spec::

        links=0.001,vcs=0.01,drop=0.0005,dup=0.0005,downtime=30,seed=7

    Keys: ``links`` (link_rate), ``vcs`` (stuck_vc_rate), ``drop``
    (credit_drop_rate), ``dup`` (credit_dup_rate), ``downtime``
    (mean_downtime), ``seed``.
    """
    if os.path.exists(spec):
        with open(spec) as fh:
            return FaultPlan.from_dict(json.load(fh))
    aliases = {
        "links": "link_rate",
        "link_rate": "link_rate",
        "vcs": "stuck_vc_rate",
        "stuck_vc_rate": "stuck_vc_rate",
        "drop": "credit_drop_rate",
        "credit_drop_rate": "credit_drop_rate",
        "dup": "credit_dup_rate",
        "credit_dup_rate": "credit_dup_rate",
        "downtime": "mean_downtime",
        "mean_downtime": "mean_downtime",
        "seed": "seed",
    }
    kwargs: Dict[str, Any] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"fault spec item {part!r} is not key=value (and no file "
                f"named {spec!r} exists)"
            )
        key, value = part.split("=", 1)
        field_name = aliases.get(key.strip())
        if field_name is None:
            raise ValueError(
                f"unknown fault spec key {key!r} "
                f"(expected one of {sorted(set(aliases))})"
            )
        kwargs[field_name] = (
            int(value) if field_name in ("seed", "mean_downtime")
            else float(value)
        )
    return FaultPlan(**kwargs)
