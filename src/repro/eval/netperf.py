"""Network-level performance sweeps (Figures 13 & 14).

Latency-vs-injection-rate curves plus the derived metrics the paper's
text quotes: zero-load latency and saturation throughput (the offered
load at which average latency crosses a multiple of zero-load).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..netsim.config import SimulationConfig, SimulationResult
from .runner import ResultCache, SweepReporter, run_point, run_sweep

__all__ = [
    "SweepPoint",
    "LatencyCurve",
    "latency_sweep",
    "zero_load_latency",
    "saturation_throughput",
]


@dataclass
class SweepPoint:
    rate: float
    latency: float
    accepted: float
    saturated: bool
    misspeculations: int = 0
    speculative_wins: int = 0
    # Tail-latency percentiles from the run's LatencySummary; ``None``
    # (not NaN, which would break equality checks) when no packets were
    # measured.
    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None
    #: True when the point's simulation failed (timeout, worker crash,
    #: watchdog abort) under ``on_failure="record"``; the numeric
    #: fields are then placeholders, not measurements.
    failed: bool = False


@dataclass
class LatencyCurve:
    label: str
    points: List[SweepPoint]

    @property
    def zero_load(self) -> float:
        return self.points[0].latency if self.points else float("inf")

    def saturation_rate(
        self,
        threshold_factor: float = 3.0,
        zero_load: Optional[float] = None,
    ) -> float:
        """Offered load at which latency exceeds ``factor`` x zero-load.

        Linearly interpolates between the last stable point and the
        first unstable one; returns the last measured rate if the curve
        never saturates over the sweep.

        ``zero_load`` overrides the curve's own zero-load latency --
        pass a common reference when comparing schemes whose zero-load
        latencies differ (e.g. speculative vs non-speculative routers),
        otherwise the lower-latency scheme is held to a stricter
        absolute threshold.
        """
        z = zero_load if zero_load is not None else self.zero_load
        limit = threshold_factor * z
        prev = None
        for pt in self.points:
            # A failed point (timeout / watchdog abort) is treated as
            # saturated: the fabric could not sustain that load.
            bad = pt.failed or pt.saturated or pt.latency > limit
            if bad and prev is not None:
                if (
                    pt.failed
                    or pt.latency == float("inf")
                    or pt.latency <= prev.latency
                ):
                    return prev.rate
                frac = (limit - prev.latency) / (pt.latency - prev.latency)
                frac = min(max(frac, 0.0), 1.0)
                return prev.rate + frac * (pt.rate - prev.rate)
            if bad:
                return pt.rate
            prev = pt
        return self.points[-1].rate if self.points else 0.0


def _to_point(rate: float, res: Optional[SimulationResult]) -> SweepPoint:
    if res is None:
        # The point failed under on_failure="record": keep its slot in
        # the curve (so rates stay aligned) but mark it.
        return SweepPoint(
            rate, float("inf"), 0.0, True, failed=True,
        )
    summary = res.latency_summary
    return SweepPoint(
        rate,
        res.avg_latency,
        res.accepted_flit_rate,
        res.saturated,
        res.misspeculations,
        res.speculative_wins,
        p50=summary.p50 if summary is not None else None,
        p95=summary.p95 if summary is not None else None,
        p99=summary.p99 if summary is not None else None,
    )


def latency_sweep(
    base: SimulationConfig,
    rates: Sequence[float],
    label: str = "",
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    reporter: Optional[SweepReporter] = None,
    sim_fn: Optional[Callable[[SimulationConfig], SimulationResult]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 1.0,
    on_failure: str = "raise",
    checkpoint=None,
    scheduler=None,
) -> LatencyCurve:
    """Run the simulator at every one of ``rates`` and collect the
    latency curve, one point per rate.

    The points run through :func:`~repro.eval.runner.run_sweep`, and
    every keyword after ``label`` passes straight through to it:
    ``jobs > 1`` (or ``None``: one worker per usable CPU) fans the
    points out over worker processes, ``cache`` memoizes completed
    points on disk, ``sim_fn`` substitutes the simulator on the inline
    path (the CLI uses it to attach a :mod:`repro.obs` observer), and
    a non-``None`` ``scheduler`` (e.g. a
    :class:`~repro.serve.client.RemoteScheduler`) decides where cache
    misses are computed.  With ``on_failure="record"`` a failed point
    keeps its slot in the curve as a :class:`SweepPoint` with
    ``failed=True``.
    """
    configs = [replace(base, injection_rate=rate) for rate in rates]
    results = run_sweep(
        configs, jobs=jobs, cache=cache, reporter=reporter, sim_fn=sim_fn,
        timeout=timeout, retries=retries, backoff=backoff,
        on_failure=on_failure, checkpoint=checkpoint, scheduler=scheduler,
    )
    points = [_to_point(rate, res) for rate, res in zip(rates, results)]
    return LatencyCurve(label or base.sw_alloc_arch, points)


def zero_load_latency(
    base: SimulationConfig,
    rate: float = 0.02,
    cache: Optional[ResultCache] = None,
) -> float:
    """Average latency at (near) zero load."""
    cfg = replace(base, injection_rate=rate)
    return run_point(cfg, cache=cache).avg_latency


def saturation_throughput(
    base: SimulationConfig,
    lo: float = 0.05,
    hi: float = 1.0,
    iterations: int = 6,
    threshold_factor: float = 3.0,
    cache: Optional[ResultCache] = None,
) -> float:
    """Binary-search the offered load where latency crosses
    ``threshold_factor`` x zero-load (the paper's saturation metric).

    Inherently sequential (each probe depends on the last), but every
    probe is memoized through ``cache`` when one is supplied.
    """
    z = zero_load_latency(base, cache=cache)
    limit = threshold_factor * z

    def stable(rate: float) -> bool:
        res = run_point(replace(base, injection_rate=rate), cache=cache)
        return not res.saturated and res.avg_latency <= limit

    try:
        if not stable(lo):
            return lo
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if stable(mid):
                lo = mid
            else:
                hi = mid
        return lo
    finally:
        if cache is not None:
            cache.flush()  # persistence is batched; see ResultCache
