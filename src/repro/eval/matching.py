"""Open-loop matching-quality experiments (Section 3.1, Figures 7 & 12).

Streams of pseudo-random request matrices are fed to each allocator and
the resulting grant counts are normalized against a maximum-size
allocator driven with the same requests.  The paper uses 10 000 request
matrices per point; ``num_samples`` is configurable so the benchmark
harness can trade precision for runtime.  Requests are drawn from
:class:`~repro.netsim.rng.PCG64Stream`, draw for draw what numpy's
``default_rng(seed)`` drew when these curves were first recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.maxsize import hopcroft_karp
from ..core.switch_allocator import SwitchAllocator, SwitchRequests
from ..core.vc_allocator import VCAllocator, VCRequest
from ..netsim.rng import PCG64Stream
from .design_points import DesignPoint
from .runner import map_jobs

__all__ = [
    "QualityCurve",
    "DEFAULT_RATES",
    "vc_matching_quality",
    "switch_matching_quality",
    "switch_request_grant_efficiency",
]

DEFAULT_RATES: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class QualityCurve:
    """Matching quality vs request rate for one allocator."""

    label: str
    rates: List[float]
    quality: List[float]

    def at(self, rate: float) -> float:
        return self.quality[self.rates.index(rate)]


def _max_matching_size(adjacency: List[List[int]], num_right: int) -> int:
    match = hopcroft_karp(adjacency, num_right)
    return sum(1 for v in match if v != -1)


def random_switch_requests(
    rng: PCG64Stream, P: int, V: int, rate: float
) -> SwitchRequests:
    """One request matrix: each of the ``P*V`` input VCs requests a
    uniformly random output port with probability ``rate``."""
    request_draw = rng.random(P * V)
    ports = rng.integers(P, P * V)
    flat = [q if u < rate else None for u, q in zip(request_draw, ports)]
    return [flat[p * V:(p + 1) * V] for p in range(P)]


def port_adjacency(requests: SwitchRequests) -> List[List[int]]:
    """Output ports each input port requests, ascending."""
    return [sorted({q for q in row if q is not None}) for row in requests]


def _curves(
    curve: Callable[[str], List[float]],
    archs: Sequence[str],
    rates: Sequence[float],
    jobs: Optional[int],
) -> Dict[str, QualityCurve]:
    """``curve(arch)`` per arch, on at most ``jobs`` pool workers: each
    arch seeds its own request stream, so where it runs cannot change
    what it draws."""
    qualities = map_jobs(curve, archs, jobs=jobs)
    return {
        arch: QualityCurve(arch, list(rates), q)
        for arch, q in zip(archs, qualities)
    }


def vc_matching_quality(
    point: DesignPoint,
    archs: Sequence[str] = ("sep_if", "sep_of", "wf"),
    rates: Sequence[float] = DEFAULT_RATES,
    num_samples: int = 10_000,
    seed: int = 0,
    arbiter: str = "rr",
    jobs: Optional[int] = None,
) -> Dict[str, QualityCurve]:
    """Figure 7: VC allocator matching quality.

    Each input VC independently holds a head flit with probability
    ``rate`` (the figure's "requests per VC per cycle"); the flit
    targets a uniformly random output port and a uniformly random legal
    successor resource class, with all ``C`` VCs of that class as
    candidates.  Each arch is one job on at most ``jobs`` pool workers
    (default: one per usable CPU).
    """
    P = point.num_ports
    part = point.partition
    V = part.num_vcs
    n = P * V

    # Precompute candidate sets per (input VC class, successor class).
    successor_sets = []
    for v in range(V):
        m_in, r_in, _ = part.vc_fields(v)
        successor_sets.append(
            [tuple(part.class_vcs(m_in, r)) for r in part.successor_classes(r_in)]
        )

    def curve(arch: str) -> List[float]:
        alloc = VCAllocator(P, part, arch=arch, arbiter=arbiter, sparse=True)
        alloc.check_requests = False
        rng = PCG64Stream(seed)
        qualities = []
        for rate in rates:
            total = 0
            total_max = 0
            for _ in range(num_samples):
                request_draw = rng.random(n)
                ports = rng.integers(P, n)
                class_pick = rng.random(n)
                requests: List[Optional[VCRequest]] = [None] * n
                adjacency: List[List[int]] = [[] for _ in range(n)]
                for i in range(n):
                    if request_draw[i] >= rate:
                        continue
                    choices = successor_sets[i % V]
                    cands = choices[int(class_pick[i] * len(choices))]
                    q = ports[i]
                    requests[i] = VCRequest(q, cands)
                    base = q * V
                    adjacency[i] = [base + u for u in cands]
                grants = alloc.allocate(requests)
                total += sum(g is not None for g in grants)
                total_max += _max_matching_size(adjacency, n)
            qualities.append(total / total_max if total_max else 1.0)
        return qualities

    return _curves(curve, archs, rates, jobs)


def switch_request_grant_efficiency(
    point: DesignPoint,
    rate: float,
    num_samples: int = 1000,
    seed: int = 0,
    arch: str = "sep_if",
    arbiter: str = "rr",
) -> float:
    """Grants per *request* for random request matrices at ``rate``.

    Unlike :func:`switch_matching_quality` (grants normalized against a
    maximum-size matching), this is the request-denominated matching
    efficiency -- the same statistic the :mod:`repro.obs` metrics layer
    accumulates per cycle inside the network simulator
    (``sa_grants / (sa_requests_nonspec + sa_requests_spec)``), so the
    two can be cross-checked: feed the in-network per-VC request
    probability in as ``rate`` and the offline number should agree
    within sampling noise plus the (modest) bias from correlated
    in-network request patterns.
    """
    P = point.num_ports
    V = point.num_vcs
    alloc = SwitchAllocator(P, V, arch=arch, arbiter=arbiter)
    alloc.check_requests = False
    rng = PCG64Stream(seed)
    total_requests = 0
    total_grants = 0
    for _ in range(num_samples):
        requests = random_switch_requests(rng, P, V, rate)
        grants = alloc.allocate(requests)
        total_requests += sum(q is not None for row in requests for q in row)
        total_grants += sum(g is not None for g in grants)
    return total_grants / total_requests if total_requests else 1.0


def switch_matching_quality(
    point: DesignPoint,
    archs: Sequence[str] = ("sep_if", "sep_of", "wf"),
    rates: Sequence[float] = DEFAULT_RATES,
    num_samples: int = 10_000,
    seed: int = 0,
    arbiter: str = "rr",
    jobs: Optional[int] = None,
) -> Dict[str, QualityCurve]:
    """Figure 12: switch allocator matching quality.

    Each input VC independently requests a uniformly random output port
    with probability ``rate``.  The maximum-size reference matches on
    the port-level request matrix (at most one grant per input port and
    output port).  Each arch is one job, as in :func:`vc_matching_quality`.
    """
    P = point.num_ports
    V = point.num_vcs

    def curve(arch: str) -> List[float]:
        alloc = SwitchAllocator(P, V, arch=arch, arbiter=arbiter)
        alloc.check_requests = False
        rng = PCG64Stream(seed)
        qualities = []
        for rate in rates:
            total = 0
            total_max = 0
            for _ in range(num_samples):
                requests = random_switch_requests(rng, P, V, rate)
                grants = alloc.allocate(requests)
                total += sum(g is not None for g in grants)
                total_max += _max_matching_size(port_adjacency(requests), P)
            qualities.append(total / total_max if total_max else 1.0)
        return qualities

    return _curves(curve, archs, rates, jobs)
