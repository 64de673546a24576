"""Implementation-cost sweeps (Figures 5, 6, 10, 11).

Runs the gate-level synthesis flow over every (design point, allocator
variant) combination and collects delay/area/power, recording capacity
failures where Design Compiler ran out of memory in the paper.  Results
can be memoized in a :class:`CostCache` because the larger netlists take
seconds to build and characterize.

Importing this module loads neither the synthesis flow nor numpy (the
sweeps import them when they run), so ``repro cost`` can render stored
:class:`CostResult` rows for the price of the interpreter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .store import ResultStore, code_salt, default_store_path

if TYPE_CHECKING:  # pragma: no cover
    from .design_points import DesignPoint

__all__ = [
    "CostResult",
    "CostCache",
    "vc_allocator_costs",
    "switch_allocator_costs",
    "sparse_savings",
    "speculation_delay_savings",
]


@dataclass
class CostResult:
    """One synthesized (or failed) design point."""

    label: str
    arch: str
    arbiter: str
    variant: str  # "sparse"/"dense" for VC; speculation scheme for switch
    delay_ns: Optional[float]
    area_um2: Optional[float]
    power_mw: Optional[float]
    num_cells: Optional[int]
    failed: bool = False

    @property
    def curve(self) -> str:
        return f"{self.arch}/{self.arbiter}"


class CostCache(ResultStore):
    """On-disk memo of synthesis results: the
    :class:`~repro.eval.store.ResultStore` salted with
    :func:`~repro.eval.store.code_salt`, so editing any source file of
    the package drops every stored number (no version suffix to bump).
    Writes are batched; the cost sweeps flush when they return.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        super().__init__(
            path if path is not None else default_store_path(),
            salt=code_salt(),
            validate=lambda raw: CostResult(**raw),
            label="cost cache",
        )

    def get(self, key: str) -> Optional[CostResult]:
        raw = self._entries.get(key)
        if raw is None:
            return None
        try:
            return CostResult(**raw)
        except TypeError:  # not a CostResult (hand edit): recompute
            self.drop(key)
            return None

    def put(self, key: str, result: CostResult) -> None:
        self.put_payload(key, asdict(result))


def _costs(cache, label, designs, jobs) -> List[CostResult]:
    """One :class:`CostResult` per ``(key, arch, arbiter, variant,
    synthesize)`` design, in order: hits come from ``cache``, misses are
    synthesized on at most ``jobs`` pool workers and stored here (the
    cache is only ever touched in this process)."""
    from ..hw.synthesis import SynthesisCapacityError
    from .runner import map_jobs

    results = [cache.get(d[0]) if cache is not None else None for d in designs]
    misses = [i for i, r in enumerate(results) if r is None]

    def run(i: int) -> CostResult:
        _, arch, arbiter, variant, synthesize = designs[i]
        try:
            rep = synthesize()
        except SynthesisCapacityError:
            return CostResult(label, arch, arbiter, variant, None, None, None, None, True)
        return CostResult(
            label, arch, arbiter, variant,
            rep.delay_ns, rep.area_um2, rep.power_mw, rep.num_cells,
        )

    computed = map_jobs(run, misses, jobs=jobs, label=lambda i: designs[i][0])
    for i, result in zip(misses, computed):
        results[i] = result
        if cache is not None:
            cache.put(designs[i][0], result)
    if cache is not None:
        cache.flush()
    return results


def vc_allocator_costs(
    point: DesignPoint,
    variants: Optional[Sequence[Tuple[str, str]]] = None,
    cache: Optional[CostCache] = None,
    size_iterations: int = 8,
    jobs: Optional[int] = None,
) -> List[CostResult]:
    """Figures 5/6: each variant (default: ``VC_VARIANTS``) synthesized
    dense and sparse.

    Dense = the un-optimized baseline (runtime VC masks over the full
    range); sparse = with the Section 4.2 optimizations.  Failed points
    are reported with ``failed=True`` (single-point curves in the
    paper's figures).  Designs ``cache`` lacks are synthesized on at
    most ``jobs`` pool workers (default: one per usable CPU).
    """
    from ..hw.synthesis import synthesize_vc_allocator
    from .design_points import VC_VARIANTS

    designs = []
    for arch, arbiter in VC_VARIANTS if variants is None else variants:
        for sparse in (False, True):
            variant = "sparse" if sparse else "dense"
            designs.append((
                f"vc|{point.label}|{arch}|{arbiter}|{variant}|{size_iterations}",
                arch, arbiter, variant,
                partial(
                    synthesize_vc_allocator, point.num_ports, point.partition,
                    arch, arbiter, sparse, size_iterations=size_iterations,
                ),
            ))
    return _costs(cache, point.label, designs, jobs)


def switch_allocator_costs(
    point: DesignPoint,
    variants: Optional[Sequence[Tuple[str, str]]] = None,
    schemes: Optional[Sequence[str]] = None,
    cache: Optional[CostCache] = None,
    size_iterations: int = 8,
    jobs: Optional[int] = None,
) -> List[CostResult]:
    """Figures 10/11: three speculation points (default:
    ``SPECULATION_SCHEMES``) per variant curve (``SWITCH_VARIANTS``),
    synthesized like :func:`vc_allocator_costs`."""
    from ..hw.synthesis import synthesize_switch_allocator
    from .design_points import SPECULATION_SCHEMES, SWITCH_VARIANTS

    designs = []
    for arch, arbiter in SWITCH_VARIANTS if variants is None else variants:
        for scheme in SPECULATION_SCHEMES if schemes is None else schemes:
            designs.append((
                f"sw|{point.label}|{arch}|{arbiter}|{scheme}|{size_iterations}",
                arch, arbiter, scheme,
                partial(
                    synthesize_switch_allocator, point.num_ports,
                    point.num_vcs, arch, arbiter, scheme,
                    size_iterations=size_iterations,
                ),
            ))
    return _costs(cache, point.label, designs, jobs)


def sparse_savings(results: Sequence[CostResult]) -> Dict[str, Dict[str, float]]:
    """Per-curve dense->sparse reductions (the Section 4.3.1 headline:
    up to 41%/90%/83% for delay/area/power)."""
    by_curve: Dict[str, Dict[str, CostResult]] = {}
    for r in results:
        by_curve.setdefault(r.curve, {})[r.variant] = r
    savings = {}
    for curve, pair in by_curve.items():
        dense = pair.get("dense")
        sparse = pair.get("sparse")
        if dense is None or sparse is None or dense.failed or sparse.failed:
            continue
        savings[curve] = {
            "delay": 1 - sparse.delay_ns / dense.delay_ns,
            "area": 1 - sparse.area_um2 / dense.area_um2,
            "power": 1 - sparse.power_mw / dense.power_mw,
        }
    return savings


def speculation_delay_savings(results: Sequence[CostResult]) -> Dict[str, float]:
    """Per-curve pessimistic-vs-conventional delay reduction (the
    Section 5.3.1 headline: up to 23%)."""
    by_curve: Dict[str, Dict[str, CostResult]] = {}
    for r in results:
        by_curve.setdefault(r.curve, {})[r.variant] = r
    out = {}
    for curve, pts in by_curve.items():
        conv = pts.get("conventional")
        pess = pts.get("pessimistic")
        if conv and pess and not conv.failed and not pess.failed:
            out[curve] = 1 - pess.delay_ns / conv.delay_ns
    return out
