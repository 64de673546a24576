#!/usr/bin/env python
"""Differential bit-identity check across the allocation kernels.

Runs every design point in a seeded config matrix (allocator
architectures x topologies x faults on/off x observer on/off, plus the
torus and the fault-tolerant routing modes under a permanent link
fault, so every topology description is covered) under the
reference kernel and every kernel under test (default: ``fast`` and
``compiled``, see :data:`DEFAULT_KERNELS`) and asserts the
resulting :class:`~repro.netsim.simulator.SimulationResult` payloads --
every statistic, down to the last misspeculation counter -- are
identical.  For observed runs the collected metrics rows must match as
well.

Two further checks ride along.  The *lifecycle* cases drive the default
kernel and the reference through the same schedule while an observer,
profiler or fault state is attached or detached mid-run -- the moments
``Router._bind_step`` reselects the dispatched step -- and compare the
delivery stream, the network totals and the complete post-run network
state (:func:`net_state`).  The UGAL check compares the routing hop
tables against ``row_port``/``col_port`` over every (router, target)
pair.

This is the command-line face of the equivalence harness (the pytest
face lives in ``tests/perf/test_kernel_equivalence.py``); CI runs it
with ``--quick``, and any optimisation work on the generated kernel
should keep it green at full depth:

    PYTHONPATH=src python scripts/check_bit_identity.py [--quick] [-v]
        [--kernel NAME ...]

``--kernel`` restricts the kernels under test; names are validated
against the kernel registry (``repro.netsim.kernels.KERNELS``) and an
unknown name exits with status 2 listing the available kernels.

When a compiled point differs, read what was generated: ``--dump-kernel
DIR`` writes the source of every template design point (the plain,
``-prof``, ``-hooked`` and ``-prof-hooked`` render, one ``<slug>.py``
each) into DIR and exits without comparing anything.

Exit status 0 iff every point is identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.arbiters import (
    FixedPriorityArbiter,
    MatrixArbiter,
    RoundRobinArbiter,
    TreeArbiter,
)
from repro.faults.plan import FaultPlan, LinkFault, StuckVC
from repro.netsim.codegen import iter_template_sources
from repro.netsim.kernels import DEFAULT_KERNEL, KERNELS
from repro.netsim.routing.ugal import UGALRouting
from repro.netsim.simulator import SimulationConfig, build_network, run_simulation
from repro.obs.observer import SimObserver
from repro.obs.profiling import PhaseProfiler

# Kernels compared against "reference" when --kernel is not given.  Both
# run the generated step: "compiled" its plain render, or the hooked one
# on observed and faulted points; "fast" the hooked render even with
# nothing attached, which checks that detached hook sites change
# nothing.  ("fast" keeps its name because benchmark probes select it.)
DEFAULT_KERNELS = ("fast", "compiled")

# Short but non-trivial windows: long enough to reach steady state and
# exercise contention, misspeculation and (for fault points) blocked
# links, short enough that the full matrix stays a few minutes.
WINDOWS = dict(warmup_cycles=200, measure_cycles=600, drain_cycles=600)

FAULT_PLAN = FaultPlan(
    seed=7,
    link_rate=0.0002,
    mean_downtime=30,
    link_faults=(LinkFault(router=9, port=1, start=250, end=450),),
    stuck_vcs=(StuckVC(router=3, port=2, vc=1, start=0),),
)


# The networks and routing modes the arch x {mesh, fbfly} matrix does not
# reach: (topology, routing, fault plan).  The fault-tolerant modes run
# under a permanent link fault, the case their detour tables exist for.
EXTRA_DESCRIPTIONS = (
    ("torus", "default", None),
    ("mesh", "ft_dor", FaultPlan(link_faults=(LinkFault(9, 1, 0, None),))),
    ("fbfly", "ft_ugal", FaultPlan(link_faults=(LinkFault(5, 4, 0, None),))),
)


def design_point(
    arch: str,
    topo: str,
    faults: Optional[FaultPlan] = None,
    routing: str = "default",
) -> SimulationConfig:
    """One design point of the matrix at the script's windows."""
    arbiter = "m" if arch == "sep_of" else "rr"
    return SimulationConfig(
        topology=topo,
        routing=routing,
        vcs_per_class=2,
        injection_rate=0.30,
        vc_alloc_arch=arch,
        vc_alloc_arbiter=arbiter,
        sw_alloc_arch=arch,
        sw_alloc_arbiter=arbiter,
        speculation="pessimistic" if arch != "sep_of" else "conventional",
        seed=11,
        faults=faults,
        **WINDOWS,
    )


def config_matrix(quick: bool) -> List[Tuple[str, SimulationConfig, bool]]:
    """(label, config, observed) triples for the sweep."""
    points: List[Tuple[str, SimulationConfig, bool]] = []
    archs = ["sep_if", "sep_of", "wf"]
    topologies = ["mesh", "fbfly"]
    for arch in archs:
        for topo in topologies:
            for faulted in (False, True):
                for observed in (False, True):
                    if quick and faulted != observed:
                        # Quick mode: plain and fully-loaded points
                        # only (arch x topo coverage is preserved).
                        continue
                    cfg = design_point(arch, topo, FAULT_PLAN if faulted else None)
                    label = (
                        f"{arch}/{topo}"
                        f"{'/faults' if faulted else ''}"
                        f"{'/observer' if observed else ''}"
                    )
                    points.append((label, cfg, observed))
    for i, (topo, routing, faults) in enumerate(EXTRA_DESCRIPTIONS):
        # Quick mode: one allocator architecture per description.
        for arch in [archs[i]] if quick else archs:
            cfg = design_point(arch, topo, faults, routing)
            label = f"{arch}/{topo}/{routing}{'/link-down' if faults else ''}"
            points.append((label, cfg, False))
    return points


def validate_kernels(names: List[str]) -> Optional[str]:
    """Error message if any requested kernel is not in the registry."""
    unknown = [n for n in names if n not in KERNELS]
    if unknown:
        return (
            f"unknown kernel(s) {', '.join(map(repr, unknown))} "
            f"(available: {', '.join(KERNELS)})"
        )
    return None


def kernel_probe(kernels: Tuple[str, ...] = DEFAULT_KERNELS) -> Optional[str]:
    """Error message if any allocation kernel cannot be selected.

    A removed or broken kernel must fail this harness loudly -- an
    exception here, swallowed into an empty matrix, would otherwise
    read as "all identical".
    """
    cfg = SimulationConfig(
        topology="mesh", warmup_cycles=0, measure_cycles=1, drain_cycles=0
    )
    for kernel in ("reference",) + tuple(kernels):
        try:
            build_network(cfg, kernel=kernel).close()
        except Exception as exc:  # noqa: BLE001 -- report, don't crash
            return f"{kernel!r} kernel unavailable: {exc}"
    return None


def run_point(
    cfg: SimulationConfig,
    observed: bool,
    kernels: Tuple[str, ...] = DEFAULT_KERNELS,
) -> Tuple[Dict[str, dict], Dict[str, Optional[List[dict]]]]:
    """Run one design point under the reference and the given kernels.

    Returns ``(payloads, observer_rows)``, each keyed by kernel name
    (with ``"reference"`` always present).
    """
    payloads: Dict[str, dict] = {}
    rows: Dict[str, Optional[List[dict]]] = {}
    for kernel in ("reference",) + tuple(kernels):
        obs = SimObserver(sample_every=100) if observed else None
        result = run_simulation(cfg, observer=obs, kernel=kernel)
        payloads[kernel] = result.to_payload()
        rows[kernel] = obs.rows if obs is not None else None
    return payloads, rows


# ----------------------------------------------------------------------
# complete network state
# ----------------------------------------------------------------------
def arb_state(arb):
    """Complete priority state of an arbiter, as a comparable value."""
    if isinstance(arb, RoundRobinArbiter):
        return ("rr", arb.pointer)
    if isinstance(arb, MatrixArbiter):
        return ("m", tuple(tuple(row) for row in arb._beats))
    if isinstance(arb, TreeArbiter):
        return (
            "tree",
            tuple(arb_state(a) for a in arb._group_arbs),
            arb_state(arb._top_arb),
        )
    assert isinstance(arb, FixedPriorityArbiter)
    return ("fixed",)


def sw_state(alloc):
    state = [arb_state(a) for a in alloc._vc_arbs]
    state += [arb_state(a) for a in alloc._port_arbs]
    if alloc._wavefront is not None:
        state.append(("wf", alloc._wavefront.priority_diagonal))
    return state


def vc_state(alloc):
    state = [arb_state(a) for a in alloc._input_arbs]
    state += [arb_state(a) for a in alloc._output_arbs]
    state += [("wf", wf.priority_diagonal) for wf in alloc._wavefronts]
    return state


def net_state(net):
    """Complete comparable state of every router in a network.

    Packet ids come from a process-global counter, so they are
    normalized to first-seen order; everything else (arbiter
    priorities, credits, buffer contents, holder registers, counters)
    is compared verbatim.
    """
    pidmap: Dict[int, int] = {}

    def norm(pid):
        return pidmap.setdefault(pid, len(pidmap))

    state = []
    for r in net.routers:
        state.append(
            {
                "busy": sorted(r._busy),
                "credits": [list(c) for c in r.credits],
                "holder": [list(h) for h in r.output_holder],
                "counters": (
                    r.switch_grants,
                    r.speculative_wins,
                    r.misspeculations,
                ),
                "ivc": [
                    (
                        ivc.output_port,
                        ivc.output_vc,
                        [norm(f.packet.pid) for f in ivc.queue],
                    )
                    for port in r.input_vcs
                    for ivc in port
                ],
                "va": vc_state(r.vc_alloc),
                "sa": [
                    sw_state(core)
                    for core in (
                        r.sw_alloc._nonspec_alloc,
                        r.sw_alloc._spec_alloc,
                    )
                    if core is not None
                ],
            }
        )
    return state


# ----------------------------------------------------------------------
# lifecycle cases: attach/detach while the run is in flight
# ----------------------------------------------------------------------
def attach_faults(net, cfg: SimulationConfig, obs: Optional[SimObserver] = None) -> None:
    """Materialize :data:`FAULT_PLAN` for ``cfg``'s schedule and attach it."""
    net.attach_fault_state(
        FAULT_PLAN.materialize(
            [r.num_ports for r in net.routers],
            net.routers[0].num_vcs,
            cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles,
        )
    )


#: name -> (what happens at cycle 0, at the end of warmup, at the end of
#: the measurement window); each action is ``fn(net, cfg, obs)`` or None,
#: ``obs`` being the run's one observer, attached or not.
LIFECYCLE_CASES = {
    "attach-observer-mid-run": (
        None,
        lambda net, cfg, obs: net.attach_observer(obs),
        None,
    ),
    "detach-observer": (
        lambda net, cfg, obs: net.attach_observer(obs),
        lambda net, cfg, obs: net.attach_observer(None),
        None,
    ),
    "attach-then-detach-profiler": (
        None,
        lambda net, cfg, obs: net.attach_profiler(PhaseProfiler()),
        lambda net, cfg, obs: net.attach_profiler(None),
    ),
    "attach-faults-after-warmup": (None, attach_faults, None),
}


def lifecycle_matrix(quick: bool) -> List[Tuple[str, SimulationConfig, str]]:
    """(label, config, case name) triples for the lifecycle check."""
    if quick:
        points = [("wf", "mesh"), ("sep_if", "fbfly")]
    else:
        points = [(a, t) for a in ("sep_if", "sep_of", "wf") for t in ("mesh", "fbfly")]
    return [
        (f"{arch}/{topo}/{case}", design_point(arch, topo), case)
        for arch, topo in points
        for case in LIFECYCLE_CASES
    ]


def run_lifecycle(cfg: SimulationConfig, case: str, kernel: str) -> Tuple[dict, list]:
    """Drive ``cfg``'s full schedule on ``kernel`` through one
    lifecycle case; returns ``(payload, net_state)``."""
    net = build_network(cfg, kernel=kernel)
    deliveries: List[tuple] = []
    net.on_delivery = lambda pkt, now: deliveries.append(
        (pkt.src, pkt.dest, pkt.message_class, pkt.birth_time, now)
    )
    observer = SimObserver(sample_every=100)
    observer.run_started(cfg)
    phases = (cfg.warmup_cycles, cfg.measure_cycles, cfg.drain_cycles)
    for action, cycles in zip(LIFECYCLE_CASES[case], phases):
        if action is not None:
            action(net, cfg, observer)
        net.run(cycles)
    observer.run_finished(net, cfg)
    payload = {
        "deliveries": deliveries,
        "injected_flits": net.total_injected_flits(),
        "ejected_flits": net.total_ejected_flits(),
        "switch_grants": net.total_switch_grants(),
        "speculative_wins": net.total_speculative_wins(),
        "misspeculations": net.total_misspeculations(),
        "in_flight_flits": net.in_flight_flits(),
        "in_flight_credits": net.in_flight_credits(),
        "observer_rows": observer.rows,
        "fault_counters": (
            net.fault_state.summary() if net.fault_state is not None else None
        ),
    }
    state = net_state(net)
    net.close()
    return payload, state


def lifecycle_problems(cfg: SimulationConfig, case: str, kernel: str = DEFAULT_KERNEL) -> List[str]:
    """Differences between ``kernel`` and the reference on one case."""
    got, got_state = run_lifecycle(cfg, case, kernel)
    ref, ref_state = run_lifecycle(cfg, case, "reference")
    problems = diff_payloads(got, ref, kernel)
    if got_state != ref_state:
        bad = [i for i, (a, b) in enumerate(zip(got_state, ref_state)) if a != b]
        problems.append(f"  post-run network state differs at router(s) {bad}")
    return problems


def ugal_hop_table_problems(shapes=((4, 4, 4), (2, 3, 2), (3, 1, 1))) -> List[str]:
    """Exhaustive check of the UGAL hop tables against the port
    arithmetic they were built from (``row_port`` / ``col_port``)."""
    problems = []
    for rows, cols, conc in shapes:
        routing = UGALRouting(rows, cols, conc)
        for a in range(rows * cols):
            for b in range(rows * cols):
                (r1, c1), (r2, c2) = divmod(a, cols), divmod(b, cols)
                dest = b * conc + (a + b) % conc  # some terminal of router b
                if c1 != c2:
                    want = routing.row_port(a, c2)
                elif r1 != r2:
                    want = routing.col_port(a, r2)
                else:
                    want = dest % conc
                got = routing.first_hop_port(a, b, dest)
                hops = (c1 != c2) + (r1 != r2)
                if got != want or routing.hops(a, b) != hops:
                    problems.append(
                        f"  {rows}x{cols}c{conc} {a}->{b}: port {got} (want "
                        f"{want}), hops {routing.hops(a, b)} (want {hops})"
                    )
    return problems


def diff_payloads(got: dict, ref: dict, name: str = "fast") -> List[str]:
    """Human-readable field-level differences (empty = identical)."""
    out = []
    for key in sorted(set(got) | set(ref)):
        a, b = got.get(key), ref.get(key)
        if a != b and not (a != a and b != b):  # NaN == NaN for our purposes
            out.append(f"  {key}: {name}={a!r} reference={b!r}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="half matrix (plain + faults-and-observer points, one point "
        "per further topology description); CI smoke",
    )
    parser.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="kernel to compare against reference (repeatable; default: "
        f"{', '.join(DEFAULT_KERNELS)})",
    )
    parser.add_argument(
        "--dump-kernel",
        default=None,
        metavar="DIR",
        help="write the generated compiled-kernel source of every template "
        "design point into DIR and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print per-point timing"
    )
    args = parser.parse_args(argv)

    if args.dump_kernel is not None:
        dump_dir = Path(args.dump_kernel)
        dump_dir.mkdir(parents=True, exist_ok=True)
        sources = dict(iter_template_sources())
        for slug, source in sources.items():
            (dump_dir / f"{slug}.py").write_text(source)
        print(f"dumped {len(sources)} generated kernel source(s) to "
              f"{dump_dir}/", file=sys.stderr)
        return 0

    bad = validate_kernels(args.kernel)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    kernels = tuple(args.kernel) if args.kernel else DEFAULT_KERNELS
    under_test = tuple(k for k in kernels if k != "reference")
    if not under_test:
        print(
            "error: no kernel under test (only 'reference' was named)",
            file=sys.stderr,
        )
        return 2

    points = config_matrix(args.quick)
    if not points:
        # "ALL IDENTICAL (0 design points)" is a vacuous pass; refuse it.
        print(
            "error: the design-point matrix is empty -- nothing was "
            "compared, so bit identity is NOT established",
            file=sys.stderr,
        )
        return 2
    problem = kernel_probe(under_test)
    if problem is not None:
        print(
            f"error: {problem} -- bit identity cannot be checked",
            file=sys.stderr,
        )
        return 2
    failures = 0

    def report(label: str, problems: List[str], t0: float) -> None:
        nonlocal failures
        if problems:
            failures += 1
            print(f"MISMATCH {label}")
            for line in problems:
                print(line)
        elif args.verbose:
            print(f"ok {label} ({time.perf_counter() - t0:.1f}s)")

    for label, cfg, observed in points:
        t0 = time.perf_counter()
        payloads, rows = run_point(cfg, observed, under_test)
        problems = []
        for kernel in under_test:
            problems += diff_payloads(
                payloads[kernel], payloads["reference"], kernel
            )
            if observed and rows[kernel] != rows["reference"]:
                problems.append(f"  observer metrics rows differ ({kernel})")
        report(label, problems, t0)

    # Bind-time step selection: only the default kernel switches step
    # when something is attached, so the cases run when it is under test.
    cases = lifecycle_matrix(args.quick) if DEFAULT_KERNEL in under_test else []
    for label, cfg, case in cases:
        t0 = time.perf_counter()
        report(label, lifecycle_problems(cfg, case), t0)
    report("ugal hop tables", ugal_hop_table_problems(), time.perf_counter())

    total = len(points) + len(cases) + 1
    if failures:
        print(f"{failures}/{total} checks differ between kernels")
        return 1
    print(f"ALL IDENTICAL ({len(points)} design points, {len(cases)} "
          f"lifecycle cases on {DEFAULT_KERNEL}, ugal hop tables; "
          f"kernels: {', '.join(under_test)} vs reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
