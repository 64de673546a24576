"""The four workloads as ``repro`` command sequences, and their checks.

Every workload run is *setup* -> *cold pass* (the command sequence on an
empty state dir) -> *warm passes* (the identical sequence again, on the
on-disk state the cold pass left).  All timing here is of fresh ``repro``
subprocesses; nothing in this module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import BENCH_DIR, ROOT
from .procs import (
    COMMAND_TIMEOUT_S, Children, CommandResult, ServerHandle, child_env, repro_argv,
)
from .stats import summarize

__all__ = [
    "SIZES",
    "SMOKE_SIZES",
    "antithetic_rates",
    "canonical_output",
    "output_digest",
    "table_rows",
    "command_sequence",
    "run_workload",
    "write_expected",
]

TMP_ROOT = BENCH_DIR / ".tmp"
EXPECTED_DIR = BENCH_DIR / "expected"
RUN_DEADLINE_S = 140.0

# Sized on the 2-core reference box so that a cold pass takes 9-14 s and
# cold + warm passes fill the 20 s a run measures (see bench/README.md).
SIZES: Dict[str, dict] = {
    "sweep_mesh_wf": {
        "cycles": 1000, "rates": [0.05, 0.15, 0.25, 0.35, 0.45], "min_warm": 9,
        "setup_repeats": 5,
    },
    "sweep_fbfly_sepif": {
        "cycles": 1100, "rates": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], "min_warm": 9,
        "setup_repeats": 5,
    },
    "dispatch_smallpoints": {
        "points": 36, "cycles": 100, "rate_lo": 0.02, "rate_hi": 0.22, "min_warm": 3,
        "setup_repeats": 5,
    },
    "offline_figs": {
        "quality_rates": 4, "samples_vc": 400, "samples_sw": 800,
        "cost": [["mesh", 2, "vc"], ["fbfly", 1, "switch"]],
        "max_cells": 3000, "min_warm": 1, "setup_repeats": 5,
    },
}

SMOKE_SIZES: Dict[str, dict] = {
    "sweep_mesh_wf": {
        "cycles": 60, "rates": [0.05, 0.25], "min_warm": 1, "setup_repeats": 2},
    "sweep_fbfly_sepif": {
        "cycles": 60, "rates": [0.1, 0.4], "min_warm": 1, "setup_repeats": 2},
    "dispatch_smallpoints": {
        "points": 4, "cycles": 30, "rate_lo": 0.02, "rate_hi": 0.22, "min_warm": 1,
        "setup_repeats": 2,
    },
    "offline_figs": {
        "quality_rates": 2, "samples_vc": 10, "samples_sw": 10,
        "cost": [["mesh", 1, "vc"]], "max_cells": 400, "min_warm": 1, "setup_repeats": 2,
    },
}

SERVER_FAILURE_EVENTS = ("requeue", "retry", "point_failed", "handshake_refused")


def antithetic_rates(seed: int, n: int, lo: float, hi: float, salt: str = "") -> List[float]:
    """``n`` distinct sorted rates in ``[lo, hi]``, drawn from ``seed``.

    One draw per stratum, mirrored in the opposite stratum, so the rates
    differ from seed to seed while their sum -- and to first order the
    work they cause -- does not.
    """
    rng = random.Random(f"nocbench|{salt}|{seed}")
    width = (hi - lo) / n
    rates = [0.0] * n
    for i in range((n + 1) // 2):
        u = rng.random()
        rates[i] = lo + width * (i + u)
        rates[n - 1 - i] = lo + width * (n - 1 - i + (1.0 - u))
    if n % 2:
        rates[n // 2] = lo + width * (n // 2 + 0.5)
    return [round(r, 4) for r in rates]


def _rates_arg(rates: Sequence[float]) -> str:
    return ",".join(f"{r:g}" for r in rates)


def command_sequence(
    workload: str, sizes: dict, seed: int, state: Path, address: Optional[str] = None,
) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of one pass.  Only documented CLI flags are used."""
    s = sizes
    if workload in ("sweep_mesh_wf", "sweep_fbfly_sepif"):
        topo, arch = ("mesh", "wf") if workload == "sweep_mesh_wf" else ("fbfly", "sep_if")
        return [("sweep", repro_argv(
            "sweep", "--topology", topo, "--vcs-per-class", "4",
            "--sw-alloc", arch, "--vc-alloc", arch,
            "--cycles", str(s["cycles"]), "--seed", str(seed),
            "--rates", _rates_arg(s["rates"]), "--cache-path", str(state / "c.json"),
        ))]
    if workload == "dispatch_smallpoints":
        base = ["sweep", "--cycles", str(s["cycles"]), "--seed", str(seed),
                "--rates", _rates_arg(sweep_rates(workload, s, seed))]
        return [
            ("inline", repro_argv(*base, "--cache-path", str(state / "a.json"))),
            ("pool", repro_argv(*base, "--timeout", "120", "--resume",
                                "--cache-path", str(state / "b.json"))),
            ("connect", repro_argv(*base, "--connect", str(address),
                                   "--cache-path", str(state / "c.json"))),
        ]
    if workload == "offline_figs":
        rates = antithetic_rates(seed, s["quality_rates"], 0.1, 1.0, "quality")
        cmds = [
            ("quality_vc", repro_argv(
                "quality", "--topology", "mesh", "--vcs-per-class", "4", "--target", "vc",
                "--rates", _rates_arg(rates), "--samples", str(s["samples_vc"]))),
            ("quality_switch", repro_argv(
                "quality", "--topology", "mesh", "--vcs-per-class", "4", "--target", "switch",
                "--rates", _rates_arg(rates), "--samples", str(s["samples_sw"]))),
        ]
        for topo, vcs, target in s["cost"]:
            cmds.append((f"cost_{target}_{topo}", repro_argv(
                "cost", "--topology", topo, "--vcs-per-class", str(vcs), "--target", target)))
        lint = ["lint", "--netlists", "--max-cells", str(s["max_cells"])]
        baseline = ROOT / "lint-baseline.json"
        if baseline.exists():
            lint += ["--baseline", str(baseline)]
        cmds.append(("lint", repro_argv(*lint)))
        cmds.append(("verify", repro_argv(
            "verify", "--points", "--max-cells", str(s["max_cells"]))))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def sweep_rates(workload: str, sizes: dict, seed: int) -> List[float]:
    """Injection rates of the workload's sweep table (none for ``offline_figs``)."""
    if workload == "dispatch_smallpoints":
        return antithetic_rates(
            seed, sizes["points"], sizes["rate_lo"], sizes["rate_hi"], "dispatch")
    return list(sizes.get("rates", ()))


def canonical_output(text: str, state: Path) -> str:
    """Stdout with what legitimately differs between passes removed.

    The trailing ``cache:`` line counts hits and names the cache file,
    and temp paths name this run's state dir; neither is a result.
    """
    lines = []
    for line in text.replace(str(state), "<T>").splitlines():
        if line.startswith("cache:"):
            continue
        lines.append(line.rstrip())
    return "\n".join(lines).strip() + "\n"


def output_digest(text: str, state: Path) -> str:
    return hashlib.sha256(canonical_output(text, state).encode()).hexdigest()[:16]


_RULE = re.compile(r"^-+(\s+-+)+\s*$")


def table_rows(text: str) -> List[List[str]]:
    """Cells of the rows under a table's ``----`` rule, up to the first
    line that is not a row of numbers."""
    rows: List[List[str]] = []
    in_table = False
    for line in text.splitlines():
        if _RULE.match(line):
            in_table = True
            continue
        if in_table:
            cells = line.split()
            if not cells or not re.match(r"^-?\d", cells[0]):
                break
            rows.append(cells)
    return rows


@dataclass
class Checks:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(note)
        return ok


def _check_sweep_table(checks: Checks, label: str, stdout: str, rates: Sequence[float]) -> None:
    rows = table_rows(stdout)
    for i, rate in enumerate(sorted(rates)):
        ok = (
            i < len(rows)
            and rows[i][0] == f"{rate:.3f}"
            and len(rows[i]) >= 2
            and re.match(r"^\d+(\.\d+)?$", rows[i][1]) is not None
        )
        checks.check(ok, f"{label}: point rate={rate:g} missing from the table")


@dataclass
class PassResult:
    commands: List[CommandResult]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)


class _Bringup:
    """One set-up: a fresh state dir, the CLI's start cost, the server."""

    def __init__(self, workload: str, children: Children) -> None:
        t0 = time.perf_counter()
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        self.state = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
        (self.state / "home").mkdir()
        self.env = child_env(self.state)
        self.children = children
        self.server: Optional[ServerHandle] = None
        self.figures: Optional[CommandResult] = None
        try:
            self.figures = children.run("figures", repro_argv("figures"), self.env, self.state)
            if workload == "dispatch_smallpoints":
                self.server = ServerHandle(children, self.env, self.state, self.state / "st")
                self.server.wait_ready()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.state, ignore_errors=True)


def write_expected(run: dict, env_pin: dict) -> Path:
    """Pin ``run``'s output digests as the expected ones for its seed,
    sizes and environment (``run.py --pin``)."""
    path = EXPECTED_DIR / f"{run['workload']}.json"
    doc = {"seed": run["seed"], "sizes": run["details"]["sizes"], **env_pin,
           "digests": run["details"]["digests"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _digest_state(workload: str, seed: int, sizes: dict, env_pin: dict) -> Tuple[str, Optional[dict]]:
    """``("pinned", expected)`` when the committed digests apply to this run."""
    try:
        expected = json.loads((EXPECTED_DIR / f"{workload}.json").read_text())
    except (OSError, json.JSONDecodeError):
        return "unpinned (no expected file)", None
    mine = {"seed": seed, "sizes": sizes, **env_pin}
    for key, value in mine.items():
        if expected.get(key) != value:
            return f"unpinned ({key} is {value!r}, pinned at {expected.get(key)!r})", None
    return "pinned", expected


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    sizes: dict,
    env_pin: dict,
    children: Children,
) -> dict:
    """Run one workload end to end and return its result record."""
    cpu_before, setups = children.cpu_s, []
    bring: Optional[_Bringup] = None
    try:
        # Set-up is repeated; every bring-up but the last is torn down
        # again, the last one serves the passes.
        for _ in range(sizes["setup_repeats"]):
            if bring is not None:
                bring.close()
            bring = _Bringup(workload, children)
            setups.append(bring.setup_s)
        assert bring is not None
        state, env = bring.state, bring.env
        address = bring.server.address if bring.server else None
        sequence = command_sequence(workload, sizes, seed, state, address)
        checks = Checks()
        checks.check(bring.figures is not None and bring.figures.ok, "repro figures failed")
        cpu_setup = children.cpu_s - cpu_before

        t_start = time.perf_counter()

        def one_pass() -> PassResult:
            # A run must end within the driver's 180 s even if every
            # command hangs: past the deadline a command gets one second.
            return PassResult([
                children.run(label, argv, env, state, timeout=max(
                    1.0, min(COMMAND_TIMEOUT_S, t_start + RUN_DEADLINE_S - time.perf_counter())))
                for label, argv in sequence
            ])

        cold = one_pass()
        warms: List[PassResult] = []
        while True:
            elapsed = time.perf_counter() - t_start
            if len(warms) >= sizes["min_warm"] and (
                elapsed + (warms[-1].wall_s if warms else 0.0) > seconds
            ):
                break
            warms.append(one_pass())

        server_events: List[dict] = []
        if bring.server is not None:
            server_events = bring.server.events()
            bring.server.stop()
        # Everything the passes' children used; the server and its
        # worker are accounted when they are reaped, just above.
        cpu_passes = children.cpu_s - cpu_before - cpu_setup
        warm_cpu = sum(w.cpu_s for w in warms)

        for pass_name, result in [("cold", cold)] + [
            (f"warm{i}", w) for i, w in enumerate(warms)
        ]:
            for cmd in result.commands:
                why = "timed out" if cmd.timed_out else f"exit {cmd.returncode}"
                checks.check(cmd.ok, f"{pass_name}/{cmd.label}: {why}: {cmd.stderr[-300:]}")

        rates = sweep_rates(workload, sizes, seed)
        cold_canon = {c.label: canonical_output(c.stdout, state) for c in cold.commands}
        if rates:
            for cmd in cold.commands:
                _check_sweep_table(checks, f"cold/{cmd.label}", cmd.stdout, rates)
        for i, warm in enumerate(warms):
            for cmd in warm.commands:
                checks.check(
                    canonical_output(cmd.stdout, state) == cold_canon[cmd.label],
                    f"warm{i}/{cmd.label}: output differs from the cold pass",
                )
        if workload == "dispatch_smallpoints":
            for label in ("pool", "connect"):
                checks.check(
                    cold_canon[label] == cold_canon["inline"],
                    f"cold/{label}: table differs from the inline pass",
                )
            bad = [e for e in server_events if e.get("event") in SERVER_FAILURE_EVENTS]
            checks.check(not bad, f"server.jsonl has {len(bad)} requeue/failure row(s)")

        digests = {c.label: output_digest(c.stdout, state) for c in cold.commands}
        digest_state, expected = _digest_state(workload, seed, sizes, env_pin)
        if expected is not None:
            checks.check(
                digests == expected.get("digests"),
                f"output digests {digests} differ from bench/expected/{workload}.json",
            )

        cold_walls = {c.label: c.wall_s for c in cold.commands}
        per_command = {
            label: {
                "cold_wall_s": cold_wall,
                "warm_wall_s": summarize(
                    [c.wall_s for w in warms for c in w.commands if c.label == label]),
            }
            for label, cold_wall in cold_walls.items()
        }
        details = {
            "sizes": sizes,
            "setup_s": summarize(setups),
            "setup_samples_s": setups,
            "warm_wall_s": summarize([w.wall_s for w in warms]),
            "warm_wall_samples_s": [w.wall_s for w in warms],
            "per_command": per_command,
            "warm_cpu_s": warm_cpu,
            "wait_s": cold.wall_s - (cpu_passes - warm_cpu),
            "digests": digests,
            "digest_state": digest_state,
            "failures": checks.failures,
        }
        if workload == "dispatch_smallpoints":
            n, walls = sizes["points"], cold_walls
            details["ms_per_point"] = {k: 1e3 * v / n for k, v in walls.items()}
            details["pool_overhead_ms_per_point"] = 1e3 * (walls["pool"] - walls["inline"]) / n
            details["connect_overhead_ms_per_point"] = (
                1e3 * (walls["connect"] - walls["inline"]) / n)
        metrics = {
            "wall_s": cold.wall_s,
            # The fastest repeat, not the median: on a shared host noise
            # only adds time, and it comes in bursts that cover most of
            # a run, so the median of a run moves with the host (up to
            # 25 % between runs of one tree) and the minimum does not
            # (under 8 %).  The summaries in ``details`` keep the median.
            "warm_wall_s": min(w.wall_s for w in warms),
            "setup_s": min(setups),
            # Cold-pass CPU: the commands' own, plus the server and its
            # worker, whose warm-pass share (cache hits only) is small.
            "cpu_s": cpu_passes - warm_cpu,
            "peak_rss_mb": children.maxrss_kb / 1024.0,
        }
        return {
            "workload": workload,
            "seed": seed,
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
            "details": details,
        }
    finally:
        if bring is not None:
            bring.close()
        children.kill_all()
