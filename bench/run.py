#!/usr/bin/env python3
"""Run the repo benchmark.

    python3 bench/run.py                          every workload, end to end
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --trace                  every workload, per-layer traced run
    python3 bench/run.py --smoke                  tiny sizes, all workloads, < 30 s
    python3 bench/run.py --selfcheck              two sets of runs of one tree, compared

Prints every metric by name with its unit, checks outputs, and ends with
one JSON object per workload: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from nocbench import BENCH_DIR, ROOT, SRC  # noqa: E402
from nocbench.catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402
from nocbench.compare import (  # noqa: E402
    compare_runs, exact_mismatches, failed_operations, format_rows,
)
from nocbench.procs import Children, child_env  # noqa: E402
from nocbench.workloads import (  # noqa: E402
    SIZES, SMOKE_SIZES, TMP_ROOT, run_workload, write_expected,
)

RESULT_SCHEMA = "nocbench/result/v1"
OUT_DIR = BENCH_DIR / "out"
UNVALIDATED = ("model unvalidated against the paper's absolute numbers: the repo holds "
               "no measurement from the authors' testbed, so no error figure is given")

_IDENTIFY = """
import json, platform
import numpy
from repro.netsim.simulator import SIMULATOR_REV
print(json.dumps({"simulator_rev": SIMULATOR_REV,
                  "python": ".".join(platform.python_version_tuple()[:2]),
                  "numpy": numpy.__version__}))
"""


def build(children: Children) -> dict:
    """Untimed build step: byte-compile the package once per checkout and
    ask the program which revision it is.  Returns the environment pin
    that decides whether the committed output digests apply."""
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    env = child_env(TMP_ROOT)
    compiled = children.run(
        "build", [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env, TMP_ROOT, timeout=600.0)
    ident = children.run("identify", [sys.executable, "-c", _IDENTIFY], env, TMP_ROOT)
    for path in TMP_ROOT.glob(".*.std*"):
        path.unlink()
    if not compiled.ok:  # e.g. a read-only tree: every child then compiles for itself
        print(f"note: byte-compiling src/repro failed: {compiled.stderr[-300:]}",
              file=sys.stderr)
    if not ident.ok:
        raise SystemExit(f"cannot import repro from {SRC}: {ident.stderr[-500:]}")
    return json.loads(ident.stdout.strip().splitlines()[-1])


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: never look for a repository above it
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def fingerprint(env_pin: dict, args: argparse.Namespace) -> dict:
    sha, status = _git("rev-parse", "HEAD"), _git("status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        **env_pin,
        "python_full": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "loadavg_end": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def host_spin_s() -> float:
    """Wall time of a fixed pure-Python loop in this process.

    Not a metric: recorded before and after every run so that a reader
    can tell a slower program from a slower hour on a shared host.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    return time.perf_counter() - t0


def run_one(workload: str, seed: int, trace: bool, args, env_pin: dict,
            fp: dict, trace_dir: Path) -> dict:
    children = Children()
    spin_before = host_spin_s()
    try:
        if trace:
            from nocbench.traced import run_traced

            run = run_traced(workload, seed, args.smoke, children,
                             trace_dir / f"trace-{workload}.json", fp)
        else:
            sizes = (SMOKE_SIZES if args.smoke else SIZES)[workload]
            run = run_workload(workload, seed, args.seconds, sizes, env_pin, children)
    finally:
        children.kill_all()
    run["trace"] = int(trace)
    run["details"]["host_spin_s"] = [spin_before, host_spin_s()]
    return run


def run_isolated(workload: str, seed: int, trace: bool, args, out_dir: Path) -> dict:
    """One run in a fresh ``run.py`` process, exactly as the driver starts it.

    Every run of a suite gets the same conditions that way.  One of them
    is not cosmetic: a forked child's ``ru_maxrss`` is never below its
    parent's RSS at fork time, so a generator that has imported ``repro``
    for a traced run would report its own size as every later child's
    ``peak_rss_mb``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f".run-{os.getpid()}.json"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(args.seconds),
            "--trace", str(int(trace)), "--out", str(result_path)]
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    try:
        returncode = proc.wait()
    except BaseException:
        proc.send_signal(signal.SIGINT)  # it reaps its own children
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if returncode != 0:
        raise SystemExit(f"the run of {workload} (seed {seed}) exited with {returncode}")
    run = json.loads(result_path.read_text())["runs"][0]
    result_path.unlink()
    return run


def _catalog(run: dict) -> List[tuple]:
    """``(name, unit)`` of the metrics a run of this kind reports."""
    return [m[:2] for m in (PER_LAYER if run["trace"] else END_TO_END)]


def contract_line(run: dict) -> str:
    metrics = {name: {"value": run["metrics"].get(name), "unit": unit}
               for name, unit in _catalog(run)}
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    })


def print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"\n== {run['workload']}  seed {run['seed']}  {kind} ==")
    details = run["details"]
    for name, unit in _catalog(run):
        value = run["metrics"].get(name)
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if name in ("setup_s", "warm_wall_s") and name in details:
            s = details[name]
            extra = f"   (fastest of {s['n']}: median {s['median']:.4g}, max {s['max']:.4g})"
        print(f"  {name:<52} {shown:>12} {unit}{extra}")
    if not run["trace"]:
        print(f"  {'failed_fraction':<52} {run['failed'] / run['attempted']:>12.6g} ratio"
              f"   ({run['failed']} of {run['attempted']} operations)")
        print(f"  wall_s - cpu_s (waiting): {details['wait_s']:.3f} s; "
              f"output digests: {details['digest_state']}")
        for key in ("ms_per_point", "pool_overhead_ms_per_point",
                    "connect_overhead_ms_per_point"):
            if key in details:
                print(f"  {key}: {json.dumps(details[key])}")
    else:
        print(f"  replay span coverage {details['replay_span_coverage']:.1%}; "
              f"self time by layer (s): "
              f"{json.dumps({k: round(v, 3) for k, v in details['replay_layer_self_s'].items()})}")
        for layer, error in details["probe_errors"].items():
            print(f"  probe_error[{layer}]: {error}")
    for note in details["failures"]:
        print(f"  FAILED: {note}")


def run_suite(args, trace: bool, out_dir: Path, workloads: List[str],
              repeats: int) -> List[dict]:
    """``repeats`` runs of each workload, each in a process of its own."""
    runs = []
    for workload in workloads:
        for i in range(repeats):
            run = run_isolated(workload, args.seed + i, trace, args, out_dir)
            print_run(run)
            runs.append(run)
    return runs


def write_results(path: Path, fp: dict, body: dict) -> None:
    fp["loadavg_end"] = list(os.getloadavg())
    fp["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": RESULT_SCHEMA, "fingerprint": fp, "note": UNVALIDATED, **body},
        indent=1) + "\n")
    print(f"\nwrote {path}")


def selfcheck(args, fp: dict, workloads: List[str], out_dir: Path) -> int:
    """Two sets of runs of the same tree: ``--repeats`` untraced runs and
    one traced run per workload in each set, then the pairwise table."""
    sets: Dict[str, List[dict]] = {}
    for side in ("A", "B"):
        print(f"\n#### selfcheck set {side}")
        sets[side] = run_suite(args, False, out_dir, workloads, args.repeats)
        sets[side] += run_suite(args, True, out_dir, workloads, 1)
    rows = compare_runs(sets["A"], sets["B"])
    mismatches = exact_mismatches(sets["A"], sets["B"])
    failed = {side: failed_operations(runs) for side, runs in sets.items()}
    print("\n" + format_rows(rows))
    print(f"failed operations: A {failed['A']}, B {failed['B']}")
    for line in mismatches:
        print("exact value differs: " + line)
    ok = (not mismatches and not any(failed.values())
          and all(r["verdict"] == "ok" for r in rows))
    out = Path(args.out) if args.out else out_dir / "selfcheck.json"
    write_results(out, fp, {"repeats": args.repeats, "ok": ok, "rows": rows,
                            "exact_mismatches": mismatches, "sets": sets})
    print("selfcheck: " + ("the two sets agree within every bound" if ok else "DISAGREE"))
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), default=None,
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=3,
                   help="workload seed; the same seed gives the same inputs (default: 3)")
    p.add_argument("--seconds", type=float, default=None,
                   help="how long one run measures: the cold pass, then warm passes "
                        f"until this much time has gone (default: {RUN_SECONDS}; "
                        "with --smoke: 0, the minimum number of warm passes)")
    p.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                   help="1: the per-layer traced run; 0: the end-to-end run (default)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: exercises every workload, both modes and the "
                        "teardown path in under 30 s; the numbers mean nothing")
    p.add_argument("--repeats", type=int, default=None,
                   help="runs per workload, on seeds --seed, --seed+1, ... "
                        "(default: 1; with --selfcheck: 10)")
    p.add_argument("--selfcheck", action="store_true",
                   help="run the suite twice and compare the sets; exit 1 if they disagree")
    p.add_argument("--pin", action="store_true",
                   help="after an end-to-end run with no failed operation, write its "
                        "output digests to bench/expected/ (after a deliberate change "
                        "of outputs, sizes or SIMULATOR_REV)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="result file (default: bench/out/result[-trace].json, or "
                        "bench/out/selfcheck.json); trace files are written beside it")
    args = p.parse_args(argv)
    if args.repeats is None:
        args.repeats = 10 if args.selfcheck else 1
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(RUN_SECONDS)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: {SRC / 'repro'} is missing: the benchmark measures the repro "
              "package of the checkout it sits in", file=sys.stderr)
        return 2
    # SIGTERM unwinds like SIGINT, so the finally blocks reap every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    builder = Children()
    try:
        env_pin = build(builder)
    finally:
        builder.kill_all()
    fp = fingerprint(env_pin, args)
    print(f"benchmark of {ROOT} at simulator rev {env_pin['simulator_rev']}, "
          f"{fp['nproc']} cpu(s), load {fp['loadavg_start'][0]:.2f}")
    print(UNVALIDATED)
    out_dir = Path(args.out).parent if args.out else OUT_DIR
    if args.selfcheck:
        return selfcheck(args, fp, workloads, out_dir)
    if args.workload is not None and args.repeats == 1:
        # What the driver invokes: one run, in this process.
        run = run_one(args.workload, args.seed, bool(args.trace), args, env_pin, fp, out_dir)
        print_run(run)
        runs = [run]
    elif args.smoke and args.trace == 0 and args.workload is None:
        # The smoke run covers both modes: every workload end to end, and
        # the traced run of the one that also brings a server up and down.
        runs = run_suite(args, False, out_dir, workloads, args.repeats)
        runs += run_suite(args, True, out_dir, ["dispatch_smallpoints"], 1)
    else:
        runs = run_suite(args, bool(args.trace), out_dir, workloads, args.repeats)
    if args.pin:
        for run in runs:
            if not run["trace"] and not args.smoke and run["failed"] == 0:
                print(f"pinned {write_expected(run, env_pin)}")
    default = OUT_DIR / ("result-trace.json" if args.trace else "result.json")
    write_results(Path(args.out) if args.out else default, fp, {"runs": runs})
    # The contract's result lines come last, one per run, last run last.
    for run in runs:
        print(contract_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
