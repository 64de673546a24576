#!/usr/bin/env python
"""Start-up report: what every ``repro`` command imports, and what the
imports cost.

A command should pay at start-up only for itself (docs/PERFORMANCE.md,
"Start-up").  For each CLI command, run with a cheap argv in a fresh
interpreter under ``-X importtime``, this prints the number of modules
loaded, how many of them are ``repro.*``, whether numpy and OpenSSL
(``_hashlib`` / ``_ssl``) are among them, the cumulative import time,
the three top-level packages that account for most of it and the
process's peak RSS -- so a start-up regression is attributed to a module
before anyone opens a profiler, and the memory floor every sweep sits on
(docs/PERFORMANCE.md, "Memory") is tracked per command.
``tests/test_import_budget.py`` gates the same observation
(:func:`loaded_modules`) against per-command forbidden modules.

Usage::

    python scripts/import_report.py [--output FILE] [COMMAND ...]

Import times are machine-dependent; compare the table against one taken
on the same machine (CI uploads it per run).  Peak RSS is the child's
own ``ru_maxrss``, which is never below its parent's RSS at fork time:
read that column from a run of this script, not from a caller that has
imported numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.eval.tables import format_table  # noqa: E402

# Runs ``statement`` and then records ``sys.modules`` and the peak RSS
# (KiB), whatever way the statement ends (``main`` of ``--help`` exits;
# ``serve`` is interrupted).
_DRIVER = """\
import json, sys
try:
    exec(sys.argv[1])
except (SystemExit, KeyboardInterrupt):
    pass
finally:
    import resource
    with open(sys.argv[2], "w") as fh:
        json.dump({"modules": sorted(sys.modules), "maxrss_kb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
"""

# "import time:   self [us] | cumulative | imported package"
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")


def traced_run(
    what: Union[str, Sequence[str]],
    *,
    cwd: Optional[os.PathLike] = None,
    env: Optional[Dict[str, str]] = None,
    interrupt_after: Optional[str] = None,
    timeout: float = 120.0,
) -> Tuple[List[str], List[Tuple[str, int]], int]:
    """Run ``what`` in a fresh interpreter; return ``(sorted names of
    ``sys.modules`` afterwards, [(module, self import time in us)],
    peak RSS in KiB)``.

    ``what`` is a Python statement (``"import repro.cli"``) or a
    ``repro`` argv list (``["sweep", "--rates", "0.1"]``, run through
    ``repro.cli.main``).  ``interrupt_after`` is for commands that never
    return (``serve``): once a stdout line contains it, the process gets
    SIGINT, which the command treats as a clean shutdown.
    """
    if not isinstance(what, str):
        what = f"from repro.cli import main; main({list(what)!r})"
    child_env = dict(os.environ if env is None else env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [child_env.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory(prefix="import-report-") as tmp:
        out = Path(tmp) / "modules.json"
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-c", _DRIVER, what, str(out)],
            cwd=cwd, env=child_env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            if interrupt_after is not None:
                assert proc.stdout is not None
                for line in proc.stdout:
                    if interrupt_after in line:
                        proc.send_signal(signal.SIGINT)
                        break
            _, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if not out.exists():
            raise RuntimeError(
                f"{what!r} left no module list (exit {proc.returncode}):\n{stderr}"
            )
        observed = json.loads(out.read_text())
    times = [
        (m.group(2), int(m.group(1)))
        for m in map(_IMPORTTIME.match, stderr.splitlines())
        if m
    ]
    return observed["modules"], times, observed["maxrss_kb"]


def loaded_modules(what: Union[str, Sequence[str]], **kwargs) -> List[str]:
    """Names in ``sys.modules`` after ``what`` ran (see :func:`traced_run`)."""
    return traced_run(what, **kwargs)[0]


def _closed_port() -> int:
    """A localhost port nothing listens on (``work`` fails fast on it)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def cheap_argvs(tmp: Path) -> Dict[str, dict]:
    """One cheap invocation per CLI command, as :func:`traced_run`
    keyword arguments; state goes under ``tmp``.  A ``(warm)`` row
    re-runs its command on the cache or result store the row before it
    filled, so order matters."""
    sweep = ["sweep", "--rates", "0.05", "--cycles", "60",
             "--cache-path", str(tmp / "sweep.json")]
    store = ["--cache-path", str(tmp / "offline-store.json")]
    quality = ["quality", "--samples", "20", "--rates", "0.5"] + store
    cost = ["cost"] + store
    lint = ["lint", "--netlists", "--quick"] + store
    verify = ["verify", "--quick"] + store
    return {
        "(import repro.cli)": dict(what="import repro.cli"),
        "figures": dict(what=["figures"]),
        "transitions": dict(what=["transitions"]),
        "quality": dict(what=quality),
        "quality (warm)": dict(what=quality),
        "cost": dict(what=cost),
        "cost (warm)": dict(what=cost),
        "simulate": dict(what=["simulate", "--cycles", "60"]),
        # One simulated point: its peak RSS is the floor of every sweep.
        "sweep (1 point)": dict(what=sweep),
        "sweep (warm)": dict(what=sweep),
        "serve": dict(
            what=["serve", "--port", "0", "--state-dir", str(tmp / "serve")],
            interrupt_after="serving on",
        ),
        "work": dict(what=["work", "--connect", f"127.0.0.1:{_closed_port()}"]),
        "faults": dict(what=["faults", "--archs", "sep_if", "--rates", "0.0",
                             "--cycles", "60", "--iterations", "1",
                             "--no-cache"]),
        "resilience": dict(what=["resilience", "--counts", "0", "--modes",
                                 "default", "--cycles", "60", "--no-cache"]),
        "lint": dict(what=lint),
        "lint (warm)": dict(what=lint),
        "verify": dict(what=verify),
        "verify (warm)": dict(what=verify),
        "report": dict(what=["report", str(tmp)]),
        "perf": dict(what=["perf", "report", "--output", str(tmp / "perf.html")]),
    }


def report(selected: Sequence[str]) -> str:
    rows = []
    with tempfile.TemporaryDirectory(prefix="import-report-") as tmp_name:
        tmp = Path(tmp_name)
        env = dict(os.environ, HOME=str(tmp), REPRO_COST_CACHE=str(tmp / "cost.json"))
        for name, kwargs in cheap_argvs(tmp).items():
            if selected and name.split()[0] not in selected:
                continue
            modules, times, maxrss_kb = traced_run(cwd=tmp, env=env, **kwargs)
            by_package: Counter = Counter()
            for module, self_us in times:
                by_package[module.split(".")[0]] += self_us
            top = ", ".join(
                f"{pkg} {us / 1000:.0f}" for pkg, us in by_package.most_common(3)
            )
            rows.append((
                name,
                len(modules),
                sum(m == "repro" or m.startswith("repro.") for m in modules),
                "yes" if "numpy" in modules else "no",
                "yes" if {"_hashlib", "_ssl"} & set(modules) else "no",
                round(sum(by_package.values()) / 1000),
                f"{maxrss_kb / 1024:.1f}",
                top,
            ))
    return format_table(
        ["command", "modules", "repro.*", "numpy", "openssl", "import ms",
         "peak RSS MiB", "heaviest packages (ms)"],
        rows,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="commands to report (default: all)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the table to FILE")
    args = parser.parse_args(argv)
    table = report(args.commands)
    print(table)
    if args.output:
        Path(args.output).write_text(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
