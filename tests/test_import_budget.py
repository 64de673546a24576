"""Start-up budget: a command loads only what it needs.

``import repro`` / ``import repro.cli`` load no subsystem, and the paths
a user re-runs all day -- ``repro figures``, a ``repro sweep`` served
from the cache, the ``repro serve`` scheduler -- never load numpy or the
simulator (docs/PERFORMANCE.md, "Start-up").  A simulation itself loads
no numpy either, in any process, and neither do the offline commands
that compute (docs/PERFORMANCE.md, "Memory").  Each
case runs in a fresh interpreter through ``scripts/import_report.py``
and is checked against forbidden module prefixes, so putting one
module-level ``import numpy`` back on the light path fails here and the
report names the module that did it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))
import import_report  # noqa: E402

#: The simulator and everything only a computing process needs.
MACHINE = (
    "numpy",
    "repro.netsim.router",
    "repro.netsim.network",
    "repro.netsim.codegen",
    "repro.hw",
    "repro.verify",
    "repro.analysis",
    "repro.serve",
)
NO_SUBSYSTEM = MACHINE + ("repro.core", "repro.eval", "repro.netsim", "repro.obs",
                          "repro.faults", "multiprocessing")

SWEEP = ["sweep", "--rates", "0.05,0.15", "--cycles", "60"]


def offenders(modules, forbidden):
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    )


@pytest.mark.parametrize("what,forbidden", [
    ("import repro", NO_SUBSYSTEM),
    ("import repro.cli", NO_SUBSYSTEM),
    (["--help"], NO_SUBSYSTEM),
    (["figures"], MACHINE + ("multiprocessing",)),
    # The input boundary runs without the machine too.
    (["sweep", "--pattern", "bogus", "--no-cache"], MACHINE),
], ids=["import repro", "import repro.cli", "--help", "figures", "rejected sweep"])
def test_light_paths_load_no_machine(what, forbidden, tmp_path):
    modules = import_report.loaded_modules(what, cwd=tmp_path)
    assert offenders(modules, forbidden) == []


def test_warm_sweep_loads_no_numpy(tmp_path):
    argv = SWEEP + ["--pattern", "transpose",
                    "--cache-path", str(tmp_path / "c.json")]
    cold = import_report.loaded_modules(argv, cwd=tmp_path)
    assert "repro.netsim.router" in cold  # the cold run simulated
    warm = import_report.loaded_modules(argv, cwd=tmp_path)
    # serve only through --connect; multiprocessing only for a pool.
    assert offenders(warm, MACHINE + ("repro.core", "multiprocessing")) == []
    assert "repro.netsim.patterns" in warm  # validate_config still ran


@pytest.mark.parametrize("argv", [
    ["cost"],
    ["quality", "--samples", "20", "--rates", "0.5"],
    ["lint", "--netlists", "--quick"],
    ["verify", "--quick"],
], ids=["cost", "quality", "lint", "verify"])
def test_warm_offline_command_loads_nothing_that_computes(argv, tmp_path):
    # A hit is interpreter start + one digest + one lookup: keyed on the
    # arguments (building the DesignPoint imports repro.core).
    argv = argv + ["--cache-path", str(tmp_path / "store.json")]
    cold = import_report.loaded_modules(argv, cwd=tmp_path)
    assert "repro.core.vc_partition" in cold  # the cold run computed
    warm = import_report.loaded_modules(argv, cwd=tmp_path)
    assert offenders(warm, (
        "numpy", "repro.hw", "repro.core", "repro.netsim", "repro.verify",
        "repro.analysis.drc", "repro.analysis.netlists", "repro.eval.matching",
        "repro.eval.design_points", "importlib.metadata", "multiprocessing",
    )) == []
    assert "repro.eval.store" in warm


#: Explicit events only: a plan that never draws needs no generator.
FIXED_FAULTS = {
    "link_faults": [{"router": 9, "port": 1, "start": 10, "end": 40}],
    "stuck_vcs": [{"router": 0, "port": 1, "vc": 0, "start": 0}],
    "credit_faults": [{"router": 2, "port": 0, "vc": 1, "cycle": 30, "kind": "drop"}],
}


@pytest.mark.parametrize("argv", [
    SWEEP + ["--no-cache"],
    ["simulate", "--cycles", "60", "--pattern", "hotspot"],
    SWEEP + ["--no-cache", "--jobs", "2", "--topology", "fbfly"],
    SWEEP + ["--no-cache", "--faults", "plan.json"],
], ids=["sweep", "simulate", "sweep --jobs 2", "fixed faults"])
def test_a_simulation_loads_no_numpy_in_any_process(argv, tmp_path):
    (tmp_path / "plan.json").write_text(json.dumps(FIXED_FAULTS))
    modules, times, _ = import_report.traced_run(argv, cwd=tmp_path)
    assert "repro.netsim.router" in modules
    # -X importtime reports the imports of every process, forked point
    # processes included.
    assert offenders(modules + [name for name, _ in times], ("numpy",)) == []


#: OpenSSL: ``hashlib`` loads ``_hashlib``, ``ssl`` loads ``_ssl``.
OPENSSL = ("_hashlib", "_ssl")


@pytest.mark.parametrize("argv,also_forbidden", [
    (SWEEP + ["--no-cache", "--jobs", "1"], ("socket", "subprocess", "platform")),
    (SWEEP + ["--no-cache", "--jobs", "2"], ()),
    (SWEEP + ["--no-cache", "--timeout", "60"], ()),
], ids=["inline", "--jobs 2", "--timeout pool"])
def test_a_sweep_loads_no_openssl_in_any_process(argv, also_forbidden, tmp_path):
    # Keys, signatures and checksums hash with the interpreter's SHA-256;
    # the run manifest takes its host fingerprint from os.uname().
    modules, times, _ = import_report.traced_run(argv, cwd=tmp_path)
    assert "repro.netsim.router" in modules
    everywhere = modules + [name for name, _ in times]
    assert offenders(everywhere, OPENSSL + also_forbidden) == []


def test_a_one_point_sweep_runs_inline_by_default(tmp_path):
    # --jobs defaults to the usable CPUs, capped at the points to compute.
    modules = import_report.loaded_modules(
        ["sweep", "--rates", "0.05", "--cycles", "60", "--no-cache"],
        cwd=tmp_path,
    )
    assert "repro.netsim.router" in modules
    assert offenders(modules, ("multiprocessing", "socket")) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity API")
def test_an_offline_command_on_one_cpu_runs_inline(tmp_path):
    # Offline jobs fan out over the usable CPUs; narrowed to one (what
    # `taskset -c 0` does), they run in the command's own process.
    argv = ["verify", "--quick", "--no-cache"]
    one_cpu = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        f"from repro.cli import main; main({argv!r})"
    )
    modules = import_report.loaded_modules(one_cpu, cwd=tmp_path)
    assert "repro.verify.equivalence" in modules
    assert offenders(modules, ("multiprocessing",)) == []
    if len(os.sched_getaffinity(0)) > 1:  # and the default run does fork
        assert "multiprocessing" in import_report.loaded_modules(argv, cwd=tmp_path)


def test_a_warm_sweep_loads_no_openssl(tmp_path):
    # Inline (multiprocessing.util imports subprocess), so the cold run
    # shows what writing the manifest loads.
    argv = SWEEP + ["--jobs", "1", "--cache-path", str(tmp_path / "c.json")]
    for _ in ("cold", "warm"):
        modules, times, _ = import_report.traced_run(argv, cwd=tmp_path)
        everywhere = modules + [name for name, _ in times]
        # The manifest beside the cache is still written.
        assert offenders(everywhere, OPENSSL + ("platform", "subprocess")) == []
    assert "repro.netsim.router" not in modules  # the warm run hit
    assert (tmp_path / "c.manifest.json").exists()


def test_a_connect_client_loads_no_openssl(tmp_path):
    # The server side runs asyncio (which imports ssl); the client is a
    # plain socket.
    from tests.serve.conftest import ServeHarness

    harness = ServeHarness(tmp_path / "state")
    try:
        harness.start_worker()
        modules, times, _ = import_report.traced_run(
            SWEEP + ["--connect", harness.address], cwd=tmp_path,
        )
    finally:
        harness.stop()
    assert "repro.serve.client" in modules
    assert offenders(modules + [name for name, _ in times], OPENSSL) == []


@pytest.mark.parametrize("argv,computed", [
    (["quality", "--samples", "20", "--rates", "0.5", "--no-cache"], "repro.eval.matching"),
    (["transitions"], "repro.core.vc_partition"),
    (["verify", "--quick", "--no-cache"], "repro.verify.equivalence"),
    (["resilience", "--counts", "0,1", "--cycles", "60", "--no-cache"],
     "repro.netsim.router"),
], ids=["quality", "transitions", "verify", "resilience"])
def test_offline_command_loads_no_numpy(argv, computed, tmp_path):
    # The matching experiments and the resilience fault sets draw from
    # repro.netsim.rng; the allocator core and the oracles take rows.
    modules, times, _ = import_report.traced_run(argv, cwd=tmp_path)
    assert computed in modules
    assert offenders(modules + [name for name, _ in times], ("numpy",)) == []


def test_serve_scheduler_loads_no_numpy(tmp_path):
    modules = import_report.loaded_modules(
        ["serve", "--port", "0", "--state-dir", str(tmp_path / "state")],
        cwd=tmp_path, interrupt_after="serving on",
    )
    assert "repro.serve.server" in modules
    assert offenders(modules, ("numpy", "repro.netsim.router", "repro.core",
                               "repro.hw", "repro.verify", "repro.analysis")) == []


def test_cache_written_by_the_parent_commit_is_all_hits(tmp_path):
    # tests/data/sweep_cache_parent.json: written by `repro sweep` at the
    # commit before the config/simulator split (plain mesh points plus a
    # faulted, transposed fbfly point).  Keys, salt and payloads must
    # still be read as they were written.
    cache = tmp_path / "c.json"
    shutil.copy(REPO / "tests" / "data" / "sweep_cache_parent.json", cache)
    for argv, hits in [
        (SWEEP, 2),
        (["sweep", "--rates", "0.1", "--cycles", "60", "--topology", "fbfly",
          "--pattern", "transpose", "--faults", "vcs=0.05,seed=3"], 1),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--cache-path", str(cache)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert f"cache: {hits} hit(s), 0 miss(es)" in done.stdout


class TestCommandTable:
    def test_every_command_resolves_its_parser_and_handler(self):
        parser = cli.build_parser()
        for name, command in cli.COMMANDS.items():
            assert callable(command.add_arguments) and callable(command.handler)
            assert command.handler.__module__ == "repro.cli"
            # Required positionals aside, the bare command must parse.
            tail = {"work": ["--connect", "h:1"], "report": ["d"],
                    "perf": ["report"]}.get(name, [])
            args = parser.parse_args([name, *tail])
            assert args.fn is command.handler, name

    def test_the_report_has_a_cheap_argv_for_every_command(self, tmp_path):
        covered = {name.split()[0] for name in import_report.cheap_argvs(tmp_path)}
        assert set(cli.COMMANDS) <= covered

    def test_help_and_unknown_command_list_every_command(self, capsys):
        listing = "{" + ",".join(cli.COMMANDS) + "}"
        assert listing == (
            "{figures,transitions,quality,cost,simulate,sweep,serve,work,"
            "faults,resilience,lint,verify,report,perf}"
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        # argparse wraps the usage line; compare without the wrapping.
        out = "".join(capsys.readouterr().out.split())
        assert f"usage:repro[-h]{listing}..." in out
        for command in cli.COMMANDS.values():
            assert "".join(command.help.split()) in out

        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        choices = ", ".join(repr(name) for name in cli.COMMANDS)
        assert f"invalid choice: 'bogus' (choose from {choices})" in err

    def test_one_command_builds_one_set_of_arguments(self):
        parser = cli._build_parser(["sweep"])
        assert parser.parse_args(["sweep"]).fn is cli.cmd_sweep
        # Registered (so messages list it) but its arguments are not built.
        with pytest.raises(SystemExit):
            parser.parse_args(["quality", "--samples", "5"])
