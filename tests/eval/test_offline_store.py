"""The offline result store: ``repro quality | cost | lint --netlists |
verify`` answer a second run of an unchanged tree from one code-salted
:class:`~repro.eval.store.ResultStore`.

Two properties carry the design and both are shown here rather than
argued: a hit prints byte-for-byte what the computation printed (stdout
and exit code, findings included, baseline applied afterwards), and a
stored entry can never outlive the code that produced it (the salt
moves when one byte of any package file moves, and a file under another
salt is dropped wholesale).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.findings import Finding
from repro.cli import main
from repro.eval import store as store_module
from repro.eval.store import ResultStore, code_salt

QUALITY = ["quality", "--samples", "20", "--rates", "0.3,0.8"]
COST = ["cost"]
LINT = ["lint", "--netlists", "--quick"]
VERIFY = ["verify", "--quick"]

COMMANDS = [
    pytest.param(QUALITY, id="quality"),
    pytest.param(QUALITY + ["--target", "vc"], id="quality-vc"),
    pytest.param(COST, id="cost"),
    pytest.param(COST + ["--target", "switch"], id="cost-switch"),
    pytest.param(LINT, id="lint"),
    pytest.param(LINT + ["--format", "json"], id="lint-json"),
    pytest.param(VERIFY, id="verify"),
    pytest.param(VERIFY + ["--json"], id="verify-json"),
    pytest.param(["verify", "--points", "--quick"], id="verify-points"),
    pytest.param(["verify", "--properties", "--quick"], id="verify-properties"),
]


@pytest.fixture
def run(capsys, tmp_path, monkeypatch):
    """``run(argv) -> (exit code, stdout, stderr)`` from an empty cwd
    (no ``lint-baseline.json`` / ``verify-baseline.json`` to pick up)."""
    monkeypatch.chdir(tmp_path)

    def run(argv):
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def cache_lines(err):
    return [line for line in err.splitlines() if line.startswith("cache:")]


FINDING = Finding("DRC-TEST", "error", "vc/fake", "net 7 (AND2)", "made up")
SKIPPED = [("sw/fake/wf", "~9 cells exceeds the 1-cell capacity model")]


class FakeMatrix:
    """Stands in for ``lint_paper_netlists`` / ``verify_paper_netlists``:
    one finding, one capacity skip, and a count of how often it ran."""

    def __init__(self):
        self.calls = 0

    def __call__(self, **kwargs):
        self.calls += 1
        return [FINDING], list(SKIPPED), 3


class TestHitEqualsMiss:
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_cold_and_warm_print_the_same_and_exit_the_same(self, run, argv):
        plain = run(argv + ["--no-cache"])
        cold = run(argv)
        warm = run(argv)
        assert cold[:2] == warm[:2] == plain[:2]
        assert plain[0] == 0 and plain[1].strip()
        assert cache_lines(plain[2]) == []
        assert len(cache_lines(cold[2])) == len(cache_lines(warm[2])) == 1
        assert "0 hit(s), 1 computed" in cold[2]
        assert "1 hit(s), 0 computed" in warm[2]
        # The cache line is the only thing a hit changes, on stderr too.
        assert ([l for l in cold[2].splitlines() if not l.startswith("cache:")]
                == [l for l in warm[2].splitlines() if not l.startswith("cache:")])

    def test_the_arguments_that_decide_the_result_decide_the_key(self, run):
        run(QUALITY)
        for other in (
            QUALITY + ["--target", "vc"],
            QUALITY + ["--vcs-per-class", "2"],
            QUALITY + ["--topology", "fbfly"],
            QUALITY[:2] + ["21"] + QUALITY[3:],
            QUALITY[:4] + ["0.3,0.9"],
        ):
            assert "0 hit(s), 1 computed" in run(other)[2], other
        # ...and spelling alone does not.
        assert "1 hit(s)" in run(QUALITY[:4] + ["0.3, 0.80"])[2]
        run(LINT)
        assert "0 hit(s)" in run(LINT + ["--max-cells", "500"])[2]
        run(VERIFY)
        assert "0 hit(s)" in run(["verify", "--points", "--quick"])[2]
        assert "1 hit(s)" in run(VERIFY + ["--progress", "--json"])[2]

    @pytest.mark.parametrize("argv,target,baseline_name", [
        (LINT, "repro.analysis.netlists.lint_paper_netlists",
         "lint-baseline.json"),
        (LINT + ["--format", "json"],
         "repro.analysis.netlists.lint_paper_netlists", "lint-baseline.json"),
        (VERIFY, "repro.verify.runner.verify_paper_netlists",
         "verify-baseline.json"),
        (VERIFY + ["--json"], "repro.verify.runner.verify_paper_netlists",
         "verify-baseline.json"),
    ], ids=["lint", "lint-json", "verify", "verify-json"])
    def test_a_finding_gates_a_hit_as_it_gated_the_miss(
        self, run, monkeypatch, tmp_path, argv, target, baseline_name
    ):
        fake = FakeMatrix()
        monkeypatch.setattr(target, fake)
        cold = run(argv)
        warm = run(argv)
        assert fake.calls == 1
        assert cold[0] == warm[0] == 1
        assert cold[1] == warm[1] and "DRC-TEST" in cold[1]
        assert f"note: skipped {SKIPPED[0][0]}: {SKIPPED[0][1]}" in warm[2]

        # The baseline is applied after the lookup: accepting the
        # finding takes effect on the stored result, nothing recomputed.
        (tmp_path / baseline_name).write_text(json.dumps({
            "version": 1,
            "suppressions": [{"rule": "DRC-TEST", "scope": "vc/*",
                              "location": "*", "reason": "accepted"}],
        }))
        accepted = run(argv)
        assert fake.calls == 1 and "1 hit(s)" in accepted[2]
        assert accepted[0] == 0
        if "json" in argv[-1]:
            summary = json.loads(accepted[1])["summary"]
            assert (summary["total"], summary["suppressed"]) == (0, 1)
        else:
            assert "0 finding(s), 1 baseline-suppressed" in accepted[1]
        (tmp_path / baseline_name).unlink()
        assert run(argv)[:2] == cold[:2]

    def test_a_warm_run_builds_no_netlist_and_runs_no_proof(
        self, run, monkeypatch
    ):
        import repro.analysis.drc as drc
        import repro.hw.netlist as netlist
        import repro.verify.runner as runner

        counts = {"netlists": 0, "drc": 0, "proofs": 0}

        def counted(fn, what):
            def wrapper(*args, **kwargs):
                counts[what] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(netlist.Netlist, "__init__",
                            counted(netlist.Netlist.__init__, "netlists"))
        monkeypatch.setattr(drc.NetlistDRC, "check",
                            counted(drc.NetlistDRC.check, "drc"))
        monkeypatch.setattr(runner, "check_netlist",
                            counted(runner.check_netlist, "proofs"))
        for argv in (COST, LINT, VERIFY):
            run(argv)
        cold = dict(counts)
        assert all(cold.values())
        for argv in (COST, LINT, VERIFY):
            assert "1 hit(s)" in run(argv)[2]
        assert counts == cold


class TestNeverStored:
    def test_no_cache_neither_reads_nor_writes(self, run, tmp_path):
        path = tmp_path / "s.json"
        at = ["--cache-path", str(path)]
        honest = run(COST + at)
        # Poison the entry under the honest salt: anything that reads
        # the store now prints 9999 cells.
        doc = json.loads(path.read_text())
        (key,) = doc["entries"]
        for row in doc["entries"][key]["results"]:
            row["num_cells"] = 9999
        doc.pop("checksum")
        path.write_text(json.dumps(doc))
        assert "9999" in run(COST + at)[1]
        before = path.read_bytes()
        unread = run(COST + at + ["--no-cache"])
        assert unread[:2] == honest[:2] and cache_lines(unread[2]) == []
        assert path.read_bytes() == before
        path.unlink()
        run(COST + at + ["--no-cache"])
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--mutation", "--mutants", "1"],
        ["verify", "--points", "--quick", "--mutation", "--mutants", "1"],
        ["lint", "--netlists", "--quick", "--source", "--src-root", "."],
        ["lint", "--quick"],
        ["lint", "--netlists", "--quick", "--ratchet"],
    ], ids=["mutation", "points+mutation", "netlists+source", "bare lint",
            "netlists+ratchet"])
    def test_stages_outside_the_salt_never_touch_the_store(
        self, run, tmp_path, monkeypatch, argv
    ):
        path = tmp_path / "s.json"
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "default.json"))
        # What --source reads is beside the point (bare lint is netlists
        # + source over the installed package).
        monkeypatch.setattr(
            "repro.analysis.srclint.lint_source_tree", lambda root: [])
        monkeypatch.setattr(
            "repro.analysis.srclint.lint_generated_kernels", lambda: [])
        _, _, err = run(argv + ["--cache-path", str(path)])
        assert cache_lines(err) == []
        assert not path.exists() and not (tmp_path / "default.json").exists()

    def test_default_path_is_the_cost_cache_variable(
        self, run, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "deep" / "d.json"))
        assert f"({tmp_path / 'deep' / 'd.json'})" in run(LINT)[2]
        assert "1 hit(s)" in run(LINT)[2]
        assert (tmp_path / "deep" / "d.json").exists()


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    copy = tmp_path_factory.mktemp("pkg") / "repro"
    shutil.copytree(store_module.PACKAGE_ROOT, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


class TestSalt:
    def test_every_file_of_the_package_is_in_the_salt(self, package_copy):
        # One byte appended to any one file moves the salt: nothing has
        # to be remembered, no dependency list has to be kept closed.
        original = code_salt(package_copy)
        assert original == code_salt(package_copy) == code_salt()
        sources = sorted(package_copy.rglob("*.py"))
        assert len(sources) > 90
        assert {p.parent.name for p in sources} >= {
            "repro", "core", "hw", "eval", "analysis", "verify", "netsim",
            "routing", "topology", "obs", "faults", "serve"}
        for path in sources:
            before = path.read_bytes()
            path.write_bytes(before + b"#")
            assert code_salt(package_copy) != original, path
            path.write_bytes(before)
        assert code_salt(package_copy) == original

    def test_a_moved_file_moves_the_salt(self, package_copy):
        original = code_salt(package_copy)
        (package_copy / "eval" / "tables.py").rename(package_copy / "tables.py")
        try:
            assert code_salt(package_copy) != original
        finally:
            (package_copy / "tables.py").rename(
                package_copy / "eval" / "tables.py")

    def test_salt_names_python_and_needs_no_numpy(self, monkeypatch):
        import sys
        from importlib.util import find_spec

        salt = code_salt()
        assert salt.startswith(
            f"code-py{sys.version_info[0]}.{sys.version_info[1]}-")
        # An install without numpy (find_spec finds nothing) memoises
        # the offline commands all the same: none of them runs numpy.
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert find_spec("numpy") is None
        assert code_salt() == salt

    def test_no_sources_no_salt(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "cli.pyc").write_bytes(b"\x00")
        assert code_salt(tmp_path / "repro") is None

    def test_an_edit_drops_every_stored_entry(
        self, run, tmp_path, monkeypatch, package_copy
    ):
        path = tmp_path / "s.json"
        at = ["--cache-path", str(path)]
        first = run(COST + at)
        run(LINT + at)
        old = json.loads(path.read_text())
        assert old["salt"] == code_salt() and len(old["entries"]) == 2

        edited = package_copy / "hw" / "cells.py"
        before = edited.read_bytes()
        edited.write_bytes(before + b"\n# retuned\n")
        monkeypatch.setattr(store_module, "PACKAGE_ROOT", package_copy)
        try:
            again = run(COST + at)
        finally:
            edited.write_bytes(before)
        assert "0 hit(s), 1 computed" in again[2]
        assert again[:2] == first[:2]
        new = json.loads(path.read_text())
        assert new["salt"] != old["salt"]
        assert list(new["entries"]) == [k for k in old["entries"]
                                        if k.startswith("cost|")]

    def test_unsalted_package_disables_the_store_with_one_note(
        self, run, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.json"
        honest = run(COST + ["--no-cache"])
        (tmp_path / "empty").mkdir()
        monkeypatch.setattr(store_module, "PACKAGE_ROOT", tmp_path / "empty")
        for _ in range(2):
            code, out, err = run(COST + ["--cache-path", str(path)])
            assert (code, out) == honest[:2]
            assert err.count("note: result store disabled") == 1
            assert cache_lines(err) == [] and not path.exists()


class TestDamage:
    def test_truncated_store_is_quarantined_and_recomputed(self, run, tmp_path):
        path = tmp_path / "s.json"
        at = ["--cache-path", str(path)]
        for argv in (LINT, COST):
            honest = run(argv + at)
            intact = path.read_bytes()
            for cut in (0, 1, len(intact) // 3, len(intact) // 2,
                        len(intact) - 2):
                path.write_bytes(intact[:cut])
                code, out, err = run(argv + at)
                assert (code, out) == honest[:2], cut
                warnings = [l for l in err.splitlines()
                            if l.startswith("warning:")]
                assert len(warnings) == 1 and "corrupt" in warnings[0], cut
                assert "0 hit(s), 1 computed" in err
                assert Path(f"{path}.corrupt").read_bytes() == intact[:cut]
                # Recomputed and rewritten whole: the next run hits.
                assert "1 hit(s)" in run(argv + at)[2]

    def test_edited_entries_are_not_vouched_for(self, tmp_path):
        # A parsable file whose content no longer matches its checksum:
        # the typed caches salvage what still validates; the offline
        # store has no validator, so it keeps nothing.
        path = tmp_path / "s.json"
        store = ResultStore(path, "salt-a")
        store.put_payload("k", {"checked": 3})
        store.flush()
        doc = json.loads(path.read_text())
        doc["entries"]["k"]["checked"] = 4
        path.write_text(json.dumps(doc))
        assert len(ResultStore(path, "salt-a")) == 0
        kept = ResultStore(path, "salt-a", validate=lambda payload: payload["checked"])
        assert kept.get_payload("k") == {"checked": 4}


class TestResultStore:
    def test_fetch_counts_and_persists(self, tmp_path):
        path = tmp_path / "deep" / "s.json"
        calls = []

        def compute():
            calls.append(1)
            return {"value": 1.0 / 3.0}

        store = ResultStore(path, "salt-a")
        assert store.fetch("k", compute) == {"value": 1.0 / 3.0}
        assert (store.hits, store.misses, store.flushes) == (0, 1, 1)
        again = ResultStore(path, "salt-a")
        assert again.fetch("k", compute) == {"value": 1.0 / 3.0}  # exact
        assert (again.hits, again.misses, again.flushes) == (1, 0, 0)
        assert len(calls) == 1

    def test_other_salt_or_schema_drops_the_file_wholesale(self, tmp_path):
        path = tmp_path / "s.json"
        store = ResultStore(path, "salt-a")
        store.put_payload("k", {"v": 1})
        store.flush()
        assert len(ResultStore(path, "salt-a")) == 1
        assert len(ResultStore(path, "salt-b")) == 0
        doc = json.loads(path.read_text())
        doc["schema"] += 1
        path.write_text(json.dumps(doc))
        assert len(ResultStore(path, "salt-a")) == 0
        assert not Path(f"{path}.corrupt").exists()  # stale is not corrupt

    def test_without_a_salt_nothing_is_read_or_written(self, tmp_path):
        path = tmp_path / "s.json"
        ResultStore(path, "salt-a").fetch("k", lambda: {"v": 1})
        before = path.read_bytes()
        store = ResultStore(path, None)
        assert store.fetch("k", lambda: {"v": 2}) == {"v": 2}
        assert store.fetch("k", lambda: {"v": 3}) == {"v": 2}
        assert path.read_bytes() == before
