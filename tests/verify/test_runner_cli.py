"""Verification runner + ``repro verify`` CLI tests (quick matrix)."""

import json

import pytest

from repro.cli import main
from repro.verify.equivalence import e2e_check_matrix
from repro.verify.runner import VERIFY_RULES, verify_paper_netlists


class TestRunner:
    def test_quick_component_matrix_proves_clean(self):
        findings, skipped, checked = verify_paper_netlists(
            quick=True, include_e2e=False, include_models=False
        )
        assert findings == []
        assert skipped == []
        assert checked > 0

    def test_quick_e2e_matrix_proves_clean(self):
        assert e2e_check_matrix(quick=True) == []

    def test_model_checks_pass(self):
        findings, _, _ = verify_paper_netlists(
            include_vc=False, include_sw=False, include_e2e=False,
            include_models=True, quick=True,
        )
        assert findings == []

    def test_rule_catalogue(self):
        assert set(VERIFY_RULES) == {
            "VER-EQUIV", "VER-STATE", "VER-STRUCT", "VER-PROP",
            "VER-STARVATION", "VER-TRACE", "VER-ORACLE",
        }
        for rule, desc in VERIFY_RULES.items():
            assert desc, rule


class TestCli:
    def test_default_quick_run_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--quick"]) == 0

    def test_mutation_gate_passes_and_floor_enforced(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--mutation", "--mutants", "2"]) == 0
        # An unattainable floor must flip the exit code even with zero
        # equivalence findings.
        assert (
            main(
                ["verify", "--mutation", "--mutants", "2",
                 "--min-kill-rate", "1.01"]
            )
            == 1
        )
        assert "below" in capsys.readouterr().err

    def test_json_report_carries_meta(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "verify-findings.json"
        assert (
            main(
                ["verify", "--points", "--quick", "--json",
                 "--output", str(out)]
            )
            == 0
        )
        data = json.loads(out.read_text())
        assert data["findings"] == []
        assert data["meta"]["netlists_proved"] > 0

    def test_unreadable_baseline_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert (
            main(
                ["verify", "--properties", "--quick",
                 "--baseline", str(bad)]
            )
            == 2
        )

    def test_baseline_suppression_and_write_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # A baseline entry wildcard-matching a verify rule suppresses
        # it; verify-baseline.json in the cwd is picked up by default.
        monkeypatch.chdir(tmp_path)
        baseline = {
            "version": 1,
            "suppressions": [
                {
                    "rule": "VER-*",
                    "scope": "*",
                    "location": "*",
                    "reason": "exercise the default pickup path",
                }
            ],
        }
        (tmp_path / "verify-baseline.json").write_text(json.dumps(baseline))
        assert main(["verify", "--properties", "--quick"]) == 0
        err = capsys.readouterr().err
        # Zero findings -> the catch-all entry is reported stale.
        assert "stale baseline entry" in err

    def test_stale_notes_judge_only_netlists_the_run_proved(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "suppressions": [{
            "rule": "VER-*", "scope": "vc/mesh 2x1x1 VCs (V=2)/wf/*",
            "location": "*", "reason": "matches nothing",
        }]}))
        argv = ["verify", "--points", "--quick", "--no-cache",
                "--baseline", str(baseline)]
        # A 1000-cell cap skips the one netlist the entry can match.
        assert main(argv + ["--max-cells", "1000"]) == 0
        assert "stale" not in capsys.readouterr().err
        # At the default cap it is proved, and nothing matched the entry.
        assert main(argv) == 0
        assert "stale baseline entry matched nothing" in capsys.readouterr().err
