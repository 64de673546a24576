"""Baseline-ratchet tests against a scratch git repository."""

import json
import subprocess

import pytest

from repro.analysis.ratchet import check_baseline_ratchet


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        text=True,
    )


def entry(rule, scope, location):
    return {
        "rule": rule,
        "scope": scope,
        "location": location,
        "reason": "test",
    }


def write_baseline(repo, entries, name="lint-baseline.json"):
    (repo / name).write_text(
        json.dumps({"version": 1, "suppressions": entries}, indent=2) + "\n"
    )


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q", "-b", "main")
    git(tmp_path, "config", "user.email", "test@example.com")
    git(tmp_path, "config", "user.name", "Test")
    write_baseline(tmp_path, [entry("DRC-X", "a", "loc1")])
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    return tmp_path


class TestRatchet:
    def test_unchanged_baseline_passes(self, repo):
        assert check_baseline_ratchet(repo) == []

    def test_growth_fails_and_names_new_entries(self, repo):
        write_baseline(
            repo,
            [entry("DRC-X", "a", "loc1"), entry("DRC-Y", "b", "loc2")],
        )
        findings = check_baseline_ratchet(repo)
        assert [f.rule for f in findings] == ["LINT-RATCHET"]
        assert findings[0].severity == "error"
        assert "1 to 2" in findings[0].message
        assert "DRC-Y @ b:loc2" in findings[0].message

    def test_shrinkage_passes(self, repo):
        write_baseline(repo, [])
        assert check_baseline_ratchet(repo) == []

    def test_swap_at_same_count_passes(self, repo):
        # Count-based ratchet: replacing a suppression is reviewable in
        # the diff, only net growth is blocked.
        write_baseline(repo, [entry("DRC-Z", "c", "loc9")])
        assert check_baseline_ratchet(repo) == []

    def test_new_uncommitted_baseline_has_nothing_to_ratchet(self, repo):
        write_baseline(
            repo, [entry("A", "b", "c")] * 3, name="verify-baseline.json"
        )
        assert (
            check_baseline_ratchet(repo, baseline_path="verify-baseline.json")
            == []
        )

    def test_missing_working_tree_baseline_passes(self, repo):
        (repo / "lint-baseline.json").unlink()
        assert check_baseline_ratchet(repo) == []

    def test_unparseable_working_tree_baseline_is_reported(self, repo):
        (repo / "lint-baseline.json").write_text("{not json")
        findings = check_baseline_ratchet(repo)
        assert [f.rule for f in findings] == ["LINT-RATCHET"]
        assert "parse" in findings[0].location

    def test_cli_ratchet_gates_exit_code(self, repo, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(repo)
        assert main(["lint", "--ratchet"]) == 0
        write_baseline(
            repo,
            [entry("DRC-X", "a", "loc1"), entry("DRC-Y", "b", "loc2")],
        )
        assert main(["lint", "--ratchet"]) == 1
        assert "LINT-RATCHET" in capsys.readouterr().out

    def test_unknown_base_ref_fails_and_names_it(self, repo):
        findings = check_baseline_ratchet(repo, base_ref="no-such-ref")
        assert [f.rule for f in findings] == ["LINT-RATCHET"]
        assert findings[0].severity == "error"
        assert "'no-such-ref'" in findings[0].message

    def test_ref_without_the_file_passes(self, repo):
        git(repo, "rm", "-q", "--cached", "lint-baseline.json")
        git(repo, "commit", "-q", "-m", "untrack the baseline")
        assert check_baseline_ratchet(repo, base_ref="HEAD") == []

    def test_explicit_base_ref(self, repo):
        # Grow and commit; vs HEAD it passes, vs the original it fails.
        write_baseline(
            repo,
            [entry("DRC-X", "a", "loc1"), entry("DRC-Y", "b", "loc2")],
        )
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "grow")
        assert check_baseline_ratchet(repo, base_ref="HEAD") == []
        assert len(check_baseline_ratchet(repo, base_ref="HEAD~1")) == 1
