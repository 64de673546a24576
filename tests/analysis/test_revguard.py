"""SIMULATOR_REV guard tests against a scratch git repository.

Each test builds a tiny repo with the same layout the guard expects
(``src/repro/netsim/simulator.py`` carrying ``SIMULATOR_REV``), commits
a base state, applies a change, and checks the guard's verdict.
"""

import subprocess

import pytest

from repro.analysis.revguard import (
    OVERRIDE_TRAILER,
    SEMANTIC_PATHS,
    check_simulator_rev,
)


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q", "-b", "main")
    git(tmp_path, "config", "user.email", "test@example.com")
    git(tmp_path, "config", "user.name", "Test")
    netsim = tmp_path / "src" / "repro" / "netsim"
    netsim.mkdir(parents=True)
    (netsim / "simulator.py").write_text("SIMULATOR_REV = 3\n")
    (netsim / "router.py").write_text("STATE = 1\n")
    eval_dir = tmp_path / "src" / "repro" / "eval"
    eval_dir.mkdir(parents=True)
    (eval_dir / "tables.py").write_text("FMT = 'text'\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    git(tmp_path, "tag", "base")
    return tmp_path


def commit_all(repo, message):
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", message)


class TestWorkingTreeDiff:
    def test_clean_tree_passes(self, repo):
        assert check_simulator_rev(repo, "base") == []

    def test_semantic_change_without_bump_fails(self, repo):
        (repo / "src/repro/netsim/router.py").write_text("STATE = 2\n")
        findings = check_simulator_rev(repo, "base")
        assert [f.rule for f in findings] == ["SRC-SIM-REV"]
        assert "router.py" in findings[0].message
        assert OVERRIDE_TRAILER in findings[0].message

    def test_semantic_change_with_bump_passes(self, repo):
        (repo / "src/repro/netsim/router.py").write_text("STATE = 2\n")
        (repo / "src/repro/netsim/simulator.py").write_text("SIMULATOR_REV = 4\n")
        assert check_simulator_rev(repo, "base") == []

    def test_non_semantic_change_needs_no_bump(self, repo):
        (repo / "src/repro/eval/tables.py").write_text("FMT = 'json'\n")
        assert check_simulator_rev(repo, "base") == []

    def test_semantic_paths_cover_core_and_netsim(self, repo):
        assert "src/repro/core/" in SEMANTIC_PATHS
        core = repo / "src" / "repro" / "core"
        core.mkdir()
        (core / "arbiter.py").write_text("X = 1\n")
        findings = check_simulator_rev(repo, "base")
        assert [f.rule for f in findings] == ["SRC-SIM-REV"]


class TestCommittedRanges:
    def test_committed_change_without_bump_fails(self, repo):
        (repo / "src/repro/netsim/router.py").write_text("STATE = 2\n")
        commit_all(repo, "tweak router")
        assert len(check_simulator_rev(repo, "base", "HEAD")) == 1

    def test_override_trailer_waives_the_bump(self, repo):
        (repo / "src/repro/netsim/router.py").write_text("STATE = 2\n")
        commit_all(
            repo,
            "tweak router\n\n"
            f"{OVERRIDE_TRAILER} unchanged (comment-only change)",
        )
        assert check_simulator_rev(repo, "base", "HEAD") == []
        # The trailer also covers a working-tree check of the same range.
        assert check_simulator_rev(repo, "base") == []

    def test_trailer_in_body_text_does_not_count(self, repo):
        (repo / "src/repro/netsim/router.py").write_text("STATE = 2\n")
        commit_all(
            repo,
            f"discussing the {OVERRIDE_TRAILER} trailer inline does not waive",
        )
        assert len(check_simulator_rev(repo, "base", "HEAD")) == 1


class TestFailureModes:
    def test_unknown_base_ref_reports_not_crashes(self, repo):
        findings = check_simulator_rev(repo, "no-such-ref")
        assert [f.rule for f in findings] == ["SRC-SIM-REV"]
        assert "no-such-ref" in findings[0].message

    def test_missing_rev_constant_reported(self, repo):
        (repo / "src/repro/netsim/simulator.py").write_text("# rev gone\n")
        findings = check_simulator_rev(repo, "base")
        assert [f.rule for f in findings] == ["SRC-SIM-REV"]
        assert "SIMULATOR_REV" in findings[0].message


class TestRevLocation:
    """``SIMULATOR_REV`` moved to ``netsim/config.py``; a base ref from
    before the move still carries it in ``simulator.py``."""

    def move_rev(self, repo, rev):
        netsim = repo / "src/repro/netsim"
        (netsim / "config.py").write_text(f"SIMULATOR_REV = {rev}\n")
        (netsim / "simulator.py").write_text("from .config import SIMULATOR_REV\n")

    def test_move_without_a_bump_is_still_a_semantic_change(self, repo):
        self.move_rev(repo, 3)
        findings = check_simulator_rev(repo, "base")
        assert [f.rule for f in findings] == ["SRC-SIM-REV"]
        assert "SIMULATOR_REV = 3" in findings[0].location

    def test_bump_is_read_from_the_new_file(self, repo):
        self.move_rev(repo, 4)
        assert check_simulator_rev(repo, "base") == []
        commit_all(repo, "move and bump")
        assert check_simulator_rev(repo, "base", "HEAD") == []
