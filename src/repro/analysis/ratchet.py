"""Baseline ratchet: suppressions may shrink, never grow.

A baseline file (:class:`~repro.analysis.findings.Baseline`) makes
pre-existing findings non-blocking so new checks can land against an
imperfect tree.  Its failure mode is drift: each "just baseline it for
now" adds an entry, and the debt compounds silently because CI stays
green.  The ratchet makes growth loud: compare the working tree's
baseline against the same file at a git ref (``HEAD`` locally, the PR
base in CI) and fail when the suppression count increased.  Shrinkage
and no-ops pass; adding an entry requires removing another or fixing
the finding.

Stale entries -- suppressions that no longer match any finding -- are
the other half of the hygiene story; those are detected where findings
are in hand (``repro lint`` / ``repro verify`` report them via
:meth:`Baseline.unused_entries`).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import List, Optional, Set, Tuple

from .findings import Baseline, Finding

__all__ = ["check_baseline_ratchet"]


def _entry_keys(baseline: Baseline) -> Set[Tuple[str, str, str]]:
    return {
        (e["rule"], e["scope"], e["location"]) for e in baseline.entries
    }


def _git(repo: Path, *args: str) -> Optional[str]:
    """``git`` stdout, or None when it fails."""
    try:
        return subprocess.run(
            ["git", "-C", str(repo), *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None


def _baseline_at_ref(
    repo: Path, baseline_path: str, ref: str
) -> Optional[Baseline]:
    """The baseline as committed at ``ref``; None when absent there."""
    out = _git(repo, "show", f"{ref}:{baseline_path}")
    if out is None:
        return None
    try:
        data = json.loads(out)
        if data.get("version") != Baseline.VERSION:
            return None
        return Baseline(data.get("suppressions", []))
    except (ValueError, KeyError):
        return None


def check_baseline_ratchet(
    repo: Path,
    baseline_path: str = "lint-baseline.json",
    base_ref: str = "HEAD",
) -> List[Finding]:
    """Findings when the baseline gained suppressions since ``base_ref``.

    The working-tree file is compared against ``git show
    base_ref:baseline_path``.  A baseline absent from either side is not
    a violation: a missing working-tree file means zero suppressions
    (trivially no growth), and a file not yet committed at the ref has
    nothing to ratchet against (its introduction is reviewed as part of
    the change that adds it).  A ref that names no commit is: a bad or
    unfetched base would otherwise pass every baseline.
    """
    repo = Path(repo)
    current_path = repo / baseline_path
    if not current_path.exists():
        return []
    try:
        current = Baseline.load(current_path)
    except (OSError, ValueError) as exc:
        return [
            Finding(
                "LINT-RATCHET", "error", baseline_path, "parse",
                f"cannot parse working-tree baseline: {exc}",
            )
        ]
    if _git(repo, "rev-parse", "--verify", "--quiet",
            f"{base_ref}^{{commit}}") is None:
        return [
            Finding(
                "LINT-RATCHET", "error", baseline_path, "base-ref",
                f"base ref {base_ref!r} does not name a commit "
                "(fetch it, or pass an existing ref)",
            )
        ]
    old = _baseline_at_ref(repo, baseline_path, base_ref)
    if old is None:
        return []
    if len(current.entries) <= len(old.entries):
        return []
    added = sorted(_entry_keys(current) - _entry_keys(old))
    shown = "; ".join(
        f"{rule} @ {scope}:{location}" for rule, scope, location in added[:5]
    ) + ("..." if len(added) > 5 else "")
    return [
        Finding(
            "LINT-RATCHET",
            "error",
            baseline_path,
            "suppressions",
            f"suppression count grew from {len(old.entries)} to "
            f"{len(current.entries)} vs {base_ref}"
            + (f" (new: {shown})" if added else "")
            + "; fix the findings instead of baselining them, or retire "
            "an existing suppression",
        )
    ]
