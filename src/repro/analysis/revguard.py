"""Git-aware ``SIMULATOR_REV`` guard.

``SIMULATOR_REV`` (:mod:`repro.netsim.config`) salts every on-disk
sweep-result cache: when a change alters the numbers a simulation
produces for an unchanged config, the rev must be bumped or stale
cached results silently masquerade as current ones.  The discipline so
far rested on review (CHANGES.md PR 4 bumped 1 -> 2 by hand); this
guard makes it mechanical:

* diff ``base_ref`` against ``head`` (default: the working tree);
* if any *semantics-bearing* file changed (``src/repro/core/``,
  ``src/repro/netsim/``) the rev must differ between base and head,
  OR a commit in the range must carry an explicit override trailer::

      Simulator-Rev: unchanged (<why the numbers cannot move>)

The override exists because not every touch of a semantics file changes
numbers (comment fixes, pure refactors pinned by the bit-identity
harness); the trailer records that claim in the history where review
can see it.
"""

from __future__ import annotations

import re
import subprocess
from pathlib import Path
from typing import List, Optional, Sequence

from .findings import Finding

__all__ = [
    "SEMANTIC_PATHS",
    "OVERRIDE_TRAILER",
    "check_simulator_rev",
]

#: Repo-relative path prefixes whose changes are presumed to move
#: simulation numbers.
SEMANTIC_PATHS: Sequence[str] = ("src/repro/core/", "src/repro/netsim/")

#: Commit-message trailer that waives the bump requirement for a range.
OVERRIDE_TRAILER = "Simulator-Rev:"

_REV_RE = re.compile(r"^SIMULATOR_REV\s*=\s*(\d+)", re.MULTILINE)
#: Where ``SIMULATOR_REV`` is assigned; the first file that has it wins.
#: ``simulator.py`` carried it until the import-light names moved to
#: ``config.py``, so a base ref from before the move is still readable.
_REV_FILES = ("src/repro/netsim/config.py", "src/repro/netsim/simulator.py")
_SIMULATOR_FILE = _REV_FILES[0]


def _git(repo: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def _read_rev_at(repo: Path, ref: Optional[str]) -> Optional[int]:
    """SIMULATOR_REV at ``ref``; ``None`` ref reads the working tree."""
    for rev_file in _REV_FILES:
        try:
            if ref is None:
                text = (repo / rev_file).read_text()
            else:
                text = _git(repo, "show", f"{ref}:{rev_file}")
        except (OSError, subprocess.CalledProcessError):
            continue
        m = _REV_RE.search(text)
        if m:
            return int(m.group(1))
    return None


def _changed_files(repo: Path, base_ref: str, head_ref: Optional[str]) -> List[str]:
    if head_ref is None:
        # merge-base semantics against the working tree: changes on our
        # side only, like `git diff base...` does for commits.  Untracked
        # files are changes too -- `git diff` alone would let a brand-new
        # semantics module slip past the working-tree check.
        base = _git(repo, "merge-base", base_ref, "HEAD").strip()
        out = _git(repo, "diff", "--name-only", base)
        out += _git(repo, "ls-files", "--others", "--exclude-standard")
    else:
        out = _git(repo, "diff", "--name-only", f"{base_ref}...{head_ref}")
    return [line.strip() for line in out.splitlines() if line.strip()]


def _has_override(repo: Path, base_ref: str, head_ref: Optional[str]) -> bool:
    head = head_ref or "HEAD"
    try:
        base = _git(repo, "merge-base", base_ref, head).strip()
        log = _git(repo, "log", "--format=%B", f"{base}..{head}")
    except subprocess.CalledProcessError:
        return False
    return any(
        line.strip().startswith(OVERRIDE_TRAILER)
        for line in log.splitlines()
    )


def check_simulator_rev(
    repo: Path,
    base_ref: str,
    head_ref: Optional[str] = None,
) -> List[Finding]:
    """Findings for an un-bumped rev over a semantics-bearing change.

    ``head_ref=None`` compares the working tree (including uncommitted
    edits) against the merge-base with ``base_ref`` -- the right shape
    both locally and in a CI checkout of a PR head.
    """
    repo = Path(repo)
    try:
        changed = _changed_files(repo, base_ref, head_ref)
    except (subprocess.CalledProcessError, OSError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        return [
            Finding(
                "SRC-SIM-REV", "error", _SIMULATOR_FILE, "git",
                f"cannot diff against {base_ref!r}: {detail.strip()} "
                "(fetch the base ref or pass --rev-base)",
            )
        ]
    semantic = [
        f for f in changed if any(f.startswith(p) for p in SEMANTIC_PATHS)
    ]
    if not semantic:
        return []
    rev_base = _read_rev_at(repo, base_ref)
    rev_head = _read_rev_at(repo, head_ref)
    if rev_base is None or rev_head is None:
        return [
            Finding(
                "SRC-SIM-REV", "error", _SIMULATOR_FILE, "SIMULATOR_REV",
                "cannot locate SIMULATOR_REV on one side of the diff",
            )
        ]
    if rev_head != rev_base:
        return []
    if _has_override(repo, base_ref, head_ref):
        return []
    shown = ", ".join(semantic[:5]) + ("..." if len(semantic) > 5 else "")
    return [
        Finding(
            "SRC-SIM-REV",
            "error",
            _SIMULATOR_FILE,
            f"SIMULATOR_REV = {rev_head}",
            f"semantics-bearing file(s) changed ({shown}) without a "
            f"SIMULATOR_REV bump; bump it, or add a commit trailer "
            f"'{OVERRIDE_TRAILER} unchanged (<reason>)' if the numbers "
            "provably cannot move",
        )
    ]
