"""Machine-readable findings and the baseline suppression file.

Every check in :mod:`repro.analysis` reports :class:`Finding` records:
a stable rule id, a severity, the scope it was found in (netlist name
or source path), a location within that scope (net path or line), and a
human-readable message.  The ``(rule, scope, location)`` triple is the
finding's *suppression key*: a :class:`Baseline` file lists such
triples (with ``fnmatch`` wildcards) for accepted pre-existing
findings, so CI gates only on findings outside the baseline.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SEVERITIES",
    "Finding",
    "Baseline",
    "format_findings",
    "findings_to_json",
]

#: Recognized severities, most severe first.  Every severity gates CI
#: unless baselined; the split exists so reports sort sensibly and the
#: baseline can be audited per class of problem.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    ``scope`` identifies the artifact (netlist name or repo-relative
    source path), ``location`` the position inside it (``net 123
    (AND2)`` or ``line 45``).  Both are stable across re-runs for an
    unchanged input, which is what makes baseline suppression sound.
    """

    rule: str
    severity: str
    scope: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of "
                f"{SEVERITIES}"
            )

    @property
    def key(self) -> Tuple[str, str, str]:
        """Suppression key: what a baseline entry matches against."""
        return (self.rule, self.scope, self.location)

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Finding":
        return cls(
            rule=data["rule"],
            severity=data["severity"],
            scope=data["scope"],
            location=data["location"],
            message=data.get("message", ""),
        )

    def render(self) -> str:
        return (
            f"{self.severity:7s} {self.rule:22s} {self.scope}: "
            f"{self.location}: {self.message}"
        )


def _sort_key(f: Finding) -> Tuple[int, str, str, str]:
    return (_SEVERITY_RANK.get(f.severity, 99), f.rule, f.scope, f.location)


class Baseline:
    """Suppression file for accepted pre-existing findings.

    JSON schema::

        {
          "version": 1,
          "suppressions": [
            {"rule": "DRC-CONST-FOLD", "scope": "vc_wf_*", "location": "*",
             "reason": "wavefront ties illegal cells to const-0 like the RTL"}
          ]
        }

    ``rule``/``scope``/``location`` are matched with
    :func:`fnmatch.fnmatchcase` so one entry can cover a family of
    structurally-identical findings.  ``reason`` is documentation only
    but strongly encouraged -- a baseline entry without a reason is a
    finding waiting to be forgotten.
    """

    VERSION = 1

    def __init__(self, entries: Sequence[Dict[str, str]] = ()) -> None:
        self.entries: List[Dict[str, str]] = []
        for entry in entries:
            if "rule" not in entry:
                raise ValueError(f"baseline entry missing 'rule': {entry!r}")
            self.entries.append(
                {
                    "rule": entry["rule"],
                    "scope": entry.get("scope", "*"),
                    "location": entry.get("location", "*"),
                    "reason": entry.get("reason", ""),
                }
            )
        self._hits = [0] * len(self.entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(Path(path).read_text())
        version = data.get("version")
        if version != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {version!r} in {path} "
                f"(expected {cls.VERSION})"
            )
        return cls(data.get("suppressions", []))

    def dump(self, path: Path) -> None:
        payload = {"version": self.VERSION, "suppressions": self.entries}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def matches(self, finding: Finding) -> bool:
        """True (and counted) when any entry suppresses ``finding``."""
        for i, entry in enumerate(self.entries):
            if (
                fnmatchcase(finding.rule, entry["rule"])
                and fnmatchcase(finding.scope, entry["scope"])
                and fnmatchcase(finding.location, entry["location"])
            ):
                self._hits[i] += 1
                return True
        return False

    def partition(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split into (unsuppressed, suppressed), each sorted."""
        kept: List[Finding] = []
        dropped: List[Finding] = []
        for f in findings:
            (dropped if self.matches(f) else kept).append(f)
        kept.sort(key=_sort_key)
        dropped.sort(key=_sort_key)
        return kept, dropped

    def unused_entries(
        self,
        rules: Sequence[str] = ("",),
        unchecked: Mapping[str, Sequence[str]] = {},
    ) -> List[Dict[str, str]]:
        """Entries that matched nothing -- stale suppressions to prune.

        Only entries whose rule pattern can match a rule starting with
        one of the ``rules`` prefixes are judged: pass the prefixes of
        the stages that ran (``DRC-``, ``SRC-``, ...), since an entry
        for a stage that did not run matched nothing for that reason
        alone.  For the same reason an entry is not judged when its
        scope matches one of ``unchecked[prefix]``, the scopes a stage
        left unchecked (a narrowed run's skipped netlists), and its rule
        can match that stage's ``prefix``.
        """
        def out_of_reach(entry: Dict[str, str]) -> bool:
            return any(
                _rule_reachable(entry["rule"], (prefix,))
                and any(fnmatchcase(s, entry["scope"]) for s in scopes)
                for prefix, scopes in unchecked.items()
            )

        return [
            e for e, h in zip(self.entries, self._hits)
            if h == 0 and _rule_reachable(e["rule"], rules) and not out_of_reach(e)
        ]


def _rule_reachable(pattern: str, prefixes: Sequence[str]) -> bool:
    """Whether the rule pattern ``pattern`` can match some rule that
    starts with one of ``prefixes``: its literal head (up to the first
    wildcard) and a prefix agree as far as the shorter goes."""
    head = re.split(r"[*?[]", pattern, maxsplit=1)[0]
    return any(head.startswith(p) or p.startswith(head) for p in prefixes)


def format_findings(
    findings: Sequence[Finding],
    suppressed: int = 0,
    title: str = "",
) -> str:
    """Human-readable report, most severe first."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for f in sorted(findings, key=_sort_key):
        lines.append(f.render())
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    summary = ", ".join(
        f"{counts[s]} {s}(s)" for s in SEVERITIES if s in counts
    )
    lines.append(
        f"{len(findings)} finding(s)"
        + (f" ({summary})" if summary else "")
        + (f", {suppressed} baseline-suppressed" if suppressed else "")
    )
    return "\n".join(lines)


def findings_to_json(
    findings: Sequence[Finding],
    suppressed: Sequence[Finding] = (),
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Stable machine-readable report (the CI artifact format)."""
    counts: Dict[str, int] = {s: 0 for s in SEVERITIES}
    for f in findings:
        counts[f.severity] += 1
    payload: Dict[str, Any] = {
        "version": 1,
        "summary": {
            "total": len(findings),
            "suppressed": len(suppressed),
            **counts,
        },
        "findings": [f.to_dict() for f in sorted(findings, key=_sort_key)],
        "suppressed": [f.to_dict() for f in sorted(suppressed, key=_sort_key)],
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=1, sort_keys=True)
