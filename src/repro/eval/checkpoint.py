"""Append-only sweep checkpoints for crash-safe resume.

A long sweep interrupted by ``SIGINT``/``SIGKILL`` (or a machine
reboot) should not lose its completed points.  The persistent
:class:`~repro.eval.runner.ResultCache` already covers the common case,
but it is global, optional and user-relocatable; the checkpoint is a
*per-sweep* journal tied to the exact point list, so ``--resume`` can
prove it is continuing the same sweep it left off.

File format (JSONL, one object per line)::

    {"kind": "header", "schema": 1, "signature": "...", "total": 25}
    {"kind": "point", "key": "<config key>", "payload": {...}}
    ...

* The signature is a stable hash of the salted config keys *in sweep
  order* -- any change to the point list, the config contents, or the
  simulator revision produces a different signature, and a mismatched
  checkpoint is ignored (with a structured warning) rather than
  replayed.
* Lines are appended and fsynced as each point completes.  A process
  killed mid-write leaves at most one truncated final line, which load
  tolerates by dropping it; a resumed run rewrites the journal without
  it before appending.
* :meth:`complete` removes the file: a finished sweep leaves nothing to
  resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..obs.metrics import emit_warning
from .store import sha256

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "SweepCheckpoint", "sweep_signature"]

CHECKPOINT_SCHEMA_VERSION = 1


def sweep_signature(keys: Sequence[str]) -> str:
    """Stable identity of one sweep: its salted config keys, in order."""
    digest = sha256("\n".join(keys).encode()).hexdigest()
    return digest[:32]


class SweepCheckpoint:
    """Append-only journal of completed points for one sweep."""

    def __init__(self, path: os.PathLike, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        #: Payloads recovered from a previous interrupted run, keyed by
        #: config key.  Empty when starting fresh or when the on-disk
        #: journal belongs to a different sweep.
        self.recovered: Dict[str, dict] = {}
        self._fh = None
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        lines: List[str]
        try:
            lines = self.path.read_text().splitlines()
        except OSError as exc:
            emit_warning(
                "checkpoint_unreadable",
                f"cannot read sweep checkpoint {self.path}: {exc}",
                path=str(self.path),
            )
            return
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if (
            not isinstance(header, dict)
            or header.get("kind") != "header"
            or header.get("schema") != CHECKPOINT_SCHEMA_VERSION
        ):
            emit_warning(
                "checkpoint_bad_header",
                f"sweep checkpoint {self.path} has no valid header; ignoring it",
                path=str(self.path),
            )
            return
        if header.get("signature") != self.signature:
            emit_warning(
                "checkpoint_signature_mismatch",
                f"sweep checkpoint {self.path} belongs to a different sweep "
                "(point list, config contents or simulator revision changed); "
                "starting fresh",
                path=str(self.path),
                found=header.get("signature"),
                expected=self.signature,
            )
            return
        dropped = 0
        for line in lines[1:]:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                # Interrupted mid-append: only the final line can be
                # truncated, but tolerate garbage anywhere.
                dropped += 1
                continue
            if (
                isinstance(row, dict)
                and row.get("kind") == "point"
                and isinstance(row.get("key"), str)
                and isinstance(row.get("payload"), dict)
            ):
                self.recovered[row["key"]] = row["payload"]
            else:
                dropped += 1
        if dropped:
            emit_warning(
                "checkpoint_partial_lines",
                f"dropped {dropped} unparsable line(s) from sweep checkpoint "
                f"{self.path} (interrupted mid-write)",
                path=str(self.path),
                dropped=dropped,
            )

    # ------------------------------------------------------------------
    def _open(self) -> None:
        if self._fh is not None:
            return
        # Rewrite the journal as header plus recovered points before the
        # first append: a torn final line is dropped instead of glued to
        # the next row, and rows from abandoned sweeps never accumulate.
        # Temp file + fsync + rename, so a crash here loses nothing.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "signature": self.signature,
        }
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for key, payload in self.recovered.items():
                fh.write(
                    json.dumps({"kind": "point", "key": key, "payload": payload})
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a")

    def record(self, key: str, payload: dict) -> None:
        """Append one completed point (flushed and fsynced immediately,
        so a SIGKILL loses at most the in-flight point)."""
        try:
            self._open()
            self._fh.write(
                json.dumps({"kind": "point", "key": key, "payload": payload})
                + "\n"
            )
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            emit_warning(
                "checkpoint_write_failed",
                f"cannot append to sweep checkpoint {self.path}: {exc}",
                path=str(self.path),
            )

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def complete(self) -> None:
        """The sweep finished: nothing left to resume, remove the file."""
        self.close()
        try:
            self.path.unlink(missing_ok=True)
        except OSError as exc:
            emit_warning(
                "checkpoint_unlink_failed",
                f"cannot remove finished sweep checkpoint {self.path}: {exc}",
                path=str(self.path),
            )
