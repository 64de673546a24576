"""The one on-disk result store: salted, checksummed, atomically rewritten.

Everything this repo memoises on disk is a recomputable result keyed by
its inputs, and every memo has the same two ways to go wrong: serving a
number computed by *different code* (staleness), and serving or losing
numbers because the *file* is damaged (corruption).  :class:`ResultStore`
answers both once:

* **salt** -- a string naming the code that produced the entries.  A
  file whose salt (or schema) differs is dropped wholesale at load, so a
  stale entry is never served.  :class:`~repro.eval.runner.ResultCache`
  salts with ``sim-rev-N`` (bumped by hand, held to the simulator's
  behaviour by ``tests/netsim/test_rev_fingerprint.py``); the offline
  results (``repro quality | cost | lint --netlists | verify`` and
  :class:`~repro.eval.cost.CostCache`) salt with :func:`code_salt`, a
  digest of the package's own source, so no one has to remember to bump
  anything.
* **file discipline** -- one JSON document ``{"schema", "salt",
  "checksum", "entries"}``, written through a temp file + ``fsync`` +
  ``os.replace`` (a crash mid-write never truncates it), batched
  (``put_payload`` marks dirty; the rewrite happens every ``flush_every``
  inserts / ``flush_interval`` seconds / explicit :meth:`~ResultStore.
  flush`), quarantined to ``<path>.corrupt`` with a structured warning
  when it does not parse, and recovered entry by entry through the
  ``validate`` callable when the content checksum does not match.

This module imports nothing heavy: a command answered from the store
pays for the interpreter, one digest and one ``json.loads``
(docs/PERFORMANCE.md, "Warm offline commands").  Its :data:`sha256` is
the package's only SHA-256, and it is not OpenSSL's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from ..obs.metrics import emit_warning

# ``sha256``: the package's one SHA-256 (config keys, sweep signatures,
# store checksums, the code salt), the interpreter's own -- the way
# ``random`` takes its SHA-512.  The ``hashlib`` module loads OpenSSL:
# 3.6 MiB of RSS in every process that imports it, for the same digest
# (docs/PERFORMANCE.md, "No OpenSSL in a sweep").
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython <= 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "code_salt",
    "default_store_path",
    "sha256",
]

# Schema of the store *file* (layout/keying).  Orthogonal to the salt,
# which tracks the semantics of the stored *values*.
STORE_SCHEMA_VERSION = 1

#: The ``repro`` package directory: what :func:`code_salt` digests.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def default_store_path() -> Path:
    """``REPRO_COST_CACHE`` override or a per-user file: where the
    offline results live (the path ``CostCache`` has always used)."""
    return Path(
        os.environ.get(
            "REPRO_COST_CACHE",
            str(Path.home() / ".cache" / "repro-noc-alloc-costs.json"),
        )
    )


def code_salt(root: Optional[os.PathLike] = None) -> Optional[str]:
    """Salt of the offline results: the code that computes them.

    A digest of the name and bytes of **every** ``.py`` file under the
    ``repro`` package (``root``) and the Python ``major.minor``.  The
    whole package, not a dependency list: a list has to be kept closed
    by hand, which is the discipline the salt exists to replace, and the
    digest costs milliseconds.  Nothing the store memoises runs numpy
    (the matching experiments draw from ``repro.netsim.rng``), so the
    salt does not name it.  ``None`` when the sources cannot be read (a
    zipped or ``.pyc``-only install): the caller runs without a store
    rather than guess.
    """
    root = Path(root) if root is not None else PACKAGE_ROOT
    sources = sorted(root.rglob("*.py"))
    if not sources:
        return None
    digest = sha256()
    try:
        for path in sources:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    except OSError:
        return None
    major, minor = sys.version_info[:2]
    return f"code-py{major}.{minor}-{digest.hexdigest()[:24]}"


def _entries_checksum(entries: Dict[str, dict]) -> str:
    """Content checksum of the entry table (detects bit-rot/truncation)."""
    canonical = json.dumps(entries, sort_keys=True)
    return sha256(canonical.encode()).hexdigest()[:32]


class ResultStore:
    """Versioned on-disk memo of JSON payloads under string keys.

    File layout::

        {"schema": 1, "salt": "sim-rev-3", "checksum": "...",
         "entries": {key: payload}}

    A schema or salt mismatch discards the stored entries (stale
    numbers must never be served).  Real *corruption* is never silently
    swallowed: an unparsable file is quarantined to ``<path>.corrupt``
    with a structured warning, and a checksum mismatch triggers
    per-entry recovery -- entries ``validate`` accepts survive, the rest
    are dropped and counted (a store without a validator cannot vouch
    for any entry and drops them all).  Files written before the
    checksum existed load normally.  Writes go through a temp file +
    ``os.replace`` so a crash mid-write can never truncate an existing
    store.

    Persistence is *batched*: :meth:`put_payload` only marks the store
    dirty, and the full-file rewrite happens once ``flush_every``
    inserts or ``flush_interval`` seconds have accumulated (whichever
    comes first), or on an explicit :meth:`flush`.  Rewriting the whole
    document per insert was O(n^2) I/O across a sweep; entries are
    recomputable, so losing the last unflushed batch to a crash is
    degraded service, not data loss (crash-safe durability is the
    checkpoint journal's job, see :mod:`repro.eval.checkpoint`).

    ``salt=None`` (no salt could be derived, see :func:`code_salt`)
    keeps the store in memory: nothing is loaded and nothing written.
    """

    def __init__(
        self,
        path: os.PathLike,
        salt: Optional[str],
        validate: Optional[Callable[[dict], object]] = None,
        label: str = "result store",
        flush_every: int = 32,
        flush_interval: float = 5.0,
    ) -> None:
        self.path = Path(path)
        self.salt = salt
        self.validate = validate
        self.label = label  # names the file in warnings
        self.flush_every = max(int(flush_every), 1)
        self.flush_interval = flush_interval
        self.hits = 0
        self.misses = 0
        self.flushes = 0  # full-file rewrites actually performed
        self._dirty = 0  # inserts since the last successful flush
        self._last_flush = time.monotonic()
        self._entries: Dict[str, dict] = {}
        if salt is not None:
            self._load()

    def _quarantine(self, reason: str) -> None:
        """Preserve a corrupt file for inspection instead of letting
        the next flush overwrite the evidence."""
        target = Path(f"{self.path}.corrupt")
        try:
            os.replace(self.path, target)
        except OSError as exc:
            emit_warning(
                "cache_quarantine_failed",
                f"{self.label} {self.path} is corrupt ({reason}) and could "
                f"not be moved aside: {exc}",
                path=str(self.path),
                reason=reason,
            )
            return
        emit_warning(
            "cache_corrupt",
            f"{self.label} {self.path} is corrupt ({reason}); moved to "
            f"{target} and starting empty",
            path=str(self.path),
            quarantined_to=str(target),
            reason=reason,
        )

    def _valid(self, payload: object) -> bool:
        if not isinstance(payload, dict) or self.validate is None:
            return False
        try:
            self.validate(payload)
        except (TypeError, KeyError, ValueError, AttributeError):
            return False
        return True

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return  # first run: nothing stored yet
        except OSError as exc:
            emit_warning(
                "cache_unreadable",
                f"cannot read {self.label} {self.path}: {exc}; starting empty",
                path=str(self.path),
            )
            return
        try:
            raw = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine("not valid JSON")
            return
        if not isinstance(raw, dict):
            self._quarantine("top level is not a JSON object")
            return
        if raw.get("schema") != STORE_SCHEMA_VERSION or raw.get("salt") != self.salt:
            return  # versioned invalidation: drop stale entries wholesale
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            self._quarantine("entry table missing or malformed")
            return
        checksum = raw.get("checksum")
        if checksum is not None and checksum != _entries_checksum(entries):
            # The file parsed but its content does not match what was
            # written (hand edit, concurrent writer, bit-rot).  Recover
            # whatever still validates instead of dropping the lot.
            good = {k: v for k, v in entries.items() if self._valid(v)}
            dropped = len(entries) - len(good)
            emit_warning(
                "cache_checksum_mismatch",
                f"{self.label} {self.path} failed its content checksum; "
                f"recovered {len(good)} entrie(s), dropped {dropped}",
                path=str(self.path),
                recovered=len(good),
                dropped=dropped,
            )
            self._entries = good
            return
        self._entries = {
            k: v for k, v in entries.items() if isinstance(v, dict)
        }

    def __len__(self) -> int:
        return len(self._entries)

    def get_payload(self, key: str) -> Optional[dict]:
        """Raw stored payload for ``key`` (no validation, not counted)."""
        return self._entries.get(key)

    def put_payload(self, key: str, payload: dict) -> None:
        """Insert a payload under ``key`` (batched)."""
        self._entries[key] = payload
        self._dirty += 1
        if (
            self._dirty >= self.flush_every
            or time.monotonic() - self._last_flush >= self.flush_interval
        ):
            self.flush()

    def drop(self, key: str) -> None:
        """Forget ``key`` (a corrupt entry found at lookup time)."""
        del self._entries[key]
        self._dirty += 1  # the drop must eventually persist too

    def fetch(self, key: str, compute: Callable[[], dict]) -> dict:
        """The payload under ``key``: stored (a hit), or ``compute()``d,
        stored and flushed (a miss)."""
        payload = self._entries.get(key)
        if payload is not None:
            self.hits += 1
            return payload
        self.misses += 1
        payload = compute()
        self.put_payload(key, payload)
        self.flush()
        return payload

    def flush(self) -> None:
        """Atomically persist the store (no-op while nothing is dirty).

        Write-to-temp + ``os.replace`` guarantees the on-disk file is
        always a complete document -- a crash mid-write leaves the old
        file untouched.  A failed flush keeps the in-memory entries and
        emits a structured warning (results are recomputable, so this is
        degraded service, not an error).
        """
        if self._dirty == 0 or self.salt is None:
            return
        doc = {
            "schema": STORE_SCHEMA_VERSION,
            "salt": self.salt,
            "checksum": _entries_checksum(self._entries),
            "entries": self._entries,
        }
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(json.dumps(doc, indent=1))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._dirty = 0
            self._last_flush = time.monotonic()
            self.flushes += 1
        except OSError as exc:
            # Entries stay dirty (a later flush retries); resetting the
            # interval clock keeps a dead disk from warning per insert.
            self._last_flush = time.monotonic()
            emit_warning(
                "cache_flush_failed",
                f"cannot persist {self.label} to {self.path}: {exc} "
                "(results stay in memory for this run)",
                path=str(self.path),
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
