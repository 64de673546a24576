"""Sharded on-disk result cache for the sweep server.

The server memoizes every completed point so concurrent clients share
warm results.  A single :class:`~repro.eval.runner.ResultCache` file
would grow with the union of every client's sweeps and each batched
flush would rewrite all of it; sharding by cache key spreads that cost
across ``shards`` independent files (``shard-00.json`` ...), each a
perfectly ordinary ``ResultCache`` -- same schema, same salt handling,
same quarantine-on-corruption story, and inspectable with nothing but
``python -m json.tool``.

Keys are the existing content checksums from
:func:`~repro.eval.runner.config_key` (salted SHA-256 hex), so the
leading hex digits are uniformly distributed and a simple prefix mod
balances the shards.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

from ..eval.runner import ResultCache

__all__ = ["ShardedResultCache"]


class ShardedResultCache:
    """``ResultCache`` semantics spread across N shard files."""

    def __init__(
        self,
        root: os.PathLike,
        shards: int = 8,
        flush_every: int = 32,
        flush_interval: float = 5.0,
    ) -> None:
        self.root = Path(root)
        self.num_shards = max(int(shards), 1)
        self.root.mkdir(parents=True, exist_ok=True)
        self._shards = [
            ResultCache(
                self.root / f"shard-{i:02d}.json",
                flush_every=flush_every,
                flush_interval=flush_interval,
            )
            for i in range(self.num_shards)
        ]
        self.salt = self._shards[0].salt

    def _shard(self, key: str) -> ResultCache:
        return self._shards[int(key[:8], 16) % self.num_shards]

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def get_payload(self, key: str) -> Optional[Dict]:
        return self._shard(key).get_payload(key)

    def put_payload(self, key: str, payload: Dict) -> None:
        self._shard(key).put_payload(key, payload)

    def flush(self) -> None:
        for shard in self._shards:
            shard.flush()

    @property
    def flushes(self) -> int:
        return sum(s.flushes for s in self._shards)
