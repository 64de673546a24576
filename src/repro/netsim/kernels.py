"""Registry of the selectable simulation kernels.

Kept apart from :mod:`repro.netsim.codegen` (which re-exports both
names) so that the signature defaults of ``Router``, ``build_network``,
``run_simulation`` and ``profile_point`` can name the default kernel
without importing the 1.7k-line generator: a process that only serves
cache hits, or never simulates, never loads it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["KERNELS", "DEFAULT_KERNEL"]

#: Selectable simulation kernels, in oracle-first order.
KERNELS: Tuple[str, ...] = ("reference", "fast", "compiled")

#: What every un-flagged simulation runs.  All kernels are bit-identical
#: by contract, so this never enters a config or a cache key.
DEFAULT_KERNEL = "compiled"
