"""Distributed sweep service: job-queue server, workers, client.

The paper's evaluation is a bag of independent simulation points, and
:mod:`repro.eval.runner` already fans them out across local processes.
This package adds the missing transport so one sweep can span machines:

* :mod:`repro.serve.server` -- ``repro serve``: an asyncio job-queue
  scheduler that accepts sweeps from clients, shards their points
  across connected workers, dedupes identical points across clients
  through a sharded on-disk :class:`~repro.eval.runner.ResultCache`,
  and journals completed points so a crashed server resumes.

* :mod:`repro.serve.worker` -- ``repro work --connect HOST:PORT``: a
  synchronous lease/compute/report loop around the same
  ``run_simulation_worker`` the local process pool uses.

* :mod:`repro.serve.client` -- :class:`RemoteScheduler`, the
  :class:`~repro.eval.runner.PointScheduler` implementation behind
  ``repro sweep --connect``: submits the pending points and streams
  results back into the ordinary sweep bookkeeping.

* :mod:`repro.serve.protocol` -- the line-delimited JSON wire format
  shared by all three (see ``docs/DISTRIBUTED.md``).

Because every simulation seeds its RNG streams purely from
``(config.seed, terminal_id)``, results are bit-identical no matter
which worker -- or which machine -- computed them.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .client import RemoteScheduler
    from .protocol import PROTOCOL_VERSION, ProtocolError, parse_address

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteScheduler",
    "parse_address",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".client": ["RemoteScheduler"],
        ".protocol": ["PROTOCOL_VERSION", "ProtocolError", "parse_address"],
    },
)
