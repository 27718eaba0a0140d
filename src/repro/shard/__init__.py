"""S20: sharded, shared-memory serving (docs/sharding.md).

One process compiles and **seals** the packed routing tables into a
shared-memory image; N worker processes attach it zero-copy and serve
deterministic partitions of the query stream with their own LRU caches
and metrics; the per-shard reports merge back **exactly** — the merged
N-shard :class:`~repro.serve.ServeReport` equals the single-process one
on the same stream.

* :mod:`~repro.shard.tables` -- lower compiled schemes to typed-array
  columns in one ``multiprocessing.shared_memory`` segment
  (``seal_to_buffers``) and rebuild byte-identical engines from the
  manifest (``from_buffers``);
* :mod:`~repro.shard.plan` -- salt-free deterministic query partitioning;
* :mod:`~repro.shard.worker` -- the worker loop: attach the image by
  manifest (the only way tables reach a worker), serve, report;
* :mod:`~repro.shard.pool` -- :class:`ShardPool` lifecycle plus the
  ``run_sharded`` entry point behind ``repro serve --workers N``;
* :mod:`~repro.shard.report` -- report transport across the worker pipe
  and the RunRecord ``shards`` section.
"""

from .plan import partition_pairs, shard_of
from .pool import ShardPool, run_sharded
from .report import payload_report, report_payload, shards_section
from .tables import (
    NO_ID,
    TABLE_FORMAT,
    AttachedTables,
    LoweredTables,
    SealedTables,
    from_buffers,
    lower_compiled,
    seal_to_buffers,
)
from .worker import WorkerSpec, worker_main

__all__ = [
    "NO_ID",
    "TABLE_FORMAT",
    "AttachedTables",
    "LoweredTables",
    "SealedTables",
    "ShardPool",
    "WorkerSpec",
    "from_buffers",
    "lower_compiled",
    "partition_pairs",
    "payload_report",
    "report_payload",
    "run_sharded",
    "seal_to_buffers",
    "shard_of",
    "shards_section",
    "worker_main",
]
