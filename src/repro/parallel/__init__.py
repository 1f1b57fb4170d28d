"""Parallel campaign execution: deterministic sharding + build caching.

The repo's campaigns (fuzz conformance, chaos fault injection,
byte-by-byte attack trials, the effectiveness/security benches) are
seeded loops over ``[base_seed, base_seed + budget)``.  This package
makes them scale across cores without giving up the determinism
contract that one seed reproduces one case bit-for-bit:

* :mod:`repro.parallel.campaign` — the one campaign engine: every
  runner hands it a ``run_unit(config, seed)`` contract plus merge,
  encode/decode and lost-shard mappings, and the engine runs the units
  serially or sharded, owns the deadline, retries and telemetry-delta
  merge, and keeps the one checkpoint format.
* :mod:`repro.parallel.sharding` — jobs-independent partition of a
  campaign into ordered shards, plus the one shared registration and
  resolution of the campaign CLI flags (``--jobs`` with its
  ``REPRO_JOBS`` default and CPU cap, ``--shard-retries``,
  ``--checkpoint``/``--resume``).
* :mod:`repro.parallel.executor` — a crash-tolerant process-pool
  runner: bounded in-flight work, per-shard timeout, one re-queue for
  a crashed worker's slice, then an explicit infra failure — never a
  silently dropped seed.  Results come back in canonical shard order.
* :mod:`repro.parallel.buildcache` — content-addressed cache of
  compiled images keyed by ``hash(source, scheme, toolchain)``, so
  fast/slow differential pairs, reference/faulted twins, and shrinking
  loops reuse one build.
* :mod:`repro.parallel.snapcache` — content-addressed cache of warmed
  :class:`~repro.machine.snapshot.SpawnImage` objects (memory tier +
  optional ``REPRO_SNAPSHOT_DIR`` disk tier), so campaign workers boot
  processes by COW-cloning a frozen post-load image instead of
  re-running the loader per spawn.

The determinism invariant (tested in ``tests/parallel/``): for any
campaign, ``--jobs N`` produces a bit-identical report to ``--jobs 1``.
Worker telemetry crosses the process boundary as
:class:`repro.telemetry.Snapshot` deltas and is merged in shard order.
"""

from .buildcache import (
    DEFAULT_MAX_ENTRIES,
    TOOLCHAIN_VERSION,
    BuildCache,
    build_cache,
    reset_build_cache,
    toolchain_fingerprint,
)
from .campaign import (
    CHECKPOINT_VERSION,
    Checkpoint,
    open_checkpoint,
    run_units,
)
from .executor import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    ShardOutcome,
    run_shards,
)
from .sharding import (
    JOBS_ENV_VAR,
    MAX_SHARD_SEEDS,
    TARGET_SHARDS,
    Shard,
    add_campaign_arguments,
    add_jobs_argument,
    default_jobs,
    plan_shards,
    resolve_campaign_arguments,
    resolve_jobs,
    shard_size_for,
)
from .snapcache import (
    DEFAULT_MAX_IMAGES,
    SnapshotCache,
    directory_stats,
    image_cache,
    reset_image_cache,
)

__all__ = [
    "BuildCache", "build_cache", "reset_build_cache",
    "toolchain_fingerprint", "TOOLCHAIN_VERSION", "DEFAULT_MAX_ENTRIES",
    "SnapshotCache", "image_cache", "reset_image_cache",
    "directory_stats", "DEFAULT_MAX_IMAGES",
    "run_units", "open_checkpoint", "Checkpoint", "CHECKPOINT_VERSION",
    "ShardOutcome", "run_shards",
    "STATUS_OK", "STATUS_FAILED", "STATUS_SKIPPED",
    "Shard", "plan_shards", "shard_size_for",
    "add_campaign_arguments", "add_jobs_argument",
    "default_jobs", "resolve_campaign_arguments", "resolve_jobs",
    "JOBS_ENV_VAR", "TARGET_SHARDS", "MAX_SHARD_SEEDS",
]
