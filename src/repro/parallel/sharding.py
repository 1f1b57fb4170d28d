"""Deterministic work sharding for seeded campaigns.

A campaign is a contiguous seed interval ``[base_seed, base_seed +
budget)``.  :func:`plan_shards` partitions it into ordered, disjoint,
jointly-exhaustive slices whose layout depends **only** on the interval
(and an optional resume skip-set) — never on the worker count — so the
same campaign always decomposes into the same shards whether it runs
under ``--jobs 1`` or ``--jobs 64``.  That invariant is what makes the
merged report reproducible: results are folded in shard order, not
completion order, so the aggregate is independent of scheduling.

The module also owns the campaign CLI flags: the one shared ``--jobs``
resolution (validation, the ``REPRO_JOBS`` environment default, and the
CPU-count cap) used by every subcommand and benchmark, plus the
registration and validation of ``--shard-retries`` and
``--checkpoint``/``--resume``, so the rules cannot drift between entry
points.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

#: Aim for this many shards per campaign: enough slices that a slow
#: shard cannot serialise the tail, few enough that per-task overhead
#: stays negligible.
TARGET_SHARDS = 16

#: Never put more than this many seeds in one shard (keeps retry and
#: checkpoint granularity bounded on huge budgets).
MAX_SHARD_SEEDS = 32

#: Environment variable supplying the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class Shard:
    """One slice of a campaign: an ordered tuple of seeds."""

    index: int
    seeds: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seeds)


def shard_size_for(budget: int) -> int:
    """Seeds per shard for a campaign of ``budget`` seeds.

    Derived from the budget alone (ceil-divided towards
    :data:`TARGET_SHARDS`, capped at :data:`MAX_SHARD_SEEDS`) so the
    partition is identical for every ``--jobs`` value.
    """
    if budget <= 0:
        return 1
    return max(1, min(MAX_SHARD_SEEDS, -(-budget // TARGET_SHARDS)))


def plan_shards(
    base_seed: int,
    budget: int,
    *,
    shard_size: Optional[int] = None,
    skip: Iterable[int] = (),
) -> List[Shard]:
    """Partition ``[base_seed, base_seed + budget)`` into shards.

    ``skip`` removes already-completed seeds (checkpoint resume) before
    slicing, so a resumed campaign re-shards only the remaining work.
    The returned shards are ordered, disjoint, and cover exactly the
    non-skipped seeds — no seed is ever dropped or duplicated.
    """
    skipped = frozenset(skip)
    seeds = [
        base_seed + offset
        for offset in range(max(0, budget))
        if base_seed + offset not in skipped
    ]
    size = shard_size if shard_size is not None else shard_size_for(budget)
    if size < 1:
        raise ValueError(f"shard_size must be >= 1, got {size}")
    return [
        Shard(index, tuple(seeds[start:start + size]))
        for index, start in enumerate(range(0, len(seeds), size))
    ]


# ---------------------------------------------------------------------------
# campaign flags (the one shared implementation; see module docstring)
# ---------------------------------------------------------------------------


def default_jobs() -> int:
    """Worker count from :data:`JOBS_ENV_VAR`, else 1 (serial)."""
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be >= 1, got {value}")
    return min(value, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Validate and normalise a requested worker count.

    ``None`` falls back to :func:`default_jobs` (the ``REPRO_JOBS``
    environment variable, else 1).  Explicit values below 1 are
    rejected; values above ``os.cpu_count()`` are capped — extra
    workers past the core count only add scheduling overhead.
    """
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _jobs_argument(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {value}")
    return value


def add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs`` option to a subcommand parser."""
    parser.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help=f"worker processes (default: ${JOBS_ENV_VAR} or 1; "
             f"capped at the CPU count)",
    )


def add_campaign_arguments(
    parser: argparse.ArgumentParser,
    *,
    shard_retries: bool = True,
    checkpoint: bool = False,
) -> None:
    """Attach the campaign flags to a subcommand parser.

    Every campaign command takes ``--jobs``; those that shard through
    the engine with a retry budget take ``--shard-retries``; the
    resumable ones (chaos, fleet) take ``--checkpoint``/``--resume``.
    :func:`resolve_campaign_arguments` validates whichever are present.
    """
    add_jobs_argument(parser)
    if shard_retries:
        parser.add_argument(
            "--shard-retries", type=int, default=1, metavar="N",
            help="re-queues per lost shard before its seeds are reported "
                 "as infrastructure failures (default: 1)",
        )
    if checkpoint:
        parser.add_argument(
            "--checkpoint", default=None, metavar="FILE",
            help="write a resumable checkpoint after every completed "
                 "unit (serial) or shard (--jobs N)",
        )
        parser.add_argument(
            "--resume", action="store_true",
            help="skip the units already in --checkpoint",
        )


def resolve_campaign_arguments(args: argparse.Namespace) -> None:
    """Validate and normalise the campaign flags of ``args`` in place.

    Commands without campaign flags pass through untouched.  Raises
    :class:`ValueError` (a usage error at the CLI) for a bad ``--jobs``
    or ``REPRO_JOBS`` value, a negative ``--shard-retries``, or
    ``--resume`` without ``--checkpoint``.
    """
    if hasattr(args, "jobs"):
        args.jobs = resolve_jobs(args.jobs)
    retries = getattr(args, "shard_retries", 0)
    if retries < 0:
        raise ValueError(f"--shard-retries must be >= 0, got {retries}")
    if getattr(args, "resume", False) and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint")
