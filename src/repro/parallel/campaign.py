"""The campaign engine: seeded units, run serially or sharded, checkpointed.

Every campaign in the repo — fuzz conformance, chaos fault injection,
byte-by-byte attack trials, the §VI-C effectiveness grid and the fleet
— is a loop over the seeds ``[base_seed, base_seed + budget)`` in which
one seed is one independent *unit* of work.  A runner hands
:func:`run_units` its unit contract and nothing else:

* ``run_unit(config, seed)`` — module-level (the pool pickles it by
  reference); the same function runs in both modes;
* ``merge(seed, unit)`` — fold one unit into the runner's report;
* ``encode``/``decode`` — the unit's plain-data form, used only when a
  unit crosses a process boundary or lands in a checkpoint;
* ``lost(outcome)`` — the runner's typed mapping for a shard whose
  worker was lost after its retries.

``jobs=1`` runs the units in-process and merges each one straight away:
nothing is serialised, and no telemetry is absorbed because the
counters already ticked in this process.  ``jobs>1`` runs
:func:`shard_worker` over the jobs-independent shard plan; the parent
decodes the units, merges them in seed order and absorbs the workers'
telemetry deltas in shard order.  Both modes hand ``merge`` the same
units in the same order, which is the whole ``--jobs N`` ≡ serial
guarantee.

The engine owns the deadline, shard retries and their bookkeeping, and
the one checkpoint format (:class:`Checkpoint`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional

from .. import telemetry
from ..errors import CampaignError
from .executor import STATUS_FAILED, ShardOutcome, run_shards
from .sharding import plan_shards, shard_size_for

#: Checkpoint format version.  Version 1 was the fleet's own format
#: (slices keyed by scheme); chaos wrote a bare report with no version.
CHECKPOINT_VERSION = 2


class Checkpoint:
    """Completed units of one campaign, kept in one atomic JSON file.

    The file holds the campaign's identity (``version``, ``kind`` and
    the runner's header fields) plus each completed unit's encoded
    form, keyed by section and seed.  A section is one unit stream —
    the fleet keeps one per scheme.  Loading validates the identity
    field by field: a checkpoint is only valid for the campaign that
    wrote it, so resuming any other is a :class:`CampaignError`, never
    a report stitched together from two campaigns.  Fields left out of
    the header (the chaos budget) may change between runs.
    """

    def __init__(self, path: str, kind: str, header: Dict[str, Any]) -> None:
        self.path = path
        self.header = {"version": CHECKPOINT_VERSION, "kind": kind, **header}
        self.units: Dict[str, Dict[str, Any]] = {}

    def load(self) -> None:
        """Read completed units back; a missing file means a fresh start."""
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            found = {key: data.get(key) for key in self.header}
            units = {
                str(section): dict(by_seed)
                for section, by_seed in data.get("units", {}).items()
            }
        except (OSError, ValueError, TypeError, AttributeError) as error:
            raise CampaignError(
                f"unreadable checkpoint {self.path}: {error}"
            ) from None
        for key, want in self.header.items():
            if found[key] != want:
                raise CampaignError(
                    f"checkpoint {self.path} does not match this campaign: "
                    f"{key} is {found[key]!r}, expected {want!r}"
                )
        self.units = units

    def completed(self, section: str, seeds: Iterable[int]) -> Dict[int, Any]:
        """The encoded units of ``seeds`` already in ``section``."""
        done = self.units.get(section, {})
        return {seed: done[str(seed)] for seed in seeds if str(seed) in done}

    def record(self, section: str, seed: int, encoded: Any) -> None:
        self.units.setdefault(section, {})[str(seed)] = encoded

    def save(self) -> None:
        """Atomic write: a kill can only ever leave the previous file."""
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({**self.header, "units": self.units}, handle)
            handle.write("\n")
        os.replace(tmp, self.path)


def open_checkpoint(
    path: Optional[str], kind: str, header: Dict[str, Any], *, resume: bool
) -> Optional[Checkpoint]:
    """The campaign's checkpoint (``None`` without a path), loaded when
    resuming."""
    if resume and not path:
        raise ValueError("resume requires a checkpoint path")
    if not path:
        return None
    checkpoint = Checkpoint(path, kind, header)
    if resume:
        checkpoint.load()
    return checkpoint


@dataclass
class UnitRun:
    """What the engine itself observed while running a campaign."""

    timed_out: bool = False
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts``.  Empty on serial and healthy sharded runs, so those
    #: reports stay byte-identical.
    shard_attempts: Dict[str, int] = field(default_factory=dict)
    #: Units run again because a worker was lost (per re-queue, per unit).
    requeued: int = 0


def shard_worker(job, seeds, attempt: int) -> Dict[str, Any]:
    """Process-pool entry point for every campaign: run one shard.

    ``job`` is ``(run_unit, encode, config)``.  Returns each unit's
    encoded form plus the telemetry delta the shard accumulated, so the
    parent can merge both deterministically.  This is the one seam the
    fault-injection tests replace to kill a shard's worker.
    """
    run_unit, encode, config = job
    before = telemetry.snapshot()
    units = [encode(run_unit(config, seed)) for seed in seeds]
    return {"units": units, "telemetry": telemetry.delta(before)}


def run_units(
    run_unit: Callable[[Any, int], Any],
    config: Any,
    base_seed: int,
    budget: int,
    *,
    merge: Callable[[int, Any], None],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
    lost: Callable[[ShardOutcome], None],
    jobs: int = 1,
    retries: int = 1,
    deadline: Optional[float] = None,
    checkpoint: Optional[Checkpoint] = None,
    section: str = "units",
    progress: Optional[Callable[[int, int], None]] = None,
) -> UnitRun:
    """Run the units ``base_seed .. base_seed + budget - 1``.

    Units already in ``checkpoint`` are decoded and merged first, in
    seed order, and are not run again.  ``deadline`` (seconds of wall
    clock) stops starting new units; the rest stay resumable.  A shard
    whose worker is lost is re-queued ``retries`` times, then handed to
    ``lost``.  ``progress(done, total)`` fires at shard boundaries in
    both modes.
    """
    seeds = range(base_seed, base_seed + budget)
    done = checkpoint.completed(section, seeds) if checkpoint else {}
    for seed in sorted(done):
        merge(seed, decode(done[seed]))
    total = budget - len(done)
    result = UnitRun()

    if jobs <= 1:
        every = shard_size_for(budget)
        started = time.monotonic()
        count = 0
        for seed in seeds:
            if seed in done:
                continue
            if deadline is not None and time.monotonic() - started > deadline:
                result.timed_out = True
                break
            unit = run_unit(config, seed)
            merge(seed, unit)
            if checkpoint is not None:
                checkpoint.record(section, seed, encode(unit))
                checkpoint.save()
            count += 1
            if progress and (count % every == 0 or count == total):
                progress(count, total)
        return result

    finished = 0

    def landed(outcome: ShardOutcome) -> None:
        nonlocal finished
        if outcome.ok:
            if checkpoint is not None:
                for seed, raw in zip(outcome.shard.seeds, outcome.value["units"]):
                    checkpoint.record(section, seed, raw)
                checkpoint.save()
            finished += len(outcome.shard)
            if progress:
                progress(finished, total)

    outcomes, result.timed_out = run_shards(
        shard_worker, (run_unit, encode, config),
        plan_shards(base_seed, budget, skip=done),
        jobs=jobs, retries=retries, deadline=deadline, on_result=landed,
    )
    deltas = telemetry.Snapshot()
    for outcome in outcomes:
        shard_seeds = outcome.shard.seeds
        if outcome.attempts > 1:
            span = f"{shard_seeds[0]}..{shard_seeds[-1]}"
            result.shard_attempts[span] = outcome.attempts
            result.requeued += (outcome.attempts - 1) * len(shard_seeds)
        if outcome.ok:
            for seed, raw in zip(shard_seeds, outcome.value["units"]):
                merge(seed, decode(raw))
            deltas = deltas.merge(telemetry.Snapshot(outcome.value["telemetry"]))
        elif outcome.status == STATUS_FAILED:
            lost(outcome)
    if deltas:
        telemetry.absorb(deltas)
    return result
