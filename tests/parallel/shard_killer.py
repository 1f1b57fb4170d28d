"""The one fault-injection seam shared by the worker-loss tests.

Every campaign ships its shards through one module-level worker,
:func:`repro.parallel.campaign.shard_worker`.  :func:`kill_shard` swaps
it for a killer that SIGKILLs its own process on the shard starting at
a poison seed — on the first attempt only, or on every attempt.  The
pool pickles the worker by reference, so the killer is a module-level
function bound with :func:`functools.partial` (no closures, no flag
files), and crashing on ``attempt == 1`` only is deterministic.
"""

import os
import signal
from functools import partial

from repro.parallel import campaign as engine

_REAL_WORKER = engine.shard_worker


def _killer(poison_seed, every_attempt, job, seeds, attempt):
    if seeds[0] == poison_seed and (every_attempt or attempt == 1):
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_WORKER(job, seeds, attempt)


def kill_shard(monkeypatch, poison_seed, *, every_attempt):
    """Kill the worker of the shard that starts at ``poison_seed``."""
    monkeypatch.setattr(
        engine, "shard_worker", partial(_killer, poison_seed, every_attempt)
    )
