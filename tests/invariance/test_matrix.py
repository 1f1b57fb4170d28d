"""Gate: every matrix row reproduces the reference bytes on every corpus.

The reference for an artifact is the first row in ``ROWS`` order that
produced it: the default row for reports and interpreter snapshots, the
single ``trace`` flip for trace and Perfetto bytes.  Every row must
also show its knobs acting (or not) as their values say, so no row
passes because a knob never took effect.
"""

import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from .matrix import KNOBS, ROOT, ROWS, corpora, row_env, values

pytestmark = pytest.mark.slow

#: knob -> (corpus, evidence field that is > 0 exactly when the row's
#: values say the knob's mechanism ran).  Counters read zero with
#: telemetry off, so only the telemetry knob is checked on those rows.
ACTED = {
    "telemetry": ("interp", "machine_instructions_total", lambda v: v["telemetry"]),
    "jit": ("interp", "jit_block_entries_total",
            lambda v: v["jit"] == "1" and v["fast"]),
    "fast": ("interp", "decode_binds_total", lambda v: v["fast"]),
    "cow": ("interp", "fork_pages_shared", lambda v: v["cow"] == "1"),
    "snapcache": ("interp", "snapshot_cache_disk_hits_total",
                  lambda v: v["snapcache"] == "warm"),
    "trace": ("fleet", "spans", lambda v: v["trace"]),
    "jobs": ("fleet", "worker_cpu", lambda v: v["jobs"] > 1),
    "resume": ("fleet", "requests_from_checkpoint", lambda v: v["resume"]),
}


def _run(row, out, snapshot_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(row_env(row, str(snapshot_dir)))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, str(Path(__file__).with_name("matrix.py")),
                    row, str(out)], env=env, check=True, timeout=600)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Run every row, two at a time; warm rows wait for the prefill."""
    tmp = tmp_path_factory.mktemp("matrix")
    snapshot_dir = tmp / "snapshots"
    warm = [r for r in ROWS if values(r)["snapcache"] == "warm"]
    with ThreadPoolExecutor(2) as pool:
        prefill = pool.submit(_run, warm[0], tmp / "prefill.json", snapshot_dir)
        futures = {r: pool.submit(_run, r, tmp / f"{r}.json", tmp / "unused")
                   for r in ROWS if r not in warm}
        prefill.result()
        futures.update({r: pool.submit(_run, r, tmp / f"{r}.json", snapshot_dir)
                        for r in warm})
        return {r: futures[r].result() for r in ROWS}


def test_rows_are_default_flips_and_a_pairwise_array():
    assert ROWS[0] == "0" * len(KNOBS) and len(set(ROWS)) == len(ROWS) <= 25
    for i, j in itertools.combinations(range(len(KNOBS)), 2):
        assert {(r[i], r[j]) for r in ROWS[len(KNOBS) + 1:] + ROWS[:1]} == {
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}, (i, j)


def test_every_row_reproduces_the_reference(results):
    reference, failures = {}, []
    for row in ROWS:
        assert set(results[row]) == set(corpora(row)), row
        for corpus, out in results[row].items():
            for name, digest in out["bytes"].items():
                first = reference.setdefault((corpus, name), (row, digest))
                if digest != first[1]:
                    failures.append(f"row {row}: {corpus}/{name} differs from row {first[0]}")
    assert not failures, "\n".join(failures)


def test_every_knob_acted(results):
    seen = set()
    for row in ROWS:
        v = values(row)
        for knob, (corpus, field, expected) in ACTED.items():
            if corpus in results[row] and (v["telemetry"] or knob == "telemetry"):
                acted = results[row][corpus]["evidence"].get(field, 0) > 0
                assert acted == expected(v), (row, knob, field)
                seen.add((knob, v[knob]))
    assert seen == {(k, KNOBS[k][i]) for k in ACTED for i in (1, 2)}
