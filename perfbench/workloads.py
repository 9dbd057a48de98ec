"""Workload table of the serve-level benchmark.

Plain data only: ``run.py`` reads it without importing ``repro``;
``rep.py`` turns an entry into a :class:`repro.serve.ServeConfig`.
README.md in this directory says why each workload exists and which
end-to-end metric each per-layer metric should move on it.
"""

from __future__ import annotations

#: Benchmark seeds map onto this many fleet seeds (``seed % SEED_SLOTS``).
#: Every slot has a recorded golden fleet digest in ``golden.json``, so
#: the digest check fires on every run whatever seed the caller picks.
#: The ``k``-th repetition of each kind (full repetition, set-up probe)
#: of a run with seed ``s`` uses fleet seed ``(s + k) % SEED_SLOTS``, so
#: every run spreads over the same fleets.
SEED_SLOTS = 8

#: Shard count of the pool repetitions of a traced run (``--trace 1``):
#: the same workload through the process pool, for ``serve.shard_*``
#: and ``serve.two_shard_speedup``.
POOL_SHARDS = 2

WORKLOADS = {
    # Plain `repro serve`: one shard, lockstep executor, MHM modality.
    # The simulator and the per-burst Memometer counting dominate.
    "serve-steady": {
        "config": {"devices": 8, "shards": 1, "intervals": 150},
        "cache": "warm",
    },
    # The async event bus with recalibration, context scoring and four
    # attacked devices: the bus, drift/recalibration, the alarm path
    # and many small fused-score calls.  Timed on one shard: at two
    # shards the forked children's inherited BLAS threads make the
    # throughput a scheduler lottery on two vCPUs (README.md, "The
    # two-shard defect"), so the traced run measures the pool instead.
    "serve-sharded-attack": {
        "config": {
            "devices": 8,
            "shards": 1,
            "intervals": 100,
            "modality": "ensemble",
            "attacked_devices": 4,
            "executor": "async",
            "recalibrate": True,
        },
        "cache": "warm",
    },
    # An empty artifact cache per run: registry load is detector
    # training (simulation of training boots, PCA + GMM + context fits,
    # cache writes).  Set-up dominates; this is the workload that
    # writes the cache the other two read.
    "train-cold": {
        "config": {
            "devices": 3,
            "shards": 1,
            "intervals": 50,
            "modality": "ensemble",
        },
        "cache": "cold",
    },
}


def fleet_seed(seed: int) -> int:
    """The fleet seed a benchmark seed selects."""
    return seed % SEED_SLOTS
