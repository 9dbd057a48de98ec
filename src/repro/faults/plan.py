"""Fault plans: which injection sites misbehave, how, and when.

A :class:`FaultPlan` maps *named injection sites* (threaded through the
pipeline hot paths — see :data:`KNOWN_SITES`) to :class:`FaultSpec`
behaviours.  The central design constraint is the runner's determinism
contract: serial and parallel executions of the same grid must observe
the *same* faults, so a fault decision cannot depend on process-local
state like call counts or wall-clock time.

Instead, every site invocation carries a **token** — a stable string
describing *what* is being touched (a cache key, ``job-name@attempt``,
an interval index) — and the decision is a pure function::

    fires  ⇔  U(seed, site, token) < probability

where ``U`` is a uniform [0, 1) variate derived by hashing
``(seed, site, token)`` with SHA-256.  Two processes evaluating the
same site/token under the same plan always agree, whatever the
interleaving.  ``max_triggers`` adds a *per-process* cap on top (useful
interactively; it is deliberately excluded from the cross-process
determinism guarantee and documented as such in ``docs/faults.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = [
    "KNOWN_SITES",
    "FAULT_MODES",
    "FaultError",
    "FaultSpec",
    "FaultPlan",
    "uniform_hash",
]

#: Injection sites wired into the code base.  Plans naming an unknown
#: site fail fast at construction — a typo must not silently disable a
#: fault campaign.
KNOWN_SITES = frozenset(
    {
        "cache.read",  # ArtifactCache.get, before the entry file is read
        "cache.write",  # ArtifactCache.put, before the blob is published
        "runner.job",  # run_job entry (per attempt)
        "stages.fit",  # detector training compute (cache miss path)
        "stages.replay",  # scenario simulation compute (cache miss path)
        "serve.score",  # ShardWorker per-record scoring (fleet service)
        "bus.publish",  # EventBus.publish, before fan-out (retried once)
        "bus.deliver",  # per queued subscription enqueue (retried once)
        "subscriber.handle",  # subscriber callback (poisons on fire)
    }
)

#: What a fired fault does at its site.
#:
#: * ``raise``    — raise :class:`FaultError` (a crashed dependency);
#: * ``delay``    — sleep ``delay_seconds`` of wall-clock time (a stall;
#:   exercises per-job timeouts);
#: * ``corrupt``  — hand the caller a deterministically bit-flipped copy
#:   of the payload bytes (a torn/rotted artifact);
#: * ``truncate`` — hand the caller the first half of the payload (a
#:   partial write/read);
#: * ``crash``    — ``os._exit`` the process (a hard worker death;
#:   exercises crashed-worker replacement — only meaningful in worker
#:   processes, never inject it serially).
FAULT_MODES = ("raise", "delay", "corrupt", "truncate", "crash")


class FaultError(RuntimeError):
    """Raised by a fired ``raise``-mode fault.

    Carries the site so failure manifests can attribute the crash.
    """

    def __init__(self, site: str, message: str = "injected fault"):
        super().__init__(f"{message} [site={site}]")
        self.site = site


def uniform_hash(seed: int, site: str, token: str) -> float:
    """Pure uniform [0, 1) variate from ``(seed, site, token)``.

    The basis of every fault decision; also reused by the runner for
    seeded retry-backoff jitter.
    """
    digest = hashlib.sha256(f"{seed}:{site}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves when its fault fires.

    Parameters
    ----------
    mode:
        One of :data:`FAULT_MODES`.
    probability:
        Chance a given ``(site, token)`` invocation fires, evaluated as
        a pure hash of ``(plan seed, site, token)`` — identical across
        processes and repeat calls with the same token.
    match:
        Optional substring filter: the fault only fires for tokens
        containing it (e.g. ``"shellcode"`` to target one job, ``"@0"``
        to target only first attempts).
    max_triggers:
        Per-process cap on fires (``None`` = unlimited).  Counted in
        whichever process evaluates the site; not part of the
        cross-process determinism guarantee.
    delay_seconds:
        Sleep length for ``delay`` mode.
    message:
        Carried into :class:`FaultError` for ``raise`` mode.
    """

    mode: str
    probability: float = 1.0
    match: Optional[str] = None
    max_triggers: Optional[int] = None
    delay_seconds: float = 0.1
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValueError("max_triggers must be >= 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")


@dataclass
class FaultPlan:
    """A seeded assignment of :class:`FaultSpec` behaviours to sites.

    Picklable (travels to runner worker processes); the per-process
    ``fires`` bookkeeping does not follow the pickle — each worker
    counts its own triggers.
    """

    sites: Dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0
    #: Per-process fire counts by site (diagnostics + ``max_triggers``).
    fires: Dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        unknown = set(self.sites) - KNOWN_SITES
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)}; "
                f"known sites: {sorted(KNOWN_SITES)}"
            )

    def decide(self, site: str, token: str) -> Optional[FaultSpec]:
        """The spec to apply at this invocation, or ``None``.

        Pure in ``(seed, site, token)`` except for the optional
        per-process ``max_triggers`` cap.
        """
        spec = self.sites.get(site)
        if spec is None:
            return None
        if spec.match is not None and spec.match not in token:
            return None
        if spec.probability < 1.0 and (
            uniform_hash(self.seed, site, token) >= spec.probability
        ):
            return None
        fired = self.fires.get(site, 0)
        if spec.max_triggers is not None and fired >= spec.max_triggers:
            return None
        self.fires[site] = fired + 1
        return spec

    def would_fire(self, site: str, token: str) -> bool:
        """Pure preview of :meth:`decide` (no trigger accounting)."""
        spec = self.sites.get(site)
        if spec is None:
            return False
        if spec.match is not None and spec.match not in token:
            return False
        return (
            spec.probability >= 1.0
            or uniform_hash(self.seed, site, token) < spec.probability
        )

    # ------------------------------------------------------------------
    # (De)serialisation — the CLI ``--fault-plan`` file format.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        sites = {}
        for site, spec in sorted(self.sites.items()):
            entry = {"mode": spec.mode, "probability": spec.probability}
            if spec.match is not None:
                entry["match"] = spec.match
            if spec.max_triggers is not None:
                entry["max_triggers"] = spec.max_triggers
            if spec.mode == "delay":
                entry["delay_seconds"] = spec.delay_seconds
            sites[site] = entry
        return {"seed": self.seed, "sites": sites}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        sites = {
            site: FaultSpec(**entry)
            for site, entry in dict(payload.get("sites", {})).items()
        }
        return cls(sites=sites, seed=int(payload.get("seed", 0)))

    def __getstate__(self) -> dict:
        return {"sites": self.sites, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.sites = state["sites"]
        self.seed = state["seed"]
        self.fires = {}
