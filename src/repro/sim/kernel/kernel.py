"""The kernel facade: the monitored core's operating system.

:class:`Kernel` ties the pieces together — layout, service registry,
syscall table, ASLR state, module loader — and is the single point
through which the simulation emits memory-access bursts.  Everything
the Memometer ever observes flows through :meth:`Kernel._emit`.

A service invocation reaches the probes by one of two paths, chosen
when probes are attached or detached, never per burst.  When every
attached probe implements ``observe_footprint`` (the pre-L1 Memometer,
or several Memometers for multi-region monitoring) the kernel hands
over the compiled footprint and its sampled per-step iteration counts,
and the Memometer counts cells directly.  Otherwise (cache models,
trace recorders) it expands the invocation into an
:class:`~repro.sim.trace.AccessBurst` of fetch addresses.  Both paths
make the same random draw, so the simulation is the same either way.

Syscall dispatch honours hijacked table entries (Scenario 3): the
module-space wrapper's fetches are emitted (and filtered out by the
Memometer, since module space is outside the monitored region), the
original handler's fetches are emitted as normal, and the wrapper's
extra latency is added to the CPU time charged to the calling task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine import Simulator
from ..trace import AccessBurst, BurstFanout, TraceProbe
from .aslr import RANDOMIZE_VA_SPACE, AslrState
from .footprint import FootprintCompiler
from .layout import KernelLayout, default_layout
from .modules import ModuleLoader
from .syscalls import KernelService, ServiceRegistry, SyscallTable, build_default_services

__all__ = ["Kernel"]


class Kernel:
    """The simulated embedded OS kernel of the monitored core.

    Parameters
    ----------
    sim:
        The shared discrete-event simulator (provides the clock).
    rng:
        Source of all footprint/latency jitter.
    layout, registry, table:
        Optional pre-built pieces; defaults build the synthetic
        Linux-3.4-like kernel from :mod:`repro.sim.kernel.layout` and
        :mod:`repro.sim.kernel.syscalls`.  The default layout is the
        process-wide :func:`~repro.sim.kernel.layout.default_layout`.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        layout: Optional[KernelLayout] = None,
        registry: Optional[ServiceRegistry] = None,
        table: Optional[SyscallTable] = None,
        jitter_scale: float = 1.0,
    ):
        if jitter_scale < 0:
            raise ValueError("jitter_scale must be non-negative")
        self.sim = sim
        self.rng = rng
        #: Scales per-invocation footprint jitter; an RTOS-like kernel
        #: (deterministic code paths) uses a value < 1 (paper, Sec. 7).
        self.jitter_scale = jitter_scale
        self.layout = layout or default_layout()
        if registry is None or table is None:
            registry, table = build_default_services(self.layout)
        self.services = registry
        self.syscall_table = table
        self.compiler = FootprintCompiler(self.layout)
        self.aslr = AslrState()
        self.modules = ModuleLoader(self)
        self._fanout = BurstFanout()
        # ``observe_footprint`` of every attached probe while all of
        # them take the cell-space path; None while any needs addresses.
        self._footprint_sinks: Optional[tuple] = ()
        #: Invocation counts by service name (diagnostics and tests).
        self.invocation_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Probe wiring
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.sim.now

    def attach_probe(self, probe: TraceProbe) -> None:
        """Attach a hardware probe (Memometer snoop port, cache, ...)."""
        self._fanout.attach(probe)
        self._choose_path()

    def detach_probe(self, probe: TraceProbe) -> None:
        self._fanout.detach(probe)
        self._choose_path()

    def _choose_path(self) -> None:
        sinks = [getattr(p, "observe_footprint", None) for p in self._fanout.probes]
        self._footprint_sinks = (
            None if any(s is None for s in sinks) else tuple(sinks)
        )

    @property
    def uses_cell_path(self) -> bool:
        """Whether service invocations currently skip address expansion."""
        return self._footprint_sinks is not None

    def _emit(
        self, service: KernelService, kind: Optional[str] = None, core: int = 0
    ) -> None:
        name = kind or service.name
        if self._footprint_sinks is not None:
            footprint = service.footprint
            iters = footprint.sample_iterations(self.rng, self.jitter_scale)
            for observe in self._footprint_sinks:
                observe(footprint, iters)
        else:
            addresses, weights = service.sample_burst(
                self.rng, jitter_scale=self.jitter_scale
            )
            self._fanout.observe_burst(
                AccessBurst(
                    time_ns=self.now,
                    addresses=addresses,
                    weights=weights,
                    kind=name,
                    core=core,
                )
            )
        self.invocation_counts[name] = self.invocation_counts.get(name, 0) + 1

    def emit_user_burst(
        self, addresses: np.ndarray, weights: np.ndarray, core: int = 0
    ) -> None:
        """Emit user-space fetches (filtered out by the Memometer)."""
        self._fanout.observe_burst(
            AccessBurst(
                time_ns=self.now,
                addresses=addresses,
                weights=weights,
                kind="user",
                core=core,
            )
        )

    # ------------------------------------------------------------------
    # Service invocation
    # ------------------------------------------------------------------
    def invoke_syscall(self, name: str, core: int = 0) -> int:
        """Dispatch a system call through the (possibly patched) table.

        Returns the CPU time (ns) the call consumed on the monitored
        core, which the scheduler charges to the calling job.
        """
        service, hijack = self.syscall_table.resolve(name)
        latency = service.sample_latency(self.rng)
        if hijack is not None:
            # Wrapper first (module space, invisible to the MHM) ...
            self._emit(hijack.wrapper, kind=f"hijack.{name}", core=core)
            latency += hijack.extra_latency_ns
        # ... then the original handler, inside the monitored region.
        self._emit(service, kind=f"syscall.{name}", core=core)
        return latency

    def run_service(self, name: str, core: int = 0) -> int:
        """Run a housekeeping kernel path (tick, context switch, ...)."""
        service = self.services.get(name)
        self._emit(service, core=core)
        return service.sample_latency(self.rng)

    # ------------------------------------------------------------------
    # Higher-level kernel operations used by scenarios
    # ------------------------------------------------------------------
    def sysctl_write(self, path: str, value: int) -> int:
        """Write a /proc/sys file: open → write → close, with effects.

        Returns the total CPU time of the three calls.
        """
        latency = self.invoke_syscall("open_procsys")
        latency += self.invoke_syscall("write_procsys")
        latency += self.invoke_syscall("close")
        if path == RANDOMIZE_VA_SPACE:
            self.aslr.sysctl_write(int(value), time_ns=self.now)
        return latency

    def invocation_count(self, name: str) -> int:
        return self.invocation_counts.get(name, 0)
