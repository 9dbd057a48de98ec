"""Process lifecycle: launching and killing applications at run time.

Scenario 1 of the paper launches ``qsort`` while the system is being
monitored and later exits it; Scenario 2's shellcode kills its host
process by spawning a shell.  Both manifest in the MHM through the
kernel paths they traverse — ``fork``/``execve`` (with their large
loader footprints), the page-fault storm of a cold process, and
``exit_group`` on the way out.  :class:`ProcessManager` drives exactly
those paths and keeps the scheduler's task set in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..engine import Simulator
from ..task import TaskDefinition
from .kernel import Kernel
from .scheduler import RMScheduler

__all__ = ["ProcessRecord", "ProcessManager"]


@dataclass
class ProcessRecord:
    """Bookkeeping for a launched process."""

    name: str
    pid: int
    launched_at_ns: int
    exited_at_ns: Optional[int] = None
    aslr_randomized: bool = True

    @property
    def alive(self) -> bool:
        return self.exited_at_ns is None


class ProcessManager:
    """Creates and destroys periodic application processes."""

    #: Page faults a freshly exec'd process takes while warming up.
    _COLD_START_FAULTS = 6

    def __init__(
        self,
        sim: Simulator,
        kernel: Kernel,
        scheduler: Union[RMScheduler, Sequence[RMScheduler]],
    ):
        self.sim = sim
        self.kernel = kernel
        if isinstance(scheduler, RMScheduler):
            self.schedulers: list[RMScheduler] = [scheduler]
        else:
            self.schedulers = list(scheduler)
            if not self.schedulers:
                raise ValueError("need at least one scheduler")
        self._next_pid = 100
        self.processes: dict[str, ProcessRecord] = {}

    @property
    def scheduler(self) -> RMScheduler:
        """The boot core's scheduler (single-core compatibility view)."""
        return self.schedulers[0]

    def _scheduler_for(self, core: int) -> RMScheduler:
        if not 0 <= core < len(self.schedulers):
            raise ValueError(
                f"task targets core {core}, platform has "
                f"{len(self.schedulers)} monitored core(s)"
            )
        return self.schedulers[core]

    def _scheduler_running(self, name: str):
        for candidate in self.schedulers:
            if name in candidate.task_names:
                return candidate
        return None

    def launch(
        self, definition: TaskDefinition, first_release_ns: Optional[int] = None
    ) -> ProcessRecord:
        """Launch a periodic application *now*.

        Emits the fork → execve → cold-start page-fault footprints, then
        admits the task to the scheduler.  The first job is released one
        period after launch unless ``first_release_ns`` is given, which
        models the exec'd process finishing initialisation first.
        """
        if definition.name in self.processes and self.processes[definition.name].alive:
            raise ValueError(f"process {definition.name!r} is already running")

        self.kernel.invoke_syscall("fork")
        self.kernel.invoke_syscall("execve")
        for _ in range(self._COLD_START_FAULTS):
            self.kernel.run_service("kernel.page_fault")

        record = ProcessRecord(
            name=definition.name,
            pid=self._next_pid,
            launched_at_ns=self.sim.now,
            aslr_randomized=self.kernel.aslr.enabled,
        )
        self._next_pid += 1
        self.processes[definition.name] = record

        if first_release_ns is None:
            first_release_ns = self.sim.now + definition.period_ns
        self._scheduler_for(definition.core).add_task(
            definition, first_release_ns=first_release_ns
        )
        return record

    def kill(self, name: str) -> ProcessRecord:
        """Terminate a running application (voluntary or forced exit).

        Emits the ``exit_group`` footprint and withdraws the task from
        the scheduler; any in-flight job is aborted.  Tasks admitted at
        platform boot (which never went through :meth:`launch`) get a
        synthetic process record on the way out.
        """
        record = self.processes.get(name)
        if record is not None and not record.alive:
            raise KeyError(f"process {name!r} is not running")
        scheduler = self._scheduler_running(name)
        if record is None:
            if scheduler is None:
                raise KeyError(f"process {name!r} is not running")
            record = ProcessRecord(name=name, pid=self._next_pid, launched_at_ns=0)
            self._next_pid += 1
            self.processes[name] = record
        if scheduler is not None:
            scheduler.remove_task(name)
        self.kernel.invoke_syscall("exit_group")
        record.exited_at_ns = self.sim.now
        return record

    def spawn_shell(self, name: str = "sh") -> ProcessRecord:
        """Spawn an interactive shell (the tail end of most shellcodes).

        The shell is an *aperiodic* process: it produces the fork/exec
        footprints but contributes no periodic jobs — it just sits on a
        blocking read, which is exactly why the post-attack MHMs settle
        into a new (and anomalous) steady state.
        """
        self.kernel.invoke_syscall("fork")
        self.kernel.invoke_syscall("execve")
        for _ in range(self._COLD_START_FAULTS // 2):
            self.kernel.run_service("kernel.page_fault")
        record = ProcessRecord(
            name=name,
            pid=self._next_pid,
            launched_at_ns=self.sim.now,
            aslr_randomized=self.kernel.aslr.enabled,
        )
        self._next_pid += 1
        self.processes[name] = record
        return record

    def alive_processes(self) -> list[str]:
        return sorted(n for n, r in self.processes.items() if r.alive)
