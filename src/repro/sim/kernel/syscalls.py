"""Kernel services and the system-call table.

A :class:`KernelService` bundles a memory footprint (where in the kernel
``.text`` its call graph executes) with a CPU latency (how long the
monitored core spends in it).  The :class:`SyscallTable` maps syscall
names to services and — crucially for the paper's Scenario 3 — supports
*hijacking*: a rootkit patches an entry so that a wrapper in module
space (outside the monitored region) runs first and then chains to the
original handler, exactly the "system call hijacking" pattern of
Phrack 52 [19] reproduced in Section 5.3.

:func:`build_default_services` constructs the service set of our
synthetic Linux 3.4 kernel: syscall service routines, timer tick,
context switch, page-fault and background-worker footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .footprint import CompiledFootprint, FootprintCompiler, FootprintStep
from .layout import KernelLayout

__all__ = [
    "KernelService",
    "ServiceRegistry",
    "SyscallTable",
    "HijackedEntry",
    "build_default_services",
    "DEFAULT_SYSCALLS",
]


@dataclass
class KernelService:
    """A kernel code path: footprint + CPU cost.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"syscall.read"`` or ``"kernel.tick"``.
    footprint:
        Compiled fetch footprint of the service's call graph.
    latency_ns:
        Mean CPU time the monitored core spends in the service.
    latency_jitter:
        Relative standard deviation of the latency.
    """

    name: str
    footprint: CompiledFootprint
    latency_ns: int
    latency_jitter: float = 0.05

    def __post_init__(self) -> None:
        # ``sample_latency`` scales a ``standard_normal`` value, which
        # (unlike ``rng.normal``) would accept a negative scale silently.
        if self.latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")

    def sample_latency(self, z: float) -> int:
        """One invocation's CPU time (never below 10% of the mean).

        ``z`` is the invocation's ``standard_normal`` value for its
        latency.  The result is bit-for-bit ``rng.normal(latency_ns,
        latency_ns * latency_jitter)`` taken at the same point of the
        stream, which numpy computes as ``loc + scale * z``.
        """
        latency = self.latency_ns
        jittered = latency + latency * self.latency_jitter * z
        return max(int(latency * 0.1), int(jittered))

    def sample_burst(
        self, z: np.ndarray, jitter_scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """One invocation's fetches from its footprint draw ``z``."""
        return self.footprint.sample(z, jitter_scale=jitter_scale)


class ServiceRegistry:
    """Name → :class:`KernelService` mapping."""

    def __init__(self) -> None:
        self._services: dict[str, KernelService] = {}

    def register(self, service: KernelService) -> KernelService:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        return service

    def replace(self, name: str, service: KernelService) -> KernelService:
        """Swap an existing service for another, returning the old one.

        The attack-scenario hook (firmware-level shadowing): a payload
        substitutes a registered code path and can later restore the
        returned original.  Unknown names raise — replacement never
        silently registers.
        """
        if name not in self._services:
            raise KeyError(f"unknown kernel service {name!r}")
        original = self._services[name]
        self._services[name] = service
        return original

    def get(self, name: str) -> KernelService:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"unknown kernel service {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def names(self) -> list[str]:
        return sorted(self._services)

    def __len__(self) -> int:
        return len(self._services)


@dataclass
class HijackedEntry:
    """A patched syscall-table slot (Scenario 3).

    The wrapper runs in module space — *invisible* to the MHM because it
    is outside the monitored region — then chains to the original
    handler, adding ``extra_latency_ns`` of CPU time per call.  It is the
    latency, not the wrapper's own fetches, that perturbs the MHMs
    (Section 5.3: "the delays due to read system call hijacking have
    resulted in timing changes to sha's execution").
    """

    original: KernelService
    wrapper: KernelService
    extra_latency_ns: int = 0


class SyscallTable:
    """The kernel's syscall dispatch table, with hijack support."""

    def __init__(self, registry: ServiceRegistry):
        self._registry = registry
        self._entries: dict[str, KernelService] = {}
        self._hijacked: dict[str, HijackedEntry] = {}

    def install(self, syscall: str, service_name: str) -> None:
        self._entries[syscall] = self._registry.get(service_name)

    def entry(self, syscall: str) -> KernelService:
        try:
            return self._entries[syscall]
        except KeyError:
            raise KeyError(f"unknown syscall {syscall!r}") from None

    def syscalls(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, syscall: str) -> bool:
        return syscall in self._entries

    # ------------------------------------------------------------------
    # Hijacking (rootkit support)
    # ------------------------------------------------------------------
    def hijack(
        self, syscall: str, wrapper: KernelService, extra_latency_ns: int = 0
    ) -> None:
        """Patch ``syscall``'s entry to run ``wrapper`` before the original."""
        if syscall in self._hijacked:
            raise ValueError(f"syscall {syscall!r} is already hijacked")
        original = self.entry(syscall)
        self._hijacked[syscall] = HijackedEntry(
            original=original, wrapper=wrapper, extra_latency_ns=extra_latency_ns
        )

    def restore(self, syscall: str) -> None:
        """Undo a hijack (module unload)."""
        self._hijacked.pop(syscall)

    def is_hijacked(self, syscall: str) -> bool:
        return syscall in self._hijacked

    def hijacked_entry(self, syscall: str) -> Optional[HijackedEntry]:
        return self._hijacked.get(syscall)

    def resolve(
        self, syscall: str
    ) -> tuple[KernelService, Optional[HijackedEntry]]:
        """The service to run and, if patched, the hijack record."""
        return self.entry(syscall), self._hijacked.get(syscall)


# ----------------------------------------------------------------------
# Default service set
# ----------------------------------------------------------------------

def _steps(*items: tuple) -> list[FootprintStep]:
    """Shorthand: each item is (function[, iterations[, coverage]])."""
    steps = []
    for item in items:
        name = item[0]
        iterations = item[1] if len(item) > 1 else 1.0
        coverage = item[2] if len(item) > 2 else 1.0
        steps.append(FootprintStep(function=name, iterations=iterations, coverage=coverage))
    return steps


#: Footprint plans of the syscall service routines.  Iteration counts
#: are the per-call means; the shared prologue/epilogue (``vector_swi``
#: .. ``ret_fast_syscall``) is prepended/appended to each automatically.
_SYSCALL_PLANS: dict[str, tuple[list, int]] = {
    # name: (inner steps, mean latency ns)
    "read": (
        _steps(
            ("sys_read",),
            ("fget_light",),
            ("vfs_read",),
            ("do_sync_read",),
            ("generic_file_aio_read", 2.0, 0.8),
            ("memcpy", 4.0, 0.9),
            ("copy_to_user", 2.0),
            ("fput",),
        ),
        6_000,
    ),
    "write": (
        _steps(
            ("sys_write",),
            ("fget_light",),
            ("vfs_write",),
            ("do_sync_write",),
            ("generic_file_aio_write", 2.0, 0.8),
            ("copy_from_user", 2.0),
            ("memcpy", 3.0, 0.9),
            ("fput",),
        ),
        6_000,
    ),
    "open": (
        _steps(
            ("sys_open",),
            ("do_sys_open",),
            ("strncpy_from_user",),
            ("do_filp_open",),
            ("path_openat", 1.0, 0.7),
            ("link_path_walk", 3.0, 0.8),
            ("kmem_cache_alloc", 2.0),
            ("dput",),
        ),
        15_000,
    ),
    "close": (
        _steps(("sys_close",), ("filp_close",), ("fput",), ("dput",)),
        4_000,
    ),
    "brk": (
        _steps(("sys_brk",), ("do_brk", 1.0, 0.8), ("__alloc_pages_nodemask", 1.0, 0.5)),
        8_000,
    ),
    "mmap": (
        _steps(
            ("sys_mmap_pgoff",),
            ("do_mmap_pgoff", 1.0, 0.8),
            ("kmem_cache_alloc",),
            ("__alloc_pages_nodemask", 2.0, 0.6),
        ),
        12_000,
    ),
    "munmap": (
        _steps(("sys_munmap",), ("do_munmap", 1.0, 0.8), ("kfree",), ("__free_pages",)),
        9_000,
    ),
    "nanosleep": (
        _steps(("sys_nanosleep",), ("ktime_get",), ("schedule", 1.0, 0.6)),
        5_000,
    ),
    "gettimeofday": (
        _steps(("sys_gettimeofday",), ("do_gettimeofday",), ("ktime_get",)),
        1_500,
    ),
    "clock_gettime": (
        _steps(("sys_clock_gettime",), ("ktime_get",)),
        1_200,
    ),
    "getpid": (_steps(("sys_getpid",)), 800),
    "ioctl": (_steps(("sys_ioctl",), ("fget_light",), ("fput",)), 4_000),
    "fstat64": (_steps(("sys_fstat64",), ("fget_light",), ("copy_to_user",), ("fput",)), 3_500),
    "futex": (_steps(("sys_futex", 1.0, 0.6), ("try_to_wake_up", 1.0, 0.5)), 4_500),
    "rt_sigaction": (_steps(("sys_rt_sigaction",), ("copy_from_user",)), 2_500),
    "kill": (_steps(("sys_kill",), ("send_signal",), ("try_to_wake_up", 1.0, 0.6)), 5_000),
    "pipe2": (_steps(("sys_pipe2",), ("kmem_cache_alloc", 2.0), ("fget_light",)), 7_000),
    "wait4": (_steps(("sys_wait4",), ("do_wait", 1.0, 0.7), ("schedule", 1.0, 0.5)), 6_000),
    "fork": (
        _steps(
            ("sys_fork",),
            ("do_fork",),
            ("copy_process", 1.0, 0.9),
            ("kmem_cache_alloc", 6.0),
            ("copy_page_range", 2.0, 0.8),
            ("wake_up_new_task",),
            ("enqueue_task_rt",),
        ),
        150_000,
    ),
    "execve": (
        _steps(
            ("sys_execve",),
            ("do_execve",),
            ("do_filp_open",),
            ("path_openat", 1.0, 0.6),
            ("load_elf_binary", 1.0, 0.9),
            ("flush_old_exec",),
            ("setup_arg_pages",),
            ("arch_pick_mmap_layout",),
            ("randomize_stack_top",),
            ("do_mmap_pgoff", 4.0, 0.7),
            ("memcpy", 6.0),
        ),
        400_000,
    ),
    "exit_group": (
        _steps(
            ("sys_exit_group",),
            ("do_exit", 1.0, 0.9),
            ("exit_mm",),
            ("do_munmap", 3.0, 0.6),
            ("release_task",),
            ("kfree", 4.0),
            ("__schedule", 1.0, 0.7),
        ),
        80_000,
    ),
    "personality": (_steps(("sys_personality",)), 1_000),
    # Module loading is heavy: the loader copies the image, walks every
    # section, resolves each undefined symbol against the kernel symbol
    # table and applies thousands of relocations.  The iteration counts
    # below size the burst at ~6-8x a normal interval's traffic, the
    # Figure 9 "Rootkit Launched" spike.
    "init_module": (
        _steps(
            ("sys_init_module",),
            ("copy_from_user", 60.0),
            ("vmalloc", 8.0),
            ("module_alloc",),
            ("load_module", 40.0, 0.95),
            ("find_module_sections", 10.0),
            ("simplify_symbols", 120.0),
            ("strcmp", 400.0),
            ("memcmp", 200.0),
            ("apply_relocate", 250.0),
            ("memcpy", 400.0),
            ("module_finalize", 4.0),
            ("printk", 4.0),
            ("vsnprintf", 4.0, 0.5),
        ),
        2_000_000,
    ),
    "delete_module": (
        _steps(
            ("sys_delete_module",),
            ("free_module", 1.0, 0.9),
            ("vfree", 2.0),
            ("kfree", 3.0),
            ("printk",),
        ),
        300_000,
    ),
    # writing /proc/sys/... goes through the procfs handlers instead of
    # the regular file fast path (the shellcode scenario uses this).
    "write_procsys": (
        _steps(
            ("sys_write",),
            ("fget_light",),
            ("vfs_write",),
            ("proc_sys_write",),
            ("strncpy_from_user",),
            ("copy_from_user",),
            ("memcpy",),
            ("fput",),
        ),
        9_000,
    ),
    "open_procsys": (
        _steps(
            ("sys_open",),
            ("do_sys_open",),
            ("strncpy_from_user",),
            ("do_filp_open",),
            ("path_openat", 1.0, 0.7),
            ("link_path_walk", 4.0, 0.8),
            ("proc_sys_open",),
            ("kmem_cache_alloc",),
        ),
        16_000,
    ),
}

#: Syscall names installed in the default table.
DEFAULT_SYSCALLS = tuple(sorted(_SYSCALL_PLANS))

#: Housekeeping (non-syscall) kernel paths.
_KERNEL_PLANS: dict[str, tuple[list, int]] = {
    "kernel.tick": (
        _steps(
            ("__irq_svc",),
            ("handle_IRQ",),
            ("irq_enter",),
            ("generic_handle_irq",),
            ("tick_periodic",),
            ("do_timer",),
            ("update_wall_time", 1.0, 0.8),
            ("scheduler_tick",),
            ("update_curr_rt",),
            ("hrtimer_interrupt", 1.0, 0.6),
            ("irq_exit",),
            ("__do_softirq", 1.0, 0.6),
            ("run_timer_softirq", 1.0, 0.6),
        ),
        5_000,
    ),
    "kernel.context_switch": (
        _steps(
            ("__schedule",),
            ("pick_next_task_rt",),
            ("dequeue_task_rt",),
            ("update_curr_rt",),
            ("__switch_to",),
            ("finish_task_switch",),
        ),
        3_000,
    ),
    "kernel.job_release": (
        _steps(
            ("run_timer_softirq", 1.0, 0.5),
            ("try_to_wake_up",),
            ("wake_up_process",),
            ("enqueue_task_rt",),
        ),
        2_000,
    ),
    "kernel.page_fault": (
        _steps(
            ("__dabt_svc",),
            ("do_page_fault",),
            ("handle_mm_fault", 1.0, 0.8),
            ("__alloc_pages_nodemask", 1.0, 0.6),
            ("memset", 1.0, 0.5),
        ),
        10_000,
    ),
    "kernel.idle": (
        _steps(("cpu_idle",), ("default_idle",)),
        500,
    ),
}


def build_default_services(
    layout: KernelLayout, compiler: Optional[FootprintCompiler] = None
) -> tuple[ServiceRegistry, SyscallTable]:
    """Build the synthetic kernel's service registry and syscall table.

    The syscall prologue/epilogue (SWI vector, entry stub, return path)
    is shared by every syscall service, exactly as in a real kernel —
    which is why those cells are the hottest in Figure 1-style maps.
    """
    compiler = compiler or FootprintCompiler(layout)
    registry = ServiceRegistry()

    prologue = _steps(("vector_swi",), ("entry_syscall",))
    epilogue = _steps(("ret_fast_syscall",), ("ret_to_user",))

    for name, (inner, latency_ns) in _SYSCALL_PLANS.items():
        footprint = compiler.compile(prologue + inner + epilogue)
        registry.register(
            KernelService(
                name=f"syscall.{name}", footprint=footprint, latency_ns=latency_ns
            )
        )

    # Background worker: a fixed set of driver/net functions, chosen
    # deterministically so the platform is identical across runs.
    worker_rng = np.random.default_rng(0x4B57524B)  # "KWRK"
    worker_steps = _steps(("__do_softirq",), ("run_timer_softirq", 1.0, 0.6))
    for fn in layout.sample_functions("drivers", 6, worker_rng):
        worker_steps.append(FootprintStep(function=fn.name, iterations=1.0, coverage=0.7))
    for fn in layout.sample_functions("net", 3, worker_rng):
        worker_steps.append(FootprintStep(function=fn.name, iterations=1.0, coverage=0.6))
    _KERNEL_PLANS_ALL = dict(_KERNEL_PLANS)
    _KERNEL_PLANS_ALL["kernel.kworker"] = (worker_steps, 8_000)

    # Network receive path: IRQ entry + a deterministic slice of the
    # net subsystem (driver ISR, softirq, protocol handlers).  Used by
    # the interrupt-driven device model (repro.sim.devices) — the
    # "network activities" source of legitimate unpredictability the
    # paper's Limitation section worries about.
    net_rng = np.random.default_rng(0x4E455452)  # "NETR"
    net_steps = _steps(
        ("__irq_svc",),
        ("handle_IRQ",),
        ("irq_enter",),
        ("generic_handle_irq",),
        ("__do_softirq", 1.0, 0.8),
    )
    for fn in layout.sample_functions("net", 8, net_rng):
        net_steps.append(
            FootprintStep(function=fn.name, iterations=1.0, coverage=0.7, jitter=0.2)
        )
    for fn in layout.sample_functions("drivers", 2, net_rng):
        net_steps.append(FootprintStep(function=fn.name, iterations=1.0, coverage=0.6))
    net_steps.append(FootprintStep(function="irq_exit", iterations=1.0))
    net_steps.append(FootprintStep(function="memcpy", iterations=2.0, jitter=0.3))
    _KERNEL_PLANS_ALL["kernel.net_rx"] = (net_steps, 9_000)

    for name, (steps, latency_ns) in _KERNEL_PLANS_ALL.items():
        registry.register(
            KernelService(
                name=name, footprint=compiler.compile(steps), latency_ns=latency_ns
            )
        )

    table = SyscallTable(registry)
    for name in _SYSCALL_PLANS:
        table.install(name, f"syscall.{name}")
    return registry, table
