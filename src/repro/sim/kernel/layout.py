"""Synthetic kernel image layout.

The paper monitors the embedded Linux 3.4 kernel's ``.text`` segment,
mapped between ``0xC0008000`` and ``0xC02E7AA4`` (3,013,284 bytes; see
Figure 1 and Section 5.1).  We reproduce that address geometry exactly
with a *synthetic* kernel image: a symbol table of a few thousand
functions, grouped into subsystems, laid out contiguously across the
segment.

Only the geometry matters to the detector: MHM cells aggregate fetches
at 2 KB granularity, so what the learning pipeline sees is which
*function ranges* each kernel service touches and how often — not the
instructions inside them.  The layout therefore contains:

* a fixed set of **anchor functions** — the well-known kernel entry
  points that the service footprints (:mod:`repro.sim.kernel.syscalls`)
  reference by name (``schedule``, ``vfs_read``, ``load_module``, ...);
* deterministic **filler functions** per subsystem, sized from a
  log-normal distribution seeded by a fixed layout seed, so the image
  fills the segment exactly and every run of the library sees the same
  kernel.

Loadable kernel modules live *outside* the monitored segment, in the
ARM module area at ``0xBF000000`` (see :mod:`repro.sim.kernel.modules`);
this is what makes the paper's rootkit scenario interesting — the
hijacking handler itself is invisible to the MHM.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ...core.spec import HeatMapSpec

__all__ = [
    "KERNEL_TEXT_BASE",
    "KERNEL_TEXT_END",
    "KERNEL_TEXT_SIZE",
    "MODULE_SPACE_BASE",
    "MODULE_SPACE_SIZE",
    "USER_SPACE_BASE",
    "KernelFunction",
    "KernelLayout",
    "default_layout",
    "default_heatmap_spec",
]

#: Paper, Figure 1: the monitored region of the Linux 3.4 kernel.
KERNEL_TEXT_BASE = 0xC0008000
KERNEL_TEXT_END = 0xC02E7AA4
KERNEL_TEXT_SIZE = KERNEL_TEXT_END - KERNEL_TEXT_BASE  # = 3,013,284 bytes

#: ARM Linux module area — *outside* the monitored region by design.
MODULE_SPACE_BASE = 0xBF000000
MODULE_SPACE_SIZE = 0x01000000

#: Base of simulated user-space text (filtered out by the Memometer).
USER_SPACE_BASE = 0x00008000

#: Fixed seed: the kernel image is part of the platform definition, not
#: an experimental variable, so every run sees the same layout.
_LAYOUT_SEED = 0x4C494E55  # "LINU"

# ----------------------------------------------------------------------
# Anchor functions.  (name, size, subsystem) — entry points referenced by
# the service footprints.  Sizes are representative of a 3.x ARM kernel.
# ----------------------------------------------------------------------
_ANCHORS: list[tuple[str, int, str]] = [
    # low-level entry / exception paths
    ("vector_swi", 0x100, "entry"),
    ("entry_syscall", 0x200, "entry"),
    ("ret_fast_syscall", 0x100, "entry"),
    ("ret_to_user", 0x140, "entry"),
    ("__irq_svc", 0x180, "entry"),
    ("__dabt_svc", 0x160, "entry"),
    ("copy_from_user", 0x1C0, "entry"),
    ("copy_to_user", 0x1C0, "entry"),
    # scheduler
    ("schedule", 0x700, "sched"),
    ("__schedule", 0x900, "sched"),
    ("__switch_to", 0x120, "sched"),
    ("pick_next_task_rt", 0x260, "sched"),
    ("enqueue_task_rt", 0x2C0, "sched"),
    ("dequeue_task_rt", 0x220, "sched"),
    ("update_curr_rt", 0x280, "sched"),
    ("scheduler_tick", 0x340, "sched"),
    ("wake_up_process", 0x1E0, "sched"),
    ("try_to_wake_up", 0x460, "sched"),
    ("finish_task_switch", 0x1A0, "sched"),
    # timers / time-keeping
    ("do_timer", 0x160, "time"),
    ("tick_periodic", 0x180, "time"),
    ("update_wall_time", 0x420, "time"),
    ("hrtimer_interrupt", 0x380, "time"),
    ("run_timer_softirq", 0x440, "time"),
    ("ktime_get", 0x120, "time"),
    ("do_gettimeofday", 0x100, "time"),
    # interrupts
    ("handle_IRQ", 0x180, "irq"),
    ("irq_enter", 0xC0, "irq"),
    ("irq_exit", 0x100, "irq"),
    ("__do_softirq", 0x300, "irq"),
    ("generic_handle_irq", 0xE0, "irq"),
    # system-call service routines
    ("sys_read", 0x180, "syscall"),
    ("sys_write", 0x180, "syscall"),
    ("sys_open", 0x140, "syscall"),
    ("sys_close", 0x120, "syscall"),
    ("sys_brk", 0x2A0, "syscall"),
    ("sys_mmap_pgoff", 0x1C0, "syscall"),
    ("sys_munmap", 0x120, "syscall"),
    ("sys_nanosleep", 0x1E0, "syscall"),
    ("sys_gettimeofday", 0xC0, "syscall"),
    ("sys_getpid", 0x40, "syscall"),
    ("sys_ioctl", 0x160, "syscall"),
    ("sys_fstat64", 0x120, "syscall"),
    ("sys_clock_gettime", 0xE0, "syscall"),
    ("sys_fork", 0x80, "syscall"),
    ("sys_clone", 0xA0, "syscall"),
    ("sys_execve", 0xC0, "syscall"),
    ("sys_exit_group", 0x80, "syscall"),
    ("sys_wait4", 0x160, "syscall"),
    ("sys_kill", 0x140, "syscall"),
    ("sys_init_module", 0x240, "syscall"),
    ("sys_delete_module", 0x200, "syscall"),
    ("sys_personality", 0x80, "syscall"),
    ("sys_rt_sigaction", 0x140, "syscall"),
    ("sys_futex", 0x3A0, "syscall"),
    # VFS
    ("vfs_read", 0x200, "vfs"),
    ("vfs_write", 0x200, "vfs"),
    ("do_sys_open", 0x220, "vfs"),
    ("do_filp_open", 0x2E0, "vfs"),
    ("path_openat", 0x7E0, "vfs"),
    ("link_path_walk", 0x6A0, "vfs"),
    ("generic_file_aio_read", 0x5C0, "vfs"),
    ("generic_file_aio_write", 0x340, "vfs"),
    ("do_sync_read", 0x140, "vfs"),
    ("do_sync_write", 0x140, "vfs"),
    ("fput", 0xA0, "vfs"),
    ("fget_light", 0xC0, "vfs"),
    ("filp_close", 0xE0, "vfs"),
    ("dput", 0x1C0, "vfs"),
    ("proc_sys_write", 0x1A0, "vfs"),
    ("proc_sys_open", 0x120, "vfs"),
    # memory management
    ("do_page_fault", 0x460, "mm"),
    ("handle_mm_fault", 0x8A0, "mm"),
    ("__kmalloc", 0x260, "mm"),
    ("kfree", 0x1E0, "mm"),
    ("kmem_cache_alloc", 0x1C0, "mm"),
    ("kmem_cache_free", 0x180, "mm"),
    ("__alloc_pages_nodemask", 0x780, "mm"),
    ("__free_pages", 0x120, "mm"),
    ("do_mmap_pgoff", 0x560, "mm"),
    ("do_munmap", 0x3A0, "mm"),
    ("do_brk", 0x300, "mm"),
    ("copy_page_range", 0x4E0, "mm"),
    ("vmalloc", 0x160, "mm"),
    ("vfree", 0x140, "mm"),
    ("get_user_pages", 0x3C0, "mm"),
    # process lifecycle
    ("do_fork", 0x440, "proc"),
    ("copy_process", 0xC80, "proc"),
    ("wake_up_new_task", 0x1A0, "proc"),
    ("do_execve", 0x560, "proc"),
    ("load_elf_binary", 0xE40, "proc"),
    ("flush_old_exec", 0x2A0, "proc"),
    ("setup_arg_pages", 0x2C0, "proc"),
    ("arch_pick_mmap_layout", 0xC0, "proc"),
    ("randomize_stack_top", 0x80, "proc"),
    ("do_exit", 0x6E0, "proc"),
    ("exit_mm", 0x1E0, "proc"),
    ("release_task", 0x360, "proc"),
    ("do_wait", 0x420, "proc"),
    ("send_signal", 0x260, "proc"),
    ("get_signal_to_deliver", 0x4A0, "proc"),
    # module loader
    ("load_module", 0x1400, "module"),
    ("module_alloc", 0xC0, "module"),
    ("simplify_symbols", 0x2A0, "module"),
    ("apply_relocate", 0x3C0, "module"),
    ("find_module_sections", 0x260, "module"),
    ("module_finalize", 0x180, "module"),
    ("free_module", 0x2A0, "module"),
    ("sys_call_table", 0x600, "module"),  # data-ish anchor used by hijack writes
    # IPC / misc services
    ("pipe_read", 0x300, "ipc"),
    ("pipe_write", 0x340, "ipc"),
    ("sys_pipe2", 0x100, "ipc"),
    ("do_signal", 0x320, "ipc"),
    # library routines (memcpy and friends are heavily shared)
    ("memcpy", 0x200, "lib"),
    ("memset", 0x180, "lib"),
    ("memcmp", 0xC0, "lib"),
    ("strncpy_from_user", 0x100, "lib"),
    ("strlen", 0x60, "lib"),
    ("strcmp", 0x60, "lib"),
    ("sha_transform", 0x9E0, "lib"),
    ("crc32", 0x2A0, "lib"),
    ("vsnprintf", 0x6E0, "lib"),
    ("printk", 0x240, "lib"),
    # idle loop
    ("cpu_idle", 0x120, "idle"),
    ("default_idle", 0x80, "idle"),
]

#: Subsystem order along the segment and the share of the remaining
#: (filler) bytes each receives.  Mirrors the rough ordering of a real
#: kernel image: entry/arch code low, drivers and lib high.
_SUBSYSTEM_FILL: list[tuple[str, float]] = [
    ("entry", 0.02),
    ("sched", 0.05),
    ("time", 0.03),
    ("irq", 0.03),
    ("syscall", 0.04),
    ("proc", 0.06),
    ("mm", 0.12),
    ("vfs", 0.12),
    ("ipc", 0.04),
    ("net", 0.14),
    ("drivers", 0.20),
    ("module", 0.03),
    ("lib", 0.10),
    ("idle", 0.02),
]


@dataclass(frozen=True)
class KernelFunction:
    """One entry of the synthetic symbol table."""

    name: str
    address: int
    size: int
    subsystem: str

    @property
    def end_address(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end_address

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} @ {self.address:#x} (+{self.size:#x}) [{self.subsystem}]"


class KernelLayout:
    """The synthetic kernel image: symbol table + address geometry.

    The layout is deterministic: anchors and filler functions are placed
    subsystem by subsystem, and filler sizes are drawn from a fixed-seed
    log-normal, then the final function is stretched so the image fills
    the ``.text`` segment *exactly* (total size 3,013,284 bytes, as in
    Figure 1).  A built layout is never modified, so one instance can
    be shared by every kernel of a process (:func:`default_layout`).
    """

    def __init__(
        self,
        base_address: int = KERNEL_TEXT_BASE,
        text_size: int = KERNEL_TEXT_SIZE,
    ):
        if text_size <= 0:
            raise ValueError("text_size must be positive")
        self.base_address = base_address
        self.text_size = text_size
        self._functions: tuple[KernelFunction, ...] = ()
        self._by_name: dict[str, KernelFunction] = {}
        self._by_subsystem: dict[str, list[KernelFunction]] = {}
        self._starts: list[int] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        rng = np.random.default_rng(_LAYOUT_SEED)
        anchors_by_subsystem: dict[str, list[tuple[str, int]]] = {}
        for name, size, subsystem in _ANCHORS:
            anchors_by_subsystem.setdefault(subsystem, []).append((name, size))

        anchor_total = sum(size for _, size, _ in _ANCHORS)
        filler_budget = self.text_size - anchor_total
        if filler_budget < 0:
            raise ValueError("text segment too small for the anchor functions")

        cursor = self.base_address
        plan: list[tuple[str, int, str]] = []
        for sub_index, (subsystem, share) in enumerate(_SUBSYSTEM_FILL):
            for name, size in anchors_by_subsystem.get(subsystem, []):
                plan.append((name, size, subsystem))
            sub_budget = int(filler_budget * share) & ~3  # keep 4-byte alignment
            used = 0
            filler_index = 0
            while used < sub_budget:
                # log-normal sizes: median ~0x180 bytes, occasionally large
                size = int(rng.lognormal(mean=6.0, sigma=0.8))
                size = max(0x40, min(size, 0x2000))
                size = (size + 3) & ~3  # 4-byte aligned, like ARM code
                if used + size > sub_budget:
                    size = sub_budget - used
                    if size < 0x40:
                        # fold the remainder into the previous function
                        if plan and plan[-1][2] == subsystem:
                            last_name, last_size, _ = plan[-1]
                            plan[-1] = (last_name, last_size + size, subsystem)
                        else:
                            plan.append(
                                (f"{subsystem}_fn_{filler_index:04d}", size, subsystem)
                            )
                        break
                plan.append((f"{subsystem}_fn_{filler_index:04d}", size, subsystem))
                filler_index += 1
                used += size

        # Stretch (or trim) the final function so the image is exact.
        placed = sum(size for _, size, _ in plan)
        delta = self.text_size - placed
        last_name, last_size, last_sub = plan[-1]
        if last_size + delta <= 0:
            raise RuntimeError("layout fill failed to converge")
        plan[-1] = (last_name, last_size + delta, last_sub)

        functions = []
        for name, size, subsystem in plan:
            fn = KernelFunction(name=name, address=cursor, size=size, subsystem=subsystem)
            functions.append(fn)
            if name in self._by_name:
                raise RuntimeError(f"duplicate kernel symbol {name!r}")
            self._by_name[name] = fn
            self._by_subsystem.setdefault(subsystem, []).append(fn)
            self._starts.append(cursor)
            cursor += size
        self._functions = tuple(functions)

        if cursor != self.end_address:
            raise RuntimeError(
                f"layout does not fill the segment: ends at {cursor:#x}, "
                f"expected {self.end_address:#x}"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def functions(self) -> tuple[KernelFunction, ...]:
        """Every function of the image, in address order (read-only)."""
        return self._functions

    @property
    def end_address(self) -> int:
        return self.base_address + self.text_size

    def symbol(self, name: str) -> KernelFunction:
        """Look up a function by name (KeyError when unknown)."""
        return self._by_name[name]

    def has_symbol(self, name: str) -> bool:
        return name in self._by_name

    def find(self, address: int) -> Optional[KernelFunction]:
        """The function containing ``address`` (None if out of image)."""
        if not self.base_address <= address < self.end_address:
            return None
        i = bisect.bisect_right(self._starts, address) - 1
        fn = self._functions[i]
        return fn if fn.contains(address) else None

    def functions_in(self, subsystem: str) -> list[KernelFunction]:
        """All functions of a subsystem, in address order."""
        return list(self._by_subsystem.get(subsystem, []))

    def functions_overlapping(self, start: int, end: int) -> list[KernelFunction]:
        """Functions whose body intersects ``[start, end)``.

        Used by the attribution tooling to translate a heat-map cell
        back into kernel symbols.
        """
        if end <= start:
            return []
        first = bisect.bisect_right(self._starts, start) - 1
        first = max(first, 0)
        result = []
        for fn in self._functions[first:]:
            if fn.address >= end:
                break
            if fn.end_address > start:
                result.append(fn)
        return result

    @property
    def subsystems(self) -> list[str]:
        return [name for name, _ in _SUBSYSTEM_FILL]

    def subsystem_of(self, address: int) -> Optional[str]:
        fn = self.find(address)
        return fn.subsystem if fn is not None else None

    def sample_functions(
        self, subsystem: str, count: int, rng: np.random.Generator
    ) -> list[KernelFunction]:
        """Draw ``count`` distinct functions from a subsystem."""
        pool = self._by_subsystem.get(subsystem, [])
        if count > len(pool):
            raise ValueError(
                f"subsystem {subsystem!r} has only {len(pool)} functions, "
                f"requested {count}"
            )
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in picks]

    def __len__(self) -> int:
        return len(self.functions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelLayout(base={self.base_address:#x}, size={self.text_size}, "
            f"functions={len(self.functions)})"
        )


@functools.lru_cache(maxsize=None)
def default_layout() -> KernelLayout:
    """The default kernel image, built once per process.

    Every :class:`~repro.sim.kernel.kernel.Kernel` built without an
    explicit layout shares this instance: building one takes tens of
    milliseconds, and a fleet simulates one kernel per device.
    """
    return KernelLayout()


def default_heatmap_spec(granularity: int = 2048) -> HeatMapSpec:
    """The paper's monitored region (Figure 1) at a given granularity.

    With the default 2 KB granularity this yields exactly 1,472 cells.
    """
    return HeatMapSpec(
        base_address=KERNEL_TEXT_BASE,
        region_size=KERNEL_TEXT_SIZE,
        granularity=granularity,
    )


def _subsystem_fill_shares_sum() -> float:  # used by tests
    return sum(share for _, share in _SUBSYSTEM_FILL)
