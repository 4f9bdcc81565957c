"""Fault injection, hardened clients, and checkpoint/resume.

The reliability rung of the ROADMAP: the serving stack must keep
returning *bit-exact* answers when workers die, sockets drop and cache
files tear -- and the only way to trust that is to fail it on purpose,
deterministically, and assert recovery.  Three pieces:

* :mod:`repro.resilience.faults` -- :class:`FaultPlan` /
  :class:`FaultInjector`, a seeded, serializable fault schedule
  (worker crash/hang/slow, socket disconnect, partial/garbage frame,
  torn cache write, transient dispatcher error) armed process-wide via
  :func:`install_faults`, ``repro-a2a serve --fault-plan`` or the
  ``REPRO_FAULT_PLAN`` environment variable; disarmed, every hook is
  one branch.
* :mod:`repro.resilience.retry` -- :class:`RetryPolicy` (exponential
  backoff, seeded jitter, attempt and sleep-budget caps) and
  :class:`CircuitBreaker` (trips on consecutive failures, half-opens on
  a probe), used by every service client; retried requests carry
  idempotency keys so the server never simulates one twice.
* :mod:`repro.resilience.deadline` -- :class:`Deadline`, the
  end-to-end request budget (``deadline_ms`` on the wire,
  ``X-Request-Deadline`` at the gateway) decremented across hops and
  enforced by the dispatcher *before* simulation, so expired work is
  dropped instead of burning a worker.
* :mod:`repro.resilience.checkpoint` -- atomic write-temp-then-rename
  snapshots behind ``evolve``/``run_campaign`` checkpointing and the
  CLI's ``--resume``; a SIGKILL costs at most one checkpoint interval
  and the resumed run is bit-exact versus an uninterrupted one.
* :mod:`repro.resilience.durability` -- :class:`AppendLog`, the one
  durable JSONL append log under the journal, the hint store and the
  cache store, and :class:`RequestJournal`, the
  write-ahead request journal behind ``repro-a2a serve --journal``:
  accepted requests with uncached work are fsync'd before dispatch and
  marked committed when their results land in the persistent cache
  (an all-hit request needs no record), so a restarted
  server replays only the uncommitted suffix and never simulates
  committed work twice.
* :mod:`repro.resilience.chaos` -- the randomized chaos search behind
  ``repro-a2a chaos``: :func:`run_chaos_plan` drives a pinned workload
  through a seeded :meth:`FaultPlan.random` schedule asserting
  bit-exactness, :func:`chaos_sweep` fans out over seeds, and
  :func:`shrink_plan` ddmin-minimises any failure into a replayable
  plan artifact.
"""

from repro.resilience.chaos import (
    ChaosResult,
    GrayResult,
    chaos_sweep,
    run_gray_comparison,
    run_plan as run_chaos_plan,
    shrink_plan,
)
from repro.resilience.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    spec_deadline,
    stamp_spec,
)
from repro.resilience.durability import AppendLog, JournalError, RequestJournal
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    active_injector,
    install as install_faults,
    installed as faults_installed,
    maybe_fault,
    uninstall as uninstall_faults,
)
from repro.resilience.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryBudgetExceeded,
    RetryPolicy,
)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "spec_deadline",
    "stamp_spec",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "FaultPlanError",
    "install_faults",
    "uninstall_faults",
    "faults_installed",
    "active_injector",
    "maybe_fault",
    "RetryPolicy",
    "RetryBudgetExceeded",
    "CircuitBreaker",
    "CircuitOpenError",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpointer",
    "CheckpointError",
    "AppendLog",
    "RequestJournal",
    "JournalError",
    "ChaosResult",
    "GrayResult",
    "chaos_sweep",
    "run_chaos_plan",
    "run_gray_comparison",
    "shrink_plan",
]
