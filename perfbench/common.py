"""Shared plumbing for the benchmark: paths, import guard, statistics,
memory and the run record.

The benchmark imports the program from the ``src/`` tree of the checkout
it lives in, never from an installed copy, so a run always measures the
code next to it.  A checkout without that tree is an error: the run
exits non-zero before printing a result.
"""

import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The seed used when none is given, and the seed kept out of tuning so
#: later performance claims can be checked on inputs nobody tuned on.
DEFAULT_SEED = 2013
HELD_OUT_SEED = 7919


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def import_program():
    """Put the checkout's ``src/`` first on ``sys.path`` and import it.

    Raises :class:`BenchError` when the tree is missing or when ``repro``
    resolves to a copy outside this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"repro imported from {where}, not from {SRC}")
    return repro


def child_env():
    """Environment for a child Python that must import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_BACKEND", None)
    return env


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n_samples, candidates=(99, 95, 90, 75)):
    """The highest candidate percentile with at least ten samples beyond
    it, or ``None`` when even the lowest has fewer."""
    for q in candidates:
        if n_samples * (100 - q) / 100.0 >= 10:
            return q
    return None


def median(values):
    return statistics.median(values)


def self_peak_rss_mb():
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid):
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git;
    ``None`` when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment_record():
    """Machine and software facts every run record carries."""
    import numpy

    from repro.core.backends import resolve_backend

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "step_backend": resolve_backend(None).name,
        "git_commit": _git_commit(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }
