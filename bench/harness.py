"""What every workload shares: statistics, the environment stamp, the
outcome record, and scratch directories inside the checkout."""

from __future__ import annotations

import bisect
import fcntl
import os
import platform as host_platform
import resource
import shutil
import subprocess
import statistics
import struct
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import THREAD_VARS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

class SpeedReference:
    """A small fixed kernel, timed between requests, that says how fast
    this machine is *right now*.

    The two vCPUs this benchmark was written on share a core with noisy
    neighbours: for seconds to minutes at a time everything, this kernel
    included, runs 1.3-1.7 times slower, so ten runs of unchanged code
    spread by 30-40 % in wall-clock time. A duration measured over
    ``[start, end]`` is therefore reported *at reference speed*: multiplied
    by ``NOMINAL_S`` over the median kernel time sampled around that
    interval. On a quiet machine of this class the factor is 1 and the
    number is plain wall-clock time; under interference it is what the
    run would have taken without it (ten runs then agree within 2-7 %).
    The raw wall-clock values stay in the report beside the scaled ones.

    The kernel is half interpreter work (tuples, a dict, float maths) and
    half BLAS (two 128 x 128 products), the mix that tracked the platform's
    own slow-downs best when both halves were timed beside it.
    """

    #: The kernel's time on a quiet machine of the class this was written
    #: on; frozen, so numbers from different commits share one scale.
    NOMINAL_S = 0.00044
    #: Kernel samples a local speed estimate rests on, at least.
    NEIGHBOURS = 11
    #: Samples this close to a measured interval count as local to it.
    PAD_S = 0.25

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []
        self._matrix = np.random.default_rng(0).random((128, 128))

    def sample(self, times: int = 1) -> None:
        matrix = self._matrix
        for _ in range(times):
            start = time.perf_counter()
            cells: dict = {}
            total = 0.0
            for i in range(1_500):
                point = (i, i * 0.5)
                cells[i & 127] = point
                total += point[0] * point[1]
            total += float((matrix @ matrix).sum())
            total += float((matrix @ matrix).sum())
            self._took.append(time.perf_counter() - start)
            self._at.append(start)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a duration measured over ``[start, end]``
        into its value at reference speed."""
        at = self._at
        low = bisect.bisect_left(at, start - self.PAD_S)
        high = bisect.bisect_right(at, end + self.PAD_S)
        if high - low < self.NEIGHBOURS:
            middle = bisect.bisect_left(at, (start + end) / 2.0)
            low = max(0, middle - self.NEIGHBOURS // 2 - 1)
            high = min(len(at), low + self.NEIGHBOURS)
        return self.NOMINAL_S / statistics.median(self._took[low:high])

    def durations(self, intervals: list[tuple[float, float]]
                  ) -> tuple[list[float], list[float]]:
        """The ``(start, end)`` intervals as seconds at reference speed,
        and as plain wall-clock seconds."""
        return ([(end - start) * self.scale(start, end)
                 for start, end in intervals],
                [end - start for start, end in intervals])


@dataclass
class Outcome:
    """What one measured run of a workload hands back to the runner."""

    #: End-to-end values by manifest name, times at reference speed (the
    #: runner adds ``setup_s`` and ``peak_rss_mb``).
    metrics: dict[str, float]
    #: The same metrics as plain wall-clock measurements.
    raw: dict[str, float]
    #: Per-layer values by manifest name; layers that did no work are left
    #: out and reported as 0.
    layers: dict[str, float]
    attempted: int
    failed: int
    #: Correctness checks that fail the run outright: name -> passed.
    checks: dict[str, bool]
    #: Frozen parameters and observed sizes, for the report.
    params: dict = field(default_factory=dict)


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def ms(seconds: float) -> float:
    return seconds * 1_000.0


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_id() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree (the
    driver's checkout is a plain directory)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": host_platform.machine(),
        "system": f"{host_platform.system()} {host_platform.release()}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``bench/out/tmp`` (the benchmark writes
    only inside its checkout); the caller removes it with
    :func:`remove_dir`."""
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    _spread_subdirectories(base)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


#: ``FS_IOC_GETFLAGS`` / ``FS_IOC_SETFLAGS`` on 64-bit Linux and the
#: "top of directory hierarchy" inode flag (``chattr +T``).
_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = \
    0x80086601, 0x40086602, 0x00020000


def _spread_subdirectories(path: Path) -> None:
    """Make ext4 give each new subdirectory of ``path`` a block group of
    its own (what ``chattr +T`` does); a no-op on other filesystems.

    ext4 puts a directory, and the files in it, beside its parent, and
    will not hand out an inode deleted in the last minutes without first
    reading it back. Scratch directories made and removed run after run
    in one parent therefore land on the inodes the previous run's clean-up
    just freed, and creating a file costs 5-9 times more than on an idle
    filesystem (5,000 segment files: 1.0-1.6 s instead of 0.15 s, measured
    here), by an amount that depends on how long ago the last run ended.
    A warehouse is not written, deleted and rewritten within minutes; the
    benchmark's own clean-up should not be what it measures."""
    try:
        handle = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = struct.unpack(
            "l", fcntl.ioctl(handle, _FS_IOC_GETFLAGS, struct.pack("l", 0)))[0]
        fcntl.ioctl(handle, _FS_IOC_SETFLAGS,
                    struct.pack("l", flags | _FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(handle)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def directory_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
