"""Shared pieces of the benchmark: workload table, seeded op streams,
statistics, ``/proc`` probes and host information.

Every input the benchmark feeds the program is a pure function of the
``--seed`` argument: the prefill image, each connection's op stream and
the payload bytes.  The generator process and the post-run verifier
both rebuild the same streams from the seed, so the verifier can
recompute what every READ must have returned without the generator
shipping payloads around.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for one run (state files, span dumps, kernel cache).
RUN_ROOT = ROOT / ".perfbench_run"

#: Every workload uses D-Code at p = 7 over two shards and two connections.
CODE = "dcode"
PRIME = 7
SHARDS = 2
CONNECTIONS = 2

#: Random payload pool the op streams slice WRITE payloads from.
POOL_BYTES = 1 << 20
#: Longest extent, in elements, of a READ or WRITE.
MAX_EXTENT = 8
#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPS = 5


class MissingProgram(SystemExit):
    """Raised when the checkout holds no ``src/repro`` to benchmark."""


def ensure_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (and in ``PYTHONPATH``
    for child processes), or exit non-zero when there is no program.

    The JIT XOR kernel is cached inside the checkout, so a run reads
    and writes nothing outside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program to measure ({SRC / 'repro'} missing)\n"
        )
        raise MissingProgram(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in paths.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            str(SRC) + (os.pathsep + paths if paths else "")
        )
    os.environ.setdefault("REPRO_CKERNEL_CACHE", str(RUN_ROOT / "ckernel"))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    kind: str                   # "serve" | "rebuild"
    element_size: int
    stripes_per_shard: int = 64
    cache_stripes: int = 16
    read_frac: float = 0.5
    ack: str = "buffered"
    fail_disk: bool = False
    #: Poisson arrival rate of the paced phase, ops/s over all
    #: connections.
    rate: float = 0.0
    #: Pipelined requests per connection in the closed-loop phase.
    window: int = 8
    #: ``ops_s`` / ``mb_s`` are the median rate over windows of this
    #: many seconds of the closed-loop phase; 0 takes the whole phase.
    rate_window_s: float = 1.0
    #: Stripes of the rebuild volume.
    rebuild_stripes: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mixed-64", "serve", element_size=64, stripes_per_shard=64,
            cache_stripes=16, read_frac=0.5, rate=500.0, window=8,
        ),
        Workload(
            "degraded-read-4k", "serve", element_size=4096,
            stripes_per_shard=64, read_frac=1.0, fail_disk=True,
            rate=400.0, window=8,
        ),
        Workload(
            "durable-write-4k", "serve", element_size=4096,
            stripes_per_shard=12, cache_stripes=16, read_frac=0.2,
            ack="durable", rate=100.0, window=4, rate_window_s=0.0,
        ),
        Workload("rebuild", "rebuild", element_size=4096,
                 rebuild_stripes=256),
    )
}


def data_cells_per_stripe() -> int:
    from repro.codes.registry import make_code

    return make_code(CODE, PRIME).num_data_cells


def failed_disk_for(shard: int) -> int:
    """The disk ``degraded-read-4k`` fails in ``shard`` (fixed, so every
    seed measures the same failure pattern)."""
    return (1 + 3 * shard) % PRIME


# -- seeded inputs ---------------------------------------------------------------


def prefill_image(seed: int, num_elements: int, esize: int) -> np.ndarray:
    """The bytes the served volume holds before timing starts."""
    rng = np.random.default_rng([seed, 0xF111])
    return rng.integers(
        0, 256, size=(num_elements, esize), dtype=np.uint8
    )


def payload_pool(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x9001])
    return rng.integers(0, 256, size=POOL_BYTES, dtype=np.uint8)


class OpStream:
    """The deterministic op stream of one connection.

    Ops are drawn in fixed chunks, so op ``k`` depends only on
    ``(seed, conn, k)``: the generator draws as far as it gets, the
    verifier redraws exactly the issued prefix.  A WRITE's payload is a
    slice of the seeded pool at a drawn offset.
    """

    CHUNK = 1024

    def __init__(self, seed: int, conn: int, base: int, region: int,
                 wl: Workload) -> None:
        if region < MAX_EXTENT:
            raise ValueError("connection region smaller than an extent")
        self.rng = np.random.default_rng([seed, conn, 0x0B5])
        self.base = base
        self.region = region
        self.wl = wl
        self.is_read: List[bool] = []
        self.start: List[int] = []
        self.count: List[int] = []
        self.offset: List[int] = []

    def _draw(self) -> None:
        n, wl, rng = self.CHUNK, self.wl, self.rng
        count = rng.integers(1, MAX_EXTENT + 1, size=n)
        start = self.base + (
            rng.random(n) * (self.region - count + 1)
        ).astype(np.int64)
        is_read = rng.random(n) < wl.read_frac
        offset = rng.integers(
            0, POOL_BYTES - MAX_EXTENT * wl.element_size + 1, size=n
        )
        self.is_read.extend(is_read.tolist())
        self.start.extend(start.tolist())
        self.count.extend(count.tolist())
        self.offset.extend(offset.tolist())

    def ensure(self, n: int) -> None:
        """Draw until at least ``n`` ops exist."""
        while len(self.start) < n:
            self._draw()


def conn_regions(num_elements: int) -> List[tuple]:
    """``(base, length)`` of each connection's disjoint address region."""
    region = num_elements // CONNECTIONS
    return [(c * region, region) for c in range(CONNECTIONS)]


def digest(buf) -> int:
    return zlib.crc32(buf)


# -- statistics ------------------------------------------------------------------


def pct(values, q: float) -> float:
    """``q``-th percentile (0..100) of ``values``; 0.0 when empty."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


def median(values) -> float:
    return pct(values, 50)


# -- /proc probes ----------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` in seconds (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_ticks() -> tuple:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_frac(before: tuple, after: tuple) -> float:
    """Share of CPU time the hypervisor took between two
    :func:`cpu_ticks` samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def ring_segments() -> set:
    """Names of the serving layer's shared-memory ring segments."""
    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith("repro_ring")}
    except OSError:
        return set()


# -- host ------------------------------------------------------------------------


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # not a git checkout: identify the measured tree by its content
    h = 0
    for path in sorted(SRC.rglob("*.py")):
        h = zlib.crc32(path.relative_to(SRC).as_posix().encode(), h)
        h = zlib.crc32(path.read_bytes(), h)
    return f"src-crc32:{h:08x}"


def host_info(seed: int) -> dict:
    """What ROADMAP asks to record next to every result."""
    from repro.util.ckernel import xor_kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "xor_engine": "c-kernel" if xor_kernel() is not None else "numpy",
        "commit": _commit(),
        "seed": seed,
    }


def run_dir(tag: str) -> Path:
    """A fresh scratch directory for one run inside the checkout."""
    path = RUN_ROOT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def first_line(proc, timeout: float) -> Optional[str]:
    """Read one line from ``proc.stdout`` within ``timeout`` seconds."""
    import selectors

    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            return None
        return proc.stdout.readline()
    finally:
        sel.close()
