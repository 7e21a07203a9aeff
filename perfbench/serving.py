"""Serving workloads: server process, setup, generator, checks, metrics.

One measured pass:

1. launch ``server.py`` in its own session and wait for its ready line;
2. set up: prefill the whole address space with seeded bytes through
   the protocol, fail one disk per shard if the workload asks for it,
   and answer a first READ — ``setup_s`` runs from the launch to that
   answer;
3. STAT, run ``gen.py`` (paced phase, then closed-loop phase), STAT
   again (the counter deltas cover exactly the measured phases);
4. read peak RSS of the server and its shard workers, fetch the served
   image, stop the server with SIGINT and check process hygiene: no
   shard worker alive afterwards and no new ``/dev/shm/repro_ring_*``
   segment left behind;
5. verify every READ reply and the final image (``verify.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import common
import layers
import verify

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """A correctness or hygiene check failed; the run has no numbers."""


def _descendants(pid: int) -> List[int]:
    out: List[int] = []
    todo = [pid]
    while todo:
        cur = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{cur}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{cur}/task/{tid}/children") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


class ServerProc:
    """``server.py`` in its own session, stopped with SIGINT."""

    def __init__(self, wl: common.Workload, rundir: Path,
                 trace_dir: Optional[Path] = None) -> None:
        self.state_dir = rundir / f"state-{time.monotonic_ns()}"
        self.state_dir.mkdir(parents=True)
        self.shm_before = common.ring_segments()
        cmd = [sys.executable, str(HERE / "server.py"),
               "--workload", wl.name, "--state-dir", str(self.state_dir)]
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir)]
        self.log = open(rundir / "server.log", "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True, text=True,
        )
        line = common.first_line(self.proc, READY_TIMEOUT_S)
        if not line:
            self.kill()
            raise RuntimeError("server did not come up (see server.log)")
        ready = json.loads(line)
        self.port: int = ready["port"]
        self.pid: int = ready["pid"]
        self.workers: List[int] = ready["workers"]

    def peak_rss_mib(self) -> float:
        return sum(common.peak_rss_mib(p) for p in [self.pid] + self.workers)

    def stop(self) -> None:
        """SIGINT, wait, then check that nothing was left behind."""
        family = _descendants(self.pid)
        os.kill(self.pid, signal.SIGINT)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server ignored SIGINT")
        finally:
            self.proc.stdout.close()
            self.log.close()
        limit = time.monotonic() + 10.0
        while any(common.pid_alive(p) for p in family) and \
                time.monotonic() < limit:
            time.sleep(0.02)
        if code != 0:
            raise CheckFailed(f"server exited with code {code}")
        alive = [p for p in self.workers if common.pid_alive(p)]
        if alive:
            raise CheckFailed(f"shard workers still alive: {alive}")
        leaked = common.ring_segments() - self.shm_before
        if leaked:
            raise CheckFailed(f"leaked ring segments: {sorted(leaked)}")
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def kill(self) -> None:
        """Last resort: SIGKILL the whole session."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def num_elements(wl: common.Workload) -> int:
    return (common.SHARDS * wl.stripes_per_shard
            * common.data_cells_per_stripe())


def start_and_setup(wl: common.Workload, seed: int, rundir: Path,
                    trace_dir: Optional[Path] = None) -> tuple:
    """Launch, prefill, fail disks, first READ, then STAT →
    ``(server, setup_s, stat)``; the STAT is not part of ``setup_s``."""
    t0 = time.perf_counter()
    srv = ServerProc(wl, rundir, trace_dir)
    try:
        image = common.prefill_image(seed, num_elements(wl), wl.element_size)
        setup_s, stat = asyncio.run(_setup(wl, srv.port, image, t0))
    except BaseException:
        srv.kill()
        raise
    return srv, setup_s, stat


async def _setup(wl: common.Workload, port: int, image: np.ndarray,
                 t0: float) -> tuple:
    from repro.serve.loadgen import BlockClient
    from repro.serve.protocol import OP_FAIL_DISK, OP_READ, OP_WRITE

    client = await BlockClient.connect("127.0.0.1", port)
    try:
        n = len(image)
        chunk = max(1, (256 * 1024) // wl.element_size)
        starts = range(0, n, chunk)
        for start in starts:
            client.send_nowait(OP_WRITE, start, min(chunk, n - start),
                               image[start:start + chunk].tobytes())
        await client.flush()
        for start in starts:
            await _expect_ok(client.recv(), OP_WRITE, start)
        if wl.fail_disk:
            for shard in range(common.SHARDS):
                await _expect_ok(client.request(
                    OP_FAIL_DISK, shard, common.failed_disk_for(shard)),
                    OP_FAIL_DISK, shard)
        first = await _expect_ok(client.request(OP_READ, 0, 1), OP_READ, 0)
        setup_s = time.perf_counter() - t0
        if first != image[0].tobytes():
            raise CheckFailed("first READ after setup returned wrong bytes")
        return setup_s, await _stat_on(client)
    finally:
        await client.close()


async def _expect_ok(reply, op: int, start: int) -> bytes:
    from repro.serve.protocol import ST_OK

    status, body = await reply
    if status != ST_OK:
        raise CheckFailed(f"setup op {op} at {start} answered status "
                          f"{status}: {bytes(body[:200])!r}")
    return bytes(body)


async def _stat_on(client) -> dict:
    from repro.serve.protocol import OP_STAT

    body = await _expect_ok(client.request(OP_STAT), OP_STAT, 0)
    return json.loads(body.decode())["server"]


async def _stat(port: int) -> dict:
    from repro.serve.loadgen import BlockClient

    client = await BlockClient.connect("127.0.0.1", port)
    try:
        return await _stat_on(client)
    finally:
        await client.close()


@dataclass
class PassResult:
    e2e: Dict[str, float]
    extra: Dict[str, float]
    attempted: int
    failed: int
    layers: Dict[str, float] = field(default_factory=dict)


def measured_pass(wl: common.Workload, seed: int, seconds: float,
                  rundir: Path, setup_reps: int = common.SETUP_REPS,
                  trace_dir: Optional[Path] = None) -> PassResult:
    """Set up ``setup_reps`` times (keeping the last server), then run
    both phases for ``seconds`` in total, check and summarise."""
    setups = []
    srv = None
    for rep in range(setup_reps):
        if srv is not None:
            srv.stop()
            if trace_dir is not None:
                for path in trace_dir.glob("*.pkl"):
                    path.unlink()
        srv, setup_s, stat0 = start_and_setup(wl, seed, rundir, trace_dir)
        setups.append(setup_s)
    n = num_elements(wl)
    out = rundir / f"gen-{time.monotonic_ns()}"
    try:
        ticks0 = common.cpu_ticks()
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"),
             "--port", str(srv.port), "--workload", wl.name,
             "--seed", str(seed), "--paced-s", str(seconds / 2),
             "--closed-s", str(seconds / 2), "--num-elements", str(n),
             "--out", str(out), "--pids", str(srv.pid),
             *[str(p) for p in srv.workers]],
            check=True, timeout=seconds + 120,
        )
        ticks1 = common.cpu_ticks()
        rss = srv.peak_rss_mib()
        stat1 = asyncio.run(_stat(srv.port))
        from repro.serve.loadgen import fetch_image

        image = asyncio.run(fetch_image("127.0.0.1", srv.port,
                                        num_elements=n))
    except BaseException:
        srv.kill()
        raise
    srv.stop()

    rec = dict(np.load(str(out) + ".npz"))
    with open(str(out) + ".json") as fh:
        meta = json.load(fh)
    errors = verify.verify_serving(wl, seed, n, rec, image)
    if errors:
        raise CheckFailed("; ".join(errors))

    from repro.serve.protocol import ST_OK

    ok = rec["status"] == ST_OK
    paced = rec["phase"] == 0
    lat_ms = (rec["done"] - rec["due"]) / 1e6
    c0, c1 = meta["closed"]
    closed_s = (c1 - c0) / 1e9
    in_closed = (rec["phase"] == 1) & ok & (rec["done"] >= c0) & \
        (rec["done"] < c1)
    counts = _counts(wl, seed, n, rec)
    closed_ops = int(in_closed.sum())
    paced_ok = paced & ok
    p50, p99 = _windowed(rec["due"][paced_ok], lat_ms[paced_ok])
    e2e = {
        "ops_s": _windowed_rate(rec["done"][in_closed], c0, c1,
                                wl.rate_window_s),
        "mb_s": _windowed_rate(rec["done"][in_closed], c0, c1,
                               wl.rate_window_s,
                               counts[in_closed] * wl.element_size) / 1e6,
        "setup_s": common.median(setups),
        "rss_mb": rss,
    }
    reads = paced & ok & rec["read"]
    writes = paced & ok & ~rec["read"]
    attempted = int(len(rec["status"]))
    failed = int((~ok).sum())
    cpu = meta["cpu_closed"]
    kops = max(closed_ops, 1) / 1000.0
    extra = {
        "e2e.p50_ms": p50,
        "e2e.p99_ms": p99,
        "host.steal_frac": common.steal_frac(ticks0, ticks1),
        "read_p50_ms": common.pct(lat_ms[reads], 50),
        "read_p99_ms": common.pct(lat_ms[reads], 99),
        "write_p50_ms": common.pct(lat_ms[writes], 50),
        "write_p99_ms": common.pct(lat_ms[writes], 99),
        "pooled_p99_ms": common.pct(lat_ms[paced_ok], 99),
        "failed_frac": failed / max(attempted, 1),
        "paced_ops": int((paced).sum()),
        "closed_ops": closed_ops,
        "loadgen.late_p99_ms": common.pct(
            (rec["sent"] - rec["due"])[paced] / 1e6, 99),
        "cpu.loadgen_frac": meta["gen_cpu_closed"] / closed_s,
        "cpu.server_s_per_kop": cpu[0] / kops,
        "cpu.worker_s_per_kop": sum(cpu[1:]) / kops,
        "server.flushes_per_op": _delta(stat0, stat1, "flushes")
        / max(_delta(stat0, stat1, "ops") - 1, 1),
        "server.zero_copy_frac": _delta(stat0, stat1, "zero_copy_flushes")
        / max(_delta(stat0, stat1, "flushes"), 1),
        "qos.busy": _delta(stat0, stat1, "busy"),
        "supervisor.restarts": _delta(stat0, stat1, "restarts"),
    }
    result = PassResult(e2e, extra, attempted, failed)
    if trace_dir is not None:
        import tracing

        with open(trace_dir / "workers.json") as fh:
            worker_shards = {pid: i for i, pid in enumerate(json.load(fh))}
        in_window = ok & (rec["done"] >= meta["paced"][0]) & (rec["done"] < c1)
        wrote = in_window & ~rec["read"]
        result.layers = layers.serving_layers(
            tracing.load_dumps(trace_dir), worker_shards,
            (meta["paced"][0], c1), tuple(meta["paced"]),
            ops_done=int(in_window.sum()),
            writes_done=int(wrote.sum()),
            elems_written=int(counts[wrote].sum()),
            element_size=wl.element_size,
            e2e_p50_ms=p50,
        )
    return result


def _windowed(due: np.ndarray, lat_ms: np.ndarray,
              per_window: int = 500) -> tuple:
    """Median over consecutive windows of the window p50 and p99.

    Windows are cut in due-time order and hold ``per_window`` ops each:
    a burst of host noise inflates the p99 of the window it falls in,
    not the run's."""
    order = np.argsort(due, kind="stable")
    lat = lat_ms[order]
    k = max(1, len(lat) // per_window)
    parts = np.array_split(lat, k)
    return (common.median([common.pct(p, 50) for p in parts]),
            common.median([common.pct(p, 99) for p in parts]))


def _windowed_rate(done: np.ndarray, t0: int, t1: int, window_s: float,
                   weights: Optional[np.ndarray] = None) -> float:
    """Median over ``window_s`` windows (0: one window, the whole
    span) of completions (or of ``weights``, e.g. bytes) per second."""
    k = max(1, int((t1 - t0) / 1e9 / window_s)) if window_s > 0 else 1
    edges = np.linspace(t0, t1, k + 1)
    counts, _ = np.histogram(done, bins=edges, weights=weights)
    return common.median(counts / ((t1 - t0) / 1e9 / k))


def _delta(a: dict, b: dict, key: str) -> float:
    return float(b.get(key, 0) - a.get(key, 0))


def _counts(wl: common.Workload, seed: int, n: int,
            rec: Dict[str, np.ndarray]) -> np.ndarray:
    """Element count of every recorded op (redrawn from the seed)."""
    counts = np.zeros(len(rec["idx"]), dtype=np.int64)
    for cid, (base, region) in enumerate(common.conn_regions(n)):
        mine = np.flatnonzero(rec["conn"] == cid)
        if not mine.size:
            continue
        stream = common.OpStream(seed, cid, base, region, wl)
        stream.ensure(int(rec["idx"][mine].max()) + 1)
        counts[mine] = np.asarray(stream.count)[rec["idx"][mine]]
    return counts


def run(wl: common.Workload, seed: int, seconds: float, trace: bool,
        rundir: Path) -> dict:
    """One invocation: untraced pass, plus a traced pass with --trace 1."""
    if not trace:
        res = measured_pass(wl, seed, seconds, rundir)
        return {"e2e": res.e2e, "extra": res.extra,
                "attempted": res.attempted, "failed": res.failed}
    base = measured_pass(wl, seed, seconds / 2, rundir, 1)
    trace_dir = rundir / "trace"
    trace_dir.mkdir()
    traced = measured_pass(wl, seed, seconds / 2, rundir, 1, trace_dir)
    out = dict(traced.layers)
    for key in ("e2e.p50_ms", "e2e.p99_ms", "host.steal_frac",
                "loadgen.late_p99_ms", "cpu.loadgen_frac",
                "cpu.server_s_per_kop", "cpu.worker_s_per_kop"):
        out[key] = base.extra[key]  # untraced by definition
    for key in ("server.flushes_per_op", "server.zero_copy_frac",
                "qos.busy", "supervisor.restarts"):
        out[key] = traced.extra[key]
    out["trace.overhead_p50_ms"] = (
        traced.extra["e2e.p50_ms"] - base.extra["e2e.p50_ms"]
    )
    out["trace.overhead_ops_frac"] = (
        1.0 - traced.e2e["ops_s"] / base.e2e["ops_s"]
    )
    return {"layers": out, "e2e": base.e2e, "traced_e2e": traced.e2e,
            "extra": base.extra,
            "attempted": base.attempted + traced.attempted,
            "failed": base.failed + traced.failed}
