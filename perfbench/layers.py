"""Metric catalogue and per-layer aggregation of traced runs.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` lists the same ones and
the benchmark's tests check that the two agree.  Every metric is
emitted for every workload; a layer a workload never reaches reports 0
(for example ``checkpoint.*`` on buffered-ack workloads, or
``recovery.*`` on serving workloads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import pct

#: (name, unit, better) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str]] = [
    ("ops_s", "ops/s", "higher"),
    ("mb_s", "MB/s", "higher"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MiB", "lower"),
]

#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("e2e.p50_ms", "ms", "lower"),
    ("e2e.p99_ms", "ms", "lower"),
    ("host.steal_frac", "ratio", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("cpu.loadgen_frac", "ratio", "lower"),
    ("cpu.server_s_per_kop", "s/kop", "lower"),
    ("cpu.worker_s_per_kop", "s/kop", "lower"),
    ("protocol.decode_us.p50", "us", "lower"),
    ("server.flushes_per_op", "ratio", "lower"),
    ("server.zero_copy_frac", "ratio", "higher"),
    ("qos.busy", "count", "lower"),
    ("coalescer.queue_wait_ms.p50", "ms", "lower"),
    ("coalescer.queue_wait_ms.p99", "ms", "lower"),
    ("coalescer.batch_ops.mean", "ops", "higher"),
    ("shard.batch_ms.p50", "ms", "lower"),
    ("shard.batch_ms.p99", "ms", "lower"),
    ("shard.worker_ms.p50", "ms", "lower"),
    ("shard.worker_ms_per_op", "ms", "lower"),
    ("shard.ipc_ms.p50", "ms", "lower"),
    ("supervisor.restarts", "count", "lower"),
    ("cache.read_ms.p50", "ms", "lower"),
    ("cache.write_ms.p50", "ms", "lower"),
    ("cache.flush_ms.sum", "ms", "lower"),
    ("cache.destage_stripes_per_kwrite", "1/kop", "lower"),
    ("volume.read_ms.p50", "ms", "lower"),
    ("volume.write_ms.p50", "ms", "lower"),
    ("volume.disk_reads_per_elem_read", "ratio", "lower"),
    ("volume.disk_writes_per_elem_written", "ratio", "lower"),
    ("volume.load_max_over_mean", "ratio", "lower"),
    ("volume.rebuild_mb_s", "MB/s", "higher"),
    ("volume.rebuild2_mb_s", "MB/s", "higher"),
    ("codec.decode_ms.sum", "ms", "lower"),
    ("codec.encode_ms.sum", "ms", "lower"),
    ("checkpoint.ms.p50", "ms", "lower"),
    ("checkpoint.ms.p99", "ms", "lower"),
    ("checkpoint.compact_ms.p50", "ms", "lower"),
    ("checkpoint.compactions_per_kwrite", "1/kop", "lower"),
    ("checkpoint.bytes_per_user_byte", "ratio", "lower"),
    ("recovery.reads_per_rebuilt_elem", "ratio", "lower"),
    ("disk.read_block_ms.sum", "ms", "lower"),
    ("disk.write_block_ms.sum", "ms", "lower"),
    ("self.protocol_us_per_op", "us", "lower"),
    ("self.shard_ipc_us_per_op", "us", "lower"),
    ("self.worker_us_per_op", "us", "lower"),
    ("self.cache_us_per_op", "us", "lower"),
    ("self.volume_us_per_op", "us", "lower"),
    ("self.codec_us_per_op", "us", "lower"),
    ("self.disk_us_per_op", "us", "lower"),
    ("self.checkpoint_us_per_op", "us", "lower"),
    ("e2e.unattributed_p50_ms", "ms", "lower"),
    ("trace.overhead_p50_ms", "ms", "lower"),
    ("trace.overhead_ops_frac", "ratio", "lower"),
]

UNITS: Dict[str, str] = {n: u for n, u, _ in END_TO_END + PER_LAYER}

_MS = 1e-6
_US = 1e-3


def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def _in(spans: Sequence[tuple], window: Tuple[int, int]) -> List[tuple]:
    lo, hi = window
    return [s for s in spans if lo <= s[0] < hi]


def _durs(spans: Sequence[tuple]) -> np.ndarray:
    return np.array([s[1] - s[0] for s in spans], dtype=np.float64)


def _self_sum(spans: Sequence[tuple]) -> float:
    return float(sum(s[2] for s in spans))


def _merge(dumps: Dict[str, Dict[str, list]], name: str) -> List[tuple]:
    """All spans called ``name`` across several processes' dumps."""
    return [s for spans in dumps.values() for s in spans.get(name, ())]


def _ipc(batches: List[tuple], inner: List[tuple]) -> np.ndarray:
    """Per-batch parent time not spent inside the worker: each worker
    span (execute_ops, checkpoint) is charged to the parent batch of
    the same shard that contains it."""
    if not batches:
        return np.zeros(0)
    order = sorted(batches, key=lambda s: s[0])
    starts = np.array([s[0] for s in order], dtype=np.int64)
    ends = np.array([s[1] for s in order], dtype=np.int64)
    claimed = np.zeros(len(order), dtype=np.float64)
    matched = np.zeros(len(order), dtype=bool)
    for s in inner:
        i = int(np.searchsorted(starts, s[0], side="right")) - 1
        if i >= 0 and s[1] <= ends[i]:
            claimed[i] += s[1] - s[0]
            matched[i] = True
    return ((ends - starts) - claimed)[matched]


def serving_layers(
    dumps: Dict[str, Dict[str, list]],
    worker_shards: Dict[int, int],
    window: Tuple[int, int],
    paced: Tuple[int, int],
    ops_done: int,
    writes_done: int,
    elems_written: int,
    element_size: int,
    e2e_p50_ms: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced serving run.

    ``window`` bounds both measured phases; latency shares used for the
    unattributed remainder come from the paced phase only, where
    ``e2e_p50_ms`` was measured."""
    out = empty_layers()
    per_op = 1.0 / max(ops_done, 1)
    server = {k: v for k, v in dumps.items() if k.startswith("server-")}
    workers = {k: v for k, v in dumps.items() if k.startswith("worker-")}

    decode = _in(_merge(server, "protocol.decode"), window)
    batches = _in(_merge(server, "shard.batch"), window)
    waits = np.array([w for s in batches for w in s[5]], dtype=np.float64)
    out["protocol.decode_us.p50"] = pct(_durs(decode), 50) * _US
    out["coalescer.queue_wait_ms.p50"] = pct(waits, 50) * _MS
    out["coalescer.queue_wait_ms.p99"] = pct(waits, 99) * _MS
    if batches:
        out["coalescer.batch_ops.mean"] = float(
            np.mean([s[4] for s in batches])
        )
    out["shard.batch_ms.p50"] = pct(_durs(batches), 50) * _MS
    out["shard.batch_ms.p99"] = pct(_durs(batches), 99) * _MS

    def wspans(name: str) -> List[tuple]:
        return _in(_merge(workers, name), window)

    execs = wspans("shard.worker")
    out["shard.worker_ms.p50"] = pct(_durs(execs), 50) * _MS
    nops = sum(s[3] for s in execs)
    if nops:
        out["shard.worker_ms_per_op"] = float(_durs(execs).sum()) / nops * _MS
    checkpoints = wspans("checkpoint")
    ipc_all: List[np.ndarray] = []
    for stem, spans in workers.items():
        shard = worker_shards.get(int(stem.split("-", 1)[1]), -1)
        inner = _in(spans.get("shard.worker", []), window) + _in(
            spans.get("checkpoint", []), window
        )
        ipc_all.append(_ipc([b for b in batches if b[3] == shard], inner))
    ipc = np.concatenate(ipc_all) if ipc_all else np.zeros(0)
    out["shard.ipc_ms.p50"] = pct(ipc, 50) * _MS

    cache_r, cache_w = wspans("cache.read"), wspans("cache.write")
    flushes = wspans("cache.flush")
    out["cache.read_ms.p50"] = pct(_durs(cache_r), 50) * _MS
    out["cache.write_ms.p50"] = pct(_durs(cache_w), 50) * _MS
    out["cache.flush_ms.sum"] = float(_durs(flushes).sum()) * _MS
    vol_r, vol_w = wspans("volume.read"), wspans("volume.write")
    destage = wspans("volume.destage")
    writes_k = max(writes_done, 1) / 1000.0
    out["cache.destage_stripes_per_kwrite"] = (
        sum(s[3] for s in destage) / writes_k
    )
    out["volume.read_ms.p50"] = pct(_durs(vol_r), 50) * _MS
    out["volume.write_ms.p50"] = pct(_durs(vol_w + destage), 50) * _MS
    elems_read = sum(s[3] for s in vol_r)
    if elems_read:
        out["volume.disk_reads_per_elem_read"] = (
            sum(s[4] for s in vol_r) / elems_read
        )
    if elems_written:
        out["volume.disk_writes_per_elem_written"] = (
            sum(s[5] for s in vol_w + destage) / elems_written
        )
    out["volume.load_max_over_mean"] = _load_balance(workers, window)

    for name in ("codec.decode", "codec.encode", "disk.read_block",
                 "disk.write_block"):
        out[f"{name}_ms.sum"] = float(_durs(wspans(name)).sum()) * _MS

    out["checkpoint.ms.p50"] = pct(_durs(checkpoints), 50) * _MS
    out["checkpoint.ms.p99"] = pct(_durs(checkpoints), 99) * _MS
    compacts = wspans("checkpoint.compact")
    out["checkpoint.compact_ms.p50"] = pct(_durs(compacts), 50) * _MS
    out["checkpoint.compactions_per_kwrite"] = len(compacts) / writes_k
    persisted = sum(s[3] for s in wspans("checkpoint.delta")) + sum(
        s[3] for s in wspans("checkpoint.base"))
    if elems_written:
        out["checkpoint.bytes_per_user_byte"] = persisted / (
            elems_written * element_size)

    ckpt_self = sum(
        _self_sum(wspans(n))
        for n in ("checkpoint", "checkpoint.compact", "checkpoint.base",
                  "checkpoint.delta")
    )
    out["self.protocol_us_per_op"] = _self_sum(decode) * per_op * _US
    out["self.shard_ipc_us_per_op"] = float(ipc.sum()) * per_op * _US
    out["self.worker_us_per_op"] = _self_sum(execs) * per_op * _US
    out["self.cache_us_per_op"] = _self_sum(
        cache_r + cache_w + flushes) * per_op * _US
    out["self.volume_us_per_op"] = _self_sum(
        vol_r + vol_w + destage) * per_op * _US
    out["self.codec_us_per_op"] = _self_sum(
        wspans("codec.decode") + wspans("codec.encode")) * per_op * _US
    out["self.disk_us_per_op"] = _self_sum(
        wspans("disk.read_block") + wspans("disk.write_block")) * per_op * _US
    out["self.checkpoint_us_per_op"] = ckpt_self * per_op * _US

    # the part of the paced p50 no layer claims: wire, event loops,
    # responder and generator
    claimed = (
        pct(_durs(_in(decode, paced)), 50)
        + pct(np.array([w for s in _in(batches, paced) for w in s[5]]), 50)
        + pct(_durs(_in(batches, paced)), 50)
    ) * _MS
    out["e2e.unattributed_p50_ms"] = e2e_p50_ms - claimed
    return out


def _load_balance(workers: Dict[str, Dict[str, list]],
                  window: Tuple[int, int]) -> float:
    """Max over mean per-disk I/O of each shard, averaged over shards.
    Disks that served no I/O (failed ones) are left out."""
    ratios = []
    for spans in workers.values():
        total: Optional[np.ndarray] = None
        for name in ("volume.read", "volume.write", "volume.destage"):
            for s in _in(spans.get(name, []), window):
                vec = np.asarray(s[6], dtype=np.float64)
                total = vec if total is None else total + vec
        if total is None:
            continue
        live = total[total > 0]
        if live.size:
            ratios.append(float(live.max() / live.mean()))
    return float(np.mean(ratios)) if ratios else 0.0
