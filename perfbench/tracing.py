"""Outside-in span tracing for the traced run.

Nothing under ``src/`` changes: :func:`install_server` and
:func:`install_layers` replace the functions at each layer boundary
with timing wrappers, from the benchmark's side.  A span is
``(start_ns, end_ns, self_ns, *extra)`` on the ``CLOCK_MONOTONIC`` time
base, which every process on the host shares, so spans recorded in
the server parent, the shard workers and the generator can be compared
directly.

Self time is kept with a per-thread stack: a finished span adds its
duration to the span below it, and its own self time is its duration
minus what its children claimed.  Spans of one *category* do not nest
(an inner call of the same layer is folded into the outer span), so a
layer is never counted twice.

Linking spans of one request across the pipe would need stamps inside
the program; here every span is per call or per batch.

Process rules:

* :func:`install_server` runs in the server before ``make_backends`` forks,
  so the shard workers inherit the wrappers;
* workers leave through ``os._exit``, so their spans are written by a
  wrapper around the worker loop, not by ``atexit``.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-process span store (copied into each forked worker)."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[tuple]] = defaultdict(list)
        #: id(op tuple) -> enqueue instant, for coalescer queue wait.
        self.enqueued: Dict[int, int] = {}
        self.local = threading.local()

    def reset(self) -> None:
        self.spans = defaultdict(list)
        self.enqueued = {}

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(dict(self.spans), fh)
        os.replace(tmp, path)

    def wrap(self, fn: Callable, name: str, category: str,
             extra: Optional[Callable] = None) -> Callable:
        """Timing wrapper around ``fn``.

        ``extra(args, kwargs)`` runs before the call and returns a
        closure; calling that closure with the result after the call
        yields the span's extra fields."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer.local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = set()
            if category in local.active:
                return fn(*args, **kwargs)
            local.active.add(category)
            stack.append(0)
            after = extra(args, kwargs) if extra is not None else None
            result = None
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic_ns()
                child = stack.pop()
                local.active.discard(category)
                dur = t1 - t0
                if stack:
                    stack[-1] += dur
                rec = (t0, t1, dur - child)
                if after is not None:
                    rec += after(result)
                tracer.spans[name].append(rec)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper


def _patch(owner, attr: str, tracer: Tracer, name: str, category: str,
           extra: Optional[Callable] = None) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, tracer.wrap(fn, name, category, extra))


def _volume_extra(count_of: Callable):
    """Extras for a volume span: ``count_of(args)`` (elements, or
    stripes for a destage), disk reads and writes, and the per-disk I/O
    the call caused."""

    def extra(args, kwargs):
        volume = args[0]
        per0 = [(d.read_count, d.write_count) for d in volume.disks]
        n = count_of(args)

        def after(_result):
            per1 = [(d.read_count, d.write_count) for d in volume.disks]
            reads = sum(b[0] - a[0] for a, b in zip(per0, per1))
            writes = sum(b[1] - a[1] for a, b in zip(per0, per1))
            load = tuple(
                (b[0] - a[0]) + (b[1] - a[1]) for a, b in zip(per0, per1)
            )
            return (n, reads, writes, load)

        return after

    return extra


def _elements(args) -> int:
    arg = args[2]
    return int(arg) if isinstance(arg, int) else int(arg.shape[0])


def _count_extra(index: int):
    def extra(args, kwargs):
        arg = args[index] if len(args) > index else 0
        n = int(arg) if isinstance(arg, int) else len(arg)
        return lambda _result: (n,)

    return extra


def _batch_extra(tracer: Tracer, shard_of: Dict[int, int]):
    """Parent-side shard batch: shard index, ops, and each op's wait in
    the coalescer queue (dispatch instant minus enqueue instant)."""

    def extra(args, kwargs):
        backend, ops = args[0], args[1]
        now = time.monotonic_ns()
        waits = []
        for op in ops:
            t = tracer.enqueued.pop(id(op), None)
            if t is not None:
                waits.append(now - t)
        return lambda _result: (shard_of.get(id(backend), -1), len(ops),
                                tuple(waits))

    return extra


def _delta_bytes_extra(args, kwargs):
    log = args[0]
    before = log.bytes
    return lambda _result: (log.bytes - before,)


def _base_bytes_extra(args, kwargs):
    engine = args[0]

    def after(_result):
        try:
            return (engine.base_path.stat().st_size,)
        except OSError:
            return (0,)

    return after


def install_layers(tracer: Tracer) -> None:
    """Wrap the volume-side layers: cache, volume, codec, planner, disk.

    Used by the server (inherited by workers) and by the in-process
    rebuild workload."""
    import repro.array.integrity as integrity_mod
    import repro.array.volume as volume_mod
    import repro.codec.batch as batch_mod
    from repro.array.cache import StripeCache
    from repro.array.disk import SimDisk
    from repro.array.volume import RAID6Volume
    from repro.codec.decoder import ChainDecoder
    from repro.codec.encoder import StripeCodec
    from repro.codec.gauss import GaussianDecoder
    from repro.codec.plan import XorPlan

    _patch(StripeCache, "read", tracer, "cache.read", "cache",
           _count_extra(2))
    _patch(StripeCache, "write", tracer, "cache.write", "cache",
           lambda a, k: (lambda _r: (int(a[2].shape[0]),)))
    _patch(StripeCache, "flush", tracer, "cache.flush", "cache")
    _patch(RAID6Volume, "read", tracer, "volume.read", "volume",
           _volume_extra(_elements))
    _patch(RAID6Volume, "write", tracer, "volume.write", "volume",
           _volume_extra(_elements))
    # the cache destages through these (private) entry points into the
    # volume; their spans count stripes, not elements
    for attr, stripes in (
        ("_full_stripe_write_batched", lambda a: len(a[1])),
        ("_write_rest", lambda a: len(a[1])),
        ("_write_stripe_batch", lambda a: 1),
    ):
        _patch(RAID6Volume, attr, tracer, "volume.destage", "volume",
               _volume_extra(stripes))
    _patch(RAID6Volume, "replace_and_rebuild", tracer, "volume.rebuild",
           "volume", _volume_extra(lambda a: a[1]))
    for mod in (batch_mod, volume_mod, integrity_mod):
        if hasattr(mod, "encode_batch"):
            _patch(mod, "encode_batch", tracer, "codec.encode", "codec")
    for mod in (batch_mod, volume_mod):
        _patch(mod, "decode_batch", tracer, "codec.decode", "codec")
    _patch(StripeCodec, "encode", tracer, "codec.encode", "codec")
    _patch(ChainDecoder, "decode_cells", tracer, "codec.decode", "codec")
    _patch(GaussianDecoder, "decode_cells", tracer, "codec.decode",
           "codec")
    # the degraded-read fast path runs recovery recipes through the plan
    _patch(XorPlan, "execute_batch", tracer, "codec.decode", "codec")
    _patch(volume_mod, "cached_hybrid_plan", tracer, "recovery.plan",
           "recovery")
    _patch(SimDisk, "read_block", tracer, "disk.read_block", "disk",
           _count_extra(1))
    _patch(SimDisk, "write_block", tracer, "disk.write_block", "disk",
           _count_extra(1))


def install_server(tracer: Tracer, trace_dir: Path,
                   shard_of: Dict[int, int]) -> None:
    """Wrap every serving layer; call before ``make_backends`` forks.

    ``shard_of`` maps ``id(backend)`` to its shard index; the caller
    fills it once the backends exist (the wrappers read it lazily)."""
    import repro.serve.protocol as protocol_mod
    import repro.serve.shard as shard_mod
    from repro.serve.checkpoint import DeltaLog, IncrementalCheckpointer
    from repro.serve.coalescer import ShardQueue
    from repro.serve.state import ShardStateStore
    from repro.serve.supervisor import SupervisedShard

    install_layers(tracer)
    _patch(protocol_mod, "decode_request", tracer, "protocol.decode",
           "protocol")

    submit = ShardQueue.submit_nowait

    @functools.wraps(submit)
    def submit_nowait(self, op, deadline=None):
        tracer.enqueued[id(op)] = time.monotonic_ns()
        return submit(self, op, deadline)

    if not getattr(submit, "__wrapped_by_perfbench__", False):
        submit_nowait.__wrapped_by_perfbench__ = True
        ShardQueue.submit_nowait = submit_nowait
    _patch(SupervisedShard, "execute", tracer, "shard.batch", "shard",
           _batch_extra(tracer, shard_of))
    # worker side (inherited through fork)
    _patch(shard_mod, "execute_ops", tracer, "shard.worker", "worker",
           lambda a, k: (lambda _r: (len(a[2]),)))
    _patch(ShardStateStore, "checkpoint", tracer, "checkpoint",
           "checkpoint")
    _patch(IncrementalCheckpointer, "compact", tracer, "checkpoint.compact",
           "checkpoint.compact")
    _patch(IncrementalCheckpointer, "write_base", tracer,
           "checkpoint.base", "checkpoint.base", _base_bytes_extra)
    _patch(DeltaLog, "append", tracer, "checkpoint.delta",
           "checkpoint.delta", _delta_bytes_extra)

    loop = shard_mod._shard_worker
    if getattr(loop, "__wrapped_by_perfbench__", False):
        return

    @functools.wraps(loop)
    def worker_loop(conn, spec, ring=None):
        tracer.reset()  # drop what the parent recorded before the fork
        try:
            return loop(conn, spec, ring)
        finally:
            tracer.dump(trace_dir / f"worker-{os.getpid()}.pkl")

    worker_loop.__wrapped_by_perfbench__ = True
    shard_mod._shard_worker = worker_loop


def load_dumps(trace_dir: Path) -> Dict[str, Dict[str, List[tuple]]]:
    """``{file stem: spans}`` for every dump in ``trace_dir``."""
    out = {}
    for path in sorted(trace_dir.glob("*.pkl")):
        with open(path, "rb") as fh:
            out[path.stem] = pickle.load(fh)
    return out
