"""Benchmark-owned block-server runner (one process per run).

Builds the workload's :class:`~repro.serve.ServerConfig`, forks the
shard workers with :func:`~repro.serve.make_backends` *before* the
event loop exists, and serves with :class:`~repro.serve.BlockServer`
until SIGINT.  It prints one JSON line once it listens::

    {"port": 40123, "pid": 811, "workers": [812, 813]}

On SIGINT it closes gracefully (drains the shard queues, stops the
workers, unlinks the payload rings) and exits 0.  With ``--trace DIR``
every layer boundary is wrapped before the fork
(:mod:`tracing`) and spans are written to ``DIR`` — the parent's at
shutdown, each worker's when its loop ends.

Usage (normally started by ``run.py``)::

    python perfbench/server.py --workload NAME --state-dir DIR [--trace DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

import common


def server_config(wl: common.Workload, state_dir: str):
    from repro.serve import ServerConfig

    return ServerConfig(
        shards=common.SHARDS,
        backend="process",
        code=common.CODE,
        p=common.PRIME,
        stripes_per_shard=wl.stripes_per_shard,
        element_size=wl.element_size,
        cache_stripes=wl.cache_stripes,
        ack=wl.ack,
        state_dir=state_dir,
    )


def worker_pid(backend) -> int:
    """The forked worker behind a supervised process shard.

    The serving package exposes no pid, so this reads the supervisor's
    inner shard; the benchmark needs it for RSS/CPU probes and to tell
    the workers' span dumps apart."""
    return backend._shard._proc.pid


async def _serve(config, backends) -> None:
    from repro.serve import BlockServer

    server = BlockServer(config, backends)
    _, port = await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGINT, stop.set)
    print(json.dumps({
        "port": port,
        "pid": os.getpid(),
        "workers": [worker_pid(b) for b in backends],
    }), flush=True)
    await stop.wait()
    await server.close(drain=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--state-dir", required=True)
    ap.add_argument("--trace", default=None,
                    help="directory for span dumps (traced run)")
    args = ap.parse_args(argv)
    common.ensure_src()
    from repro.serve import make_backends

    wl = common.WORKLOADS[args.workload]
    config = server_config(wl, args.state_dir)
    tracer = None
    shard_of = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_server(tracer, Path(args.trace), shard_of)
    backends = make_backends(config, state_dir=args.state_dir)
    shard_of.update({id(b): i for i, b in enumerate(backends)})
    if tracer is not None:
        with open(Path(args.trace) / "workers.json", "w") as fh:
            json.dump([worker_pid(b) for b in backends], fh)
    try:
        asyncio.run(_serve(config, backends))
    finally:
        if tracer is not None:
            tracer.dump(Path(args.trace) / f"server-{os.getpid()}.pkl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
