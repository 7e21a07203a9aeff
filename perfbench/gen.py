"""Load generator process: paced phase, then closed-loop phase.

Runs single-threaded on a ``selectors`` loop over at most two
non-blocking TCP connections, in its own process, so none of its cost
lands on the server's event loop.

* **Paced phase** — Poisson arrivals at the workload's fixed rate.  Each
  op is timed from the instant it was *due*, not from when it reached
  the socket, so a server stall also charges every request that queued
  behind it; how late the generator itself sent each op is recorded
  separately (``late_ns``) as a validity check.
* **Closed-loop phase** — each connection keeps a fixed window of
  pipelined requests in flight; ops/s is the completions inside the
  phase over its length.

No op is retried: a non-OK status is recorded and counted as failed.
Each READ reply is reduced to a CRC-32 digest on arrival; comparing it
with the expected bytes happens after the run (``verify.py``).

Usage (normally started by ``run.py``)::

    python perfbench/gen.py --port P --workload NAME --seed N \
        --paced-s S --closed-s S --out FILE [--pids PID ...]
"""

from __future__ import annotations

import argparse
import json
import selectors
import socket
import struct
import sys
import time
from collections import deque
from typing import List

import numpy as np

import common

_LEN = struct.Struct("!I")
PHASE_PACED = 0
PHASE_CLOSED = 1
#: Give up on replies this long after the last op was sent.
DRAIN_TIMEOUT_S = 30.0


class _Conn:
    def __init__(self, sock: socket.socket, cid: int,
                 stream: common.OpStream) -> None:
        self.sock = sock
        self.cid = cid
        self.stream = stream
        self.out = bytearray()
        self.inb = bytearray()
        self.pending: deque = deque()
        self.next = 0
        self.want_write = False


class Generator:
    """Drives one workload's two phases and records every op."""

    def __init__(self, port: int, wl: common.Workload,
                 seed: int, num_elements: int) -> None:
        from repro.serve.protocol import HEADER, OP_READ, OP_WRITE

        self.wl = wl
        self.header = HEADER
        self.op_read, self.op_write = OP_READ, OP_WRITE
        self.pool = memoryview(common.payload_pool(seed).tobytes())
        self.sel = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        for cid, (base, region) in enumerate(
            common.conn_regions(num_elements)
        ):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock, cid, common.OpStream(seed, cid, base,
                                                    region, wl))
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        # one record per issued op (parallel lists, converted at the end)
        self.r_conn: List[int] = []
        self.r_idx: List[int] = []
        self.r_read: List[bool] = []
        self.r_phase: List[int] = []
        self.r_due: List[int] = []
        self.r_sent: List[int] = []
        self.r_done: List[int] = []
        self.r_status: List[int] = []
        self.r_digest: List[int] = []

    # -- wire ------------------------------------------------------------------

    def _issue(self, conn: _Conn, due: int, now: int, phase: int) -> None:
        k = conn.next
        conn.next += 1
        stream = conn.stream
        stream.ensure(k + 1)
        is_read = stream.is_read[k]
        start, count = stream.start[k], stream.count[k]
        if is_read:
            head = self.header.pack(self.op_read, conn.cid, start, count, 0)
            conn.out += _LEN.pack(len(head))
            conn.out += head
        else:
            off = stream.offset[k]
            payload = self.pool[off:off + count * self.wl.element_size]
            head = self.header.pack(self.op_write, conn.cid, start, count, 0)
            conn.out += _LEN.pack(len(head) + len(payload))
            conn.out += head
            conn.out += payload
        conn.pending.append(len(self.r_conn))
        self.r_conn.append(conn.cid)
        self.r_idx.append(k)
        self.r_read.append(is_read)
        self.r_phase.append(phase)
        self.r_due.append(due)
        self.r_sent.append(now)
        self.r_done.append(-1)
        self.r_status.append(-1)
        self.r_digest.append(0)

    def _flush(self, conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
            except (BlockingIOError, InterruptedError):
                pass
        want = bool(conn.out)
        if want != conn.want_write:
            conn.want_write = want
            self.sel.modify(
                conn.sock,
                selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0),
                conn,
            )

    def _receive(self, conn: _Conn, now: int) -> List[int]:
        """Read what arrived; returns the record ids answered."""
        try:
            data = conn.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        inb = conn.inb
        inb += data
        done: List[int] = []
        pos = 0
        view = memoryview(inb)
        try:
            while len(inb) - pos >= 4:
                (length,) = _LEN.unpack_from(inb, pos)
                if len(inb) - pos - 4 < length:
                    break
                body = pos + 4
                rid = conn.pending.popleft()
                status = inb[body]
                self.r_done[rid] = now
                self.r_status[rid] = status
                if self.r_read[rid]:
                    self.r_digest[rid] = common.digest(
                        view[body + 1:body + length]
                    )
                done.append(rid)
                pos = body + length
        finally:
            view.release()
        del inb[:pos]
        return done

    def _poll(self, timeout: float) -> List[int]:
        answered: List[int] = []
        for key, events in self.sel.select(timeout):
            conn = key.data
            now = time.monotonic_ns()
            if events & selectors.EVENT_READ:
                answered.extend(self._receive(conn, now))
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
        return answered

    def _outstanding(self) -> int:
        return sum(len(c.pending) for c in self.conns)

    def _drain(self) -> None:
        limit = time.monotonic() + DRAIN_TIMEOUT_S
        while self._outstanding() and time.monotonic() < limit:
            for conn in self.conns:
                self._flush(conn)
            self._poll(0.05)

    # -- phases ----------------------------------------------------------------

    def paced(self, seconds: float, seed: int) -> tuple:
        """Poisson arrivals at ``wl.rate`` for ``seconds``."""
        rng = np.random.default_rng([seed, 0xA11])
        n = int(self.wl.rate * seconds * 1.5) + 64
        gaps = rng.exponential(1.0 / self.wl.rate, size=n)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < seconds]
        t0 = time.monotonic_ns()
        due = (t0 + arrivals * 1e9).astype(np.int64).tolist()
        i, total = 0, len(due)
        while i < total:
            now = time.monotonic_ns()
            while i < total and due[i] <= now:
                conn = self.conns[i % len(self.conns)]
                self._issue(conn, due[i], now, PHASE_PACED)
                self._flush(conn)
                i += 1
            if i < total:
                self._poll(max(0.0, (due[i] - time.monotonic_ns()) / 1e9))
        self._drain()
        return t0, t0 + int(seconds * 1e9)

    def closed(self, seconds: float) -> tuple:
        """Fixed pipelining window per connection for ``seconds``."""
        t0 = time.monotonic_ns()
        t_end = t0 + int(seconds * 1e9)
        for conn in self.conns:
            for _ in range(self.wl.window):
                self._issue(conn, t0, t0, PHASE_CLOSED)
            self._flush(conn)
        while True:
            now = time.monotonic_ns()
            if now >= t_end:
                break
            for rid in self._poll(max(0.0, (t_end - now) / 1e9)):
                if self.r_done[rid] < t_end:
                    conn = self.conns[self.r_conn[rid]]
                    self._issue(conn, self.r_done[rid],
                                time.monotonic_ns(), PHASE_CLOSED)
            for conn in self.conns:
                self._flush(conn)
        self._drain()
        return t0, t_end

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def records(self) -> dict:
        return {
            "conn": np.array(self.r_conn, dtype=np.int8),
            "idx": np.array(self.r_idx, dtype=np.int64),
            "read": np.array(self.r_read, dtype=bool),
            "phase": np.array(self.r_phase, dtype=np.int8),
            "due": np.array(self.r_due, dtype=np.int64),
            "sent": np.array(self.r_sent, dtype=np.int64),
            "done": np.array(self.r_done, dtype=np.int64),
            "status": np.array(self.r_status, dtype=np.int16),
            "digest": np.array(self.r_digest, dtype=np.uint32),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--paced-s", type=float, required=True)
    ap.add_argument("--closed-s", type=float, required=True)
    ap.add_argument("--num-elements", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pids", type=int, nargs="*", default=[],
                    help="server pid, then shard worker pids (CPU probes)")
    args = ap.parse_args(argv)
    common.ensure_src()
    wl = common.WORKLOADS[args.workload]
    gen = Generator(args.port, wl, args.seed, args.num_elements)
    try:
        paced = gen.paced(args.paced_s, args.seed)
        cpu0 = [common.cpu_seconds(p) for p in args.pids]
        own0 = time.process_time()
        closed = gen.closed(args.closed_s)
        own1 = time.process_time()
        cpu1 = [common.cpu_seconds(p) for p in args.pids]
    finally:
        gen.close()
    np.savez(args.out, **gen.records())
    meta = {
        "paced": list(paced),
        "closed": list(closed),
        "cpu_closed": [b - a for a, b in zip(cpu0, cpu1)],
        "gen_cpu_closed": own1 - own0,
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
