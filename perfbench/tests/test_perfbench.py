"""The benchmark's own tests.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

* the metric catalogue and ``BENCHMARK.json`` agree;
* smoke mode: every workload, untraced and traced, with tiny durations,
  emits every metric with its unit and passes its checks;
* the paced generator charges a server stall to every request queued
  behind it (latency runs from the due time);
* without ``src/repro`` the command fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import layers  # noqa: E402

common.ensure_src()


def _run(*args: str, cwd: Path = ROOT, timeout: float = 300):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        common.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(common.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = layers.PER_LAYER if trace else layers.END_TO_END
    assert {n: u for n, u, _ in expected} == {
        n: m["unit"] for n, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name
    # every end-to-end name is printed with its unit in the report
    for name, unit, _ in layers.END_TO_END:
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in out.stdout.splitlines()), name
    assert not list((ROOT / ".perfbench_run").glob(f"{workload}-*"))


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env_free = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "mixed-64", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert env_free.returncode != 0
    assert '"correct"' not in env_free.stdout


class _StallingServer:
    """Answers every request in order; sleeps before answering one."""

    def __init__(self, stall_at: int, stall_s: float, esize: int) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_at, self.stall_s, self.esize = stall_at, stall_s, esize
        self.stalled_until = 0
        self.seen = 0
        self.lock = threading.Lock()
        self.threads = []
        self.accepter = threading.Thread(target=self._accept, daemon=True)
        self.accepter.start()

    def _accept(self) -> None:
        for _ in range(common.CONNECTIONS):
            conn, _ = self.listener.accept()
            t = threading.Thread(target=self._serve, args=(conn,),
                                 daemon=True)
            t.start()
            self.threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        from repro.serve.protocol import HEADER, OP_READ

        fh = conn.makefile("rb")
        while True:
            prefix = fh.read(4)
            if len(prefix) < 4:
                break
            body = fh.read(struct.unpack("!I", prefix)[0])
            op, _, _, count, _ = HEADER.unpack_from(body)
            with self.lock:
                self.seen += 1
                if self.seen == self.stall_at:
                    time.sleep(self.stall_s)
                    self.stalled_until = time.monotonic_ns()
            payload = bytes(count * self.esize) if op == OP_READ else b""
            conn.sendall(struct.pack("!I", 1 + len(payload)) + b"\0"
                         + payload)
        conn.close()

    def close(self) -> None:
        self.listener.close()
        for t in self.threads:
            t.join(timeout=5)


def test_stall_inflates_latency_of_queued_requests():
    import gen

    wl = common.Workload("stall", "serve", element_size=64,
                         stripes_per_shard=8, read_frac=0.5, rate=400.0)
    server = _StallingServer(stall_at=100, stall_s=0.3, esize=64)
    g = gen.Generator(server.port, wl, seed=3, num_elements=280)
    try:
        g.paced(1.5, seed=3)
    finally:
        g.close()
        server.close()
    rec = g.records()
    assert (rec["status"] == 0).all()
    lat = rec["done"] - rec["due"]
    stall_end = server.stalled_until
    stall_start = stall_end - int(0.3e9)
    behind = (rec["due"] >= stall_start) & (rec["due"] < stall_end)
    assert behind.sum() >= 50
    # every op due during the stall is answered only after it ends, and
    # is charged the wait from its due time — not from when it was sent
    assert (rec["done"][behind] >= stall_end).all()
    assert np.all(lat[behind] >= stall_end - rec["due"][behind])
    assert lat.max() >= 0.25e9
    # the generator itself kept to the schedule during the stall
    assert np.percentile(rec["sent"] - rec["due"], 99) < 0.05e9
