"""The ``rebuild`` workload: disk reconstruction through the public
:class:`~repro.array.RAID6Volume` API, in the benchmark process (the
block service has no rebuild op).

Set-up builds a 4 KiB-element D-Code volume and fills it with seeded
bytes.  The timed part repeats a cycle in seeded order: every disk
fails alone and is rebuilt by ``replace_and_rebuild`` (the hybrid
single-failure plan), and every pair of disks fails together and both
are rebuilt — the first through the double-failure chain-decoder path,
the second through the single-failure path again.  Only the
``replace_and_rebuild`` calls are timed.  ``ops_s`` is the rate of
single-failure rebuilds and ``mb_s`` the bytes per second of the
double-failure ones, so each path has a gated metric of its own.
After every call the rebuilt disk must hold exactly its pre-failure
bytes; at the end ``scrub()`` must report no stripe.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import common
import layers


class CheckFailed(Exception):
    """A rebuilt disk or the final scrub disagreed with the original."""


def build_volume(wl: common.Workload, seed: int):
    from repro.array import RAID6Volume
    from repro.codes.registry import make_code

    volume = RAID6Volume(
        make_code(common.CODE, common.PRIME),
        num_stripes=wl.rebuild_stripes,
        element_size=wl.element_size,
    )
    volume.write(0, common.prefill_image(seed, volume.num_elements,
                                         wl.element_size))
    return volume


def _disk_bytes(volume, disk: int) -> np.ndarray:
    d = volume.disks[disk]
    return d.read_block(np.arange(volume.mapper.disk_capacity))


def _cycle(seed: int, cycle: int, disks: int) -> List[Tuple[int, ...]]:
    """One seeded cycle: every disk alone and every pair, shuffled."""
    rng = np.random.default_rng([seed, 0x2EB, cycle])
    groups = [(d,) for d in range(disks)]
    groups += list(itertools.combinations(range(disks), 2))
    return [groups[i] for i in rng.permutation(len(groups))]


def timed_rebuilds(volume, seed: int, seconds: float) -> Dict[str, list]:
    """Rebuild until ``seconds`` of wall time have passed.

    Returns per-call ``kind`` ("single" / "double"), duration (s),
    disk reads, elements rebuilt and the call's monotonic interval."""
    disks = len(volume.disks)
    capacity = volume.mapper.disk_capacity
    original = [_disk_bytes(volume, d) for d in range(disks)]
    calls: Dict[str, list] = {"kind": [], "dur": [], "reads": [],
                              "elems": [], "t0": [], "t1": []}

    def rebuild(disk: int, kind: str) -> None:
        reads0 = sum(d.read_count for d in volume.disks)
        t0 = time.monotonic_ns()
        volume.replace_and_rebuild(disk)
        t1 = time.monotonic_ns()
        calls["kind"].append(kind)
        calls["dur"].append((t1 - t0) / 1e9)
        calls["reads"].append(sum(d.read_count for d in volume.disks)
                              - reads0)
        calls["elems"].append(capacity)
        calls["t0"].append(t0)
        calls["t1"].append(t1)

    def check(disk: int) -> None:
        if not np.array_equal(_disk_bytes(volume, disk), original[disk]):
            raise CheckFailed(f"rebuilt disk {disk} differs from its "
                              f"pre-failure bytes")

    deadline = time.monotonic() + seconds
    cycle = 0
    while time.monotonic() < deadline:
        for group in _cycle(seed, cycle, disks):
            if time.monotonic() >= deadline:
                break
            for disk in group:
                volume.fail_disk(disk)
            rebuild(group[0], "double" if len(group) == 2 else "single")
            if len(group) == 2:
                rebuild(group[1], "single")
            for disk in group:
                check(disk)
        cycle += 1
    bad = volume.scrub()
    if bad:
        raise CheckFailed(f"scrub after rebuilds flagged stripes {bad[:8]}")
    return calls


def _summary(calls: Dict[str, list], esize: int) -> Dict[str, float]:
    dur = np.array(calls["dur"])
    elems = np.array(calls["elems"], dtype=np.float64)
    kind = np.array(calls["kind"])
    single, double = kind == "single", kind == "double"

    def mb_s(mask) -> float:
        return float(elems[mask].sum() * esize / dur[mask].sum() / 1e6) \
            if mask.any() else 0.0

    return {
        "ops_s": int(single.sum()) / float(dur[single].sum()),
        "mb_s": mb_s(double),
        "e2e.p50_ms": common.pct(dur * 1e3, 50),
        "e2e.p99_ms": common.pct(dur * 1e3, 99),
        "rebuild_mb_s": mb_s(single),
        "rebuild2_mb_s": mb_s(double),
        "reads_per_rebuilt_elem": float(
            np.array(calls["reads"])[single].sum() / elems[single].sum()
        ) if single.any() else 0.0,
        "calls": int(len(dur)),
    }


def _traced_layers(tracer, calls: Dict[str, list],
                   summary: dict) -> Dict[str, float]:
    out = layers.empty_layers()
    t0 = np.array(calls["t0"], dtype=np.int64)
    t1 = np.array(calls["t1"], dtype=np.int64)

    def inside(name: str) -> List[tuple]:
        spans = tracer.spans.get(name, [])
        if not spans:
            return []
        starts = np.array([s[0] for s in spans], dtype=np.int64)
        i = np.searchsorted(t0, starts, side="right") - 1
        ok = (i >= 0) & (starts < t1[np.clip(i, 0, None)])
        return [s for s, keep in zip(spans, ok) if keep]

    def total_ms(*names: str) -> float:
        return sum(s[1] - s[0] for n in names for s in inside(n)) / 1e6

    def self_us(*names: str) -> float:
        return sum(s[2] for n in names for s in inside(n)) / 1e3 / len(t0)

    out["volume.rebuild_mb_s"] = summary["rebuild_mb_s"]
    out["volume.rebuild2_mb_s"] = summary["rebuild2_mb_s"]
    out["recovery.reads_per_rebuilt_elem"] = summary["reads_per_rebuilt_elem"]
    out["codec.decode_ms.sum"] = total_ms("codec.decode")
    out["codec.encode_ms.sum"] = total_ms("codec.encode")
    out["disk.read_block_ms.sum"] = total_ms("disk.read_block")
    out["disk.write_block_ms.sum"] = total_ms("disk.write_block")
    out["self.volume_us_per_op"] = self_us("volume.rebuild")
    out["self.codec_us_per_op"] = self_us("codec.decode", "codec.encode")
    out["self.disk_us_per_op"] = self_us("disk.read_block",
                                         "disk.write_block")
    ratios = []
    for s in tracer.spans.get("volume.rebuild", []):
        vec = np.asarray(s[6], dtype=np.float64)
        live = vec[vec > 0]
        if live.size:
            ratios.append(float(live.max() / live.mean()))
    if ratios:
        out["volume.load_max_over_mean"] = float(np.mean(ratios))
    # per call: the time lower layers (codec, disk, planner) claimed;
    # the rest is the volume's own XOR and bookkeeping
    claimed = np.zeros(len(t0))
    for name in ("codec.decode", "codec.encode", "disk.read_block",
                 "disk.write_block", "recovery.plan"):
        for s in inside(name):
            i = int(np.searchsorted(t0, s[0], side="right")) - 1
            claimed[i] += s[1] - s[0]
    out["e2e.unattributed_p50_ms"] = summary["e2e.p50_ms"] - common.pct(
        claimed / 1e6, 50)
    return out


def measured_pass(wl: common.Workload, seed: int, seconds: float,
                  setup_reps: int = common.SETUP_REPS) -> tuple:
    setups = []
    volume = None
    for _ in range(setup_reps):
        volume = None  # free the previous copy before building the next
        t0 = time.perf_counter()
        volume = build_volume(wl, seed)
        setups.append(time.perf_counter() - t0)
    ticks0 = common.cpu_ticks()
    calls = timed_rebuilds(volume, seed, seconds)
    ticks1 = common.cpu_ticks()
    summary = _summary(calls, wl.element_size)
    summary["host.steal_frac"] = common.steal_frac(ticks0, ticks1)
    summary["setup_s"] = common.median(setups)
    return calls, summary


def run(wl: common.Workload, seed: int, seconds: float, trace: bool,
        rundir: Path) -> dict:
    e2e_keys = [name for name, _, _ in layers.END_TO_END]
    if not trace:
        calls, summary = measured_pass(wl, seed, seconds)
        summary["rss_mb"] = common.peak_rss_mib(os.getpid())
        return {"e2e": {k: summary[k] for k in e2e_keys},
                "extra": summary, "attempted": len(calls["dur"]),
                "failed": 0}
    import tracing

    calls, base = measured_pass(wl, seed, seconds / 2, 1)
    base["rss_mb"] = common.peak_rss_mib(os.getpid())
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    traced_calls, traced = measured_pass(wl, seed, seconds / 2, 1)
    traced["rss_mb"] = common.peak_rss_mib(os.getpid())
    out = _traced_layers(tracer, traced_calls, traced)
    out["e2e.p50_ms"] = base["e2e.p50_ms"]  # untraced by definition
    out["e2e.p99_ms"] = base["e2e.p99_ms"]
    out["host.steal_frac"] = base["host.steal_frac"]
    out["trace.overhead_p50_ms"] = traced["e2e.p50_ms"] - base["e2e.p50_ms"]
    out["trace.overhead_ops_frac"] = 1.0 - traced["ops_s"] / base["ops_s"]
    return {"layers": out, "e2e": {k: base[k] for k in e2e_keys},
            "traced_e2e": {k: traced[k] for k in e2e_keys},
            "extra": base,
            "attempted": len(calls["dur"]) + len(traced_calls["dur"]),
            "failed": 0}
