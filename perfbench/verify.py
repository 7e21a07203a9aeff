"""Post-run correctness checks, all off the timed path.

Serving workloads:

* every OK READ reply's digest must match the bytes the seeded op
  stream says the address range held when the READ was issued (each
  connection owns a disjoint region and the server executes one
  connection's ops in order, so issue order is execution order);
* the final served image (:func:`repro.serve.loadgen.fetch_image`) must
  be byte-equal to a :func:`repro.serve.loadgen.replay_writes` replay
  of the acknowledged writes into a direct, healthy
  :class:`~repro.array.RAID6Volume` — for degraded workloads this
  checks every byte the failed disks held was decoded correctly.

A WRITE answered BUSY or DEADLINE never ran and is skipped.  A WRITE
answered RETRY or ERROR, or never answered, may or may not have landed,
so its elements are excluded from later checks until an acknowledged
write covers them again.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import common


def verify_serving(wl: common.Workload, seed: int, num_elements: int,
                   rec: Dict[str, np.ndarray], image: bytes) -> List[str]:
    """Return the list of failed checks (empty = correct)."""
    from repro.array import RAID6Volume
    from repro.codes.registry import make_code
    from repro.serve.loadgen import replay_writes
    from repro.serve.protocol import ST_BUSY, ST_DEADLINE, ST_OK

    esize = wl.element_size
    prefill = common.prefill_image(seed, num_elements, esize)
    pool = common.payload_pool(seed)
    shadow = prefill.copy()
    unknown = np.zeros(num_elements, dtype=bool)
    logs: Dict[int, list] = {}
    errors: List[str] = []
    bad_reads = 0
    for cid, (base, region) in enumerate(common.conn_regions(num_elements)):
        mine = np.flatnonzero(rec["conn"] == cid)
        if not mine.size:
            continue
        idx = rec["idx"][mine]
        if np.any(np.diff(idx) != 1) or idx[0] != 0:
            errors.append(f"connection {cid}: op records out of order")
            continue
        stream = common.OpStream(seed, cid, base, region, wl)
        stream.ensure(int(idx[-1]) + 1)
        log = logs.setdefault(cid, [])
        for r, k in zip(mine.tolist(), idx.tolist()):
            start, count = stream.start[k], stream.count[k]
            end = start + count
            status = int(rec["status"][r])
            if stream.is_read[k]:
                if status != ST_OK or unknown[start:end].any():
                    continue
                if common.digest(shadow[start:end].tobytes()) != \
                        int(rec["digest"][r]):
                    bad_reads += 1
            elif status == ST_OK:
                off = stream.offset[k]
                payload = pool[off:off + count * esize]
                shadow[start:end] = payload.reshape(count, esize)
                unknown[start:end] = False
                log.append((start, payload.tobytes()))
            elif status not in (ST_BUSY, ST_DEADLINE):
                unknown[start:end] = True
    if bad_reads:
        errors.append(f"{bad_reads} READ replies differ from the shadow")

    direct = RAID6Volume(
        make_code(common.CODE, common.PRIME),
        num_stripes=common.SHARDS * wl.stripes_per_shard,
        element_size=esize,
    )
    direct.write(0, prefill.copy())
    replay_writes(direct, logs)
    replayed = direct.read(0, num_elements)
    served = np.frombuffer(image, dtype=np.uint8)
    if served.size != num_elements * esize:
        errors.append(
            f"served image has {served.size} bytes, "
            f"expected {num_elements * esize}"
        )
        return errors
    served = served.reshape(num_elements, esize)
    known = ~unknown
    if not np.array_equal(served[known], replayed[known]):
        diff = int(np.any(served[known] != replayed[known], axis=1).sum())
        errors.append(
            f"served image differs from the direct replay in {diff} "
            f"elements"
        )
    if not np.array_equal(replayed[known], shadow[known]):
        errors.append("direct replay differs from the shadow image")
    return errors
