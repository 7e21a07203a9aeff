"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed-64 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice (untraced, then traced, ``--seconds`` split between
them) and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness or process-hygiene check prints ``"correct": false`` with
no metrics and exits 1.  Without a ``src/repro`` next to this directory
the benchmark exits 2 before printing a result.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402


def _report(workload: str, host: dict, result: dict, trace: bool) -> None:
    print(f"perfbench {workload}  host: " + json.dumps(host))
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for name, value in result["e2e"].items():
        print(f"  {name:<32} {value:>14.4f} {layers.UNITS[name]}")
    for name, value in sorted(result.get("extra", {}).items()):
        if name not in result["e2e"]:
            print(f"  {name:<32} {value:>14.4f} "
                  f"{layers.UNITS.get(name, '')}".rstrip())
    if trace:
        for name, value in result["traced_e2e"].items():
            print(f"  traced {name:<25} {value:>14.4f} "
                  f"{layers.UNITS[name]}")
        for name, value in result["layers"].items():
            print(f"  {name:<36} {value:>14.4f} {layers.UNITS[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(common.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        common.ensure_src()
    except common.MissingProgram as exc:
        return int(exc.code)

    import rebuild
    import serving

    wl = common.WORKLOADS[args.workload]
    # builds the XOR kernel on a fresh checkout, before anything is timed
    host = common.host_info(args.seed)
    rundir = common.run_dir(wl.name)
    trace = bool(args.trace)
    try:
        module = rebuild if wl.kind == "rebuild" else serving
        result = module.run(wl, args.seed, args.seconds, trace, rundir)
    except (serving.CheckFailed, rebuild.CheckFailed) as exc:
        print(f"perfbench {wl.name}: CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    _report(wl.name, host, result, trace)
    values = result["layers"] if trace else result["e2e"]
    names = layers.PER_LAYER if trace else layers.END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
