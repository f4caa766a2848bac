"""Time one workload's set-up in this fresh interpreter.

``python setup_probe.py WORKLOAD SEED`` (with ``src`` on ``PYTHONPATH``)
imports ``repro`` through :mod:`workloads`, builds the workload, and
prints one JSON line: raw and calibrated seconds of the whole set-up and
of the build alone.  ``run.py`` starts several of these and reports the
median.
"""

from __future__ import annotations

import json
import sys
import time

import calibrate


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    calibrate.reference_ms()  # the first run pays for warming the loop
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        import workloads

        t1 = time.perf_counter()
        workloads.build(name, seed)
        t2 = time.perf_counter()
    net, ref_ms = sampler.window(t0, t2)
    net_build, _ = sampler.window(t1, t2)
    factor = calibrate.scale(ref_ms)
    print(json.dumps({
        "raw_s": t2 - t0,
        "setup_s": net * factor,
        "session_build_s": net_build * factor,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
