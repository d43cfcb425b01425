"""One timed run of the benchmark, in a fresh interpreter.

Usage: ``python3 bench/child.py '<job json>'``, where the job holds the
experiment ``config``, ``workers``, ``trace`` (``off``, ``all`` or ``pool``),
``src`` (the directory ``rvlab`` must be imported from) and ``spawn_ns``, the
parent's CLOCK_MONOTONIC reading taken just before it started this process.

Prints one JSON line: set-up, wall and CPU seconds, peak RSS, the time of
the speed gauge run just before and just after the experiment, the report
flags and CSV text, and with tracing on the per-layer span summary.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

GAUGE_LOOPS = 1_500_000


def _gauge_s() -> float:
    """Seconds of a fixed pure-Python loop: how fast this core runs now.

    It uses nothing from ``rvlab``, so a change to the program under test
    leaves it alone, while a slow phase of the shared host slows it too.
    """
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    import rvlab
    from rvlab import harness

    if not os.path.abspath(rvlab.__file__).startswith(job["src"] + os.sep):
        print(f"rvlab imported from {rvlab.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    config = harness.ExperimentConfig.from_dict(job["config"])
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - job["spawn_ns"]) / 1e9

    recorder = None
    if job["trace"] != "off":
        from spans import POOL_LAYERS, Recorder

        recorder = Recorder()
        recorder.install(POOL_LAYERS if job["trace"] == "pool" else None)

    gauge_s = _gauge_s()
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    report = harness.run_experiment(config, workers=job["workers"])
    text = report.to_csv()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    gauge_s += _gauge_s()
    result = {
        "workers": job["workers"],
        "trace": job["trace"],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "gauge_s": gauge_s,
        "flags": report.flags,
        "report": text,
        "versions": _versions(),
    }
    if recorder is not None:
        result["spans"] = recorder.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
