"""The rvlab benchmark: time to a verified report, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload theta-xi --seed 105 --seconds 55 --trace 0

Every run goes through ``rvlab.harness.run_experiment`` in a fresh child
interpreter (``bench/child.py``) with ``rvlab`` imported from ``src/`` and
OpenBLAS/OpenMP pinned to one thread, so workers x BLAS threads <= nproc.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance (nproc, versions, thread settings, commit, seeds) and
the report digest.

``--trace 0`` first runs the workload once at workers=1, then repeats it at
workers=2 until ``--seconds`` have passed (at least three times), with
tracing off:

- ``wall_s``: wall time of ``run_experiment`` plus CSV serialisation at
  workers=2, the time to a verified report; the mean over the timed runs.
- ``cpu_s``: user+sys CPU of the child and its pool workers over the same
  interval, also the mean over the timed runs.  It shows work moved into
  pool overhead.
- ``setup_s``: from the parent starting the child to ``rvlab.harness``
  imported and the config validated; the median over every child of the
  invocation.  Dominated by the ``scipy.stats`` import and the
  finite-difference validation of the integrands at import.
- ``peak_rss_mb``: the larger of the child's and its pool workers'
  ``ru_maxrss``; the median over the timed runs.

The three times are in gauge seconds.  On a shared host the speed of a core
drifts by up to about 1.7x in phases that last from tens of seconds to
minutes, longer than one invocation, so raw times of the same code spread
by more than their bound from one invocation to the next.  Each child
therefore times a fixed pure-Python loop (the gauge, ``child.py``) just
before and just after the experiment, on the same core, and each of its
times is scaled by ``GAUGE_NOMINAL_S / gauge time``: what the run would
have taken on a core running the gauge in its nominal time.  The gauge
uses no ``rvlab`` code, so a change to the program moves the scaled times
as it moves the raw ones.  Within an invocation the mean is used for wall
and CPU time because it weighs the phases by the time spent in them where
the median of a handful of runs snaps to one of them.  The raw times and
the gauge times of every run are printed with the provenance.

Output checks, counted in ``failed``: a run fails if it raises, if any
report flag is false, or if its report bytes differ from the first report of
the invocation.  That one rule covers the repeats at workers=2, the
workers=1 run and, with tracing on, traced against untraced runs.  The
report digest is printed but not compared across commits, because a change
to the random-stream contract changes the bytes on purpose.

``--trace 1`` runs the workload untraced at workers=2, once at workers=2
with only the pool and harness spans, then alternates untraced and traced
runs at workers=1 while another pair fits in ``--seconds`` (at least one
pair), and reports per-layer medians (see ``bench/spans.py``).  The layer
each metric belongs to, and the end-to-end metric it is predicted to move:

- ``core.stream_*`` (``SeedSpec.stream``), ``fbm.sample_*`` (self time of
  ``sample_fbm_circulant``/``_cholesky``), ``fbm.multi_s`` (self time of
  ``sample_fbm_multi``), ``fbm.nodes``: a small share of wall_s on theta-xi
  (n=4096, one call per replication and dimension); flat on kernel-check.
- ``ito.xi_*``: wall_s, cpu_s and peak_rss_mb on theta-xi; flat elsewhere.
  ``ito.transform_*`` (``divergence_via_ito[_multi]``) is zero on these
  workloads and is kept for the planned single convergence engine.
- ``bessel.theta_*``: a small share of wall_s on theta-xi.
- ``variation.vnq_*``: a small share of wall_s on theta-xi.
- ``kernel.*``: wall_s on kernel-check only.
- ``report.aggregate_s``, ``report.serialize_s``: negligible everywhere;
  kept so that a regression shows.
- ``parallel.map_*`` (from the workers=2 run) and ``parallel.speedup``
  (untraced workers=1 wall / workers=2 wall): wall_s on theta-xi, the
  pooled workload; cpu_s should not move.  At workers=1 the
  per-replication glue of the experiment runs inside the map span and
  counts as its self time.
- ``harness.run_s``, ``harness.unattributed_s`` (self time of
  ``run_experiment``), ``trace.coverage`` (attributed / run time) and
  ``trace.overhead_ratio`` (traced / untraced workers=1 wall).

Layers a workload never reaches read 0.  ``fbm.nodes``, ``ito.xi_flops``,
``ito.xi_bytes`` and ``kernel.kernel_K_per_cell`` are computed from argument
shapes and the config, not counted by hardware.

Workloads (``--seed`` replaces the acceptance-suite master seed; sizes and
gates are the acceptance-suite ones).  Each is one hot spot of the time
profile, and each bypasses the other's:

- ``theta-xi``: Theta variation, d=3, H=0.45, n=4096, 40 replications.
  ``ito.xi_mc_target`` takes ~98% of the time; the sampler and V_n^q under
  2%.  Exercises the xi-MC target and the process pool.
- ``kernel-check``: kernel reproduction, H=0.3, lattice 7, rtol 1e-6.  The
  only workload that reaches ``rvlab.kernel`` (nested quadrature of
  ``kernel_K``); no randomness and no pool, so ``--seed`` is unused and a
  sampler or xi change should leave it unchanged.

Two hot spots are not workloads, so that the two above can each run long
enough to average out the drift in host speed: the per-call overhead of
sampling and stream derivation at small n (negative moments at n=8), and
the FFT sampler and ``variation_Vnq`` at large n (an fBm variation sweep).
The first runs interpreter-bound code on both cores, which the one-core
gauge cannot follow, and spread the most from one invocation to the next;
leaving out the second makes room for longer runs.  Their layers are still measured on theta-xi, as a small share of
its time.

``covariance-check`` is deliberately not a workload: its max-|z| gate fails
under correct samplers for some seeds, so a failure count would measure
seed luck.  The Cholesky sampler stays unmeasured until that gate is fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKERS = 2
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
# The gauge's time (before plus after one run) on the host the bounds were
# set on, a 2-vCPU x86-64 cloud VM with Python 3.11.  It only fixes the
# unit; any constant would do, provided both sides of a comparison use it.
GAUGE_NOMINAL_S = 0.30
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    config: dict
    seed: int | None  # default master seed; None when the experiment draws nothing


WORKLOADS = {
    "theta-xi": Workload(
        {
            "experiment": "theta-variation",
            "dimension": 3,
            "hurst": 0.45,
            "grid_sizes": [4096],
            "replications": 40,
        },
        seed=105,
    ),
    "kernel-check": Workload(
        {"experiment": "kernel-check", "hurst": 0.3, "params": {"lattice": 7, "rtol": 1e-6}},
        seed=None,
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "core.stream_calls": "count",
    "core.stream_s": "s",
    "fbm.sample_calls": "count",
    "fbm.sample_s": "s",
    "fbm.multi_s": "s",
    "fbm.nodes": "count",
    "ito.xi_calls": "count",
    "ito.xi_s": "s",
    "ito.xi_flops": "flop",
    "ito.xi_bytes": "B",
    "ito.xi_gflops": "GFLOP/s",
    "ito.transform_calls": "count",
    "ito.transform_s": "s",
    "bessel.theta_calls": "count",
    "bessel.theta_s": "s",
    "variation.vnq_calls": "count",
    "variation.vnq_s": "s",
    "kernel.kernel_K_calls": "count",
    "kernel.kernel_K_s": "s",
    "kernel.kernel_K_per_cell": "count",
    "kernel.quad_s": "s",
    "report.aggregate_s": "s",
    "report.serialize_s": "s",
    "parallel.map_calls": "count",
    "parallel.map_s": "s",
    "parallel.speedup": "1",
    "harness.run_s": "s",
    "harness.unattributed_s": "s",
    "trace.coverage": "1",
    "trace.overhead_ratio": "1",
}


def run_child(config: dict, workers: int, trace: str = "off") -> dict | None:
    """Run one experiment in a fresh interpreter; None if it failed."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    job = {"config": config, "workers": workers, "trace": trace, "src": str(SRC)}
    job["spawn_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"run exited with {proc.returncode}:\n{err}", file=sys.stderr)
        return None
    return json.loads(out.splitlines()[-1])


class OutputCheck:
    """Counts runs that raised, have a false flag, or changed report bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.problems: list[str] = []

    def __call__(self, result: dict | None, label: str) -> None:
        self.attempted += 1
        if result is None:
            problem = "raised or died"
        elif not all(result["flags"].values()):
            problem = f"false flags {sorted(k for k, v in result['flags'].items() if not v)}"
        elif self.reference is None:
            self.reference = result["report"]
            return
        elif result["report"] != self.reference:
            problem = "report bytes differ from the first run"
        else:
            return
        self.failed += 1
        self.problems.append(f"{label}: {problem}")


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _gauged(result: dict, key: str) -> float:
    """A time of one run, in gauge seconds (see the module docstring)."""
    return result[key] * GAUGE_NOMINAL_S / result["gauge_s"]


def end_to_end(config: dict, seconds: float, check: OutputCheck) -> tuple[dict, list]:
    deadline = time.monotonic() + seconds
    first = run_child(config, 1)
    check(first, "workers=1")
    timed = []
    attempts = 0
    while attempts < MIN_RUNS or time.monotonic() < deadline:
        attempts += 1
        result = run_child(config, WORKERS)
        check(result, f"workers={WORKERS} run {attempts}")
        if result is not None:
            timed.append(result)
    if not timed:
        raise RuntimeError("no run at workers=2 completed")
    runs = [r for r in (first, *timed) if r is not None]
    metrics = {
        key: statistics.fmean(_gauged(r, key) for r in timed) for key in ("wall_s", "cpu_s")
    }
    metrics["peak_rss_mb"] = _median(timed, "peak_rss_mb")
    metrics["setup_s"] = statistics.median(_gauged(r, "setup_s") for r in runs)
    return metrics, runs


def layer_metrics(traced: dict, pool: dict) -> dict:
    """Per-layer numbers of one traced workers=1 run and the pool run."""
    spans = traced["spans"]
    calls, self_s, counts = spans["calls"], spans["self_s"], spans["counts"]
    run_s = spans["total_s"]["harness.run"]
    xi_s = self_s.get("ito.xi", 0.0)
    cells = calls.get("kernel.quad", 0)
    return {
        "core.stream_calls": calls.get("core.stream", 0),
        "core.stream_s": self_s.get("core.stream", 0.0),
        "fbm.sample_calls": calls.get("fbm.sample", 0),
        "fbm.sample_s": self_s.get("fbm.sample", 0.0),
        "fbm.multi_s": self_s.get("fbm.multi", 0.0),
        "fbm.nodes": counts.get("fbm.nodes", 0),
        "ito.xi_calls": calls.get("ito.xi", 0),
        "ito.xi_s": xi_s,
        "ito.xi_flops": counts.get("ito.xi_flops", 0),
        "ito.xi_bytes": counts.get("ito.xi_bytes", 0),
        "ito.xi_gflops": counts.get("ito.xi_flops", 0) / xi_s / 1e9 if xi_s else 0.0,
        "ito.transform_calls": calls.get("ito.transform", 0),
        "ito.transform_s": self_s.get("ito.transform", 0.0),
        "bessel.theta_calls": calls.get("bessel.theta", 0),
        "bessel.theta_s": self_s.get("bessel.theta", 0.0),
        "variation.vnq_calls": calls.get("variation.vnq", 0),
        "variation.vnq_s": self_s.get("variation.vnq", 0.0),
        "kernel.kernel_K_calls": calls.get("kernel.kernel_K", 0),
        "kernel.kernel_K_s": self_s.get("kernel.kernel_K", 0.0),
        "kernel.kernel_K_per_cell": calls.get("kernel.kernel_K", 0) / cells if cells else 0.0,
        "kernel.quad_s": self_s.get("kernel.quad", 0.0),
        "report.aggregate_s": self_s.get("report.aggregate", 0.0),
        "report.serialize_s": self_s.get("report.serialize", 0.0),
        "parallel.map_calls": pool["spans"]["calls"].get("parallel.map", 0),
        "parallel.map_s": pool["spans"]["self_s"].get("parallel.map", 0.0),
        "harness.run_s": run_s,
        "harness.unattributed_s": self_s["harness.run"],
        "trace.coverage": 1.0 - self_s["harness.run"] / run_s,
    }


def per_layer(config: dict, seconds: float, check: OutputCheck) -> tuple[dict, list]:
    deadline = time.monotonic() + seconds
    w2 = run_child(config, WORKERS)
    check(w2, f"workers={WORKERS}")
    pool = run_child(config, WORKERS, "pool")
    check(pool, f"traced pool workers={WORKERS}")
    if w2 is None or pool is None:
        raise RuntimeError("the workers=2 or pool run failed")
    plain, traced = [], []
    pairs, pair_s = 0, 0.0
    while pairs == 0 or time.monotonic() + pair_s < deadline:
        pairs += 1
        pair_start = time.monotonic()
        for mode, runs in (("off", plain), ("all", traced)):
            result = run_child(config, 1, mode)
            check(result, f"workers=1 trace={mode} pair {pairs}")
            if result is not None:
                runs.append(result)
        pair_s = time.monotonic() - pair_start
    if not plain or not traced:
        raise RuntimeError("no untraced or no traced workers=1 run completed")
    samples = [layer_metrics(t, pool) for t in traced]
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    w1_wall = _median(plain, "wall_s")
    metrics["parallel.speedup"] = w1_wall / w2["wall_s"]
    metrics["trace.overhead_ratio"] = _median(traced, "wall_s") / w1_wall
    return metrics, [w2, pool, *plain, *traced]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rvlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int | None, config: dict, versions: dict) -> dict:
    return {
        "workload": name,
        "seed_argument": seed,
        "master_seed": config.get("master_seed"),
        "config": config,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "versions": versions,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "computed_metrics": [
            "fbm.nodes", "ito.xi_flops", "ito.xi_bytes", "kernel.kernel_K_per_cell",
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the workload's acceptance-suite seed)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rvlab" / "__init__.py").is_file():
        print(f"no rvlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = dict(workload.config)
    if workload.seed is not None:
        config["master_seed"] = workload.seed if args.seed is None else args.seed

    check = OutputCheck()
    measure = per_layer if args.trace else end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        metrics, runs = measure(config, args.seconds, check)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}; {check.problems}", file=sys.stderr)
        return 1

    info = provenance(args.workload, args.seed, config, runs[0]["versions"])
    info["samples"] = {
        key: [r[key] for r in runs]
        for key in ("workers", "trace", "setup_s", "wall_s", "cpu_s", "gauge_s")
    }
    info["report_sha256"] = hashlib.sha256((check.reference or "").encode()).hexdigest()
    info["fail_ratio"] = check.failed / check.attempted
    info["problems"] = check.problems
    for key in units:
        print(f"{key} = {metrics[key]:.6g} {units[key]}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
