"""Span recorder for the traced pass of the benchmark.

The recorder wraps the public entry points of each ``rvlab`` layer from the
outside; nothing inside ``rvlab`` knows about it.  A wrapped call records a
span (start, end) on a stack, so a layer's self time is its span minus the
spans of wrapped calls made beneath it.  Spans are folded into per-layer
totals in memory as they close.

Modules bind helpers with ``from ... import``, so patching the defining
module alone would miss most callers: :meth:`Recorder.install` replaces every
module-level name in ``rvlab`` that refers to the wrapped function.
Methods (``SeedSpec.stream``, ``Report.to_csv``) are patched on the class.

The counts labelled *computed* (``fbm.nodes``, ``ito.xi_flops``,
``ito.xi_bytes``) come from argument shapes, not from hardware counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (layer, module, attribute): the functions whose spans make up each layer.
# A dotted attribute is a method, patched on its class.
LAYERS = (
    ("core.stream", "rvlab.core", "SeedSpec.stream"),
    ("fbm.sample", "rvlab.fbm", "sample_fbm_circulant"),
    ("fbm.sample", "rvlab.fbm", "sample_fbm_cholesky"),
    ("fbm.multi", "rvlab.fbm", "sample_fbm_multi"),
    ("ito.xi", "rvlab.ito", "xi_mc_target"),
    ("ito.transform", "rvlab.ito", "divergence_via_ito"),
    ("ito.transform", "rvlab.ito", "divergence_via_ito_multi"),
    ("bessel.theta", "rvlab.bessel", "theta_path"),
    ("variation.vnq", "rvlab.variation", "variation_Vnq"),
    ("kernel.kernel_K", "rvlab.kernel", "kernel_K"),
    ("kernel.quad", "rvlab.kernel", "covariance_via_kernel"),
    ("report.aggregate", "rvlab.report", "aggregate"),
    ("report.serialize", "rvlab.report", "Report.to_csv"),
    ("parallel.map", "rvlab.parallel", "replication_map"),
    ("harness.run", "rvlab.harness", "run_experiment"),
)

# The traced workers=2 run wraps only these: pool workers are forked and
# would otherwise pay wrapper cost for spans that never reach the parent.
POOL_LAYERS = ("parallel.map", "harness.run")


def _count_nodes(counts: dict, fn, args, kwargs) -> None:
    # every sampler takes (hurst, grid, seed)
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    counts["fbm.nodes"] = counts.get("fbm.nodes", 0) + grid.n


def _count_xi(counts: dict, fn, args, kwargs) -> None:
    """Operation and byte counts of one xi_mc_target call.

    Per antithetic pair and node: a d-term dot product (2d flops), abs, power
    and the column sum (1 flop each).  The (nodes x pairs) float64 work array
    is written by the matmul, read and written by abs and by power, and read
    by the sum: 6 passes of 8 bytes.  The node matrix and the xi block add
    one pass each (xi is also written once).
    """
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    draws = call.arguments["draws"]
    nodes, d = call.arguments["u_nodes"].shape
    pairs = draws // 2
    counts["ito.xi_flops"] = counts.get("ito.xi_flops", 0) + nodes * pairs * (2 * d + 3)
    counts["ito.xi_bytes"] = counts.get("ito.xi_bytes", 0) + 8 * (
        6 * nodes * pairs + nodes * d + 2 * d * pairs
    )


_COUNTERS = {"fbm.sample": _count_nodes, "ito.xi": _count_xi}


class Recorder:
    """Per-layer call counts, span totals and self times of one run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []

    def wrap(self, layer: str, fn):
        counter = _COUNTERS.get(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts, fn, args, kwargs)
            child = [0]
            stack.append(child)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.total_ns[layer] = self.total_ns.get(layer, 0) + span
                self.self_ns[layer] = self.self_ns.get(layer, 0) + span - child[0]

        return traced

    def install(self, layers=None) -> None:
        """Wrap the named layers (all of :data:`LAYERS` by default)."""
        for layer, module_name, attr in LAYERS:
            if layers is not None and layer not in layers:
                continue
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name == "rvlab" or name.startswith("rvlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Calls, total and self seconds per layer, plus computed counts."""
        return {
            "calls": dict(self.calls),
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
        }
