"""Experiment reports: per-row statistics, metadata, pass/fail flags, and
deterministic CSV/JSON serialization.

Serialized reports are a pure function of (config, build): floats are
written with ``repr`` so ``float()`` of an emitted CSV cell gives back the
in-memory value exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .core import MAX_PATH_ENTRIES
from .errors import ConfigError, DomainError

__all__ = ["aggregate", "check_shape", "check_xi_draws", "loglog_fit", "write_text", "Report", "ConvergenceReport", "CONVERGENCE_COLUMNS", "build_id"]

CONVERGENCE_COLUMNS = ("n", "estimate", "target", "abs_err", "rel_err", "stderr")


def build_id() -> str:
    return f"rvlab-{__version__}"


def _scale(values: Sequence[float]) -> int:
    """The binary exponent of the largest |v|: scaled by 2^-e, every |v| < 1."""
    return math.frexp(max(map(abs, values), default=0.0))[1]


def aggregate(values: Sequence[float]) -> tuple[float, float | None]:
    """Mean and jackknife standard error of per-replication values.

    Summation is compensated and follows replication-index order, so the
    result does not depend on which worker produced which value.  The values
    are scaled by one power of two before they are summed, so the sum does
    not overflow when the mean is finite, and the deviations likewise before
    they are squared, so the squares neither overflow nor underflow; the
    scaling is exact, and inside the normal range every bit is kept.  With a
    single value the standard error is undefined and reported as ``None``.
    """
    m = len(values)
    if m == 0:
        raise DomainError("aggregate needs at least one value")
    e = _scale(values)
    mean = math.ldexp(math.fsum(math.ldexp(v, -e) for v in values) / m, e)
    if m == 1:
        return mean, None
    # Jackknife variance of the mean; for the mean statistic this reduces to
    # sum((v - mean)^2) / (m (m - 1)).
    deviations = [v - mean for v in values]
    e = _scale(deviations)
    ss = math.fsum(math.ldexp(v, -e) ** 2 for v in deviations)
    return mean, math.ldexp(math.sqrt(ss / (m * (m - 1))), e)


def check_shape(
    replications: int,
    grid_sizes: Sequence[int] | None = None,
    xi_draws: int | None = None,
) -> None:
    """The one grid and replication rule of every experiment.

    A standard error needs at least 2 replications; grid sizes, where an
    experiment has them, are strictly increasing positive integers, and xi
    draws follow :func:`check_xi_draws`.
    """
    if grid_sizes is not None and (
        not grid_sizes or min(grid_sizes) < 1 or list(grid_sizes) != sorted(set(grid_sizes))
    ):
        raise ConfigError("grid_sizes must be strictly increasing positive integers")
    if replications < 2:
        raise ConfigError("need at least 2 replications for standard errors")
    if xi_draws is not None:
        check_xi_draws(xi_draws)


def check_xi_draws(xi_draws: int) -> None:
    """The one xi_draws rule: the xi target's standard error needs at least 2
    antithetic pairs, so the draws are an even count >= 4, and at most twice
    the float64 entries numpy can hold (a value per pair)."""
    if xi_draws < 4 or xi_draws % 2:
        raise ConfigError(f"xi_draws must be an even count >= 4, got {xi_draws}")
    if xi_draws // 2 > MAX_PATH_ENTRIES:
        raise ConfigError(f"xi_draws must not exceed {2 * MAX_PATH_ENTRIES}, got {xi_draws}")


def write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a
    configuration error (exit 2), not a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def loglog_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): (slope, intercept, R^2)."""
    log_x, log_y = np.log(x), np.log(y)
    design = np.vstack([log_x, np.ones_like(log_x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, log_y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _dumps(payload, **kwargs) -> str:
    """Strict JSON: a non-finite float is written as null, never as the
    bare NaN or Infinity that a standard parser rejects."""
    return json.dumps(_finite(payload), sort_keys=True, allow_nan=False, **kwargs)


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


@dataclass
class Report:
    """Tabular experiment output plus summary scalars and pass/fail flags."""

    columns: tuple[str, ...]
    rows: list[tuple]
    extra: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError(f"row {row!r} does not match columns {self.columns!r}")

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_csv(self) -> str:
        lines = [f"# {build_id()}"]
        for key, payload in (("meta", self.meta), ("extra", self.extra), ("flags", self.flags)):
            lines.append(f"# {key}: {_dumps(payload)}")
        lines.append(",".join(self.columns))
        lines += [",".join(_fmt(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "build": build_id(),
            "meta": self.meta,
            "extra": self.extra,
            "flags": self.flags,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }
        return _dumps(doc, indent=2) + "\n"

    def write(self, path: str, fmt: str = "csv") -> None:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {fmt!r}")
        text = self.to_csv() if fmt == "csv" else self.to_json()
        write_text(path, text)


class ConvergenceReport(Report):
    """Per-grid-size Monte Carlo estimates against a limit target.

    Rows are (n, estimate, target, abs_err, rel_err, stderr) sorted by n
    ascending.
    """

    def __post_init__(self):
        super().__post_init__()
        if tuple(self.columns) != CONVERGENCE_COLUMNS:
            raise ConfigError(f"convergence report columns must be {CONVERGENCE_COLUMNS}")
        ns = [row[0] for row in self.rows]
        if ns != sorted(ns):
            raise ConfigError("convergence report rows must be sorted by n")
        for row in self.rows:
            stderr = row[5]
            if stderr is not None and not stderr > 0:
                raise ConfigError("stderr must be positive when replications >= 2")
