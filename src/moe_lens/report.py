"""Deterministic report artifacts: provenance-stamped CSV tables and P6 heatmaps.

Every artifact is written atomically (temp file, then rename) and carries no
timestamps or machine-specific state, so re-running the same command over the
same inputs reproduces files byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import shlex
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .tensor_store import atomic_write_bytes

# Colormap endpoints, linearly interpolated over 256 steps.
_DARK = np.array([8, 8, 32], dtype=np.float64)
_LIGHT = np.array([255, 244, 160], dtype=np.float64)
_MASKED_RGB = bytes((0, 0, 0))


@dataclass
class Provenance:
    """What produced an artifact: the command line, input digests, and seed."""

    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    seed: int | None = None

    def lines(self) -> list[str]:
        out = [f"moe-lens {__version__}",
               f"command: {shlex.join(self.command)}"]
        for name in sorted(self.inputs):
            out.append(f"{name}: sha256:{self.inputs[name]}")
        out.append(f"seed: {self.seed if self.seed is not None else '-'}")
        return out


def _comment_lines(provenance: Provenance, comments: list[str] | None) -> list[str]:
    """An artifact's ``# ``-prefixed header: the provenance lines, then ``comments``."""
    return [f"# {line}" for line in [*provenance.lines(), *(comments or [])]]


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def format_cell(value) -> str:
    """One CSV cell: floats get exactly six decimals, None/NaN become empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return f"{v:.6f}"


def emit_csv(path, provenance: Provenance, columns: list[str], rows,
             extra_comments: list[str] | None = None) -> None:
    """Write a table with ``# ``-prefixed provenance comments and a label header."""
    lines = _comment_lines(provenance, extra_comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def matrix_comments(sim) -> list[str]:
    out = [f"metric: {sim.metric}"]
    if sim.s_ee is not None:
        out.append(f"s_ee: {sim.s_ee:.6f}")
    if sim.s_ef is not None:
        out.append(f"s_ef: {sim.s_ef:.6f}")
    if sim.selected_labels is not None:
        out.append(f"selected: {' '.join(sim.selected_labels)}")
    return out


def colormap(value: float, lo: float, hi: float) -> bytes:
    """Map a value to an RGB triple on the dark-to-light ramp; NaN is black."""
    if math.isnan(value):
        return _MASKED_RGB
    if hi <= lo:
        raise ValueError("empty value range")
    t = min(max((value - lo) / (hi - lo), 0.0), 1.0)
    level = round(t * 255) / 255
    rgb = _DARK + (_LIGHT - _DARK) * level
    return bytes(int(round(c)) for c in rgb)


def emit_heatmap(path, provenance: Provenance, values: np.ndarray,
                 value_range: tuple[float, float], cell: int = 16,
                 extra_comments: list[str] | None = None) -> None:
    """Render a matrix as a binary P6 image, one ``cell`` x ``cell`` block per entry.

    The value range is recorded in a ``<path>.range.txt`` sidecar since the
    pixels alone cannot recover it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("heatmap needs a non-empty 2-d matrix")
    if cell < 1:
        raise ValueError("cell size must be positive")
    lo, hi = value_range
    n_rows, n_cols = values.shape
    width, height = n_cols * cell, n_rows * cell

    rows_bytes = []
    for i in range(n_rows):
        row = b"".join(colormap(float(values[i, j]), lo, hi) * cell
                       for j in range(n_cols))
        rows_bytes.append(row * cell)
    blob = b"P6\n%d %d\n255\n" % (width, height) + b"".join(rows_bytes)
    atomic_write_bytes(path, blob)

    side = _comment_lines(provenance, extra_comments)
    side.append(f"range: {format_cell(lo)} {format_cell(hi)}")
    side.append(f"cell: {cell}")
    side.append(f"shape: {n_rows} {n_cols}")
    atomic_write_bytes(f"{path}.range.txt", ("\n".join(side) + "\n").encode("utf-8"))


def emit_matrix(stem, provenance: Provenance, labels: list[str], values: np.ndarray,
                value_range: tuple[float, float], comments: list[str],
                cell: int) -> list[str]:
    """Write a labeled square matrix as ``<stem>.csv`` (first column the row
    label) and as the ``<stem>.ppm`` heatmap with its range sidecar; returns
    the three paths.  The heatmap is written first, so that its input checks
    run before any file exists."""
    csv_path, ppm_path = f"{stem}.csv", f"{stem}.ppm"
    emit_heatmap(ppm_path, provenance, values, value_range, cell=cell, extra_comments=comments)
    emit_csv(csv_path, provenance, ["", *labels],
             ([label, *row] for label, row in zip(labels, values)), extra_comments=comments)
    return [csv_path, ppm_path, f"{ppm_path}.range.txt"]


def metric_range(metric: str) -> tuple[float, float]:
    """Natural display range for a similarity metric."""
    if metric == "cosine":
        return (-1.0, 1.0)
    if metric == "angular":
        return (0.0, 1.0)
    raise ValueError(f"unknown metric: {metric!r}")
