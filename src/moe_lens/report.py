"""Deterministic report artifacts: provenance-stamped CSV tables and P6 heatmaps.

``emit_csv``, ``emit_heatmap`` and ``emit_matrix`` render artifacts as
``(path, bytes)`` pairs and write nothing.  ``emit_heatmap`` alone maps values
to colours.  No artifact carries timestamps or machine-specific state, so
re-running the same command over the same inputs reproduces files byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shlex

import numpy as np

from . import __version__

# Ramp endpoints, linearly interpolated over 256 levels.
_DARK = np.array([8, 8, 32], dtype=np.float64)
_LIGHT = np.array([255, 244, 160], dtype=np.float64)


def _shell_word(arg: str) -> str:
    """``shlex.quote(arg)``, except that a word with a line break is written
    ANSI-C quoted (``$'a\\nb'``), so that a command stays on one line."""
    if "\n" not in arg and "\r" not in arg:
        return shlex.quote(arg)
    escaped = (arg.replace("\\", "\\\\").replace("'", "\\'")
               .replace("\n", "\\n").replace("\r", "\\r"))
    return f"$'{escaped}'"


def provenance(command: list[str], inputs: dict[str, str]) -> list[str]:
    """A command's provenance lines, the header of each of its artifacts: the
    tool version, the command line, the input digests by name, and ``seed: -``,
    since the analyses draw no random numbers."""
    return [f"moe-lens {__version__}", f"command: {' '.join(map(_shell_word, command))}",
            *(f"{name}: sha256:{inputs[name]}" for name in sorted(inputs)), "seed: -"]


def _text(header: list[str], comments: list[str] | None, lines) -> bytes:
    """A text artifact: ``header`` and ``comments`` as ``# `` lines, then ``lines``."""
    text = "\n".join([*(f"# {line}" for line in [*header, *(comments or [])]), *lines])
    return (text + "\n").encode("utf-8")


def file_digest(path) -> str:
    """sha256 of a file.  No command calls it: ``perfbench/tracer.py`` reads it
    by name for its ``report.digest`` span, and it goes when that entry does."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def format_cell(value) -> str:
    """One CSV cell: floats get exactly six decimals, None/NaN become empty.

    Every value that rounds to zero prints as ``0.000000``, so rounding noise
    on either side of zero (and -0.0) gives the same bytes."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    text = f"{v:.6f}"
    return "0.000000" if text == "-0.000000" else text


def emit_csv(path, header: list[str], columns: list[str], rows,
             extra_comments: list[str] | None = None) -> list[tuple[str, bytes]]:
    """Render a table under the ``header`` lines and ``extra_comments``, then
    its label row; returns ``[(path, bytes)]``."""
    return [(path, _text(header, extra_comments, [
        ",".join(columns), *(",".join(format_cell(cell) for cell in row) for row in rows)]))]


def matrix_comments(sim) -> list[str]:
    out = [f"metric: {sim.metric}"]
    out += [f"{name}: {format_cell(value)}"
            for name, value in (("s_ee", sim.s_ee), ("s_ef", sim.s_ef)) if value is not None]
    if sim.selected_labels is not None:
        out.append(f"selected: {' '.join(sim.selected_labels)}")
    return out


@functools.cache
def _levels() -> np.ndarray:
    """The ramp's 256 levels, then the masked colour, black, as one uint8
    lookup table; built on first use, so commands that draw no heatmap skip it."""
    ramp = np.rint(_DARK + (_LIGHT - _DARK) * (np.arange(256)[:, None] / 255))
    return np.vstack([ramp, np.zeros(3)]).astype(np.uint8)


def emit_heatmap(path, header: list[str], values: np.ndarray,
                 value_range: tuple[float, float], cell: int = 16,
                 extra_comments: list[str] | None = None) -> list[tuple[str, bytes]]:
    """Render a matrix as a binary P6 image, one ``cell`` x ``cell`` block per
    entry; returns the image and its ``<path>.range.txt`` sidecar as pairs.

    A value's level on the ramp is round(t * 255), half to even, with t its
    place in ``value_range`` clamped to [0, 1]; NaN is black.  The sidecar
    records the value range, since the pixels alone cannot recover it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("heatmap needs a non-empty 2-d matrix")
    if cell < 1:
        raise ValueError("cell size must be positive")
    lo, hi = value_range
    n_rows, n_cols = values.shape
    if n_rows * n_cols * int(cell) ** 2 * 3 > np.iinfo(np.intp).max:
        raise ValueError(f"heatmap of {n_cols * cell} x {n_rows * cell} pixels is too large")
    masked = np.isnan(values)
    if hi <= lo and not masked.all():
        raise ValueError("empty value range")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    if np.isnan(t[~masked]).any():
        raise ValueError(f"value range {lo}, {hi} overflows")
    table = _levels()
    level = np.rint(np.where(masked, 0.0, t) * 255).astype(np.intp)
    level[masked] = len(table) - 1
    pixels = np.repeat(np.repeat(table[level], cell, axis=0), cell, axis=1)
    blob = b"P6\n%d %d\n255\n" % (n_cols * cell, n_rows * cell) + pixels.tobytes()
    side = [f"range: {format_cell(lo)} {format_cell(hi)}", f"cell: {cell}",
            f"shape: {n_rows} {n_cols}"]
    return [(path, blob), (f"{path}.range.txt", _text(header, extra_comments, side))]


def emit_matrix(stem, header: list[str], labels: list[str], values: np.ndarray,
                value_range: tuple[float, float], comments: list[str],
                cell: int) -> list[tuple[str, bytes]]:
    """Render a labeled square matrix as ``<stem>.csv`` (first column the row
    label) and as the ``<stem>.ppm`` heatmap with its range sidecar."""
    return [*emit_csv(f"{stem}.csv", header, ["", *labels],
                      ([label, *row] for label, row in zip(labels, values)), comments),
            *emit_heatmap(f"{stem}.ppm", header, values, value_range, cell, comments)]


def metric_range(metric: str) -> tuple[float, float]:
    """Natural display range for a similarity metric."""
    if metric == "cosine":
        return (-1.0, 1.0)
    if metric == "angular":
        return (0.0, 1.0)
    raise ValueError(f"unknown metric: {metric!r}")
