"""Reconstruction and physics-alignment metrics with CSV/table reporting.

Means are the primary reduction (comparable across window counts); summed
forms are reported alongside. The physics mean-square here is computed from
the same residual arithmetic as the training loss, so the two numbers agree
bitwise on identical inputs.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import SampleWindow
from .physics import PhysicsSpec, window_residual

__all__ = [
    "EvalReport",
    "evaluate",
    "REPORT_COLUMNS",
    "write_rows_csv",
    "write_report_csv",
    "format_report_table",
]


@dataclass
class EvalReport:
    """Aggregate metrics over a set of windows, under one label.

    Reconstruction fields are None when no clean reference was available.
    per_channel maps channel name to (mse, mae) of that row alone.
    """

    label: str
    n_windows: int
    recon_mse: float | None
    recon_mae: float | None
    recon_mse_sum: float | None
    recon_mae_sum: float | None
    phys_mse: float
    phys_mae: float
    phys_mse_sum: float
    phys_mae_sum: float
    per_channel: dict[str, tuple[float, float]] | None = None


def evaluate(
    label: str,
    windows: Sequence[SampleWindow],
    spec: PhysicsSpec,
    clean: Sequence[SampleWindow] | None = None,
    channels: Sequence[str] | None = None,
) -> EvalReport:
    """Pool metrics over windows.

    Reconstruction compares against the paired clean windows on the given
    channel subset (default: all channels); physics metrics always cover the
    full window, whose dt must match the environment's. Entries are pooled
    across windows before reducing, so windows of different lengths weigh by
    their size.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("evaluate: need at least one window")
    if clean is not None and len(clean) != len(windows):
        raise ValueError(f"evaluate: {len(clean)} clean references for {len(windows)} windows")

    sq_sum = 0.0
    abs_sum = 0.0
    n_entries = 0
    per_channel: dict[str, tuple[float, float]] | None = None
    if clean is not None:
        names = list(channels) if channels is not None else list(windows[0].channels)
        ch_sq = {c: 0.0 for c in names}
        ch_abs = {c: 0.0 for c in names}
        ch_n = {c: 0 for c in names}
        for i, (w, ref) in enumerate(zip(windows, clean)):
            if ref.n_timesteps != w.n_timesteps:
                raise ValueError(
                    f"evaluate: window {i} has {w.n_timesteps} timesteps "
                    f"but its clean reference has {ref.n_timesteps}"
                )
            for c in names:
                diff = w.row(c) - ref.row(c)
                sq = float(np.sum(diff * diff))
                ab = float(np.sum(np.abs(diff)))
                ch_sq[c] += sq
                ch_abs[c] += ab
                ch_n[c] += diff.size
                sq_sum += sq
                abs_sum += ab
                n_entries += diff.size
        per_channel = {c: (ch_sq[c] / ch_n[c], ch_abs[c] / ch_n[c]) for c in names}

    phys_sq = 0.0
    phys_abs = 0.0
    phys_n = 0
    for w in windows:
        r = window_residual(w, spec)
        phys_sq += float(np.sum(r * r))
        phys_abs += float(np.sum(np.abs(r)))
        phys_n += r.size

    return EvalReport(
        label=label,
        n_windows=len(windows),
        recon_mse=None if clean is None else sq_sum / n_entries,
        recon_mae=None if clean is None else abs_sum / n_entries,
        recon_mse_sum=None if clean is None else sq_sum,
        recon_mae_sum=None if clean is None else abs_sum,
        phys_mse=phys_sq / phys_n,
        phys_mae=phys_abs / phys_n,
        phys_mse_sum=phys_sq,
        phys_mae_sum=phys_abs,
        per_channel=per_channel,
    )


REPORT_COLUMNS = [
    "label",
    "n_windows",
    "recon_mse",
    "recon_mae",
    "recon_mse_sum",
    "recon_mae_sum",
    "phys_mse",
    "phys_mae",
    "phys_mse_sum",
    "phys_mae_sum",
]


def _fmt(v: str | int | float | None) -> str:
    """A CSV cell: floats at 17 digits, None (no clean reference, no phase-2 term) empty."""
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_rows_csv(header: Sequence[str], rows, path) -> None:
    """A header line, then one line of cells per row (see _fmt)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_report_csv(reports: Sequence[EvalReport], path) -> None:
    """One row per report, columns exactly REPORT_COLUMNS."""
    write_rows_csv(REPORT_COLUMNS, ([getattr(r, c) for c in REPORT_COLUMNS] for r in reports), path)


def format_report_table(reports: Sequence[EvalReport]) -> str:
    """Human-readable side-by-side table, with per-channel breakdown."""

    def cell(v: float | None) -> str:
        return "-" if v is None else f"{v:.6g}"

    lines = []
    header = f"{'label':<12} {'windows':>7} {'recon_mse':>12} {'recon_mae':>12} {'phys_mse':>12} {'phys_mae':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        lines.append(
            f"{r.label:<12} {r.n_windows:>7} {cell(r.recon_mse):>12} {cell(r.recon_mae):>12} "
            f"{cell(r.phys_mse):>12} {cell(r.phys_mae):>12}"
        )
    for r in reports:
        if r.per_channel:
            lines.append("")
            lines.append(f"per-channel reconstruction ({r.label}):")
            for name, (mse, mae) in r.per_channel.items():
                lines.append(f"  {name:<10} mse {mse:>12.6g}   mae {mae:>12.6g}")
    return "\n".join(lines)
