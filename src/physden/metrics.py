"""Reconstruction and physics-alignment metrics and the table report.

A report reduces two pooled blocks: every window's noisy-minus-clean rows
side by side in time, and every window's residual rows flattened end to end.
Means are the primary reduction (comparable across window counts); summed
forms are reported alongside. The physics mean-square here is computed from
the same residual arithmetic as the training loss, so the two numbers agree
bitwise on identical inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .physics import PhysicsSpec, SampleWindow, window_residuals

__all__ = [
    "EvalReport",
    "evaluate",
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
    full window, whose dt must match the environment's. Each block (channel
    differences, residual rows) is concatenated across windows and reduced
    once, so windows of different lengths weigh by their size.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("evaluate: need at least one window")
    if clean is not None and len(clean) != len(windows):
        raise ValueError(f"evaluate: {len(clean)} clean references for {len(windows)} windows")

    per_channel: dict[str, tuple[float, float]] | None = None
    recon: tuple[float | None, ...] = (None,) * 4
    if clean is not None:
        names = list(channels) if channels is not None else list(windows[0].channels)
        blocks = []
        for i, (w, ref) in enumerate(zip(windows, clean)):
            if ref.n_timesteps != w.n_timesteps:
                raise ValueError(
                    f"evaluate: window {i} has {w.n_timesteps} timesteps "
                    f"but its clean reference has {ref.n_timesteps}"
                )
            blocks.append([w.row(c) - ref.row(c) for c in names])
        diff = np.concatenate(blocks, axis=1)  # names x (all windows' timesteps)
        mse, mae = np.mean(diff * diff, axis=1), np.mean(np.abs(diff), axis=1)
        per_channel = {c: (float(m), float(a)) for c, m, a in zip(names, mse, mae)}
        recon = _pooled(diff)

    residual = np.concatenate([r.ravel() for r in window_residuals(windows, spec)])
    return EvalReport(label, len(windows), *recon, *_pooled(residual), per_channel=per_channel)


def _pooled(d: np.ndarray) -> tuple[float, float, float, float]:
    """Mean square, mean absolute, summed square and summed absolute value of a block."""
    sq, ab = d * d, np.abs(d)
    return float(np.mean(sq)), float(np.mean(ab)), float(np.sum(sq)), float(np.sum(ab))


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
