"""Physics-informed denoising of multi-channel sensor time series.

A small reverse-mode autodiff core (`autodiff`), the table of three sensor
families with their residuals and simulators (`physics`), a convolutional
denoiser (`model`), data plumbing (`data`), two-phase training with adaptive loss
balancing (`training`), evaluation metrics (`metrics`), finite-difference
gradient verification (`gradcheck`), and a command-line interface (`cli`).

Submodules are imported lazily so that the CLI can configure threading
environment variables before numpy loads.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "autodiff",
    "physics",
    "model",
    "data",
    "training",
    "metrics",
    "gradcheck",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
