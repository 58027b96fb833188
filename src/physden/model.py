"""Convolutional denoiser over multi-channel time series.

Architecture: four 1-d convolutions with kernel sizes 7, 5, 3, 3 and same
zero-padding, ReLU between layers, linear output layer. The network maps a
c x T window, or a c x B x T batch of windows, to a block of the same shape:
no pooling or striding is involved. Inputs are z-scored with frozen
training statistics and the output is mapped back to physical units.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _record, conv1d, relu
from .data import SampleWindow
from .physics import same_dt

__all__ = [
    "KERNEL_SIZES",
    "ModelParams",
    "init_params",
    "param_count",
    "forward",
    "merge_denoised",
    "Denoiser",
    "denoise",
    "save_checkpoint",
    "load_checkpoint",
]

KERNEL_SIZES = (7, 5, 3, 3)


@dataclass
class ModelParams:
    """Trainable tensors, layer by layer: weights (c_out, c_in, k), biases (c_out,)."""

    weights: list[Tensor]
    biases: list[Tensor]

    def all_tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_params(
    channels: int,
    widths: Sequence[int] = (128, 256, 128),
    rng: np.random.Generator | int | None = None,
) -> ModelParams:
    """Fan-in scaled uniform init U(-1/sqrt(c_in*k), +1/sqrt(c_in*k)), zero biases."""
    if channels < 1:
        raise ValueError(f"init_params: channels must be >= 1, got {channels}")
    widths = tuple(int(w) for w in widths)
    if len(widths) != 3 or any(w < 1 for w in widths):
        raise ValueError(f"init_params: widths must be three positive ints, got {widths}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dims = (channels, *widths, channels)
    weights: list[Tensor] = []
    biases: list[Tensor] = []
    for layer, k in enumerate(KERNEL_SIZES):
        c_in, c_out = dims[layer], dims[layer + 1]
        bound = 1.0 / np.sqrt(c_in * k)
        w = rng.uniform(-bound, bound, size=(c_out, c_in, k))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(c_out), requires_grad=True))
    return ModelParams(weights=weights, biases=biases)


def param_count(params: ModelParams) -> int:
    return sum(int(t.data.size) for t in params.all_tensors())


def forward(params: ModelParams, x: Tensor) -> Tensor:
    """Run the network on a c x T or c x B x T block; returns a block of the same shape."""
    if x.data.ndim not in (2, 3):
        raise ValueError(f"forward: expected a 2-d or 3-d c x [B x] T input, got {x.data.shape}")
    expected = params.weights[0].data.shape[1]
    if x.data.shape[0] != expected:
        raise ValueError(
            f"forward: input has {x.data.shape[0]} channels, model expects {expected}"
        )
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = conv1d(h, w, b)
        if i != last:
            h = relu(h)
    return h


def merge_denoised(
    y: Tensor,
    z: np.ndarray | None,
    base: np.ndarray,
    rows: Sequence[int],
    mean: np.ndarray,
    std: np.ndarray,
) -> Tensor:
    """base with rows[j] replaced by (y[j] + z[j]) * std[j] + mean[j], as one tape node.

    y is the model output on the z-scored rows z (z None adds nothing), both
    c x [B x] T with c = len(rows); base is C x [B x] T, and its other rows
    are constants. The VJP's 0.0 + turns -0.0 into 0.0, as a scatter into
    zeros does, so the gradient has the bits of the unfused add, mul and row-gather ops.
    """
    scale, shift = (v.reshape(-1, *[1] * (y.data.ndim - 1)) for v in (std, mean))
    out = base.copy()
    out[rows] = (y.data if z is None else y.data + z) * scale + shift

    def vjp(g):
        return ((0.0 + g[rows]) * scale,)

    return _record("merge", (y,), out, vjp)


@dataclass
class Denoiser:
    """Model plus the channel subset it reconstructs and its frozen z-score stats.

    With predict_residual the network learns a correction added to its input
    (in z-scored space) instead of the signal itself; off by default. dt is
    the sampling interval the model was trained at (train sets it), or None
    for a model that accepts windows at any rate.
    """

    params: ModelParams
    channels: list[str]
    norm_mean: np.ndarray
    norm_std: np.ndarray
    predict_residual: bool = False
    dt: float | None = None

    def __post_init__(self):
        self.norm_mean = np.asarray(self.norm_mean, dtype=np.float64)
        self.norm_std = np.asarray(self.norm_std, dtype=np.float64)
        n = len(self.channels)
        if self.norm_mean.shape != (n,) or self.norm_std.shape != (n,):
            raise ValueError(
                f"Denoiser: norm stats must have shape ({n},) to match channels, "
                f"got mean {self.norm_mean.shape} and std {self.norm_std.shape}"
            )
        if not (np.isfinite(self.norm_mean).all() and np.isfinite(self.norm_std).all()):
            raise ValueError("Denoiser: norm_mean and norm_std must be finite")
        if np.any(self.norm_std <= 0):
            raise ValueError("Denoiser: norm_std entries must be positive")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"Denoiser: dt must be positive and finite, got {self.dt}")
        if len(set(self.channels)) != n:
            raise ValueError(f"Denoiser: channel names must be distinct, got {', '.join(self.channels)}")
        expected = self.params.weights[0].data.shape[1]
        if n != expected:
            raise ValueError(
                f"Denoiser: model expects {expected} channels but {n} names were given"
            )
        outputs = self.params.weights[-1].data.shape[0]
        if outputs != n:
            raise ValueError(f"Denoiser: the last layer outputs {outputs} channels, not the {n} named")


def denoise(denoiser: Denoiser, window: SampleWindow) -> SampleWindow:
    """Reconstruct the denoiser's channels; every other row passes through as-is.

    The window's z-scored rows go through forward and merge_denoised, the
    output head of training, so a window is restored as training restores it.
    A window sampled at another rate than the denoiser's dt is rejected.
    """
    if denoiser.dt is not None and not same_dt(window.dt, denoiser.dt):
        raise ValueError(f"window dt {window.dt} does not match the denoiser's training dt {denoiser.dt}")
    missing = [c for c in denoiser.channels if c not in window.channels]
    if missing:
        raise ValueError(
            f"input lacks channels: {', '.join(missing)} "
            f"(checkpoint reconstructs {', '.join(denoiser.channels)})"
        )
    idx = [window.channels.index(name) for name in denoiser.channels]
    mean, std = denoiser.norm_mean, denoiser.norm_std
    z = (window.values[idx] - mean[:, None]) / std[:, None]
    merged = merge_denoised(forward(denoiser.params, Tensor(z)), z if denoiser.predict_residual else None,
                            window.values, idx, mean, std)
    return SampleWindow(list(window.channels), merged.data, window.dt, list(window.units))


def save_checkpoint(denoiser: Denoiser, path) -> None:
    """Write the denoiser to an npz file; float64 arrays round-trip bit-exactly."""
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(denoiser.params.weights, denoiser.params.biases)):
        arrays[f"weight_{i}"] = w.data
        arrays[f"bias_{i}"] = b.data
    arrays["norm_mean"] = denoiser.norm_mean
    arrays["norm_std"] = denoiser.norm_std
    arrays["channels"] = np.array(denoiser.channels, dtype=str)
    arrays["n_layers"] = np.array(len(denoiser.params.weights))
    arrays["predict_residual"] = np.array(denoiser.predict_residual)
    if denoiser.dt is not None:
        arrays["dt"] = np.array(denoiser.dt)
    arrays["format_version"] = np.array(1)
    np.savez(path, **arrays)


# What a checkpoint array's dtype kinds hold, for its error message.
_KIND_NOUNS = {"iu": "integer", "iuf": "real", "b": "boolean", "U": "string"}


def _checkpoint_array(bundle, path, key: str, ndim: int, kinds: str = "iuf") -> np.ndarray:
    """A required checkpoint array of the given rank and dtype kinds.

    A missing or different entry is an error naming the file and the key, as
    a manifest's are.
    """
    if key not in bundle.files:
        raise ValueError(f"{path}: checkpoint lacks the array {key}")
    value = bundle[key]
    if value.ndim != ndim or value.dtype.kind not in kinds:
        raise ValueError(f"{path}: checkpoint array {key} must be a {ndim}-d {_KIND_NOUNS[kinds]} array, "
                         f"got {value.dtype} of shape {value.shape}")
    return value


def load_checkpoint(path) -> Denoiser:
    """Read a save_checkpoint file; one without a dt entry gives a denoiser with dt None.

    A file that is no readable npz archive, or whose entries are missing or
    malformed, raises ValueError naming the file.
    """
    try:
        bundle = np.load(path, allow_pickle=False)
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: a checkpoint is an npz archive, not a single array")
        with bundle:
            version = int(_checkpoint_array(bundle, path, "format_version", 0, "iu"))
            if version != 1:
                raise ValueError(f"{path}: unsupported checkpoint format version {version}")
            n_layers = int(_checkpoint_array(bundle, path, "n_layers", 0, "iu"))
            if n_layers < 1:
                raise ValueError(f"{path}: checkpoint n_layers must be >= 1, got {n_layers}")
            tensors = []
            for i in range(n_layers):
                for name, ndim in ((f"weight_{i}", 3), (f"bias_{i}", 1)):
                    tensors.append(Tensor(_checkpoint_array(bundle, path, name, ndim), requires_grad=True))
                    if not np.isfinite(tensors[-1].data).all():
                        raise ValueError(f"{path}: checkpoint array {name} has non-finite entries")
            return Denoiser(
                params=ModelParams(weights=tensors[0::2], biases=tensors[1::2]),
                channels=[str(c) for c in _checkpoint_array(bundle, path, "channels", 1, "U")],
                norm_mean=_checkpoint_array(bundle, path, "norm_mean", 1),
                norm_std=_checkpoint_array(bundle, path, "norm_std", 1),
                predict_residual=bool(_checkpoint_array(bundle, path, "predict_residual", 0, "b")),
                dt=float(_checkpoint_array(bundle, path, "dt", 0)) if "dt" in bundle.files else None,
            )
    except (EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: not a readable checkpoint archive: {err}") from None
