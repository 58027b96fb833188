"""Convolutional denoiser over multi-channel time series.

Architecture: four 1-d convolutions with kernel sizes 7, 5, 3, 3 and same
zero-padding, ReLU between layers, linear output layer. The network maps a
c x T window, or a c x B x T batch of windows, to a block of the same shape:
no pooling or striding is involved. Inputs are z-scored with frozen
training statistics and the output is mapped back to physical units.
"""
from __future__ import annotations

import functools
import zipfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _record, recording
from .physics import SampleWindow, same_dt

__all__ = [
    "KERNEL_SIZES",
    "ModelParams",
    "init_params",
    "param_count",
    "conv1d",
    "relu",
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


@functools.lru_cache
def _taps(k: int, t_len: int) -> tuple[tuple[int, slice, slice], ...]:
    """(j, output timesteps t, input timesteps t + j - pad) of each tap j of a size-k kernel, where inside the window."""
    pad = (k - 1) // 2
    taps = []
    for j in range(k):
        s = j - pad
        lo, hi = max(-s, 0), min(t_len - s, t_len)
        if lo < hi:
            taps.append((j, slice(lo, hi), slice(lo + s, hi + s)))
    return tuple(taps)


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Same-length 1-D convolution over a Cin x T or Cin x B x T array; returns (out, vjp).

    out[o, ..., t] = bias[o] + sum_{i,k} weight[o, i, k] * x[i, ..., t + k - (K-1)/2]
    with x read as zero outside each window's T timesteps; K must be odd.
    A batch axis B convolves each window on its own, so windows never mix.
    vjp(g, need_x) returns the gradients (gx, gweight, gbias) of out's cotangent
    g, with gx None unless need_x.
    """
    if x.ndim not in (2, 3) or weight.ndim != 3 or bias.ndim != 1:
        raise ValueError(
            f"conv1d: expected 2-d or 3-d input, 3-d weight, 1-d bias; got "
            f"{x.ndim}-d, {weight.ndim}-d, {bias.ndim}-d"
        )
    cout, cin, k = weight.shape
    if k % 2 == 0:
        raise ValueError(f"conv1d: kernel size must be odd, got {k}")
    if x.shape[0] != cin:
        raise ValueError(f"conv1d: input has {x.shape[0]} channels, weight expects {cin}")
    if bias.shape[0] != cout:
        raise ValueError(f"conv1d: bias has {bias.shape[0]} entries, weight expects {cout}")
    batch, t_len = x.shape[1:-1], x.shape[-1]
    taps = _taps(k, t_len)
    # im2col so both passes run as one BLAS matmul each: col[i*k + j, (b, t)] = x[i, b, t + j - pad].
    col = np.zeros((cin, k, *batch, t_len))
    for j, out_t, in_t in taps:
        col[:, j, ..., out_t] = x[..., in_t]
    col = col.reshape(cin * k, -1)
    w2d = weight.reshape(cout, cin * k)
    out = w2d @ col
    out += bias[:, None]

    def vjp(g, need_x):
        g2d = g.reshape(cout, -1)
        gx = None
        if need_x:
            gcol = (w2d.T @ g2d).reshape(cin, k, *batch, t_len)
            gx = np.zeros((cin, *batch, t_len))
            for j, out_t, in_t in taps:
                gx[..., in_t] += gcol[:, j, ..., out_t]
        return gx, (g2d @ col.T).reshape(cout, cin, k), g2d.sum(axis=1)

    return out.reshape(cout, *batch, t_len), vjp


def relu(a: np.ndarray):
    """max(a, 0) as a new array, and its vjp(g); -0.0 becomes 0.0 and a NaN propagates."""
    out = np.maximum(a, 0.0)
    out += 0.0  # -0.0 to 0.0, as np.where(a > 0, a, 0.0) gives

    def vjp(g):
        return g * (out > 0.0)  # out > 0 exactly where a > 0, NaN included

    return out, vjp


def forward(params: ModelParams, x: Tensor) -> Tensor:
    """Run the network on a c x T or c x B x T block; returns a block of the same shape.

    The layers run on arrays and record one model_forward node, whose VJP
    walks them in reverse; its gradients follow x and params.all_tensors().
    Outside a recording tape no layer's VJP state is kept.
    """
    if x.data.ndim not in (2, 3):
        raise ValueError(f"forward: expected a 2-d or 3-d c x [B x] T input, got {x.data.shape}")
    expected = params.weights[0].data.shape[1]
    if x.data.shape[0] != expected:
        raise ValueError(
            f"forward: input has {x.data.shape[0]} channels, model expects {expected}"
        )
    inputs = (x, *params.all_tensors())
    keep = recording(inputs)
    h, convs, relus = x.data, [], []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h, layer_vjp = conv1d(h, w.data, b.data)
        if keep:
            convs.append(layer_vjp)
        del layer_vjp  # an unkept VJP frees its im2col block here, before the next layer allocates
        if i != last:
            h, layer_vjp = relu(h)
            if keep:
                relus.append(layer_vjp)

    def vjp(g):
        grads = []
        for i in reversed(range(len(convs))):
            if i != last:
                g = relus[i](g)
            g, gw, gb = convs[i](g, i > 0 or x.requires_grad)
            grads += [gb, gw]
        return tuple(gi if t.requires_grad else None for t, gi in zip(inputs, [g, *reversed(grads)]))

    return _record("model_forward", inputs, h, vjp)


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
        for i, (w, b) in enumerate(zip(self.params.weights, self.params.biases)):
            c_out, c_in, k = w.data.shape
            if i and c_in != self.params.weights[i - 1].data.shape[0]:
                raise ValueError(f"Denoiser: layer {i} takes {c_in} channels, but layer {i - 1} "
                                 f"outputs {self.params.weights[i - 1].data.shape[0]}")
            if k % 2 == 0:
                raise ValueError(f"Denoiser: layer {i} has kernel size {k}, which must be odd")
            if b.data.shape != (c_out,):
                raise ValueError(f"Denoiser: layer {i} has {b.data.size} biases for {c_out} output channels")
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
    try:
        value = bundle[key]
    except ValueError:  # an object array: numpy's message would advise loading it unsafely
        raise ValueError(f"{path}: not a checkpoint archive: {key} is not a plain array") from None
    if value.ndim != ndim or value.dtype.kind not in kinds:
        raise ValueError(f"{path}: checkpoint array {key} must be a {ndim}-d {_KIND_NOUNS[kinds]} array, "
                         f"got {value.dtype} of shape {value.shape}")
    return value


def load_checkpoint(path) -> Denoiser:
    """Read a save_checkpoint file; one without a dt entry gives a denoiser with dt None.

    A file that is no readable npz archive, holds pickled data, or whose
    entries are missing or malformed or whose layers do not chain, raises
    ValueError naming the file.
    """
    try:
        try:
            bundle = np.load(path, allow_pickle=False)
        except ValueError:  # pickled or object data: numpy's message would advise loading it unsafely
            raise ValueError(f"{path}: not a checkpoint archive") from None
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
            fields = dict(
                params=ModelParams(weights=tensors[0::2], biases=tensors[1::2]),
                channels=[str(c) for c in _checkpoint_array(bundle, path, "channels", 1, "U")],
                norm_mean=_checkpoint_array(bundle, path, "norm_mean", 1),
                norm_std=_checkpoint_array(bundle, path, "norm_std", 1),
                predict_residual=bool(_checkpoint_array(bundle, path, "predict_residual", 0, "b")),
                dt=float(_checkpoint_array(bundle, path, "dt", 0)) if "dt" in bundle.files else None,
            )
        try:
            return Denoiser(**fields)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    except (EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: not a readable checkpoint archive: {err}") from None
