"""Convolutional denoiser: sizing, init, forward contract, checkpoint fidelity."""
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from physden.autodiff import Tape, Tensor, backward, mse
from physden.gradcheck import _half_sse
from physden.physics import SampleWindow, simulate_hvac, simulate_ins
from physden.model import (
    KERNEL_SIZES,
    Denoiser,
    denoise,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from physden.physics import HvacEnvironment, InsEnvironment


def make_window(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"ch{i}" for i in range(values.shape[0])]
    return SampleWindow(channels=names, values=values, dt=0.5, units=["u"] * values.shape[0])


# ---------------------------------------------------------------------------
# Architecture and parameter counts


def test_kernel_ladder():
    assert KERNEL_SIZES == (7, 5, 3, 3)


def test_param_count_production_size():
    # 7->128 (k7), 128->256 (k5), 256->128 (k3), 128->7 (k3), plus biases:
    # 6400 + 164096 + 98432 + 2695.
    assert param_count(init_params(7)) == 271_623


def test_param_count_minimal_size():
    assert param_count(init_params(1, widths=(1, 1, 1))) == 22


def test_init_zero_biases_and_bounded_weights():
    params = init_params(3, widths=(4, 5, 4), rng=0)
    dims = (3, 4, 5, 4, 3)
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        c_in, k = dims[layer], KERNEL_SIZES[layer]
        bound = 1.0 / np.sqrt(c_in * k)
        assert np.all(b.data == 0.0)
        assert np.all(np.abs(w.data) <= bound)
        assert w.requires_grad and b.requires_grad


def test_init_is_deterministic_per_seed():
    a = init_params(2, widths=(3, 3, 3), rng=42)
    b = init_params(2, widths=(3, 3, 3), rng=42)
    c = init_params(2, widths=(3, 3, 3), rng=43)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa.data, wb.data)
    assert not np.array_equal(a.weights[0].data, c.weights[0].data)


def test_init_validation():
    with pytest.raises(ValueError, match="channels"):
        init_params(0)
    with pytest.raises(ValueError, match="widths"):
        init_params(2, widths=(3, 3))
    with pytest.raises(ValueError, match="widths"):
        init_params(2, widths=(3, 0, 3))


# ---------------------------------------------------------------------------
# Forward contract


def test_forward_shape_preserved():
    params = init_params(3, widths=(4, 6, 4), rng=1)
    out = forward(params, Tensor(np.random.default_rng(0).normal(size=(3, 17))))
    assert out.data.shape == (3, 17)


def test_forward_validates_input():
    params = init_params(2, widths=(2, 2, 2), rng=0)
    with pytest.raises(ValueError, match="2-d"):
        forward(params, Tensor(np.zeros(5)))
    with pytest.raises(ValueError, match="channels"):
        forward(params, Tensor(np.zeros((3, 5))))


def test_final_layer_is_linear():
    # Zeroing the last-layer weights pins the output at the last bias
    # regardless of input; a trailing relu would clip the negative bias.
    params = init_params(1, widths=(2, 2, 2), rng=0)
    params.weights[-1].data[:] = 0.0
    params.biases[-1].data[:] = -5.0
    out = forward(params, Tensor(np.random.default_rng(1).normal(size=(1, 9))))
    assert np.all(out.data == -5.0)


def test_forward_is_differentiable_end_to_end():
    params = init_params(2, widths=(3, 3, 3), rng=5)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 11)), requires_grad=True)
    with Tape() as tape:
        loss = _half_sse(forward(params, x), np.zeros((2, 11)))
    grads = backward(loss, tape)
    assert grads[x].shape == (2, 11)
    for w in params.weights:
        assert w in grads


@pytest.mark.parametrize("batch", [(), (2,)])
def test_forward_is_one_node_with_the_bits_of_an_untaped_forward(batch):
    params = init_params(3, widths=(4, 6, 4), rng=1)
    x = Tensor(np.random.default_rng(0).normal(size=(3, *batch, 17)))
    plain = forward(params, x).data
    with Tape() as tape:
        out = forward(params, x)
        loss = mse(out, 0.0)
    assert out.data.tobytes() == plain.tobytes()
    assert [(node.op, node.inputs) for node in tape.nodes] == [
        ("model_forward", (x, *params.all_tensors())), ("mse", (out,))]
    grads = backward(loss, tape)
    assert x not in grads  # x needs no gradient, so layer 0's input gradient is skipped
    assert [grads[t].shape for t in params.all_tensors()] == [t.data.shape for t in params.all_tensors()]


def test_untaped_forward_keeps_no_im2col_block():
    # Outside a tape no layer keeps its VJP, so each layer's im2col block is
    # freed before the next layer allocates its own.
    params = init_params(7, rng=0)
    x = Tensor(np.random.default_rng(0).normal(size=(7, 100)))
    forward(params, x)
    tracemalloc.start()
    try:
        forward(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = sum(w.data.shape[1] * w.data.shape[2] * 100 * 8 for w in params.weights)
    assert blocks == 1_472_800  # 1,438 KB
    assert peak < blocks


# ---------------------------------------------------------------------------
# Denoiser wrapper


def test_denoiser_validates_stats_and_channels():
    params = init_params(2, widths=(2, 2, 2), rng=0)
    with pytest.raises(ValueError, match="norm stats"):
        Denoiser(params, ["a", "b"], np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        Denoiser(params, ["a", "b"], np.zeros(2), np.array([1.0, 0.0]))
    for mean, std in (([0.0, np.inf], [1.0, 1.0]), ([0.0, 0.0], [np.nan, 1.0])):
        with pytest.raises(ValueError, match="norm_mean and norm_std must be finite"):
            Denoiser(params, ["a", "b"], np.array(mean), np.array(std))
    with pytest.raises(ValueError, match="expects 2 channels"):
        Denoiser(params, ["a", "b", "c"], np.zeros(3), np.ones(3))


# Layer shapes at widths 2, 3, 2 on 2 channels: (2, 2, 7), (3, 2, 5), (2, 3, 3), (2, 2, 3).
_BROKEN_CHAINS = [
    ("weight_1", np.ones((3, 5, 5)), "layer 1 takes 5 channels, but layer 0 outputs 2"),
    ("weight_2", np.ones((2, 3, 4)), "layer 2 has kernel size 4, which must be odd"),
    ("bias_3", np.zeros(3), "layer 3 has 3 biases for 2 output channels"),
]


@pytest.mark.parametrize("name, value, message", _BROKEN_CHAINS)
def test_denoiser_rejects_layers_that_do_not_chain(tmp_path, name, value, message):
    params = init_params(2, widths=(2, 3, 2), rng=0)
    tensors = params.all_tensors()
    tensors[2 * int(name[-1]) + name.startswith("bias")].data = value
    with pytest.raises(ValueError, match=f"^Denoiser: {message}$"):
        Denoiser(params, ["a", "b"], np.zeros(2), np.ones(2))
    path = tmp_path / "model.npz"
    save_checkpoint(Denoiser(init_params(2, widths=(2, 3, 2), rng=0), ["a", "b"], np.zeros(2), np.ones(2)), path)
    blob = dict(np.load(path))
    blob[name] = value
    np.savez(path, **blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: Denoiser: {message}"


def test_denoise_merges_only_its_channels():
    params = init_params(1, widths=(2, 2, 2), rng=3)
    den = Denoiser(params, ["sig"], np.array([0.0]), np.array([1.0]))
    window = make_window(np.arange(8.0).reshape(2, 4), names=["sig", "aux"])
    restored = denoise(den, window)
    assert restored.channels == window.channels
    assert np.array_equal(restored.row("aux"), window.row("aux"))
    assert not np.array_equal(restored.row("sig"), window.row("sig"))
    # the input window is left untouched
    assert np.array_equal(window.values[0], np.arange(4.0))


def test_denoise_requires_all_model_channels():
    params = init_params(3, widths=(2, 2, 2), rng=3)
    den = Denoiser(params, ["sig", "gone", "lost"], np.zeros(3), np.ones(3))
    window = make_window(np.ones((1, 5)), names=["sig"])
    with pytest.raises(ValueError) as err:
        denoise(den, window)
    assert str(err.value) == "input lacks channels: gone, lost (checkpoint reconstructs sig, gone, lost)"


def test_denoise_applies_zscore_normalization():
    # With zeroed weights the network emits its bias; the wrapper must map
    # that z-score back through the channel's std and mean.
    params = init_params(1, widths=(2, 2, 2), rng=0)
    for w in params.weights:
        w.data[:] = 0.0
    params.biases[-1].data[:] = 1.0
    den = Denoiser(params, ["sig"], np.array([10.0]), np.array([4.0]))
    restored = denoise(den, make_window(np.zeros((1, 5)), names=["sig"]))
    assert np.all(restored.row("sig") == 14.0)


def test_predict_residual_adds_in_z_space():
    params = init_params(1, widths=(2, 2, 2), rng=0)
    for w in params.weights:
        w.data[:] = 0.0
    plain = Denoiser(params, ["sig"], np.array([0.0]), np.array([2.0]))
    residual = Denoiser(
        params, ["sig"], np.array([0.0]), np.array([2.0]), predict_residual=True
    )
    window = make_window(np.array([[1.0, 3.0, -2.0, 0.5, 4.0]]), names=["sig"])
    # zeroed network: plain mode collapses to the mean, residual mode to identity
    assert np.all(denoise(plain, window).row("sig") == 0.0)
    assert np.array_equal(denoise(residual, window).row("sig"), window.row("sig"))


def reference_denoise(den: Denoiser, window: SampleWindow) -> np.ndarray:
    """Values of a window restored by a merge written out step by step."""
    idx = [window.channels.index(name) for name in den.channels]
    z = (window.values[idx, :] - den.norm_mean[:, None]) / den.norm_std[:, None]
    y = forward(den.params, Tensor(z)).data
    if den.predict_residual:
        y = z + y
    merged = window.values.copy()
    merged[idx, :] = y * den.norm_std[:, None] + den.norm_mean[:, None]
    return merged


@pytest.mark.parametrize("family", ["ins", "hvac"])
@pytest.mark.parametrize("residual", [False, True])
def test_denoise_equals_a_step_by_step_merge_bitwise(family, residual):
    if family == "ins":
        [window] = simulate_ins(0.5, InsEnvironment(dt=0.01), [3])
        names = ["qx", "px", "qz", "ay"]  # neither contiguous nor in window order
    else:
        [window] = simulate_hvac(1200.0, HvacEnvironment(dt=60.0), [3])
        names = ["dq", "t_sa"]
    rng = np.random.default_rng(5)
    n = len(names)
    den = Denoiser(init_params(n, (4, 6, 4), rng), names, rng.normal(size=n),
                   rng.uniform(0.5, 2.0, size=n), predict_residual=residual)
    restored = denoise(den, window)
    assert restored.values.tobytes() == reference_denoise(den, window).tobytes()
    assert (restored.channels, restored.units, restored.dt) == (window.channels, window.units, window.dt)


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = init_params(3, widths=(5, 8, 5), rng=11)
    for w in params.weights:
        w.data += np.pi * 1e-7  # non-trivial mantissas
    den = Denoiser(
        params,
        ["a", "b", "c"],
        np.array([1.0, -2.0, 3.5]),
        np.array([0.5, 1.25, 2.0]),
        predict_residual=True,
    )
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    loaded = load_checkpoint(path)

    assert loaded.channels == den.channels
    assert loaded.predict_residual is True
    assert np.array_equal(loaded.norm_mean, den.norm_mean)
    assert np.array_equal(loaded.norm_std, den.norm_std)
    for orig, back in zip(den.params.weights, loaded.params.weights):
        assert np.array_equal(orig.data, back.data)
    for orig, back in zip(den.params.biases, loaded.params.biases):
        assert np.array_equal(orig.data, back.data)

    window = make_window(np.random.default_rng(7).normal(size=(3, 16)), names=["a", "b", "c"])
    assert np.array_equal(denoise(den, window).values, denoise(loaded, window).values)



def test_checkpoint_round_trips_the_training_dt(tmp_path):
    den = Denoiser(init_params(2, widths=(2, 3, 2), rng=0), ["a", "b"], np.zeros(2), np.ones(2), dt=0.5)
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    assert load_checkpoint(path).dt == 0.5


def test_checkpoint_without_dt_loads_and_denoises_at_any_dt(tmp_path):
    den = Denoiser(init_params(2, widths=(2, 3, 2), rng=0), ["a", "b"], np.zeros(2), np.ones(2))
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    assert "dt" not in np.load(path).files
    loaded = load_checkpoint(path)
    assert loaded.dt is None
    values = np.random.default_rng(1).normal(size=(2, 12))
    for dt in (0.5, 60.0):
        window = SampleWindow(["a", "b"], values, dt, ["u", "u"])
        assert np.array_equal(denoise(loaded, window).values, denoise(den, window).values)


def test_denoise_rejects_a_window_at_another_dt():
    den = Denoiser(init_params(2, widths=(2, 3, 2), rng=0), ["a", "b"], np.zeros(2), np.ones(2), dt=0.5)
    values = np.random.default_rng(1).normal(size=(2, 12))
    denoise(den, SampleWindow(["a", "b"], values, 0.5 * (1 + 1e-10), ["u", "u"]))  # within 1e-9
    with pytest.raises(ValueError, match=r"window dt 1\.0 does not match the denoiser's training dt 0\.5"):
        denoise(den, SampleWindow(["a", "b"], values, 1.0, ["u", "u"]))


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
def test_denoiser_rejects_a_bad_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        Denoiser(init_params(1, widths=(1, 1, 1), rng=0), ["a"], np.zeros(1), np.ones(1), dt=dt)

def test_checkpoint_rejects_unknown_format_version(tmp_path):
    params = init_params(1, widths=(1, 1, 1), rng=0)
    den = Denoiser(params, ["a"], np.zeros(1), np.ones(1))
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    blob = dict(np.load(path))
    blob["format_version"] = np.array(99)
    np.savez(path, **blob)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value, message", [
    ("weight_1", np.nan, "checkpoint array weight_1 has non-finite entries"),
    ("bias_3", -np.inf, "checkpoint array bias_3 has non-finite entries"),
    ("norm_std", np.nan, "norm_mean and norm_std must be finite"),
])
def test_checkpoint_rejects_non_finite_arrays(tmp_path, name, value, message):
    den = Denoiser(init_params(2, widths=(2, 3, 2), rng=0), ["a", "b"], np.zeros(2), np.ones(2))
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    blob = dict(np.load(path))
    blob[name].flat[1] = value
    np.savez(path, **blob)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("write, message", [
    (lambda fh: None, "not a readable checkpoint archive: No data left in file"),
    (lambda fh: np.save(fh, np.zeros(3)), "a checkpoint is an npz archive, not a single array"),
])
def test_checkpoint_that_is_no_npz_archive_is_rejected(tmp_path, write, message):
    path = tmp_path / "model.npz"
    with path.open("wb") as fh:
        write(fh)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def _object_npy() -> bytes:
    """An .npy file holding an object array, which only unpickling can load."""
    buf = io.BytesIO()
    np.save(buf, np.array(["a"], dtype=object))
    return buf.getvalue()


@pytest.mark.parametrize("write, message", [
    (lambda path: path.write_bytes(pickle.dumps({"weight_0": np.zeros(3)})), "not a checkpoint archive"),
    (lambda path: path.write_text("[dataset]\nfamily = ins\n"), "not a checkpoint archive"),
    (lambda path: path.write_bytes(_object_npy()), "not a checkpoint archive"),
    (lambda path: np.savez(path, format_version=np.array(["a"], dtype=object)),
     "not a checkpoint archive: format_version is not a plain array"),
])
def test_checkpoint_holding_pickled_data_is_no_checkpoint(tmp_path, write, message):
    path = tmp_path / "model.npz"
    write(path)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"  # and no advice to load it unsafely


def test_loaded_params_are_trainable(tmp_path):
    params = init_params(1, widths=(2, 2, 2), rng=1)
    den = Denoiser(params, ["a"], np.zeros(1), np.ones(1))
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    loaded = load_checkpoint(path)
    assert all(t.requires_grad for t in loaded.params.all_tensors())
