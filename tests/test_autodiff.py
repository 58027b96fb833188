"""Differentiation engine: forward oracles, hand-derived gradients, tape rules."""
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import physden
from physden.autodiff import (
    AdamState,
    NumericalError,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    mse,
    mul,
)
import physden.training as training_mod
from physden.data import SimulateConfig, generate_dataset
from physden.gradcheck import _cases, _half_sse, _probe, _step, check_gradient
from physden.model import ModelParams, conv1d, forward, relu
from physden.physics import FAMILIES
from physden.training import TrainConfig, train


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# Forward oracles


def test_elementwise_forward_values():
    a = Tensor([1.0, -2.0, 3.0])
    b = Tensor([4.0, 5.0, -6.0])
    assert np.array_equal(add(a, b).data, [5.0, 3.0, -3.0])
    assert np.array_equal(mul(a, b).data, [4.0, -10.0, -18.0])
    assert np.array_equal(relu(a.data)[0], [1.0, 0.0, 3.0])
    out = relu(np.array([-0.0, np.inf, -np.inf, np.nan]))[0]
    assert out[:3].tolist() == [0.0, np.inf, 0.0] and not np.signbit(out[0])
    assert np.isnan(out[3])


def test_equal_shape_rule_rejects_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=r"shape mismatch \(3,\) vs \(\)"):
        mul(Tensor([1.0, 2.0, 3.0]), 2.0)  # a 0-d operand is not broadcast
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(Tensor([1.0, 2.0]), np.array([[1.0, 2.0]]))
    assert float(mul(Tensor(3.0), 2.0).data) == 6.0  # two 0-d scalars are equal shapes


def test_tensor_rejects_four_dims():
    with pytest.raises(ValueError, match="at most 3 dims"):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_reductions():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert float(mse(a, 0.0).data) == 7.5
    # gradcheck's probe: 0.5 * sum((a - t)^2) = 0.5 * (1 + 0 + 4 + 9) against t = [[0, 2], [1, 1]].
    assert float(_half_sse(a, np.array([[0.0, 2.0], [1.0, 1.0]])).data) == 7.0


def test_conv1d_forward_oracle():
    # Box kernel over [1, 2, 3] with zero padding: [0+1+2, 1+2+3, 2+3+0].
    x = np.array([[1.0, 2.0, 3.0]])
    w = np.ones((1, 1, 3))
    b = np.zeros(1)
    assert np.array_equal(conv1d(x, w, b)[0], [[3.0, 6.0, 5.0]])


def test_conv1d_bias_and_multichannel():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    w = np.zeros((2, 3, 1))
    w[0, 0, 0] = 1.0  # out0 copies channel 0
    w[1, 2, 0] = 1.0  # out1 copies channel 2
    out, _ = conv1d(x, w, np.array([10.0, -1.0]))
    assert np.array_equal(out, [[11.0, 10.0], [1.0, 1.0]])


def test_conv1d_validation():
    x = np.ones((1, 4))
    with pytest.raises(ValueError, match="odd"):
        conv1d(x, np.ones((1, 1, 2)), np.zeros(1))
    with pytest.raises(ValueError, match="channels"):
        conv1d(x, np.ones((1, 2, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="bias"):
        conv1d(x, np.ones((2, 1, 3)), np.zeros(1))


def test_conv1d_on_a_batch_matches_each_window():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 11))
    w, b = rng.normal(size=(5, 3, 5)), rng.normal(size=5)
    g = rng.normal(size=(5, 4, 11))

    def run(xv, gv):
        out, vjp = conv1d(xv, w, b)
        return (out, *vjp(gv, True))

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    out, gx, gw, gb = run(x, g)
    per_window = [run(x[:, i], g[:, i]) for i in range(x.shape[1])]
    close(out, np.stack([p[0] for p in per_window], axis=1))
    close(gx, np.stack([p[1] for p in per_window], axis=1))
    close(gw, sum(p[2] for p in per_window))
    close(gb, sum(p[3] for p in per_window))


def test_mse_oracle():
    assert float(mse(Tensor([0.0, 0.0]), np.array([3.0, 4.0])).data) == 12.5


# ---------------------------------------------------------------------------
# Hand-derived gradients


def test_backward_of_product_plus_term():
    # loss = 0.5 * sum((x * y + x - t)^2) with x * y + x = [4, 12] and t = [2, 9],
    # so dL/d(out) = [2, 3]; dL/dx = [2, 3] * (y + 1), dL/dy = [2, 3] * x.
    x = leaf([1.0, 2.0])
    y = leaf([3.0, 5.0])
    with Tape() as tape:
        loss = _half_sse(add(mul(x, y), x), np.array([2.0, 9.0]))
    grads = backward(loss, tape)
    assert np.array_equal(grads[x], [8.0, 18.0])
    assert np.array_equal(grads[y], [2.0, 6.0])


def test_central_difference_step_scales_with_the_operating_point():
    # 128 a + b at entries near 400: each output is near 51,000, so a fixed 1e-6 step would lose
    # b's O(1) gradient to the output's roundoff (2.4e-06 here); a step scaled to b's size does not.
    rng = np.random.default_rng(0)
    a, b = rng.uniform(390.0, 410.0, size=(2, 2, 3))
    w = rng.uniform(-1.0, 1.0, size=(2, 3))
    fn = _probe(lambda xs: add(mul(xs[0], Tensor(np.full((2, 3), 128.0))), xs[1]), [a, b], w)
    assert check_gradient(fn, [a, b]) <= 1e-7


@pytest.mark.parametrize("seed", range(60))
def test_model_gradcheck_case_stays_off_the_relu_kink(seed):
    # Finite differences step each input by its _step; a hidden pre-activation
    # within reach of zero would straddle the kink and spoil the check.
    fn, inputs = _cases()["model_forward"](np.random.default_rng(seed))
    step = max(_step(x) for x in inputs)
    h = inputs[0]
    layers = list(zip(inputs[1::2], inputs[2::2]))
    for w, b in layers[:-1]:
        pre = conv1d(h, w, b)[0]
        assert np.min(np.abs(pre)) >= 10 * step
        h = np.maximum(pre, 0.0)
    assert check_gradient(fn, inputs) <= 1e-5


def test_every_op_a_training_records_has_a_gradcheck_family(monkeypatch, tank):
    # Every node op of a training with a phase 2, per physics family (conftest's tank
    # included), plus the layer probes conv1d and relu that run inside model_forward's node.
    ops = set()

    class CollectingTape(Tape):
        def __exit__(self, *exc):
            ops.update(node.op for node in self.nodes)
            return super().__exit__(*exc)

    monkeypatch.setattr(training_mod, "Tape", CollectingTape)
    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs_total=2, pretrain_fraction=0.5, widths=(2, 3, 2))
    for name, family in FAMILIES.items():
        ds = generate_dataset(SimulateConfig(family=name, count=4, duration=20 * family.dt, seed=1))
        assert {row.phase for row in train(ds.windows, ds.spec, cfg).log} == {1, 2}
    assert "residual_tank" in ops
    assert ops | {"conv1d", "relu"} == set(_cases())


def test_relu_gradient_zero_at_kink():
    _, vjp = relu(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(vjp(np.ones(3)), [0.0, 0.0, 1.0])


def test_mse_gradient():
    a = leaf([0.0, 0.0])
    with Tape() as tape:
        loss = mse(a, np.array([3.0, 4.0]))
    # d mean((a-b)^2) / da = 2 (a - b) / n.
    assert np.array_equal(backward(loss, tape)[a], [-3.0, -4.0])


def test_mse_to_a_scalar_target_is_one_node():
    a = leaf([1.0, 3.0])
    with Tape() as tape:
        loss = mse(a, 0.0)
    assert float(loss.data) == 5.0
    assert [(node.op, node.inputs) for node in tape.nodes] == [("mse", (a,))]
    grads = backward(loss, tape)
    assert np.array_equal(grads[a], [1.0, 3.0])
    assert list(grads) == [loss, a]  # the constant target gets no gradient


def test_conv1d_gradients_hand_values():
    # Box kernel, loss = sum(out): grad x counts kernel taps that see each
    # sample, grad w sums the padded input under each tap.
    _, vjp = conv1d(np.array([[1.0, 2.0, 3.0]]), np.ones((1, 1, 3)), np.zeros(1))
    gx, gw, gb = vjp(np.ones((1, 3)), True)
    assert np.array_equal(gx, [[2.0, 3.0, 2.0]])
    assert np.array_equal(gw, [[[3.0, 6.0, 5.0]]])
    assert np.array_equal(gb, [3.0])


def test_gradient_accumulates_over_reuse():
    # loss = 0.5 * (x * x)^2: each of mul's two inputs gets x^2 * x = 27, summed to 54.
    x = leaf([3.0])
    with Tape() as tape:
        loss = _half_sse(mul(x, x), np.zeros(1))
    assert np.array_equal(backward(loss, tape)[x], [54.0])


# ---------------------------------------------------------------------------
# Tape semantics


def test_operations_outside_tape_record_nothing():
    x = leaf([1.0])
    tape = Tape()
    with tape:
        pass
    mul(x, x)
    assert tape.nodes == []


def test_constants_are_pruned_from_tape():
    with Tape() as tape:
        mul(Tensor([1.0]), Tensor([2.0]))
    assert tape.nodes == []


def test_backward_requires_scalar_loss():
    x = leaf([1.0, 2.0])
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        backward(y, tape)


def test_backward_is_pure_in_the_tape():
    x = leaf([2.0])
    with Tape() as tape:
        loss = _half_sse(mul(x, x), np.zeros(1))
    first = backward(loss, tape)[x]
    second = backward(loss, tape)[x]
    assert np.array_equal(first, second)


def test_unreached_tensor_gets_no_entry():
    x = leaf([1.0, 2.0])
    unused = leaf([[7.0, 8.0]])
    with Tape() as tape:
        loss = _half_sse(x, np.array([0.0, 3.0]))
    grads = backward(loss, tape)
    assert type(grads) is dict and unused not in grads
    assert np.array_equal(grads[x], [1.0, -1.0])


def test_no_grad_leaf_gets_no_entry():
    x = leaf([1.0])
    frozen = Tensor([2.0], requires_grad=False)
    with Tape() as tape:
        loss = _half_sse(mul(x, frozen), np.zeros(1))
    grads = backward(loss, tape)
    assert frozen not in grads
    assert np.array_equal(grads[x], [4.0])  # (x * 2) * 2


def test_nested_tapes_record_independently():
    x = leaf([1.0])
    with Tape() as outer:
        mul(x, x)
        with Tape() as inner:
            loss = _half_sse(mul(x, x), np.zeros(1))
        grads = backward(loss, inner)
    assert len(outer.nodes) == 1
    assert [node.op for node in inner.nodes] == ["mul", "mse", "mul"]
    assert np.array_equal(grads[x], [2.0])  # (x * x) * 2x at x = 1


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_first_step_is_bias_corrected():
    p = leaf([0.0])
    state = AdamState.for_params([p])
    with Tape() as tape:
        loss = _half_sse(mul(p, Tensor([3.0])), np.array([-1.0]))
    grads = backward(loss, tape)
    assert np.array_equal(grads[p], [3.0])  # (3p + 1) * 3 at p = 0
    adam_step([p], grads, state, lr=0.01)
    # After bias correction the first step is lr * g / (|g| + eps).
    assert state.t == 1
    assert np.allclose(p.data, [-0.01], atol=1e-9)


def test_adam_converges_on_quadratic():
    p = leaf([5.0])
    state = AdamState.for_params([p])
    for _ in range(400):
        with Tape() as tape:
            loss = _half_sse(p, np.zeros(1))
        adam_step([p], backward(loss, tape), state, lr=0.05)
    assert abs(p.data[0]) < 1e-2


def test_adam_rejects_non_finite_gradient():
    p = leaf([1.0])
    state = AdamState.for_params([p])
    with Tape() as tape:
        loss = _half_sse(mul(p, Tensor([np.inf])), np.zeros(1))
    grads = backward(loss, tape)
    with pytest.raises(NumericalError, match="parameter 0 at step 1"):
        adam_step([p], grads, state, lr=0.01)


def _adam_problem(rng):
    """Conv parameters the loss reaches, plus one parameter it never reaches."""
    x = Tensor(rng.normal(size=(2, 3, 9)))
    target = rng.normal(size=(3, 3, 9))
    params = [leaf(rng.normal(size=(3, 2, 5))), leaf(rng.normal(size=3)), leaf(rng.normal(size=(2, 2)))]

    def grads():
        with Tape() as tape:
            loss = mse(forward(ModelParams(weights=params[:1], biases=params[1:2]), x), target)
        return backward(loss, tape)

    return params, grads


def test_adam_flat_update_equals_per_parameter_reference():
    params, grads = _adam_problem(np.random.default_rng(3))
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(r) for r in ref]
    ref_v = [np.zeros_like(r) for r in ref]
    state = AdamState.for_params(params)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 51):
        g = grads()
        assert params[2] not in g
        for i, p in enumerate(params):
            gi = g[p] if p in g else np.zeros_like(p.data)
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * gi
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (gi * gi)
            mhat = ref_m[i] / (1.0 - b1 ** t)
            vhat = ref_v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * mhat / (np.sqrt(vhat) + eps)
        adam_step(params, g, state, lr=lr)
    assert state.t == 50
    assert not np.any(ref_m[2])  # the unreached parameter keeps zero moments
    assert all(p.data.tobytes() == r.tobytes() for p, r in zip(params, ref))
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


def test_adam_non_finite_gradient_changes_nothing():
    params, grads = _adam_problem(np.random.default_rng(4))
    state = AdamState.for_params(params)
    for _ in range(2):
        adam_step(params, grads(), state, lr=0.01)
    before = [p.data.copy() for p in params], state.m.copy(), state.v.copy()
    g = grads()
    g[params[1]][1] = np.nan  # parameter 0 comes first and stays finite
    with pytest.raises(NumericalError, match="parameter 1 at step 3"):
        adam_step(params, g, state, lr=0.01)
    assert state.t == 2
    assert all(p.data.tobytes() == b.tobytes() for p, b in zip(params, before[0]))
    assert state.m.tobytes() == before[1].tobytes() and state.v.tobytes() == before[2].tobytes()


def test_adam_state_must_match_params():
    p = leaf([0.0])
    state = AdamState.for_params([p, leaf([1.0])])
    with Tape() as tape:
        loss = _half_sse(p, np.zeros(1))
    with pytest.raises(ValueError, match="state does not match"):
        adam_step([p], backward(loss, tape), state, lr=0.01)


# ---------------------------------------------------------------------------
# Properties


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=16),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=16),
)
def test_add_commutes(a_vals, b_vals):
    n = min(len(a_vals), len(b_vals))
    a = Tensor(np.array(a_vals[:n]))
    b = Tensor(np.array(b_vals[:n]))
    assert np.array_equal(add(a, b).data, add(b, a).data)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(3, 9, ).filter(lambda k: k % 2 == 1))
def test_conv1d_matches_direct_summation(seed, k):
    rng = np.random.default_rng(seed)
    cin, cout, t_len = 2, 3, 8
    x = rng.normal(size=(cin, t_len))
    w = rng.normal(size=(cout, cin, k))
    b = rng.normal(size=cout)
    out, _ = conv1d(x, w, b)
    pad = (k - 1) // 2
    xpad = np.zeros((cin, t_len + k - 1))
    xpad[:, pad:pad + t_len] = x
    expected = np.empty((cout, t_len))
    for o in range(cout):
        for t in range(t_len):
            expected[o, t] = b[o] + sum(
                w[o, i, j] * xpad[i, t + j] for i in range(cin) for j in range(k)
            )
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Package surface


@pytest.mark.parametrize("module", ["physden", *(f"physden.{m.name}"
                                                  for m in pkgutil.iter_modules(physden.__path__))])
def test_every_exported_name_exists(module):
    # A deleted function or op must not stay behind in its module's __all__.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
