"""Network layer: forward pass, gradients vs finite differences, Adam,
parameter text round-trip."""

import math

import numpy as np
import pytest

from motionblend.errors import ConfigError, DatasetParseError
from motionblend.nn import (
    Adam,
    Mlp,
    bce_gradients,
    bce_loss,
    params_from_lines,
    params_to_lines,
    q_gradients,
    sigmoid,
)


def tiny_net(output="sigmoid"):
    net = Mlp([1, 2, 1], output=output, rng=np.random.default_rng(0))
    net.weights[0] = np.array([[1.0, -2.0]])
    net.biases[0] = np.array([0.0, 0.0])
    net.weights[1] = np.array([[0.5], [0.7]])
    net.biases[1] = np.array([0.1])
    return net


def test_sigmoid_stable_at_extremes():
    z = np.array([-1000.0, 0.0, 1000.0])
    out = sigmoid(z)
    assert out[0] == 0.0
    assert out[1] == 0.5
    assert out[2] == 1.0


def test_forward_hand_value():
    # x=1: hidden relu([1, -2]) = [1, 0]; head sigmoid(0.5*1 + 0.1).
    net = tiny_net()
    out = net.forward(np.array([1.0]))
    assert abs(float(out[0]) - 1.0 / (1.0 + math.exp(-0.6))) < 1e-15


def test_forward_batch_matches_single():
    net = Mlp([4, 6, 3], output="linear", rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(0, 1, (5, 4))
    batch = net.forward(x)
    assert batch.shape == (5, 3)
    for i in range(5):
        # BLAS may reorder the row sums: tight, not bit-exact
        assert np.allclose(net.forward(x[i]), batch[i], rtol=1e-12, atol=0)


def test_init_xavier_uniform_and_zero_bias():
    net = Mlp([10, 7, 2], rng=np.random.default_rng(9))
    for w, (d_in, d_out) in zip(net.weights, [(10, 7), (7, 2)]):
        limit = math.sqrt(6.0 / (d_in + d_out))
        assert np.all(np.abs(w) <= limit)
    for b in net.biases:
        assert np.all(b == 0.0)
    twin = Mlp([10, 7, 2], rng=np.random.default_rng(9))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, twin.weights))


def test_bad_construction():
    with pytest.raises(ConfigError):
        Mlp([4])
    with pytest.raises(ConfigError):
        Mlp([4, 0, 1])
    with pytest.raises(ConfigError):
        Mlp([4, 2], output="tanh")


def test_copy_is_independent():
    net = tiny_net()
    clone = net.copy()
    clone.weights[0][0, 0] = 99.0
    assert net.weights[0][0, 0] == 1.0


def test_bce_loss_hand_value():
    assert abs(bce_loss(np.array([0.5]), np.array([1.0])) - math.log(2.0)) < 1e-12


def test_bce_gradients_loss_matches_probability_form():
    net = Mlp([3, 5, 1], rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, (8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    loss, _, _ = bce_gradients(net, x, y)
    scores = net.forward(x)[:, 0]
    assert abs(loss - bce_loss(scores, y)) < 1e-12


def central_difference(net, coord, eval_loss, h=1e-6):
    params = net.weights + net.biases
    layer, flat = coord
    p = params[layer].reshape(-1)
    keep = p[flat]
    p[flat] = keep + h
    up = eval_loss()
    p[flat] = keep - h
    down = eval_loss()
    p[flat] = keep
    return (up - down) / (2.0 * h)


def probe_coords(net, count, rng):
    params = net.weights + net.biases
    coords = []
    for _ in range(count):
        layer = int(rng.integers(0, len(params)))
        flat = int(rng.integers(0, params[layer].size))
        coords.append((layer, flat))
    return coords


def test_bce_gradient_check():
    rng = np.random.default_rng(11)
    net = Mlp([4, 6, 1], rng=rng)
    x = rng.normal(0, 1, (10, 4))
    y = rng.integers(0, 2, 10).astype(float)
    loss, gw, gb = bce_gradients(net, x, y)
    grads = list(gw) + list(gb)
    worst = 0.0
    for layer, flat in probe_coords(net, 20, rng):
        numeric = central_difference(
            net, (layer, flat), lambda: bce_gradients(net, x, y)[0]
        )
        analytic = grads[layer].reshape(-1)[flat]
        rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_q_gradient_check():
    rng = np.random.default_rng(12)
    net = Mlp([5, 8, 4], output="linear", rng=rng)
    x = rng.normal(0, 1, (9, 5))
    actions = rng.integers(0, 4, 9)
    targets = rng.normal(0, 10, 9)
    loss, gw, gb = q_gradients(net, x, actions, targets)
    picked = net.forward(x)[np.arange(9), actions]
    assert abs(loss - float(np.mean((picked - targets) ** 2))) < 1e-12
    grads = list(gw) + list(gb)
    for layer, flat in probe_coords(net, 20, rng):
        numeric = central_difference(
            net, (layer, flat), lambda: q_gradients(net, x, actions, targets)[0]
        )
        analytic = grads[layer].reshape(-1)[flat]
        assert abs(analytic - numeric) / max(abs(numeric), 1e-8) < 1e-4


def test_q_gradients_ignore_unpicked_actions():
    # Only the chosen action's head column may receive gradient.
    rng = np.random.default_rng(13)
    net = Mlp([3, 4, 4], output="linear", rng=rng)
    x = rng.normal(0, 1, (6, 3))
    actions = np.zeros(6, dtype=int)
    _, gw, _ = q_gradients(net, x, actions, np.ones(6))
    assert np.all(gw[-1][:, 1:] == 0.0)


def test_head_mismatch_refused():
    with pytest.raises(ConfigError):
        bce_gradients(Mlp([2, 2], output="linear"), np.zeros((1, 2)), [0.0])
    with pytest.raises(ConfigError):
        q_gradients(Mlp([2, 2], output="sigmoid"), np.zeros((1, 2)), [0], [0.0])


def test_dropout_masks_are_inverted():
    net = Mlp([4, 50, 1], rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    _, masks, _ = net._forward_train(np.ones((3, 4)), 0.5, rng)
    values = np.unique(masks[0])
    assert set(values.tolist()) <= {0.0, 2.0}
    assert 0.0 in values and 2.0 in values


def test_inference_has_no_dropout():
    net = Mlp([4, 50, 1], rng=np.random.default_rng(8))
    x = np.ones((2, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_adam_first_step_is_signed_lr():
    # With zero moments one step moves each parameter by lr * sign(g).
    net = Mlp([1, 1], output="linear", rng=np.random.default_rng(0))
    w0 = net.weights[0].copy()
    g = np.array([[0.25]])
    opt = Adam(net, lr=0.01)
    opt.step(net, [g], [np.zeros(1)])
    expected = w0 - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(net.weights[0], expected, rtol=0, atol=1e-12)


def test_adam_fits_affine_target():
    net = Mlp([1, 1], output="linear", rng=np.random.default_rng(14))
    opt = Adam(net, lr=0.05)
    x = np.array([[1.0]])
    for _ in range(400):
        loss, gw, gb = q_gradients(net, x, [0], [3.0])
        opt.step(net, gw, gb)
    assert loss < 1e-6


class ReferenceAdam:
    """The textbook per-array Adam step, without the flush: the reference
    the optimizer must match bit for bit."""

    def __init__(self, net, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p) for p in net.weights + net.biases]
        self._v = [np.zeros_like(m) for m in self._m]

    def step(self, net, grads_w, grads_b):
        self.t += 1
        params = net.weights + net.biases
        grads = list(grads_w) + list(grads_b)
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def test_adam_flush_matches_reference_bitwise():
    # From step 5 on, hidden units 0-2 are dead for every input (bias -1e3),
    # so their first moments decay by 0.9 a step and the reference's turn
    # subnormal after about 7k steps.
    rng = np.random.default_rng(17)
    net = Mlp([3, 8, 2], output="linear", rng=rng)
    x = np.abs(rng.normal(0, 1, (16, 3)))
    actions = rng.integers(0, 2, 16)
    targets = rng.normal(0, 1, 16)
    ref_net = net.copy()
    opt, ref = Adam(net), ReferenceAdam(ref_net)
    tiny = np.finfo(np.float64).tiny
    for step in range(7600):
        if step == 5:
            for n in (net, ref_net):
                n.biases[0][:3] = -1e3
        for n, o in ((net, opt), (ref_net, ref)):
            _, gw, gb = q_gradients(n, x, actions, targets)
            o.step(n, gw, gb)
    ref_m = np.concatenate([m.ravel() for m in ref._m])
    assert np.any((ref_m != 0.0) & (np.abs(ref_m) < tiny))
    for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
        assert a.tobytes() == b.tobytes()
    for m in opt._m:
        assert not np.any((m != 0.0) & (np.abs(m) < tiny))
    for arrays in (opt._m, opt._v):
        assert isinstance(arrays, list)
        assert [a.shape for a in arrays] == [p.shape for p in net.weights + net.biases]


def test_params_text_roundtrip_exact():
    net = Mlp([3, 4, 2], output="linear", rng=np.random.default_rng(15))
    lines = params_to_lines(net)
    back = params_from_lines(lines, net.dims, output="linear")
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(net.biases, back.biases))


def _per_element_lines(net):
    # The serializer as it was: one repr(float(x)) per element.
    lines = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(x)) for x in row))
        lines.append(f"bias {i} {b.shape[0]}")
        lines.append(" ".join(repr(float(x)) for x in b))
    return lines


def test_params_to_lines_matches_per_element_repr():
    rng = np.random.default_rng(19)
    net = Mlp([6, 9, 4], output="linear", rng=rng)
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, 5e-324, -tiny / 3, tiny, 1e308, -1.7976931348623157e308,
               1e-300, 0.1, 123456789.125, -2.5e-17]
    net.weights[0].flat[: len(special)] = special
    net.weights[1] *= 10.0 ** rng.integers(-300, 300, net.weights[1].shape)
    net.biases[0][:] = rng.normal(size=9)
    net.biases[1][:] = [-0.0, 5e-324, 1e300, -7.0]
    assert np.signbit(net.weights[0].flat[1]) and 0.0 < net.weights[0].flat[2] < tiny
    assert params_to_lines(net) == _per_element_lines(net)


def test_params_from_lines_errors():
    net = Mlp([2, 2], output="linear", rng=np.random.default_rng(16))
    lines = params_to_lines(net)
    with pytest.raises(DatasetParseError):
        params_from_lines(lines[:-1], net.dims, output="linear")
    with pytest.raises(DatasetParseError):
        params_from_lines(lines + ["junk"], net.dims, output="linear")
    bad = ["layer 1 2 2"] + lines[1:]
    with pytest.raises(DatasetParseError):
        params_from_lines(bad, net.dims, output="linear")


# Lines of a [2, 3] network: 0 layer header, 1-2 rows, 3 bias header, 4 bias.
@pytest.mark.parametrize(
    "index, text, line_no",
    [
        (0, "layer 0", 10),
        (0, "layer", 10),
        (0, "layer 0 two 3", 10),
        (3, "bias 0", 13),
        (1, "0.5 0.25", 11),
        (2, "0.5 0.25 0.125 1.0", 12),
        (1, "0.5 zero 0.25", 11),
        (1, "bias 0 3", 11),
        (3, "0.5 0.25 0.125", 13),
        (4, "0.5 0.25", 14),
        (2, "0.5 nan 0.25", 12),
        (1, "inf 0.5 0.25", 11),
        (4, "0.5 0.25 -inf", 14),
    ],
)
def test_params_from_lines_names_the_bad_line(index, text, line_no):
    net = Mlp([2, 3], output="linear", rng=np.random.default_rng(18))
    lines = params_to_lines(net)
    lines[index] = text
    with pytest.raises(DatasetParseError, match=f"^line {line_no}:"):
        params_from_lines(lines, net.dims, output="linear", first_line=10)


def test_params_from_lines_rejects_bad_dims():
    with pytest.raises(DatasetParseError):
        params_from_lines([], [4], output="linear")
    with pytest.raises(DatasetParseError):
        params_from_lines([], [4, 0, 1], output="linear")
