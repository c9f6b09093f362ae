"""Minimal fully connected network with hand-rolled backprop and Adam.

Shared by the movement classifier (sigmoid head, binary cross entropy) and
the correction agent (linear head, squared error on the chosen action).
Everything is plain numpy; no autograd.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DatasetParseError

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Mlp:
    """ReLU hidden layers, configurable head, Xavier-uniform init.

    Weights are (fan_in, fan_out) matrices applied as x @ W + b.
    """

    def __init__(self, dims, output="sigmoid", rng=None):
        if len(dims) < 2 or any(int(d) != d or d < 1 for d in dims):
            raise ConfigError(f"bad layer dims {dims}")
        if output not in ("sigmoid", "linear"):
            raise ConfigError(f"unknown output activation {output!r}")
        self.dims = [int(d) for d in dims]
        self.output = output
        if rng is None:
            rng = np.random.default_rng()
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(self.dims[:-1], self.dims[1:]):
            limit = np.sqrt(6.0 / (d_in + d_out))
            self.weights.append(rng.uniform(-limit, limit, (d_in, d_out)))
            self.biases.append(np.zeros(d_out))

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.dims = list(self.dims)
        clone.output = self.output
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def _apply_head(self, z: np.ndarray) -> np.ndarray:
        return sigmoid(z) if self.output == "sigmoid" else z

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference pass on a (n, d_in) batch; dropout never applies here."""
        a = np.asarray(x, dtype=float)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        out = self._apply_head(a @ self.weights[-1] + self.biases[-1])
        return out[0] if squeeze else out

    def forward_from_first_layer(self, z1: np.ndarray) -> np.ndarray:
        """Finish an inference pass from first-layer pre-activations.

        ``z1`` has shape (..., dims[1]) and holds x @ W0 + b0 however the
        caller computed it; it is overwritten with its ReLU. Returns the
        outputs with shape (..., dims[-1]).
        """
        if len(self.weights) == 1:
            return self._apply_head(z1)
        a = np.maximum(z1, 0.0, out=z1).reshape(-1, z1.shape[-1])
        for w, b in zip(self.weights[1:-1], self.biases[1:-1]):
            a = np.maximum(a @ w + b, 0.0)
        out = self._apply_head(a @ self.weights[-1] + self.biases[-1])
        return out.reshape(z1.shape[:-1] + (self.dims[-1],))

    def _forward_train(self, x, dropout_rate, rng):
        """Forward pass keeping activations and inverted-dropout masks."""
        acts = [np.asarray(x, dtype=float)]
        masks = []
        a = acts[0]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
            if dropout_rate > 0.0:
                keep = 1.0 - dropout_rate
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
            else:
                mask = None
            masks.append(mask)
            acts.append(a)
        z_out = a @ self.weights[-1] + self.biases[-1]
        return acts, masks, z_out

    def _backprop(self, acts, masks, dz_out):
        """Given d(loss)/d(output pre-activation), return weight/bias grads."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dz_out
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights[layer].T
                if masks[layer - 1] is not None:
                    delta = delta * masks[layer - 1]
                delta = delta * (acts[layer] > 0.0)
        return grads_w, grads_b


def bce_loss(scores: np.ndarray, y: np.ndarray) -> float:
    """Binary cross entropy from probabilities (evaluation helper)."""
    eps = 1e-12
    s = np.clip(scores.reshape(-1), eps, 1.0 - eps)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


def bce_gradients(net: Mlp, x, y, dropout_rate=0.0, rng=None):
    """Mean BCE loss and its gradients for a sigmoid-headed network."""
    if net.output != "sigmoid":
        raise ConfigError("bce_gradients needs a sigmoid head")
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    acts, masks, z = net._forward_train(x, dropout_rate, rng)
    n = z.shape[0]
    # softplus(-z) + (1 - y) * z, computed from logits for stability
    loss = float(np.mean(np.logaddexp(0.0, -z) + (1.0 - y) * z))
    dz = (sigmoid(z) - y) / n
    grads_w, grads_b = net._backprop(acts, masks, dz)
    return loss, grads_w, grads_b


def q_gradients(net: Mlp, x, actions, targets):
    """Mean squared error on the chosen action's output, with gradients."""
    if net.output != "linear":
        raise ConfigError("q_gradients needs a linear head")
    actions = np.asarray(actions, dtype=int).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    acts, masks, z = net._forward_train(x, 0.0, None)
    n = z.shape[0]
    picked = z[np.arange(n), actions]
    err = picked - targets
    loss = float(np.mean(err**2))
    dz = np.zeros_like(z)
    dz[np.arange(n), actions] = 2.0 * err / n
    grads_w, grads_b = net._backprop(acts, masks, dz)
    return loss, grads_w, grads_b


class Adam:
    """Adam optimizer over an Mlp's parameter list.

    The first and second moments live in one flat buffer each; ``_m`` and
    ``_v`` are per-parameter views into them, shaped like the parameters.
    A step is a fixed set of in-place ufunc calls on the flat buffers, with
    no temporaries, and keeps the per-element expression and its order of
    operations, ``lr * (m / c1) / (sqrt(v / c2) + eps)``, so it rounds
    exactly like the textbook per-array update.

    First moments below the smallest normal float64 (``tiny``) are flushed
    to zero. A dead ReLU unit gets zero gradient, so its first moment
    decays by beta1 a step until it turns subnormal, where it sticks at a
    few units in the last place; arithmetic on subnormals runs several
    times slower. Such a moment moves its parameter by at most
    ``lr * tiny / (c1 * eps)``, below 1e-300, which rounds away against any
    parameter larger than about 1e-284, so the flush does not change the
    trained parameters; tests check this bit for bit against the
    unflushed update.
    """

    def __init__(self, net: Mlp, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        params = net.weights + net.biases
        bounds = np.cumsum([0] + [p.size for p in params])
        size = int(bounds[-1])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._m_flat = np.zeros(size)
        self._v_flat = np.zeros(size)
        self._m = [self._m_flat[sl].reshape(p.shape) for sl, p in zip(self._slices, params)]
        self._v = [self._v_flat[sl].reshape(p.shape) for sl, p in zip(self._slices, params)]
        self._grad = np.empty(size)
        self._tmp = np.empty(size)
        self._negligible = np.empty(size, dtype=bool)

    def step(self, net: Mlp, grads_w, grads_b) -> None:
        self.t += 1
        params = net.weights + net.biases
        grads = list(grads_w) + list(grads_b)
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        m, v, g, tmp = self._m_flat, self._v_flat, self._grad, self._tmp
        np.concatenate([grad.reshape(-1) for grad in grads], out=g)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        np.less(np.abs(m, out=tmp), _TINY, out=self._negligible)
        np.copyto(m, 0.0, where=self._negligible)
        v *= self.beta2
        np.square(g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        np.divide(v, correct2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        # The gradient is consumed; g now holds the update.
        np.divide(m, correct1, out=g)
        g *= self.lr
        g /= tmp
        for sl, p in zip(self._slices, params):
            p -= g[sl].reshape(p.shape)


def params_to_lines(net: Mlp) -> list:
    """Weights and biases as text lines, row major, exact decimal floats."""
    lines = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        # tolist() yields Python floats, whose repr is repr(float(x)).
        lines += (" ".join(map(repr, row)) for row in w.tolist())
        lines.append(f"bias {i} {b.shape[0]}")
        lines.append(" ".join(map(repr, b.tolist())))
    return lines


def header_text(lines, lineno: int, key: str) -> str:
    """Text after ``key`` on 1-based line ``lineno`` of an artifact file.

    A missing line or one that starts with another key is a DatasetParseError
    naming the line.
    """
    if lineno > len(lines):
        raise DatasetParseError(f"line {lineno}: expected {key!r}, file ended")
    name, _, rest = lines[lineno - 1].partition(" ")
    if name != key:
        raise DatasetParseError(f"line {lineno}: expected {key!r}, got {name[:40]!r}")
    return rest


def header_values(lines, lineno: int, key: str, convert, count=None) -> list:
    """``key``'s whitespace-separated values on line ``lineno``, converted.

    ``count`` pins the number of values; a wrong count or a value
    ``convert`` rejects is a DatasetParseError naming the line.
    """
    tokens = header_text(lines, lineno, key).split()
    if count is not None and len(tokens) != count:
        raise DatasetParseError(
            f"line {lineno}: {key}: expected {count} values, got {len(tokens)}"
        )
    try:
        return [convert(tok) for tok in tokens]
    except ValueError:
        raise DatasetParseError(f"line {lineno}: {key}: bad value") from None


def params_from_lines(lines, dims, output, first_line=1) -> Mlp:
    """Rebuild an Mlp from params_to_lines output; validates every shape.

    Every value must be a finite float. ``first_line`` is the file line
    number of ``lines[0]``, so each DatasetParseError names its file line.
    """
    if len(dims) < 2 or any(int(d) != d or d < 1 for d in dims):
        raise DatasetParseError(f"bad layer dims {list(dims)}")
    net = Mlp.__new__(Mlp)
    net.dims = [int(d) for d in dims]
    net.output = output
    net.weights = []
    net.biases = []
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise DatasetParseError(f"line {first_line + pos}: model text ended early")
        pos += 1
        return first_line + pos - 1, lines[pos - 1]

    def header(*expected):
        lineno, line = take()
        want = " ".join(str(x) for x in expected)
        if line.split() != want.split():
            raise DatasetParseError(
                f"line {lineno}: expected {want!r}, got {line[:40]!r}"
            )

    def row(width, what):
        lineno, line = take()
        try:
            values = np.array([float(x) for x in line.split()])
        except ValueError:
            raise DatasetParseError(f"line {lineno}: {what}: not a number") from None
        if values.size != width:
            raise DatasetParseError(
                f"line {lineno}: {what}: expected {width} values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise DatasetParseError(f"line {lineno}: {what}: non-finite value")
        return values

    for i, (d_in, d_out) in enumerate(zip(net.dims[:-1], net.dims[1:])):
        header("layer", i, d_in, d_out)
        net.weights.append(np.array([row(d_out, f"layer {i} row") for _ in range(d_in)]))
        header("bias", i, d_out)
        net.biases.append(row(d_out, f"bias {i}"))
    if pos != len(lines):
        raise DatasetParseError(
            f"line {first_line + pos}: {len(lines) - pos} trailing lines after parameters"
        )
    return net
