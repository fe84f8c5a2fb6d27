"""Dense feed-forward networks with exact reverse-mode gradients, the Adam
optimizer, and the one minibatch training loop every net in the package is
trained with.

All arrays are float64 numpy. Networks are small (a few layers of width
~64), so hand-written backprop is both fast enough and fully deterministic,
which keeps checkpoints bit-exact across reruns.

Training runs on one flat parameter buffer. :func:`flatten_parameters`
copies every ``weight`` and ``bias`` of the trained layers into one
contiguous float64 vector and rebinds them as reshaped views of it, so the
nets keep their usual shape-wise arrays while each minibatch step costs one
Adam update and one finiteness check on the whole vector, and each epoch of
the averaged tail one Polyak add. The gradients of a step live in one
matching flat vector: ``backward`` writes each layer's gradients straight
into its reshaped views, so a step neither allocates nor copies them.
``FeedForwardNet`` is the one dense layer stack with a backward pass; the
quantile nets' cosine embedding is a one-layer subclass.

Every net trains with Adam (Kingma & Ba 2015) at the rate, epochs and
batch size of an :class:`OptimizerSpec`. The quantile nets settle their fit
(a stepped rate and a Polyak-averaged tail); the summary net does not.

Shape conventions: a layer maps ``(B, d_in) -> (B, d_out)`` via
``x @ weight + bias``; 1-D inputs are treated as a single row and squeezed
on the way out. ``backward`` computes the gradient of the scalar
``sum(out_grad * forward(x))`` with respect to every parameter and to the
input, summing over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDivergence

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)


@dataclass
class Layer:
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray  # (d_out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"layer shapes inconsistent: weight {self.weight.shape}, "
                f"bias {self.bias.shape}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class FeedForwardNet:
    """A stack of affine layers, each followed by a rectifier or identity."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("need at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise ValueError(
                    f"layer output dim {a.weight.shape[1]} does not feed "
                    f"layer input dim {b.weight.shape[0]}"
                )
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    @classmethod
    def create(cls, dims, rng, final_activation=IDENTITY) -> "FeedForwardNet":
        """Build a net with layer widths ``dims = [d_in, h1, ..., d_out]``.

        Hidden layers are ReLU with He-scaled Gaussian weights; the final
        layer uses ``final_activation`` with Xavier scaling.
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output size")
        gen = rng.generator
        layers = []
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            last = i == len(dims) - 2
            act = final_activation if last else RELU
            scale = np.sqrt(1.0 / d_in) if act == IDENTITY else np.sqrt(2.0 / d_in)
            w = gen.normal(0.0, scale, size=(d_in, d_out))
            layers.append(Layer(w, np.zeros(d_out), act))
        return cls(layers)

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...]; views, not copies."""
        return _parameter_arrays(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x):
        """Forward pass keeping what backward needs.

        Returns ``(out, cache)``; pass the cache to :meth:`backward`. The
        cache is ``(records, squeeze)`` with ``records[i] = (input, output)``
        of layer i. Each layer holds one array: ReLU is applied in place to
        its pre-activation, and a hidden layer's output is the next layer's
        input.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x.reshape(1, -1) if squeeze else x
        if h.shape[1] != self.input_dim:
            raise ValueError(
                f"input dim {h.shape[1]} does not match net input {self.input_dim}"
            )
        records = []
        for lay in self.layers:
            z = h @ lay.weight
            z += lay.bias
            if lay.activation == RELU:
                np.maximum(z, 0.0, out=z)
            records.append((h, z))
            h = z
        out = h[0] if squeeze else h
        return out, (records, squeeze)

    def backward(self, cache, out_grad, input_grad=True, grads=None):
        """Exact gradients of ``sum(out_grad * forward(x))``.

        Returns ``(param_grads, input_grad)`` where ``param_grads`` is a flat
        list aligned with :meth:`parameters` and ``input_grad`` matches the
        shape of the forward input. With ``input_grad=False`` the first
        layer's ``g @ W.T`` is skipped and ``None`` returned in its place.
        ``grads``, when given, is a list of arrays aligned with
        :meth:`parameters`; the gradients are written into it and it is
        returned. Without it, fresh arrays are allocated. ``out_grad`` is
        never written to.
        """
        records, squeeze = cache
        g = np.asarray(out_grad, dtype=np.float64)
        if squeeze:
            g = g.reshape(1, -1)
        if grads is None:
            grads = [np.empty_like(p) for p in self.parameters()]
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            inp, out = records[i]
            lay = self.layers[i]
            # A ReLU output is > 0 exactly where its pre-activation is.
            if lay.activation == RELU:
                if i == last:
                    g = g * (out > 0.0)  # the caller's array
                else:
                    g *= out > 0.0
            np.matmul(inp.T, g, out=grads[2 * i])
            g.sum(axis=0, out=grads[2 * i + 1])
            if i == 0 and not input_grad:
                return grads, None
            g = g @ lay.weight.T
        return grads, (g[0] if squeeze else g)


def finite_difference_gradients(net, x, out_grad, h=1e-5):
    """Central-difference estimate of the same gradients `backward` returns.

    Slow (two forward passes per scalar parameter); used only to verify the
    analytic gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    og = np.asarray(out_grad, dtype=np.float64)

    def objective():
        return float(np.sum(og * net.forward(x)))

    fd = []
    for p in net.parameters():
        g = np.empty_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            up = objective()
            flat_p[j] = orig - h
            down = objective()
            flat_p[j] = orig
            flat_g[j] = (up - down) / (2.0 * h)
        fd.append(g)
    return fd


def gradient_check(net, x, out_grad, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Relative error for one scalar is |a - f| / max(1, |a|, |f|), so the
    comparison degrades to an absolute one only when both are already tiny.
    """
    out, cache = net.forward_cached(x)
    analytic, _ = net.backward(cache, out_grad)
    numeric = finite_difference_gradients(net, x, out_grad, h=h)
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _preactivation_margin(net, x):
    """Smallest |pre-activation| over the ReLU layers at input x."""
    _, (records, _) = net.forward_cached(x)
    return min(
        (float(np.min(np.abs(inp @ lay.weight + lay.bias)))
         for lay, (inp, _) in zip(net.layers, records) if lay.activation == RELU),
        default=np.inf,
    )


def run_gradient_check(n_nets, rng, h=1e-5):
    """Gradient-check ``n_nets`` random small nets; return max relative error.

    Architectures, parameters, probe inputs, and output weights are all drawn
    from ``rng``. Probe inputs that land within 10h of a ReLU kink are
    redrawn (finite differences straddle the kink there, so the comparison
    would measure the probe, not the gradient). A net that no probe clears
    within the redraw budget, such as one with a dead layer feeding zero
    biases, is replaced by a freshly drawn net.
    """
    gen = rng.generator
    worst = 0.0
    for _ in range(n_nets):
        net, x = _checkable_net(rng, h)
        out_grad = gen.normal(size=net.output_dim)
        worst = max(worst, gradient_check(net, x, out_grad, h=h))
    return worst


def _checkable_net(rng, h):
    """A random small net from ``rng`` and a probe input more than 10h from
    every ReLU kink of it."""
    gen = rng.generator
    while True:
        depth = int(gen.integers(1, 4))
        dims = [int(gen.integers(1, 9))]
        dims += [int(gen.integers(2, 17)) for _ in range(depth)]
        dims.append(int(gen.integers(1, 5)))
        net = FeedForwardNet.create(dims, rng.child(int(gen.integers(0, 2**32))))
        for _ in range(50):
            x = gen.normal(size=dims[0])
            if _preactivation_margin(net, x) > 10.0 * h:
                return net, x


class Adam:
    """Adaptive-moment estimation with the standard bias correction, on a
    flat parameter vector of ``size`` entries."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size, lr):
        self.lr = float(lr)
        self.step_count = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)

    def step(self, flat, grad):
        """One in-place update of ``flat`` by ``grad``.

        ``flat -= lr * (m / c1) / (sqrt(v / c2) + eps)``, evaluated op by op
        in that order into two scratch vectors: the bits of the expression
        without its temporaries.
        """
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        m, v, num, den = self._m, self._v, self._num, self._den
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.square(grad, out=num)
        num *= 1.0 - self.beta2
        v += num
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, c1, out=num)
        num *= self.lr
        num /= den
        flat -= num


@dataclass(frozen=True)
class OptimizerSpec:
    """Minibatch training settings. Construction checks every setting and
    raises :class:`ConfigError` whose ``key`` is the rejected field."""

    lr: float = 1e-3
    epochs: int = 300
    batch_size: int = 128

    def __post_init__(self):
        rules = (
            ("lr", 0.0 < self.lr < np.inf, "a positive finite number"),
            ("epochs", self.epochs >= 1, "a positive integer"),
            ("batch_size", self.batch_size >= 1, "a positive integer"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ConfigError(
                    f"{key} must be {rule}, got {getattr(self, key)!r}", key=key
                )


def _parameter_arrays(layers):
    return [a for lay in layers for a in (lay.weight, lay.bias)]


def _views_like(flat, arrays):
    """Consecutive reshaped views of ``flat``, one shaped like each array."""
    views, offset = [], 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return views


def flatten_parameters(layers) -> np.ndarray:
    """Copy the ``weight`` and ``bias`` of each layer, in order, into one
    contiguous float64 vector and rebind them as reshaped views of it.

    Returns the vector; writing to it updates every layer in place. The
    order matches :meth:`FeedForwardNet.parameters` when ``layers`` are a
    net's layers.
    """
    arrays = _parameter_arrays(layers)
    flat = np.concatenate([a.ravel() for a in arrays])
    views = _views_like(flat, arrays)
    for lay, weight, bias in zip(layers, views[::2], views[1::2]):
        lay.weight, lay.bias = weight, bias
    return flat


# The fraction of final epochs whose parameters a settled fit averages.
SETTLE_TAIL = 0.2


def train_minibatch(
    layers, spec: OptimizerSpec, n, gen, batch_step, what, draw_epoch=None,
    settle=False,
):
    """Minibatch Adam training of ``layers`` in place; returns per-epoch
    mean loss.

    The ``weight`` and ``bias`` of every layer become views into one flat
    parameter vector (:func:`flatten_parameters`) and stay so after
    training. Each epoch calls ``draw_epoch(gen)`` when given (per-row
    draws shared by the epoch's batches), shuffles the ``n`` rows with
    ``gen`` and takes one :class:`Adam` step per batch.
    ``batch_step(idx, drawn, grads)`` writes every entry of ``grads`` on
    every call and returns the loss summed over the batch rows. ``grads``
    is the list ``[dW, db, ...]`` in layer order, made once: reshaped views
    of one flat gradient vector, the list ``FeedForwardNet.backward`` takes
    as its ``grads``. The epoch loss is that sum over all rows divided by
    ``n``. Without ``settle`` the rate stays ``spec.lr`` and the parameters
    end where the last step leaves them. With it, the rate drops tenfold at
    50% and again at 75% of the epochs, the end-of-epoch parameters of the
    final ``SETTLE_TAIL`` fraction of epochs are averaged (Polyak), and the
    parameters end at that average. A non-finite gradient or epoch loss
    raises :class:`TrainingDivergence` carrying the epoch; ``what`` names
    the training in its message.
    """
    flat = flatten_parameters(layers)
    flat_grad = np.empty_like(flat)
    grads = _views_like(flat_grad, _parameter_arrays(layers))
    finite = np.empty(flat.size, dtype=bool)
    optimizer = Adam(flat.size, spec.lr)
    losses = np.empty(spec.epochs)
    # Pinball gradients stay O(1) at the optimum (the loss is piecewise
    # linear), so the iterates never stop jittering at a scale set by the
    # rate; a settled fit's two rate drops and tail average remove that.
    avg_start = spec.epochs
    if settle:
        avg_start -= int(round(SETTLE_TAIL * spec.epochs))
    avg_sum = None
    n_avg = 0
    for epoch in range(spec.epochs):
        if settle:
            frac = epoch / spec.epochs
            drop = 0.01 if frac >= 0.75 else 0.1 if frac >= 0.5 else 1.0
            optimizer.lr = spec.lr * drop
        drawn = draw_epoch(gen) if draw_epoch is not None else None
        perm = gen.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, spec.batch_size):
            loss_sum += batch_step(perm[start : start + spec.batch_size], drawn, grads)
            if not np.isfinite(flat_grad, out=finite).all():
                raise TrainingDivergence(
                    f"{what} training produced a non-finite gradient "
                    f"at epoch {epoch}",
                    epoch=epoch,
                )
            optimizer.step(flat, flat_grad)
        losses[epoch] = loss_sum / n
        if not np.isfinite(losses[epoch]):
            raise TrainingDivergence(
                f"{what} training loss became non-finite at epoch {epoch}",
                epoch=epoch,
            )
        if epoch >= avg_start:
            if avg_sum is None:
                avg_sum = flat.copy()
            else:
                avg_sum += flat
            n_avg += 1
    if n_avg > 0:
        np.divide(avg_sum, n_avg, out=flat)
    return losses
