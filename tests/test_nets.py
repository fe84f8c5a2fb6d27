"""Feed-forward nets: exact gradients and the Adam update rule."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from gbc.errors import ConfigError, TrainingDivergence
from gbc.nets import (
    Adam,
    FeedForwardNet,
    Layer,
    OptimizerSpec,
    finite_difference_gradients,
    flatten_parameters,
    gradient_check,
    run_gradient_check,
    train_minibatch,
)
from gbc.rng import RngStream


def test_forward_identity_linear_layer():
    net = FeedForwardNet([Layer(np.eye(2), np.zeros(2), "identity")])
    out = net.forward(np.array([1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_forward_rectifier_clamps_negative():
    net = FeedForwardNet([Layer(np.eye(2), np.array([-3.0, 0.0]), "relu")])
    out = net.forward(np.array([1.0, 2.0]))
    assert np.allclose(out, [0.0, 2.0])


def test_forward_random_net_is_finite():
    net = FeedForwardNet.create([4, 16, 16, 3], RngStream(3))
    x = RngStream(4).generator.normal(size=(10, 4))
    assert np.all(np.isfinite(net.forward(x)))


def test_each_layer_keeps_one_array():
    # ReLU runs in place: a hidden layer's recorded output is the next
    # layer's recorded input, and the last output is the returned array.
    net = FeedForwardNet.create([4, 16, 8, 3], RngStream(5))
    x = RngStream(6).generator.normal(size=(10, 4))
    out, (records, _) = net.forward_cached(x)
    for (_, hidden), (inp, _) in zip(records, records[1:]):
        assert hidden is inp
        assert np.all(hidden >= 0.0)
    assert records[-1][1] is out


# One epidemic-shaped quantile net trained through train_iqn in a process
# that imports only the CLI; prints the minor page faults per step.
_FAULTS_PER_STEP = """
import resource
import gbc.cli
import numpy as np
from gbc.models import ReferenceTable
from gbc.nets import OptimizerSpec
from gbc.quantile import NetworkSpec, train_iqn
from gbc.rng import RngStream
from gbc.summaries import fit_linear_summary

gen = RngStream(5).generator
ys = np.cumsum(gen.integers(0, 500, size=(485, 56)), axis=1).astype(np.float64)
table = ReferenceTable(thetas=gen.uniform(size=(485, 6)), ys=ys, seed=5,
                       simulator="epidemic-quantiles")
summary = fit_linear_summary(table, log1p_inputs=True)
opt = OptimizerSpec(lr=1e-3, epochs=50, batch_size=128)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_iqn(table, summary, 0, NetworkSpec(), opt, RngStream(6))
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / (50 * 4))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts glibc heap page faults",
)
def test_training_steps_do_not_fault_their_heap_back_in():
    """glibc gives freed heap back to the system above its trim threshold,
    and a step that allocates a fresh ReLU output per layer faults it back
    in on every step (about 140 faults per step measured before ReLU ran
    in place, 2 after)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 20.0


def test_linear_one_layer_weight_gradient_is_input():
    # loss = output (out_grad = 1): d(w*x)/dw = x.
    net = FeedForwardNet([Layer(np.array([[2.0]]), np.zeros(1), "identity")])
    x = np.array([1.7])
    _, cache = net.forward_cached(x)
    grads, _ = net.backward(cache, np.array([1.0]))
    assert np.allclose(grads[0], [[1.7]])
    assert np.allclose(grads[1], [1.0])


def test_zero_out_grad_gives_zero_gradients():
    net = FeedForwardNet.create([3, 8, 2], RngStream(11))
    x = RngStream(12).generator.normal(size=3)
    _, cache = net.forward_cached(x)
    grads, in_grad = net.backward(cache, np.zeros(2))
    for g in grads:
        assert np.all(g == 0.0)
    assert np.all(in_grad == 0.0)


def test_gradient_check_single_net():
    net = FeedForwardNet.create([5, 12, 7, 2], RngStream(21))
    gen = RngStream(22).generator
    x = gen.normal(size=5)
    out_grad = gen.normal(size=2)
    assert gradient_check(net, x, out_grad) < 1e-6


def test_input_gradient_matches_finite_differences():
    # backward() also returns d/dx; check it separately since the batch
    # oracle below only covers parameter gradients.
    net = FeedForwardNet.create([4, 9, 3], RngStream(31))
    gen = RngStream(32).generator
    x = gen.normal(size=4)
    out_grad = gen.normal(size=3)
    _, cache = net.forward_cached(x)
    _, in_grad = net.backward(cache, out_grad)
    h = 1e-6
    for j in range(4):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        fd = (np.dot(out_grad, net.forward(xp)) - np.dot(out_grad, net.forward(xm))) / (2 * h)
        assert abs(fd - in_grad[j]) < 1e-6 * max(1.0, abs(fd))


def test_batched_backward_sums_over_batch():
    net = FeedForwardNet.create([3, 6, 2], RngStream(41))
    gen = RngStream(42).generator
    xs = gen.normal(size=(5, 3))
    og = gen.normal(size=(5, 2))
    _, cache = net.forward_cached(xs)
    batched, _ = net.backward(cache, og)
    singles = None
    for i in range(5):
        _, c = net.forward_cached(xs[i])
        g, _ = net.backward(c, og[i])
        singles = g if singles is None else [a + b for a, b in zip(singles, g)]
    for a, b in zip(batched, singles):
        assert np.allclose(a, b, atol=1e-12)


def test_backward_without_input_gradient_keeps_parameter_gradients():
    for squeeze, dims in ((True, [3, 7, 5, 2]), (False, [4, 6, 1])):
        net = FeedForwardNet.create(dims, RngStream(43))
        gen = RngStream(44).generator
        x = gen.normal(size=dims[0] if squeeze else (9, dims[0]))
        og = gen.normal(size=dims[-1] if squeeze else (9, dims[-1]))
        _, cache = net.forward_cached(x)
        full, in_grad = net.backward(cache, og)
        params_only, skipped = net.backward(cache, og, input_grad=False)
        assert in_grad.shape == x.shape and skipped is None
        assert len(full) == len(params_only)
        for a, b in zip(full, params_only):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _expression_backward(net, x, out_grad):
    """Parameter gradients as whole-array expressions, one new array each."""
    hs, zs = [x], []
    for lay in net.layers:
        zs.append(hs[-1] @ lay.weight + lay.bias)
        hs.append(np.maximum(zs[-1], 0.0) if lay.activation == "relu" else zs[-1])
    g, grads = out_grad, []
    for i in range(len(net.layers) - 1, -1, -1):
        if net.layers[i].activation == "relu":
            g = g * (zs[i] > 0.0)
        grads[:0] = [hs[i].T @ g, g.sum(axis=0)]
        g = g @ net.layers[i].weight.T
    return grads


@pytest.mark.parametrize("final", ["identity", "relu"])
def test_backward_writes_into_given_gradient_arrays(final):
    net = FeedForwardNet.create([5, 16, 8, 3], RngStream(45), final_activation=final)
    gen = RngStream(46).generator
    x = gen.normal(size=(37, 5))
    og = gen.normal(size=(37, 3))
    og_before = og.copy()
    _, cache = net.forward_cached(x)
    fresh, fresh_in = net.backward(cache, og)
    bufs = [np.full_like(p, np.nan) for p in net.parameters()]
    got, got_in = net.backward(cache, og, grads=bufs)
    assert got is bufs
    assert got_in.tobytes() == fresh_in.tobytes()
    for a, b, c in zip(bufs, fresh, _expression_backward(net, x, og)):
        assert a.shape == b.shape == c.shape
        assert a.tobytes() == b.tobytes() == c.tobytes()
    # The caller's output gradient is read, never masked in place.
    assert og.tobytes() == og_before.tobytes()


def test_run_gradient_check_hundred_nets():
    worst = run_gradient_check(100, RngStream(2024))
    assert worst < 1e-5


def test_run_gradient_check_redraws_a_net_stuck_at_a_kink():
    # Seed 2 draws a net whose 2-unit layer is dead for every probe, so each
    # probe sits on a ReLU kink; checking it there reported an error of 0.5.
    assert run_gradient_check(3, RngStream(2).child("gradcheck")) < 1e-5


def test_run_gradient_check_catches_a_wrong_backward(monkeypatch):
    backward = FeedForwardNet.backward

    def off_by_a_tenth(self, cache, out_grad, input_grad=True):
        grads, in_grad = backward(self, cache, out_grad, input_grad)
        return [1.1 * g for g in grads], in_grad

    monkeypatch.setattr(FeedForwardNet, "backward", off_by_a_tenth)
    assert run_gradient_check(3, RngStream(2).child("gradcheck")) > 1e-2


def test_finite_difference_helper_agrees_with_itself():
    net = FeedForwardNet.create([2, 4, 1], RngStream(51))
    x = np.array([0.3, -0.7])
    og = np.array([1.0])
    fd1 = finite_difference_gradients(net, x, og)
    fd2 = finite_difference_gradients(net, x, og)
    for a, b in zip(fd1, fd2):
        assert np.array_equal(a, b)


def test_dimension_mismatch_raises():
    net = FeedForwardNet.create([3, 4, 2], RngStream(61))
    with pytest.raises(ValueError):
        net.forward(np.zeros(5))


def test_adam_zero_gradient_leaves_params():
    opt = Adam(1, 0.01)
    p = np.array([3.0])
    opt.step(p, np.zeros(1))
    assert np.allclose(p, [3.0])
    assert opt.step_count == 1


def test_adam_converges_on_quadratic_bowl():
    # minimize (p - 5)^2 + (q + 2)^2; closed-form minimum (5, -2).
    # Default decay rates; step size raised so 5000 steps can cover the
    # distance (Adam moves at most ~lr per step per coordinate).
    opt = Adam(2, 0.01)
    p = np.array([0.0, 0.0])
    for _ in range(5000):
        grad = 2.0 * (p - np.array([5.0, -2.0]))
        opt.step(p, grad)
    assert np.max(np.abs(p - np.array([5.0, -2.0]))) < 1e-3


def test_optimizers_own_state_of_their_size():
    adam = Adam(7, 0.01)
    adam.step(np.zeros(7), np.ones(7))
    with pytest.raises(ValueError):
        adam.step(np.zeros(3), np.zeros(3))


def test_train_minibatch_nan_gradient_raises_divergence_with_epoch():
    layer = Layer(np.zeros((2, 3)), np.zeros(3), "identity")
    steps = []

    def batch_step(idx, _drawn, grads):
        steps.append(idx)
        for g in grads:
            g[...] = 0.0
        if len(steps) == 5:  # the first batch of epoch 2, at two per epoch
            grads[1][1] = np.nan
        return float(len(idx))

    spec = OptimizerSpec(epochs=4, batch_size=5)
    with pytest.raises(TrainingDivergence, match="test training") as err:
        train_minibatch([layer], spec, 10, RngStream(73).generator, batch_step, "test")
    assert err.value.epoch == 2


def test_train_minibatch_rejects_gradients_that_do_not_fit_the_holders():
    # The gradients of a (3, 2) layer written into the holders of a (2, 3)
    # layer: the writes do not fit, and nothing reaches the optimizer.
    layer = Layer(np.zeros((2, 3)), np.zeros(3), "identity")
    other = FeedForwardNet([Layer(np.zeros((3, 2)), np.zeros(2), "identity")])

    def batch_step(idx, _drawn, grads):
        _, cache = other.forward_cached(np.ones((len(idx), 3)))
        other.backward(cache, np.ones((len(idx), 2)), grads=grads)
        return float(len(idx))

    spec = OptimizerSpec(epochs=1, batch_size=5)
    with pytest.raises(ValueError):
        train_minibatch([layer], spec, 10, RngStream(75).generator, batch_step, "test")
    assert not layer.weight.any() and not layer.bias.any()


def test_invalid_hyperparameters_rejected():
    for key, settings in [
        ("lr", dict(lr=-1.0)),
        ("lr", dict(lr=0.0)),
        ("lr", dict(lr=float("nan"))),
        ("lr", dict(lr=float("inf"))),
        ("epochs", dict(epochs=0)),
        ("batch_size", dict(batch_size=0)),
    ]:
        with pytest.raises(ConfigError, match=key) as err:
            OptimizerSpec(**settings)
        assert err.value.key == key


def test_flatten_parameters_rebinds_views_into_one_vector():
    net = FeedForwardNet.create([3, 5, 2], RngStream(71))
    before = [p.copy() for p in net.parameters()]
    flat = flatten_parameters(net.layers)
    assert flat.size == sum(p.size for p in before)
    assert np.array_equal(flat, np.concatenate([p.ravel() for p in before]))
    for p, old in zip(net.parameters(), before):
        assert np.shares_memory(p, flat) and np.array_equal(p, old)
    flat += 1.0
    assert np.array_equal(net.layers[1].bias, before[3] + 1.0)
