"""Per-block minibatch training: the loop that ``gbc.nets`` runs on one flat
parameter buffer.

Kept only as a test oracle. ``reference_train_minibatch`` trains the
layers' ``weight``/``bias`` arrays block by block, with the optimizer
updates written as whole-array expressions; ``gbc.nets.train_minibatch``
must reproduce its parameters and losses bit for bit. It takes the same
arguments and calls ``batch_step(idx, drawn, grads)`` the same way, but
with fresh NaN-filled per-block gradient arrays each step, so a step that
leaves a gradient unwritten diverges here. A test can patch it in where a
trainer looks the loop up.
"""

import numpy as np

from gbc import nets
from gbc.errors import TrainingDivergence


class ReferenceAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def reference_train_minibatch(
    layers, spec, n, gen, batch_step, what, draw_epoch=None, settle=False
):
    params = [a for lay in layers for a in (lay.weight, lay.bias)]
    optimizer = ReferenceAdam(spec.lr)
    losses = np.empty(spec.epochs)
    tail = nets.SETTLE_TAIL if settle else 0.0
    avg_start = spec.epochs - int(round(tail * spec.epochs))
    avg_sum = None
    n_avg = 0
    for epoch in range(spec.epochs):
        optimizer.lr = spec.lr
        if settle and epoch >= 0.75 * spec.epochs:
            optimizer.lr = spec.lr * 0.01
        elif settle and epoch >= 0.5 * spec.epochs:
            optimizer.lr = spec.lr * 0.1
        drawn = draw_epoch(gen) if draw_epoch is not None else None
        perm = gen.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, spec.batch_size):
            grads = [np.full_like(p, np.nan) for p in params]
            loss_sum += batch_step(perm[start : start + spec.batch_size], drawn, grads)
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise TrainingDivergence(f"{what}: non-finite gradient", epoch=epoch)
            optimizer.step(params, grads)
        losses[epoch] = loss_sum / n
        if epoch >= avg_start:
            if avg_sum is None:
                avg_sum = [p.copy() for p in params]
            else:
                for acc, p in zip(avg_sum, params):
                    acc += p
            n_avg += 1
    if n_avg > 0:
        for p, acc in zip(params, avg_sum):
            p[...] = acc / n_avg
    return losses
