"""Per-array Adam training: the oracle of :mod:`qpopf.classifier`'s loop.

The package lays each model's trainable arrays out as views of one flat
buffer, runs Adam once per step on that buffer, and takes the head
gradient without a one-hot matrix.  These are the loops it replaced: one
Adam update per array, ``np.eye(K)[y]`` in the head gradient, and a
best-epoch snapshot that copies each array.  Adam and the rest of the
arithmetic are elementwise, so the package's trained weights and
histories must equal these bit for bit.
"""

import numpy as np

from qpopf.circuit import VqcParams, run_circuit_batch, vjp, z_expectations
from qpopf.classifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MLP_HIDDEN,
    LinearHead,
    MlpBaseline,
    VqcModel,
    argmax_accuracy,
    log_softmax,
)


class PerArrayAdam:
    def __init__(self, shapes, cfg):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.cfg = cfg

    def step(self, params, grads):
        cfg = self.cfg
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2**self.t)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def one_hot_head_gradients(h, W, y, beta):
    """(loss, dW, dh) of the mean cross-entropy, with the labels as a one-hot matrix."""
    logp = log_softmax(h @ W.T, beta)
    loss = -float(np.mean(logp[np.arange(len(y)), y]))
    dlogits = beta * (np.exp(logp) - np.eye(W.shape[0])[y]) / len(y)
    return loss, dlogits.T @ h, dlogits @ W


def fit(model, targets, step, dataset, train_cfg, rng, eval_set):
    thetas, labels = dataset
    thetas = np.asarray(thetas, dtype=float)
    y = np.asarray(labels, dtype=int) - 1
    adam = PerArrayAdam([t.shape for t in targets], train_cfg)
    history, best = [], None
    for epoch in range(train_cfg.epochs):
        batch_losses = []
        perm = rng.permutation(thetas.shape[0])
        for start in range(0, thetas.shape[0], train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            loss, grads = step(thetas[idx], y[idx])
            batch_losses.append(loss)
            adam.step(targets, grads)
        rec = {
            "epoch": epoch + 1,
            "loss": float(np.mean(batch_losses)),
            "train_accuracy": argmax_accuracy(model, *dataset),
        }
        if eval_set is not None:
            rec["test_accuracy"] = argmax_accuracy(model, *eval_set)
        history.append(rec)
        key = (-rec["train_accuracy"], rec["loss"])
        if best is None or key < best[0]:
            best = (key, [t.copy() for t in targets])
    if best is not None:
        for t, saved in zip(targets, best[1]):
            t[...] = saved
    return history


def train_vqc(dataset, config, train_cfg, K, eval_set=None):
    rng = np.random.default_rng(train_cfg.seed)
    params = VqcParams.random_init(config, rng)
    W = rng.uniform(-1.0, 1.0, size=(K, config.n_q)) / np.sqrt(config.n_q)

    def step(xb, yb):
        states = run_circuit_batch(config, params, xb)
        h = z_expectations(states, config.n_q)
        loss, gW, dh = one_hot_head_gradients(h, W, yb, train_cfg.beta)
        return loss, [vjp(config, params, xb, dh, states).sum(axis=0), gW]

    model = VqcModel(config, params, LinearHead(W=W, beta=train_cfg.beta))
    history = fit(model, [params.phi, W], step, dataset, train_cfg, rng, eval_set)
    return params, LinearHead(W=W, beta=train_cfg.beta), history


def train_mlp(dataset, train_cfg, K, eval_set=None):
    rng = np.random.default_rng(train_cfg.seed)
    m = np.shape(dataset[0])[1]
    (h1, h2), targets = MLP_HIDDEN, []
    for rows, cols in ((h1, m), (h2, h1)):
        bound = 1.0 / np.sqrt(cols)
        targets += [rng.uniform(-bound, bound, size=(rows, cols)),
                    rng.uniform(-bound, bound, size=rows)]
    targets.append(rng.uniform(-1 / np.sqrt(h2), 1 / np.sqrt(h2), size=(K, h2)))
    W1, b1, W2, b2, Wh = targets

    def step(xb, yb):
        a1 = np.tanh(xb @ W1.T + b1)
        a2 = np.tanh(a1 @ W2.T + b2)
        loss, gWh, da2 = one_hot_head_gradients(a2, Wh, yb, train_cfg.beta)
        dz2 = da2 * (1 - a2 * a2)
        dz1 = (dz2 @ W2) * (1 - a1 * a1)
        return loss, [dz1.T @ xb, dz1.sum(axis=0), dz2.T @ a1, dz2.sum(axis=0), gWh]

    mlp = MlpBaseline(W1=W1, b1=b1, W2=W2, b2=b2, W_head=Wh, beta=train_cfg.beta)
    history = fit(mlp, targets, step, dataset, train_cfg, rng, eval_set)
    return mlp, history
