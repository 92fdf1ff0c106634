"""Region classifiers: the quantum-feature model and the MLP baseline.

Every model implements one protocol, :class:`ReleaseModel`: logits feed
a softmax with inverse temperature beta, and the released region index
is a categorical draw from the law ``probability_matrix`` gives.  The
quantum model's depolarizing noise enters as an exact (1-gamma)
contraction of the bias-free logits; the MLP's privacy knob is Gaussian
noise added to its logits, which its law averages over.  Each model is
one dataclass that checks its arrays' shapes and finiteness when built
(by :func:`qpopf.grid.saved_arrays`, as a checkpoint's are read):
:class:`VqcModel` holds the circuit config, its angles ``phi`` and the
head ``W``; :class:`MlpBaseline` its layer weights and biases.

Both models train through one loop, :func:`_fit` (mini-batch
cross-entropy descent with Adam, best-epoch restore); each supplies its
initialization and batch gradient, and both trainers return
``(model, history)``.  A model's trainable arrays are views
of one contiguous buffer, so each step is one Adam update of that buffer
(Adam is elementwise: the same bits as one update per array) and the
best-epoch snapshot is one copy of it.  The circuit angles get adjoint
statevector gradients seeded by the head's feature gradient (one
backward pass per batch; the parameter-shift rule is kept as the test
oracle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qpopf.circuit import CircuitConfig, run_circuit_batch, vjp, z_expectations
from qpopf.grid import load_saved, saved_arrays, saved_field
from qpopf.regions import RegionAtlas, locate_covered


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


def softmax_probs(s: np.ndarray, beta: float) -> np.ndarray:
    """p_k proportional to exp(beta s_k), max-subtracted for stability."""
    z = beta * np.asarray(s, dtype=float)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


# entries of the noise-convolved buffer averaged at once (1 MiB)
_AVERAGE_CHUNK = 1 << 17


def averaged_softmax(
    s: np.ndarray, sigma: float, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Law of the index released from logits s (N, K) under N(0, sigma^2) logit noise.

    Row i is the mean over the noise rows ``sigma * normals`` of
    softmax(beta (s_i + noise)), bitwise
    ``softmax_probs(s[i] + sigma * normals, beta).mean(axis=0)``; sigma = 0
    is the plain softmax.  The (rows, draws, K) buffer is filled in chunks
    of about 1 MiB and normalized in place.  Its max over the K classes is
    a running ``np.maximum`` of the K columns into one buffer, not
    ``np.max`` over an inner axis of K entries: the max is exact either
    way, and NaN propagates alike.
    """
    if sigma == 0.0:
        return softmax_probs(s, beta)
    noise = sigma * normals
    out = np.empty(s.shape)
    step = max(1, _AVERAGE_CHUNK // noise.size)
    peak = np.empty((step, *noise.shape[:-1], 1))
    for start in range(0, s.shape[0], step):
        z = s[start : start + step, None, :] + noise
        z *= beta
        top = peak[: len(z)]
        np.maximum(z[..., :1], z[..., -1:], out=top)   # one column twice when K = 1
        for k in range(1, z.shape[-1] - 1):
            np.maximum(top, z[..., k : k + 1], out=top)
        z -= top
        np.exp(z, out=z)
        z /= np.sum(z, axis=-1, keepdims=True)
        out[start : start + step] = z.mean(axis=1)
    return out


def dense(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x @ W.T with each row bitwise its one-row product ``x[i:i+1] @ W.T``.

    A product of N > 1 rows through gemm rounds differently from the
    one-row product (gemv) by a few ulps, so a batch (eval, sweep,
    training accuracy, the privacy audit) gets the scores each of its
    points gets alone, as a dispatch query does.
    """
    return np.matmul(x[:, None, :], W.T)[:, 0]


def inf1_norm(W) -> float:
    """max_k ||w_k||_1 of a (K, n) weight matrix."""
    return float(np.max(np.sum(np.abs(np.asarray(W, float)), axis=1)))


def log_softmax(s: np.ndarray, beta: float) -> np.ndarray:
    z = beta * np.asarray(s, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def check_noise_and_temperature(gammas, betas) -> None:
    """Reject a gamma outside [0, 1] or a beta <= 0; NaN and inf are invalid too."""
    for gamma in gammas:
        if not (math.isfinite(gamma) and 0.0 <= gamma <= 1.0):
            raise ValueError(f"gamma must be finite and in [0, 1], got {gamma}")
    for beta in betas:
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be finite and > 0, got {beta}")


def sample_region(p: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw via inverse CDF; returns a 1-based region id."""
    cum = np.cumsum(np.asarray(p, dtype=float))
    k = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(k, len(cum) - 1) + 1


class ReleaseModel:
    """What the three region models share: one released law built in two steps.

    ``base_scores(thetas)`` is the part that depends on neither gamma,
    beta nor the rng (noise-free VQC scores, MLP logits, oracle one-hot
    rows); ``logits_from_base`` and ``probabilities_from_base`` apply one
    (gamma, beta, rng) setting to it, so a sweep computes the base once.
    By default the base is the logits and the law is their softmax.

    ``probability_matrix(thetas, gamma, beta)`` is the law (N, K) the
    model releases and the privacy audit measures.  Base scores are
    row-exact (see :func:`dense`), so each row of every law is bitwise
    the law of a one-point query.
    """

    def probability_matrix(self, thetas: np.ndarray, gamma, beta) -> np.ndarray:
        return self.probabilities_from_base(self.base_scores(thetas), gamma, beta)

    def logits_from_base(self, base: np.ndarray, gamma: float) -> np.ndarray:
        return base

    def probabilities_from_base(self, base, gamma, beta, rng=None) -> np.ndarray:
        return softmax_probs(self.logits_from_base(base, gamma), beta)


@dataclass
class VqcModel(ReleaseModel):
    """The data re-uploading classifier (Perez-Salinas et al., Quantum 2020).

    Circuit angles ``phi`` (shaped ``config.param_shape``, radians) give
    Pauli-Z features h; a bias-free linear head gives the logits W h, and
    ``beta`` is the softmax sharpness.  Arrays are checked, not copied:
    training updates ``phi`` and ``W`` as views of one buffer.
    """

    config: CircuitConfig
    phi: np.ndarray
    W: np.ndarray               # (K, n_q)
    beta: float = 1.0
    model_id: str = "vqc"

    def __post_init__(self):
        self.phi, self.W = saved_arrays(
            vars(self), {"phi": self.config.param_shape, "W": ("K", self.config.n_q)}, "VqcModel")
        check_noise_and_temperature([], [self.beta])

    @property
    def K(self) -> int:
        return self.W.shape[0]

    @property
    def num_params(self) -> int:
        return self.phi.size + self.W.size

    def base_scores(self, thetas: np.ndarray) -> np.ndarray:
        """W h0: the logits that noise contracts (row-exact)."""
        states = run_circuit_batch(self.config, self.phi, thetas)
        return dense(z_expectations(states, self.config.n_q), self.W)

    def logits_from_base(self, base: np.ndarray, gamma: float) -> np.ndarray:
        return (1.0 - gamma) * base


@dataclass
class MlpBaseline(ReleaseModel):
    """tanh MLP (two hidden layers) with a bias-free linear head.

    ``sigma`` is the standard deviation of the Gaussian logit noise used
    as the classical privacy mechanism; 0 means deterministic.
    """

    W1: np.ndarray              # (H1, m)
    b1: np.ndarray
    W2: np.ndarray              # (H2, H1)
    b2: np.ndarray
    W_head: np.ndarray          # (K, H2)
    beta: float = 1.0
    sigma: float = 0.0
    model_id: str = "mlp"

    def __post_init__(self):
        check_noise_and_temperature([], [self.beta])
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        # the biases fix the hidden widths, and each weight matrix must chain them
        self.b1, self.b2, self.W1, self.W2, self.W_head = saved_arrays(
            vars(self), {"b1": ("H1",), "b2": ("H2",), "W1": ("H1", "m"), "W2": ("H2", "H1"),
                         "W_head": ("K", "H2")}, "MlpBaseline")

    @property
    def K(self) -> int:
        return self.W_head.shape[0]

    @property
    def num_params(self) -> int:
        return int(
            self.W1.size + self.b1.size + self.W2.size + self.b2.size + self.W_head.size
        )

    def base_scores(self, thetas: np.ndarray) -> np.ndarray:
        """Noise-free logits (N, K), each layer applied row-exactly (see :func:`dense`)."""
        x = np.atleast_2d(np.asarray(thetas, dtype=float))
        h1 = np.tanh(dense(x, self.W1) + self.b1)
        h2 = np.tanh(dense(h1, self.W2) + self.b2)
        return dense(h2, self.W_head)

    def probabilities_from_base(self, base, gamma, beta, rng=None) -> np.ndarray:
        if self.sigma > 0.0:
            if rng is None:
                raise ValueError("sigma > 0 requires an rng")
            base = base + self.sigma * rng.standard_normal(base.shape)
        return softmax_probs(base, beta)

    def probability_matrix(
        self, thetas: np.ndarray, gamma, beta: float, n_draws: int = 2000, seed: int = 0
    ) -> np.ndarray:
        """Law of the index released under N(0, sigma^2) logit noise.

        The noise-convolved softmax has no closed form, so it is averaged
        over ``n_draws`` normals drawn from ``seed`` and shared by every
        point (common random numbers keep a calibration search smooth and
        deterministic).  At sigma = 0 it is bitwise the plain softmax.
        """
        s = self.base_scores(thetas)
        normals = np.random.default_rng(seed).standard_normal((n_draws, s.shape[1]))
        return averaged_softmax(s, self.sigma, normals, beta)


@dataclass
class OracleClassifier(ReleaseModel):
    """Exact point-location stand-in for a trained model."""

    atlas: RegionAtlas
    model_id: str = "oracle"

    @property
    def K(self) -> int:
        return self.atlas.K

    def base_scores(self, thetas: np.ndarray) -> np.ndarray:
        """One-hot rows of each point's region; uncovered points raise."""
        ids = locate_covered(self.atlas, thetas)
        out = np.zeros((ids.size, self.K))
        out[np.arange(ids.size), ids - 1] = 1.0
        return out

    def probabilities_from_base(self, base, gamma, beta, rng=None) -> np.ndarray:
        """The one-hot base itself: the oracle has neither noise nor temperature."""
        return base


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0
    beta: float = 1.0           # softmax temperature used during training

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs >= 0 and batch_size >= 1 required")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        check_noise_and_temperature([], [self.beta])


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _Adam:
    """Adam (Kingma & Ba, ICLR 2015) on one flat parameter vector."""

    def __init__(self, size: int, cfg: TrainConfig):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.cfg = cfg

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Update ``flat`` in place from its gradient ``grad`` (same layout)."""
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        flat -= self.cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _flat_views(*arrays: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One contiguous buffer holding ``arrays`` in order, and a view of it shaped like each."""
    flat = np.concatenate(arrays, axis=None)
    parts = np.split(flat, np.cumsum([a.size for a in arrays[:-1]]))
    return flat, [part.reshape(a.shape) for part, a in zip(parts, arrays)]


def _check_labels(labels: np.ndarray, K: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 1 or labels.max() > K:
        raise ValueError(f"labels must lie in 1..{K}")
    return labels - 1  # 0-based class indices internally


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def ce_head_gradients(
    h: np.ndarray, W: np.ndarray, y: np.ndarray, beta: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(beta W h) and its gradients.

    Returns (loss, dW, dh, probs) for a batch of features h (B, n) and
    0-based labels y.
    """
    logp = log_softmax(h @ W.T, beta)
    rows = np.arange(len(y))
    loss = -float(logp[rows, y].sum() / len(y))
    p = np.exp(logp)
    residual = p.copy()
    residual[rows, y] -= 1.0  # p minus the one-hot labels
    dlogits = beta * residual / len(y)
    return loss, dlogits.T @ h, dlogits @ W, p


def kept_epoch(history: list[dict]) -> dict | None:
    """The record of the epoch whose weights training returns; None if no epoch ran.

    That is the first epoch with the highest train accuracy, then the
    lowest loss (lr 0.05 oscillates near convergence).
    """
    return min(history, key=lambda rec: (-rec["train_accuracy"], rec["loss"]), default=None)


def _fit(model, flat, step, dataset, K, train_cfg, rng, eval_set) -> list[dict]:
    """Adam descent on the buffer ``flat`` (updated in place) from ``step(xb, yb) -> (loss, grads)``.

    ``model`` and ``step`` read views of ``flat`` (see :func:`_flat_views`),
    and ``grads`` lists their gradients in buffer order, so each epoch's
    record (mean batch loss, argmax accuracies) measures the current
    iterate.  The buffer ends at the :func:`kept_epoch`.  Batches come
    from ``rng`` after the caller's initialization.
    """
    thetas, labels = dataset
    thetas = np.asarray(thetas, dtype=float)
    y = _check_labels(labels, K)
    adam = _Adam(flat.size, train_cfg)
    history: list[dict] = []
    for epoch in range(train_cfg.epochs):
        batch_losses = []
        for idx in _epoch_batches(thetas.shape[0], train_cfg.batch_size, rng):
            loss, grads = step(thetas[idx], y[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at epoch {epoch} (lr="
                    f"{train_cfg.learning_rate}, history so far {history})"
                )
            batch_losses.append(loss)
            adam.step(flat, np.concatenate(grads, axis=None))
        rec = {
            "epoch": epoch + 1,
            "loss": float(np.mean(batch_losses)),
            "train_accuracy": argmax_accuracy(model, *dataset),
        }
        if eval_set is not None:
            rec["test_accuracy"] = argmax_accuracy(model, *eval_set)
        history.append(rec)
        if kept_epoch(history) is rec:  # the best epoch so far
            kept = flat.copy()
    if history:
        flat[:] = kept
    return history


def train_vqc(
    dataset: tuple[np.ndarray, np.ndarray],
    config: CircuitConfig,
    train_cfg: TrainConfig,
    K: int | None = None,
    eval_set: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[VqcModel, list[dict]]:
    """Joint circuit + bias-free head cross-entropy training at gamma = 0.

    Returns the trained model and a per-epoch history (loss curve, plus
    accuracies when an eval set is given).  Deterministic under the
    config seed: the angles are drawn uniform on [-pi, pi), then the head.
    """
    K = int(np.max(dataset[1])) if K is None else K
    rng = np.random.default_rng(train_cfg.seed)
    phi = rng.uniform(-np.pi, np.pi, size=config.param_shape)
    W = rng.uniform(-1.0, 1.0, size=(K, config.n_q)) / np.sqrt(config.n_q)
    flat, (phi, W) = _flat_views(phi, W)

    def step(xb, yb):
        states = run_circuit_batch(config, phi, xb)
        h = z_expectations(states, config.n_q)
        loss, gW, dh, _ = ce_head_gradients(h, W, yb, train_cfg.beta)
        return loss, [vjp(config, phi, xb, dh, states).sum(axis=0), gW]

    model = VqcModel(config, phi, W, beta=train_cfg.beta)
    history = _fit(model, flat, step, dataset, K, train_cfg, rng, eval_set)
    return model, history


MLP_HIDDEN = (7, 7)


def _mlp_init(m: int, K: int, rng: np.random.Generator):
    def fan_in(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    h1, h2 = MLP_HIDDEN
    return [
        fan_in(h1, m),
        rng.uniform(-1 / np.sqrt(m), 1 / np.sqrt(m), size=h1),
        fan_in(h2, h1),
        rng.uniform(-1 / np.sqrt(h1), 1 / np.sqrt(h1), size=h2),
        fan_in(K, h2),
    ]


def train_mlp(
    dataset: tuple[np.ndarray, np.ndarray],
    train_cfg: TrainConfig,
    K: int | None = None,
    eval_set: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[MlpBaseline, list[dict]]:
    """Backprop training of the tanh MLP with the shared beta-softmax head."""
    K = int(np.max(dataset[1])) if K is None else K
    rng = np.random.default_rng(train_cfg.seed)
    flat, (W1, b1, W2, b2, Wh) = _flat_views(*_mlp_init(np.shape(dataset[0])[1], K, rng))

    def step(xb, yb):
        h1 = np.tanh(xb @ W1.T + b1)
        h2 = np.tanh(h1 @ W2.T + b2)
        loss, gWh, dh2, _ = ce_head_gradients(h2, Wh, yb, train_cfg.beta)
        dz2 = dh2 * (1 - h2 * h2)
        dz1 = (dz2 @ W2) * (1 - h1 * h1)
        return loss, [dz1.T @ xb, dz1.sum(axis=0), dz2.T @ h1, dz2.sum(axis=0), gWh]

    mlp = MlpBaseline(W1=W1, b1=b1, W2=W2, b2=b2, W_head=Wh, beta=train_cfg.beta)
    history = _fit(mlp, flat, step, dataset, K, train_cfg, rng, eval_set)
    return mlp, history


def save_model(model, path, seed: int | None = None, atlas_hash: str = "", extra: dict | None = None) -> None:
    """Serialize a VqcModel or MlpBaseline checkpoint to JSON."""
    if isinstance(model, VqcModel):
        payload = {
            "kind": "vqc",
            "config": model.config.to_dict(),
            "phi": model.phi.tolist(),
            "head": {"W": model.W.tolist(), "b": [0.0] * model.K, "beta": model.beta},
        }
    elif isinstance(model, MlpBaseline):
        payload = {
            "kind": "mlp",
            "W1": model.W1.tolist(),
            "b1": model.b1.tolist(),
            "W2": model.W2.tolist(),
            "b2": model.b2.tolist(),
            "W_head": model.W_head.tolist(),
            "beta": model.beta,
            "sigma": model.sigma,
            "activation": "tanh",
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["seed"] = seed
    payload["atlas_hash"] = atlas_hash
    if extra:
        payload["extra"] = extra
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_model(path):
    """Load a checkpoint written by :func:`save_model`: ``(model, the parsed JSON)``.

    Every field is required and of its JSON type (see
    :func:`qpopf.grid.saved_field`).  A VQC head's ``b`` must be all zeros,
    and each beta a finite number > 0; an MLP's sigma must be a finite
    number >= 0 and its activation ``"tanh"``.  Every array must be finite
    and shaped as its model requires (see :func:`qpopf.grid.saved_arrays`).
    Each failure is a ValueError naming the file and the field.
    """
    return load_saved(path, lambda d: (_model_from_checkpoint(d), d))


def _model_from_checkpoint(d):
    kind = saved_field(d, "kind", "checkpoint", str)
    if kind == "vqc":
        head = saved_field(d, "head", "checkpoint", dict)
        config = CircuitConfig.from_dict(saved_field(d, "config", "checkpoint", dict))
        model = VqcModel(config, saved_field(d, "phi", "checkpoint"), saved_field(head, "W", "head"),
                         beta=saved_field(head, "beta", "head", float))
        if saved_field(head, "b", "head") != [0.0] * model.K:
            raise ValueError(
                f"head: b must be {model.K} zeros: the privacy bound assumes a bias-free head"
            )
        return model
    if kind == "mlp":
        activation = saved_field(d, "activation", "checkpoint", str)
        if activation != "tanh":
            raise ValueError(f"checkpoint: activation must be 'tanh', got {activation!r}")
        arrays = [saved_field(d, key, "checkpoint") for key in ("W1", "b1", "W2", "b2", "W_head")]
        return MlpBaseline(*arrays, beta=saved_field(d, "beta", "checkpoint", float),
                           sigma=saved_field(d, "sigma", "checkpoint", float))
    raise ValueError(f"checkpoint: unknown kind {kind!r}")


def argmax_accuracy(model, thetas: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(model.base_scores(np.asarray(thetas, dtype=float)), axis=1) + 1
    return float(np.mean(pred == np.asarray(labels, dtype=int)))


def margin_from_logits(s: np.ndarray, k_star: int) -> float:
    """s_{k*} - max over competitors; 1-based k_star."""
    s = np.asarray(s, dtype=float)
    rival = np.delete(s, k_star - 1)
    return float(s[k_star - 1] - np.max(rival))
