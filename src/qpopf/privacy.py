"""Differential-privacy accounting for the released region index.

Empirical budgets come from log-ratios of output distributions over
adjacent input pairs; the theoretical budget follows the sensitivity
chain encoded state -> contracted features -> logits -> softmax, which
gives eps_reg = 4 beta (1-gamma) L_enc dtheta ||W||_inf,1.  The
privacy-cost tradeoff bounds the expected dispatch-cost increase by the
worst per-region cost gap times a softmax-margin mis-selection bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qpopf.circuit import CircuitConfig, run_circuit_batch, trace_distance_pure
from qpopf.classifier import (
    MlpBaseline,
    VqcModel,
    log_softmax,
    margin_from_logits,
    softmax_probs,
)
from qpopf.grid import ParametricLP
from qpopf.lp import project_feasible
from qpopf.regions import RegionAtlas, locate_region

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class AdjacencySpec:
    """How adjacent input pairs are drawn in normalized theta space.

    theta is uniform over the box and theta' = theta + delta_theta * u for
    a uniform unit direction u; draws whose partner mate falls outside the
    box are redrawn, so every pair sits at exactly delta_theta distance.
    """

    delta_theta: float = 0.05
    pair_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.delta_theta <= 0:
            raise ValueError("delta_theta must be > 0")
        if self.pair_count < 1:
            raise ValueError("pair_count must be >= 1")


_MAX_PAIR_TRIES = 100_000


def draw_adjacent_pairs(
    spec: AdjacencySpec, m: int, box: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``pair_count`` pairs at distance delta_theta inside the box.

    A pair whose mate leaves the box is redrawn, at most
    ``_MAX_PAIR_TRIES`` times per pair.
    """
    if box is None:
        box = np.tile(np.array([-1.0, 1.0]), (m, 1))
    diameter = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    if spec.delta_theta >= diameter:
        raise ValueError(
            f"delta_theta {spec.delta_theta} must be below the box diameter {diameter:.4g}"
        )
    rng = np.random.default_rng(spec.seed)
    thetas = np.empty((spec.pair_count, m))
    mates = np.empty((spec.pair_count, m))
    for i in range(spec.pair_count):
        for _ in range(_MAX_PAIR_TRIES):
            t = rng.uniform(box[:, 0], box[:, 1])
            u = rng.standard_normal(m)
            u /= np.linalg.norm(u)
            t2 = t + spec.delta_theta * u
            if np.all(t2 >= box[:, 0]) and np.all(t2 <= box[:, 1]):
                thetas[i], mates[i] = t, t2
                break
        else:
            raise ValueError(
                f"could not draw a pair at distance {spec.delta_theta} inside the box "
                f"in {_MAX_PAIR_TRIES} tries"
            )
    return thetas, mates


@dataclass
class PrivacyReport:
    eps_emp: np.ndarray
    eps95: float
    eps_reg: float | None
    worst_pair: int
    worst_class: int            # 1-based region index
    model_id: str
    gamma: float | None
    beta: float | None
    delta_theta: float | None = None
    saturated_count: int = 0

    def to_dict(self) -> dict:
        return {
            "eps_emp": [float(e) for e in self.eps_emp],
            "eps95": self.eps95,
            "eps_reg": self.eps_reg,
            "worst_pair": self.worst_pair,
            "worst_class": self.worst_class,
            "model_id": self.model_id,
            "gamma": self.gamma,
            "beta": self.beta,
            "delta_theta": self.delta_theta,
            "saturated_count": self.saturated_count,
            "bound_satisfied": (
                None
                if self.eps_reg is None
                else bool(
                    self.saturated_count == 0
                    and np.all(self.eps_emp <= self.eps_reg + 1e-12)
                )
            ),
        }


# -- mechanisms ---------------------------------------------------------------


@dataclass
class VqcMechanism:
    """Exact-probability release mechanism of the quantum classifier."""

    model: VqcModel
    gamma: float
    beta: float

    @property
    def model_id(self) -> str:
        return self.model.model_id

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        return self.model.probability_matrix(
            np.asarray(theta, float)[None, :], self.gamma, self.beta
        )[0]

    def epsilon_bound(self, delta_theta: float) -> float:
        return theoretical_epsilon(
            self.beta,
            self.gamma,
            encoding_lipschitz(self.model.config),
            delta_theta,
            self.model.head.W,
        )


@dataclass
class MlpAveragedMechanism:
    """Gaussian-logit-noise MLP with Monte-Carlo averaged output law.

    The released index follows the noise-convolved softmax, which has no
    closed form; the distribution is estimated by averaging the softmax
    over ``n_draws`` noise realizations (common random numbers per
    instance keep calibration searches smooth and deterministic).
    """

    mlp: MlpBaseline
    sigma: float
    beta: float
    n_draws: int = 2000
    seed: int = 0
    gamma: float | None = None

    @property
    def model_id(self) -> str:
        return self.mlp.model_id

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        s = self.mlp.logits(np.asarray(theta, float)[None, :])[0]
        if self.sigma == 0.0:
            return softmax_probs(s, self.beta)
        rng = np.random.default_rng(self.seed)
        noise = self.sigma * rng.standard_normal((self.n_draws, s.shape[0]))
        return softmax_probs(s + noise, self.beta).mean(axis=0)


@dataclass
class OracleMechanism:
    atlas: RegionAtlas
    model_id: str = "oracle"
    gamma: float | None = None
    beta: float | None = None

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        p = np.zeros(self.atlas.K)
        p[locate_region(self.atlas, theta) - 1] = 1.0
        return p


# -- empirical accounting -----------------------------------------------------


def empirical_epsilon(model, theta: np.ndarray, theta_prime: np.ndarray) -> float:
    """max_k |log(P_k(theta) / P_k(theta'))| for a mechanism's output law.

    Probabilities are floored at 1e-300 before the log; a class whose
    probability is exactly zero on one side only yields the +inf
    sentinel (both-zero classes carry no information and are skipped).
    """
    eps, _ = _epsilon_with_class(model, theta, theta_prime)
    return eps


def _epsilon_with_class(model, theta, theta_prime) -> tuple[float, int]:
    p = np.asarray(model.probabilities(np.asarray(theta, float)), dtype=float)
    p2 = np.asarray(model.probabilities(np.asarray(theta_prime, float)), dtype=float)
    zero, zero2 = p == 0.0, p2 == 0.0
    if np.any(zero ^ zero2):
        return float("inf"), int(np.flatnonzero(zero ^ zero2)[0]) + 1
    keep = ~(zero & zero2)
    if not np.any(keep):
        return 0.0, 1
    ratios = np.abs(
        np.log(np.maximum(p[keep], PROB_FLOOR))
        - np.log(np.maximum(p2[keep], PROB_FLOOR))
    )
    j = int(np.argmax(ratios))
    return float(ratios[j]), int(np.flatnonzero(keep)[j]) + 1


def epsilon_percentile(samples, q: float = 0.95) -> float:
    """Linear-interpolation quantile over the finite samples."""
    vals = np.asarray(list(samples), dtype=float)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return float("inf")
    return float(np.percentile(finite, 100.0 * q, method="linear"))


def audit_mechanism(
    mech,
    pairs: tuple[np.ndarray, np.ndarray],
    eps_reg: float | None = None,
    delta_theta: float | None = None,
) -> PrivacyReport:
    thetas, mates = pairs
    eps = np.empty(len(thetas))
    classes = np.empty(len(thetas), dtype=int)
    for i, (t, t2) in enumerate(zip(thetas, mates)):
        eps[i], classes[i] = _epsilon_with_class(mech, t, t2)
    finite = np.isfinite(eps)
    saturated = int(np.sum(~finite))
    if saturated:
        worst = int(np.flatnonzero(~finite)[0])
    else:
        worst = int(np.argmax(eps))
    return PrivacyReport(
        eps_emp=eps,
        eps95=epsilon_percentile(eps),
        eps_reg=eps_reg,
        worst_pair=worst,
        worst_class=int(classes[worst]),
        model_id=getattr(mech, "model_id", "unknown"),
        gamma=getattr(mech, "gamma", None),
        beta=getattr(mech, "beta", None),
        delta_theta=delta_theta,
        saturated_count=saturated,
    )


def audit_vqc_grid(
    model: VqcModel,
    gammas,
    betas,
    adjacency: AdjacencySpec,
    atlas: RegionAtlas | None = None,
    accuracy_points: int = 500,
) -> list[dict]:
    """Fast exact sweep of (gamma, beta) over one shared set of pairs.

    The circuit runs once per point; every grid cell reuses the noise-free
    scores since the bias-free logits just contract by (1-gamma).
    Accuracy columns need an atlas for ground-truth labels.
    """
    m = max(model.config.encoding_pattern) + 1
    thetas, mates = draw_adjacent_pairs(adjacency, m)
    scores = model.base_scores(np.vstack([thetas, mates]))
    bias = model.head.b
    n_pairs = len(thetas)
    L_enc = encoding_lipschitz(model.config)

    acc_thetas = labels = acc_scores = None
    if atlas is not None:
        from qpopf.regions import sample_labeled_dataset

        acc_thetas, labels = sample_labeled_dataset(
            atlas, accuracy_points, adjacency.seed + 1
        )
        acc_scores = model.base_scores(acc_thetas)

    rows = []
    for gamma in gammas:
        for beta in betas:
            logits = (1.0 - gamma) * scores + bias
            logp = log_softmax(logits, beta)
            diffs = np.abs(logp[:n_pairs] - logp[n_pairs:])
            eps = diffs.max(axis=1)
            row = {
                "gamma": float(gamma),
                "beta": float(beta),
                "eps95": epsilon_percentile(eps),
                "eps_max": float(eps.max()),
                "eps_reg": theoretical_epsilon(
                    beta, gamma, L_enc, adjacency.delta_theta, model.head.W
                ),
            }
            if atlas is not None:
                acc_logits = (1.0 - gamma) * acc_scores + bias
                pred = np.argmax(acc_logits, axis=1) + 1
                probs = softmax_probs(acc_logits, beta)
                row["accuracy_det"] = float(np.mean(pred == labels))
                row["accuracy_stoch"] = float(
                    np.mean(probs[np.arange(len(labels)), labels - 1])
                )
            rows.append(row)
    return rows


# -- theoretical accounting ---------------------------------------------------


def encoding_lipschitz(config: CircuitConfig) -> float:
    """Analytic trace-distance Lipschitz bound of the layered encoding.

    Each layer's encoding block moves the state by at most (scale/2) per
    rotation; telescoping over the L re-uploads (the trainable blocks are
    unitary and distance-preserving) gives L * (scale/2) * sqrt(d_enc)
    against the euclidean input distance, with d_enc rotations per layer.
    """
    d_enc = len(config.encoding_pattern)
    return config.L * (config.encoding_scale / 2.0) * float(np.sqrt(d_enc))


def encoding_lipschitz_empirical(
    config: CircuitConfig,
    params,
    n_pairs: int = 10_000,
    delta: float = 0.05,
    seed: int = 0,
) -> float:
    """Max observed trace-distance ratio over sampled pairs (not a proof)."""
    m = max(config.encoding_pattern) + 1
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1.0, 1.0, size=(n_pairs, m))
    u = rng.standard_normal((n_pairs, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dist = delta * rng.uniform(0.05, 1.0, size=(n_pairs, 1))
    mates = np.clip(thetas + dist * u, -1.0, 1.0)
    dists = np.linalg.norm(mates - thetas, axis=1)
    keep = dists > 1e-12
    psi = run_circuit_batch(config, params, thetas[keep])
    psi2 = run_circuit_batch(config, params, mates[keep])
    overlap = np.abs(np.einsum("ij,ij->i", psi.conj(), psi2)) ** 2
    tr = np.sqrt(np.maximum(0.0, 1.0 - overlap))
    return float(np.max(tr / dists[keep]))


def theoretical_epsilon(
    beta: float,
    gamma: float,
    L_enc: float,
    delta_theta: float,
    W_cl: np.ndarray,
) -> float:
    """Worst-case budget 4 beta (1-gamma) L_enc dtheta max_k ||w_k||_1."""
    norm = float(np.max(np.sum(np.abs(np.asarray(W_cl, float)), axis=1)))
    return 4.0 * beta * (1.0 - gamma) * L_enc * delta_theta * norm


def required_beta(
    eps_target: float,
    gamma_assumed: float,
    L_enc: float,
    delta_theta: float,
    W_cl: np.ndarray,
) -> float:
    """Invert the budget bound for the softmax temperature."""
    if gamma_assumed >= 1.0:
        raise ValueError("gamma_assumed = 1 leaves no signal; beta is unbounded")
    norm = float(np.max(np.sum(np.abs(np.asarray(W_cl, float)), axis=1)))
    return eps_target / (4.0 * (1.0 - gamma_assumed) * L_enc * delta_theta * norm)


def wasted_budget(eps_target: float, gamma_actual: float) -> float:
    """Unused budget of a noise-unaware user: eps_target * gamma_actual."""
    return eps_target * gamma_actual


# -- privacy-cost tradeoff ----------------------------------------------------


def cost_tradeoff_formula(dj_max: float, K: int, beta: float, margin: float) -> float:
    """Worst-case cost gap times the margin mis-selection bound."""
    return float(dj_max * (K - 1) * np.exp(-beta * margin))


def delta_j_all(
    atlas: RegionAtlas,
    plp: ParametricLP,
    theta: np.ndarray,
    k_star: int | None = None,
    feas_tol: float = 1e-4,
) -> np.ndarray:
    """Cost gap of dispatching each region's affine solution at theta.

    Solutions violating any constraint beyond ``feas_tol`` are projected
    onto the feasible set before costing, mirroring the evaluation
    protocol.  Entry k*-1 is zero by construction.
    """
    theta = np.asarray(theta, dtype=float)
    if k_star is None:
        k_star = locate_region(atlas, theta)
    x_star = atlas.region(k_star).solution(theta)
    j_star = float(plp.c @ x_star)
    rhs = plp.rhs(theta)
    out = np.zeros(atlas.K)
    for r in atlas.regions:
        if r.id == k_star:
            continue
        x = r.solution(theta)
        if float(np.max(plp.W @ x - rhs, initial=0.0)) > feas_tol:
            x = project_feasible(x, plp, theta)
        out[r.id - 1] = float(plp.c @ x) - j_star
    return out


def mis_selection_probability(
    model, atlas: RegionAtlas, theta: np.ndarray, gamma: float, beta: float
) -> float:
    """Exact P[sampled region != true region] under softmax sampling."""
    theta = np.asarray(theta, dtype=float)
    k_star = locate_region(atlas, theta)
    p = softmax_probs(model.logit_matrix(theta[None, :], gamma)[0], beta)
    return float(1.0 - p[k_star - 1])


def mis_selection_bound(
    model, atlas: RegionAtlas, theta: np.ndarray, gamma: float, beta: float
) -> float:
    """(K-1) exp(-beta m(theta)) with the margin at noise level gamma."""
    theta = np.asarray(theta, dtype=float)
    k_star = locate_region(atlas, theta)
    s = model.logit_matrix(theta[None, :], gamma)[0]
    K = s.shape[0]
    return float((K - 1) * np.exp(-beta * margin_from_logits(s, k_star)))


def tradeoff_bound(
    model,
    atlas: RegionAtlas,
    plp: ParametricLP,
    theta: np.ndarray,
    gamma: float,
    beta: float,
    delta_theta: float | None = None,
) -> tuple[float, dict]:
    """Expected-cost-increase bound dJ_max (K-1) exp(-beta m) and parts.

    Components include the bias-free simplification (margin contracts by
    (1-gamma)) and, when ``delta_theta`` is given, the same bound written
    as a function of the theoretical privacy budget.
    """
    theta = np.asarray(theta, dtype=float)
    k_star = locate_region(atlas, theta)
    deltas = delta_j_all(atlas, plp, theta, k_star)
    others = np.delete(deltas, k_star - 1)
    dj_max = float(np.max(others)) if others.size else 0.0

    s = model.logit_matrix(theta[None, :], gamma)[0]
    s0 = model.logit_matrix(theta[None, :], 0.0)[0]
    K = s.shape[0]
    m_gamma = margin_from_logits(s, k_star)
    m0 = margin_from_logits(s0, k_star)
    mis = float((K - 1) * np.exp(-beta * m_gamma))
    bound = cost_tradeoff_formula(dj_max, K, beta, m_gamma)

    components = {
        "k_star": k_star,
        "delta_j": deltas,
        "delta_j_max": dj_max,
        "margin": m_gamma,
        "margin0": m0,
        "mis_selection_bound": mis,
        "remark1_bound": cost_tradeoff_formula(dj_max, K, beta * (1.0 - gamma), m0),
        "probabilities": softmax_probs(s, beta),
    }
    if delta_theta is not None and hasattr(model, "head"):
        L_enc = encoding_lipschitz(model.config)
        w_norm = model.head.weight_inf1_norm()
        eps_reg = theoretical_epsilon(beta, gamma, L_enc, delta_theta, model.head.W)
        components["eps_reg"] = eps_reg
        components["remark2_bound"] = float(
            dj_max
            * (K - 1)
            * np.exp(-m0 * eps_reg / (4.0 * L_enc * delta_theta * w_norm))
        )
    return float(bound), components
