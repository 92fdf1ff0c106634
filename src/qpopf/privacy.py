"""Differential-privacy accounting for the released region index.

Empirical budgets come from log-ratios of output distributions over
adjacent input pairs; the theoretical budget follows the sensitivity
chain encoded state -> contracted features -> logits -> softmax, which
gives eps_reg = 4 beta (1-gamma) L_enc dtheta ||W||_inf,1.  The
privacy-cost tradeoff bounds the expected dispatch-cost increase by the
worst per-region cost gap times a softmax-margin mis-selection bound.

Every region model releases its index from one batched law,
``released_law(thetas (N, m), gamma, beta) -> (N, K)``, so an audit is a
single call on the stacked pairs followed by a vectorized per-pair
epsilon and worst-class step.  That law is built from row-exact base
scores (``base_scores(thetas, rowwise=True)``, which applies the dense
layers row by row): the batched (gemm) product rounds differently from
the one-query (gemv) product, and the audit has to measure the law a
single query is released from, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qpopf.circuit import CircuitConfig, run_circuit_batch
from qpopf.classifier import (
    MlpBaseline,
    VqcModel,
    check_noise_and_temperature,
    log_softmax,
    margin_from_logits,
    softmax_probs,
)
from qpopf.grid import ParametricLP
from qpopf.lp import project_feasible
from qpopf.regions import RegionAtlas, locate_region, sample_labeled_dataset

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
        if not (math.isfinite(self.delta_theta) and self.delta_theta > 0):
            raise ValueError(f"delta_theta must be finite and > 0, got {self.delta_theta}")
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


# -- empirical accounting -----------------------------------------------------


def pair_epsilons(p: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, max_k |log(P_k / P'_k)| and the 1-based class attaining it.

    Probabilities are floored at 1e-300 before the log.  A class whose
    probability is exactly zero on one side only yields the +inf
    sentinel, reported at the first such class; classes that are zero on
    both sides carry no information and are skipped (0 at class 1 when
    every class is).  Ties go to the lowest class.
    """
    zero, zero2 = p == 0.0, p2 == 0.0
    ratios = np.abs(np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(p2, PROB_FLOOR)))
    ratios[zero & zero2] = -np.inf
    classes = np.argmax(ratios, axis=1)
    eps = np.maximum(ratios[np.arange(len(ratios)), classes], 0.0)
    one_sided = zero ^ zero2
    saturated = one_sided.any(axis=1)
    eps[saturated] = np.inf
    classes[saturated] = np.argmax(one_sided[saturated], axis=1)
    return eps, classes + 1


def epsilon_percentile(samples, q: float = 0.95) -> float:
    """Linear-interpolation quantile over the finite samples."""
    vals = np.asarray(list(samples), dtype=float)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return float("inf")
    return float(np.percentile(finite, 100.0 * q, method="linear"))


def audit_mechanism(
    model,
    gamma: float | None,
    beta: float | None,
    pairs: tuple[np.ndarray, np.ndarray],
    eps_reg: float | None = None,
    delta_theta: float | None = None,
    **draws,
) -> PrivacyReport:
    """Empirical budget of a model's released law over adjacent pairs.

    One ``model.released_law`` call covers both sides of every pair;
    ``draws`` (the MLP's ``n_draws`` and noise ``seed``) go to that call.
    The report records gamma and beta as given, None for a knob the model
    does not have.
    """
    thetas, mates = pairs
    n = len(thetas)
    p = np.asarray(model.released_law(np.vstack([thetas, mates]), gamma, beta, **draws), float)
    eps, classes = pair_epsilons(p[:n], p[n:])
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
        model_id=getattr(model, "model_id", "unknown"),
        gamma=gamma,
        beta=beta,
        delta_theta=delta_theta,
        saturated_count=saturated,
    )


def calibrate_sigma(
    mlp: MlpBaseline,
    target_eps95: float,
    adjacency: AdjacencySpec,
    beta: float | None = None,
    n_draws: int = 2000,
    rel_tol: float = 0.05,
    max_iter: int = 40,
) -> float:
    """Bisect the Gaussian logit-noise scale until eps95 matches the target.

    Each step audits the MLP's averaged law at one sigma on the same pairs
    and the same common noise draws, so the search is deterministic.
    Returns 0 when even the noise-free model already meets the target.
    """
    beta = mlp.beta if beta is None else beta
    pairs = draw_adjacent_pairs(adjacency, mlp.W1.shape[1])

    def eps95_at(sigma: float) -> float:
        noisy = replace(mlp, sigma=sigma)
        return audit_mechanism(
            noisy, None, beta, pairs, n_draws=n_draws, seed=adjacency.seed + 7919
        ).eps95

    base = eps95_at(0.0)
    if base <= target_eps95:
        return 0.0

    lo, hi = 0.0, 1.0
    for _ in range(30):
        if eps95_at(hi) <= target_eps95:
            break
        lo, hi = hi, hi * 3.0
    else:
        raise RuntimeError("could not bracket the target eps95")

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = eps95_at(mid)
        if abs(val - target_eps95) <= rel_tol * target_eps95:
            return mid
        if val > target_eps95:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    gammas, betas = list(gammas), list(betas)
    check_noise_and_temperature(gammas, betas)
    m = max(model.config.encoding_pattern) + 1
    thetas, mates = draw_adjacent_pairs(adjacency, m)
    scores = model.base_scores(np.vstack([thetas, mates]))
    n_pairs = len(thetas)

    acc_thetas = labels = acc_scores = None
    if atlas is not None:
        acc_thetas, labels = sample_labeled_dataset(
            atlas, accuracy_points, adjacency.seed + 1
        )
        acc_scores = model.base_scores(acc_thetas)

    rows = []
    for gamma in gammas:
        for beta in betas:
            logits = model.logits_from_base(scores, gamma)
            logp = log_softmax(logits, beta)
            diffs = np.abs(logp[:n_pairs] - logp[n_pairs:])
            eps = diffs.max(axis=1)
            row = {
                "gamma": float(gamma),
                "beta": float(beta),
                "eps95": epsilon_percentile(eps),
                "eps_max": float(eps.max()),
                "eps_reg": epsilon_bound(model, gamma, beta, adjacency.delta_theta),
            }
            if atlas is not None:
                acc_logits = model.logits_from_base(acc_scores, gamma)
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


def epsilon_bound(model: VqcModel, gamma: float, beta: float, delta_theta: float) -> float:
    """eps_reg of a VQC's released law at (gamma, beta) for pairs delta_theta apart."""
    return theoretical_epsilon(
        beta, gamma, encoding_lipschitz(model.config), delta_theta, model.head.W
    )


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
    as a function of the theoretical privacy budget.  The logits at gamma
    and at 0 come from one circuit forward.
    """
    theta = np.asarray(theta, dtype=float)
    k_star = locate_region(atlas, theta)
    deltas = delta_j_all(atlas, plp, theta, k_star)
    others = np.delete(deltas, k_star - 1)
    dj_max = float(np.max(others)) if others.size else 0.0

    base = model.base_scores(theta[None, :])
    s, s0 = (model.logits_from_base(base, g)[0] for g in (gamma, 0.0))
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
