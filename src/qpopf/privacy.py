"""Differential-privacy accounting for the released region index.

Empirical budgets come from log-ratios of output distributions over
adjacent input pairs; the theoretical budget follows the sensitivity
chain encoded state -> contracted features -> logits -> softmax, which
gives eps_reg = 4 beta (1-gamma) L_enc dtheta ||W||_inf,1.  The
privacy-cost tradeoff bounds the expected dispatch-cost increase by the
worst per-region cost gap times a softmax-margin mis-selection bound.

Every region model releases its index from one batched law,
``probability_matrix(thetas (N, m), gamma, beta) -> (N, K)`` (noise-averaged
for an MLP with sigma > 0), built from row-exact base scores, so each row is
bit for bit the law a single query is released from.  An audit is one call
on the stacked pairs followed by one epsilon rule, :func:`pair_epsilons`: a
class with probability exactly zero on one side only saturates its pair
(eps = inf).  The single audit and every cell of the (gamma, beta) grid
build their reports through that same rule, and eps95 is taken over the
finite pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qpopf.circuit import CircuitConfig
from qpopf.classifier import (
    MlpBaseline,
    VqcModel,
    check_noise_and_temperature,
    inf1_norm,
    margin_from_logits,
    softmax_probs,
)
from qpopf.grid import ParametricLP
from qpopf.lp import feasible_dispatch
from qpopf.regions import RegionAtlas, locate_region, sample_labeled_dataset

PROB_FLOOR = 1e-300
EPS_QUANTILE = 0.95          # the percentile an audit reports as eps95
ACCURACY_POINTS = 500        # labeled points behind a grid audit's accuracy columns
SIGMA_REL_TOL = 0.05         # calibrate_sigma stops within this share of the target
SIGMA_MAX_ITER = 40          # bisection steps before it returns the last midpoint


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

    @property
    def noise_seed(self) -> int:
        """Seed of an MLP audit's common noise draws, offset from the pairs' seed."""
        return self.seed + 7919


_MAX_PAIR_TRIES = 100_000


def draw_adjacent_pairs(spec: AdjacencySpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``pair_count`` pairs at distance delta_theta inside the box [-1, 1]^m.

    A pair whose mate leaves the box is redrawn, at most
    ``_MAX_PAIR_TRIES`` times per pair.
    """
    diameter = float(np.linalg.norm(np.full(m, 2.0)))
    if spec.delta_theta >= diameter:
        raise ValueError(
            f"delta_theta {spec.delta_theta} must be below the box diameter {diameter:.4g}"
        )
    rng = np.random.default_rng(spec.seed)
    thetas = np.empty((spec.pair_count, m))
    mates = np.empty((spec.pair_count, m))
    for i in range(spec.pair_count):
        for _ in range(_MAX_PAIR_TRIES):
            t = rng.uniform(-1.0, 1.0, m)
            u = rng.standard_normal(m)
            u /= np.linalg.norm(u)
            t2 = t + spec.delta_theta * u
            if np.all(np.abs(t2) <= 1.0):
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

    @property
    def bound_satisfied(self) -> bool | None:
        """No saturated pair and every eps within eps_reg; None without a bound."""
        if self.eps_reg is None:
            return None
        return bool(self.saturated_count == 0 and np.all(self.eps_emp <= self.eps_reg + 1e-12))

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
            "bound_satisfied": self.bound_satisfied,
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


def epsilon_percentile(samples) -> float:
    """Linear-interpolation ``EPS_QUANTILE`` quantile over the finite samples."""
    vals = np.asarray(list(samples), dtype=float)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return float("inf")
    return float(np.percentile(finite, 100.0 * EPS_QUANTILE, method="linear"))


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

    One ``model.probability_matrix`` call covers both sides of every pair;
    ``draws`` (the MLP's ``n_draws`` and noise ``seed``) go to that call.
    The report records gamma and beta as given, None for a knob the model
    does not have.
    """
    p = model.probability_matrix(np.vstack(pairs), gamma, beta, **draws)
    return _report(p, model, gamma, beta, eps_reg, delta_theta)


def _report(p, model, gamma, beta, eps_reg, delta_theta) -> PrivacyReport:
    """The report on a law ``p`` of the stacked pairs: thetas first, then their mates."""
    n = len(p) // 2
    p = np.asarray(p, float)
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
            noisy, None, beta, pairs, n_draws=n_draws, seed=adjacency.noise_seed
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

    for _ in range(SIGMA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = eps95_at(mid)
        if abs(val - target_eps95) <= SIGMA_REL_TOL * target_eps95:
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
    atlas: RegionAtlas,
) -> list[dict]:
    """Sweep of (gamma, beta) over one shared set of pairs.

    The circuit runs once per point; every grid cell reuses the noise-free
    scores since the bias-free logits just contract by (1-gamma).  Each
    cell's eps95, eps_max and bound_satisfied come from the report
    :func:`audit_mechanism` builds on the same pairs, drawn in the atlas's
    theta dimension as the single audit draws them.  The atlas also labels
    the accuracy columns.
    """
    gammas, betas = list(gammas), list(betas)
    check_noise_and_temperature(gammas, betas)
    m = atlas.theta_box.shape[0]
    scores = model.base_scores(np.vstack(draw_adjacent_pairs(adjacency, m)))
    acc_thetas, labels = sample_labeled_dataset(atlas, ACCURACY_POINTS, adjacency.seed + 1)
    acc_scores = model.base_scores(acc_thetas)

    rows = []
    for gamma in gammas:
        pred = np.argmax(model.logits_from_base(acc_scores, gamma), axis=1) + 1
        for beta in betas:
            eps_reg = epsilon_bound(model, gamma, beta, adjacency.delta_theta)
            report = _report(model.probabilities_from_base(scores, gamma, beta), model,
                             gamma, beta, eps_reg, adjacency.delta_theta)
            probs = model.probabilities_from_base(acc_scores, gamma, beta)
            rows.append({
                "gamma": float(gamma),
                "beta": float(beta),
                "eps95": report.eps95,
                "eps_max": float(np.max(report.eps_emp)),
                "eps_reg": eps_reg,
                "bound_satisfied": report.bound_satisfied,
                "accuracy_det": float(np.mean(pred == labels)),
                "accuracy_stoch": float(np.mean(probs[np.arange(len(labels)), labels - 1])),
            })
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


def epsilon_bound(model: VqcModel, gamma: float, beta: float, delta_theta: float) -> float:
    """eps_reg of a VQC's released law at (gamma, beta) for pairs delta_theta apart."""
    return theoretical_epsilon(beta, gamma, encoding_lipschitz(model.config), delta_theta, model.W)


def theoretical_epsilon(
    beta: float,
    gamma: float,
    L_enc: float,
    delta_theta: float,
    W_cl: np.ndarray,
) -> float:
    """Worst-case budget 4 beta (1-gamma) L_enc dtheta max_k ||w_k||_1."""
    return 4.0 * beta * (1.0 - gamma) * L_enc * delta_theta * inf1_norm(W_cl)


# -- privacy-cost tradeoff ----------------------------------------------------


def cost_tradeoff_formula(dj_max: float, K: int, beta: float, margin: float) -> float:
    """Worst-case cost gap times the margin mis-selection bound."""
    return float(dj_max * (K - 1) * np.exp(-beta * margin))


def delta_j_all(
    atlas: RegionAtlas,
    plp: ParametricLP,
    theta: np.ndarray,
    k_star: int,
) -> np.ndarray:
    """Cost gap of dispatching each region's affine solution at theta.

    ``k_star`` is the 1-based region that contains theta.  Solutions
    violating any constraint beyond ``FEASIBILITY_THRESHOLD`` are projected
    onto the feasible set before costing, mirroring the evaluation
    protocol; the other K-1 regions' dispatches go through one
    ``feasible_dispatch`` batch, so their projections may share two CPUs.
    Entry k*-1 is zero by construction.
    """
    theta = np.asarray(theta, dtype=float)
    x_star = atlas.region(k_star).solution(theta)
    j_star = float(plp.c @ x_star)
    others = [r for r in atlas.regions if r.id != k_star]
    xs, _ = feasible_dispatch([r.solution(theta) for r in others], plp,
                              np.tile(theta, (len(others), 1)))
    out = np.zeros(atlas.K)
    for r, x in zip(others, xs):
        out[r.id - 1] = float(plp.c @ x) - j_star
    return out


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
    if delta_theta is not None and isinstance(model, VqcModel):
        eps_reg = epsilon_bound(model, gamma, beta, delta_theta)
        # the budget at beta = 1, gamma = 0 is bitwise 4 L_enc dtheta ||W||_inf,1
        per_unit_beta = epsilon_bound(model, 0.0, 1.0, delta_theta)
        components["eps_reg"] = eps_reg
        components["remark2_bound"] = float(
            dj_max * (K - 1) * np.exp(-m0 * eps_reg / per_unit_beta)
        )
    return float(bound), components
