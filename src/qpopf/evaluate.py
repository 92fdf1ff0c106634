"""Monte-Carlo dispatch evaluation and resource models.

For each scenario the mechanism samples a region, the affine map
reconstructs the dispatch, violations beyond 1e-4 trigger an L1
projection onto the feasible set, and errors accumulate against the
exact solution from point location.  The whole batch is located before
any draw, so a scenario outside the atlas raises ``UncoveredThetaError``
up front.  Also holds the qubit-budget and
circuit-runtime formulas plus wall-clock measurements of the classical
paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from qpopf.classifier import sample_region
from qpopf.grid import ParametricLP
from qpopf.lp import project_feasible, solve_lp
from qpopf.regions import RegionAtlas, locate_covered, locate_region

FEASIBILITY_THRESHOLD = 1e-4


@dataclass
class ScenarioBatch:
    thetas: np.ndarray          # (N, m), normalized
    seed: int

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))

    @property
    def count(self) -> int:
        return self.thetas.shape[0]

    @classmethod
    def sample(cls, box: np.ndarray, count: int, seed: int) -> "ScenarioBatch":
        rng = np.random.default_rng(seed)
        box = np.asarray(box, dtype=float)
        thetas = rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))
        return cls(thetas=thetas, seed=seed)

    def validate_in(self, box: np.ndarray) -> None:
        box = np.asarray(box, dtype=float)
        if np.any(self.thetas < box[:, 0] - 1e-12) or np.any(
            self.thetas > box[:, 1] + 1e-12
        ):
            raise ValueError("scenario batch has samples outside the parameter box")


@dataclass
class MetricsReport:
    per_variable_mae: dict[str, float]
    mae: float
    cost_gap: float             # mean fractional gap
    infeasibility_rate: float
    stochastic_accuracy: float
    sample_count: int
    gamma: float
    beta: float
    model_id: str
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_variable_mae": self.per_variable_mae,
            "mae": self.mae,
            "cost_gap": self.cost_gap,
            "infeasibility_rate": self.infeasibility_rate,
            "stochastic_accuracy": self.stochastic_accuracy,
            "sample_count": self.sample_count,
            "gamma": self.gamma,
            "beta": self.beta,
            "model_id": self.model_id,
            **self.extras,
        }


def _tracked_indices(plp: ParametricLP, track: list[str] | None) -> list[int]:
    if track is not None:
        index = {name: i for i, name in enumerate(plp.var_names)}
        missing = [t for t in track if t not in index]
        if missing:
            raise ValueError(f"unknown tracked variables: {missing}")
        return [index[t] for t in track]
    if plp.var_names:
        picked = [
            i
            for i, name in enumerate(plp.var_names)
            if name.startswith(("Pg_", "Pf_"))
        ]
        if picked:
            return picked
    return list(range(plp.n))


def evaluate(
    model,
    atlas: RegionAtlas,
    plp: ParametricLP,
    batch: ScenarioBatch,
    gamma: float,
    beta: float,
    rng: np.random.Generator,
    track: list[str] | None = None,
    feas_tol: float = FEASIBILITY_THRESHOLD,
) -> MetricsReport:
    """Sample-reconstruct-project evaluation of a mechanism on a batch."""
    if atlas.plp_hash and atlas.plp_hash != plp.hash_hex():
        raise ValueError("atlas/plp hash mismatch: atlas was built for a different LP")
    batch.validate_in(plp.theta_box)

    tracked = _tracked_indices(plp, track)
    names = (
        [plp.var_names[i] for i in tracked]
        if plp.var_names
        else [f"x{i}" for i in tracked]
    )
    # before any draw: an uncovered scenario has no exact solution to score
    k_stars = locate_covered(atlas, batch.thetas).tolist()
    probs = model.selection_probabilities(batch.thetas, gamma, beta, rng)

    abs_err = np.zeros(len(tracked))
    gap_sum = 0.0
    infeasible = 0
    correct = 0
    for i in range(batch.count):
        theta = batch.thetas[i]
        k_star = k_stars[i]
        k_pick = sample_region(probs[i], rng)
        correct += k_pick == k_star
        x_star = atlas.region(k_star).solution(theta)
        x = atlas.region(k_pick).solution(theta)
        rhs = plp.rhs(theta)
        if float(np.max(plp.W @ x - rhs, initial=0.0)) > feas_tol:
            infeasible += 1
            x = project_feasible(x, plp, theta)
        abs_err += np.abs(x[tracked] - x_star[tracked])
        j_star = float(plp.c @ x_star)
        # relative gap; absolute when the optimal cost is essentially zero
        gap_sum += (float(plp.c @ x) - j_star) / (abs(j_star) if abs(j_star) > 1e-9 else 1.0)
    n = batch.count
    per_var = {name: float(e / n) for name, e in zip(names, abs_err)}
    return MetricsReport(
        per_variable_mae=per_var,
        mae=float(np.mean(abs_err / n)),
        cost_gap=gap_sum / n,
        infeasibility_rate=infeasible / n,
        stochastic_accuracy=correct / n,
        sample_count=n,
        gamma=float(gamma),
        beta=float(beta),
        model_id=getattr(model, "model_id", "unknown"),
    )


def sweep(
    model,
    atlas: RegionAtlas,
    plp: ParametricLP,
    gamma_grid,
    beta_grid,
    batch: ScenarioBatch,
    track: list[str] | None = None,
) -> list[MetricsReport]:
    """Full-factorial evaluation; every cell replays the same seed so
    high-beta rows expose the argmax gamma-invariance directly."""
    reports = []
    for gamma in gamma_grid:
        for beta in beta_grid:
            rng = np.random.default_rng(batch.seed)
            reports.append(
                evaluate(model, atlas, plp, batch, gamma, beta, rng, track=track)
            )
    return reports


def expected_cost(atlas: RegionAtlas, plp: ParametricLP, batch: ScenarioBatch) -> float:
    """Monte-Carlo estimate of the expected optimal cost over scenarios."""
    total = 0.0
    for theta, k in zip(batch.thetas, locate_covered(atlas, batch.thetas).tolist()):
        total += float(plp.c @ atlas.region(k).solution(theta))
    return total / batch.count


def qubit_budget(
    b: int,
    Y: int,
    n_vars: int = 42,
    n_cons: int = 214,
    n_q_ours: int = 5,
) -> tuple[int, int]:
    """Direct-QUBO qubit count (b bits/variable, Y bits/slack) vs ours."""
    return b * n_vars + Y * n_cons, n_q_ours


def circuit_depth(n_q: int, L: int) -> int:
    """Depth 1 + L (1 + n_q): initial encode column plus per-layer blocks."""
    return 1 + L * (1 + n_q)


def runtime_model(
    n_q: int,
    L: int,
    t_prep_meas_us: float = 1.0,
    t_gate_ns: float = 10.0,
) -> float:
    """Per-inference circuit time in microseconds: prep+measure plus depth gates."""
    total_ns = t_prep_meas_us * 1000.0 + t_gate_ns * circuit_depth(n_q, L)
    return total_ns / 1000.0


def measure_runtimes(
    plp: ParametricLP,
    atlas: RegionAtlas,
    mlp=None,
    vqc_config=None,
    repeats: int = 50,
    seed: int = 0,
) -> list[dict]:
    """Median per-instance wall-clock of each online path, in microseconds.

    The LP-solver row is the measured baseline all speedups refer to.
    """
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(
        plp.theta_box[:, 0], plp.theta_box[:, 1], size=(repeats, plp.m)
    )

    def med_us(fn) -> float:
        times = []
        for theta in thetas:
            t0 = time.perf_counter()
            fn(theta)
            times.append((time.perf_counter() - t0) * 1e6)
        return float(np.median(times))

    lp_us = med_us(lambda t: solve_lp(plp, t))
    rows = [{"method": "lp_solver", "runtime_us": lp_us, "speedup": 1.0}]

    def check_affine(theta):
        k = locate_region(atlas, theta)
        atlas.region(k).solution(theta)

    cc_us = med_us(check_affine)
    rows.append(
        {"method": "constraint_check_affine", "runtime_us": cc_us, "speedup": lp_us / cc_us}
    )
    if mlp is not None:
        def mlp_path(theta):
            k = int(np.argmax(mlp.logits(theta[None, :])[0])) + 1
            atlas.region(k).solution(theta)

        mlp_us = med_us(mlp_path)
        rows.append(
            {"method": "mlp_affine", "runtime_us": mlp_us, "speedup": lp_us / mlp_us}
        )
    if vqc_config is not None:
        vqc_us = runtime_model(vqc_config.n_q, vqc_config.L)
        rows.append(
            {"method": "vqc_affine_modeled", "runtime_us": vqc_us, "speedup": lp_us / vqc_us}
        )
    return rows
