"""Monte-Carlo dispatch evaluation and resource models.

For each scenario the mechanism samples a region, the affine map
reconstructs the dispatch, violations beyond 1e-4 trigger an L1
projection onto the feasible set, and errors accumulate against the
exact solution from point location.  ``evaluate`` is a sweep of one
(gamma, beta) cell, and both run one function, ``_scored_cells``: it
locates the batch before any draw, so a scenario outside the atlas
raises ``UncoveredThetaError`` up front, draws every cell, scores each
picked (scenario, region) pair once in one ``lp.feasible_dispatch``
batch, whose projection LPs run on two pool threads where a second CPU
is free and BLAS runs one thread, then sums the cells in scenario order;
the reports do not depend on how many threads ran the projections.  Also
holds the qubit-budget and circuit-runtime formulas plus wall-clock
measurements of the classical paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from qpopf.classifier import check_noise_and_temperature, sample_region
from qpopf.grid import ParametricLP
# FEASIBILITY_THRESHOLD is re-exported: the benchmark reads the scoring threshold here
from qpopf.lp import FEASIBILITY_THRESHOLD, feasible_dispatch, simplex_solve  # noqa: F401
from qpopf.regions import RegionAtlas, locate_covered, locate_region


@dataclass
class ScenarioBatch:
    thetas: np.ndarray          # (N, m), normalized
    seed: int

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        if self.thetas.size == 0:
            raise ValueError(f"a scenario batch needs at least one scenario, got shape "
                             f"{self.thetas.shape}")

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
    # work done, not written out: "infeasible_picks" and "projection_lps"
    counters: dict = field(default_factory=dict)

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
        }


def _tracked_indices(plp: ParametricLP) -> list[int]:
    """The generator and feeder-flow variables, or every variable of an LP
    without such names."""
    if plp.var_names:
        picked = [
            i
            for i, name in enumerate(plp.var_names)
            if name.startswith(("Pg_", "Pf_"))
        ]
        if picked:
            return picked
    return list(range(plp.n))


def _scored_cells(model, atlas: RegionAtlas, plp: ParametricLP, batch: ScenarioBatch,
                  cells: list[tuple[float, float]], rngs: list) -> list[MetricsReport]:
    """The report of each (gamma, beta) cell on ``batch``, drawn on its rng.

    The LP and the box are checked and the batch located first, so an
    uncovered scenario raises before any draw.  The model's base scores
    are computed once; each cell then runs the model's law and one
    ``sample_region`` per scenario, in scenario order on its own rng.
    Every (scenario, region) pair that a cell picks is scored once, in one
    ``feasible_dispatch`` batch, so the reconstruction, the feasibility
    check and the projection LP run at most once per pair, and a
    projection counts against the first cell that picked its pair.  Each
    cell's picks are then summed in scenario order, so its float sums do
    not depend on how the batch was scored.
    """
    if atlas.plp_hash and atlas.plp_hash != plp.hash_hex():
        raise ValueError("atlas/plp hash mismatch: atlas was built for a different LP")
    batch.validate_in(plp.theta_box)
    k_stars = locate_covered(atlas, batch.thetas).tolist()
    base = model.base_scores(batch.thetas)
    picks = [[sample_region(p, rng) for p in model.probabilities_from_base(base, gamma, beta, rng)]
             for (gamma, beta), rng in zip(cells, rngs)]

    first: dict[tuple[int, int], int] = {}  # each picked pair, and the first cell to pick it
    for cell, cell_picks in enumerate(picks):
        for pair in enumerate(cell_picks):
            first.setdefault(pair, cell)
    thetas = batch.thetas[[i for i, _ in first]]
    xs = [atlas.region(k).solution(theta) for (_, k), theta in zip(first, thetas)]
    dispatches, projected = feasible_dispatch(xs, plp, thetas)
    tracked = _tracked_indices(plp)
    x_star = [atlas.region(k).solution(theta) for theta, k in zip(batch.thetas, k_stars)]
    j_star = [float(plp.c @ x) for x in x_star]
    scored = {}  # pair -> (absolute error of the tracked variables, cost gap, projected)
    projections = [0] * len(cells)
    for ((i, k), cell), x, infeasible in zip(first.items(), dispatches, projected.tolist()):
        projections[cell] += infeasible
        # relative gap; absolute when the optimal cost is essentially zero
        gap = (float(plp.c @ x) - j_star[i]) / (abs(j_star[i]) if abs(j_star[i]) > 1e-9 else 1.0)
        scored[(i, k)] = (np.abs(x[tracked] - x_star[i][tracked]), gap, infeasible)

    names = [plp.var_names[i] for i in tracked] if plp.var_names else [f"x{i}" for i in tracked]
    n = batch.count
    reports = []
    for (gamma, beta), cell_picks, lps in zip(cells, picks, projections):
        abs_err = np.zeros(len(tracked))
        gap_sum = 0.0
        infeasible = 0
        for i, k in enumerate(cell_picks):
            err, gap, was_projected = scored[(i, k)]
            infeasible += was_projected
            abs_err += err
            gap_sum += gap
        reports.append(MetricsReport(
            per_variable_mae={name: float(e / n) for name, e in zip(names, abs_err)},
            mae=float(np.mean(abs_err / n)),
            cost_gap=gap_sum / n,
            infeasibility_rate=infeasible / n,
            stochastic_accuracy=sum(k == k_star for k, k_star in zip(cell_picks, k_stars)) / n,
            sample_count=n,
            gamma=float(gamma),
            beta=float(beta),
            model_id=getattr(model, "model_id", "unknown"),
            counters={"infeasible_picks": infeasible, "projection_lps": lps},
        ))
    return reports


def evaluate(
    model,
    atlas: RegionAtlas,
    plp: ParametricLP,
    batch: ScenarioBatch,
    gamma: float,
    beta: float,
    rng: np.random.Generator,
) -> MetricsReport:
    """Sample-reconstruct-project evaluation of a mechanism on a batch."""
    check_noise_and_temperature([gamma], [beta])
    return _scored_cells(model, atlas, plp, batch, [(gamma, beta)], [rng])[0]


def sweep(
    model,
    atlas: RegionAtlas,
    plp: ParametricLP,
    gamma_grid,
    beta_grid,
    batch: ScenarioBatch,
) -> list[MetricsReport]:
    """Full-factorial evaluation; every cell replays the same seed so
    high-beta rows expose the argmax gamma-invariance directly.  The cells
    share the model's base scores, so the circuit runs once per sweep, and
    one scoring batch, so each (scenario, region) pair is projected at
    most once per sweep."""
    gamma_grid, beta_grid = list(gamma_grid), list(beta_grid)
    check_noise_and_temperature(gamma_grid, beta_grid)
    cells = [(gamma, beta) for gamma in gamma_grid for beta in beta_grid]
    rngs = [np.random.default_rng(batch.seed) for _ in cells]
    return _scored_cells(model, atlas, plp, batch, cells, rngs)


def qubit_budget(b: int, Y: int, n_vars: int, n_cons: int) -> int:
    """Direct-QUBO qubit count: b bits per variable, Y bits per slack."""
    return b * n_vars + Y * n_cons


def circuit_depth(n_q: int, L: int) -> int:
    """Depth 1 + L (1 + n_q): initial encode column plus per-layer blocks."""
    return 1 + L * (1 + n_q)


T_PREP_MEAS_US = 1.0  # state preparation plus measurement, per inference
T_GATE_NS = 10.0  # one gate column of the circuit depth


def runtime_model(n_q: int, L: int) -> float:
    """Per-inference circuit time in microseconds: prep+measure plus depth gates."""
    total_ns = T_PREP_MEAS_US * 1000.0 + T_GATE_NS * circuit_depth(n_q, L)
    return total_ns / 1000.0


_TIMING_REPEATS = 50
_TIMING_SEED = 0


def measure_runtimes(
    plp: ParametricLP, atlas: RegionAtlas, mlp=None, vqc_config=None
) -> list[dict]:
    """Median per-instance wall-clock of each online path, in microseconds.

    Each path is timed at the same ``_TIMING_REPEATS`` uniform thetas,
    drawn from ``_TIMING_SEED``.  The LP-solver row is the measured
    baseline all speedups refer to: one ``simplex_solve``, a cold solve
    (model load, presolve and dual simplex).  ``solve_lp`` is not timed:
    it answers most points from a kept vertex without running the solver.
    """
    rng = np.random.default_rng(_TIMING_SEED)
    thetas = rng.uniform(
        plp.theta_box[:, 0], plp.theta_box[:, 1], size=(_TIMING_REPEATS, plp.m)
    )

    def med_us(fn) -> float:
        times = []
        for theta in thetas:
            t0 = time.perf_counter()
            fn(theta)
            times.append((time.perf_counter() - t0) * 1e6)
        return float(np.median(times))

    lp_us = med_us(lambda t: simplex_solve(plp, t))
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
            k = int(np.argmax(mlp.base_scores(theta[None, :])[0])) + 1
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
