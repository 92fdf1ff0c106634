"""Monte-Carlo dispatch evaluation and resource models.

For each scenario the mechanism samples a region, the affine map
reconstructs the dispatch, violations beyond 1e-4 trigger an L1
projection onto the feasible set, and errors accumulate against the
exact solution from point location.  A batch is prepared once: it is
located before any draw, so a scenario outside the atlas raises
``UncoveredThetaError`` up front, and the scored dispatch of each
(scenario, region) pair is kept, so a sweep over (gamma, beta) projects
each pair at most once.  Each evaluation draws every pick first, then
fills the dispatches of the new pairs in one batch, whose projection
LPs run on two pool threads where a second CPU is free and BLAS runs
one thread (``lp._workers``), then scores the picks in scenario order;
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


class _DispatchTable:
    """One scenario batch, prepared for any number of (gamma, beta) cells.

    Building it is independent of gamma, beta and the rng: it checks the
    LP and the box, locates the batch (an uncovered scenario raises here,
    before any draw) and keeps each scenario's exact solution and exact
    cost.  A cell then runs in three steps.  ``draw`` runs the model's law
    and one ``sample_region`` per scenario, in scenario order on one rng
    stream.  ``fill`` scores the (scenario, region) pairs that no cell
    picked before, all of them with one ``feasible_dispatch`` batch, so
    the reconstruction, the feasibility check and the projection LP run
    at most once per pair and the projections may run on two pool
    threads.  ``score`` then sums the cell's picks in scenario order, so
    its float sums do not depend on how the batch was filled.
    """

    def __init__(
        self,
        atlas: RegionAtlas,
        plp: ParametricLP,
        batch: ScenarioBatch,
    ):
        if atlas.plp_hash and atlas.plp_hash != plp.hash_hex():
            raise ValueError("atlas/plp hash mismatch: atlas was built for a different LP")
        batch.validate_in(plp.theta_box)
        self.atlas, self.plp, self.batch = atlas, plp, batch
        self.tracked = _tracked_indices(plp)
        self.names = (
            [plp.var_names[i] for i in self.tracked]
            if plp.var_names
            else [f"x{i}" for i in self.tracked]
        )
        self.k_stars = locate_covered(atlas, batch.thetas).tolist()
        self.x_star = [
            atlas.region(k).solution(theta) for theta, k in zip(batch.thetas, self.k_stars)
        ]
        self.j_star = [float(plp.c @ x) for x in self.x_star]
        self._picks: dict[tuple[int, int], tuple[np.ndarray, float, bool]] = {}

    def draw(
        self, model, base: np.ndarray, gamma: float, beta: float, rng: np.random.Generator
    ) -> list[int]:
        """One (gamma, beta) cell's picks: the model's law from its base
        scores, then one region per scenario."""
        probs = model.probabilities_from_base(base, gamma, beta, rng)
        return [sample_region(p, rng) for p in probs]

    def fill(self, cells: list[list[int]]) -> list[int]:
        """Score every pair the cells pick that is not in the table yet, in
        one ``feasible_dispatch`` batch.  Returns, per cell, how many pairs
        it picked first that were projected."""
        first: dict[tuple[int, int], int] = {}
        for cell, picks in enumerate(cells):
            for i, k in enumerate(picks):
                if (i, k) not in self._picks:
                    first.setdefault((i, k), cell)
        thetas = self.batch.thetas[[i for i, _ in first]]
        xs = [self.atlas.region(k).solution(theta) for (_, k), theta in zip(first, thetas)]
        dispatches, projected = feasible_dispatch(xs, self.plp, thetas)
        projections = [0] * len(cells)
        for ((i, k), cell), x, infeasible in zip(first.items(), dispatches, projected.tolist()):
            projections[cell] += infeasible
            x_star, j_star = self.x_star[i], self.j_star[i]
            # relative gap; absolute when the optimal cost is essentially zero
            gap = (float(self.plp.c @ x) - j_star) / (abs(j_star) if abs(j_star) > 1e-9 else 1.0)
            self._picks[(i, k)] = (np.abs(x[self.tracked] - x_star[self.tracked]), gap, infeasible)
        return projections

    def score(
        self, model, picks: list[int], gamma: float, beta: float, projections: int
    ) -> MetricsReport:
        """The report of one cell whose ``picks`` are filled; ``projections``
        is the count of projection LPs its pairs ran."""
        abs_err = np.zeros(len(self.tracked))
        gap_sum = 0.0
        infeasible = 0
        correct = 0
        for i, (k_pick, k_star) in enumerate(zip(picks, self.k_stars)):
            correct += k_pick == k_star
            err, gap, projected = self._picks[(i, k_pick)]
            infeasible += projected
            abs_err += err
            gap_sum += gap
        n = self.batch.count
        per_var = {name: float(e / n) for name, e in zip(self.names, abs_err)}
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
            counters={"infeasible_picks": infeasible, "projection_lps": projections},
        )


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
    table = _DispatchTable(atlas, plp, batch)
    picks = table.draw(model, model.base_scores(batch.thetas), gamma, beta, rng)
    (projections,) = table.fill([picks])
    return table.score(model, picks, gamma, beta, projections)


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
    share one dispatch table, so each (scenario, region) pair is
    projected at most once per sweep, and the model's base scores, so the
    circuit runs once per sweep.  Every cell is drawn first, the table is
    filled in one batch, then the cells are scored in order."""
    gamma_grid, beta_grid = list(gamma_grid), list(beta_grid)
    check_noise_and_temperature(gamma_grid, beta_grid)
    table = _DispatchTable(atlas, plp, batch)
    base = model.base_scores(batch.thetas)
    cells = [(gamma, beta) for gamma in gamma_grid for beta in beta_grid]
    picks = [table.draw(model, base, gamma, beta, np.random.default_rng(batch.seed))
             for gamma, beta in cells]
    projections = table.fill(picks)
    return [table.score(model, p, gamma, beta, lps)
            for (gamma, beta), p, lps in zip(cells, picks, projections)]


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
