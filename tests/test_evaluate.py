import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from qpopf import lp as lp_mod
from qpopf.circuit import CircuitConfig
from qpopf.classifier import (
    MlpBaseline,
    OracleClassifier,
    TrainConfig,
    VqcModel,
    load_model,
    sample_region,
    softmax_probs,
    train_mlp,
    train_vqc,
)
from qpopf.evaluate import (
    ScenarioBatch,
    circuit_depth,
    evaluate,
    measure_runtimes,
    runtime_model,
    sweep,
)
from qpopf.lp import project_feasible
from qpopf.regions import (
    RegionAtlas,
    UncoveredThetaError,
    enumerate_regions,
    locate_batch,
    locate_region,
    sample_labeled_dataset,
)

BOX1 = np.array([[-1.0, 1.0]])
# committed benchmark inputs: the ieee69 atlas (budget 3000, seed 11) and checkpoints
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
# the benchmark's full sweep: 6 gamma x 5 beta cells over 40 scenarios at seed 0
FULL_GAMMAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
FULL_BETAS = [0.5, 1.0, 2.0, 4.0, 1000.0]
# the package namespace binds the name to the function
evaluate_mod = importlib.import_module("qpopf.evaluate")
lp_mod = importlib.import_module("qpopf.lp")
classifier_mod = importlib.import_module("qpopf.classifier")


@pytest.fixture(scope="module")
def toy_model(toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    config = CircuitConfig.default(n_q=2, L=2, m=1)
    model, _ = train_vqc((thetas, labels), config, TrainConfig(epochs=30, seed=3))
    return model


def test_batch_sampling_in_box():
    batch = ScenarioBatch.sample(BOX1, 500, seed=3)
    assert batch.count == 500
    batch.validate_in(BOX1)
    with pytest.raises(ValueError, match="outside"):
        ScenarioBatch(thetas=np.array([[2.0]]), seed=0).validate_in(BOX1)


def test_oracle_evaluation_is_exact(toy_atlas, toy_plp):
    batch = ScenarioBatch.sample(BOX1, 300, seed=5)
    report = evaluate(
        OracleClassifier(toy_atlas), toy_atlas, toy_plp, batch,
        gamma=0.0, beta=1.0, rng=np.random.default_rng(1),
    )
    assert report.mae == 0.0
    assert report.cost_gap == 0.0
    assert report.infeasibility_rate == 0.0
    assert report.stochastic_accuracy == 1.0
    assert report.sample_count == 300


def test_hash_mismatch_rejected(toy_atlas, toy_plp):
    import dataclasses

    other = dataclasses.replace(toy_plp, c=toy_plp.c * 2.0)
    batch = ScenarioBatch.sample(BOX1, 10, seed=5)
    with pytest.raises(ValueError, match="hash"):
        evaluate(
            OracleClassifier(toy_atlas), toy_atlas, other, batch,
            gamma=0.0, beta=1.0, rng=np.random.default_rng(1),
        )


def test_infeasible_implies_misclassified(toy_model, toy_atlas, toy_plp):
    batch = ScenarioBatch.sample(BOX1, 400, seed=9)
    report = evaluate(
        toy_model, toy_atlas, toy_plp, batch,
        gamma=0.0, beta=1e6, rng=np.random.default_rng(2),
    )
    assert report.infeasibility_rate <= 1.0 - report.stochastic_accuracy + 1e-12


def test_beta_zero_limit_uniform_accuracy(toy_model, toy_atlas, toy_plp):
    batch = ScenarioBatch.sample(BOX1, 2000, seed=11)
    report = evaluate(
        toy_model, toy_atlas, toy_plp, batch,
        gamma=0.0, beta=1e-9, rng=np.random.default_rng(3),
    )
    sigma = np.sqrt(0.5 * 0.5 / batch.count)
    assert abs(report.stochastic_accuracy - 1 / toy_atlas.K) <= 5 * sigma


def test_sweep_shape_and_gamma_invariance(toy_model, toy_atlas, toy_plp):
    batch = ScenarioBatch.sample(BOX1, 500, seed=13)
    reports = sweep(
        toy_model, toy_atlas, toy_plp,
        gamma_grid=[0.0, 0.2, 0.4], beta_grid=[1e3, 1e6], batch=batch,
    )
    assert len(reports) == 6
    # bias-free head: at high beta the metrics are gamma-invariant
    for beta in (1e3, 1e6):
        vals = [r for r in reports if r.beta == beta]
        base = vals[0]
        n = batch.count
        tol = 3 * np.sqrt(0.5 / n) + 1e-12
        for r in vals[1:]:
            assert abs(r.infeasibility_rate - base.infeasibility_rate) <= tol
            assert abs(r.stochastic_accuracy - base.stochastic_accuracy) <= tol
            assert abs(r.cost_gap - base.cost_gap) <= max(1e-3, 3 * abs(base.cost_gap))


def test_cost_gap_nonnegative_for_feasible_reconstructions(toy_atlas, toy_plp):
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(-1, 1, 1)
        from qpopf.regions import locate_region

        k_star = locate_region(toy_atlas, theta)
        x_star = toy_atlas.region(k_star).solution(theta)
        for region in toy_atlas.regions:
            x = region.solution(theta)
            rhs = toy_plp.rhs(theta)
            if np.max(toy_plp.W @ x - rhs) > 1e-4:
                x = project_feasible(x, toy_plp, theta)
            assert float(toy_plp.c @ (x - x_star)) >= -1e-9


def test_runtime_model_values():
    assert circuit_depth(5, 6) == 37
    assert runtime_model(5, 6) == 1.37
    assert circuit_depth(5, 0) == 1
    assert runtime_model(5, 0) == 1.01
    for L in (1, 2, 5):
        assert circuit_depth(5, 2 * L) - circuit_depth(5, L) == L * 6


def test_the_lp_solver_row_times_simplex_solves(toy_plp, toy_atlas, monkeypatch):
    """Every timed call of the baseline row runs one cold ``linprog``; no kept
    vertex is tried, as ``solve_lp`` would do."""
    cold, certified = [], []
    solve, certify = lp_mod.linprog, lp_mod._certified

    def recording_solve(c, A, b, csc=None):
        cold.append(b.copy())
        return solve(c, A, b, csc=csc)

    def recording_certify(*args):
        certified.append(args)
        return certify(*args)

    monkeypatch.setattr(lp_mod, "linprog", recording_solve)
    monkeypatch.setattr(lp_mod, "_certified", recording_certify)
    monkeypatch.setattr(evaluate_mod, "_TIMING_REPEATS", 7)
    monkeypatch.setattr(evaluate_mod, "_TIMING_SEED", 1)
    plp = dataclasses.replace(toy_plp)
    measure_runtimes(plp, toy_atlas)
    assert len(cold) == 7 and not certified
    # the points it timed have kept a vertex, so solve_lp would answer some of them
    assert lp_mod._kept(plp).vertices


def test_measure_runtimes_rows(toy_plp, toy_atlas, monkeypatch):
    monkeypatch.setattr(evaluate_mod, "_TIMING_REPEATS", 5)
    monkeypatch.setattr(evaluate_mod, "_TIMING_SEED", 1)
    rows = measure_runtimes(toy_plp, toy_atlas)
    methods = [r["method"] for r in rows]
    assert methods[0] == "lp_solver"
    assert "constraint_check_affine" in methods
    lp_row = rows[0]
    assert lp_row["speedup"] == 1.0
    for r in rows[1:]:
        assert r["speedup"] == pytest.approx(lp_row["runtime_us"] / r["runtime_us"])


def evaluation_law(model, thetas, gamma, beta, rng):
    """Each model's released law computed from its inputs in one go, as a
    single evaluation did before base scores were shared across cells."""
    if isinstance(model, VqcModel):
        return model.probability_matrix(thetas, gamma, beta)
    if isinstance(model, MlpBaseline):
        s = model.base_scores(thetas)
        if model.sigma > 0.0:
            s = s + model.sigma * rng.standard_normal(s.shape)
        return softmax_probs(s, beta)
    return np.eye(model.K)[[locate_region(model.atlas, t) - 1 for t in thetas]]


def evaluate_point_by_point(model, atlas, plp, batch, gamma, beta, rng, feas_tol=1e-4):
    """The scalar evaluation loop: each scenario located on its own, and
    every pick reconstructed, checked and projected anew."""
    tracked = evaluate_mod._tracked_indices(plp)
    names = [plp.var_names[i] for i in tracked] if plp.var_names else [f"x{i}" for i in tracked]
    probs = evaluation_law(model, batch.thetas, gamma, beta, rng)
    abs_err, gap_sum, infeasible, correct = np.zeros(len(tracked)), 0.0, 0, 0
    for theta, p in zip(batch.thetas, probs):
        k_star = locate_region(atlas, theta)
        k_pick = sample_region(p, rng)
        correct += k_pick == k_star
        x_star = atlas.region(k_star).solution(theta)
        x = atlas.region(k_pick).solution(theta)
        if float(np.max(plp.W @ x - plp.rhs(theta), initial=0.0)) > feas_tol:
            infeasible += 1
            x = project_feasible(x, plp, theta)
        abs_err += np.abs(x[tracked] - x_star[tracked])
        j_star = float(plp.c @ x_star)
        gap_sum += (float(plp.c @ x) - j_star) / (abs(j_star) if abs(j_star) > 1e-9 else 1.0)
    n = batch.count
    return {
        "per_variable_mae": {name: float(e / n) for name, e in zip(names, abs_err)},
        "mae": float(np.mean(abs_err / n)),
        "cost_gap": gap_sum / n,
        "infeasibility_rate": infeasible / n,
        "stochastic_accuracy": correct / n,
    }


def outputs(report):
    return {key: getattr(report, key) for key in
            ("per_variable_mae", "mae", "cost_gap", "infeasibility_rate", "stochastic_accuracy")}


@pytest.mark.parametrize("gamma,beta", [(0.0, 1e6), (0.2, 1.0), (0.5, 1e-9)])
def test_batched_location_keeps_every_output(toy_model, toy_atlas, toy_plp, gamma, beta):
    batch = ScenarioBatch.sample(BOX1, 300, seed=29)
    report = evaluate(toy_model, toy_atlas, toy_plp, batch, gamma, beta,
                      rng=np.random.default_rng(4))
    assert outputs(report) == evaluate_point_by_point(
        toy_model, toy_atlas, toy_plp, batch, gamma, beta, np.random.default_rng(4))
    assert report.infeasibility_rate > 0 or gamma == 0.0


@pytest.fixture(scope="module")
def one_region_atlas69(plp69):
    atlas = enumerate_regions(plp69, sampling_budget=1, seed=11)
    assert 0.0 < atlas.coverage < 1.0
    return atlas


def test_uncovered_scenarios_raise_before_any_sampling(one_region_atlas69, plp69, monkeypatch):
    atlas = one_region_atlas69
    batch = ScenarioBatch.sample(plp69.theta_box, 200, seed=4)
    missed = np.flatnonzero(locate_batch(atlas, batch.thetas) == 0)
    assert 0 < missed.size < batch.count
    message = f"{missed.size} of 200 points are not covered .* the first is point {missed[0]},"

    class Untouchable(OracleClassifier):
        def base_scores(self, *args, **kwargs):
            raise AssertionError("sampled before the coverage check")

    def no_projection(*args):
        raise AssertionError("projected before the coverage check")

    monkeypatch.setattr(lp_mod, "project_feasible", no_projection)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(UncoveredThetaError, match=message):
        evaluate(Untouchable(atlas), atlas, plp69, batch, 0.0, 1.0, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(UncoveredThetaError, match=message):
        sweep(Untouchable(atlas), atlas, plp69, [0.0, 0.5], [1.0, 4.0], batch)


def sweep_per_cell(model, atlas, plp, gammas, betas, batch):
    """The sweep as a loop of independent evaluations, each from a fresh rng."""
    return [
        evaluate_point_by_point(model, atlas, plp, batch, g, b, np.random.default_rng(batch.seed))
        for g in gammas
        for b in betas
    ]


@pytest.fixture(scope="module")
def committed69(plp69):
    atlas = RegionAtlas.load(FIXTURES / "atlas.json")
    assert atlas.plp_hash == plp69.hash_hex()
    vqc, _ = load_model(FIXTURES / "vqc.json")
    mlp, _ = load_model(FIXTURES / "mlp.json")
    return atlas, {"vqc": vqc, "mlp": dataclasses.replace(mlp, sigma=0.5),
                   "oracle": OracleClassifier(atlas)}


@pytest.fixture(scope="module")
def toy_models(toy_model, toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    mlp, _ = train_mlp((thetas, labels), TrainConfig(epochs=10, seed=3), K=toy_atlas.K)
    return {"vqc": toy_model, "mlp": dataclasses.replace(mlp, sigma=0.5),
            "oracle": OracleClassifier(toy_atlas)}


@pytest.mark.parametrize("kind", ["vqc", "mlp", "oracle"])
def test_sweep_matches_per_cell_evaluation_toy(kind, toy_models, toy_atlas, toy_plp):
    batch = ScenarioBatch.sample(BOX1, 200, seed=31)
    gammas, betas = [0.0, 0.3, 0.7], [1e-9, 0.5, 4.0, 1e3]
    model = toy_models[kind]
    reports = sweep(model, toy_atlas, toy_plp, gammas, betas, batch)
    expected = sweep_per_cell(model, toy_atlas, toy_plp, gammas, betas, batch)
    assert [outputs(r) for r in reports] == expected
    picks = sum(r.counters["infeasible_picks"] for r in reports)
    assert picks == sum(round(e["infeasibility_rate"] * batch.count) for e in expected)
    assert sum(r.counters["projection_lps"] for r in reports) <= picks
    assert picks > 0 or kind == "oracle"


@pytest.mark.parametrize("kind", ["vqc", "mlp", "oracle"])
def test_sweep_matches_per_cell_evaluation_ieee69(kind, committed69, plp69):
    atlas, models = committed69
    batch = ScenarioBatch.sample(plp69.theta_box, 30, seed=0)
    gammas, betas = [0.0, 0.4], [0.5, 4.0]
    reports = sweep(models[kind], atlas, plp69, gammas, betas, batch)
    expected = sweep_per_cell(models[kind], atlas, plp69, gammas, betas, batch)
    assert [outputs(r) for r in reports] == expected
    assert any(e["infeasibility_rate"] > 0 for e in expected) or kind == "oracle"


def test_full_sweep_law_is_bitwise_the_per_cell_law(committed69, plp69):
    atlas, models = committed69
    batch = ScenarioBatch.sample(plp69.theta_box, 40, seed=0)
    for kind, model in models.items():
        base = model.base_scores(batch.thetas)
        for gamma in FULL_GAMMAS:
            for beta in FULL_BETAS:
                rng, rng2 = np.random.default_rng(3), np.random.default_rng(3)
                np.testing.assert_array_equal(
                    model.probabilities_from_base(base, gamma, beta, rng),
                    evaluation_law(model, batch.thetas, gamma, beta, rng2), err_msg=kind)
                assert rng.bit_generator.state == rng2.bit_generator.state


@pytest.mark.parametrize("kind", ["vqc", "mlp", "oracle"])
def test_sweep_computes_the_base_scores_once(kind, committed69, plp69, monkeypatch):
    atlas, models = committed69
    model = models[kind]
    calls = []

    def counted(thetas):
        calls.append(len(thetas))
        return type(model).base_scores(model, thetas)

    monkeypatch.setattr(model, "base_scores", counted)
    forwards = []
    run_circuit_batch = classifier_mod.run_circuit_batch

    def counted_forward(config, params, thetas):
        forwards.append(len(thetas))
        return run_circuit_batch(config, params, thetas)

    monkeypatch.setattr(classifier_mod, "run_circuit_batch", counted_forward)
    batch = ScenarioBatch.sample(plp69.theta_box, 40, seed=0)
    reports = sweep(model, atlas, plp69, FULL_GAMMAS, FULL_BETAS, batch)
    assert len(reports) == 30
    assert calls == [40]
    assert forwards == ([40] if kind == "vqc" else [])


def test_evaluate_matches_the_scalar_loop_ieee69(committed69, plp69):
    atlas, models = committed69
    batch = ScenarioBatch.sample(plp69.theta_box, 200, seed=0)
    report = evaluate(models["mlp"], atlas, plp69, batch, 0.1, 4.0, np.random.default_rng(0))
    expected = evaluate_point_by_point(models["mlp"], atlas, plp69, batch, 0.1, 4.0,
                                       np.random.default_rng(0))
    assert outputs(report) == expected
    infeasible = round(expected["infeasibility_rate"] * batch.count)
    # within one evaluation no (scenario, region) pair is drawn twice
    assert report.counters == {"infeasible_picks": infeasible, "projection_lps": infeasible}
    assert "counters" not in report.to_dict()


def test_full_sweep_projects_each_infeasible_pick_once(committed69, plp69, monkeypatch):
    """On the caller alone and beside one or two projection workers, the
    sweep's reports are equal, each is the cell's own ``evaluate`` (run on
    the caller alone), and each cell counts the pairs it projected first."""
    atlas, models = committed69
    vqc = models["vqc"]
    batch = ScenarioBatch.sample(plp69.theta_box, 40, seed=0)
    monkeypatch.setattr(lp_mod, "_workers", lambda: 0)
    cells = [evaluate(vqc, atlas, plp69, batch, gamma, beta, np.random.default_rng(batch.seed))
             for gamma in FULL_GAMMAS for beta in FULL_BETAS]

    # the infeasible picks, drawn as the sweep draws them, and the pairs each cell projects first
    counters, distinct = [], set()
    for gamma in FULL_GAMMAS:
        for beta in FULL_BETAS:
            rng = np.random.default_rng(batch.seed)
            probs = evaluation_law(vqc, batch.thetas, gamma, beta, rng)
            counters.append({"infeasible_picks": 0, "projection_lps": 0})
            for i, (theta, p) in enumerate(zip(batch.thetas, probs)):
                k = sample_region(p, rng)
                x = atlas.region(k).solution(theta)
                if np.max(plp69.W @ x - plp69.rhs(theta)) > evaluate_mod.FEASIBILITY_THRESHOLD:
                    counters[-1]["infeasible_picks"] += 1
                    counters[-1]["projection_lps"] += (i, k) not in distinct
                    distinct.add((i, k))
    infeasible_picks = sum(c["infeasible_picks"] for c in counters)
    assert (infeasible_picks, len(distinct)) == (99, 29)
    for report, cell in zip(cells, counters):
        assert report.counters == {"infeasible_picks": cell["infeasible_picks"],
                                   "projection_lps": cell["infeasible_picks"]}

    def counted(x, plp, theta):
        calls.append((x.tobytes(), np.asarray(theta).tobytes()))
        return project_feasible(x, plp, theta)

    monkeypatch.setattr(lp_mod, "project_feasible", counted)
    sweeps = []
    for workers in (0, 1, 2):
        monkeypatch.setattr(lp_mod, "_workers", lambda: workers)
        calls = []
        reports = sweep(vqc, atlas, plp69, FULL_GAMMAS, FULL_BETAS, batch)
        assert len(calls) == len(set(calls)) == len(distinct)
        assert [r.counters for r in reports] == counters
        assert [dataclasses.replace(r, counters=c.counters) for r, c in zip(reports, cells)] == cells
        sweeps.append(reports)
    assert sweeps[0] == sweeps[1] == sweeps[2]


BAD_NOISE = [(1.5, 1.0, "gamma .* 1.5"), (-0.1, 1.0, "gamma .* -0.1"), (np.nan, 1.0, "gamma .* nan"),
             (0.0, -2.0, "beta .* -2.0"), (0.0, 0.0, "beta .* 0.0"), (0.0, np.inf, "beta .* inf"),
             (0.0, np.nan, "beta .* nan")]


@pytest.mark.parametrize("gamma,beta,match", BAD_NOISE)
def test_bad_noise_or_temperature_is_rejected_before_any_work(
        gamma, beta, match, toy_atlas, toy_plp, monkeypatch):
    class Untouchable(OracleClassifier):
        def base_scores(self, *args, **kwargs):
            raise AssertionError("sampled before the parameter check")

    def no_location(*args):
        raise AssertionError("located before the parameter check")

    monkeypatch.setattr(evaluate_mod, "locate_covered", no_location)
    model = Untouchable(toy_atlas)
    batch = ScenarioBatch.sample(BOX1, 10, seed=5)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        evaluate(model, toy_atlas, toy_plp, batch, gamma, beta, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=match):
        sweep(model, toy_atlas, toy_plp, [0.0, gamma], [1.0, beta], batch)

