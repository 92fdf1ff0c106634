import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from qpopf import privacy
from qpopf.circuit import CircuitConfig, run_circuit_batch
from qpopf.classifier import (
    MlpBaseline,
    OracleClassifier,
    TrainConfig,
    VqcModel,
    inf1_norm,
    load_model,
    margin_from_logits,
    softmax_probs,
    train_mlp,
    train_vqc,
)
from qpopf.privacy import (
    AdjacencySpec,
    audit_mechanism,
    audit_vqc_grid,
    calibrate_sigma,
    cost_tradeoff_formula,
    draw_adjacent_pairs,
    encoding_lipschitz,
    epsilon_bound,
    epsilon_percentile,
    theoretical_epsilon,
    tradeoff_bound,
)
from qpopf.regions import (
    RegionAtlas,
    enumerate_regions,
    locate_batch,
    locate_region,
    sample_labeled_dataset,
)


class StubModel:
    model_id = "stub"

    def __init__(self, table):
        self.table = table  # maps theta tuple -> probability vector

    def probability_matrix(self, thetas, gamma, beta):
        return np.array([self.table[tuple(t)] for t in np.atleast_2d(thetas)], dtype=float)


def empirical_epsilon(p, p2) -> float:
    """The per-pair budget of one pair of laws."""
    return float(privacy.pair_epsilons(np.array([p]), np.array([p2]))[0][0])


def test_empirical_epsilon_identical_inputs():
    assert empirical_epsilon([0.4, 0.6], [0.4, 0.6]) == 0.0


def test_empirical_epsilon_closed_form():
    eps = empirical_epsilon([0.9, 0.1], [0.8, 0.2])
    assert eps == pytest.approx(np.log(2.0), abs=1e-12)


def test_empirical_epsilon_zero_probability_sentinel():
    assert empirical_epsilon([1.0, 0.0], [0.8, 0.2]) == np.inf
    assert empirical_epsilon([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_epsilon_percentile_examples():
    assert epsilon_percentile([0.7] * 20) == pytest.approx(0.7)
    assert epsilon_percentile(np.arange(1.0, 101.0)) == pytest.approx(95.05)
    vals = list(np.arange(1.0, 101.0)) + [np.inf, np.inf]
    assert epsilon_percentile(vals) == pytest.approx(95.05)


def test_adjacent_pairs_exact_distance():
    spec = AdjacencySpec(delta_theta=0.05, pair_count=200, seed=4)
    thetas, mates = draw_adjacent_pairs(spec, 3)
    d = np.linalg.norm(thetas - mates, axis=1)
    np.testing.assert_allclose(d, 0.05, atol=1e-12)
    assert np.all(np.abs(mates) <= 1.0)
    t2, m2 = draw_adjacent_pairs(spec, 3)
    np.testing.assert_array_equal(thetas, t2)
    np.testing.assert_array_equal(mates, m2)


def test_adjacent_pairs_reject_delta_beyond_box():
    # delta 4 exceeds the diameter 2 sqrt(3) of [-1, 1]^3: no pair exists,
    # so the draw must fail before any redraw
    with pytest.raises(ValueError, match="diameter"):
        draw_adjacent_pairs(AdjacencySpec(delta_theta=4.0, pair_count=10), 3)
    with pytest.raises(ValueError, match="diameter"):
        draw_adjacent_pairs(AdjacencySpec(delta_theta=2.0), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_adjacency_rejects_a_bad_delta_at_construction(bad):
    # a non-finite delta would otherwise exhaust the redraw budget of every pair
    with pytest.raises(ValueError, match=f"delta_theta must be finite and > 0, got {bad}"):
        AdjacencySpec(delta_theta=bad)


def test_adjacent_pairs_bounded_redraws(monkeypatch):
    # delta 3.4 fits the box, but almost no draw keeps its mate inside
    monkeypatch.setattr(privacy, "_MAX_PAIR_TRIES", 50)
    with pytest.raises(ValueError, match="in 50 tries"):
        draw_adjacent_pairs(AdjacencySpec(delta_theta=3.4, pair_count=1), 3)


def test_encoding_lipschitz_instantiations():
    one = CircuitConfig.default(n_q=1, L=1, m=1)
    assert encoding_lipschitz(one) == pytest.approx(np.pi / 2)
    five = CircuitConfig.default(n_q=5, L=6, m=3)
    assert encoding_lipschitz(five) == pytest.approx(6 * (np.pi / 2) * np.sqrt(5))


def encoding_lipschitz_empirical(
    config: CircuitConfig,
    phi,
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
    psi = run_circuit_batch(config, phi, thetas[keep])
    psi2 = run_circuit_batch(config, phi, mates[keep])
    overlap = np.abs(np.einsum("ij,ij->i", psi.conj(), psi2)) ** 2
    tr = np.sqrt(np.maximum(0.0, 1.0 - overlap))
    return float(np.max(tr / dists[keep]))


def test_encoding_lipschitz_empirical_below_analytic():
    rng = np.random.default_rng(5)
    for config in (
        CircuitConfig.default(n_q=3, L=4, m=3),
        CircuitConfig.default(n_q=5, L=6, m=3),
    ):
        phi = rng.uniform(-np.pi, np.pi, size=config.param_shape)
        est = encoding_lipschitz_empirical(config, phi, n_pairs=10_000, seed=9)
        assert est <= encoding_lipschitz(config)


def test_theoretical_epsilon_arithmetic():
    W = np.array([[1.0, -1.0], [0.5, 0.25]])  # max row L1 = 2
    assert theoretical_epsilon(1.0, 0.5, 1.0, 0.05, W) == pytest.approx(0.2)
    assert theoretical_epsilon(1.0, 1.0, 1.0, 0.05, W) == 0.0
    assert theoretical_epsilon(2.0, 0.5, 1.0, 0.05, W) == pytest.approx(0.4)
    # linear in beta: the beta that meets a target budget is target / eps(beta = 1)
    for eps in (0.1, 1.0, 5.0):
        for gamma in (0.0, 0.3, 0.6):
            beta = eps / theoretical_epsilon(1.0, gamma, 2.0, 0.05, W)
            assert theoretical_epsilon(beta, gamma, 2.0, 0.05, W) == pytest.approx(
                eps, abs=1e-12
            )
    # a noise-aware user may take a 1 / (1 - gamma) larger beta
    aware = 1.0 / theoretical_epsilon(1.0, 0.4, 2.0, 0.05, W)
    unaware = 1.0 / theoretical_epsilon(1.0, 0.0, 2.0, 0.05, W)
    assert aware / unaware == pytest.approx(1.0 / 0.6)
    # a noise-unaware user's beta spends eps (1 - gamma) of a target eps: eps gamma is wasted
    for gamma in np.linspace(0, 1, 11):
        spent = theoretical_epsilon(3.0 * unaware, gamma, 2.0, 0.05, W)
        assert 3.0 - spent == pytest.approx(3.0 * gamma, abs=1e-12)


def test_cost_tradeoff_formula_arithmetic():
    assert cost_tradeoff_formula(10.0, 2, 1.0, 2.0) == pytest.approx(
        10.0 * np.exp(-2.0), abs=1e-12
    )
    assert cost_tradeoff_formula(5.0, 7, 1e6, 0.5) == pytest.approx(0.0, abs=1e-200)


@pytest.fixture(scope="module")
def toy_model(toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    config = CircuitConfig.default(n_q=2, L=2, m=1)
    model, _ = train_vqc((thetas, labels), config, TrainConfig(epochs=30, seed=3))
    return model


def test_vqc_mechanism_bound_holds_on_grid(toy_model, toy_atlas):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=300, seed=13)
    rows = audit_vqc_grid(
        toy_model, gammas=[0.0, 0.25, 0.5], betas=[0.5, 1.0, 5.0], adjacency=adjacency,
        atlas=toy_atlas,
    )
    for row in rows:
        assert row["eps_max"] <= row["eps_reg"] + 1e-12
        assert row["bound_satisfied"] is True


def test_audit_mechanism_matches_grid_row(toy_model, toy_atlas, toy_plp, committed, plp69):
    """Each grid cell reports bitwise the single audit's numbers on the same pairs,
    drawn in the LP's theta dimension as ``qpopf audit`` draws them."""
    gammas, betas = [0.0, 0.2, 0.5], [1.0, 2.0, 100.0]
    atlas, vqc, _ = committed
    # two qubits encode theta components 0 and 1 only, of the three
    config = CircuitConfig.default(n_q=2, L=2, m=plp69.m)
    assert max(config.encoding_pattern) + 1 < plp69.m
    rng = np.random.default_rng(5)
    short = VqcModel(config, rng.uniform(-np.pi, np.pi, size=config.param_shape),
                     W=rng.normal(size=(atlas.K, 2)))
    for model, plp, model_atlas, adjacency in (
        (toy_model, toy_plp, toy_atlas, AdjacencySpec(delta_theta=0.05, pair_count=64, seed=17)),
        (vqc, plp69, atlas, AdjacencySpec(delta_theta=0.05, pair_count=100)),
        (short, plp69, atlas, AdjacencySpec(delta_theta=0.05, pair_count=100)),
    ):
        pairs = draw_adjacent_pairs(adjacency, plp.m)
        rows = iter(audit_vqc_grid(model, gammas, betas, adjacency, model_atlas))
        for gamma in gammas:
            for beta in betas:
                row = next(rows)
                eps_reg = epsilon_bound(model, gamma, beta, 0.05)
                report = audit_mechanism(model, gamma, beta, pairs, eps_reg=eps_reg,
                                         delta_theta=0.05)
                assert (row["gamma"], row["beta"], row["eps_reg"]) == (gamma, beta, eps_reg)
                assert row["eps95"] == report.eps95
                assert row["eps_max"] == np.max(report.eps_emp)
                assert row["bound_satisfied"] is report.to_dict()["bound_satisfied"]
                assert 1 <= report.worst_class <= model.K
                if beta <= 2.0:
                    assert report.saturated_count == 0 and row["bound_satisfied"] is True


def test_grid_audit_saturates_like_the_single_audit(committed):
    """A one-sided zero probability is eps = inf in the grid too, so the bound fails."""
    vqc = committed[1]
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=100, seed=0)
    [row] = audit_vqc_grid(vqc, [0.0], [100.0], adjacency, committed[0])
    report = audit_mechanism(vqc, 0.0, 100.0, draw_adjacent_pairs(adjacency, 3),
                             eps_reg=epsilon_bound(vqc, 0.0, 100.0, 0.05))
    assert report.saturated_count == 21
    assert report.to_dict()["bound_satisfied"] is False
    assert row["eps_max"] == np.inf and row["bound_satisfied"] is False
    assert row["eps95"] == report.eps95 == epsilon_percentile(report.eps_emp)
    assert np.isfinite(row["eps95"]) and row["eps95"] < row["eps_reg"]


def test_gamma_one_kills_epsilon(toy_model):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=32, seed=19)
    pairs = draw_adjacent_pairs(adjacency, 1)
    report = audit_mechanism(
        toy_model, 1.0, 3.0, pairs, eps_reg=epsilon_bound(toy_model, 1.0, 3.0, 0.05)
    )
    assert report.eps95 == 0.0
    assert report.eps_reg == 0.0


def test_eps95_monotone_in_gamma_and_beta(toy_model, toy_atlas):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=500, seed=23)
    gammas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    betas = list(np.geomspace(0.1, 10.0, 8))
    rows = audit_vqc_grid(toy_model, gammas, betas, adjacency, toy_atlas)
    grid = {(round(r["gamma"], 3), round(r["beta"], 3)): r["eps95"] for r in rows}
    for bi, beta in enumerate(betas):
        for gi in range(len(gammas) - 1):
            hi = grid[(round(gammas[gi], 3), round(beta, 3))]
            lo = grid[(round(gammas[gi + 1], 3), round(beta, 3))]
            assert lo <= hi + 1e-12
    for gamma in gammas:
        for bi in range(len(betas) - 1):
            lo = grid[(round(gamma, 3), round(betas[bi], 3))]
            hi = grid[(round(gamma, 3), round(betas[bi + 1], 3))]
            assert lo <= hi + 1e-12


def test_mlp_averaged_mechanism_deterministic(toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    from qpopf.classifier import train_mlp

    mlp, _ = train_mlp((thetas, labels), TrainConfig(epochs=10, seed=3))
    noisy = dataclasses.replace(mlp, sigma=0.7)
    p1 = noisy.probability_matrix(np.array([[0.2], [-0.4]]), None, 1.0, n_draws=500, seed=5)
    p2 = noisy.probability_matrix(np.array([[0.2], [-0.4]]), None, 1.0, n_draws=500, seed=5)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_allclose(p1.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_oracle_mechanism_is_one_hot(toy_atlas):
    p = OracleClassifier(toy_atlas).probability_matrix(np.array([[0.5]]), None, None)
    assert p.shape == (1, toy_atlas.K)
    assert sorted(p[0]) == [0.0, 1.0]


def test_mis_selection_bounds(toy_model, toy_atlas, toy_plp):
    rng = np.random.default_rng(31)
    for _ in range(200):
        theta = rng.uniform(-1, 1, 1)
        for gamma, beta in ((0.0, 1.0), (0.3, 2.0), (0.5, 0.5)):
            _, comp = tradeoff_bound(toy_model, toy_atlas, toy_plp, theta, gamma, beta)
            p_err = 1.0 - comp["probabilities"][comp["k_star"] - 1]
            assert 0.0 <= p_err <= 1.0
            assert p_err <= comp["mis_selection_bound"] + 1e-12


def test_tradeoff_bound_components(toy_model, toy_atlas, toy_plp):
    theta = np.array([0.6])
    bound, comp = tradeoff_bound(
        toy_model, toy_atlas, toy_plp, theta, gamma=0.2, beta=1.5, delta_theta=0.05
    )
    assert bound == cost_tradeoff_formula(
        comp["delta_j_max"], toy_atlas.K, 1.5, comp["margin"]
    )
    # bias-free head: margin contracts exactly, so the simplified form agrees
    assert comp["margin"] == pytest.approx(0.8 * comp["margin0"], abs=1e-12)
    assert comp["remark1_bound"] == pytest.approx(bound, abs=1e-12)
    assert comp["remark2_bound"] == pytest.approx(bound, abs=1e-12)
    assert comp["delta_j"][comp["k_star"] - 1] == 0.0


def test_tradeoff_bound_vanishes_at_large_beta(toy_model, toy_atlas, toy_plp):
    theta = np.array([0.6])
    bound, comp = tradeoff_bound(toy_model, toy_atlas, toy_plp, theta, 0.0, 1e6)
    assert comp["margin"] > 0
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_tradeoff_bound_is_zero_on_a_one_region_atlas(toy_plp):
    """With one region there is no rival to mis-select: the margin is +inf
    and every bound is 0."""
    atlas = enumerate_regions(toy_plp, sampling_budget=1, seed=0)
    assert atlas.K == 1
    thetas = np.linspace(-1.0, 1.0, 21)[:, None]
    theta = thetas[locate_batch(atlas, thetas) == 1][0]
    for gamma, beta in ((0.0, 1.0), (0.3, 4.0), (1.0, 1.0)):
        bound, comp = tradeoff_bound(OracleClassifier(atlas), atlas, toy_plp, theta, gamma, beta)
        assert bound == 0.0
        assert comp["margin"] == comp["margin0"] == np.inf
        assert comp["mis_selection_bound"] == comp["remark1_bound"] == 0.0


def test_expected_cost_gap_below_bound_toy(toy_model, toy_atlas, toy_plp):
    # Monte-Carlo expected cost increase against the analytic bound
    rng = np.random.default_rng(37)
    for _ in range(20):
        theta = rng.uniform(-1, 1, 1)
        bound, comp = tradeoff_bound(toy_model, toy_atlas, toy_plp, theta, 0.1, 1.0)
        if comp["margin"] <= 0:
            continue
        deltas = comp["delta_j"]
        draws = rng.choice(toy_atlas.K, size=5000, p=comp["probabilities"])
        samples = deltas[draws]
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert samples.mean() <= bound + 3 * se + 1e-12


@pytest.mark.parametrize("gamma,beta,match", [
    (1.5, 1.0, "gamma .* 1.5"), (np.nan, 1.0, "gamma .* nan"), (0.0, -2.0, "beta .* -2.0"),
    (0.0, 0.0, "beta .* 0.0"), (0.0, np.inf, "beta .* inf"),
])
def test_bad_noise_or_temperature_is_rejected_by_the_grid_audit(gamma, beta, match, toy_model,
                                                                toy_atlas):
    def no_scores(*args):
        raise AssertionError("ran the circuit before the parameter check")

    model = dataclasses.replace(toy_model)
    model.base_scores = no_scores
    with pytest.raises(ValueError, match=match):
        audit_vqc_grid(model, [0.2, gamma], [beta, 1.0], AdjacencySpec(pair_count=5), toy_atlas)


# -- the batched protocol against the per-row loop it replaced -----------------

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
classifier_mod = importlib.import_module("qpopf.classifier")


def row_law(model, theta, gamma, beta, n_draws=2000, seed=0):
    """The law one model released for one point before batching."""
    theta = np.asarray(theta, float)
    if isinstance(model, VqcModel):
        return model.probability_matrix(theta[None, :], gamma, beta)[0]
    if isinstance(model, MlpBaseline):
        s = model.base_scores(theta[None, :])[0]
        if model.sigma == 0.0:
            return softmax_probs(s, beta)
        rng = np.random.default_rng(seed)
        noise = model.sigma * rng.standard_normal((n_draws, s.shape[0]))
        return softmax_probs(s + noise, beta).mean(axis=0)
    if isinstance(model, OracleClassifier):
        p = np.zeros(model.atlas.K)
        p[locate_region(model.atlas, theta) - 1] = 1.0
        return p
    return model.probability_matrix(theta[None, :], gamma, beta)[0]


def epsilon_with_class(p, p2):
    zero, zero2 = p == 0.0, p2 == 0.0
    if np.any(zero ^ zero2):
        return float("inf"), int(np.flatnonzero(zero ^ zero2)[0]) + 1
    keep = ~(zero & zero2)
    if not np.any(keep):
        return 0.0, 1
    ratios = np.abs(
        np.log(np.maximum(p[keep], privacy.PROB_FLOOR))
        - np.log(np.maximum(p2[keep], privacy.PROB_FLOOR))
    )
    j = int(np.argmax(ratios))
    return float(ratios[j]), int(np.flatnonzero(keep)[j]) + 1


def audit_per_pair(model, gamma, beta, pairs, eps_reg=None, delta_theta=None, **draws):
    """The audit as a loop over pairs, two one-point laws each."""
    thetas, mates = pairs
    eps = np.empty(len(thetas))
    classes = np.empty(len(thetas), dtype=int)
    for i, (t, t2) in enumerate(zip(thetas, mates)):
        eps[i], classes[i] = epsilon_with_class(
            row_law(model, t, gamma, beta, **draws), row_law(model, t2, gamma, beta, **draws))
    finite = np.isfinite(eps)
    saturated = int(np.sum(~finite))
    worst = int(np.flatnonzero(~finite)[0]) if saturated else int(np.argmax(eps))
    return privacy.PrivacyReport(
        eps_emp=eps, eps95=epsilon_percentile(eps), eps_reg=eps_reg, worst_pair=worst,
        worst_class=int(classes[worst]), model_id=getattr(model, "model_id", "unknown"),
        gamma=gamma, beta=beta, delta_theta=delta_theta, saturated_count=saturated,
    ).to_dict()


def row_loop(model, thetas, gamma, beta, **draws):
    return np.array([row_law(model, t, gamma, beta, **draws) for t in thetas])


@pytest.fixture(scope="module")
def committed():
    atlas = RegionAtlas.load(FIXTURES / "atlas.json")
    vqc, _ = load_model(FIXTURES / "vqc.json")
    mlp, _ = load_model(FIXTURES / "mlp.json")
    return atlas, vqc, mlp


@pytest.fixture(scope="module")
def toy_mlp(toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    mlp, _ = train_mlp((thetas, labels), TrainConfig(epochs=10, seed=3), K=toy_atlas.K)
    return mlp


def stacked_pairs(m, seed, count=100):
    thetas, mates = draw_adjacent_pairs(AdjacencySpec(pair_count=count, seed=seed), m)
    return np.vstack([thetas, mates])


NOISE_AND_TEMPERATURE = [(0.0, 1.0), (0.3, 4.0), (0.5, 0.1), (1.0, 2.0)]


@pytest.mark.parametrize("kind", ["toy", "committed"])
def test_vqc_probabilities_match_the_row_loop(kind, toy_model, committed):
    model = toy_model if kind == "toy" else committed[1]
    m = max(model.config.encoding_pattern) + 1
    for seed in (0, 7, 41):
        thetas = stacked_pairs(m, seed, count=100 if kind == "toy" else 40)
        for gamma, beta in NOISE_AND_TEMPERATURE:
            np.testing.assert_array_equal(model.probability_matrix(thetas, gamma, beta),
                                          row_loop(model, thetas, gamma, beta))


@pytest.mark.parametrize("sigma,n_draws", [(0.0, 2000), (0.5, 200), (0.5, 2000), (2.5, 2000)])
@pytest.mark.parametrize("kind", ["toy", "committed"])
def test_mlp_probabilities_match_the_row_loop(kind, sigma, n_draws, toy_mlp, committed):
    mlp = dataclasses.replace(toy_mlp if kind == "toy" else committed[2], sigma=sigma)
    thetas = stacked_pairs(mlp.W1.shape[1], 7)
    if n_draws == 2000:  # the rows span several chunks of the averaged softmax
        assert len(thetas) > 2 * classifier_mod._AVERAGE_CHUNK // (n_draws * mlp.K)
    draws = {"n_draws": n_draws, "seed": 7926}
    np.testing.assert_array_equal(mlp.probability_matrix(thetas, None, 1.0, **draws),
                                  row_loop(mlp, thetas, None, 1.0, **draws))


def test_oracle_probabilities_match_the_row_loop(committed, toy_atlas):
    for atlas in (toy_atlas, committed[0]):
        oracle = OracleClassifier(atlas)
        thetas = stacked_pairs(atlas.theta_box.shape[0], 0)
        np.testing.assert_array_equal(oracle.probability_matrix(thetas, None, None),
                                      row_loop(oracle, thetas, None, None))


@pytest.mark.parametrize("n", [2, 32, 3000])
def test_base_scores_are_row_exact(n, committed):
    """Every batch of base scores is bitwise the stack of its one-row calls."""
    atlas, vqc, mlp = committed
    thetas = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 3))
    for model in (vqc, mlp, OracleClassifier(atlas)):
        rows = np.vstack([model.base_scores(t[None, :]) for t in thetas])
        np.testing.assert_array_equal(model.base_scores(thetas), rows, err_msg=model.model_id)


def test_oracle_mechanism_raises_on_an_uncovered_point(plp69):
    from qpopf.regions import UncoveredThetaError, enumerate_regions, locate_batch

    atlas = enumerate_regions(plp69, sampling_budget=1, seed=11)
    thetas = stacked_pairs(3, 0, count=50)
    assert np.any(locate_batch(atlas, thetas) == 0)
    with pytest.raises(UncoveredThetaError):
        OracleClassifier(atlas).probability_matrix(thetas, None, None)


@pytest.mark.parametrize("kind", ["vqc", "mlp", "mlp0", "oracle"])
def test_audit_matches_the_per_pair_loop(kind, committed):
    atlas, vqc, mlp = committed
    model, gamma, beta, draws = {
        "vqc": (vqc, 0.2, 4.0, {}),
        "mlp": (dataclasses.replace(mlp, sigma=0.5), None, 1.0, {"n_draws": 2000, "seed": 7919}),
        "mlp0": (dataclasses.replace(mlp, sigma=0.0), None, 1.0, {}),
        "oracle": (OracleClassifier(atlas), None, None, {}),
    }[kind]
    for seed in (0, 41):
        pairs = draw_adjacent_pairs(AdjacencySpec(delta_theta=0.05, pair_count=100, seed=seed), 3)
        eps_reg = epsilon_bound(vqc, gamma, beta, 0.05) if kind == "vqc" else None
        got = audit_mechanism(model, gamma, beta, pairs, eps_reg=eps_reg, delta_theta=0.05,
                              **draws).to_dict()
        assert got == audit_per_pair(model, gamma, beta, pairs, eps_reg=eps_reg,
                                     delta_theta=0.05, **draws)
    if kind == "oracle":
        assert got["saturated_count"] > 0


def test_audit_matches_the_per_pair_loop_on_zero_probabilities():
    stub = StubModel({
        (0.0,): [0.5, 0.5, 0.0, 0.0], (1.0,): [0.5, 0.25, 0.25, 0.0],  # one-sided zero at 3
        (2.0,): [0.0, 0.0, 0.0, 0.0], (3.0,): [0.0, 0.0, 0.0, 0.0],    # every class both zero
        (4.0,): [0.0, 0.9, 0.1, 0.0], (5.0,): [0.0, 0.8, 0.2, 0.0],    # both-zero classes skipped
        (6.0,): [0.25, 0.5, 0.25, 0.0], (7.0,): [0.5, 0.25, 0.25, 0.0],  # tie: first class wins
        (8.0,): [0.0, 1.0, 0.0, 0.0], (9.0,): [1.0, 0.0, 0.0, 0.0],    # two one-sided zeros
        (10.0,): [0.0, 0.5, 0.5, 0.0], (11.0,): [0.0, 0.5, 0.5, 0.0],  # 0 at the first informative class
    })
    thetas = np.array([[0.0], [2.0], [4.0], [6.0], [8.0], [10.0]])
    pairs = (thetas, thetas + 1.0)
    got = audit_mechanism(stub, None, None, pairs).to_dict()
    assert got == audit_per_pair(stub, None, None, pairs)
    eps = np.array(got["eps_emp"])
    assert eps[0] == np.inf and eps[1] == 0.0 and eps[4] == np.inf
    assert (got["worst_pair"], got["worst_class"], got["saturated_count"]) == (0, 3, 2)
    one_pair = [privacy.pair_epsilons(stub.probability_matrix(t, None, None),
                                      stub.probability_matrix(t + 1.0, None, None)) for t in thetas]
    assert [int(classes[0]) for _, classes in one_pair] == [3, 1, 3, 1, 1, 2]
    for (eps1, classes), t in zip(one_pair, thetas):
        assert (eps1[0], classes[0]) == epsilon_with_class(
            row_law(stub, t, None, None), row_law(stub, t + 1.0, None, None))


def test_audit_calls_each_mechanism_once(committed, monkeypatch):
    atlas, vqc, mlp = committed
    pairs = draw_adjacent_pairs(AdjacencySpec(pair_count=30, seed=3), 3)
    for model, gamma, beta, draws in ((vqc, 0.0, 1.0, {}),
                                      (dataclasses.replace(mlp, sigma=0.5), None, 1.0,
                                       {"n_draws": 200}),
                                      (OracleClassifier(atlas), None, None, {})):
        calls = []
        probability_matrix = model.probability_matrix

        def counted(thetas, *args, probability_matrix=probability_matrix, **kwargs):
            calls.append(len(thetas))
            return probability_matrix(thetas, *args, **kwargs)

        monkeypatch.setattr(model, "probability_matrix", counted)
        audit_mechanism(model, gamma, beta, pairs, **draws)
        assert calls == [60]


def calibrate_sigma_per_step(mlp, target_eps95, adjacency, beta, n_draws, rel_tol=0.05, max_iter=40):
    """Bisection with a fresh mechanism and a per-pair audit at every step."""
    pairs = draw_adjacent_pairs(adjacency, mlp.W1.shape[1])

    def eps95_at(sigma):
        return audit_per_pair(dataclasses.replace(mlp, sigma=sigma), None, beta, pairs,
                              n_draws=n_draws, seed=adjacency.seed + 7919)["eps95"]

    if eps95_at(0.0) <= target_eps95:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(30):
        if eps95_at(hi) <= target_eps95:
            break
        lo, hi = hi, hi * 3.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = eps95_at(mid)
        if abs(val - target_eps95) <= rel_tol * target_eps95:
            return mid
        lo, hi = (mid, hi) if val > target_eps95 else (lo, mid)
    return 0.5 * (lo + hi)


def test_calibrate_sigma_matches_the_per_step_oracle(toy_mlp):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=40, seed=5)
    base = audit_per_pair(dataclasses.replace(toy_mlp, sigma=0.0), None, 1.0,
                          draw_adjacent_pairs(adjacency, 1))["eps95"]
    sigmas = []
    for target in (2.0 * base, 0.5 * base, 0.2 * base):
        sigma = calibrate_sigma(toy_mlp, target, adjacency, beta=1.0, n_draws=500)
        assert sigma == calibrate_sigma_per_step(toy_mlp, target, adjacency, 1.0, 500)
        sigmas.append(sigma)
    assert sigmas[0] == 0.0 and 0.0 < sigmas[1] < sigmas[2]


def tradeoff_two_forwards(model, atlas, theta, gamma, beta, delta_theta, dj_max):
    """The logit-dependent components, each logit vector from its own forward."""
    k_star = locate_region(atlas, theta)
    s, s0 = ((1.0 - g) * model.base_scores(theta[None, :]) for g in (gamma, 0.0))
    s, s0 = s[0], s0[0]
    K = s.shape[0]
    m_gamma, m0 = margin_from_logits(s, k_star), margin_from_logits(s0, k_star)
    L_enc = encoding_lipschitz(model.config)
    eps_reg = theoretical_epsilon(beta, gamma, L_enc, delta_theta, model.W)
    return cost_tradeoff_formula(dj_max, K, beta, m_gamma), {
        "margin": m_gamma,
        "margin0": m0,
        "mis_selection_bound": float((K - 1) * np.exp(-beta * m_gamma)),
        "remark1_bound": cost_tradeoff_formula(dj_max, K, beta * (1.0 - gamma), m0),
        "remark2_bound": float(dj_max * (K - 1) * np.exp(
            -m0 * eps_reg / (4.0 * L_enc * delta_theta * inf1_norm(model.W)))),
        "probabilities": softmax_probs(s, beta),
    }


@pytest.mark.parametrize("kind", ["toy", "ieee69"])
def test_tradeoff_bound_matches_two_forwards(kind, toy_model, toy_atlas, toy_plp, committed, plp69,
                                             monkeypatch):
    model, atlas, plp = (toy_model, toy_atlas, toy_plp) if kind == "toy" else (
        committed[1], committed[0], plp69)
    forwards = []
    run_circuit_batch = classifier_mod.run_circuit_batch

    def counted(config, params, thetas):
        forwards.append(len(thetas))
        return run_circuit_batch(config, params, thetas)

    points = np.random.default_rng(0x7AD0).uniform(-1.0, 1.0, size=(3, plp.m))
    for theta in points:
        for gamma, beta in ((0.0, 1.0), (0.2, 1.5), (0.5, 4.0)):
            monkeypatch.setattr(classifier_mod, "run_circuit_batch", counted)
            bound, comp = tradeoff_bound(model, atlas, plp, theta, gamma, beta, 0.05)
            monkeypatch.setattr(classifier_mod, "run_circuit_batch", run_circuit_batch)
            assert forwards == [1]
            forwards.clear()
            # the cost gaps do not depend on the logits
            expected_bound, expected = tradeoff_two_forwards(
                model, atlas, theta, gamma, beta, 0.05, comp["delta_j_max"])
            assert bound == expected_bound
            for key, value in expected.items():
                np.testing.assert_array_equal(comp[key], value, err_msg=key)
