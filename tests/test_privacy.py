import numpy as np
import pytest

from qpopf import privacy
from qpopf.circuit import CircuitConfig, VqcParams
from qpopf.classifier import LinearHead, TrainConfig, VqcModel, train_vqc
from qpopf.privacy import (
    AdjacencySpec,
    MlpAveragedMechanism,
    OracleMechanism,
    VqcMechanism,
    audit_mechanism,
    audit_vqc_grid,
    cost_tradeoff_formula,
    delta_j_all,
    draw_adjacent_pairs,
    empirical_epsilon,
    encoding_lipschitz,
    encoding_lipschitz_empirical,
    epsilon_percentile,
    mis_selection_bound,
    mis_selection_probability,
    required_beta,
    theoretical_epsilon,
    tradeoff_bound,
    wasted_budget,
)
from qpopf.regions import sample_labeled_dataset


class StubMechanism:
    model_id = "stub"
    gamma = None
    beta = None

    def __init__(self, table):
        self.table = table  # maps theta tuple -> probability vector

    def probabilities(self, theta):
        return np.asarray(self.table[tuple(np.atleast_1d(theta))], dtype=float)


def test_empirical_epsilon_identical_inputs():
    mech = StubMechanism({(0.0,): [0.4, 0.6]})
    assert empirical_epsilon(mech, [0.0], [0.0]) == 0.0


def test_empirical_epsilon_closed_form():
    mech = StubMechanism({(0.0,): [0.9, 0.1], (1.0,): [0.8, 0.2]})
    eps = empirical_epsilon(mech, [0.0], [1.0])
    assert eps == pytest.approx(np.log(2.0), abs=1e-12)


def test_empirical_epsilon_zero_probability_sentinel():
    mech = StubMechanism({(0.0,): [1.0, 0.0], (1.0,): [0.8, 0.2]})
    assert empirical_epsilon(mech, [0.0], [1.0]) == np.inf
    both = StubMechanism({(0.0,): [1.0, 0.0], (1.0,): [1.0, 0.0]})
    assert empirical_epsilon(both, [0.0], [1.0]) == 0.0


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


def test_encoding_lipschitz_empirical_below_analytic():
    rng = np.random.default_rng(5)
    for config in (
        CircuitConfig.default(n_q=3, L=4, m=3),
        CircuitConfig.default(n_q=5, L=6, m=3),
    ):
        params = VqcParams.random_init(config, rng)
        est = encoding_lipschitz_empirical(config, params, n_pairs=10_000, seed=9)
        assert est <= encoding_lipschitz(config)


def test_theoretical_epsilon_arithmetic():
    W = np.array([[1.0, -1.0], [0.5, 0.25]])  # max row L1 = 2
    assert theoretical_epsilon(1.0, 0.5, 1.0, 0.05, W) == pytest.approx(0.2)
    assert theoretical_epsilon(1.0, 1.0, 1.0, 0.05, W) == 0.0
    assert theoretical_epsilon(2.0, 0.5, 1.0, 0.05, W) == pytest.approx(0.4)


def test_required_beta_inverse():
    W = np.array([[1.0, -1.0], [0.5, 0.25]])
    assert required_beta(0.2, 0.5, 1.0, 0.05, W) == pytest.approx(1.0)
    # round trip
    for eps in (0.1, 1.0, 5.0):
        for gamma in (0.0, 0.3, 0.6):
            beta = required_beta(eps, gamma, 2.0, 0.05, W)
            assert theoretical_epsilon(beta, gamma, 2.0, 0.05, W) == pytest.approx(
                eps, abs=1e-12
            )
    # aware / unaware ratio
    aware = required_beta(1.0, 0.4, 2.0, 0.05, W)
    unaware = required_beta(1.0, 0.0, 2.0, 0.05, W)
    assert aware / unaware == pytest.approx(1.0 / 0.6)
    with pytest.raises(ValueError):
        required_beta(1.0, 1.0, 2.0, 0.05, W)


def test_wasted_budget():
    assert wasted_budget(10.0, 0.2) == pytest.approx(2.0)
    assert wasted_budget(10.0, 0.0) == 0.0
    gammas = np.linspace(0, 1, 11)
    vals = [wasted_budget(3.0, g) for g in gammas]
    np.testing.assert_allclose(vals, 3.0 * gammas, atol=1e-15)


def test_cost_tradeoff_formula_arithmetic():
    assert cost_tradeoff_formula(10.0, 2, 1.0, 2.0) == pytest.approx(
        10.0 * np.exp(-2.0), abs=1e-12
    )
    assert cost_tradeoff_formula(5.0, 7, 1e6, 0.5) == pytest.approx(0.0, abs=1e-200)


@pytest.fixture(scope="module")
def toy_model(toy_atlas):
    thetas, labels = sample_labeled_dataset(toy_atlas, 200, seed=21)
    config = CircuitConfig.default(n_q=2, L=2, m=1)
    params, head, _ = train_vqc((thetas, labels), config, TrainConfig(epochs=30, seed=3))
    return VqcModel(config, params, head)


def test_vqc_mechanism_bound_holds_on_grid(toy_model, toy_atlas):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=300, seed=13)
    rows = audit_vqc_grid(
        toy_model, gammas=[0.0, 0.25, 0.5], betas=[0.5, 1.0, 5.0], adjacency=adjacency
    )
    for row in rows:
        assert row["eps_max"] <= row["eps_reg"] + 1e-12


def test_audit_mechanism_matches_grid_row(toy_model):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=64, seed=17)
    pairs = draw_adjacent_pairs(adjacency, 1)
    mech = VqcMechanism(toy_model, gamma=0.2, beta=2.0)
    report = audit_mechanism(
        mech, pairs, eps_reg=mech.epsilon_bound(0.05), delta_theta=0.05
    )
    rows = audit_vqc_grid(toy_model, [0.2], [2.0], adjacency)
    assert report.eps95 == pytest.approx(rows[0]["eps95"], abs=1e-9)
    assert report.eps_reg == pytest.approx(rows[0]["eps_reg"], abs=1e-12)
    assert report.saturated_count == 0
    d = report.to_dict()
    assert d["bound_satisfied"] is True
    assert 1 <= d["worst_class"] <= toy_model.K


def test_gamma_one_kills_epsilon(toy_model):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=32, seed=19)
    pairs = draw_adjacent_pairs(adjacency, 1)
    mech = VqcMechanism(toy_model, gamma=1.0, beta=3.0)
    report = audit_mechanism(mech, pairs, eps_reg=mech.epsilon_bound(0.05))
    assert report.eps95 == 0.0
    assert report.eps_reg == 0.0


def test_eps95_monotone_in_gamma_and_beta(toy_model):
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=500, seed=23)
    gammas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    betas = list(np.geomspace(0.1, 10.0, 8))
    rows = audit_vqc_grid(toy_model, gammas, betas, adjacency)
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
    mech = MlpAveragedMechanism(mlp, sigma=0.7, beta=1.0, n_draws=500, seed=5)
    p1 = mech.probabilities(np.array([0.2]))
    p2 = mech.probabilities(np.array([0.2]))
    np.testing.assert_array_equal(p1, p2)
    assert p1.sum() == pytest.approx(1.0, abs=1e-12)


def test_oracle_mechanism_is_one_hot(toy_atlas):
    mech = OracleMechanism(toy_atlas)
    p = mech.probabilities(np.array([0.5]))
    assert sorted(p) == [0.0, 1.0]


def test_mis_selection_bounds(toy_model, toy_atlas):
    rng = np.random.default_rng(31)
    for _ in range(200):
        theta = rng.uniform(-1, 1, 1)
        for gamma, beta in ((0.0, 1.0), (0.3, 2.0), (0.5, 0.5)):
            p_err = mis_selection_probability(toy_model, toy_atlas, theta, gamma, beta)
            bound = mis_selection_bound(toy_model, toy_atlas, theta, gamma, beta)
            assert 0.0 <= p_err <= 1.0
            assert p_err <= bound + 1e-12


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
