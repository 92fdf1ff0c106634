import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpopf.circuit import CircuitConfig
from qpopf.classifier import (
    OracleClassifier,
    TrainConfig,
    TrainingDivergedError,
    VqcModel,
    argmax_accuracy,
    averaged_softmax,
    ce_head_gradients,
    kept_epoch,
    load_model,
    log_softmax,
    margin_from_logits,
    sample_region,
    save_model,
    softmax_probs,
    train_mlp,
    train_vqc,
)
from qpopf.privacy import tradeoff_bound
from qpopf.regions import RegionAtlas, locate_region, sample_labeled_dataset
from tests import train_oracle
from tests.circuit_oracle import angles_per_gate

TOY_CONFIG = CircuitConfig.default(n_q=2, L=2, m=1)


@pytest.fixture(scope="module")
def toy_dataset(toy_atlas):
    return sample_labeled_dataset(toy_atlas, 200, seed=21)


@pytest.fixture(scope="module")
def toy_vqc(toy_dataset):
    return train_vqc(toy_dataset, TOY_CONFIG, TrainConfig(epochs=30, seed=3))


@pytest.fixture(scope="module")
def toy_mlp(toy_dataset):
    mlp, losses = train_mlp(toy_dataset, TrainConfig(epochs=30, seed=3))
    return mlp, losses


def test_softmax_uniform_on_equal_logits():
    p = softmax_probs(np.full(7, 2.5), beta=3.0)
    np.testing.assert_allclose(p, np.full(7, 1 / 7), atol=1e-15)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_softmax_argmax_limit():
    p = softmax_probs(np.array([1.0, 0.3, -0.5]), beta=1e6)
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-9)


def test_softmax_closed_form():
    p = softmax_probs(np.array([1.0, 0.0]), beta=1.0)
    e = np.exp(1.0)
    np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
    assert p[0] == pytest.approx(0.7311, abs=1e-4)


def test_softmax_ratio_bound():
    # ||s - s'||_inf <= d  implies  max_k |log p_k/p'_k| <= 2 beta d
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        K = int(rng.integers(2, 8))
        beta = float(rng.uniform(0.1, 5.0))
        s = rng.normal(size=K) * 3
        d = float(rng.uniform(0.0, 1.0))
        s2 = s + rng.uniform(-d, d, size=K)
        diff = np.abs(log_softmax(s, beta) - log_softmax(s2, beta)).max()
        assert diff <= 2 * beta * d + 1e-9


def test_sample_region_one_hot():
    rng = np.random.default_rng(3)
    p = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(sample_region(p, rng) == 3 for _ in range(100))


def test_sample_region_uniform_counts():
    rng = np.random.default_rng(5)
    K, n = 7, 70_000
    p = np.full(K, 1 / K)
    counts = np.zeros(K)
    for _ in range(n):
        counts[sample_region(p, rng) - 1] += 1
    sigma = np.sqrt(n * (1 / K) * (1 - 1 / K))
    assert np.all(np.abs(counts - n / K) <= 5 * sigma)


def test_sample_region_seeded_sequence():
    p = np.array([0.2, 0.5, 0.3])
    seq1 = [sample_region(p, np.random.default_rng(11)) for _ in range(1)]
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    seq_a = [sample_region(p, rng_a) for _ in range(50)]
    seq_b = [sample_region(p, rng_b) for _ in range(50)]
    assert seq_a == seq_b
    assert seq1[0] == seq_a[0]


def test_vqc_forward_full_noise_uniform():
    phi = np.random.default_rng(7).uniform(-np.pi, np.pi, size=TOY_CONFIG.param_shape)
    model = VqcModel(TOY_CONFIG, phi, W=np.random.default_rng(8).normal(size=(3, 2)))
    theta = np.array([[0.4]])
    logits = model.logits_from_base(model.base_scores(theta), 1.0)
    np.testing.assert_allclose(logits, 0.0, atol=1e-15)
    np.testing.assert_allclose(model.probability_matrix(theta, 1.0, model.beta), 1 / 3, atol=1e-15)


def test_vqc_forward_logit_contraction():
    phi = np.random.default_rng(9).uniform(-np.pi, np.pi, size=TOY_CONFIG.param_shape)
    model = VqcModel(TOY_CONFIG, phi, W=np.random.default_rng(10).normal(size=(3, 2)))
    theta = np.array([[-0.3]])
    s0 = model.logits_from_base(model.base_scores(theta), 0.0)
    s3 = model.logits_from_base(model.base_scores(theta), 0.3)
    np.testing.assert_allclose(s3, 0.7 * s0, atol=1e-12)


def test_trained_vqc_matches_locator(toy_vqc, toy_atlas):
    model, _ = toy_vqc
    rng = np.random.default_rng(33)
    held_out = rng.uniform(-1, 1, size=(400, 1))
    labels = np.array([locate_region(toy_atlas, t) for t in held_out])
    assert argmax_accuracy(model, held_out, labels) >= 0.95


def test_train_vqc_toy_accuracy(toy_vqc, toy_dataset):
    model, history = toy_vqc
    assert argmax_accuracy(model, *toy_dataset) >= 0.99
    assert len(history) == 30
    assert history[-1]["loss"] < history[0]["loss"]


def test_train_vqc_zero_epochs(toy_dataset):
    cfg = TrainConfig(epochs=0, seed=17)
    model, history = train_vqc(toy_dataset, TOY_CONFIG, cfg)
    assert history == []
    rng = np.random.default_rng(17)
    expected_phi = rng.uniform(-np.pi, np.pi, size=TOY_CONFIG.param_shape)
    expected_W = rng.uniform(-1, 1, size=(2, 2)) / np.sqrt(2)
    np.testing.assert_array_equal(model.phi, expected_phi)
    np.testing.assert_array_equal(model.W, expected_W)


def test_train_vqc_deterministic(toy_dataset):
    cfg = TrainConfig(epochs=3, seed=5)
    m1, l1 = train_vqc(toy_dataset, TOY_CONFIG, cfg)
    m2, l2 = train_vqc(toy_dataset, TOY_CONFIG, cfg)
    np.testing.assert_array_equal(m1.phi, m2.phi)
    np.testing.assert_array_equal(m1.W, m2.W)
    assert l1 == l2


def test_train_divergence_detected(toy_dataset):
    cfg = TrainConfig(epochs=5, seed=5, learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="nan"):
        train_mlp(toy_dataset, cfg)


def test_train_mlp_toy_accuracy(toy_mlp, toy_dataset):
    mlp, history = toy_mlp
    assert argmax_accuracy(mlp, *toy_dataset) >= 0.99
    assert history[-1]["loss"] < history[0]["loss"]


@pytest.mark.parametrize("kind", ["vqc", "mlp"])
def test_training_returns_the_best_epoch(kind, toy_vqc, toy_mlp, toy_dataset):
    # best epoch: highest train accuracy, then lowest loss; the first such epoch wins
    model, history = toy_vqc if kind == "vqc" else toy_mlp
    best = min(history, key=lambda rec: (-rec["train_accuracy"], rec["loss"]))
    assert best["epoch"] < len(history)  # the restore is exercised
    assert argmax_accuracy(model, *toy_dataset) == best["train_accuracy"]
    # a run cut at the best epoch ends on the same weights
    cut = TrainConfig(epochs=best["epoch"], seed=3)
    if kind == "vqc":
        vqc, _ = train_vqc(toy_dataset, TOY_CONFIG, cut)
        pairs = [(vqc.phi, model.phi), (vqc.W, model.W)]
    else:
        mlp, _ = train_mlp(toy_dataset, cut)
        pairs = [(getattr(mlp, f), getattr(model, f)) for f in ("W1", "b1", "W2", "b2", "W_head")]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want)


def test_load_model_rejects_a_non_tanh_activation(toy_mlp, tmp_path):
    path = tmp_path / "mlp.json"
    save_model(toy_mlp[0], path)
    d = json.loads(path.read_text())
    assert d["activation"] == "tanh"
    d["activation"] = "relu"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="activation must be 'tanh', got 'relu'"):
        load_model(path)


MISSING = object()  # a field the edit deletes

@pytest.mark.parametrize("kind,key,value,match", [
    ("vqc", "b", [0.0, 0.5], "bias-free head"), ("vqc", "b", [0.0], "bias-free head"),
    ("vqc", "b", [np.nan, 0.0], "bias-free head"),
    ("vqc", "beta", np.nan, "beta .* nan"), ("vqc", "beta", 0.0, "beta .* 0.0"),
    ("vqc", "beta", -1.0, "beta .* -1.0"), ("vqc", "beta", np.inf, "beta .* inf"),
    ("mlp", "beta", np.nan, "beta .* nan"), ("mlp", "beta", 0.0, "beta .* 0.0"),
    ("mlp", "sigma", -0.5, "sigma .* -0.5"), ("mlp", "sigma", np.nan, "sigma .* nan"),
    ("mlp", "sigma", np.inf, "sigma .* inf"),
    # edits of a saved array: a layer of angles, a column of W or a row of W2 cut, a NaN weight
    pytest.param("vqc", "phi", lambda phi: phi[1:],
                 r"VqcModel: phi must be \(2, 2, 3\), got \(1, 2, 3\)", id="vqc-phi-short"),
    pytest.param("vqc", "W", lambda W: [row[1:] for row in W],
                 r"VqcModel: W must be \(K, 2\), got \(2, 1\)", id="vqc-W-one-column-short"),
    pytest.param("mlp", "W2", lambda W2: [[np.nan] + W2[0][1:]] + W2[1:],
                 "MlpBaseline: W2 must be finite", id="mlp-W2-nan"),
    pytest.param("mlp", "W2", lambda W2: W2[1:],
                 r"MlpBaseline: W2 must be \(7, 7\), got \(6, 7\)", id="mlp-W2-missing-row"),
    # a ragged array: one row of angles, of W or of W1 cut short
    pytest.param("vqc", "phi", lambda phi: [[phi[0][0][:2], *phi[0][1:]], *phi[1:]],
                 "VqcModel: phi is not a numeric array", id="vqc-phi-ragged"),
    pytest.param("vqc", "W", lambda W: [W[0][:1], *W[1:]],
                 "VqcModel: W is not a numeric array", id="vqc-W-ragged"),
    pytest.param("mlp", "W1", lambda W1: [*W1[:-1], []],
                 "MlpBaseline: W1 is not a numeric array", id="mlp-W1-ragged"),
    # a missing field, and a number given as a bool or a string
    pytest.param("vqc", "kind", MISSING, "checkpoint: missing field 'kind'", id="vqc-no-kind"),
    pytest.param("vqc", "head", MISSING, "checkpoint: missing field 'head'", id="vqc-no-head"),
    pytest.param("vqc", "config", MISSING, "checkpoint: missing field 'config'",
                 id="vqc-no-config"),
    pytest.param("vqc", "phi", MISSING, "checkpoint: missing field 'phi'", id="vqc-no-phi"),
    pytest.param("vqc", "beta", MISSING, "head: missing field 'beta'", id="vqc-no-beta"),
    pytest.param("mlp", "sigma", MISSING, "checkpoint: missing field 'sigma'", id="mlp-no-sigma"),
    pytest.param("mlp", "W_head", MISSING, "checkpoint: missing field 'W_head'",
                 id="mlp-no-W-head"),
    pytest.param("mlp", "activation", MISSING, "checkpoint: missing field 'activation'",
                 id="mlp-no-activation"),
    pytest.param("mlp", "activation", 5, "checkpoint: activation must be a string, got 5",
                 id="mlp-activation-int"),
    pytest.param("vqc", "beta", True, "head: beta must be a number, got True", id="vqc-beta-bool"),
    pytest.param("vqc", "beta", "2", "head: beta must be a number, got '2'", id="vqc-beta-string"),
    pytest.param("mlp", "beta", True, "beta must be a number, got True", id="mlp-beta-bool"),
    pytest.param("mlp", "sigma", "0.5", "sigma must be a number, got '0.5'",
                 id="mlp-sigma-string"),
    pytest.param("vqc", "config", lambda c: {**c, "n_q": c["n_q"] + 0.7},
                 "config: n_q must be an integer, got 2.7", id="vqc-n-q-float"),
    pytest.param("vqc", "config", lambda c: {**c, "n_q": str(c["n_q"])},
                 "config: n_q must be an integer, got '2'", id="vqc-n-q-string"),
    pytest.param("vqc", "config",
                 lambda c: {**c, "encoding_pattern": [1.9] + c["encoding_pattern"][1:]},
                 r"config: encoding_pattern\[0\] must be an integer, got 1.9",
                 id="vqc-pattern-float"),
])
def test_load_model_rejects_a_bad_checkpoint_value(kind, key, value, match, toy_vqc, toy_mlp,
                                                   tmp_path):
    path = tmp_path / "model.json"
    save_model((toy_vqc if kind == "vqc" else toy_mlp)[0], path)
    d = json.loads(path.read_text())
    section = d["head"] if kind == "vqc" and key in d["head"] else d
    if value is MISSING:
        del section[key]
    else:
        section[key] = value(section[key]) if callable(value) else value
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=match) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("top", [[1, 2], 3, "vqc", None])
def test_load_model_rejects_a_file_that_is_not_an_object(top, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: checkpoint must be an object"):
        load_model(path)


def test_mlp_parameter_count_paper_shape():
    # 3 -> 7 -> 7 with a bias-free 7-class head: 28 + 56 + 49
    thetas = np.random.default_rng(1).uniform(-1, 1, (40, 3))
    labels = np.arange(40) % 7 + 1
    mlp, _ = train_mlp((thetas, labels), TrainConfig(epochs=0, seed=1), K=7)
    assert mlp.num_params == 133


def test_vqc_parameter_count_reported():
    config = CircuitConfig.default(n_q=5, L=6, m=3)
    model = VqcModel(
        config,
        np.zeros(config.param_shape),
        W=np.zeros((7, 5)),
    )
    assert model.num_params == config.L * config.n_q * angles_per_gate(config) + 35


@pytest.mark.parametrize("kwargs,match", [
    ({"beta": 0.0}, "beta .* 0.0"), ({"beta": -1.0}, "beta .* -1.0"),
    ({"beta": np.nan}, "beta .* nan"), ({"beta": np.inf}, "beta .* inf"),
    ({"learning_rate": np.nan}, "learning_rate .* nan"),
    ({"learning_rate": np.inf}, "learning_rate .* inf"),
])
def test_train_config_rejects_a_bad_beta_or_learning_rate(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TrainConfig(**kwargs)


def test_mlp_deterministic(toy_dataset):
    cfg = TrainConfig(epochs=4, seed=23)
    m1, _ = train_mlp(toy_dataset, cfg)
    m2, _ = train_mlp(toy_dataset, cfg)
    for a, b in [(m1.W1, m2.W1), (m1.W2, m2.W2), (m1.W_head, m2.W_head)]:
        np.testing.assert_array_equal(a, b)


def noisy_forward(mlp, theta, sigma, rng):
    """One noisy release at theta: logits plus N(0, sigma^2) draws, then softmax."""
    noisy = dataclasses.replace(mlp, sigma=sigma)
    return noisy.probabilities_from_base(noisy.base_scores(theta[None, :]), 0.0, mlp.beta, rng)[0]


def test_mlp_forward_noisy_sigma_zero(toy_mlp):
    mlp, _ = toy_mlp
    theta = np.array([0.3])
    p = noisy_forward(mlp, theta, sigma=0.0, rng=np.random.default_rng(1))
    np.testing.assert_allclose(p, mlp.probability_matrix(theta[None, :], 0.0, mlp.beta)[0],
                               atol=1e-15)


@pytest.mark.parametrize("K", [1, 2, 7, 9])
def test_averaged_softmax_rows_are_their_one_point_means(K):
    rng = np.random.default_rng(40 + K)
    s = rng.normal(scale=3.0, size=(40, K))
    s[3, K // 2] = np.nan     # a NaN logit
    s[5] = 0.0                # a tie across every class
    normals = rng.standard_normal((500, K))
    got = averaged_softmax(s, 0.5, normals, 1.7)
    for i in range(len(s)):
        want = softmax_probs(s[i] + 0.5 * normals, 1.7).mean(axis=0)
        assert got[i].tobytes() == want.tobytes()
    assert np.all(np.isnan(got[3])) and not np.any(np.isnan(np.delete(got, 3, axis=0)))


def test_mlp_probability_matrix_is_its_noise_averaged_law(toy_mlp):
    """The one law of an MLP: the softmax averaged over the common normals
    drawn from ``seed``, and at sigma = 0 bitwise the plain softmax."""
    mlp, _ = toy_mlp
    thetas = np.linspace(-0.9, 0.9, 25)[:, None]
    base = mlp.base_scores(thetas)
    noisy = dataclasses.replace(mlp, sigma=0.5)
    normals = np.random.default_rng(0).standard_normal((2000, mlp.K))
    np.testing.assert_array_equal(noisy.probability_matrix(thetas, None, 2.0),
                                  averaged_softmax(base, 0.5, normals, 2.0))
    normals = np.random.default_rng(5).standard_normal((300, mlp.K))
    np.testing.assert_array_equal(noisy.probability_matrix(thetas, None, 2.0, n_draws=300, seed=5),
                                  averaged_softmax(base, 0.5, normals, 2.0))
    exact = dataclasses.replace(mlp, sigma=0.0)
    np.testing.assert_array_equal(exact.probability_matrix(thetas, 0.0, 2.0),
                                  softmax_probs(base, 2.0))


def test_mlp_forward_noisy_large_sigma_uniformizes(toy_mlp):
    mlp, _ = toy_mlp
    theta = np.array([0.3])
    rng = np.random.default_rng(2)
    mean = np.zeros(mlp.K)
    n = 4000
    for _ in range(n):
        mean += noisy_forward(mlp, theta, sigma=1e3, rng=rng)
    np.testing.assert_allclose(mean / n, 0.5, atol=0.05)


def test_mlp_forward_noisy_reproducible(toy_mlp):
    mlp, _ = toy_mlp
    theta = np.array([-0.2])
    a = noisy_forward(mlp, theta, 0.5, np.random.default_rng(77))
    b = noisy_forward(mlp, theta, 0.5, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)


def test_head_gradient_matches_finite_difference():
    rng = np.random.default_rng(31)
    h = rng.normal(size=(6, 4))
    W = rng.normal(size=(3, 4))
    y = rng.integers(0, 3, size=6)
    beta = 1.7

    loss, dW, dh, _ = ce_head_gradients(h, W, y, beta)
    step = 1e-6
    for arr, grad in ((W, dW), (h, dh)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = ce_head_gradients(h, W, y, beta)[0]
            arr[idx] = orig - step
            dn = ce_head_gradients(h, W, y, beta)[0]
            arr[idx] = orig
            assert grad[idx] == pytest.approx((up - dn) / (2 * step), abs=1e-6)


def test_margin_examples():
    assert margin_from_logits(np.array([2.0, 1.0]), 1) == 1.0
    assert margin_from_logits(np.array([0.2, 1.5, 0.1]), 1) < 0


def test_margin_scales_with_noise(toy_vqc, toy_atlas, toy_plp):
    model, _ = toy_vqc
    rng = np.random.default_rng(41)
    for _ in range(50):
        theta = rng.uniform(-1, 1, 1)
        _, comp = tradeoff_bound(model, toy_atlas, toy_plp, theta, gamma=0.4, beta=1.0)
        assert comp["margin"] == pytest.approx(0.6 * comp["margin0"], abs=1e-12)


def test_argmax_gamma_invariant(toy_vqc):
    model, _ = toy_vqc
    rng = np.random.default_rng(43)
    thetas = rng.uniform(-1, 1, (200, 1))
    scores = model.base_scores(thetas)
    base = np.argmax(model.logits_from_base(scores, 0.0), axis=1)
    for g in (0.1, 0.3, 0.5, 0.9):
        np.testing.assert_array_equal(
            np.argmax(model.logits_from_base(scores, g), axis=1), base
        )


@pytest.mark.parametrize("beta", [None, 0.5, 4.0])
def test_oracle_probability_matrix_is_its_released_law(toy_atlas, beta):
    # the one-hot law at any gamma and beta; the oracle has no beta of its own
    oracle = OracleClassifier(toy_atlas)
    thetas = np.linspace(-0.95, 0.95, 40)[:, None]
    one_hot = np.eye(toy_atlas.K)[[locate_region(toy_atlas, t) - 1 for t in thetas]]
    np.testing.assert_array_equal(oracle.probability_matrix(thetas, 0.3, 2.0), one_hot)
    np.testing.assert_array_equal(oracle.probability_matrix(thetas, 0.3, beta), one_hot)


def test_head_gradients_equal_the_one_hot_form():
    rng = np.random.default_rng(37)
    for batch, K, n in [(1, 2, 1), (32, 7, 5)] + [(b, 3, 4) for b in (3, 7, 24, 25, 31)] * 4:
        h, W = rng.normal(size=(batch, n)), rng.normal(size=(K, n))
        y = rng.integers(0, K, size=batch)
        loss, dW, dh, _ = ce_head_gradients(h, W, y, 1.3)
        want = train_oracle.one_hot_head_gradients(h, W, y, 1.3)
        assert loss == want[0]
        assert dW.tobytes() == want[1].tobytes() and dh.tobytes() == want[2].tobytes()


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.fixture(scope="module")
def split_datasets(toy_atlas):
    """(train, test, atlas) on the toy LP and on a 510-point ieee69 subset.

    Both training sets end on a ragged batch of 24, so a batch mean is not
    a division by a power of two.
    """
    out = {}
    for name, atlas, n in (("toy", toy_atlas, 190),
                           ("ieee69", RegionAtlas.load(FIXTURES / "atlas.json"), 510)):
        thetas, labels = sample_labeled_dataset(atlas, n, seed=21)
        cut = n - n // 5
        out[name] = ((thetas[:cut], labels[:cut]), (thetas[cut:], labels[cut:]), atlas)
    return out


# (dataset, model, epochs, seed, whether the best epoch is an earlier one)
ORACLE_RUNS = [
    ("toy", "rot", 0, 3, False), ("toy", "rot", 6, 5, True),
    ("toy", "ry", 0, 3, False), ("toy", "ry", 10, 3, True),
    ("toy", "mlp", 0, 3, False), ("toy", "mlp", 10, 7, True),
    ("ieee69", "rot", 6, 3, False), ("ieee69", "ry", 6, 5, False),
    ("ieee69", "mlp", 0, 3, False), ("ieee69", "mlp", 10, 3, True),
]


@pytest.mark.parametrize("data,model,epochs,seed,restores", ORACLE_RUNS)
def test_training_matches_the_per_array_oracle(split_datasets, data, model, epochs, seed,
                                               restores):
    """Flat-buffer Adam trains the same bits as one Adam update per array."""
    train, test, atlas = split_datasets[data]
    cfg = TrainConfig(epochs=epochs, seed=seed)
    if model == "mlp":
        mlp, history = train_mlp(train, cfg, K=atlas.K, eval_set=test)
        want_mlp, want_history = train_oracle.train_mlp(train, cfg, atlas.K, eval_set=test)
        fields = ("W1", "b1", "W2", "b2", "W_head")
        pairs = [(getattr(mlp, f), getattr(want_mlp, f)) for f in fields]
    else:
        n_q, L = (2, 2) if data == "toy" else (5, 6)
        config = CircuitConfig.default(n_q=n_q, L=L, m=atlas.theta_box.shape[0],
                                       trainable_gate=model)
        vqc, history = train_vqc(train, config, cfg, K=atlas.K, eval_set=test)
        want_vqc, want_history = train_oracle.train_vqc(
            train, config, cfg, atlas.K, eval_set=test)
        pairs = [(vqc.phi, want_vqc.phi), (vqc.W, want_vqc.W)]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert history == want_history
    assert len(history) == epochs
    if epochs:
        assert (kept_epoch(history)["epoch"] < epochs) == restores
