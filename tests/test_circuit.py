from pathlib import Path

import numpy as np
import pytest

from qpopf import classifier as classifier_mod
from qpopf.circuit import (
    CircuitConfig,
    VqcParams,
    _ladder_permutation,
    cyclic_pattern,
    run_circuit_batch,
    vjp,
    z_expectations,
)
from qpopf.classifier import TrainConfig, load_model, train_vqc
from qpopf.privacy import encoding_lipschitz
from tests import circuit_oracle as oracle
from tests.circuit_oracle import ladder_inplace, param_shift_grad, ry_batch

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def states_of(*amps) -> np.ndarray:
    """One state as a batch of one, the shape the kernels take."""
    return np.array([amps], dtype=complex)


def ground(n_q: int) -> np.ndarray:
    return states_of(1, *[0] * (2**n_q - 1))


def random_states(rng, count: int, dim: int) -> np.ndarray:
    """Normalized complex Gaussian states; each row draws its real then its imaginary part."""
    parts = rng.normal(size=(count, 2, dim))
    amps = parts[:, 0] + 1j * parts[:, 1]
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_params(config, rng) -> VqcParams:
    return VqcParams.random_init(config, rng)


def test_ry_pi_flips_ground():
    out = ry_batch(ground(1), 0, np.pi, 1)
    np.testing.assert_allclose(out[0], [0.0, 1.0], atol=1e-15)


def test_ry_zero_is_identity():
    amps = random_states(np.random.default_rng(1), 1, 4)
    out = ry_batch(amps.copy(), 1, 0.0, 2)
    np.testing.assert_allclose(out, amps, atol=1e-15)


def test_ry_half_pi_rotation():
    out = ry_batch(ground(1), 0, np.pi / 2, 1)
    np.testing.assert_allclose(out[0], [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_cnot_ladder_truth_table():
    out = ladder_inplace(states_of(0, 0, 1, 0), 2)  # |10> -> |11>
    np.testing.assert_allclose(out[0], [0, 0, 0, 1], atol=1e-15)
    out = ladder_inplace(ground(3), 3)
    np.testing.assert_allclose(out, ground(3), atol=1e-15)


def test_cnot_ladder_builds_bell_state():
    out = ladder_inplace(states_of(INV_SQRT2, 0, INV_SQRT2, 0), 2)
    np.testing.assert_allclose(out[0], [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


# -- the tabled kernels against the gate-by-gate oracle -------------------------

ORACLE_CASES = [(n_q, n_q) for n_q in (1, 2, 3, 5)] + [(5, 3)]  # (n_q, m); (5, 3) is (0, 1, 2, 0, 1)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def wide_params(config, rng) -> VqcParams:
    """Angles in [-2 pi, 2 pi]: trained angles leave [-pi, pi], where cos(a/2) < 0
    gives the zero imaginary parts of an ry circuit both signs."""
    return VqcParams(rng.uniform(-2 * np.pi, 2 * np.pi, config.param_shape))


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def oracle_case(n_q, m, gate, batch):
    rng = np.random.default_rng(1000 * n_q + 10 * m + batch + (gate == "rot"))
    config = CircuitConfig.default(n_q=n_q, L=2, m=m, trainable_gate=gate)
    return config, wide_params(config, rng), rng.uniform(-1, 1, (batch, m)), rng


def one_element_products(n_q, batch, gate):
    """The one case whose oracle states differ in the last bit.

    numpy rounds a complex product with one element (of arrays with more than
    one dimension) without a fused multiply-add, and longer ones with it where
    the CPU has it.  The oracle's rot products have one element at one qubit
    and one sample; the tabled kernel's always have at least two.
    """
    return (n_q, batch, gate) == (1, 1, "rot")


@pytest.mark.parametrize("batch", [1, 32, 3000])
@pytest.mark.parametrize("gate", ["rot", "ry"])
@pytest.mark.parametrize("n_q,m", ORACLE_CASES)
def test_states_equal_the_gate_by_gate_oracle(n_q, m, gate, batch):
    config, params, thetas, _ = oracle_case(n_q, m, gate, batch)
    got = run_circuit_batch(config, params, thetas)
    want = oracle.run_circuit(config, params, thetas)
    if one_element_products(n_q, batch, gate):
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-16)
    else:
        assert_bitwise(got, want)


@pytest.mark.parametrize("batch", [1, 32, 3000])
@pytest.mark.parametrize("gate", ["rot", "ry"])
@pytest.mark.parametrize("n_q,m", ORACLE_CASES)
def test_vjp_equals_the_gate_by_gate_oracle(n_q, m, gate, batch):
    config, params, thetas, rng = oracle_case(n_q, m, gate, batch)
    dh = rng.normal(size=(2, batch, n_q))  # a leading axis of cotangents
    states = oracle.run_circuit(config, params, thetas)
    assert_bitwise(vjp(config, params, thetas, dh, states), oracle.vjp(config, params, thetas, dh))


@pytest.mark.parametrize("n_q", range(1, 7))
def test_ladder_permutation_is_the_cnot_ladder(n_q):
    basis = np.eye(2**n_q, dtype=complex)
    perm = _ladder_permutation(n_q)
    np.testing.assert_array_equal(basis[:, perm], ladder_inplace(basis.copy(), n_q))
    np.testing.assert_array_equal(basis[:, perm][:, np.argsort(perm)], basis)


def test_committed_vqc_releases_the_oracle_law(monkeypatch):
    model, _ = load_model(FIXTURES / "vqc.json")
    thetas = np.random.default_rng(83).uniform(-1, 1, (300, 3))

    def laws():
        rows = [model.probability_matrix(t[None, :], 0.2, 2.0) for t in thetas[:20]]
        return [*rows, model.probability_matrix(thetas, 0.2, 2.0),
                model.probabilities_from_base(model.base_scores(thetas), 0.2, 2.0)]

    got = laws()
    monkeypatch.setattr(classifier_mod, "run_circuit_batch", oracle.run_circuit)
    for g, w in zip(got, laws(), strict=True):
        assert_bitwise(g, w)


def test_run_circuit_all_zero_inputs():
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    params = VqcParams(np.zeros(config.param_shape))
    out = run_circuit_batch(config, params, np.zeros((1, 3)))
    np.testing.assert_allclose(out, ground(3), atol=1e-15)


def test_run_circuit_one_qubit_full_rotation():
    config = CircuitConfig.default(n_q=1, L=1, m=1)
    params = VqcParams(np.zeros(config.param_shape))
    out = run_circuit_batch(config, params, np.array([[1.0]]))
    np.testing.assert_allclose(np.abs(out[0]), [0.0, 1.0], atol=1e-12)


def test_run_circuit_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_q = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        config = CircuitConfig.default(n_q=n_q, L=L, m=m)
        params = random_params(config, rng)
        out = run_circuit_batch(config, params, rng.uniform(-1, 1, (1, m)))
        assert abs(float(np.sum(np.abs(out) ** 2)) - 1.0) <= 1e-12


def test_run_circuit_dimension_mismatch():
    config = CircuitConfig.default(n_q=3, L=1, m=3)
    params = VqcParams(np.zeros(config.param_shape))
    with pytest.raises(ValueError, match="encoding_pattern"):
        run_circuit_batch(config, params, np.zeros((1, 2)))


def test_encoding_pattern_validation():
    with pytest.raises(ValueError):
        CircuitConfig(n_q=2, L=1, encoding_pattern=(0,))
    with pytest.raises(ValueError):
        CircuitConfig(n_q=0, L=1, encoding_pattern=(0,))
    assert cyclic_pattern(5, 3) == (0, 1, 2, 0, 1)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_config_rejects_a_bad_encoding_scale(scale):
    # the encoding Lipschitz constant, and so eps_reg, is proved for a finite scale > 0
    with pytest.raises(ValueError, match="encoding_scale must be finite and > 0"):
        CircuitConfig.default(n_q=2, L=1, m=2, encoding_scale=scale)
    d = CircuitConfig.default(n_q=2, L=1, m=2).to_dict()
    d["encoding_scale"] = scale
    with pytest.raises(ValueError, match="encoding_scale must be finite and > 0"):
        CircuitConfig.from_dict(d)


def depolarized_z(states: np.ndarray, gamma: float, n_q: int) -> np.ndarray:
    """<Z_j> of (1-gamma) |psi><psi| + gamma I/D, read off the density matrix's diagonal.

    ``z_expectations`` reads only |amplitude|^2, so the square root of the
    diagonal stands in for the mixed state.
    """
    diag = (1.0 - gamma) * np.abs(states) ** 2 + gamma / 2**n_q
    return z_expectations(np.sqrt(diag), n_q)


def test_features_trivial_cases():
    np.testing.assert_allclose(z_expectations(ground(3), 3), [[1, 1, 1]], atol=1e-15)
    state = random_states(np.random.default_rng(5), 1, 8)
    np.testing.assert_allclose(depolarized_z(state, 1.0, 3), [[0, 0, 0]], atol=1e-15)


def test_depolarizing_contraction_exact():
    rng = np.random.default_rng(7)
    states = random_states(rng, 200, 32)
    h0 = z_expectations(states, 5)
    for g in np.linspace(0.0, 1.0, 11):
        np.testing.assert_allclose(depolarized_z(states, g, 5), (1 - g) * h0, atol=1e-12)


def test_param_shift_constant_loss_zero():
    config = CircuitConfig.default(n_q=2, L=2, m=2)
    params = VqcParams.random_init(config, np.random.default_rng(11))
    grad = param_shift_grad(config, params, np.array([0.3, -0.2]), lambda h: 3.0)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_param_shift_cosine_stationary():
    config = CircuitConfig.default(n_q=1, L=1, m=1)
    params = VqcParams(np.zeros(config.param_shape))
    grad = param_shift_grad(config, params, np.zeros(1), lambda h: h[0])
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def finite_difference(config, params, theta, loss, step=1e-5):
    grad = np.zeros_like(params.phi)
    for idx in np.ndindex(params.phi.shape):
        up, dn = params.copy(), params.copy()
        up.phi[idx] += step
        dn.phi[idx] -= step
        f_up = loss(z_expectations(run_circuit_batch(config, up, theta), config.n_q)[0])
        f_dn = loss(z_expectations(run_circuit_batch(config, dn, theta), config.n_q)[0])
        grad[idx] = (f_up - f_dn) / (2 * step)
    return grad


def test_param_shift_matches_finite_difference():
    rng = np.random.default_rng(13)
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    for _ in range(20):
        params = random_params(config, rng)
        theta = rng.uniform(-1, 1, 3)
        w = rng.normal(size=3)
        loss = lambda h, w=w: float(w @ h)
        grad = param_shift_grad(config, params, theta, loss)
        fd = finite_difference(config, params, theta, loss)
        np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_feature_jacobian_matches_param_shift():
    # d h / d phi from one vjp: the one-hot cotangents stacked on a leading axis
    rng = np.random.default_rng(17)
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    params = random_params(config, rng)
    thetas = rng.uniform(-1, 1, (4, 3))
    onehot = np.broadcast_to(np.eye(3)[:, None, :], (3, 4, 3))
    states = run_circuit_batch(config, params, thetas)
    jac = np.moveaxis(vjp(config, params, thetas, onehot, states), 0, 1)
    for j in range(3):  # each feature is itself a linear functional
        e = np.zeros(3)
        e[j] = 1.0
        for b in range(4):
            grad = param_shift_grad(
                config, params, thetas[b], lambda h, e=e: float(e @ h)
            )
            np.testing.assert_allclose(jac[b, j], grad, atol=1e-12)


ADJOINT_CASES = [(n_q, n_q) for n_q in range(1, 6)] + [(5, 3)]  # (n_q, m); (5, 3) is cyclic


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("gate", ["rot", "ry"])
@pytest.mark.parametrize("n_q,m", ADJOINT_CASES)
def test_vjp_matches_param_shift(n_q, m, gate, gamma):
    rng = np.random.default_rng(100 * n_q + m)
    config = CircuitConfig.default(n_q=n_q, L=2, m=m, trainable_gate=gate)
    params = random_params(config, rng)
    thetas = rng.uniform(-1, 1, (3, m))
    dh = rng.normal(size=(3, n_q))
    states = run_circuit_batch(config, params, thetas)
    # noise contracts the features, and so their gradient, by (1 - gamma)
    grad = (1.0 - gamma) * vjp(config, params, thetas, dh, states)
    assert grad.shape == (3, *config.param_shape)
    for b in range(3):
        oracle = param_shift_grad(
            config, params, thetas[b], lambda h, w=dh[b]: float(w @ h), gamma
        )
        np.testing.assert_allclose(grad[b], oracle, rtol=0, atol=1e-10)


def test_vjp_rejects_mismatched_cotangent():
    config = CircuitConfig.default(n_q=2, L=1, m=2)
    params = VqcParams(np.zeros(config.param_shape))
    thetas = np.zeros((4, 2))
    with pytest.raises(ValueError, match="dh"):
        vjp(config, params, thetas, np.zeros((4, 3)), run_circuit_batch(config, params, thetas))


# Loss per epoch of the toy run below under the parameter-shift gradient.
SHIFT_RULE_LOSSES = {
    "rot": [1.0490727044756463, 0.9260462845335009, 0.8081349618445769, 0.7020986420909922],
    "ry": [1.118604873902199, 1.0591575197655716, 1.0274636036386358, 1.0019442039900028],
}


@pytest.mark.parametrize("gate", ["rot", "ry"])
def test_train_vqc_reproduces_shift_rule_history(gate):
    rng = np.random.default_rng(29)
    thetas = rng.uniform(-1, 1, (40, 2))
    labels = 1 + (thetas[:, 0] + 0.5 * thetas[:, 1] > 0) + (thetas[:, 1] > 0.5)
    config = CircuitConfig.default(n_q=2, L=2, m=2, trainable_gate=gate)
    _, _, history = train_vqc(
        (thetas, labels), config, TrainConfig(epochs=4, batch_size=8, seed=5), K=3
    )
    losses = [rec["loss"] for rec in history]
    np.testing.assert_allclose(losses, SHIFT_RULE_LOSSES[gate], rtol=0, atol=1e-9)


def test_config_from_dict_requires_gate():
    d = CircuitConfig.default(n_q=2, L=1, m=2).to_dict()
    assert CircuitConfig.from_dict(d).trainable_gate == "rot"
    del d["trainable_gate"]
    with pytest.raises(ValueError, match="trainable_gate"):
        CircuitConfig.from_dict(d)


def trace_distance(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row-wise trace distance between pure states: sqrt(1 - |<psi|phi>|^2)."""
    overlap = np.abs(np.einsum("ij,ij->i", psi.conj(), phi)) ** 2
    return np.sqrt(np.maximum(0.0, 1.0 - overlap))


def test_trace_distance_lipschitz_no_repeat():
    # encoding pattern without component reuse: the analytic constant is
    # exact, so any pair distance must respect it
    rng = np.random.default_rng(19)
    config = CircuitConfig.default(n_q=3, L=4, m=3)
    L_enc = encoding_lipschitz(config)
    params = random_params(config, rng)
    pairs = rng.uniform(-1, 1, (1000, 2, 3))
    a, b = pairs[:, 0], pairs[:, 1]
    d = trace_distance(run_circuit_batch(config, params, a), run_circuit_batch(config, params, b))
    assert np.all(d <= L_enc * np.linalg.norm(a - b, axis=1) + 1e-12)


def test_trace_distance_lipschitz_cyclic_audit_scale():
    rng = np.random.default_rng(23)
    config = CircuitConfig.default(n_q=5, L=6, m=3)
    L_enc = encoding_lipschitz(config)
    params = random_params(config, rng)
    thetas = rng.uniform(-1, 1, (1000, 3))
    u = rng.standard_normal((1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    scales = rng.uniform(0.005, 0.05, size=(1000, 1))
    mates = np.clip(thetas + scales * u, -1, 1)
    d = trace_distance(run_circuit_batch(config, params, thetas),
                       run_circuit_batch(config, params, mates))
    dist = np.linalg.norm(mates - thetas, axis=1)
    assert np.all(d <= L_enc * dist + 1e-12)


def test_z_expectation_ordering():
    # qubit 0 is the leftmost ket label: |10> has <Z_0> = -1, <Z_1> = +1
    z = z_expectations(np.array([[0, 0, 1, 0]], dtype=complex), 2)[0]
    np.testing.assert_allclose(z, [-1.0, 1.0], atol=1e-15)

