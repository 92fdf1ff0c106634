import numpy as np
import pytest

from qpopf.circuit import (
    CircuitConfig,
    StateVector,
    VqcParams,
    apply_cnot_ladder,
    apply_ry,
    cyclic_pattern,
    feature_jacobian,
    features,
    features_sampled,
    param_shift_grad,
    run_circuit,
    run_circuit_batch,
    trace_distance_pure,
    vjp,
    z_expectations,
)
from qpopf.classifier import TrainConfig, train_vqc
from qpopf.privacy import encoding_lipschitz

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def state_of(*amps) -> StateVector:
    return StateVector(np.array(amps, dtype=complex))


def random_params(config, rng) -> VqcParams:
    return VqcParams.random_init(config, rng)


def test_ry_pi_flips_ground():
    out = apply_ry(StateVector.ground(1), 0, np.pi)
    np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)


def test_ry_zero_is_identity():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    out = apply_ry(StateVector(amps.copy()), 1, 0.0)
    np.testing.assert_allclose(out.amplitudes, amps, atol=1e-15)


def test_ry_half_pi_rotation():
    out = apply_ry(StateVector.ground(1), 0, np.pi / 2)
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_cnot_ladder_truth_table():
    out = apply_cnot_ladder(state_of(0, 0, 1, 0))  # |10> -> |11>
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)
    ground = StateVector.ground(3)
    out = apply_cnot_ladder(ground)
    np.testing.assert_allclose(out.amplitudes, ground.amplitudes, atol=1e-15)


def test_cnot_ladder_builds_bell_state():
    plus_zero = state_of(INV_SQRT2, 0, INV_SQRT2, 0)
    out = apply_cnot_ladder(plus_zero)
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_single_qubit_ladder_warns():
    with pytest.warns(UserWarning, match="no-op"):
        apply_cnot_ladder(StateVector.ground(1))


def test_run_circuit_all_zero_inputs():
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    params = VqcParams(np.zeros(config.param_shape))
    out = run_circuit(config, params, np.zeros(3))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_run_circuit_one_qubit_full_rotation():
    config = CircuitConfig.default(n_q=1, L=1, m=1)
    params = VqcParams(np.zeros(config.param_shape))
    out = run_circuit(config, params, np.array([1.0]))
    np.testing.assert_allclose(np.abs(out.amplitudes), [0.0, 1.0], atol=1e-12)


def test_run_circuit_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_q = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        config = CircuitConfig.default(n_q=n_q, L=L, m=m)
        params = random_params(config, rng)
        out = run_circuit(config, params, rng.uniform(-1, 1, m))
        assert out.norm_error() <= 1e-12


def test_run_circuit_dimension_mismatch():
    config = CircuitConfig.default(n_q=3, L=1, m=3)
    params = VqcParams(np.zeros(config.param_shape))
    with pytest.raises(ValueError, match="encoding_pattern"):
        run_circuit(config, params, np.zeros(2))


def test_encoding_pattern_validation():
    with pytest.raises(ValueError):
        CircuitConfig(n_q=2, L=1, encoding_pattern=(0,))
    with pytest.raises(ValueError):
        CircuitConfig(n_q=0, L=1, encoding_pattern=(0,))
    assert cyclic_pattern(5, 3) == (0, 1, 2, 0, 1)


def test_features_trivial_cases():
    ground = StateVector.ground(3)
    np.testing.assert_allclose(features(ground, 0.0), [1, 1, 1], atol=1e-15)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps)
    np.testing.assert_allclose(features(state, 1.0), [0, 0, 0], atol=1e-15)
    with pytest.raises(ValueError, match="gamma"):
        features(state, 1.5)


def test_depolarizing_contraction_exact():
    rng = np.random.default_rng(7)
    gammas = np.linspace(0.0, 1.0, 11)
    for _ in range(200):
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        state = StateVector(amps)
        h0 = features(state, 0.0)
        for g in gammas:
            np.testing.assert_allclose(features(state, g), (1 - g) * h0, atol=1e-12)


def test_features_sampled_reproducible():
    state = apply_ry(StateVector.ground(2), 0, 0.7)
    a = features_sampled(state, 0.1, shots=1000, rng=np.random.default_rng(9))
    b = features_sampled(state, 0.1, shots=1000, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    big = features_sampled(state, 0.0, shots=400_000, rng=np.random.default_rng(10))
    np.testing.assert_allclose(big, features(state, 0.0), atol=5e-3)


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
        f_up = loss(features(run_circuit(config, up, theta), 0.0))
        f_dn = loss(features(run_circuit(config, dn, theta), 0.0))
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
    rng = np.random.default_rng(17)
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    params = random_params(config, rng)
    thetas = rng.uniform(-1, 1, (4, 3))
    jac = feature_jacobian(config, params, thetas)
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
    grad = vjp(config, params, thetas, dh, gamma)
    assert grad.shape == (3, *config.param_shape)
    for b in range(3):
        oracle = param_shift_grad(
            config, params, thetas[b], lambda h, w=dh[b]: float(w @ h), gamma
        )
        np.testing.assert_allclose(grad[b], oracle, rtol=0, atol=1e-10)


def test_vjp_rejects_mismatched_cotangent():
    config = CircuitConfig.default(n_q=2, L=1, m=2)
    params = VqcParams(np.zeros(config.param_shape))
    with pytest.raises(ValueError, match="dh"):
        vjp(config, params, np.zeros((4, 2)), np.zeros((4, 3)))


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


def test_trace_distance_lipschitz_no_repeat():
    # encoding pattern without component reuse: the analytic constant is
    # exact, so any pair distance must respect it
    rng = np.random.default_rng(19)
    config = CircuitConfig.default(n_q=3, L=4, m=3)
    L_enc = encoding_lipschitz(config)
    params = random_params(config, rng)
    for _ in range(1000):
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        psi_a = run_circuit(config, params, a).amplitudes
        psi_b = run_circuit(config, params, b).amplitudes
        d = trace_distance_pure(psi_a, psi_b)
        assert d <= L_enc * np.linalg.norm(a - b) + 1e-12


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
    psi = run_circuit_batch(config, params, thetas)
    psi2 = run_circuit_batch(config, params, mates)
    overlap = np.abs(np.einsum("ij,ij->i", psi.conj(), psi2)) ** 2
    d = np.sqrt(np.maximum(0.0, 1.0 - overlap))
    dist = np.linalg.norm(mates - thetas, axis=1)
    assert np.all(d <= L_enc * dist + 1e-12)


def test_z_expectation_ordering():
    # qubit 0 is the leftmost ket label: |10> has <Z_0> = -1, <Z_1> = +1
    z = z_expectations(np.array([[0, 0, 1, 0]], dtype=complex), 2)[0]
    np.testing.assert_allclose(z, [-1.0, 1.0], atol=1e-15)


def test_statevector_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0], dtype=complex)).validate()
    StateVector.ground(2).validate()
