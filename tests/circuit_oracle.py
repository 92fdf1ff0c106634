"""Gate-by-gate circuit kernels and the parameter-shift rule: the oracles
of :mod:`qpopf.circuit`.

The package tables each gate family once per call and applies the CNOT
ladder as one gather.  These are the kernels it replaced: each gate
recomputes its cos, sin or exp, and the ladder is one strided copy per
CNOT.  ``run_circuit`` and ``vjp`` walk the circuit with them, and the
package's states and gradients must equal theirs bit for bit.
"""

import numpy as np

from qpopf.circuit import CircuitConfig, run_circuit_batch, z_expectations


def angles_per_gate(config: CircuitConfig) -> int:
    return 3 if config.trainable_gate == "rot" else 1


def ry_batch(states: np.ndarray, qubit: int, angles, n_q: int) -> np.ndarray:
    """Apply Ry(angle) on one qubit of states shaped (..., 2**n_q).

    ``angles`` broadcasts against the batch dimensions, so per-sample
    encoding angles cost one vectorized pass.
    """
    lead = states.shape[:-1]
    half = np.multiply(angles, 0.5)
    c = np.asarray(np.cos(half))[..., None, None]
    s = np.asarray(np.sin(half))[..., None, None]
    shaped = states.reshape(*lead, 2**qubit, 2, 2 ** (n_q - qubit - 1))
    a0 = shaped[..., 0, :]
    a1 = shaped[..., 1, :]
    out = np.empty_like(shaped)
    out[..., 0, :] = c * a0 - s * a1
    out[..., 1, :] = s * a0 + c * a1
    return out.reshape(*lead, 2**n_q)


def rz_batch(states: np.ndarray, qubit: int, angles, n_q: int) -> np.ndarray:
    """Apply Rz(angle) = diag(exp(-ia/2), exp(+ia/2)) on one qubit."""
    lead = states.shape[:-1]
    half = np.multiply(angles, 0.5)
    phase = np.asarray(np.exp(-1j * half))[..., None, None]
    shaped = states.reshape(*lead, 2**qubit, 2, 2 ** (n_q - qubit - 1))
    out = np.empty_like(shaped)
    out[..., 0, :] = phase * shaped[..., 0, :]
    out[..., 1, :] = np.conj(phase) * shaped[..., 1, :]
    return out.reshape(*lead, 2**n_q)


def rot_batch(states: np.ndarray, qubit: int, a, b, c, n_q: int) -> np.ndarray:
    """Fused general rotation Rz(c) Ry(b) Rz(a) in one pass."""
    lead = states.shape[:-1]
    cos_b = np.asarray(np.cos(np.multiply(b, 0.5)))[..., None, None]
    sin_b = np.asarray(np.sin(np.multiply(b, 0.5)))[..., None, None]
    e_m = np.asarray(np.exp(-0.5j * (np.add(a, c))))[..., None, None]   # phase on |0><0|
    e_d = np.asarray(np.exp(0.5j * (np.subtract(a, c))))[..., None, None]
    shaped = states.reshape(*lead, 2**qubit, 2, 2 ** (n_q - qubit - 1))
    a0 = shaped[..., 0, :]
    a1 = shaped[..., 1, :]
    out = np.empty_like(shaped)
    out[..., 0, :] = (e_m * cos_b) * a0 - (e_d * sin_b) * a1
    out[..., 1, :] = (np.conj(e_d) * sin_b) * a0 + (np.conj(e_m) * cos_b) * a1
    return out.reshape(*lead, 2**n_q)


def cnot_batch(states: np.ndarray, control: int, n_q: int) -> np.ndarray:
    """CNOT(control, control + 1) applied in place to states shaped (..., 2**n_q)."""
    lead = states.shape[:-1]
    shaped = states.reshape(*lead, 2**control, 2, 2, 2 ** (n_q - control - 2))
    shaped[..., 1, :, :] = shaped[..., 1, ::-1, :].copy()
    return shaped.reshape(*lead, 2**n_q)


def ladder_inplace(states: np.ndarray, n_q: int) -> np.ndarray:
    for i in range(n_q - 1):
        states = cnot_batch(states, i, n_q)
    return states


def run_circuit(config: CircuitConfig, phi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Output states (N, 2**n_q), one kernel call per gate."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    states = np.zeros((n, config.dim), dtype=complex)
    states[:, 0] = 1.0
    enc = config.encoding_scale * thetas[:, list(config.encoding_pattern)]
    for layer in range(config.L):
        for qubit in range(config.n_q):
            states = ry_batch(states, qubit, enc[:, qubit], config.n_q)
        for qubit in range(config.n_q):
            if config.trainable_gate == "rot":
                a, b, c = phi[layer, qubit]
                states = rot_batch(states, qubit, a, b, c, config.n_q)
            else:
                states = ry_batch(states, qubit, phi[layer, qubit], config.n_q)
        if config.n_q > 1:
            states = ladder_inplace(states, config.n_q)
    return states


def z_signs(n_q: int) -> np.ndarray:
    bits = np.arange(2**n_q)[None, :] >> np.arange(n_q - 1, -1, -1)[:, None]
    return 1.0 - 2.0 * (bits & 1)


def im_z(pair: np.ndarray, signs: np.ndarray) -> np.ndarray:
    return np.imag(np.conj(pair[1]) * pair[0]) @ signs


def im_y(pair: np.ndarray, qubit: int, n_q: int) -> np.ndarray:
    shaped = pair.reshape(*pair.shape[:-1], 2**qubit, 2, 2 ** (n_q - qubit - 1))
    psi, lam = shaped[0], shaped[1]
    z = np.conj(lam[..., 1, :]) * psi[..., 0, :] - np.conj(lam[..., 0, :]) * psi[..., 1, :]
    return z.real.sum(axis=(-1, -2))


def vjp(config: CircuitConfig, phi: np.ndarray, thetas: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """The adjoint gradient of :func:`qpopf.circuit.vjp`, one kernel call per gate."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n_q = config.n_q
    psi = run_circuit(config, phi, thetas)
    dh = np.asarray(dh, dtype=float)
    signs = z_signs(n_q)
    pair = np.stack(np.broadcast_arrays(psi, (dh @ signs) * psi))
    enc = config.encoding_scale * thetas[:, list(config.encoding_pattern)]
    grad = np.empty((*dh.shape[:-1], *config.param_shape))
    for layer in reversed(range(config.L)):
        for i in reversed(range(n_q - 1)):
            pair = cnot_batch(pair, i, n_q)
        for qubit in reversed(range(n_q)):
            if config.trainable_gate == "rot":
                a, b, c = phi[layer, qubit]
                grad[..., layer, qubit, 2] = im_z(pair, signs[qubit])
                pair = rz_batch(pair, qubit, -c, n_q)
                grad[..., layer, qubit, 1] = im_y(pair, qubit, n_q)
                pair = ry_batch(pair, qubit, -b, n_q)
                grad[..., layer, qubit, 0] = im_z(pair, signs[qubit])
                pair = rz_batch(pair, qubit, -a, n_q)
            else:
                grad[..., layer, qubit] = im_y(pair, qubit, n_q)
                pair = ry_batch(pair, qubit, -phi[layer, qubit], n_q)
        if layer:
            for qubit in reversed(range(n_q)):
                pair = ry_batch(pair, qubit, -enc[:, qubit], n_q)
    return grad


def param_shift_grad(
    config: CircuitConfig,
    phi: np.ndarray,
    theta: np.ndarray,
    loss,
    gamma: float = 0.0,
) -> np.ndarray:
    """Gradient of loss(features) over phi via +-pi/2 shifted evaluations.

    Exact whenever the loss is a fixed linear functional of the features
    (each feature is a single-frequency trigonometric function of any one
    angle).  Two circuits per angle make it the oracle for the adjoint
    :func:`qpopf.circuit.vjp`, which training uses instead.
    """
    theta = np.asarray(theta, dtype=float)[None, :]

    def loss_at(shifted: np.ndarray) -> float:
        z = z_expectations(run_circuit_batch(config, shifted, theta), config.n_q)[0]
        return loss((1.0 - gamma) * z)

    grad = np.zeros_like(phi)
    for idx in np.ndindex(phi.shape):
        shifted = phi.copy()
        shifted[idx] += np.pi / 2.0
        plus = loss_at(shifted)
        shifted[idx] -= np.pi
        grad[idx] = 0.5 * (plus - loss_at(shifted))
    return grad
