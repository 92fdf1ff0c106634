"""Exact statevector simulation of the data-reuploading circuit.

Qubit j corresponds to bit (n_q - 1 - j) of the basis index, i.e. qubit 0
is the leftmost label in ket notation.  Gate kernels operate on arrays of
shape (..., 2**n_q) so a whole batch of inputs moves through the circuit
in one call; the public single-state API wraps the same kernels.

Depolarizing noise never needs a density matrix here: the global channel
rho -> (1-g) rho + g I/D leaves every Pauli-Z expectation contracted by
exactly (1-g) because Z is traceless, so noisy features come from the
pure-state expectations analytically (infinite-shot limit).  A binomial
shot-sampling mode exists for experiments but is off by default.

Gradients over the trainable angles come from one adjoint pass
(:func:`vjp`); the parameter-shift rule is kept as the test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ENCODING_SCALE = np.pi


def cyclic_pattern(n_q: int, m: int) -> tuple[int, ...]:
    """Default qubit -> theta-component assignment when m != n_q."""
    return tuple(i % m for i in range(n_q))


@dataclass(frozen=True)
class CircuitConfig:
    """Layer count, encoding assignment, and trainable-gate family.

    ``trainable_gate`` is "rot" for general single-qubit rotations
    (Rz-Ry-Rz, three angles per qubit per layer) or "ry" for plain Y
    rotations (one angle).
    """

    n_q: int
    L: int
    encoding_pattern: tuple[int, ...] = ()
    encoding_scale: float = DEFAULT_ENCODING_SCALE
    trainable_gate: str = "rot"

    def __post_init__(self):
        if self.n_q < 1:
            raise ValueError("n_q must be >= 1")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if not self.encoding_pattern:
            raise ValueError("encoding_pattern must cover all qubits")
        if len(self.encoding_pattern) != self.n_q:
            raise ValueError("encoding_pattern length must equal n_q")
        if min(self.encoding_pattern) < 0:
            raise ValueError("encoding_pattern indices must be >= 0")
        if self.trainable_gate not in ("ry", "rot"):
            raise ValueError(f"unknown trainable_gate {self.trainable_gate!r}")

    @classmethod
    def default(
        cls,
        n_q: int,
        L: int,
        m: int,
        encoding_scale: float = DEFAULT_ENCODING_SCALE,
        trainable_gate: str = "rot",
    ):
        return cls(
            n_q=n_q,
            L=L,
            encoding_pattern=cyclic_pattern(n_q, m),
            encoding_scale=encoding_scale,
            trainable_gate=trainable_gate,
        )

    @property
    def dim(self) -> int:
        return 2**self.n_q

    @property
    def angles_per_gate(self) -> int:
        return 3 if self.trainable_gate == "rot" else 1

    @property
    def param_shape(self) -> tuple[int, ...]:
        if self.trainable_gate == "rot":
            return (self.L, self.n_q, 3)
        return (self.L, self.n_q)

    def to_dict(self) -> dict:
        return {
            "n_q": self.n_q,
            "L": self.L,
            "encoding_pattern": list(self.encoding_pattern),
            "encoding_scale": self.encoding_scale,
            "trainable_gate": self.trainable_gate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CircuitConfig":
        if "trainable_gate" not in d:
            raise ValueError("circuit config has no 'trainable_gate' (\"rot\" or \"ry\")")
        return cls(
            n_q=int(d["n_q"]),
            L=int(d["L"]),
            encoding_pattern=tuple(int(i) for i in d["encoding_pattern"]),
            encoding_scale=float(d["encoding_scale"]),
            trainable_gate=str(d["trainable_gate"]),
        )


@dataclass
class StateVector:
    """2**n_q complex amplitudes; unit norm within 1e-12."""

    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return int(np.log2(self.amplitudes.shape[-1]))

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def validate(self) -> None:
        if self.norm_error() > 1e-12:
            raise ValueError(f"state norm off by {self.norm_error():.3e}")

    @classmethod
    def ground(cls, n_q: int) -> "StateVector":
        amps = np.zeros(2**n_q, dtype=complex)
        amps[0] = 1.0
        return cls(amps)


@dataclass
class VqcParams:
    """Trainable rotation angles in radians.

    Shape (L, n_q) for single-angle Y rotations or (L, n_q, 3) for
    general rotations.
    """

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim not in (2, 3) or (self.phi.ndim == 3 and self.phi.shape[2] != 3):
            raise ValueError("phi must be (L, n_q) or (L, n_q, 3)")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be finite")

    @property
    def count(self) -> int:
        return self.phi.size

    def copy(self) -> "VqcParams":
        return VqcParams(self.phi.copy())

    @classmethod
    def random_init(cls, config: CircuitConfig, rng: np.random.Generator) -> "VqcParams":
        return cls(rng.uniform(-np.pi, np.pi, size=config.param_shape))


# -- batched kernels ---------------------------------------------------------


def _ry_batch(states: np.ndarray, qubit: int, angles, n_q: int) -> np.ndarray:
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


def _rz_batch(states: np.ndarray, qubit: int, angles, n_q: int) -> np.ndarray:
    """Apply Rz(angle) = diag(exp(-ia/2), exp(+ia/2)) on one qubit."""
    lead = states.shape[:-1]
    half = np.multiply(angles, 0.5)
    phase = np.asarray(np.exp(-1j * half))[..., None, None]
    shaped = states.reshape(*lead, 2**qubit, 2, 2 ** (n_q - qubit - 1))
    out = np.empty_like(shaped)
    out[..., 0, :] = phase * shaped[..., 0, :]
    out[..., 1, :] = np.conj(phase) * shaped[..., 1, :]
    return out.reshape(*lead, 2**n_q)


def _rot_batch(states: np.ndarray, qubit: int, a, b, c, n_q: int) -> np.ndarray:
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


def _cnot_batch(
    states: np.ndarray, control: int, target: int, n_q: int, inplace: bool = False
) -> np.ndarray:
    """Adjacent-or-not CNOT on states shaped (..., 2**n_q)."""
    lead = states.shape[:-1]
    a, b = sorted((control, target))
    shaped = states.reshape(*lead, 2**a, 2, 2 ** (b - a - 1), 2, 2 ** (n_q - b - 1))
    if not inplace:
        shaped = shaped.copy()
    if control < target:
        blk = shaped[..., 1, :, :, :]
        shaped[..., 1, :, :, :] = blk[..., ::-1, :].copy()
    else:
        blk = shaped[..., :, :, 1, :]
        shaped[..., :, :, 1, :] = blk[..., ::-1, :, :].copy()
    return shaped.reshape(*lead, 2**n_q)


def _ladder_inplace(states: np.ndarray, n_q: int) -> np.ndarray:
    for i in range(n_q - 1):
        states = _cnot_batch(states, i, i + 1, n_q, inplace=True)
    return states


def run_circuit_batch(
    config: CircuitConfig, params: VqcParams, thetas: np.ndarray
) -> np.ndarray:
    """Output states (N, 2**n_q) for a batch of normalized inputs (N, m)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if max(config.encoding_pattern) >= thetas.shape[1]:
        raise ValueError(
            f"encoding_pattern {config.encoding_pattern} needs theta of length "
            f"> {max(config.encoding_pattern)}, got {thetas.shape[1]}"
        )
    if params.phi.shape != config.param_shape:
        raise ValueError(
            f"params shape {params.phi.shape} does not match {config.param_shape}"
        )
    n = thetas.shape[0]
    states = np.zeros((n, config.dim), dtype=complex)
    states[:, 0] = 1.0
    enc = config.encoding_scale * thetas[:, list(config.encoding_pattern)]
    for layer in range(config.L):
        for qubit in range(config.n_q):
            states = _ry_batch(states, qubit, enc[:, qubit], config.n_q)
        for qubit in range(config.n_q):
            if config.trainable_gate == "rot":
                a, b, c = params.phi[layer, qubit]
                states = _rot_batch(states, qubit, a, b, c, config.n_q)
            else:
                states = _ry_batch(states, qubit, params.phi[layer, qubit], config.n_q)
        if config.n_q > 1:
            states = _ladder_inplace(states, config.n_q)
    return states


def z_expectations(states: np.ndarray, n_q: int) -> np.ndarray:
    """Pauli-Z expectation per qubit for states (..., 2**n_q) -> (..., n_q)."""
    probs = np.abs(states) ** 2
    lead = states.shape[:-1]
    out = np.empty((*lead, n_q))
    for j in range(n_q):
        shaped = probs.reshape(*lead, 2**j, 2, 2 ** (n_q - j - 1))
        p0 = shaped[..., 0, :].sum(axis=(-1, -2))
        p1 = shaped[..., 1, :].sum(axis=(-1, -2))
        out[..., j] = p0 - p1
    return out


# -- public single-state API --------------------------------------------------


def apply_ry(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Single-qubit Y rotation: [[cos a/2, -sin a/2], [sin a/2, cos a/2]]."""
    n_q = state.n_qubits
    if not 0 <= qubit < n_q:
        raise ValueError(f"qubit {qubit} out of range for {n_q} qubits")
    return StateVector(_ry_batch(state.amplitudes[None, :], qubit, float(angle), n_q)[0])


def apply_cnot_ladder(state: StateVector) -> StateVector:
    """CNOT(i, i+1) for i = 0..n_q-2 in order; no-op with warning on 1 qubit."""
    n_q = state.n_qubits
    if n_q < 2:
        warnings.warn("cnot ladder on a single qubit is a no-op", stacklevel=2)
        return StateVector(state.amplitudes.copy())
    return StateVector(_ladder_inplace(state.amplitudes[None, :].copy(), n_q)[0])


def run_circuit(
    config: CircuitConfig, params: VqcParams, theta_normalized: np.ndarray
) -> StateVector:
    """L layers of [encode -> trainable -> entangle] on the ground state."""
    states = run_circuit_batch(config, params, np.asarray(theta_normalized, float)[None, :])
    return StateVector(states[0])


def features(state: StateVector, gamma: float) -> np.ndarray:
    """Noisy feature vector h_j = (1-gamma) <Z_j>, each in [-1, 1].

    Exact under the global depolarizing channel: mixing in I/D adds zero
    to every Z expectation, leaving only the (1-gamma) contraction.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    z = z_expectations(state.amplitudes[None, :], state.n_qubits)[0]
    return (1.0 - gamma) * z


def features_sampled(
    state: StateVector, gamma: float, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Finite-shot estimate: binomial draws around each qubit's p(0)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    exact = features(state, gamma)
    p0 = (1.0 + exact) / 2.0
    counts = rng.binomial(shots, p0)
    return 2.0 * counts / shots - 1.0


def param_shift_grad(
    config: CircuitConfig,
    params: VqcParams,
    theta: np.ndarray,
    loss,
    gamma: float = 0.0,
) -> np.ndarray:
    """Gradient of loss(features) over phi via +-pi/2 shifted evaluations.

    Exact whenever the loss is a fixed linear functional of the features
    (each feature is a single-frequency trigonometric function of any one
    angle).  Two circuits per angle make it the test oracle for
    :func:`vjp`, which training uses instead.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(params.phi)
    for idx in np.ndindex(params.phi.shape):
        shifted = params.copy()
        shifted.phi[idx] += np.pi / 2.0
        plus = loss(features(run_circuit(config, shifted, theta), gamma))
        shifted.phi[idx] -= np.pi
        minus = loss(features(run_circuit(config, shifted, theta), gamma))
        grad[idx] = 0.5 * (plus - minus)
    return grad


# -- adjoint gradient ----------------------------------------------------------


def _z_signs(n_q: int) -> np.ndarray:
    """S[j, x] = +-1, the Z_j eigenvalue of basis state x: (n_q, 2**n_q)."""
    bits = np.arange(2**n_q)[None, :] >> np.arange(n_q - 1, -1, -1)[:, None]
    return 1.0 - 2.0 * (bits & 1)


def _im_z(pair: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Im <lam|Z_q|psi> for pair = (psi, lam) stacked on axis 0."""
    return np.imag(np.conj(pair[1]) * pair[0]) @ signs


def _im_y(pair: np.ndarray, qubit: int, n_q: int) -> np.ndarray:
    """Im <lam|Y_q|psi> = Re sum(conj(lam_1) psi_0 - conj(lam_0) psi_1)."""
    shaped = pair.reshape(*pair.shape[:-1], 2**qubit, 2, 2 ** (n_q - qubit - 1))
    psi, lam = shaped[0], shaped[1]
    z = np.conj(lam[..., 1, :]) * psi[..., 0, :] - np.conj(lam[..., 0, :]) * psi[..., 1, :]
    return z.real.sum(axis=(-1, -2))


def vjp(
    config: CircuitConfig,
    params: VqcParams,
    thetas: np.ndarray,
    dh: np.ndarray,
    gamma: float = 0.0,
) -> np.ndarray:
    """Per-sample gradient of sum_j dh[..., b, j] h[b, j] over phi.

    ``h = (1 - gamma) <Z_j>`` are the features of the N inputs ``thetas``;
    ``dh`` is (..., N, n_q) and the result (..., N, *param_shape).  Adjoint
    method (Jones & Gacon, arXiv:2009.02823): one forward pass, then the
    state psi and the costate lam = O psi, O = sum_j dh_j Z_j, walk the
    layers backwards together.  A gate exp(-i a G / 2) contributes
    d/da <psi|O|psi> = Im <lam|G|psi>, read where the gate has acted.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n_q = config.n_q
    psi = run_circuit_batch(config, params, thetas)
    dh = np.asarray(dh, dtype=float)
    if dh.shape[-2:] != (thetas.shape[0], n_q):
        raise ValueError(f"dh must be (..., {thetas.shape[0]}, {n_q}), got {dh.shape}")
    signs = _z_signs(n_q)
    pair = np.stack(np.broadcast_arrays(psi, (dh @ signs) * psi))
    enc = config.encoding_scale * thetas[:, list(config.encoding_pattern)]
    grad = np.empty((*dh.shape[:-1], *config.param_shape))
    for layer in reversed(range(config.L)):
        for i in reversed(range(n_q - 1)):
            pair = _cnot_batch(pair, i, i + 1, n_q, inplace=True)
        for qubit in reversed(range(n_q)):
            if config.trainable_gate == "rot":
                a, b, c = params.phi[layer, qubit]
                grad[..., layer, qubit, 2] = _im_z(pair, signs[qubit])
                pair = _rz_batch(pair, qubit, -c, n_q)
                grad[..., layer, qubit, 1] = _im_y(pair, qubit, n_q)
                pair = _ry_batch(pair, qubit, -b, n_q)
                grad[..., layer, qubit, 0] = _im_z(pair, signs[qubit])
                pair = _rz_batch(pair, qubit, -a, n_q)
            else:
                grad[..., layer, qubit] = _im_y(pair, qubit, n_q)
                pair = _ry_batch(pair, qubit, -params.phi[layer, qubit], n_q)
        if layer:  # the first layer's encoding precedes every trainable gate
            for qubit in reversed(range(n_q)):
                pair = _ry_batch(pair, qubit, -enc[:, qubit], n_q)
    return (1.0 - gamma) * grad


def feature_jacobian(
    config: CircuitConfig, params: VqcParams, thetas: np.ndarray, gamma: float = 0.0
) -> np.ndarray:
    """d h / d phi for a batch: (N, n_q, *param_shape).

    One :func:`vjp` with the n_q one-hot cotangents stacked on a leading
    axis.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, n_q = thetas.shape[0], config.n_q
    onehot = np.broadcast_to(np.eye(n_q)[:, None, :], (n_q, n, n_q))
    return np.moveaxis(vjp(config, params, thetas, onehot, gamma), 0, 1)


def trace_distance_pure(psi: np.ndarray, phi: np.ndarray) -> float:
    """Trace distance between pure states: sqrt(1 - |<psi|phi>|^2)."""
    overlap = abs(np.vdot(psi, phi)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))
