"""Exact statevector simulation of the data-reuploading circuit.

Qubit j corresponds to bit (n_q - 1 - j) of the basis index, i.e. qubit 0
is the leftmost label in ket notation.  Gate kernels operate on arrays of
shape (..., 2**n_q) so a whole batch of inputs moves through the circuit
in one call.

Depolarizing noise never needs a density matrix here: the global channel
rho -> (1-g) rho + g I/D leaves every Pauli-Z expectation contracted by
exactly (1-g) because Z is traceless, so noisy features come from the
pure-state expectations analytically (infinite-shot limit).

Gradients over the trainable angles come from one adjoint pass
(:func:`vjp`); the parameter-shift rule is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    theta = np.asarray(theta, dtype=float)[None, :]

    def loss_at(shifted: VqcParams) -> float:
        z = z_expectations(run_circuit_batch(config, shifted, theta), config.n_q)[0]
        return loss((1.0 - gamma) * z)

    grad = np.zeros_like(params.phi)
    for idx in np.ndindex(params.phi.shape):
        shifted = params.copy()
        shifted.phi[idx] += np.pi / 2.0
        plus = loss_at(shifted)
        shifted.phi[idx] -= np.pi
        grad[idx] = 0.5 * (plus - loss_at(shifted))
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
    states: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample gradient of sum_j dh[..., b, j] h[b, j] over phi.

    ``h = (1 - gamma) <Z_j>`` are the features of the N inputs ``thetas``;
    ``dh`` is (..., N, n_q) and the result (..., N, *param_shape).  Adjoint
    method (Jones & Gacon, arXiv:2009.02823): one forward pass, then the
    state psi and the costate lam = O psi, O = sum_j dh_j Z_j, walk the
    layers backwards together.  A gate exp(-i a G / 2) contributes
    d/da <psi|O|psi> = Im <lam|G|psi>, read where the gate has acted.
    ``states`` are the final states ``run_circuit_batch`` returns for
    ``thetas``, when the caller has them; otherwise the forward pass runs here.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n_q = config.n_q
    psi = run_circuit_batch(config, params, thetas) if states is None else states
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
