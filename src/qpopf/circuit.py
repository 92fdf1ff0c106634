"""Exact statevector simulation of the data-reuploading circuit.

Qubit j corresponds to bit (n_q - 1 - j) of the basis index, i.e. qubit 0
is the leftmost label in ket notation.  States are arrays (..., 2**n_q),
so a whole batch of inputs moves through the circuit in one call.

Each call tables its gates once, with vectorized numpy: the encoding
rotations per sample and qubit, the trainable gates per layer and qubit.
A single-qubit gate is then one broadcast multiply (its four products),
one subtraction and one addition into preallocated buffers, and each
layer's CNOT ladder is one gather by a fixed permutation (the Gray code).
Every amplitude gets the products and sums a gate-by-gate kernel gives
it, so the states are bitwise the same.  One exception: on a CPU with
fused multiply-add, numpy rounds a one-element complex product of
multi-dimensional arrays without it, and a gate-by-gate kernel makes such
products only for a one-qubit "rot" circuit on one sample.

Depolarizing noise never needs a density matrix here: the global channel
rho -> (1-g) rho + g I/D leaves every Pauli-Z expectation contracted by
exactly (1-g) because Z is traceless, so noisy features come from the
pure-state expectations analytically (infinite-shot limit).

Gradients over the trainable angles come from one adjoint pass
(:func:`vjp`) over the same tables, the ladder gathered by the inverse
permutation; the parameter-shift rule is its oracle in the tests.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.encoding_scale) and self.encoding_scale > 0):
            raise ValueError(f"encoding_scale must be finite and > 0, got {self.encoding_scale}")
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


# -- gate tables and the state walk --------------------------------------------


def _coefficients(m00, m01, m10, m11) -> np.ndarray:
    """Gate matrices [[m00, -m01], [m10, m11]] as a table (2, 2, *gates).

    Entry [0] is A = (m00, m10), the column that multiplies the amplitudes
    where the qubit reads 0, and [1] is C = (m01, m11), the one for 1: the
    new rows are A0 a0 - C0 a1 and A1 a0 + C1 a1.  A real table stays real;
    the product casts it to complex exactly, as it did a kernel's cos and sin.
    """
    return np.array([[m00, m10], [m01, m11]])


def _ry_table(angles) -> np.ndarray:
    """Ry(angle) = [[c, -s], [s, c]], c, s = cos, sin(angle / 2), for every angle."""
    half = np.multiply(angles, 0.5)
    c, s = np.cos(half), np.sin(half)
    return _coefficients(c, s, s, c)


def _rot_table(phi: np.ndarray) -> np.ndarray:
    """Fused Rz(c) Ry(b) Rz(a) for every angle triple (a, b, c) on the last axis of phi."""
    a, b, c = phi[..., 0], phi[..., 1], phi[..., 2]
    cos_b = np.cos(np.multiply(b, 0.5))
    sin_b = np.sin(np.multiply(b, 0.5))
    e_m = np.exp(-0.5j * (np.add(a, c)))   # phase on |0><0|
    e_d = np.exp(0.5j * (np.subtract(a, c)))
    return _coefficients(e_m * cos_b, e_d * sin_b, np.conj(e_d) * sin_b, np.conj(e_m) * cos_b)


def _rz_table(angles) -> np.ndarray:
    """Rz(angle) = diag(exp(-ia/2), exp(+ia/2)) for every angle, shaped (*angles, 2, 1)."""
    phase = np.exp(-1j * np.multiply(angles, 0.5))
    return np.stack([phase, np.conj(phase)], axis=-1)[..., None]


def _ladder_permutation(n_q: int) -> np.ndarray:
    """The CNOT ladder CNOT(0, 1) ... CNOT(n_q - 2, n_q - 1) as a gather: new = old[..., perm].

    The ladder XORs each qubit into the next, so basis state x goes to the
    prefix XOR of its bits (qubit 0 is the top bit), whose inverse is the
    Gray code: new[y] = old[y ^ (y >> 1)].
    """
    index = np.arange(2**n_q)
    return index ^ (index >> 1)


class _Walk:
    """States (*lead, 2**n_q) taken through gates in place.

    A gate's four products go to a scratch laid out (A or C, row, *lead,
    2**q, rest) in one broadcast multiply; each output row is then one
    subtraction or addition of two contiguous scratch rows, written back
    over the states.  The scratch and every view are made here, once.
    """

    def __init__(self, states: np.ndarray, n_q: int):
        self.states = states
        lead = states.shape[:-1]
        scratch = np.empty((2, 2, states.size // 2), dtype=complex)
        self.spare = scratch.reshape(-1)[: states.size].reshape(states.shape)
        halves_first = (len(lead) + 1, *range(len(lead) + 1), len(lead) + 2)
        self.lead = lead
        self.views, self.halves, self.rows, self.products = [], [], [], []
        for qubit in range(n_q):
            split = (2**qubit, 2, 2 ** (n_q - qubit - 1))
            view = states.reshape(*lead, *split)
            self.views.append(view)
            # (a0 or a1, 1, *lead, 2**qubit, rest): the amplitudes where the qubit reads 0, 1
            self.halves.append(view.transpose(halves_first)[:, None])
            self.rows.append((view[..., 0, :], view[..., 1, :]))
            pq = scratch.reshape(2, 2, *lead, split[0], split[2])
            self.products.append((pq, pq[0, 0], pq[1, 0], pq[0, 1], pq[1, 1]))

    def broadcast(self, table: np.ndarray, per_sample: bool = False) -> np.ndarray:
        """A gate table (2, 2, *gates) as (*gates, 2, 2, ...): each gate's entry
        broadcasts against the products scratch.

        A ``per_sample`` table has one gate per sample on its last axis,
        (2, 2, *gates, N), and each sample's gate meets only that sample's
        states.  The result is a view.
        """
        samples = self.lead[-1] if per_sample else 1
        gates = table.shape[2 : table.ndim - 1] if per_sample else table.shape[2:]
        order = (*range(2, 2 + len(gates)), 0, 1, *range(2 + len(gates), table.ndim))
        ones = (1,) * (len(self.lead) - 1)
        return table.transpose(order).reshape(*gates, 2, 2, *ones, samples, 1, 1)

    def gate(self, coefficients: np.ndarray, qubit: int) -> None:
        """One single-qubit gate given by a broadcast table entry (2, 2, ...)."""
        products, a0_row0, a1_row0, a0_row1, a1_row1 = self.products[qubit]
        np.multiply(coefficients, self.halves[qubit], out=products)
        out0, out1 = self.rows[qubit]
        # a subtraction, not -C0 in the table: (-C0) a1 can round an exact zero
        # to the other sign, and a real (ry) circuit's imaginary parts are all zero
        np.subtract(a0_row0, a1_row0, out=out0)
        np.add(a0_row1, a1_row1, out=out1)

    def phases(self, phases: np.ndarray, qubit: int) -> None:
        """A diagonal gate, ``phases`` (2, 1) on the qubit's two halves."""
        np.multiply(phases, self.views[qubit], out=self.views[qubit])

    def gather(self, perm: np.ndarray) -> None:
        """Permute the basis states: new[..., y] = old[..., perm[y]]."""
        np.take(self.states, perm, axis=-1, out=self.spare)
        np.copyto(self.states, self.spare)


def run_circuit_batch(
    config: CircuitConfig, params: VqcParams, thetas: np.ndarray
) -> np.ndarray:
    """Output states (N, 2**n_q) for a batch of normalized inputs (N, m).

    Each gate family's coefficients are tabled once per call (the
    encoding per sample, the trainable gates per layer and qubit), and each
    layer's CNOT ladder is one gather.
    """
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
    states = np.zeros((thetas.shape[0], config.dim), dtype=complex)
    states[:, 0] = 1.0
    walk = _Walk(states, config.n_q)
    encoding = walk.broadcast(
        _ry_table(config.encoding_scale * thetas.T[list(config.encoding_pattern)]), per_sample=True
    )
    trainable = walk.broadcast(
        _rot_table(params.phi) if config.trainable_gate == "rot" else _ry_table(params.phi)
    )
    ladder = _ladder_permutation(config.n_q)
    for layer in range(config.L):
        for qubit in range(config.n_q):
            walk.gate(encoding[qubit], qubit)
        for qubit in range(config.n_q):
            walk.gate(trainable[layer, qubit], qubit)
        walk.gather(ladder)
    return walk.states


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
    states: np.ndarray,
) -> np.ndarray:
    """Per-sample gradient of sum_j dh[..., b, j] h[b, j] over phi.

    ``h = <Z_j>`` are the noise-free features of the N inputs ``thetas``,
    whose final states ``run_circuit_batch`` returned as ``states``;
    ``dh`` is (..., N, n_q) and the result (..., N, *param_shape).  Adjoint
    method (Jones & Gacon, arXiv:2009.02823): the state psi and the
    costate lam = O psi, O = sum_j dh_j Z_j, walk the layers backwards
    together through the inverse gates, tabled once per call, and each
    ladder's inverse permutation.  A gate exp(-i a G / 2) contributes
    d/da <psi|O|psi> = Im <lam|G|psi>, read where it has acted.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n_q = config.n_q
    dh = np.asarray(dh, dtype=float)
    if dh.shape[-2:] != (thetas.shape[0], n_q):
        raise ValueError(f"dh must be (..., {thetas.shape[0]}, {n_q}), got {dh.shape}")
    signs = _z_signs(n_q)
    walk = _Walk(np.stack(np.broadcast_arrays(states, (dh @ signs) * states)), n_q)
    encoding = walk.broadcast(
        _ry_table(-(config.encoding_scale * thetas.T[list(config.encoding_pattern)])),
        per_sample=True,
    )
    rot = config.trainable_gate == "rot"
    if rot:
        trainable = walk.broadcast(_ry_table(-params.phi[..., 1]))
        phases = _rz_table(-params.phi[..., ::2])   # Rz(-a), Rz(-c)
    else:
        trainable = walk.broadcast(_ry_table(-params.phi))
    unladder = np.argsort(_ladder_permutation(n_q))
    grad = np.empty((*dh.shape[:-1], *config.param_shape))
    for layer in reversed(range(config.L)):
        walk.gather(unladder)
        for qubit in reversed(range(n_q)):
            if rot:
                grad[..., layer, qubit, 2] = _im_z(walk.states, signs[qubit])
                walk.phases(phases[layer, qubit, 1], qubit)
                grad[..., layer, qubit, 1] = _im_y(walk.states, qubit, n_q)
                walk.gate(trainable[layer, qubit], qubit)
                grad[..., layer, qubit, 0] = _im_z(walk.states, signs[qubit])
                walk.phases(phases[layer, qubit, 0], qubit)
            else:
                grad[..., layer, qubit] = _im_y(walk.states, qubit, n_q)
                walk.gate(trainable[layer, qubit], qubit)
        if layer:  # the first layer's encoding precedes every trainable gate
            for qubit in reversed(range(n_q)):
                walk.gate(encoding[qubit], qubit)
    return grad
