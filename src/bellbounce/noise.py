"""Two-qubit density-matrix circuit simulator with depolarizing noise.

Qubit 0 is the first tensor factor. The depolarizing channel is the mixture
N_p(rho) = (1-3p) rho + p (X rho X + Y rho Y + Z rho Z) applied on one qubit;
it is a valid probability mixture for 0 <= p <= 1/3 and contracts that
qubit's Bloch components by (1 - 4p).

Every simulator step validates its output state (trace, Hermiticity,
positivity), so CPTP violations surface immediately rather than as corrupted
correlators downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, check_state

__all__ = [
    "GateStep",
    "NoiseModel",
    "PLACEMENT_AFTER_EACH_GATE",
    "PLACEMENT_FINAL_ONLY",
    "PLACEMENTS",
    "SINGLET_CIRCUIT",
    "apply_gate",
    "apply_depolarizing",
    "prepare_noisy_singlet",
]

PLACEMENT_AFTER_EACH_GATE = "after-each-gate-on-touched-qubits"
PLACEMENT_FINAL_ONLY = "final-state-only"
PLACEMENTS = (PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY)

P_MAX = 1.0 / 3.0

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_SINGLE_QUBIT = {"X": SIGMA_X, "H": _HADAMARD, "Z": SIGMA_Z}
_PROJ_0 = np.array([[1, 0], [0, 0]], dtype=complex)
_PROJ_1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class GateStep:
    """One circuit element: kind in {X, H, Z, CNOT} and its target qubits."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if any(t not in (0, 1) for t in self.targets):
            raise ValueError(f"targets must be qubit indices 0 or 1, got {self.targets}")
        if self.kind == "CNOT":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CNOT needs distinct (control, target) qubits")
        elif self.kind in _SINGLE_QUBIT:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} gate takes exactly one target")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength and channel placement policy."""

    p: float
    placement: str = PLACEMENT_AFTER_EACH_GATE

    def __post_init__(self):
        if not (0.0 <= self.p <= P_MAX):
            raise ValueError(f"noise strength must lie in [0, 1/3], got {self.p!r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENTS}"
            )


# Singlet preparation: X(q1), H(q0), CNOT(q0 -> q1), Z(q0) on |00>.
SINGLET_CIRCUIT = (
    GateStep("X", (1,)),
    GateStep("H", (0,)),
    GateStep("CNOT", (0, 1)),
    GateStep("Z", (0,)),
)


def _embed_single(u: np.ndarray, qubit: int) -> np.ndarray:
    if qubit == 0:
        return np.kron(u, IDENTITY_2)
    return np.kron(IDENTITY_2, u)


def _gate_unitary(gate: GateStep) -> np.ndarray:
    if gate.kind == "CNOT":
        control, target = gate.targets
        flip = _embed_single(SIGMA_X, target)
        return _embed_single(_PROJ_0, control) @ np.eye(4) + _embed_single(
            _PROJ_1, control
        ) @ flip
    return _embed_single(_SINGLE_QUBIT[gate.kind], gate.targets[0])


def apply_gate(rho, gate: GateStep) -> np.ndarray:
    """Conjugate the state by the gate unitary and validate the result."""
    rho = np.asarray(rho, dtype=complex)
    u = _gate_unitary(gate)
    return check_state(u @ rho @ u.conj().T)


def apply_depolarizing(rho, qubit: int, p: float) -> np.ndarray:
    """Apply the single-qubit depolarizing mixture on the given qubit."""
    if not (0.0 <= p <= P_MAX):
        raise ValueError(f"noise strength must lie in [0, 1/3], got {p!r}")
    if qubit not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {qubit!r}")
    rho = np.asarray(rho, dtype=complex)
    out = (1.0 - 3.0 * p) * rho
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        k = _embed_single(sigma, qubit)
        out += p * (k @ rho @ k.conj().T)
    return check_state(out)


def _initial_state() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def prepare_noisy_singlet(nm: NoiseModel) -> np.ndarray:
    """Run the singlet circuit under the noise model's placement policy.

    Default placement inserts the channel on every qubit a gate touches,
    immediately after that gate (so qubit 0 sees three channels and qubit 1
    two). Final-state-only runs the circuit noiselessly and applies one
    channel per qubit at the end. At p = 0 both give the exact singlet.
    """
    rho = _initial_state()
    for gate in SINGLET_CIRCUIT:
        rho = apply_gate(rho, gate)
        if nm.placement == PLACEMENT_AFTER_EACH_GATE:
            for qubit in gate.targets:
                rho = apply_depolarizing(rho, qubit, nm.p)
    if nm.placement == PLACEMENT_FINAL_ONLY:
        for qubit in (0, 1):
            rho = apply_depolarizing(rho, qubit, nm.p)
    return rho
