"""The noisy singlet: one fixed two-qubit circuit with depolarizing noise.

The circuit X(q1), H(q0), CNOT(q0 -> q1), Z(q0) takes |00> to the singlet.
The depolarizing channel is the mixture
N_p(rho) = (1-3p) rho + p (X rho X + Y rho Y + Z rho Z) applied on one qubit;
it is a valid probability mixture for 0 <= p <= 1/3 and contracts that
qubit's Bloch components by (1 - 4p).

`prepare_noisy_singlets` runs the circuit on a stack of states, one per noise
model: a noise sweep is one pass, and one state is a stack of one. Every gate
and every channel validates every state in its output stack (finite entries,
trace, Hermiticity, positivity), once per gate or channel, so CPTP violations
surface immediately rather than as corrupted correlators downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import EMBEDDED_PAULIS, check_state

__all__ = [
    "NoiseModel",
    "PLACEMENT_AFTER_EACH_GATE",
    "PLACEMENT_FINAL_ONLY",
    "PLACEMENTS",
    "SINGLET_CIRCUIT",
    "prepare_noisy_singlets",
]

PLACEMENT_AFTER_EACH_GATE = "after-each-gate-on-touched-qubits"
PLACEMENT_FINAL_ONLY = "final-state-only"
PLACEMENTS = (PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY)

P_MAX = 1.0 / 3.0


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


_X0, _, _Z0 = EMBEDDED_PAULIS[0]
_X1 = EMBEDDED_PAULIS[1, 0]
_H0 = (_X0 + _Z0) / np.sqrt(2.0)
_H0.flags.writeable = False
# |0><0| (x) I + |1><1| (x) X, with |0><0| = (I + Z)/2 and |1><1| = (I - Z)/2
_CNOT01 = (np.eye(4, dtype=complex) + _Z0 + _X1 - _Z0 @ _X1) / 2.0
_CNOT01.flags.writeable = False

# Singlet preparation on |00> as (unitary, touched qubits) pairs:
# X(q1), H(q0), CNOT(q0 -> q1), Z(q0).
SINGLET_CIRCUIT = ((_X1, (1,)), (_H0, (0,)), (_CNOT01, (0, 1)), (_Z0, (0,)))


def _depolarize(rho: np.ndarray, qubit: int, p) -> np.ndarray:
    # p is a strength or an array of them that broadcasts against the stack rho
    out = (1.0 - 3.0 * p) * rho
    for k in EMBEDDED_PAULIS[qubit]:
        out += p * (k @ rho @ k.conj().T)
    return check_state(out)


def prepare_noisy_singlets(models) -> np.ndarray:
    """Run the singlet circuit once on a stack of states, one per noise model (k, 4, 4).

    Default placement inserts the channel on every qubit a gate touches,
    immediately after that gate (so qubit 0 sees three channels and qubit 1
    two). Final-state-only runs the circuit noiselessly and applies one
    channel per qubit at the end. At p = 0 both give the exact singlet.

    The models share one placement. A state's bits do not depend on the other
    models in the stack.

    Raises:
        ValueError: on an empty stack, or models with different placements.
    """
    placements = {nm.placement for nm in models}
    if len(placements) != 1:
        raise ValueError(f"need noise models with one placement, got {sorted(placements)}")
    (placement,) = placements
    p = np.array([nm.p for nm in models])[:, None, None]  # state i at strength p[i, 0, 0]
    rho = np.zeros((len(p), 4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0
    for u, touched in SINGLET_CIRCUIT:
        rho = check_state(u @ rho @ u.conj().T)
        if placement == PLACEMENT_AFTER_EACH_GATE:
            for qubit in touched:
                rho = _depolarize(rho, qubit, p)
    if placement == PLACEMENT_FINAL_ONLY:
        for qubit in (0, 1):
            rho = _depolarize(rho, qubit, p)
    return rho
