"""The noisy singlet: one fixed two-qubit circuit with depolarizing noise.

The circuit X(q1), H(q0), CNOT(q0 -> q1), Z(q0) takes |00> to the singlet.
The depolarizing channel is the mixture
N_p(rho) = (1-3p) rho + p (X rho X + Y rho Y + Z rho Z) applied on one qubit;
it is a valid probability mixture for 0 <= p <= 1/3 and contracts that
qubit's Bloch components by (1 - 4p).

`prepare_noisy_singlets` runs the circuit on a stack of states, one per noise
strength: a noise sweep is one pass, and one state is a stack of one. Every gate
and every channel validates every state in its output stack (finite entries,
trace, Hermiticity, positivity), once per gate or channel, so CPTP violations
surface immediately rather than as corrupted correlators downstream.
"""

from __future__ import annotations

import numpy as np

from .pauli import EMBEDDED_PAULIS, check_state

__all__ = [
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


def prepare_noisy_singlets(ps, placement: str = PLACEMENT_AFTER_EACH_GATE) -> np.ndarray:
    """Run the singlet circuit once on a stack of states, one per noise strength (k, 4, 4).

    Default placement inserts the channel on every qubit a gate touches,
    immediately after that gate (so qubit 0 sees three channels and qubit 1
    two). Final-state-only runs the circuit noiselessly and applies one
    channel per qubit at the end. At p = 0 both give the exact singlet.

    A state's bits do not depend on the other strengths in the stack.

    Raises:
        ValueError: on an empty or non-flat stack, a strength outside [0, 1/3] (nan
            included; the first such is named), or an unknown placement.
    """
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise ValueError(f"need a non-empty list of noise strengths, got shape {ps.shape}")
    for p in ps.tolist():
        if not (0.0 <= p <= P_MAX):
            raise ValueError(f"noise strength must lie in [0, 1/3], got {p!r}")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; choose from {PLACEMENTS}")
    p = ps[:, None, None]  # state i at strength p[i, 0, 0]
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
