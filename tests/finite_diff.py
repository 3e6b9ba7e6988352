"""Central-difference gradients: the reference the analytic gradients are tested against."""

import numpy as np


def finite_diff_gradient(f, theta, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar objective over angles.

    Raises:
        ValueError: if the objective returns a non-finite value at any
            probe point.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        probe = theta.copy()
        probe[k] = theta[k] + step
        up = float(f(probe))
        probe[k] = theta[k] - step
        down = float(f(probe))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"objective non-finite near coordinate {k}")
        grad[k] = (up - down) / (2.0 * step)
    return grad
