"""Two-party dichotomic Bell expressions and exact classical bounds.

Bound orientation follows I >= beta_C: the classical bound is the minimum of
the expression over local deterministic strategies, and a "higher" bound means
less negative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Scenario",
    "BellCoeffs",
    "DeterministicStrategy",
    "classical_bound",
    "classical_bound_bruteforce",
    "gisin_variant",
    "gisin_bound_closed_form",
    "bell_value",
]

# Full enumeration is refused beyond this many total settings.
BRUTEFORCE_MAX_SETTINGS = 24
# The enumerator holds n * max(m1, m2) * 2^min(m1, m2) products for a batch of n
# coefficient matrices; it refuses batches beyond those of one 20x20 matrix
# (20 * 2^20 entries, a 522 MB peak).
ENUMERATION_MAX_SIDE = 20


@dataclass(frozen=True)
class Scenario:
    """An (m1, 2, m2, 2) scenario: setting counts for the two parties."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 2 or self.m2 < 2:
            raise ValueError(
                f"need at least two settings per party, got ({self.m1}, {self.m2})"
            )


@dataclass(frozen=True)
class BellCoeffs:
    """Correlator coefficients alpha[x1, x2] of a two-party Bell expression."""

    scenario: Scenario
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        expected = (self.scenario.m1, self.scenario.m2)
        if alpha.shape != expected:
            raise ValueError(f"alpha shape {alpha.shape} does not match {expected}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_matrix(cls, alpha) -> "BellCoeffs":
        alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        return cls(Scenario(alpha.shape[0], alpha.shape[1]), alpha)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed +-1 outcome assignments, one per setting of each party."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            v = np.asarray(getattr(self, name), dtype=int)
            if v.ndim != 1 or not np.all(np.abs(v) == 1):
                raise ValueError(f"{name} must be a 1-d array of +-1 entries")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def correlators(self) -> np.ndarray:
        """Rank-one correlator matrix a_x1 * b_x2 realized by this strategy."""
        return np.outer(self.a, self.b).astype(float)


@functools.lru_cache(maxsize=None)
def _sign_patterns(m: int) -> np.ndarray:
    # All +-1 tuples of length m in lexicographic order with -1 < +1: one
    # read-only table per m, built on first use.
    k = np.arange(2**m)
    bits = (k[:, None] >> np.arange(m - 1, -1, -1)) & 1
    patterns = (2 * bits - 1).astype(float)
    patterns.flags.writeable = False
    return patterns


def _check_batch_budget(n: int, per_matrix: int, what: str, *args):
    # Refuses n matrices' worth of per_matrix entries, described by what.format(*args)
    # (formatted only then), beyond the entries of one ENUMERATION_MAX_SIDE-square enumeration.
    if n * per_matrix > ENUMERATION_MAX_SIDE * 2**ENUMERATION_MAX_SIDE:
        raise ValueError(
            f"too large to enumerate: {n} x {what.format(*args)} exceed "
            f"{ENUMERATION_MAX_SIDE} x 2^{ENUMERATION_MAX_SIDE}"
        )


def _check_enumeration(n: int, m1: int, m2: int):
    big, small = max(m1, m2), min(m1, m2)
    _check_batch_budget(n, big * 2**small, "{} x 2^{} products", big, small)


def _enumerate_side(amats: np.ndarray):
    # The smaller side's K sign patterns for a batch (n, m1, m2), the other side's products with
    # each (n, max(m1, m2), K), a view if m2 > m1, and each one's value -sum|products| (n, K).
    n, m1, m2 = amats.shape
    _check_enumeration(n, m1, m2)
    if m2 <= m1:
        patterns = _sign_patterns(m2)
        products = (amats.reshape(-1, m2) @ patterns.T).reshape(n, m1, -1)
    else:
        patterns = _sign_patterns(m1)
        products = patterns @ amats.transpose(1, 0, 2).reshape(m1, -1)
        products = products.reshape(-1, n, m2).transpose(1, 2, 0)
    return patterns, products, -np.abs(products).sum(axis=1)


def _signs_from_rows(rows: np.ndarray) -> np.ndarray:
    # Outcome that turns each row sum r into -|r|; free entries (r == 0) go to
    # -1, the lexicographically smallest choice.
    return np.where(rows < 0, 1.0, -1.0)


def _enumerated_bounds(amats: np.ndarray):
    # Exact classical bounds (n,) of a batch of coefficient matrices (n, m1, m2) and
    # a winning strategy a (n, m1), b (n, m2): the first optimal pattern of the
    # smaller side and the signs it induces on the other.
    patterns, products, values = _enumerate_side(amats)
    idx, k = np.arange(len(amats)), values.argmin(axis=1)
    a, b = _signs_from_rows(products[idx, :, k]), patterns[k]
    if amats.shape[2] > amats.shape[1]:
        a, b = b, a
    return values[idx, k], a, b


def classical_bound(bc: BellCoeffs) -> tuple[float, DeterministicStrategy]:
    """Exact classical bound and an optimal deterministic strategy.

    Computes beta_C = min over strategies of sum alpha[x1,x2] a[x1] b[x2] via
    the reduction min_b of -sum_x1 |sum_x2 alpha[x1,x2] b[x2]|, enumerating
    the smaller party side. Ties are broken toward the lexicographically
    smallest b, then a (with -1 ordered before +1).

    Raises:
        ValueError: if max(m1, m2) * 2^min(m1, m2) exceeds
            ENUMERATION_MAX_SIDE * 2^ENUMERATION_MAX_SIDE.
    """
    alpha = bc.alpha
    patterns, (products,), (values,) = _enumerate_side(alpha[None])
    winners = np.flatnonzero(values == values.min())
    # Every optimal pair's b is a winning pattern or, when a is enumerated (m2 > m1),
    # the signs a winning a induces; the lexicographically smallest is among these.
    wide = alpha.shape[1] > alpha.shape[0]
    candidates = _signs_from_rows(products[:, winners].T) if wide else patterns[winners]
    b = candidates[np.lexsort(candidates.T[::-1])[0]]
    witness = DeterministicStrategy(a=_signs_from_rows(alpha @ b), b=b)
    # Report the witness's own evaluation so the bound and its certificate
    # agree bit-for-bit.
    return bell_value(bc, witness.correlators()), witness


def classical_bound_bruteforce(bc: BellCoeffs) -> float:
    """Classical bound by full enumeration of all 2^(m1+m2) strategies.

    Testing oracle; refuses scenarios with m1 + m2 > 24.
    """
    m1, m2 = bc.alpha.shape
    if m1 + m2 > BRUTEFORCE_MAX_SETTINGS:
        raise ValueError(
            f"scenario too large for brute force: {m1}+{m2} > {BRUTEFORCE_MAX_SETTINGS}"
        )
    b_patterns = _sign_patterns(m2)
    a_patterns = _sign_patterns(m1)
    best = np.inf
    chunk = 4096
    for start in range(0, a_patterns.shape[0], chunk):
        block = a_patterns[start : start + chunk]
        values = block @ bc.alpha @ b_patterns.T
        best = min(best, float(values.min()))
    return best


def gisin_variant(delta: float) -> BellCoeffs:
    """The (4,2,3,2) coefficient family with tunable third-column weight."""
    d = float(delta)
    alpha = np.array(
        [
            [1.0, 1.0, d],
            [1.0, -1.0, -d],
            [-1.0, 1.0, -d],
            [-1.0, -1.0, d],
        ]
    )
    return BellCoeffs(Scenario(4, 3), alpha)


def gisin_bound_closed_form(delta: float) -> float:
    """Closed-form classical bound -2|d| - |d+2| - |d-2| of the variant family."""
    d = float(delta)
    return -2.0 * abs(d) - abs(d + 2.0) - abs(d - 2.0)


def bell_value(bc: BellCoeffs, corr) -> float:
    """Evaluate sum alpha[x1,x2] * corr[x1,x2] for a correlator matrix."""
    corr = np.asarray(corr, dtype=float)
    if corr.shape != bc.alpha.shape:
        raise ValueError(
            f"correlator shape {corr.shape} does not match alpha {bc.alpha.shape}"
        )
    if np.max(np.abs(corr)) > 1.0 + 1e-9:
        raise ValueError("correlator entries must lie in [-1, 1]")
    return float(np.sum(bc.alpha * corr))
