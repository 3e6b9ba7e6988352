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
# The enumerator forms n * max(m1, m2) * 2^(min(m1, m2) - 1) products for a batch of n
# coefficient matrices; it refuses batches beyond those of one 20x20 matrix (20 * 2^20
# entries by the full count). Blocks keep its memory bounded, so this bounds time.
ENUMERATION_MAX_SIDE = 20
# Sign patterns per enumeration block, as a power of two: a 20-column block of products
# holds 20 * 2^13 floats (1.3 MB).
PATTERN_BLOCK_BITS = 13


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
    """Correlator coefficients alpha[x1, x2] of a two-party Bell expression.

    Its scenario (m1, m2) is alpha's shape."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim != 2:
            raise ValueError(f"alpha must be a 2-d coefficient matrix, got shape {alpha.shape}")
        Scenario(*alpha.shape)  # refuses fewer than two settings per party
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        # |a^T alpha b| <= m1 * m2 * max|alpha| bounds every enumerated sum
        if np.max(np.abs(alpha)) > np.finfo(float).max / alpha.size:
            m1, m2 = alpha.shape
            raise ValueError(f"alpha entries too large: {m1} x {m2} x max|alpha| overflows")
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    @property
    def scenario(self) -> Scenario:
        return Scenario(*self.alpha.shape)


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


def _pattern_blocks(m: int, bits: int, block_bits: int = PATTERN_BLOCK_BITS):
    # The first 2^bits sign patterns of length m in lexicographic order, in blocks of
    # 2^block_bits: one slice of the cached table if they fit in one block, else each block's
    # constant prefix of m - block_bits entries over the cached table of the rest.
    if bits <= block_bits:
        return (_sign_patterns(m)[: 2**bits],)
    low, prefixes = _sign_patterns(block_bits), _sign_patterns(m - block_bits)
    return (
        np.hstack([np.broadcast_to(prefix, (len(low), len(prefix))), low])
        for prefix in prefixes[: 2 ** (bits - block_bits)]
    )


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


def _side_products(amats: np.ndarray, patterns: np.ndarray):
    # For a batch (n, m1, m2) and K sign patterns of the smaller side: the other side's
    # products with each (n, max(m1, m2), K), a view if m2 > m1, and each one's value
    # -sum|products| (n, K).
    n, m1, m2 = amats.shape
    if m2 <= m1:
        products = (amats.reshape(-1, m2) @ patterns.T).reshape(n, m1, -1)
    else:
        columns = amats.transpose(1, 0, 2).reshape(m1, -1)
        products = (patterns @ columns).reshape(-1, n, m2).transpose(1, 2, 0)
    return products, -np.abs(products).sum(axis=1)


def _signs_from_rows(rows: np.ndarray) -> np.ndarray:
    # Outcome that turns each row sum r into -|r|; free entries (r == 0) go to
    # -1, the lexicographically smallest choice.
    return np.where(rows < 0, 1.0, -1.0)


def _enumerated_bounds(amats: np.ndarray):
    # Exact classical bounds (n,) of a batch of coefficient matrices (n, m1, m2) and
    # a winning strategy a (n, m1), b (n, m2): the first optimal pattern of the
    # smaller side and the signs it induces on the other. That pattern starts with -1,
    # since its flip is optimal too, and a later block replaces a row only if strictly lower.
    # Callers check the budget first (_check_enumeration): the engine once per batch size.
    # A smaller side of up to 14 settings has one block, and no generator runs.
    m, idx = min(amats.shape[1:]), np.arange(len(amats))
    blocks = iter(_pattern_blocks(m, m - 1))
    patterns = next(blocks)
    products, values = _side_products(amats, patterns)
    k = values.argmin(axis=1)
    bounds, a, b = values[idx, k], _signs_from_rows(products[idx, :, k]), patterns[k]
    for patterns in blocks:
        products, values = _side_products(amats, patterns)
        k = values.argmin(axis=1)
        lower = values[idx, k] < bounds
        bounds[lower] = values[lower, k[lower]]
        a[lower] = _signs_from_rows(products[lower, :, k[lower]])
        b[lower] = patterns[k[lower]]
    if amats.shape[2] > amats.shape[1]:
        a, b = b, a
    return bounds, a, b


def classical_bound(bc: BellCoeffs) -> tuple[float, DeterministicStrategy]:
    """Exact classical bound and an optimal deterministic strategy.

    Computes beta_C = min over strategies of sum alpha[x1,x2] a[x1] b[x2] via
    the reduction to -sum |row sums| over the sign patterns of the smaller
    party side. The witness is the lexicographically smallest optimal sign
    pattern of the smaller party (party B when m1 = m2), with -1 before +1.
    The other party answers with the signs that pattern induces, -1 on a zero
    row sum.

    Raises:
        ValueError: if max(m1, m2) * 2^min(m1, m2) exceeds
            ENUMERATION_MAX_SIDE * 2^ENUMERATION_MAX_SIDE.
    """
    m1, m2 = bc.alpha.shape
    _check_enumeration(1, m1, m2)
    _, (a,), (b,) = _enumerated_bounds(bc.alpha[None])
    witness = DeterministicStrategy(a, b)
    # Report the witness's own evaluation so the bound and its certificate
    # agree bit-for-bit.
    return bell_value(bc, witness.correlators()), witness


def classical_bound_bruteforce(bc: BellCoeffs) -> float:
    """Classical bound by full enumeration of all 2^(m1+m2) strategies.

    Testing oracle; refuses scenarios with m1 + m2 > 24. Both sides are walked
    in blocks, so that no more than 2^9 x 2^13 values are held at once.
    """
    m1, m2 = bc.alpha.shape
    if m1 + m2 > BRUTEFORCE_MAX_SETTINGS:
        raise ValueError(
            f"scenario too large for brute force: {m1}+{m2} > {BRUTEFORCE_MAX_SETTINGS}"
        )
    best = np.inf
    for a_block in _pattern_blocks(m1, m1, block_bits=9):
        rows = a_block @ bc.alpha
        for b_block in _pattern_blocks(m2, m2):
            best = min(best, float((rows @ b_block.T).min()))
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
    return BellCoeffs(alpha)


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
    if not np.all(np.abs(corr) <= 1.0 + 1e-9):
        raise ValueError("correlator entries must lie in [-1, 1]")
    return float(np.sum(bc.alpha * corr))
