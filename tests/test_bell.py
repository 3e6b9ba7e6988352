import itertools

import numpy as np
import pytest

from bellbounce import bell
from bellbounce.bell import (
    BRUTEFORCE_MAX_SETTINGS,
    ENUMERATION_MAX_SIDE,
    BellCoeffs,
    DeterministicStrategy,
    Scenario,
    bell_value,
    classical_bound,
    classical_bound_bruteforce,
    gisin_bound_closed_form,
    gisin_variant,
)

CHSH = BellCoeffs([[1.0, 1.0], [1.0, -1.0]])


def _reference_bound(alpha):
    # Independent oracle: enumerate the smaller side's sign patterns (party B's when
    # m1 = m2) in lexicographic order (-1 before +1), answer each with the signs it
    # induces on the other side (-1 on a zero row sum), and keep the first minimizer.
    m1, m2 = alpha.shape
    wide = m2 > m1
    best = None
    for pattern in itertools.product((-1, 1), repeat=min(m1, m2)):
        rows = np.asarray(pattern) @ alpha if wide else alpha @ np.asarray(pattern)
        induced = tuple(1 if r < 0 else -1 for r in rows)
        a, b = (pattern, induced) if wide else (induced, pattern)
        v = float(np.asarray(a) @ alpha @ np.asarray(b))
        if best is None or v < best[0] - 1e-12:
            best = (v, b, a)
    return best


def test_chsh_frozen():
    beta, witness = classical_bound(CHSH)
    assert beta == -2.0
    assert witness.a.tolist() == [1, -1]
    assert witness.b.tolist() == [-1, -1]


def test_gisin_variant_closed_form():
    for delta in (-3.0, -1.5, 0.0, 0.7, 1.0, 2.0, 3.0):
        beta, _ = classical_bound(gisin_variant(delta))
        assert abs(beta - gisin_bound_closed_form(delta)) < 1e-12


def test_gisin_delta2_witness_frozen():
    beta, witness = classical_bound(gisin_variant(2.0))
    assert beta == -8.0
    assert witness.a.tolist() == [1, -1, -1, -1]
    assert witness.b.tolist() == [-1, -1, -1]


def test_bound_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m1, m2 = rng.integers(2, 5, size=2)
        bc = BellCoeffs(rng.normal(size=(m1, m2)))
        beta, _ = classical_bound(bc)
        ref = classical_bound_bruteforce(bc)
        assert abs(beta - ref) < 1e-12


def test_witness_attains_bound_exactly():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m1, m2 = rng.integers(2, 5, size=2)
        bc = BellCoeffs(rng.normal(size=(m1, m2)))
        beta, witness = classical_bound(bc)
        # bit-exact: the reported bound is the witness's own evaluation
        assert bell_value(bc, witness.correlators()) == beta


def test_tie_break_lexicographic():
    rng = np.random.default_rng(13)
    for _ in range(40):
        m1, m2 = rng.integers(2, 4, size=2)
        # small integers force plenty of exact ties
        bc = BellCoeffs(rng.integers(-2, 3, size=(m1, m2)).astype(float))
        beta, witness = classical_bound(bc)
        ref_v, ref_b, ref_a = _reference_bound(bc.alpha)
        assert abs(beta - ref_v) < 1e-12
        assert witness.b.tolist() == list(ref_b)
        assert witness.a.tolist() == list(ref_a)


def test_bound_scaling_and_permutation():
    rng = np.random.default_rng(14)
    for _ in range(40):
        alpha = rng.normal(size=(3, 4))
        beta, _ = classical_bound(BellCoeffs(alpha))
        beta2, _ = classical_bound(BellCoeffs(2.0 * alpha))
        assert abs(beta2 - 2 * beta) < 1e-12
        perm = alpha[rng.permutation(3)][:, rng.permutation(4)]
        beta3, _ = classical_bound(BellCoeffs(perm))
        assert abs(beta3 - beta) < 1e-12


def test_bound_is_lower_bound():
    rng = np.random.default_rng(15)
    bc = BellCoeffs(rng.normal(size=(3, 3)))
    beta, _ = classical_bound(bc)
    for _ in range(200):
        s = DeterministicStrategy(
            a=rng.choice([-1, 1], size=3), b=rng.choice([-1, 1], size=3)
        )
        assert bell_value(bc, s.correlators()) >= beta - 1e-12


def test_bell_value_validation():
    with pytest.raises(ValueError):
        bell_value(CHSH, np.ones((3, 2)))
    with pytest.raises(ValueError):
        bell_value(CHSH, np.full((2, 2), 1.5))  # correlators out of range
    for bad in (np.nan, np.inf, -np.inf):  # a nan is not above 1 either
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            bell_value(CHSH, np.array([[1.0, 1.0], [bad, 1.0]]))
    assert bell_value(CHSH, np.ones((2, 2))) == 2.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(1, 3)
    with pytest.raises(ValueError):
        BellCoeffs([[np.inf, 0], [0, 1]])
    # the scenario is alpha's shape: a 2-d matrix with at least two settings per party
    assert BellCoeffs(np.ones((4, 3))).scenario == Scenario(4, 3)
    for alpha in ([1.0, 2.0, 3.0], [], [[]], [[1.0, 2.0]], np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ValueError):
            BellCoeffs(alpha)


def test_strategy_validation():
    with pytest.raises(ValueError):
        DeterministicStrategy(a=np.array([1, 0]), b=np.array([1, -1]))
    s = DeterministicStrategy(a=np.array([1, -1]), b=np.array([-1, 1]))
    assert np.array_equal(s.correlators(), [[-1, 1], [1, -1]])


def test_bruteforce_size_guard():
    big = BellCoeffs(np.zeros((13, 12)))
    assert 13 + 12 > BRUTEFORCE_MAX_SETTINGS
    with pytest.raises(ValueError):
        classical_bound_bruteforce(big)


def test_enumeration_size_guard():
    # refused before the 2^21-pattern table is built
    big = BellCoeffs(np.zeros((21, 21)))
    assert 21 > ENUMERATION_MAX_SIDE
    with pytest.raises(ValueError, match=str(ENUMERATION_MAX_SIDE)):
        classical_bound(big)


def test_sign_patterns_built_once_per_size():
    # every enumeration step reads the same read-only table
    table = bell._sign_patterns(3)
    assert bell._sign_patterns(3) is table
    assert not table.flags.writeable
    assert table.tolist() == [list(p) for p in itertools.product([-1.0, 1.0], repeat=3)]


def test_enumeration_guard_counts_the_whole_batch(monkeypatch):
    # The guard bounds n * max(m1, m2) * 2^min(m1, m2) products and runs before
    # any sign pattern is built.
    def no_patterns(m):
        raise AssertionError(f"2^{m} patterns built")

    monkeypatch.setattr(bell, "_sign_patterns", no_patterns)
    long_side = BellCoeffs(np.zeros((1000, 20)))  # 8.4 GB of products
    with pytest.raises(ValueError, match=str(ENUMERATION_MAX_SIDE)):
        classical_bound(long_side)
    with pytest.raises(ValueError, match=str(ENUMERATION_MAX_SIDE)):
        bell._check_enumeration(32, 16, 16)  # the engine's batch at 16x16
    # the largest accepted input passes the guard and starts building its first block
    largest = BellCoeffs(np.zeros((ENUMERATION_MAX_SIDE, ENUMERATION_MAX_SIDE)))
    with pytest.raises(AssertionError, match="patterns built"):
        classical_bound(largest)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3, 5)])
def test_engine_witness_attains_each_row_bound(shape):
    # Integer entries give exact ties between patterns and exactly zero products,
    # where the induced sign is free; the engine's witness must still be a +-1
    # strategy whose value is the row's bound, bit for bit.
    rng = np.random.default_rng(20)
    amats = rng.integers(-2, 3, size=(64, *shape)).astype(float)
    amats[0] = 0.0
    bounds, a, b = bell._enumerated_bounds(amats)
    assert bounds.shape == (64,) and a.shape == (64, shape[0]) and b.shape == (64, shape[1])
    assert np.all(np.abs(a) == 1) and np.all(np.abs(b) == 1)
    for alpha, bound, a_row, b_row in zip(amats, bounds, a, b):
        assert a_row @ alpha @ b_row == bound
        assert classical_bound(BellCoeffs(alpha))[0] == bound


def _full_table_reference(alpha):
    # Every pattern of the smaller side, from itertools.product in lexicographic order:
    # the patterns, the other side's row sums with each, and each one's value -sum|rows|.
    m1, m2 = alpha.shape
    wide = m2 > m1
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=min(m1, m2))))
    rows = patterns @ alpha if wide else patterns @ alpha.T
    return patterns, rows, -np.abs(rows).sum(axis=1)


def _induced(rows):
    return np.where(rows < 0, 1.0, -1.0)


def _first_optimum(alpha):
    # (bound, a, b) from the full table: the first optimal pattern of the smaller side and
    # the signs it induces on the other.
    patterns, rows, values = _full_table_reference(alpha)
    k = int(values.argmin())
    smaller, other = patterns[k].tolist(), _induced(rows[k]).tolist()
    return (values[k], smaller, other) if alpha.shape[1] > alpha.shape[0] else (values[k], other, smaller)


def _assert_rows_match(amats, wants):
    # One batch: each row's result must be its own full table's, whatever the other rows do.
    bounds, a, b = bell._enumerated_bounds(amats)
    assert bounds.shape == (len(amats),)
    for want, got in zip(wants, zip(bounds, a.tolist(), b.tolist())):
        assert got == want


# shapes of several prefixes on either side of the m2 <= m1 branch, and one table for contrast
BLOCKED_SHAPES = [(16, 15), (17, 16), (15, 16), (16, 17), (4, 3), (3, 5)]


@pytest.mark.parametrize("shape", BLOCKED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_blocked_half_set_matches_full_table(shape):
    # Integer entries put exact ties in different prefixes; the all-zero matrix ties every
    # pattern. All four run as one batch too, so a row that improves must not move the others.
    rng = np.random.default_rng(sum(shape))
    alphas = [rng.integers(-1, 2, size=shape).astype(float) for _ in range(3)]
    alphas.append(np.zeros(shape))
    wants = [_first_optimum(alpha) for alpha in alphas]
    _assert_rows_match(np.stack(alphas), wants)
    for alpha, want in zip(alphas, wants):
        _assert_rows_match(alpha[None], [want])
        # classical_bound reports that witness
        beta, witness = classical_bound(BellCoeffs(alpha))
        assert (beta, witness.a.tolist(), witness.b.tolist()) == want


@pytest.mark.parametrize("block_bits", [2, 3])
@pytest.mark.parametrize("shape", [(5, 5), (6, 5), (5, 6), (8, 7), (7, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_small_low_table_batch_matches_full_table(monkeypatch, shape, block_bits):
    # A low table of 2^2 or 2^3 patterns splits these sides into 2 to 16 prefixes. Integer
    # rows tie within and across prefixes, and the all-zero row ties every pattern.
    monkeypatch.setattr(bell, "PATTERN_BLOCK_BITS", block_bits)
    rng = np.random.default_rng(10 * sum(shape) + block_bits)
    amats = rng.integers(-2, 3, size=(12, *shape)).astype(float)
    amats[5] = 0.0
    _assert_rows_match(amats, [_first_optimum(alpha) for alpha in amats])


def test_pattern_blocks_tile_the_table_in_order():
    table = bell._sign_patterns(10)
    blocks = list(bell._pattern_blocks(10, 9, block_bits=4))
    assert len(blocks) == 2**5 and all(block.shape == (16, 10) for block in blocks)
    assert np.array_equal(np.concatenate(blocks), table[: 2**9])
    (whole,) = bell._pattern_blocks(10, 9)  # one block: a slice of the cached table
    assert whole.base is table and not whole.flags.writeable
