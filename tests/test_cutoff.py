"""The smooth bump, its exact constants, and the block weight vectors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import chi, count_nonzero, half_line, phi, variation
from thetareg.cutoff import (MAX_BLOCK_N, WeightVector, block_bounds,
                             rough_weights, smooth_weights)
from thetareg.errors import DomainError


def test_chi_exact_anchor_values():
    assert chi(np.array([1.0]))[0] == 1.0          # phi(1) - phi(2) = 1 - 0
    assert chi(np.array([0.5]))[0] == 0.0
    assert chi(np.array([2.0]))[0] == 0.0
    x = np.array([0.0, 0.1, 0.49, 2.0, 3.0, 100.0, -1.0])
    assert np.all(chi(x) == 0.0)                   # bit-exact outside support
    # just inside the edges chi is positive but underflows binary64; test
    # strict positivity only where the value is representable
    inside = np.linspace(0.6, 1.9, 301)
    assert np.all(chi(inside) > 0.0)


def test_phi_complementary_symmetry():
    u = np.linspace(1e-6, 1.0 - 1e-6, 257)
    s = phi(1.0 + u) + phi(2.0 - u)
    assert np.max(np.abs(s - 1.0)) < 1e-14


def _partition_sum(x, j_lo: int, j_hi: int) -> np.ndarray:
    """sum_{j=j_lo}^{j_hi} chi(2^-j x); equals 1 well inside the range."""
    x = np.asarray(x, dtype=np.float64)
    return sum(chi(x * 2.0 ** -j) for j in range(j_lo, j_hi + 1))


def _tv_one_sided(w) -> float:
    """Total variation of n -> w_n over n >= 0 (zero below M and at N+1)."""
    return float(np.abs(np.diff(np.concatenate((half_line(w), [0.0])))).sum())


def test_partition_of_unity_on_wide_range():
    x = np.concatenate([np.geomspace(2.0**-10, 2.0**10, 400),
                        np.array([1.0, 2.0, 0.5, 3.0, 2.0**9])])
    total = _partition_sum(x, -14, 14)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@given(x=st.floats(0.001, 1000.0, allow_nan=False))
@settings(max_examples=100)
def test_partition_of_unity_random(x):
    total = _partition_sum(np.array([x]), -16, 16)[0]
    assert abs(total - 1.0) < 1e-12


def test_plateau_plus_tail_telescopes():
    # phi(2^-J x) = phi(x) + sum_{j=1..J} chi(2^-j x); at J large the left
    # side is 1 for moderate x
    x = np.linspace(0.01, 50.0, 97)
    total = phi(x).copy()
    for j in range(1, 12):
        total += chi(x * 2.0 ** -j)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_integral_constant_against_quadrature():
    val, err = quad(lambda u: float(chi(np.array([u]))[0]), 0.5, 2.0,
                    points=[1.0], limit=200)
    assert err < 1e-6                 # quad is conservative at flat edges
    assert abs(val - 0.75) < 1e-9       # int_0^inf chi = 3/4 exactly
    val2, _ = quad(lambda u: float(phi(np.array([u]))[0]), 0.0, 2.0,
                   limit=200)
    assert abs(val2 - 1.5) < 1e-9


def test_kappa_matches_measured_variation():
    grid = np.linspace(0.5, 2.0, 20001)
    tv = float(np.abs(np.diff(chi(grid))).sum())
    assert tv <= 2.0 + 1e-9
    assert tv > 2.0 - 1e-3            # one full rise plus one full fall


# ---------------------------------------------------------- weight vectors

def test_rough_block_counts_and_bounds():
    for j in range(1, 12):
        w = rough_weights(j)
        assert (w.M, w.N) == (2**(j-1) + 1, 2**(j+1))
        assert count_nonzero(w) == 3 * 2**j
        assert w.l2_squared() == float(3 * 2**j)
        assert variation(w, 1) == 4.0               # two jumps up, two down
        assert _tv_one_sided(w) == 2.0
        assert w.window_mass() == float(3 * 2**j)
    w0 = rough_weights(0)
    assert (w0.M, w0.N) == (0, 2)
    assert count_nonzero(w0) == 5
    with pytest.raises(DomainError):
        rough_weights(-1)


def test_smooth_block_anchors_and_supports():
    for j in range(1, 14):
        w = smooth_weights(j)
        # w[i] is w_(M+i): only the window M <= n <= N is stored
        assert w.w.shape == (w.N - w.M + 1,)
        assert w.w[2**j - w.M] == 1.0            # chi(1) = 1 exactly
        below = chi(np.arange(w.M, dtype=np.float64) * 2.0 ** -j)
        assert below[w.M - 1] == 0.0 if w.M > 0 else True
        assert np.all(below == 0.0)              # bit-exact zeros
        assert w.w[w.N - w.M] == 0.0             # chi(2) = 0
        assert np.all(w.w <= 1.0)
        assert variation(w, 1) <= 4.0 + 1e-12
        assert _tv_one_sided(w) <= 2.0 + 1e-12


def test_smooth_block_mass_riemann():
    # sum_n chi(2^-j n) = 2^j * integral + O(tv): within 2 of 0.75 * 2^j
    for j in range(4, 17):
        w = smooth_weights(j)
        one_sided = float(w.w.sum())
        assert abs(one_sided - 0.75 * 2**j) <= 2.0
        assert abs(w.window_mass() - 1.5 * 2**j) <= 4.0


def test_smooth_block_is_one_pass_of_chi_in_few_bytes():
    # built in passes of 4,096, from j = 12 on in more than one, by chi's
    # closed form: the bits of phi(x) - phi(2x) over the whole window at
    # once (phi itself at j = 0), compared in slices to keep the reference
    # small at j = 20
    for j in range(0, 21):
        M, N = block_bounds(j)
        got = smooth_weights(j).w
        bump = phi if j == 0 else chi
        for a in range(0, got.size, 1 << 16):
            n = np.arange(M + a, min(M + a + (1 << 16), N + 1), dtype=np.float64)
            want = bump(n * 2.0 ** -j)
            assert got[a:a + n.size].tobytes() == want.tobytes(), (j, a)
    # its temporaries stay small next to the 0.75 MiB result at j = 16 (one
    # pass over the window peaked at 6.1 MiB)
    tracemalloc.start()
    try:
        w = smooth_weights(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= w.w.nbytes + (1 << 19), peak


def test_smooth_block_zero_uses_plateau():
    w = smooth_weights(0)
    assert (w.M, w.N) == (0, 2)
    assert w.w[0] == 1.0 and w.w[1] == 1.0 and w.w[2] == 0.0


def test_unit_windows():
    # a sharp block is (M, N) alone: no array, 1 on its window
    w = WeightVector(1, 16)
    assert w.w is None and w.mode == "rough"
    assert count_nonzero(w) == 32
    assert w.window_mass() == 32.0
    assert w.l2_squared() == 32.0


def test_weight_vector_shape_validation():
    # w holds the window M..N: N - M + 1 weights, not N + 1
    w = WeightVector(M=1, N=4, w=np.ones(4))
    assert w.w.size == 4 and w.mode == "smooth"
    with pytest.raises(DomainError):
        WeightVector(M=1, N=4, w=np.ones(5))
    with pytest.raises(DomainError):
        WeightVector(M=5, N=4)
    with pytest.raises(DomainError):
        WeightVector(M=-1, N=4)
    # the family is read off the array, not set beside it
    with pytest.raises(AttributeError):
        w.mode = "rough"


def test_sharp_blocks_allocate_no_window():
    # the top scale's sharp block and the widest hand-built window are their
    # bounds alone; the first one's stored ones took 12,583,392 bytes
    tracemalloc.start()
    try:
        blocks = [rough_weights(20), WeightVector(1, MAX_BLOCK_N)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(w.w is None for w in blocks)
    assert peak < 1 << 10, peak


_HAND_WINDOWS = [(0, 0), (0, 5), (1, 1), (2, 2), (2, 3), (9, 10), (3, 5),
                 (4, 7), (5, 200)]


def test_sharp_constants_are_exact():
    # mass, l2 and B_k of a sharp block are closed forms; they equal the
    # oracle's frequency count and whole-line differences exactly, for
    # every dyadic block and for hand-built windows shorter than k
    blocks = [rough_weights(j) for j in range(21)]
    blocks += [WeightVector(M, N) for M, N in _HAND_WINDOWS]
    for w in blocks:
        count = float(count_nonzero(w))
        assert w.window_mass() == count, (w.M, w.N)
        assert w.l2_squared() == count, (w.M, w.N)
        if w.N > 1 << 13:
            continue                    # the oracle's pure-Python line is slow
        for k in (1, 2, 3):
            if 2 * w.M > k:
                assert w.variation(k) == variation(w, k), (w.M, w.N, k)
    assert WeightVector(9, 10).variation(3) == 12.0     # L = 2 < k: steps meet
    for j in range(1, 21):
        w = rough_weights(j)
        assert [w.variation(k) for k in (1, 2, 3)] == [4.0, 8.0, 16.0], j


def test_exact_smooth_mass_lies_in_the_bracket_allowance():
    # _comb_bracket widens the computed W(0) to [W (1 - 2 nu), W (1 + 2 nu)],
    # nu = (N + 8) 2^-53; the exact mass 1.5 * 2^j (the bump's terms pair
    # off around its symmetric transition) must lie inside, wherever the
    # computed sum's last bits land
    for j in range(1, 21):
        w = smooth_weights(j)
        W, nu = w.window_mass(), (w.N + 8) * 2.0 ** -53
        assert W * (1 - 2 * nu) <= 1.5 * 2 ** j <= W * (1 + 2 * nu), j
