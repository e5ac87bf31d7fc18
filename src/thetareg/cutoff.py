"""Smooth dyadic bump weights and sharp windows.

The smooth bump is built from the classic C^infinity step g(u) = e^(-1/u)
(extended by 0 for u <= 0):

    phi(x) = g(2 - x) / (g(2 - x) + g(x - 1))   for 1 < x < 2,
    phi = 1 on x <= 1,  phi = 0 on x >= 2,
    chi(x) = phi(x) - phi(2x).

chi is supported in [1/2, 2] (bit-exact zeros outside), equals 1 at x = 1,
rises on [1/2, 1] and falls on [1, 2] (total variation exactly 2), and its
dyadic dilates partition unity: sum_{j in Z} chi(2^-j x) = 1 for every
x > 0, with phi(x) itself playing the role of the whole j <= 0 tail.
The symmetry g(2-x)/(g(2-x)+g(x-1)) gives phi(1+u) + phi(2-u) = 1, from
which int_0^inf chi = (3/2)/2 = 3/4 exactly.

A WeightVector is one block of per-frequency coefficients w_n >= 0 for
|n| in a window [M, N], even in n (w_{-n} = w_n) and 0 off the window, so
every block sum is even in x. A smooth block, chi(2^-j |n|), holds one
array over M <= n <= N. A sharp block, 1 on its window (the dyadic
2^(j-1) < |n| <= 2^(j+1), or any given [M, N]), holds none. Each gives the
sums the bounds need: mass over both signs, l2 norm and ||Delta^k w||_1,
in closed form for a sharp block, exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError

__all__ = [
    "MAX_BLOCK_J",
    "MAX_BLOCK_N",
    "WeightVector",
    "block_bounds",
    "smooth_weights",
    "rough_weights",
]


# The block budget: scales j <= MAX_BLOCK_J, so every window ends by
# |n| = MAX_BLOCK_N, the top of the last block.
MAX_BLOCK_J = 20
MAX_BLOCK_N = 2 ** (MAX_BLOCK_J + 1)

# Elements per pass of smooth_weights: its temporaries (masks, copies and
# quotients of the bump) stay at a few hundred kB whatever the block's size.
_CHUNK = 1 << 12


def _window_chi(x: np.ndarray) -> np.ndarray:
    """chi(x) for 1/2 < x <= 2 in one pass of its closed form.

    There phi(2x) = 0 for x >= 1 and phi(x) = 1 for x < 1, so chi is
    phi(y) on y = x, or 1 - phi(y) on y = 2x, with 1 <= y <= 2: the same
    operations on the same operands as phi(x) - phi(2x), so the same bits.
    """
    low = x < 1.0
    y = np.where(low, 2.0 * x, x)
    with np.errstate(divide="ignore"):      # g(0) = exp(-inf) = 0 at y = 1, 2
        g_a = np.exp(-1.0 / (2.0 - y))
        g_b = np.exp(-1.0 / (y - 1.0))
    v = g_a / (g_a + g_b)
    return np.where(low, 1.0 - v, v)


@dataclass
class WeightVector:
    """Coefficients of one frequency block, even in n.

    w[i] is the weight of both +n and -n for n = M + i, M <= n <= N; every
    weight off that window is 0. With no w the block is sharp: 1 on its
    window, with no array stored. N past the block budget MAX_BLOCK_N is
    refused.
    """

    M: int
    N: int
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.N > MAX_BLOCK_N:
            raise BudgetError(f"window reaches |n| = {self.N} > {MAX_BLOCK_N}")
        if self.M < 0 or self.N < self.M:
            raise DomainError("need 0 <= M <= N")
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=np.float64)
            if self.w.shape != (self.N - self.M + 1,):
                raise DomainError("w must have length N - M + 1")

    @property
    def mode(self) -> str:
        """The family: "rough" for a sharp block, else "smooth"."""
        return "rough" if self.w is None else "smooth"

    def _both_sides(self, v: np.ndarray) -> float:
        """sum over M <= |n| <= N of v, an array over the window, n = 0 once."""
        return 2 * float(v.sum()) - (float(v[0]) if self.M == 0 else 0.0)

    def window_mass(self) -> float:
        """sum over M <= |n| <= N of w_n, n = 0 counted once: W(0) = ||w||_1,
        for a sharp block its count of frequencies."""
        if self.w is None:
            return float(2 * (self.N - self.M + 1) - (self.M == 0))
        return self._both_sides(self.w)

    def l2_squared(self) -> float:
        return self.window_mass() if self.w is None else self._both_sides(self.w ** 2)

    def variation(self, k: int) -> float:
        """||Delta^k w||_1 over both sides: while they lie more than k apart
        (2M > k, else refused), twice one pass over the window padded by k
        zeros, in chunks of _CHUNK so that no temporary grows with N.

        A sharp window of L = N - M + 1 >= k ones is 2^(k+1) exactly: on
        each side Delta^k of its unit step up at M and down at N + 1 is
        Delta^(k-1) of two unit impulses L apart, entries +-C(k-1, i) over
        k places each, which do not meet. A shorter one takes the pass.
        """
        if 2 * self.M <= k:
            raise DomainError(f"sides within k = {k} of each other (M = {self.M})")
        size = self.N - self.M + 1
        if self.w is None and size >= k:
            return float(2 ** (k + 1))
        w = np.ones(size) if self.w is None else self.w
        total = 0.0
        for a in range(0, size + k, _CHUNK):    # differences a .. hi - 1
            lo, hi = a - k, min(a + _CHUNK, size + k)
            part = np.concatenate((np.zeros(max(-lo, 0)), w[max(lo, 0):hi],
                                   np.zeros(max(hi - size, 0))))
            total += float(np.abs(np.diff(part, k)).sum())
        return 2 * total


def block_bounds(j: int) -> tuple[int, int]:
    """Support window (M, N) of block j; j outside [0, MAX_BLOCK_J] is refused."""
    if j < 0:
        raise DomainError("block index must be >= 0")
    if j > MAX_BLOCK_J:
        raise BudgetError(f"block scale j = {j} exceeds the budget j <= {MAX_BLOCK_J}")
    if j == 0:
        return 0, 2
    return 2 ** (j - 1) + 1, 2 ** (j + 1)


def smooth_weights(j: int) -> WeightVector:
    """Smooth dyadic block: w_n = chi(2^-j n); the j = 0 block is the
    plateau phi(n), 1, 1 and 0 at n = 0, 1 and 2.

    Every window n of a block j >= 1 has 1/2 < 2^-j n <= 2, where
    _window_chi's closed form holds. The bump is formed elementwise, so
    building it over [M, N] in passes of _CHUNK gives the bits of one pass
    over the window, and only the result grows with N.
    """
    M, N = block_bounds(j)
    if j == 0:
        return WeightVector(M, N, np.array([1.0, 1.0, 0.0]))
    w = np.empty(N - M + 1)
    for a in range(0, w.size, _CHUNK):
        n = np.arange(M + a, M + min(a + _CHUNK, w.size), dtype=np.float64)
        w[a:a + n.size] = _window_chi(n * 2.0 ** -j)
    return WeightVector(M, N, w)


def rough_weights(j: int) -> WeightVector:
    """Sharp dyadic block: indicator of 2^(j-1) < |n| <= 2^(j+1) (j = 0: |n| <= 2)."""
    return WeightVector(*block_bounds(j))
