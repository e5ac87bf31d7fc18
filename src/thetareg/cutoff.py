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
|n| in a window [M, N]: either the smooth chi(2^-j |n|), the sharp
indicator of 2^(j-1) < |n| <= 2^(j+1), or a sharp window on given [M, N].
Each is even in n (w_{-n} = w_n) and 0 off the window, so one array over
M <= n <= N holds it, and every block sum is even in x. It also gives the
sums the bounds need: mass over both signs, l2 norm and ||Delta^k w||_1.
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
    "unit_window",
]


# The block budget: scales j <= MAX_BLOCK_J, so every window ends by
# |n| = MAX_BLOCK_N, the top of the last block.
MAX_BLOCK_J = 20
MAX_BLOCK_N = 2 ** (MAX_BLOCK_J + 1)

# Elements per pass of smooth_weights: its temporaries (masks, copies and
# quotients of the bump) stay at a few hundred kB whatever the block's size.
_CHUNK = 1 << 12


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """g(u) = exp(-1/u) for u > 0, else 0; infinitely flat at 0."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """1 on x <= 1, 0 on x >= 2, smooth monotone join in between."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    if np.any(mid):
        a = _smooth_step(2.0 - x[mid])
        b = _smooth_step(x[mid] - 1.0)
        out[mid] = a / (a + b)
    return out


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
    weight off that window is 0. mode is "rough" (1 on the window) or
    "smooth". N past the block budget MAX_BLOCK_N is refused.
    """

    M: int
    N: int
    w: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        if self.N > MAX_BLOCK_N:
            raise BudgetError(f"window reaches |n| = {self.N} > {MAX_BLOCK_N}")
        if self.M < 0 or self.N < self.M:
            raise DomainError("need 0 <= M <= N")
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.N - self.M + 1,):
            raise DomainError("w must have length N - M + 1")
        if self.mode not in ("rough", "smooth"):
            raise DomainError(f"mode must be rough or smooth, not {self.mode!r}")

    def _both_sides(self, v: np.ndarray) -> float:
        """sum over M <= |n| <= N of v, an array over the window, n = 0 once."""
        return 2 * float(v.sum()) - (float(v[0]) if self.M == 0 else 0.0)

    def window_mass(self) -> float:
        """sum over M <= |n| <= N of w_n, n = 0 counted once: W(0) = ||w||_1."""
        return self._both_sides(self.w)

    def l2_squared(self) -> float:
        return self._both_sides(self.w ** 2)

    def variation(self, k: int) -> float:
        """||Delta^k w||_1 over both sides: while they lie more than k apart
        (2M > k, else refused), twice one pass over the window padded by k
        zeros, in chunks of _CHUNK so that no temporary grows with N."""
        if 2 * self.M <= k:
            raise DomainError(f"sides within k = {k} of each other (M = {self.M})")
        size, total = self.w.size, 0.0
        for a in range(0, size + k, _CHUNK):    # differences a .. hi - 1
            lo, hi = a - k, min(a + _CHUNK, size + k)
            part = np.concatenate((np.zeros(max(-lo, 0)), self.w[max(lo, 0):hi],
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
    """Smooth dyadic block: w_n = chi(2^-j n); the j = 0 block uses phi.

    Every window n of a block j >= 1 has 1/2 < 2^-j n <= 2, where
    _window_chi's closed form holds. The bump is formed elementwise, so
    building it over [M, N] in passes of _CHUNK gives the bits of one pass
    over the window, and only the result grows with N.
    """
    M, N = block_bounds(j)
    bump = _phi if j == 0 else _window_chi
    w = np.empty(N - M + 1)
    for a in range(0, w.size, _CHUNK):
        n = np.arange(M + a, M + min(a + _CHUNK, w.size), dtype=np.float64)
        w[a:a + n.size] = bump(n * 2.0 ** -j)
    return WeightVector(M=M, N=N, w=w, mode="smooth")


def rough_weights(j: int) -> WeightVector:
    """Sharp dyadic block: indicator of 2^(j-1) < |n| <= 2^(j+1) (j = 0: |n| <= 2)."""
    M, N = block_bounds(j)
    return WeightVector(M=M, N=N, w=np.ones(N - M + 1), mode="rough")


def unit_window(M: int, N: int) -> WeightVector:
    """Unit weights on M <= |n| <= N, both sides, as a sharp block; a window
    past the block budget is refused before the array is allocated."""
    if M < 1:
        raise DomainError("windows start at M >= 1 (n = 0 has no phase)")
    if N > MAX_BLOCK_N:
        raise BudgetError(f"window reaches |n| = {N} > {MAX_BLOCK_N}")
    return WeightVector(M=M, N=N, w=np.ones(max(N - M + 1, 0)), mode="rough")
