"""Kernel dispatch.

Picks the compiled DP kernels (the C extension _speedups, built from
_speedups.c) when the extension is present and every intermediate value
provably fits in signed 64-bit arithmetic (128-bit for the FPTAS's guess
and rounding), otherwise the bignum Python fallbacks in _kernels_py.
The two implementations share tie-breaking rules, so which one ran is
unobservable apart from speed.  min_cover_levels and fptas_levels solve
a whole grid of pitch-2 levels per call; min_cover_levels needs r
ascending, as core.normalize leaves it.  A sweep refused by its guard
runs its Python twin, which sends each level's DP back through this
dispatch.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _speedups
except ImportError:
    _speedups = None

HAVE_SPEEDUPS = _speedups is not None

_LIMIT = 1 << 62
_LIMIT128 = 1 << 126

# the cost-state bound B of the FPTAS, which knapdp's budget check needs
fptas_bound = _kernels_py.fptas_bound


def min_cover_solve(r, obj, need):
    if (
        _speedups is not None
        and need < _LIMIT
        and sum(obj) + 1 < _LIMIT
        and all(v < _LIMIT for v in r)
    ):
        return _speedups.min_cover_solve(r, obj, need)
    return _kernels_py.min_cover_solve(r, obj, need)


def max_profit_solve(cost, r, budget, target):
    if (
        _speedups is not None
        and budget < _LIMIT
        and target < _LIMIT
        and sum(r) + 1 < _LIMIT
        and all(c < _LIMIT for c in cost)
    ):
        return _speedups.max_profit_solve(cost, r, budget, target)
    return _kernels_py.max_profit_solve(cost, r, budget, target)


def kc_best_subset(r, a, X, q):
    # |acc| <= (q + sum r) * X throughout the scan
    if _speedups is not None and (q + sum(r)) * X < _LIMIT:
        return _speedups.kc_best_subset(r, a, X, q)
    return _kernels_py.kc_best_subset(r, a, X, q)


def _needs_fit(base, nums):
    # every need base + num lies in (-2 * _LIMIT, _LIMIT)
    return (-_LIMIT < min(base, min(nums, default=0))
            and base + max(nums, default=0) < _LIMIT)


def min_cover_levels(r, a, base, nums):
    # a level's objective is at most 2a_i per item, so INF = 2*sum(a) + 1
    # and every cell stays below it plus one 2a_i, as in min_cover_solve
    if (
        _speedups is not None
        and _needs_fit(base, nums)
        and 2 * sum(a) + 1 < _LIMIT
        and max(r, default=0) < _LIMIT
    ):
        return _speedups.min_cover_levels(r, a, base, nums)
    return _kernels_py.min_cover_levels(r, a, base, nums, min_cover_solve)


def fptas_levels(r, a, base, nums, en, ed):
    # int64: covers and profit sums stay below sum(r) + 1, costs, totals
    # and values below A + 1 with A = 2*sum(a), and the cost states
    # below B + 1 <= (2ed + 1)n + 1.  int128: each rounding computes
    # c*2m*ed*gd + en*gn with c <= A, m <= n, gd <= max r and the guess
    # gn/gd <= total <= A, so it and every 2*gn stay below
    # 2*A*max(r)*(n*ed + en)
    A = 2 * sum(a)
    n = len(r)
    if (
        _speedups is not None
        and _needs_fit(base, nums)
        and sum(r) + 1 < _LIMIT
        and A + 1 < _LIMIT
        and max(en, ed) < _LIMIT
        and (2 * ed + 1) * n + 1 < _LIMIT
        and 2 * A * max(r, default=0) * (n * ed + en) < _LIMIT128
    ):
        return _speedups.fptas_levels(r, a, base, nums, en, ed)
    return _kernels_py.fptas_levels(r, a, base, nums, en, ed,
                                    max_profit_solve)
