"""Kernel dispatch.

Picks the compiled DP kernels (the C extension _speedups, built from
_speedups.c) when the extension is present and every intermediate value
provably fits in signed 64-bit arithmetic, otherwise the bignum Python
fallbacks in _kernels_py.  The two implementations share tie-breaking
rules, so which one ran is unobservable apart from speed.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _speedups
except ImportError:
    _speedups = None

HAVE_SPEEDUPS = _speedups is not None

_LIMIT = 1 << 62


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
