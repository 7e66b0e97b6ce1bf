"""Exact DP and FPTAS solvers for min-knapsack covering problems.

Both solvers minimise a nonnegative rational objective over 0/1 points
satisfying the integer cover constraint sum r_i z_i >= need.  The exact
solver runs the pseudo-polynomial DP over profit states and refuses to
build tables beyond the cell budget; the FPTAS rounds costs and runs a
DP over cost states, so its table size depends on n and 1/eps only.

The DPs run in the kernel layer (kernels) over integer objectives, and
their answers are integers over the caller's denominator; this module
checks the cell budget and coverability before each kernel call.
_min_cover is the exact single DP.  _level_cover solves the level-alpha
subproblems of a whole level grid in one kernel call, for both
solve_Palpha (one level) and sep.separate_pitch12: exact mode shares
one table of the doubled objective across the levels, and fptas mode
runs the FPTAS guess loop per level with the per-call set-up done once.
_fptas_cover is that FPTAS at one level that doubles nothing.
_exact_cover, solve_exact, solve_fptas and solve_Palpha are Fraction
edges: they scale the objective or the point once (core.scaled_point)
and divide the answer back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .core import (
    BudgetExceededError,
    InfeasibleInstanceError,
    _frac,
    as_point,
    scaled_point,
)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class KnapSolution:
    """A feasible chosen set together with its exact objective value.

    mode is "exact" or "fptas"; eps records the tolerance in the latter
    case.  value is always the objective evaluated on chosen, exactly,
    even in fptas mode (only optimality is approximate).
    """

    value: Fraction
    chosen: tuple
    mode: str
    eps: Fraction = None


def _coerce_objective(objective, n):
    obj = [_frac(v) for v in objective]
    if len(obj) != n:
        raise ValueError("objective must have %d entries" % n)
    for v in obj:
        if v < 0:
            raise ValueError("objective entries must be nonnegative")
    return obj


def _check_budget(cells, budget):
    # every DP table passes through here; None is the default budget
    if budget is None:
        budget = DEFAULT_BUDGET
    if cells > budget:
        raise BudgetExceededError(
            "DP table needs %d cells, budget is %d" % (cells, budget)
        )


def _check_coverable(r, need):
    if need > sum(r):
        raise InfeasibleInstanceError(
            "total profit %d cannot reach %d" % (sum(r), need)
        )


def _min_cover(r, obj, need, budget):
    """Exact minimum of an integer objective under sum r_i z_i >= need."""
    if need <= 0:
        return 0, ()
    _check_budget((len(r) + 1) * (need + 1), budget)
    _check_coverable(r, need)
    return kernels.min_cover_solve(r, obj, need)


def _exact_cover(r, objective, need, budget):
    """Exact minimum of a rational objective under sum r_i z_i >= need."""
    scaled, D = scaled_point(objective)
    value, chosen = _min_cover(r, scaled, need, budget)
    return Fraction(value, D), chosen


def _fptas_cover(r, costs, need, eps, budget):
    """(1+eps)-approximate minimum of integer costs under sum r_i z_i >= need.

    The FPTAS of kernels.fptas_levels at one level above every r_i, where
    no cost is doubled.
    """
    num = max(r, default=0) + 1
    return _level_cover(r, costs, need - num, [num], "fptas", eps,
                        budget)[0]


def _level_cover(r, a, base, nums, mode, eps, budget):
    """The level-alpha subproblems, alpha = num/q for num in nums, at
    the point a/X.

    Level num minimises a_i, doubled on items with p_i >= alpha (r_i >=
    num), under the cover need base + num with base = sum(r) - q; r must
    be ascending.  Returns one (value, chosen) per num, value an integer
    over X.  The budget is checked once, against the largest level: in
    exact mode its (n+1)*(need+1) profit table, the one table the sweep
    holds (kernels.min_cover_levels); in fptas mode the (m+1)*(B+1)
    cost table over the m paying items, the same at every level, which
    a level needs unless its zero-cost items cover it.
    """
    top = base + max(nums, default=0)
    if mode == "exact":
        if top > 0:
            _check_budget((len(r) + 1) * (top + 1), budget)
        _check_coverable(r, top)
        return kernels.min_cover_levels(r, a, base, nums)
    if top > sum(ri for ri, ai in zip(r, a) if ai == 0):
        _check_coverable(r, top)
        m = sum(1 for ri, ai in zip(r, a) if ai > 0 and ri > 0)
        B = kernels.fptas_bound(m, eps.numerator, eps.denominator)
        _check_budget((m + 1) * (B + 1), budget)
    return kernels.fptas_levels(r, a, base, nums, eps.numerator,
                                eps.denominator)


def solve_exact(inst, objective, budget=None):
    """Exact minimizer of objective.x over feasible 0/1 points.

    Ties between optimal sets break toward the lexicographically
    smallest index tuple.  Raises BudgetExceededError when the profit
    DP would exceed the cell budget (default 10^8).
    """
    obj = _coerce_objective(objective, inst.n)
    value, chosen = _exact_cover(inst.r, obj, inst.q, budget)
    return KnapSolution(value=value, chosen=chosen, mode="exact")


def _coerce_eps(eps):
    if eps is None:
        raise ValueError("fptas mode needs eps")
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def solve_fptas(inst, objective, eps, budget=None):
    """Feasible solution with objective value at most (1+eps) optimal."""
    eps = _coerce_eps(eps)
    costs, D = scaled_point(_coerce_objective(objective, inst.n))
    value, chosen = _fptas_cover(inst.r, costs, inst.q, eps, budget)
    return KnapSolution(value=Fraction(value, D), chosen=chosen,
                        mode="fptas", eps=eps)


def solve_Palpha(inst, xbar, alpha, mode="exact", eps=None, budget=None):
    """Solve the subproblem behind the pitch-2 separation at level alpha.

    Minimises sum over z of xbar_i z_i, doubled on items with p_i >=
    alpha, subject to sum p_i (1 - z_i) <= 1 - alpha, i.e. the integer
    cover sum r_i z_i >= sum(r) - q + alpha*q.  alpha must be a multiple
    of 1/q.  Returns the chosen set I = {i : z_i = 1}.
    """
    alpha = _frac(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    r_alpha = alpha * inst.q
    if r_alpha.denominator != 1:
        raise ValueError("alpha must be an integer multiple of 1/q")
    if mode not in ("exact", "fptas"):
        raise ValueError("mode must be 'exact' or 'fptas'")
    if mode == "fptas":
        eps = _coerce_eps(eps)
    a, X = scaled_point(as_point(xbar, inst.n))
    value, chosen = _level_cover(inst.r, a, sum(inst.r) - inst.q,
                                 [int(r_alpha)], mode, eps, budget)[0]
    return KnapSolution(value=Fraction(value, X), chosen=chosen, mode=mode,
                        eps=eps if mode == "fptas" else None)
