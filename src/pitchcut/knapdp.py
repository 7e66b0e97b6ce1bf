"""Exact DP and FPTAS solvers for min-knapsack covering problems.

Both solvers minimise a nonnegative rational objective over 0/1 points
satisfying the integer cover constraint sum r_i z_i >= need.  The exact
solver runs the pseudo-polynomial DP over profit states and refuses to
build tables beyond the cell budget; the FPTAS rounds costs and runs a
DP over cost states, so its table size depends on n and 1/eps only.

Each DP has one integer core, _min_cover and _fptas_cover, over
integer objectives; their answers are integers over the caller's
denominator.  _exact_cover, solve_exact, solve_fptas and solve_Palpha
are Fraction edges: they scale the objective or the point once
(core.scaled_point) and divide the answer back.  _level_cover builds
the level-alpha objective for both solve_Palpha and
sep.separate_pitch12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _min_cover(r, obj, need, budget):
    """Exact minimum of an integer objective under sum r_i z_i >= need."""
    if need <= 0:
        return 0, ()
    _check_budget((len(r) + 1) * (need + 1), budget)
    value, chosen = kernels.min_cover_solve(r, obj, need)
    if value is None:
        raise InfeasibleInstanceError(
            "total profit %d cannot reach %d" % (sum(r), need)
        )
    return value, chosen


def _exact_cover(r, objective, need, budget):
    """Exact minimum of a rational objective under sum r_i z_i >= need."""
    scaled, D = scaled_point(objective)
    value, chosen = _min_cover(r, scaled, need, budget)
    return Fraction(value, D), chosen


def _fptas_cover(r, costs, need, eps, budget):
    """(1+eps)-approximate minimum of integer costs under sum r_i z_i >= need.

    Zero-cost items are taken up front (they can only help coverage).
    The rest runs a guess loop on the optimal value v: costs are rounded
    up to multiples of delta = eps*v/(2m), a max-profit DP over rounded
    cost states 0..B with B = ceil(2m/eps) + m looks for the cheapest
    state covering the residual need, and the guess doubles until one is
    found.  The first hit costs at most (1+eps) times the optimum.

    Rounding is invariant under scaling the costs, so rational costs run
    here as integers over a common denominator and the returned value is
    an integer over that same denominator.  The guess v = gn/gd is kept
    as an integer pair, so each rounded cost ceil(c_i/delta) is one
    integer floor division.
    """
    if need <= 0:
        return 0, ()
    n = len(r)
    taken = []
    cover = 0
    for i in range(n):
        if costs[i] == 0 and cover < need:
            taken.append(i)
            cover += r[i]
    if cover >= need:
        return 0, tuple(taken)
    residual = need - cover
    # paying items with zero profit never help
    paying = [i for i in range(n) if costs[i] > 0 and r[i] > 0]
    if sum(r[i] for i in paying) < residual:
        raise InfeasibleInstanceError(
            "total profit cannot reach the cover target"
        )
    # fractional greedy by density c_i/r_i is the LP bound, hence <= OPT;
    # R/r_i is an integer, so c_i*(R/r_i) keys the exact density order
    R = lcm(*(r[i] for i in paying))
    acc = 0
    spent = 0
    for i in sorted(paying, key=lambda i: (costs[i] * (R // r[i]), i)):
        if acc + r[i] >= residual:
            gn = spent * r[i] + costs[i] * (residual - acc)
            gd = r[i]
            break
        acc += r[i]
        spent += costs[i]
    total = sum(costs[i] for i in paying)
    m = len(paying)
    en, ed = eps.numerator, eps.denominator
    B = -(-2 * m * ed // en) + m
    _check_budget((m + 1) * (B + 1), budget)
    sub_r = [r[i] for i in paying]
    sub_c = [costs[i] for i in paying]
    while True:
        # ceil(c / delta) with delta = eps*gn / (2m*gd)
        num = 2 * m * ed * gd
        den = en * gn
        rounded = [-(-c * num // den) for c in sub_c]
        reach, chosen_sub = kernels.max_profit_solve(rounded, sub_r, B, residual)
        if reach is not None:
            picked = [paying[k] for k in chosen_sub]
            value = sum(costs[i] for i in picked)
            return value, tuple(sorted(taken + picked))
        if gn >= total * gd:
            # at guess = total every rounded cost fits inside B
            raise AssertionError("guess loop exhausted without a cover")
        if 2 * gn >= total * gd:
            gn, gd = total, 1
        else:
            gn *= 2


def _level_cover(inst, a, num, base, mode, eps, budget):
    """The level-alpha subproblem, alpha = num/q, at the point a/X.

    The objective is a_i, doubled on items with p_i >= alpha (r_i >=
    num), and the cover need is base + num with base = sum(r) - q.
    Returns (value, chosen) with value an integer over X.
    """
    obj = [ai if ri < num else 2 * ai for ri, ai in zip(inst.r, a)]
    if mode == "exact":
        return _min_cover(inst.r, obj, base + num, budget)
    return _fptas_cover(inst.r, obj, base + num, eps, budget)


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
    value, chosen = _level_cover(inst, a, int(r_alpha),
                                 sum(inst.r) - inst.q, mode, eps, budget)
    return KnapSolution(value=Fraction(value, X), chosen=chosen, mode=mode,
                        eps=eps if mode == "fptas" else None)
