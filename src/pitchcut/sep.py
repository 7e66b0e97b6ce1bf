"""Separation oracles for min-knapsack covering cuts.

The heart is separate_pitch12, the (1+eps)-oracle over pitch-1 cuts and
the canonical pitch-2 family: a precheck on the knapsack row, then one
covering subproblem per candidate level alpha on the grid {(r_i+1)/q},
then the pitch-1 test at alpha = 1/q, then certification.  The rest of
the module provides knapsack-cover separation, the fixed-support LP
with massive-set row generation, brute-force enumerators for small n,
and the conic dominance test used to reproduce implication arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import kernels, knapdp, ratlp
from .core import (
    Inequality,
    VerificationError,
    as_point,
    kc_inequality,
    make_inequality,
    natural_row,
    pitch2_canonical,
)


@dataclass(frozen=True)
class Violated:
    """A valid cut that the query point fails to satisfy."""

    cut: Inequality
    family: str
    violation: Fraction


@dataclass(frozen=True)
class Certified:
    """No violated cut in the family; ybar is the certified point."""

    ybar: tuple


@dataclass(frozen=True)
class FixedSupportQuery:
    """Record of one fixed-support separation: support, beta(I), and the
    massive rows the LP actually generated."""

    I: tuple
    betaI: Fraction
    rows: tuple


class FixedSupportResult(NamedTuple):
    alpha: dict
    value: Fraction
    violated: bool
    query: FixedSupportQuery

    def as_cut(self):
        coefficients = {i: w for i, w in self.alpha.items() if w > 0}
        return make_inequality(coefficients, Fraction(1), "fixed-support")


def _pitch1_cut(inst, members):
    """The pitch-1 cut sum x_i >= 1 over the positive-profit members."""
    return make_inequality(
        {i: Fraction(1) for i in members if inst.profits[i] > 0},
        Fraction(1), "pitch1"
    )


def _line2_cut(inst, chosen):
    """Cut induced by a subproblem solution I with objective value < 2.

    Recomputes beta(I) and splits at it.  When the split degenerates
    (singleton I, or no member below beta(I)) the doubled objective
    already forces sum over I of xbar below 1, so the plain pitch-1 cut
    on I is violated; zero-profit members are dropped from its support.
    """
    inside = set(chosen)
    betaI = Fraction(1) - sum(
        inst.profits[i] for i in range(inst.n) if i not in inside
    )
    # the cover constraint of the subproblem leaves beta(I) >= alpha > 0
    assert betaI > 0
    I1 = [i for i in chosen if inst.profits[i] < betaI]
    if len(chosen) >= 2 and I1:
        return pitch2_canonical(inst, chosen)
    return _pitch1_cut(inst, chosen)


def separate_pitch12(inst, xbar, eps=None, mode="exact", budget=None):
    """(1+eps)-oracle for pitch-1 and canonical pitch-2 inequalities.

    Checks the knapsack row first and returns it when violated.  Then
    solves the level-alpha subproblem for every distinct alpha =
    (r_i+1)/q <= 1; every solution of value < 2 induces a violated cut
    (checked: VerificationError otherwise), and the most violated one
    wins (ties to the smallest alpha).  If none, the subproblem at
    alpha = 1/q tests the pitch-1 family.
    Otherwise the point is certified: in exact mode ybar = xbar itself,
    in fptas mode ybar_i = min(1, (1+e')/(1-e') xbar_i) with
    e' = eps/(2+eps), the tolerance the subproblems ran at.
    """
    if mode not in ("exact", "fptas"):
        raise ValueError("mode must be 'exact' or 'fptas'")
    eps_prime = None
    if mode == "fptas":
        if eps is None:
            raise ValueError("fptas mode needs eps")
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        eps_prime = eps / (2 + eps)
    x = as_point(xbar, inst.n)

    row = natural_row(inst)
    gap = row.violation(x)
    if gap > 0:
        return Violated(cut=row, family=row.family, violation=gap)

    def subproblem(alpha):
        return knapdp.solve_Palpha(
            inst, x, alpha, mode=mode, eps=eps_prime, budget=budget
        )

    best = None
    grid = sorted({ri + 1 for ri in inst.r if ri + 1 <= inst.q})
    for numerator in grid:
        alpha = Fraction(numerator, inst.q)
        sol = subproblem(alpha)
        if sol.value >= 2:
            continue
        cut = _line2_cut(inst, sol.chosen)
        gap = cut.violation(x)
        if gap <= 0:
            raise VerificationError(
                "a level-alpha solution of value < 2 gave no violated cut")
        # ascending grid plus strict improvement: ties keep the smallest alpha
        if best is None or gap > best.violation:
            best = Violated(cut=cut, family=cut.family, violation=gap)
    if best is not None:
        return best

    sol = subproblem(Fraction(1, inst.q))
    if sol.value < 2:
        cut = _pitch1_cut(inst, sol.chosen)
        gap = cut.violation(x)
        if gap <= 0:
            raise VerificationError(
                "a level-1/q solution of value < 2 gave no violated pitch-1 cut")
        return Violated(cut=cut, family="pitch1", violation=gap)

    if mode == "exact":
        return Certified(ybar=x)
    blow = (1 + eps_prime) / (1 - eps_prime)
    return Certified(ybar=tuple(min(Fraction(1), blow * v) for v in x))


def separate_kc(inst, xbar, mode="threshold-heuristic"):
    """Search the knapsack-cover family for a cut violated at xbar.

    threshold-heuristic tries S = {i : xbar_i >= t} for every distinct
    coordinate value t plus t = 1/2, and S empty.  exhaustive scans all
    2^n sets (n <= 20) in the kernel layer, and the kernel's score must
    equal the violation of the cut it names (VerificationError
    otherwise).  Returns the most violated Violated, or None;
    exhaustive ties go to the smallest set mask, heuristic ties to the
    earliest threshold tried.
    """
    x = as_point(xbar, inst.n)
    if mode == "threshold-heuristic":
        candidates = [frozenset()]
        seen = {frozenset()}
        for t in sorted(set(x) | {Fraction(1, 2)}):
            S = frozenset(i for i in range(inst.n) if x[i] >= t)
            if S not in seen:
                seen.add(S)
                candidates.append(S)
        best = None
        for S in candidates:
            beta = Fraction(1) - sum(inst.profits[i] for i in S)
            if beta <= 0:
                continue
            cut = kc_inequality(inst, S)
            gap = cut.violation(x)
            if gap > 0 and (best is None or gap > best.violation):
                best = Violated(cut=cut, family="kc", violation=gap)
        return best
    if mode == "exhaustive":
        if inst.n > 20:
            raise ValueError("exhaustive KC separation is limited to n <= 20")
        X = lcm(*(v.denominator for v in x)) if x else 1
        a = [int(v * X) for v in x]
        score, mask = kernels.kc_best_subset(inst.r, a, X, inst.q)
        if score <= 0:
            return None
        S = [i for i in range(inst.n) if (mask >> i) & 1]
        cut = kc_inequality(inst, S)
        gap = cut.violation(x)
        if gap != Fraction(score, inst.q * X):
            raise VerificationError(
                "the KC kernel's score differs from its cut's violation")
        return Violated(cut=cut, family="kc", violation=gap)
    raise ValueError("mode must be 'threshold-heuristic' or 'exhaustive'")


def separate_fixed_support(inst, xbar, I, pitch_limit=None, budget=None):
    """Exact separation over valid cuts with support inside I.

    Minimises sum alpha_i xbar_i subject to sum_{i in J} alpha_i >= 1
    for every massive J (p(J) >= beta(I)), alpha >= 0, generating
    massive rows on demand through the exact min-knapsack oracle; the
    final oracle call certifies feasibility for all massive sets, the
    generated ones and the rest alike.  With pitch_limit = k the rows
    sum_{i in J} alpha_i >= 1 for every k-subset J of I are enforced as
    well, so the optimal alpha yields a cut of pitch at most k.  Returns
    (alpha, value, violated, query); the cut alpha.x >= 1 is valid
    whenever beta(I) > 0, and violated iff value < 1.
    """
    x = as_point(xbar, inst.n)
    I = tuple(sorted(set(I)))
    if not set(I) <= set(range(inst.n)):
        raise ValueError("support set outside the instance")
    inside = set(I)
    bq = inst.q - sum(inst.r[i] for i in range(inst.n) if i not in inside)
    if bq <= 0:
        raise ValueError(
            "beta(I) = %s is not positive: no valid inequality has support "
            "inside I" % (Fraction(bq, inst.q),)
        )
    betaI = Fraction(bq, inst.q)
    if pitch_limit is not None:
        pitch_limit = int(pitch_limit)
        if pitch_limit < 1:
            raise ValueError("pitch_limit must be a positive integer")
    cell_budget = knapdp.DEFAULT_BUDGET if budget is None else budget

    model = ratlp.LPModel()
    position = {}
    for i in I:
        position[i] = model.add_var(lb=0, ub=None, obj=x[i])
    generated = []

    def add_massive(J):
        generated.append(tuple(J))
        model.add_row({position[j]: Fraction(1) for j in J}, ">=", 1)

    add_massive(I)
    for j in I:
        if inst.r[j] >= bq and len(I) > 1:
            add_massive((j,))

    sub_r = [inst.r[j] for j in I]

    def rows(solution):
        alpha = solution.primal
        fresh = []
        value, chosen = knapdp._exact_cover(sub_r, list(alpha), bq, cell_budget)
        if value < 1:
            J = tuple(I[k] for k in chosen)
            generated.append(J)
            fresh.append(({position[j]: Fraction(1) for j in J}, ">=", 1))
        if pitch_limit is not None and len(I) >= pitch_limit:
            ranked = sorted(range(len(I)), key=lambda k: (alpha[k], k))
            smallest = ranked[:pitch_limit]
            if sum(alpha[k] for k in smallest) < 1:
                fresh.append((
                    {position[I[k]]: Fraction(1) for k in smallest},
                    ">=",
                    1,
                ))
        return fresh

    solution = ratlp.solve_lp(model, rows)
    assert solution.status == "optimal"  # alpha = 2 on all of I is feasible
    alpha = {i: solution.primal[position[i]] for i in I}
    value = solution.objective
    query = FixedSupportQuery(I=I, betaI=betaI, rows=tuple(generated))
    return FixedSupportResult(
        alpha=alpha, value=value, violated=value < 1, query=query
    )


def enumerate_pitch1(inst):
    """All undominated pitch-1 cuts: minimal T with profit outside T < 1.

    Works over positive-profit items only (a zero-profit member would
    contradict minimality).  n <= 20.
    """
    if inst.n > 20:
        raise ValueError("pitch-1 enumeration is limited to n <= 20")
    positive = [i for i in range(inst.n) if inst.r[i] > 0]
    weights = [inst.r[i] for i in positive]
    m = len(positive)
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    full = (1 << m) - 1
    out = []
    for mask in range(1 << m):
        if sums[mask] >= inst.q:
            continue
        rest = full & ~mask
        # maximality: the lightest absent item must not fit (r ascending)
        low = rest & -rest
        if low and sums[mask] + weights[low.bit_length() - 1] < inst.q:
            continue
        out.append(_pitch1_cut(
            inst, [positive[k] for k in range(m) if not (mask >> k) & 1]))
    out.sort(key=lambda ineq: ineq.support)
    return out


def enumerate_pitch2(inst):
    """All canonical pitch-2 cuts: every I with |I| >= 2, beta(I) > 0 and
    some member profit below beta(I).  n <= 16."""
    if inst.n > 16:
        raise ValueError("pitch-2 enumeration is limited to n <= 16")
    n = inst.n
    total = sum(inst.r)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + inst.r[low.bit_length() - 1]
    out = []
    seen = set()
    for mask in range(1, 1 << n):
        if mask.bit_count() < 2:
            continue
        bq = inst.q - (total - sums[mask])
        if bq <= 0:
            continue
        low = mask & -mask
        if inst.r[low.bit_length() - 1] >= bq:
            continue  # I1 empty: profits sorted, the lowest member decides
        coefficients = {}
        probe = mask
        while probe:
            bit = probe & -probe
            i = bit.bit_length() - 1
            coefficients[i] = Fraction(1) if inst.r[i] < bq else Fraction(2)
            probe ^= bit
        cut = make_inequality(coefficients, Fraction(2), "pitch2-canonical")
        if cut.key() not in seen:
            seen.add(cut.key())
            out.append(cut)
    return out


def implied_by(target, family, n):
    """Conic implication test.

    True iff nonnegative multipliers over the family give coefficients
    at most the target's on every index of [n] and right-hand side at
    least the target's; nonnegativity of x absorbs the coefficient
    slack.  Decided exactly as an LP feasibility problem.
    """
    # any member with weight outside the target's support is forced to
    # multiplier zero, so restrict to members inside it up front
    family = [member for member in family
              if all(target.coefficient(i) > 0 for i, _ in member.terms)]
    if not family:
        return target.rhs <= 0
    for member in family:
        # single-member implication needs no LP: scale to match rhs
        if member.rhs <= 0:
            continue
        scale = target.rhs / member.rhs
        if all(scale * w <= target.coefficient(i)
               for i, w in member.terms):
            return True
    model = ratlp.LPModel()
    for _ in family:
        model.add_var(lb=0, ub=None, obj=0)
    for i in range(n):
        coefficients = {}
        for k, member in enumerate(family):
            w = member.coefficient(i)
            if w:
                coefficients[k] = w
        if coefficients:
            model.add_row(coefficients, "<=", target.coefficient(i))
    model.add_row(
        {k: member.rhs for k, member in enumerate(family)}, ">=", target.rhs
    )
    return ratlp.solve_lp(model).status == "optimal"
