"""Separation oracles for min-knapsack covering cuts.

The heart is separate_pitch12, the (1+eps)-oracle over pitch-1 cuts and
the canonical pitch-2 family: a precheck on the knapsack row, then one
covering subproblem per candidate level alpha on the grid {(r_i+1)/q},
all solved in one kernel call, then the pitch-1 test at alpha = 1/q,
then certification.  The rest of
the module provides knapsack-cover separation, the fixed-support LP
with massive-set row generation, brute-force enumerators for small n,
and the conic dominance test used to reproduce implication arguments.

Pitch-1/2 and knapsack-cover separation run on an integer core with a
Fraction edge: the point is scaled once to integers a over one
denominator X (core.scaled_point), and every level-alpha subproblem,
every candidate cut's score and every comparison between candidates
is integer arithmetic on inst.r, inst.q, a and X.  Fractions appear
only in the answer: the winning cut, its violation and ybar.

The self-checks raise VerificationError, also under python -O: a
subproblem hit whose cut is not violated or whose beta(I) is not
positive (_line2_split), a built cut whose violation differs from its
integer score (_violated; this also checks the exhaustive KC kernel),
and a fixed-support LP that does not end optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import kernels, knapdp, ratlp
from .core import (
    Inequality,
    VerificationError,
    as_point,
    kc_inequality,
    line2_split,
    make_inequality,
    natural_row,
    scaled_point,
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


def _line2_split(inst, chosen, base):
    """core.line2_split of I = chosen, with beta(I) = bq/q for bq =
    sum_{i in I} r_i - base, base = sum(r) - q."""
    bq = sum(inst.r[i] for i in chosen) - base
    # the cover constraint of the subproblem leaves beta(I) >= alpha > 0
    if bq <= 0:
        raise VerificationError(
            "a level-alpha solution left beta(I) = %s, not positive"
            % (Fraction(bq, inst.q),))
    return line2_split(inst.r, chosen, bq)


def _line2_cut(inst, chosen):
    """Cut induced by a subproblem solution I with objective value < 2.

    Splits I at beta(I) (see _line2_split).  When the split degenerates
    the doubled objective already forces sum over I of xbar below 1, so
    the plain pitch-1 cut on I is violated; zero-profit members are
    dropped from its support.
    """
    return make_inequality(*_line2_split(inst, chosen, sum(inst.r) - inst.q))


def _violated(cut, x, gap, scale):
    """Violated for cut, whose violation at x must be exactly gap/scale."""
    violation = cut.violation(x)
    if violation != Fraction(gap, scale):
        raise VerificationError(
            "a %s cut's violation %s differs from its integer score %s/%s"
            % (cut.family, violation, gap, scale))
    return Violated(cut=cut, family=cut.family, violation=violation)


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

    The point is scaled once to integers a over one denominator X, and
    every level, every candidate cut's violation (an integer over X)
    and the comparison between candidates run in integers.  Only the
    winning cut is built as an Inequality, and its Fraction violation
    must equal its integer score (VerificationError otherwise).

    The levels are solved by one knapdp._level_cover call per mode.  In
    exact mode that call covers the grid and alpha = 1/q and holds one
    DP table of the largest level's size (the size the budget is checked
    against); in fptas mode alpha = 1/q is a second call, made only
    when no grid level yields a cut.
    """
    if mode not in ("exact", "fptas"):
        raise ValueError("mode must be 'exact' or 'fptas'")
    eps_prime = None
    if mode == "fptas":
        eps = knapdp._coerce_eps(eps)
        eps_prime = eps / (2 + eps)
    x = as_point(xbar, inst.n)
    a, X = scaled_point(x)
    r, q = inst.r, inst.q

    # the knapsack row p.x >= 1 is sum r_i a_i >= q X
    gap = q * X - sum(ri * ai for ri, ai in zip(r, a))
    if gap > 0:
        return _violated(natural_row(inst), x, gap, q * X)

    base = sum(r) - q

    def solve(nums):
        return knapdp._level_cover(r, a, base, nums, mode, eps_prime, budget)

    grid = sorted({ri + 1 for ri in r if ri + 1 <= q})
    # the exact sweep solves level 1 for little more than its zero-profit
    # items, so it always comes along; fptas solves it only when needed
    answers = solve(grid + [1] if mode == "exact" else grid)
    best = None
    best_gap = 0
    for value, chosen in answers[:len(grid)]:
        # a solution of value < 2 gives a cut; value is over X
        if value >= 2 * X:
            continue
        coefficients, rhs, _ = _line2_split(inst, chosen, base)
        gap = rhs * X - sum(w * a[i] for i, w in coefficients.items())
        if gap <= 0:
            raise VerificationError(
                "a level-alpha solution of value < 2 gave no violated cut")
        # ascending grid plus strict improvement: ties keep the smallest alpha
        if gap > best_gap:
            best, best_gap = chosen, gap
    if best is not None:
        return _violated(_line2_cut(inst, best), x, best_gap, X)

    value, chosen = answers[-1] if mode == "exact" else solve([1])[0]
    if value < 2 * X:
        gap = X - sum(a[i] for i in chosen if r[i] > 0)
        if gap <= 0:
            raise VerificationError(
                "a level-1/q solution of value < 2 gave no violated pitch-1 cut")
        return _violated(_pitch1_cut(inst, chosen), x, gap, X)

    if mode == "exact":
        return Certified(ybar=x)
    blow = (1 + eps_prime) / (1 - eps_prime)
    return Certified(ybar=tuple(min(Fraction(1), blow * v) for v in x))


def separate_kc(inst, xbar, mode="threshold-heuristic"):
    """Search the knapsack-cover family for a cut violated at xbar.

    threshold-heuristic tries S = {i : xbar_i >= t} for every distinct
    coordinate value t plus t = 1/2, and S empty.  exhaustive scans all
    2^n sets (n <= 20) in the kernel layer.  Both score a set S as an
    integer over q X, with a, X = scaled_point(xbar) and residual bq =
    q - sum_{i in S} r_i > 0: bq X - sum_{i not in S} min(r_i, bq) a_i.
    Only the winner's cut is built, and its violation must equal its
    score (VerificationError otherwise).  Returns the most violated
    Violated, or None; exhaustive ties go to the smallest set mask,
    heuristic ties to the earliest threshold tried.
    """
    x = as_point(xbar, inst.n)
    a, X = scaled_point(x)
    r, q = inst.r, inst.q
    if mode == "threshold-heuristic":
        # thresholds t = a_i / X and 1/2, as integers over 2X
        candidates = [frozenset()]
        seen = {frozenset()}
        for t in sorted({2 * ai for ai in a} | {X}):
            S = frozenset(i for i in range(inst.n) if 2 * a[i] >= t)
            if S not in seen:
                seen.add(S)
                candidates.append(S)
        best = None
        best_score = 0
        for S in candidates:
            bq = q - sum(r[i] for i in S)
            if bq <= 0:
                continue
            score = bq * X - sum(
                (r[i] if r[i] < bq else bq) * a[i]
                for i in range(inst.n) if i not in S)
            if score > best_score:
                best, best_score = S, score
        if best is None:
            return None
        return _violated(kc_inequality(inst, best), x, best_score, q * X)
    if mode == "exhaustive":
        if inst.n > 20:
            raise ValueError("exhaustive KC separation is limited to n <= 20")
        score, mask = kernels.kc_best_subset(r, a, X, q)
        if score <= 0:
            return None
        S = [i for i in range(inst.n) if (mask >> i) & 1]
        return _violated(kc_inequality(inst, S), x, score, q * X)
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
        value, chosen = knapdp._exact_cover(sub_r, list(alpha), bq, budget)
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
    if solution.status != "optimal":  # alpha = 2 on all of I is feasible
        raise VerificationError(
            "the fixed-support LP ended %s, not optimal" % solution.status)
    alpha = {i: solution.primal[position[i]] for i in I}
    value = solution.objective
    query = FixedSupportQuery(I=I, betaI=betaI, rows=tuple(generated))
    return FixedSupportResult(
        alpha=alpha, value=value, violated=value < 1, query=query
    )


def _subset_sums(weights):
    """sums[mask] = the sum of weights[k] over the bits k of mask."""
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


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
    sums = _subset_sums(weights)
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
    some member profit below beta(I), in mask order.  n <= 16."""
    if inst.n > 16:
        raise ValueError("pitch-2 enumeration is limited to n <= 16")
    n = inst.n
    base = sum(inst.r) - inst.q
    sums = _subset_sums(inst.r)
    out = []
    for mask in range(1, 1 << n):
        bq = sums[mask] - base
        if bq <= 0:
            continue
        I = [i for i in range(n) if mask >> i & 1]
        coefficients, rhs, family = line2_split(inst.r, I, bq)
        if family == "pitch2-canonical":
            out.append(make_inequality(coefficients, rhs, family))
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
