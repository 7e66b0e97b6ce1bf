"""Brute-force references the tests check the package against.

Everything here enumerates subsets with itertools and sums Fractions
directly; nothing is shared with the package internals beyond the
Instance container.  Slow on purpose, keep n small.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil


def subsets(n):
    for k in range(n + 1):
        yield from combinations(range(n), k)


def feasible_sets(inst):
    """All index tuples S with p(S) >= 1."""
    return [
        S for S in subsets(inst.n)
        if sum(inst.profits[i] for i in S) >= 1
    ]


def brute_min_cost(inst, objective):
    """(value, chosen) minimising objective over feasible sets.

    Ties go to the lexicographically smallest index tuple, the same rule
    the DP reconstruction follows.
    """
    best = None
    for S in feasible_sets(inst):
        value = sum(objective[i] for i in S)
        if best is None or (value, S) < best:
            best = (value, S)
    return best


def brute_min_lhs(ineq, inst):
    """Minimum of the cut's lhs over feasible 0/1 points."""
    return min(
        sum(w for i, w in ineq.terms if i in set(S))
        for S in feasible_sets(inst)
    )


def brute_valid(ineq, inst):
    return brute_min_lhs(ineq, inst) >= ineq.rhs


def brute_cover(r, obj, need):
    """Reference for the min-cost cover kernel: (value, chosen) over
    subsets with sum r >= need, ties lexicographic; (None, ()) when no
    subset covers."""
    if need <= 0:
        return 0, ()
    best = None
    for S in subsets(len(r)):
        if sum(r[i] for i in S) < need:
            continue
        value = sum(obj[i] for i in S)
        if best is None or (value, S) < best:
            best = (value, S)
    if best is None:
        return None, ()
    return best


def brute_cheapest_reach(cost, r, budget, target):
    """Reference for the budgeted max-profit kernel: the cheapest subset
    reaching target within budget, ties lexicographic."""
    if target <= 0:
        return 0, ()
    best = None
    for S in subsets(len(cost)):
        if sum(r[i] for i in S) < target:
            continue
        value = sum(cost[i] for i in S)
        if value > budget:
            continue
        if best is None or (value, S) < best:
            best = (value, S)
    if best is None:
        return None, ()
    return best


def reference_fptas(r, costs, need, eps):
    """The FPTAS cover in Fractions, one step at a time.

    Zero-cost items are taken in index order while the need is open.
    The guess v starts at the fractional greedy bound (density order,
    ties by index) and doubles, capped at the total paying cost; each
    round rounds c_i up to a multiple of delta = eps*v/(2m) and takes
    the cheapest reach of the residual need within B = ceil(2m/eps) + m
    rounded units.  Returns (value, chosen); the need must be coverable.
    """
    if need <= 0:
        return Fraction(0), ()
    taken = []
    cover = 0
    for i in range(len(r)):
        if costs[i] == 0 and cover < need:
            taken.append(i)
            cover += r[i]
    if cover >= need:
        return Fraction(0), tuple(taken)
    residual = need - cover
    paying = [i for i in range(len(r)) if costs[i] > 0 and r[i] > 0]
    lb = Fraction(0)
    acc = 0
    for i in sorted(paying, key=lambda i: (costs[i] / r[i], i)):
        if acc + r[i] >= residual:
            lb += costs[i] * Fraction(residual - acc, r[i])
            break
        acc += r[i]
        lb += costs[i]
    total = sum(costs[i] for i in paying)
    m = len(paying)
    B = ceil(Fraction(2 * m) / eps) + m
    guess = lb
    while True:
        delta = eps * guess / (2 * m)
        rounded = [ceil(costs[i] / delta) for i in paying]
        reach, sub = brute_cheapest_reach(
            rounded, [r[i] for i in paying], B, residual)
        if reach is not None:
            picked = [paying[k] for k in sub]
            return (sum(costs[i] for i in picked),
                    tuple(sorted(taken + picked)))
        guess = min(2 * guess, total)


def brute_kc_scan(inst, x):
    """Most violated knapsack-cover cut over all S: (violation, S).

    violation may be <= 0; ties keep the set whose bitmask is smallest,
    matching the exhaustive kernel.
    """
    best = None
    for mask in range(1 << inst.n):
        S = [i for i in range(inst.n) if (mask >> i) & 1]
        beta = Fraction(1) - sum(inst.profits[i] for i in S)
        if beta <= 0:
            continue
        lhs = sum(
            min(inst.profits[i], beta) * x[i]
            for i in range(inst.n) if i not in set(S)
        )
        gap = beta - lhs
        if best is None or gap > best[0]:
            best = (gap, tuple(S))
    return best


def brute_pitch1_supports(inst):
    """Supports of the undominated pitch-1 cuts, sorted.

    sum_{i in T} x_i >= 1 is valid iff the profit outside T stays below
    1; undominated means no proper subset of T works.  Zero-profit items
    never appear in a minimal T.
    """
    positive = [i for i in range(inst.n) if inst.profits[i] > 0]

    def valid(T):
        inside = set(T)
        return sum(inst.profits[i] for i in positive if i not in inside) < 1

    out = []
    for k in range(1, len(positive) + 1):
        for T in combinations(positive, k):
            if not valid(T):
                continue
            if any(valid(T[:j] + T[j + 1:]) for j in range(len(T))):
                continue
            out.append(T)
    return sorted(out)


def brute_pitch2_keys(inst):
    """Dedup keys (terms, rhs) of every canonical pitch-2 cut.

    One cut per support I with |I| >= 2, beta(I) > 0 and some member
    profit strictly below beta(I): coefficient 1 below beta(I), 2 at or
    above, rhs 2.
    """
    out = set()
    for k in range(2, inst.n + 1):
        for I in combinations(range(inst.n), k):
            inside = set(I)
            beta = Fraction(1) - sum(
                inst.profits[i] for i in range(inst.n) if i not in inside
            )
            if beta <= 0:
                continue
            if not any(inst.profits[i] < beta for i in I):
                continue
            terms = tuple(
                (i, Fraction(1) if inst.profits[i] < beta else Fraction(2))
                for i in I
            )
            out.add((terms, Fraction(2)))
    return out


def brute_pitch(coefficients, rhs):
    """Minimum number of coefficients whose sum reaches rhs."""
    w = sorted(coefficients)
    total = Fraction(0)
    for k, v in enumerate(w):
        total += v
        if total >= rhs:
            return k + 1
    return len(w) + 1


def reference_line2_cut(inst, chosen):
    """(terms, rhs, family) of the cut a level-alpha solution I induces,
    term by term: the canonical pitch-2 cut split at beta(I), or the
    pitch-1 cut on the positive-profit members of I when |I| < 2 or no
    member's profit is below beta(I)."""
    inside = set(chosen)
    beta = Fraction(1) - sum(
        inst.profits[i] for i in range(inst.n) if i not in inside)
    assert beta > 0
    members = sorted(inside)
    if len(members) >= 2 and any(inst.profits[i] < beta for i in members):
        terms = tuple(
            (i, Fraction(1) if inst.profits[i] < beta else Fraction(2))
            for i in members)
        return terms, Fraction(2), "pitch2-canonical"
    terms = tuple((i, Fraction(1)) for i in members if inst.profits[i] > 0)
    return terms, Fraction(1), "pitch1"


def reference_pitch12(inst, x, solve_palpha, mode="exact", eps=None):
    """The pitch-1/2 oracle in Fractions, one step at a time.

    solve_palpha(inst, x, alpha, mode=..., eps=...) solves each level.
    Returns ("violated", terms, rhs, family, violation) or
    ("certified", ybar): the knapsack row when x violates it, else the
    most violated cut over the levels alpha = (r_i+1)/q <= 1 (strict
    improvement, so ties keep the smallest alpha), else the pitch-1 cut
    of the level-1/q solution, else the (blown-up) point.
    """
    def violation(terms, rhs):
        return rhs - sum(w * x[i] for i, w in terms)

    row = tuple((i, p) for i, p in enumerate(inst.profits) if p > 0)
    gap = violation(row, Fraction(1))
    if gap > 0:
        return ("violated", row, Fraction(1), "knapsack-row", gap)
    eps_prime = None if mode == "exact" else eps / (2 + eps)
    best = None
    for alpha in sorted({Fraction(ri + 1, inst.q) for ri in inst.r
                         if ri + 1 <= inst.q}):
        sol = solve_palpha(inst, x, alpha, mode=mode, eps=eps_prime)
        if sol.value >= 2:
            continue
        terms, rhs, family = reference_line2_cut(inst, sol.chosen)
        gap = violation(terms, rhs)
        assert gap > 0
        if best is None or gap > best[4]:
            best = ("violated", terms, rhs, family, gap)
    if best is not None:
        return best
    sol = solve_palpha(inst, x, Fraction(1, inst.q), mode=mode, eps=eps_prime)
    if sol.value < 2:
        terms = tuple((i, Fraction(1)) for i in sorted(sol.chosen)
                      if inst.profits[i] > 0)
        return ("violated", terms, Fraction(1), "pitch1",
                violation(terms, Fraction(1)))
    if mode == "exact":
        return ("certified", tuple(x))
    blow = (1 + eps_prime) / (1 - eps_prime)
    return ("certified", tuple(min(Fraction(1), blow * v) for v in x))


def reference_simplex_moves(model):
    """The moves of ratlp's cold solve, from a dense Fraction simplex.

    The columns and rules are ratlp's, written out term by term: the
    structurals, then one slack per row (sign -1 for >= rows); the start
    point is all upper bounds when they are finite and satisfy every
    row, else all lower bounds; the entering column is the first whose
    reduced cost improves; the blocking row has the smallest limit, on
    equal limits the smaller basic column; a bound flip wins a tie with
    it.  Returns (status, moves) with (row, column) for a pivot and
    (-1, column) for a bound flip, or None when a row fails at the start
    point, where ratlp would add an artificial and run phase 1.
    """
    nv, m = model.n_vars, len(model.rows)
    ncols = nv + m
    senses = [sense for _, sense, _ in model.rows]
    lo = list(model.lower) + [Fraction(0)] * m
    up = list(model.upper) + [Fraction(0) if s == "=" else None
                              for s in senses]

    def slacks(x):
        # a.x + sign * s = rhs, with sign -1 for >= rows
        return [(rhs - sum(w * x[j] for j, w in terms.items()))
                * (-1 if sense == ">=" else 1)
                for terms, sense, rhs in model.rows]

    def fit(s, sense):
        return s == 0 if sense == "=" else s >= 0

    at_upper = None not in model.upper and all(
        map(fit, slacks(model.upper), senses))
    start = list(model.upper if at_upper else model.lower)
    x = start + slacks(start)
    if not all(map(fit, x[nv:], senses)):
        return None
    flags = [at_upper] * nv + [False] * m
    # row i: sum_j T[i][j] x_j = const, with T[i][basis[i]] == 1
    T = []
    for i, (terms, sense, _) in enumerate(model.rows):
        row = [Fraction(0)] * ncols
        for j, w in terms.items():
            row[j] = -w if sense == ">=" else w
        row[nv + i] = Fraction(1)
        T.append(row)
    basis = [nv + i for i in range(m)]
    # reduced costs c - c_B T; the slacks cost nothing
    d = list(model.objective) + [Fraction(0)] * m
    moves = []
    while True:
        enter = direction = None
        for j in range(ncols):
            if j in basis or lo[j] == up[j]:
                continue
            if d[j] < 0 and not flags[j] or d[j] > 0 and flags[j]:
                enter, direction = j, 1 if d[j] < 0 else -1
                break
        if enter is None:
            return "optimal", moves
        best = None  # ((limit, basic column), row)
        for i, k in enumerate(basis):
            t = T[i][enter] * direction  # x_k moves by -t per unit step
            if t > 0:
                limit = (x[k] - lo[k]) / t
            elif t < 0 and up[k] is not None:
                limit = (up[k] - x[k]) / -t
            else:
                continue
            if best is None or (limit, k) < best[0]:
                best = ((limit, k), i)
        span = None if up[enter] is None else up[enter] - lo[enter]
        if best is None and span is None:
            return "unbounded", moves
        flip = best is None or (span is not None and span <= best[0][0])
        step = span if flip else best[0][0]
        x[enter] += direction * step
        for i, k in enumerate(basis):
            x[k] -= T[i][enter] * direction * step
        if flip:
            flags[enter] = not flags[enter]
            moves.append((-1, enter))
            continue
        r = best[1]
        flags[basis[r]] = T[r][enter] * direction < 0
        flags[enter] = False
        pivot = T[r][enter]
        T[r] = [w / pivot for w in T[r]]
        for i in range(m):
            if i != r and T[i][enter]:
                factor = T[i][enter]
                T[i] = [a - factor * b for a, b in zip(T[i], T[r])]
        factor = d[enter]
        d = [a - factor * b for a, b in zip(d, T[r])]
        basis[r] = enter
        moves.append((r, enter))
