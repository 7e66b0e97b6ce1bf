"""Pure Python fallbacks for the DP kernels.

min_cover_solve, max_profit_solve and kc_best_subset are single DPs;
min_cover_levels and fptas_levels solve the pitch-2 level-alpha
subproblems for a whole grid of levels in one call.  These run on
arbitrary-precision integers, so they never overflow; the compiled
versions in _speedups (hand-written C, _speedups.c) are drop-in
replacements restricted to signed 64-bit ranges, and the tests compare
them against these.  Tie-breaking must stay identical between
the two implementations: callers rely on the reconstructed index sets
being bit-for-bit reproducible.
"""

from __future__ import annotations

from math import lcm


def min_cover_solve(r, obj, need):
    """Min-cost cover DP over integer data.

    Minimises sum(obj[i] for i in S) subject to sum(r[i] for i in S) >= need.
    Returns (value, chosen) with chosen the lexicographically smallest
    optimal index tuple, or (None, ()) when even the full set falls short.
    The table has (len(r)+1) * (need+1) cells; the caller budgets that.
    """
    n = len(r)
    if need <= 0:
        return 0, ()
    INF = sum(obj) + 1
    # rows[i][s]: cheapest cover of s using items i.. (s capped at need)
    rows = [None] * (n + 1)
    rows[n] = [0] + [INF] * need
    for i in range(n - 1, -1, -1):
        nxt = rows[i + 1]
        ri = r[i]
        oi = obj[i]
        cur = [0] * (need + 1)
        for s in range(1, need + 1):
            skip = nxt[s]
            take = oi + nxt[s - ri if s > ri else 0]
            cur[s] = take if take < skip else skip
        rows[i] = cur
    if rows[0][need] >= INF:
        return None, ()
    chosen = []
    s = need
    for i in range(n):
        if s == 0:
            break
        s2 = s - r[i] if s > r[i] else 0
        # prefer taking i: among optima this yields the lex-smallest set
        if obj[i] + rows[i + 1][s2] == rows[i][s]:
            chosen.append(i)
            s = s2
    return rows[0][need], tuple(chosen)


def max_profit_solve(cost, r, budget, target):
    """Budget-indexed max-profit DP.

    g[i][b] is the largest sum of r over items i.. with cost sum <= b.
    Returns (minreach, chosen): the least b with g[0][b] >= target and a
    witness set, or (None, ()) if target is unreachable within budget.
    """
    n = len(cost)
    rows = [None] * (n + 1)
    rows[n] = [0] * (budget + 1)
    for i in range(n - 1, -1, -1):
        nxt = rows[i + 1]
        ci = cost[i]
        ri = r[i]
        cur = list(nxt)
        for b in range(ci, budget + 1):
            take = ri + nxt[b - ci]
            if take > cur[b]:
                cur[b] = take
        rows[i] = cur
    g0 = rows[0]
    minreach = None
    for b in range(budget + 1):
        if g0[b] >= target:
            minreach = b
            break
    if minreach is None:
        return None, ()
    chosen = []
    b = minreach
    t = target
    for i in range(n):
        if t <= 0:
            break
        ci = cost[i]
        if ci <= b and rows[i + 1][b - ci] >= t - r[i]:
            chosen.append(i)
            b -= ci
            t -= r[i]
    return minreach, tuple(chosen)


def kc_best_subset(r, a, X, q):
    """Exhaustive knapsack-cover scan over all subsets.

    Scaled data: r[i] = p_i * q, a[i] = xbar_i * X.  For each S with
    residual bq = q - sum(r over S) > 0 the scaled violation is
    bq*X - sum(min(r[i], bq) * a[i] for i not in S); the true violation
    is that over q*X.  Returns the maximum and its mask (ties keep the
    smaller mask; bit i of the mask is item i).
    """
    n = len(r)
    total = 1 << n
    sum_r = [0] * total
    for m in range(1, total):
        low = m & (-m)
        sum_r[m] = sum_r[m ^ low] + r[low.bit_length() - 1]
    best = None
    best_mask = 0
    full = total - 1
    for m in range(total):
        bq = q - sum_r[m]
        if bq <= 0:
            continue
        acc = bq * X
        mm = full ^ m
        while mm:
            low = mm & (-mm)
            i = low.bit_length() - 1
            ri = r[i]
            acc -= (ri if ri < bq else bq) * a[i]
            mm ^= low
        if best is None or acc > best:
            best = acc
            best_mask = m
    return best, best_mask


def _level_objective(r, a, num):
    """a_i, doubled on the items with r_i >= num."""
    return [ai if ri < num else 2 * ai for ri, ai in zip(r, a)]


def min_cover_levels(r, a, base, nums, cover_dp=min_cover_solve):
    """min_cover_solve at every level num in nums.

    Level num minimises the objective a_i, doubled where r_i >= num,
    under the need base + num.  Returns one (value, chosen) per num, as
    min_cover_solve does.  The compiled version shares one table of the
    doubled objective across the levels and needs r ascending.
    cover_dp runs each level's DP; kernels passes its dispatching
    min_cover_solve, so inputs too large for the compiled sweep still
    get compiled DPs at the levels that fit.
    """
    return [cover_dp(r, _level_objective(r, a, num), base + num)
            for num in nums]


def fptas_bound(m, en, ed):
    """B = ceil(2m/eps) + m, the largest rounded-cost state of the FPTAS
    over m paying items at eps = en/ed."""
    return -(-2 * m * ed // en) + m


def fptas_levels(r, a, base, nums, en, ed, profit_dp=max_profit_solve):
    """The FPTAS cover (_fptas_cover) at eps = en/ed at every level num
    in nums, with the level objective and need of min_cover_levels.
    Returns one (value, chosen) per num.  profit_dp runs the max-profit
    DPs; kernels passes its dispatching max_profit_solve, so inputs too
    large for the compiled sweep still get compiled DPs."""
    return [_fptas_cover(r, _level_objective(r, a, num), base + num, en, ed,
                         profit_dp)
            for num in nums]


def _fptas_cover(r, costs, need, en, ed, profit_dp):
    """(1+eps)-approximate minimum of integer costs under sum r_i z_i >= need.

    Zero-cost items are taken up front (they can only help coverage).
    The rest runs a guess loop on the optimal value v: costs are rounded
    up to multiples of delta = eps*v/(2m), a max-profit DP over rounded
    cost states 0..B with B = fptas_bound(m, en, ed) looks for the
    cheapest state covering the residual need, and the guess doubles
    until one is found.  The first hit costs at most (1+eps) times the
    optimum.  Returns (value, chosen), or (None, ()) when even every item
    falls short of need.

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
        return None, ()
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
    B = fptas_bound(m, en, ed)
    sub_r = [r[i] for i in paying]
    sub_c = [costs[i] for i in paying]
    while True:
        # ceil(c / delta) with delta = eps*gn / (2m*gd); a cost above B
        # is never taken, so it is clipped to B + 1
        num = 2 * m * ed * gd
        den = en * gn
        rounded = [min(-(-c * num // den), B + 1) for c in sub_c]
        reach, chosen_sub = profit_dp(rounded, sub_r, B, residual)
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
