"""Pure Python fallbacks for the three DP kernels.

These run on arbitrary-precision integers, so they never overflow; the
compiled versions in _speedups (hand-written C, _speedups.c) are
drop-in replacements restricted to signed 64-bit ranges, and the tests
compare them against these.  Tie-breaking must stay identical between
the two implementations: callers rely on the reconstructed index sets
being bit-for-bit reproducible.
"""

from __future__ import annotations


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
