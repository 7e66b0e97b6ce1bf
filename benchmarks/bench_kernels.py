"""Compare the compiled DP kernels against the pure-Python fallback,
and the compiled level sweeps against their per-level calls.

Run as a script: python benchmarks/bench_kernels.py [--repeat N].
Times min_cover_solve, max_profit_solve and kc_best_subset on a sweep
of instance sizes and prints one table row per case.  Next to each
best time it prints the minor page faults per call (the process's
getrusage ru_minflt delta over the repeats): a call whose table is too
big for the allocator to reuse maps and zero-fills fresh pages every
time, and then its time is mostly those faults.  Both backends must
agree on every answer; the benchmark aborts if they disagree.

A second table, in milliseconds, times min_cover_levels and
fptas_levels on pitch-2 level grids (the grid {r_i + 1 <= q} plus level
1, as sep.separate_pitch12 solves it) against one call per level:
compiled min_cover_solve on each level's doubled objective, and the
Python FPTAS guess loop of _kernels_py driving the compiled
max_profit_solve.  Its cells are the DP cells computed per call (for
the FPTAS, summed over the guesses; both paths run the same guesses).
Sweep and per-level answers must agree.
"""

from __future__ import annotations

import argparse
import random
import resource
import time

from pitchcut import _kernels_py, kernels


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(fn, *args, repeat=3):
    """(result, best seconds, minor page faults per call)."""
    best = None
    result = None
    faults = _minor_faults()
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return result, best, (_minor_faults() - faults) / repeat


def _cover_case(rng, n, rmax):
    r = sorted(rng.randint(1, rmax) for _ in range(n))
    obj = [rng.randint(0, 50) for _ in range(n)]
    need = max(1, sum(r) // 3)
    return r, obj, need


def _profit_case(rng, n, cmax):
    cost = [rng.randint(1, cmax) for _ in range(n)]
    r = [rng.randint(1, 60) for _ in range(n)]
    budget = sum(cost) // 2
    target = max(1, sum(r) // 3)
    return cost, r, budget, target


def _kc_case(rng, n):
    q = 64
    r = sorted(rng.randint(1, 40) for _ in range(n))
    X = 16
    a = [rng.randint(0, X) for _ in range(n)]
    return r, a, X, q


def _row(name, n, args, compiled, repeat):
    """Time one kernel on both backends and return its table row.

    Raises when the backends disagree; a plain assert would let
    ``python -O`` skip the check.
    """
    py_res, py_t, py_f = _timed(getattr(_kernels_py, name), *args,
                                repeat=repeat)
    line = "%-18s %8d %12.4f %9.0f" % (name, n, py_t, py_f)
    if compiled is not None:
        c_res, c_t, c_f = _timed(getattr(compiled, name), *args,
                                 repeat=repeat)
        if c_res != py_res:
            raise RuntimeError("backend mismatch on %s at n=%d" % (name, n))
        line += " %12.4f %9.0f %7.1fx" % (c_t, c_f,
                                          py_t / c_t if c_t else 0.0)
    return line


def _level_case(rng, n, rmax):
    """r ascending with some zero profits, a point a with some zeros,
    base = sum(r) - q and the level grid plus level 1."""
    r = sorted(rng.choice((0, rng.randint(1, rmax), rng.randint(1, rmax)))
               for _ in range(n))
    a = [rng.choice((0, rng.randint(1, 50))) for _ in range(n)]
    q = max(1, sum(r) // 3)
    nums = sorted({ri + 1 for ri in r if ri + 1 <= q}) + [1]
    return r, a, sum(r) - q, nums


def _min_cover_per_level(compiled, r, a, base, nums):
    return [compiled.min_cover_solve(r, _kernels_py._level_objective(
        r, a, num), base + num) for num in nums]


def _cover_cells(r, base, nums):
    """(per-level cells, sweep cells) of the exact level DPs."""
    n = len(r)
    live = [(sum(1 for ri in r if ri < num), base + num) for num in nums
            if base + num > 0]
    if not live:
        return 0, 0
    per_level = sum((n + 1) * (need + 1) for _, need in live)
    kmin = min(k for k, _ in live)
    top = max(need for _, need in live)
    return per_level, ((n + 1 - kmin) * (top + 1)
                       + sum(k * (need + 1) for k, need in live))


class _CountedProfit:
    """The compiled max_profit_solve, counting its DP cells."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.cells = 0

    def __call__(self, cost, r, budget, target):
        self.cells += (len(cost) + 1) * (budget + 1)
        return self.compiled.max_profit_solve(cost, r, budget, target)


def _sweep_row(name, n, per_level, sweep, args, cells, repeat):
    """One row of the sweep table: per-level calls against one sweep.

    Raises when their answers differ.
    """
    pl_res, pl_t, pl_f = _timed(per_level, *args, repeat=repeat)
    sw_res, sw_t, sw_f = _timed(sweep, *args, repeat=repeat)
    if pl_res != sw_res:
        raise RuntimeError("sweep and per-level answers differ on %s at "
                           "n=%d" % (name, n))
    return "%-18s %5d %6d %10.3f %8.0f %11d %10.3f %8.0f %11d %7.1fx" % (
        name, n, len(args[3]), 1000 * pl_t, pl_f, cells[0], 1000 * sw_t,
        sw_f, cells[1], pl_t / sw_t if sw_t else 0.0)


def _sweeps(compiled, rng, repeat):
    print()
    print("%-18s %5s %6s %10s %8s %11s %10s %8s %11s %8s" % (
        "sweep", "n", "levels", "per-lvl ms", "faults", "cells",
        "sweep ms", "faults", "cells", "speedup"))
    for n, rmax in ((10, 300), (30, 300), (60, 300)):
        r, a, base, nums = _level_case(rng, n, rmax)
        print(_sweep_row(
            "min_cover_levels", n,
            lambda *args: _min_cover_per_level(compiled, *args),
            compiled.min_cover_levels, (r, a, base, nums),
            _cover_cells(r, base, nums), repeat))
    # eps' = eps/(2 + eps) of separate_pitch12 at eps = 1/10
    en, ed = 1, 21
    for n in (10, 30, 60):
        r, a, base, nums = _level_case(rng, n, 300)
        args = (r, a, base, nums, en, ed)
        counted = _CountedProfit(compiled)
        _kernels_py.fptas_levels(*args, counted)
        print(_sweep_row(
            "fptas_levels", n,
            lambda *args: _kernels_py.fptas_levels(
                *args, compiled.max_profit_solve),
            compiled.fptas_levels, args, (counted.cells, counted.cells),
            repeat))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    rng = random.Random(20240901)

    if not kernels.HAVE_SPEEDUPS:
        print("compiled extension not available; timing fallback only")
    compiled = kernels._speedups if kernels.HAVE_SPEEDUPS else None

    print("%-18s %8s %12s %9s %12s %9s %8s" % (
        "kernel", "n", "python", "faults", "compiled", "faults", "speedup"))
    for n in (50, 200, 800):
        print(_row("min_cover_solve", n, _cover_case(rng, n, 200), compiled,
                   args.repeat))
    for n in (50, 200, 800):
        print(_row("max_profit_solve", n, _profit_case(rng, n, 80), compiled,
                   args.repeat))
    for n in (12, 16, 20):
        print(_row("kc_best_subset", n, _kc_case(rng, n), compiled,
                   args.repeat))
    if compiled is not None:
        _sweeps(compiled, rng, args.repeat)


if __name__ == "__main__":
    main()
