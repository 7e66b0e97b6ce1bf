"""Compare the compiled DP kernels against the pure-Python fallback.

Run as a script: python benchmarks/bench_kernels.py [--repeat N].
Times min_cover_solve, max_profit_solve and kc_best_subset on a sweep
of instance sizes and prints one table row per case.  Next to each
best time it prints the minor page faults per call (the process's
getrusage ru_minflt delta over the repeats): a call whose table is too
big for the allocator to reuse maps and zero-fills fresh pages every
time, and then its time is mostly those faults.  Both backends must
agree on every answer; the benchmark aborts if they disagree.
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


if __name__ == "__main__":
    main()
