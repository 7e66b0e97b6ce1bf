"""The DP kernels: dispatch, both backends, brute-force and per-level
parity."""

import os
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import oracles
from pitchcut import _kernels_py, kernels
from pitchcut import gaplab

F = Fraction


def test_extension_is_built():
    # the build here ships the compiled kernels; a pure-Python install
    # still works but this tree is expected to have them
    assert kernels.HAVE_SPEEDUPS


def random_cover_case(rng):
    n = rng.randint(0, 9)
    r = [rng.randint(0, 8) for _ in range(n)]
    obj = [rng.randint(0, 12) for _ in range(n)]
    need = rng.randint(-2, 20)
    return r, obj, need


def test_min_cover_solve_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        r, obj, need = random_cover_case(rng)
        assert kernels.min_cover_solve(r, obj, need) == \
            oracles.brute_cover(r, obj, need)


def test_min_cover_solve_backends_agree():
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    rng = random.Random(2)
    for _ in range(300):
        r, obj, need = random_cover_case(rng)
        assert kernels._speedups.min_cover_solve(r, obj, need) == \
            _kernels_py.min_cover_solve(r, obj, need)


def test_min_cover_solve_lex_ties():
    # both {0} and {1} are optimal; the earlier index wins
    assert kernels.min_cover_solve([1, 1], [1, 1], 1) == (1, (0,))
    # a free item joins the cover because it makes the tuple smaller
    assert kernels.min_cover_solve([0, 1], [0, 3], 1) == (3, (0, 1))
    assert kernels.min_cover_solve([2], [5], 0) == (0, ())
    assert kernels.min_cover_solve([1, 1], [1, 1], 3) == (None, ())


def test_min_cover_solve_bignum_fallback():
    big = 1 << 70
    value, chosen = kernels.min_cover_solve([3, 4], [big, 1], 4)
    assert (value, chosen) == (1, (1,))
    value, chosen = kernels.min_cover_solve([3, 4], [big, big + 1], 7)
    assert (value, chosen) == (2 * big + 1, (0, 1))


def random_reach_case(rng):
    n = rng.randint(0, 8)
    cost = [rng.randint(0, 6) for _ in range(n)]
    r = [rng.randint(0, 8) for _ in range(n)]
    budget = rng.randint(0, 18)
    target = rng.randint(-2, 16)
    return cost, r, budget, target


def test_max_profit_solve_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        cost, r, budget, target = random_reach_case(rng)
        assert kernels.max_profit_solve(cost, r, budget, target) == \
            oracles.brute_cheapest_reach(cost, r, budget, target)


def test_max_profit_solve_backends_agree():
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    rng = random.Random(4)
    for _ in range(300):
        cost, r, budget, target = random_reach_case(rng)
        assert kernels._speedups.max_profit_solve(cost, r, budget, target) \
            == _kernels_py.max_profit_solve(cost, r, budget, target)


def test_max_profit_solve_edges():
    assert kernels.max_profit_solve([2], [3], 5, 0) == (0, ())
    assert kernels.max_profit_solve([2], [3], 1, 3) == (None, ())
    assert kernels.max_profit_solve([2, 1], [3, 3], 5, 3) == (1, (1,))


def scaled_point(inst, rng):
    x = tuple(F(rng.randint(0, 8), 8) for _ in range(inst.n))
    X = lcm(*(v.denominator for v in x))
    a = [int(v * X) for v in x]
    return x, a, X


def test_kc_best_subset_matches_brute_force():
    rng = random.Random(5)
    for seed in range(40):
        inst = gaplab.gen_random(rng.randint(1, 7), 300 + seed).normalize()
        x, a, X = scaled_point(inst, rng)
        score, mask = kernels.kc_best_subset(list(inst.r), a, X, inst.q)
        gap, S = oracles.brute_kc_scan(inst, x)
        assert F(score, inst.q * X) == gap
        assert mask == sum(1 << i for i in S)


def test_kc_best_subset_backends_agree():
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    rng = random.Random(6)
    for seed in range(40):
        inst = gaplab.gen_random(rng.randint(1, 7), 400 + seed).normalize()
        _, a, X = scaled_point(inst, rng)
        assert kernels._speedups.kc_best_subset(list(inst.r), a, X, inst.q) \
            == _kernels_py.kc_best_subset(list(inst.r), a, X, inst.q)


def _backend(name):
    if name == "python":
        return _kernels_py
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    return kernels._speedups


def doubled(r, a, num):
    return [ai if ri < num else 2 * ai for ri, ai in zip(r, a)]


def random_level_case(rng):
    """Ascending r with zero and tied profits, a with zero costs, and a
    level grid plus level 1 and a few levels whose need is <= 0."""
    n = rng.randint(0, 9)
    r = sorted(rng.choice((0, 0, 3, rng.randint(1, 12))) for _ in range(n))
    a = [rng.choice((0, 0, 5, rng.randint(1, 15))) for _ in range(n)]
    q = rng.randint(1, max(1, sum(r)))
    base = sum(r) - q
    nums = sorted({ri + 1 for ri in r if ri + 1 <= q}) + [1]
    nums += [rng.randint(-base - 3, -base) for _ in range(2)]
    return r, a, base, nums


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_min_cover_levels_match_min_cover_solve_per_level(backend):
    module = _backend(backend)
    rng = random.Random(7)
    for _ in range(300):
        r, a, base, nums = random_level_case(rng)
        expected = [oracles.brute_cover(r, doubled(r, a, num), base + num)
                    for num in nums]
        assert expected == [
            _kernels_py.min_cover_solve(r, doubled(r, a, num), base + num)
            for num in nums]
        assert module.min_cover_levels(r, a, base, nums) == expected
    # a need above sum(r) has no cover
    assert module.min_cover_levels([1, 2], [1, 1], 2, [1, 2]) == \
        [(4, (0, 1)), (None, ())]


@pytest.mark.parametrize("eps", [F(1, 21), F(1, 3), F(3)],
                         ids=["1/21", "1/3", "3"])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_fptas_levels_match_reference_fptas_per_level(backend, eps):
    module = _backend(backend)
    rng = random.Random(8)
    for _ in range(120):
        r, a, base, nums = random_level_case(rng)
        got = module.fptas_levels(r, a, base, nums, eps.numerator,
                                  eps.denominator)
        expected = [oracles.reference_fptas(r, doubled(r, a, num),
                                            base + num, eps)
                    for num in nums]
        assert got == expected
    # every paying item together falls short of the residual need
    assert module.fptas_levels([1, 2], [0, 1], 1, [2, 3], 1, 3) == \
        [(2, (0, 1)), (None, ())]


class _Spy:
    """Stands in for the compiled module and records the kernels fetched."""

    def __init__(self, module):
        self.module = module
        self.fetched = []

    def __getattr__(self, name):
        self.fetched.append(name)
        return getattr(self.module, name)


L = kernels._LIMIT

# each guard of the dispatch on the value side, at _LIMIT - 1 (compiled)
# and at _LIMIT (fallback), or at the last compiled value and the first
# refused one where the guarded sum is odd or the bound is _LIMIT128;
# need and budget size the tables, so their guards are checked in a
# subprocess below
_GUARDS = [
    ("sum(obj)+1", "min_cover_solve",
     ([1, 1], [L - 3, 1], 2), ([1, 1], [L - 2, 1], 2)),
    ("max(r)", "min_cover_solve",
     ([L - 1, 1], [1, 2], 3), ([L, 1], [1, 2], 3)),
    ("target", "max_profit_solve",
     ([1, 2], [3, 4], 3, L - 1), ([1, 2], [3, 4], 3, L)),
    ("sum(r)+1", "max_profit_solve",
     ([1, 2], [L - 4, 2], 3, 5), ([1, 2], [L - 3, 2], 3, 5)),
    ("max(cost)", "max_profit_solve",
     ([L - 1, 1], [5, 2], 3, 2), ([L, 1], [5, 2], 3, 2)),
    ("(q+sum r)*X", "kc_best_subset",
     ([1, 2], [1, 0], 1, L - 4), ([1, 2], [1, 0], 1, L - 3)),
    ("levels-min(base,nums)", "min_cover_levels",
     ([1, 2], [1, 1], -L + 1, [1, 3]), ([1, 2], [1, 1], -L, [1, 3])),
    ("levels-2sum(a)+1", "min_cover_levels",
     ([1, 2], [2**61 - 2, 1], 1, [2, 3]), ([1, 2], [2**61 - 1, 1], 1, [2, 3])),
    ("levels-max(r)", "min_cover_levels",
     ([1, L - 1], [1, 2], 1, [2]), ([1, L], [1, 2], 1, [2])),
    ("fptas-min(base,nums)", "fptas_levels",
     ([1, 2], [1, 1], 1, [-L + 1, 2], 1, 2),
     ([1, 2], [1, 1], 1, [-L, 2], 1, 2)),
    ("fptas-base+max(nums)", "fptas_levels",
     ([1, 2], [1, 1], 0, [L - 1], 1, 2), ([1, 2], [1, 1], 0, [L], 1, 2)),
    ("fptas-sum(r)+1", "fptas_levels",
     ([2, L - 4], [1, 1], 0, [3], 1, 2), ([2, L - 3], [1, 1], 0, [3], 1, 2)),
    ("fptas-2sum(a)+1", "fptas_levels",
     ([1, 2], [2**61 - 1, 0], 0, [3], 1, 2),
     ([1, 2], [2**61, 0], 0, [3], 1, 2)),
    ("fptas-max(en,ed)", "fptas_levels",
     ([1, 2], [1, 1], 0, [3], L - 1, 1), ([1, 2], [1, 1], 0, [3], L, 1)),
    ("fptas-(2ed+1)n+1", "fptas_levels",
     ([1, 2], [1, 1], 0, [3], 2**60 - 1, 2**60 - 1),
     ([1, 2], [1, 1], 0, [3], 2**60, 2**60)),
    ("fptas-2A*max(r)*(n*ed+en)", "fptas_levels",
     ([2**61], [2**60], 0, [5], 1, 6), ([2**61], [2**60], 0, [5], 1, 7)),
]
_EDGE_CASES = [
    (name, args, compiled)
    for _, name, below, at in _GUARDS
    for args, compiled in ((below, True), (at, False))
] + [
    # no mask leaves a positive residual: no score at all, not 0
    ("kc_best_subset", ([1], [1], 1, 0), True),
]
_EDGE_IDS = [
    "%s-%s" % (guard, side) for guard, _, _, _ in _GUARDS
    for side in ("below", "at")
] + ["kc-no-residual"]


# the dispatching single-DP kernel each Python sweep calls per level
_PER_LEVEL = {"min_cover_levels": "min_cover_solve",
              "fptas_levels": "max_profit_solve"}


@pytest.mark.parametrize("name, args, compiled", _EDGE_CASES, ids=_EDGE_IDS)
def test_dispatch_at_the_int64_guards(monkeypatch, name, args, compiled):
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    spy = _Spy(kernels._speedups)
    monkeypatch.setattr(kernels, "_speedups", spy)
    got = getattr(kernels, name)(*args)
    # the Python sweeps run their per-level DPs through the dispatch; no
    # other fetch is allowed on either side
    own = [f for f in spy.fetched if compiled or f != _PER_LEVEL.get(name)]
    assert own == ([name] if compiled else [])
    expected = getattr(_kernels_py, name)(*args)
    assert got == expected
    if compiled:
        assert getattr(spy.module, name)(*args) == expected


def test_exact_sweep_fallback_keeps_compiled_levels(monkeypatch):
    # 2*sum(a)+1 is past the sweep's guard; level 3 doubles nothing, so
    # its objective fits min_cover_solve's guard, while levels 2 and 1
    # double a_1 and fall back
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    spy = _Spy(kernels._speedups)
    monkeypatch.setattr(kernels, "_speedups", spy)
    args = ([1, 2], [1, 2**61], 1, [3, 2, 1])
    got = kernels.min_cover_levels(*args)
    assert spy.fetched == ["min_cover_solve"]
    assert got == _kernels_py.min_cover_levels(*args)


@pytest.mark.parametrize("call, error", [
    (lambda m: m.min_cover_solve([-1], [1], 3), ValueError),
    (lambda m: m.max_profit_solve([-1], [1], 3, 1), ValueError),
    (lambda m: m.min_cover_solve([1, 2], [1], 3), IndexError),
    (lambda m: m.max_profit_solve([1], [1.0], 3, 1), TypeError),
    (lambda m: m.min_cover_levels([2, 1], [1, 1], 0, [2]), ValueError),
    (lambda m: m.min_cover_levels([-1, 1], [1, 1], 0, [2]), ValueError),
    (lambda m: m.min_cover_levels([1, 2], [1, -1], 0, [2]), ValueError),
    (lambda m: m.fptas_levels([-1, 1], [1, 1], 0, [2], 1, 2), ValueError),
    (lambda m: m.fptas_levels([1, 2], [1, -1], 0, [2], 1, 2), ValueError),
    (lambda m: m.fptas_levels([1, 2], [1, 1], 0, [2], 0, 2), ValueError),
    (lambda m: m.min_cover_levels([1, 2], [1], 0, [2]), IndexError),
    (lambda m: m.fptas_levels([1, 2], [1], 0, [2], 1, 2), IndexError),
    (lambda m: m.min_cover_levels([1, 2], [1, 1], 0, [2.0]), TypeError),
    (lambda m: m.fptas_levels([1, 2], [1.0, 1], 0, [2], 1, 2), TypeError),
    (lambda m: m.min_cover_levels([1], [1], 2**63 - 1, [1]), OverflowError),
    (lambda m: m.fptas_levels([2**61], [2**60], 0, [5], 1, 7),
     OverflowError),
], ids=["negative-r", "negative-cost", "short-obj", "float-item",
        "levels-unsorted-r", "levels-negative-r", "levels-negative-a",
        "fptas-negative-r", "fptas-negative-a", "fptas-zero-eps",
        "levels-short-a", "fptas-short-a", "levels-float-num",
        "fptas-float-item", "levels-need-overflow", "fptas-int128-range"])
def test_compiled_kernels_refuse_inputs_outside_their_tables(call, error):
    # the tables are indexed by r and cost (and min_cover_levels splits
    # them at an ascending r), sized by len(r), and the FPTAS's rounding
    # indexes by values computed in 128 bits
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    with pytest.raises(error):
        call(kernels._speedups)


_HUGE_TABLES = """
import sys
from pitchcut import core, kernels, knapdp

fetched = []


class Spy:
    def __getattr__(self, name):
        fetched.append(name)
        return getattr(compiled, name)


compiled = kernels._speedups
kernels._speedups = Spy() if sys.argv[1] == "compiled" else None
L = kernels._LIMIT
inst = core.normalize([1, 1, 1], [2**61 - 1, 2**61 - 3, 5], 2**61 + 1)
for call in (lambda: knapdp.solve_exact(inst, [1, 1, 1], budget=10**40),
             lambda: kernels.max_profit_solve([1, 1], [1, 1], 2**61, 2),
             lambda: kernels.min_cover_solve([1], [1], L - 1),
             lambda: kernels.min_cover_solve([1], [1], L),
             lambda: kernels.max_profit_solve([1], [1], L - 1, 1),
             lambda: kernels.max_profit_solve([1], [1], L, 1),
             lambda: kernels.min_cover_levels([1], [1], 1, [L - 2]),
             lambda: kernels.min_cover_levels([1], [1], 1, [L - 1])):
    del fetched[:]
    try:
        call()
        outcome = "returned"
    except MemoryError:
        outcome = "MemoryError"
    print("compiled" if fetched else "python", outcome)
"""


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_tables_too_large_to_address_raise_memory_error(backend):
    # (n+1)*(need+1) long longs wrap round size_t at need ~ 2**61; run in
    # a subprocess so that a crash fails the test instead of pytest.  The
    # calls are two such tables, then the need and the budget guards of
    # the dispatch at _LIMIT - 1 and at _LIMIT, and the guard on the
    # largest need of min_cover_levels.
    if backend == "compiled" and not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _HUGE_TABLES, backend],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    chosen = ["compiled", "compiled", "compiled", "python", "compiled",
              "python", "compiled", "python"] if backend == "compiled" \
        else ["python"] * 8
    assert proc.stdout.splitlines() == [c + " MemoryError" for c in chosen]


def test_extension_source_compiles_warning_free():
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    source = Path(__file__).resolve().parents[1] / "src" / "pitchcut" / \
        "_speedups.c"
    proc = subprocess.run(
        [cc, "-fsyntax-only", "-Wall", "-Werror",
         "-I" + sysconfig.get_paths()["include"], str(source)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
