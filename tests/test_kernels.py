"""The three DP kernels: dispatch, both backends, brute-force parity."""

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


class _Spy:
    """Stands in for the compiled module and counts the kernels fetched."""

    def __init__(self, module):
        self.module = module
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.module, name)


L = kernels._LIMIT

# each guard of the dispatch on the value side, at _LIMIT - 1 (compiled)
# and at _LIMIT (fallback); need and budget size the tables, so their
# guards are checked in a subprocess below
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


@pytest.mark.parametrize("name, args, compiled", _EDGE_CASES, ids=_EDGE_IDS)
def test_dispatch_at_the_int64_guards(monkeypatch, name, args, compiled):
    if not kernels.HAVE_SPEEDUPS:
        pytest.skip("extension not built")
    spy = _Spy(kernels._speedups)
    monkeypatch.setattr(kernels, "_speedups", spy)
    got = getattr(kernels, name)(*args)
    assert spy.calls == (1 if compiled else 0)
    expected = getattr(_kernels_py, name)(*args)
    assert got == expected
    if compiled:
        assert getattr(spy.module, name)(*args) == expected


@pytest.mark.parametrize("call, error", [
    (lambda m: m.min_cover_solve([-1], [1], 3), ValueError),
    (lambda m: m.max_profit_solve([-1], [1], 3, 1), ValueError),
    (lambda m: m.min_cover_solve([1, 2], [1], 3), IndexError),
    (lambda m: m.max_profit_solve([1], [1.0], 3, 1), TypeError),
], ids=["negative-r", "negative-cost", "short-obj", "float-item"])
def test_compiled_kernels_refuse_inputs_outside_their_tables(call, error):
    # the tables are indexed by r and cost, and sized by len(r)
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
             lambda: kernels.max_profit_solve([1], [1], L, 1)):
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
    # the dispatch at _LIMIT - 1 and at _LIMIT.
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
              "python"] if backend == "compiled" else ["python"] * 6
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
