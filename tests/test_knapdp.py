"""Exact and approximate min-knapsack solvers."""

import random
from fractions import Fraction

import pytest

import oracles
from pitchcut import core, gaplab, knapdp

F = Fraction


def worked_instance():
    return core.normalize(
        costs=(F(2), F(3), F(5), F(8)),
        profits=(F(3, 10), F(4, 10), F(5, 10), F(8, 10)),
        threshold=F(1),
    )


def test_solve_exact_matches_brute_force():
    rng = random.Random(21)
    for seed in range(30):
        inst = gaplab.gen_random(rng.randint(1, 8), 500 + seed).normalize()
        objective = [F(rng.randint(0, 9), rng.randint(1, 3))
                     for _ in range(inst.n)]
        sol = knapdp.solve_exact(inst, objective)
        value, chosen = oracles.brute_min_cost(inst, objective)
        assert sol.value == value
        assert sol.chosen == chosen
        assert sol.mode == "exact"


def test_solve_exact_square_gap_instance():
    inst = gaplab.gen_lemma4(4).normalize()
    sol = knapdp.solve_exact(inst, inst.costs)
    assert sol.value == F(17, 8)
    # x1 + x2 + y among the many optimal covers: lex-smallest wins
    assert sol.chosen == (0, 1, 4)


def test_solve_exact_validations():
    inst = worked_instance()
    with pytest.raises(ValueError):
        knapdp.solve_exact(inst, [F(1)] * 3)
    with pytest.raises(ValueError):
        knapdp.solve_exact(inst, [F(-1), F(0), F(0), F(0)])
    with pytest.raises(core.BudgetExceededError):
        knapdp.solve_exact(inst, inst.costs, budget=10)


def test_exact_cover_unreachable_need():
    with pytest.raises(core.InfeasibleInstanceError):
        knapdp._exact_cover([1, 2], [F(1), F(1)], 5, 10**6)


def test_solve_fptas_sandwich():
    rng = random.Random(22)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(1, 8), 600 + seed).normalize()
        objective = [F(rng.randint(0, 9), 2) for _ in range(inst.n)]
        exact = knapdp.solve_exact(inst, objective)
        for eps in (F(1, 2), F(1, 10)):
            approx = knapdp.solve_fptas(inst, objective, eps)
            assert exact.value <= approx.value <= (1 + eps) * exact.value
            assert approx.value == sum(objective[i] for i in approx.chosen)
            assert sum(inst.profits[i] for i in approx.chosen) >= 1
            assert approx.mode == "fptas" and approx.eps == eps


def test_fptas_matches_the_fraction_reference():
    # the integer guess pair and floor division round exactly as the
    # Fraction formula ceil(c_i / delta) does
    rng = random.Random(26)
    for seed in range(80):
        inst = gaplab.gen_random(rng.randint(1, 8), 1050 + seed).normalize()
        objective = [F(rng.randint(0, 9), rng.choice((1, 2, 3, 64)))
                     for _ in range(inst.n)]
        x = tuple(F(rng.randint(0, den), den)
                  for den in (rng.choice((2, 6, 64)) for _ in range(inst.n)))
        num = rng.randint(1, inst.q)
        level = [v if ri < num else 2 * v for ri, v in zip(inst.r, x)]
        for eps in (F(1, 2), F(1, 10), F(3)):
            sol = knapdp.solve_fptas(inst, objective, eps)
            assert (sol.value, sol.chosen) == \
                oracles.reference_fptas(inst.r, objective, inst.q, eps)
            sol = knapdp.solve_Palpha(inst, x, F(num, inst.q), mode="fptas",
                                      eps=eps)
            need = sum(inst.r) - inst.q + num
            assert (sol.value, sol.chosen) == \
                oracles.reference_fptas(inst.r, level, need, eps)


def test_solve_fptas_rejects_bad_eps():
    inst = worked_instance()
    with pytest.raises(ValueError):
        knapdp.solve_fptas(inst, inst.costs, F(0))


def test_solve_fptas_zero_cost_items_cover_for_free():
    inst = core.normalize((F(1), F(1), F(1)), (F(1, 2), F(1, 2), F(1)), F(1))
    sol = knapdp.solve_fptas(inst, [F(0), F(0), F(5)], F(1, 10))
    assert sol.value == 0
    assert sol.chosen == (0, 1)


def test_solve_fptas_cheap_cover_behind_an_expensive_density_leader():
    # near-worthless guesses must grow until the DP can see the cheap
    # item; these pairs used to trip a lower bound taken from rounding
    traps = (
        ((F(9, 10), F(1, 1000)), (F(1), F(1))),
        ((F(1), F(1)), (F(1), F(1))),
        ((F(1, 10), F(11, 100)), (F(1), F(1))),
    )
    for costs, profits in traps:
        inst = core.normalize(costs, profits, F(1))
        exact = knapdp.solve_exact(inst, inst.costs)
        for eps in (F(1, 2), F(1, 10), F(1, 100)):
            approx = knapdp.solve_fptas(inst, inst.costs, eps)
            assert exact.value <= approx.value <= (1 + eps) * exact.value


def test_solve_fptas_budget():
    inst = worked_instance()
    with pytest.raises(core.BudgetExceededError):
        knapdp.solve_fptas(inst, inst.costs, F(1, 1000), budget=100)


def test_solve_palpha_worked_table():
    inst = worked_instance()
    x = (F(0), F(0), F(1, 2), F(2, 5))
    expected = {
        F(1, 10): F(4, 5),
        F(4, 10): F(4, 5),
        F(5, 10): F(4, 5),
        F(6, 10): F(13, 10),
        F(9, 10): F(9, 10),
    }
    for alpha, value in expected.items():
        sol = knapdp.solve_Palpha(inst, x, alpha)
        assert sol.value == value
    assert knapdp.solve_Palpha(inst, x, F(1, 10)).chosen == (0, 1, 3)
    assert knapdp.solve_Palpha(inst, x, F(9, 10)).chosen == (0, 1, 2, 3)


def test_solve_palpha_matches_direct_enumeration():
    rng = random.Random(23)
    for seed in range(20):
        inst = gaplab.gen_random(rng.randint(1, 7), 700 + seed).normalize()
        x = tuple(F(rng.randint(0, 4), 4) for _ in range(inst.n))
        grid = sorted({F(ri + 1, inst.q) for ri in inst.r
                       if ri + 1 <= inst.q} | {F(1, inst.q)})
        for alpha in grid:
            sol = knapdp.solve_Palpha(inst, x, alpha)
            need = sum(inst.r) - inst.q + int(alpha * inst.q)
            best = None
            for I in oracles.subsets(inst.n):
                if sum(inst.r[i] for i in I) < need:
                    continue
                value = sum(
                    2 * x[i] if inst.profits[i] >= alpha else x[i]
                    for i in I)
                if best is None or (value, I) < best:
                    best = (value, I)
            assert (sol.value, sol.chosen) == best


def test_solve_palpha_validations():
    inst = worked_instance()
    x = (F(0),) * 4
    with pytest.raises(ValueError):
        knapdp.solve_Palpha(inst, x, F(0))
    with pytest.raises(ValueError):
        knapdp.solve_Palpha(inst, x, F(11, 10))
    with pytest.raises(ValueError):
        knapdp.solve_Palpha(inst, x, F(1, 3))
    with pytest.raises(ValueError):
        knapdp.solve_Palpha(inst, x, F(1, 10), mode="sideways")
    with pytest.raises(ValueError):
        knapdp.solve_Palpha(inst, x, F(1, 10), mode="fptas")


def test_solve_palpha_fptas_stays_feasible_and_close():
    rng = random.Random(24)
    for seed in range(15):
        inst = gaplab.gen_random(rng.randint(1, 7), 800 + seed).normalize()
        x = tuple(F(rng.randint(0, 4), 4) for _ in range(inst.n))
        alpha = F(min(inst.r) + 1, inst.q)
        if alpha > 1:
            alpha = F(1, inst.q)
        exact = knapdp.solve_Palpha(inst, x, alpha)
        for eps in (F(1, 2), F(1, 10)):
            approx = knapdp.solve_Palpha(inst, x, alpha, mode="fptas",
                                         eps=eps)
            need = sum(inst.r) - inst.q + int(alpha * inst.q)
            assert sum(inst.r[i] for i in approx.chosen) >= need
            assert exact.value <= approx.value <= (1 + eps) * exact.value


def test_fptas_answers_do_not_depend_on_the_objective_scale():
    # delta is proportional to the costs, so the rounded costs, the guess
    # loop and the chosen set are the same at every scale; the integer
    # FPTAS relies on this to run on costs over any common denominator
    rng = random.Random(25)
    for seed in range(20):
        inst = gaplab.gen_random(rng.randint(1, 8), 1000 + seed).normalize()
        objective = [F(rng.randint(0, 9), rng.choice((1, 2, 3, 8)))
                     for _ in range(inst.n)]
        x = tuple(F(rng.randint(0, 6), 6) for _ in range(inst.n))
        alpha = F(rng.randint(1, inst.q), inst.q)
        for eps in (F(1, 2), F(1, 10)):
            k = rng.randint(2, 30)
            base = knapdp.solve_fptas(inst, objective, eps)
            big = knapdp.solve_fptas(inst, [k * v for v in objective], eps)
            assert (big.chosen, big.value) == (base.chosen, k * base.value)
            # the same costs as integers over the non-reduced k*D
            scaled, D = core.scaled_point(objective)
            value, chosen = knapdp._fptas_cover(
                inst.r, [k * c for c in scaled], inst.q, eps,
                knapdp.DEFAULT_BUDGET)
            assert (chosen, F(value, k * D)) == (base.chosen, base.value)
            level = knapdp.solve_Palpha(inst, x, alpha, mode="fptas",
                                        eps=eps)
            small = knapdp.solve_Palpha(inst, [v / k for v in x], alpha,
                                        mode="fptas", eps=eps)
            assert (small.chosen, k * small.value) == \
                (level.chosen, level.value)


@pytest.mark.parametrize("solve", [
    lambda inst, v: knapdp.solve_exact(inst, v),
    lambda inst, v: knapdp.solve_fptas(inst, v, F(1, 10)),
    lambda inst, v: knapdp.solve_Palpha(inst, v, F(1, 10)),
], ids=["solve_exact", "solve_fptas", "solve_Palpha"])
def test_solvers_reject_floats(solve):
    with pytest.raises(TypeError):
        solve(worked_instance(), [0.1, 0.2, 0.3, 0.4])
