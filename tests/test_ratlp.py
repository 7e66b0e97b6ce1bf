"""Exact rational simplex: pins, statuses, and a float cross-check."""

import math
import random
from fractions import Fraction

import pytest

from pitchcut import gaplab, ratlp

F = Fraction


def box_lp():
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=1, obj=1)
    y = model.add_var(lb=0, ub=1, obj=1)
    model.add_row({x: F(1), y: F(1)}, ">=", F(1))
    return model


def test_minimal_cover_lp():
    solution = ratlp.solve_lp(box_lp())
    assert solution.status == "optimal"
    assert solution.objective == 1
    assert sum(solution.primal) == 1


def test_model_validations():
    model = ratlp.LPModel()
    with pytest.raises(ValueError):
        model.add_var(lb=2, ub=1)
    x = model.add_var(lb=0, ub=1)
    with pytest.raises(ValueError):
        model.add_row({x + 1: F(1)}, ">=", F(1))
    with pytest.raises(ValueError):
        model.add_row({x: F(1)}, ">>", F(1))


def test_infeasible_status():
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=None, obj=1)
    model.add_row({x: F(1)}, "<=", F(-1))
    solution = ratlp.solve_lp(model)
    assert solution.status == "infeasible"
    assert solution.primal is None


def test_unbounded_status():
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=None, obj=-1)
    solution = ratlp.solve_lp(model)
    assert solution.status == "unbounded"


def test_equality_row():
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=None, obj=2)
    y = model.add_var(lb=0, ub=None, obj=3)
    model.add_row({x: F(1), y: F(1)}, "=", F(4))
    solution = ratlp.solve_lp(model)
    assert solution.status == "optimal"
    assert solution.objective == 8
    assert solution.primal == (F(4), F(0))


def test_duals_certify_the_cover_lp():
    solution = ratlp.solve_lp(box_lp())
    (y,) = solution.duals
    # one binding >= row; its multiplier carries the whole objective
    assert y == 1


def test_deterministic_resolve():
    first = ratlp.solve_lp(box_lp())
    second = ratlp.solve_lp(box_lp())
    assert first.primal == second.primal
    assert first.duals == second.duals


def test_row_generation_callback():
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=None, obj=1)
    calls = []

    def callback(solution):
        calls.append(solution.primal[0])
        if solution.primal[0] < 1:
            return [({x: F(1)}, ">=", F(1))]
        return []

    solution = ratlp.solve_lp(model, callback)
    assert solution.objective == 1
    assert calls == [F(0), F(1)]
    assert len(model.rows) == 1


def mixed_start_lp(cap, demand):
    # no upper bound on z, so the solver starts at the lower bounds:
    # the <= row holds there, the >= row fails, the = row holds exactly
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=None, obj=1)
    y = model.add_var(lb=0, ub=None, obj=5)
    z = model.add_var(lb=0, ub=None, obj=1)
    model.add_row({x: F(1), y: F(1)}, "<=", cap)
    model.add_row({x: F(1), y: F(2)}, ">=", demand)
    model.add_row({x: F(1), z: F(-1)}, "=", F(0))
    return model


def test_lower_start_gives_only_the_violated_row_an_artificial():
    model = mixed_start_lp(F(4), F(2))
    tableau = ratlp._Tableau(model)
    assert tableau.ncols == model.n_vars + len(model.rows) + 1
    assert tableau.basis == [3, 6, 5]
    solution = ratlp.solve_lp(model)
    assert solution.status == "optimal"
    assert solution.primal == (F(2), F(0), F(2))
    assert solution.objective == 4
    assert solution.duals == (F(0), F(2), F(-1))


def test_lower_start_detects_infeasibility_in_phase_one():
    # x + 2y <= 2(x + y) <= 2 < 3
    solution = ratlp.solve_lp(mixed_start_lp(F(1), F(3)))
    assert solution.status == "infeasible"
    assert solution.primal is None


def test_natural_relaxation_of_the_square_gap_instance():
    inst = gaplab.gen_lemma4(4).normalize()
    model = ratlp.LPModel()
    for i in range(inst.n):
        model.add_var(lb=0, ub=1, obj=inst.costs[i])
    model.add_row({i: inst.profits[i] for i in range(inst.n)}, ">=", F(1))
    solution = ratlp.solve_lp(model)
    assert solution.objective == F(17, 8)


def random_model(rng):
    model = ratlp.LPModel()
    n = rng.randint(1, 5)
    for _ in range(n):
        ub = rng.choice([None, F(1), F(2)])
        lb = rng.choice([F(0), F(0), F(1, 2)])
        if ub is not None and ub < lb:
            ub = lb
        model.add_var(lb=lb, ub=ub, obj=F(rng.randint(-4, 4), 2))
    for _ in range(rng.randint(0, 4)):
        coefficients = {
            j: F(rng.randint(-3, 3), 2)
            for j in range(n) if rng.random() < 0.7
        }
        if not coefficients:
            continue
        sense = rng.choice([">=", "<=", "="])
        model.add_row(coefficients, sense, F(rng.randint(-4, 6), 2))
    return model


def test_against_float_solver():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(31)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        model = random_model(rng)
        exact = ratlp.solve_lp(model)
        statuses[exact.status] += 1
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for coefficients, sense, rhs in model.rows:
            dense = [float(coefficients.get(j, 0))
                     for j in range(model.n_vars)]
            if sense == ">=":
                a_ub.append([-v for v in dense])
                b_ub.append(-float(rhs))
            elif sense == "<=":
                a_ub.append(dense)
                b_ub.append(float(rhs))
            else:
                a_eq.append(dense)
                b_eq.append(float(rhs))
        ref = scipy_optimize.linprog(
            c=[float(v) for v in model.objective],
            A_ub=a_ub or None, b_ub=b_ub or None,
            A_eq=a_eq or None, b_eq=b_eq or None,
            bounds=[
                (float(model.lower[j]),
                 None if model.upper[j] is None else float(model.upper[j]))
                for j in range(model.n_vars)
            ],
            method="highs",
        )
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert exact.status == expected
        if exact.status == "optimal":
            assert abs(float(exact.objective) - ref.fun) < 1e-7
    # the sample exercises every exit at least once
    assert all(statuses.values())


def test_upper_bound_start_agrees_with_phase_one(monkeypatch):
    rng = random.Random(32)
    checked = 0
    while checked < 25:
        model = random_model(rng)
        if not ratlp._upper_point_feasible(model):
            continue
        fast = ratlp.solve_lp(model)
        twin = ratlp.LPModel()
        twin.lower = list(model.lower)
        twin.upper = list(model.upper)
        twin.objective = list(model.objective)
        twin.rows = list(model.rows)
        with monkeypatch.context() as patch:
            patch.setattr(ratlp, "_upper_point_feasible", lambda m: False)
            slow = ratlp.solve_lp(twin)
        assert fast.status == slow.status == "optimal"
        assert fast.objective == slow.objective
        checked += 1


def test_tableau_invariants_hold_at_every_exit(monkeypatch):
    # the reduced-cost row is maintained through pivots, never recomputed;
    # check it against c - c_B^T T from scratch at every run's exit,
    # together with the integer rows' normal form and unit basic columns
    exits = {"optimal": 0, "unbounded": 0}
    run = ratlp._Tableau.run

    def checked_run(tableau, cost):
        status = run(tableau, cost)
        exits[status] += 1
        rows = [[F(w, den) for w in row]
                for row, den in zip(tableau.T, tableau.D)]
        for i, (row, den) in enumerate(zip(tableau.T, tableau.D)):
            assert den > 0
            assert math.gcd(den, *row) == 1
            for k, basic in enumerate(tableau.basis):
                assert rows[i][basic] == (1 if k == i else 0)
        scratch = [
            cost[j] - sum(cost[basic] * row[j]
                          for basic, row in zip(tableau.basis, rows))
            for j in range(tableau.ncols)
        ]
        assert tableau.dden > 0
        assert math.gcd(tableau.dden, *tableau.d) == 1
        assert [F(w, tableau.dden) for w in tableau.d] == scratch
        return status

    monkeypatch.setattr(ratlp._Tableau, "run", checked_run)
    rng = random.Random(33)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        statuses[ratlp.solve_lp(random_model(rng)).status] += 1
    assert all(statuses.values())
    assert all(exits.values())
