"""Exact rational simplex: pins, statuses, and a float cross-check."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from pitchcut import gaplab, ratlp
from pitchcut.core import VerificationError

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


def fractional_bound_model(rng):
    # bounds in thirds and halves, so the bound scale L is 6, not 1 or 2
    model = ratlp.LPModel()
    n = rng.randint(1, 6)
    for _ in range(n):
        lb = rng.choice([F(-1, 3), F(0), F(1, 3), F(1, 2)])
        ub = rng.choice([None, F(1, 2), F(2, 3), F(1), F(3, 2)])
        if ub is not None and ub < lb:
            ub = lb
        model.add_var(lb=lb, ub=ub, obj=F(rng.randint(-6, 6), 3))
    for _ in range(rng.randint(0, 5)):
        coefficients = {
            j: F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            for j in range(n) if rng.random() < 0.7
        }
        if not coefficients:
            continue
        sense = rng.choice([">=", ">=", "<=", "="])
        model.add_row(coefficients, sense, F(rng.randint(-3, 6), 3))
    return model


def seeded_models(seed, count):
    # the two generators in turn
    rng = random.Random(seed)
    for k in range(count):
        yield (random_model if k % 2 else fractional_bound_model)(rng)


def kkt_holds(model, primal, duals, objective_value):
    # the KKT conditions term by term in Fractions, the reference for
    # the verifier's integer sums
    for j in range(model.n_vars):
        if primal[j] < model.lower[j]:
            return False
        if model.upper[j] is not None and primal[j] > model.upper[j]:
            return False
    dual_obj = F(0)
    for (coefficients, sense, rhs), y in zip(model.rows, duals):
        lhs = sum(w * primal[j] for j, w in coefficients.items())
        if sense == ">=" and (lhs < rhs or y < 0):
            return False
        if sense == "<=" and (lhs > rhs or y > 0):
            return False
        if (sense == "=" or y) and lhs != rhs:
            return False
        dual_obj += y * rhs
    for j in range(model.n_vars):
        d = model.objective[j] - sum(
            y * coefficients.get(j, 0)
            for (coefficients, _, _), y in zip(model.rows, duals))
        if d > 0:
            if primal[j] != model.lower[j]:
                return False
            dual_obj += d * model.lower[j]
        elif d < 0:
            if model.upper[j] is None or primal[j] != model.upper[j]:
                return False
            dual_obj += d * model.upper[j]
    return dual_obj == objective_value


def test_verifier_agrees_with_the_kkt_conditions():
    # optimal certificates, and the same with one dual, one primal
    # entry (objective kept consistent) or the objective moved
    rng = random.Random(35)
    verdicts = {True: 0, False: 0}
    for model in seeded_models(35, 400):
        solution = ratlp.solve_lp(model)
        if solution.status != "optimal":
            continue
        for change in ("none", "dual", "primal", "objective"):
            primal = list(solution.primal)
            duals = list(solution.duals)
            objective = solution.objective
            step = F(rng.choice([-1, 1]), rng.choice([1, 2, 3]))
            if change == "dual" and duals:
                duals[rng.randrange(len(duals))] += step
            elif change == "primal":
                j = rng.randrange(len(primal))
                primal[j] += step
                objective += model.objective[j] * step
            elif change == "objective":
                objective += step
            expected = kkt_holds(model, primal, duals, objective)
            try:
                ratlp._verify_optimal(model, tuple(primal), tuple(duals),
                                      objective)
                accepted = True
            except VerificationError:
                accepted = False
            assert accepted == expected
            verdicts[accepted] += 1
    assert all(verdicts.values())
    # a wrong dual sign that no other condition notices
    model = ratlp.LPModel()
    x = model.add_var(lb=0, ub=1)
    model.add_row({x: F(1)}, ">=", F(0))
    with pytest.raises(VerificationError, match="dual sign"):
        ratlp._verify_optimal(model, (F(0),), (F(-1),), F(0))


def test_against_float_solver():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for model in seeded_models(31, 240):
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
        if not all(ratlp._Tableau(model).at_upper[:model.n_vars]):
            continue  # not an upper-bound start
        fast = ratlp.solve_lp(model)
        twin = ratlp.LPModel()
        twin.lower = list(model.lower)
        twin.upper = list(model.upper)
        twin.objective = list(model.objective)
        twin.rows = list(model.rows)
        with monkeypatch.context() as patch:
            patch.setattr(ratlp, "_upper_residuals", lambda *args: None)
            assert not any(ratlp._Tableau(twin).at_upper)
            slow = ratlp.solve_lp(twin)
        assert fast.status == slow.status == "optimal"
        assert fast.objective == slow.objective
        checked += 1


def test_tableau_invariants_hold_at_every_exit(monkeypatch):
    # the reduced-cost row is maintained through pivots, never recomputed;
    # check it against c - c_B^T T from scratch at every run's exit,
    # together with the integer rows' normal form and unit basic columns.
    # The point is carried in the value column and the at_upper flags:
    # rebuilt in Fractions, it puts every nonbasic column on the bound
    # its flag names and every basic one within its bounds, and it
    # satisfies every model row with its slack and artificial exactly
    exits = {"optimal": 0, "unbounded": 0}
    models = {}
    scales = set()
    init, run = ratlp._Tableau.__init__, ratlp._Tableau.run

    def recorded_init(tableau, model, *args, **kwargs):
        init(tableau, model, *args, **kwargs)
        # the artificial of each row that starts with one, and its sign
        # in that row
        artificials = {}
        for i, basic in enumerate(tableau.basis):
            if tableau.is_artificial(basic):
                sign = tableau.T[i][tableau.nv + i] // (
                    tableau.slack_sign[i] * tableau.D[i])
                artificials[i] = basic, sign
        models[tableau] = model, artificials

    def checked_run(tableau, cost):
        status = run(tableau, cost)
        exits[status] += 1
        ncols, scale = tableau.ncols, tableau.L
        scales.add(scale)
        rows = [[F(w, den) for w in row[:ncols]]
                for row, den in zip(tableau.T, tableau.D)]
        for i, (row, den) in enumerate(zip(tableau.T, tableau.D)):
            assert len(row) == ncols + 1
            assert den > 0
            assert math.gcd(den, *row) == 1
            for k, basic in enumerate(tableau.basis):
                assert rows[i][basic] == (1 if k == i else 0)
        scratch = [
            cost[j] - sum(cost[basic] * row[j]
                          for basic, row in zip(tableau.basis, rows))
            for j in range(ncols)
        ]
        assert tableau.dden > 0
        assert len(tableau.d) == ncols
        assert math.gcd(tableau.dden, *tableau.d) == 1
        assert [F(w, tableau.dden) for w in tableau.d] == scratch

        model, artificials = models[tableau]
        nv, m = model.n_vars, len(model.rows)
        lower = list(model.lower) + [F(0)] * (ncols - nv)
        upper = list(model.upper) + [
            F(0) if sense == "=" else None for _, sense, _ in model.rows
        ] + [F(tableau.up[j], scale) if tableau.up[j] is not None else None
             for j in range(nv + m, ncols)]
        x = []
        for j in range(ncols):
            if tableau.at_upper[j]:
                assert tableau.up[j] is not None
                x.append(F(tableau.up[j], scale))
            else:
                x.append(F(tableau.lo[j], scale))
        for i, basic in enumerate(tableau.basis):
            x[basic] = F(tableau.T[i][ncols], scale * tableau.D[i])
        basics = set(tableau.basis)
        for j in range(ncols):
            if j in basics:
                assert lower[j] <= x[j]
                assert upper[j] is None or x[j] <= upper[j]
            else:
                assert x[j] == (upper[j] if tableau.at_upper[j] else lower[j])
        for i, (coefficients, _, rhs) in enumerate(model.rows):
            lhs = sum(w * x[j] for j, w in coefficients.items())
            lhs += tableau.slack_sign[i] * x[nv + i]
            if i in artificials:
                artificial, sign = artificials[i]
                lhs += sign * x[artificial]
            assert lhs == rhs
        return status

    monkeypatch.setattr(ratlp._Tableau, "__init__", recorded_init)
    monkeypatch.setattr(ratlp._Tableau, "run", checked_run)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for model in seeded_models(33, 600):
        statuses[ratlp.solve_lp(model).status] += 1
    assert all(statuses.values())
    assert all(exits.values())
    assert scales - {1, 2}  # fractional_bound_model's thirds reach L = 6


def copy_model(model):
    twin = ratlp.LPModel()
    twin.lower = list(model.lower)
    twin.upper = list(model.upper)
    twin.objective = list(model.objective)
    twin.rows = list(model.rows)
    return twin


def box_rowgen_model(rng):
    # the cut loop's shape: a [0, 1] box and >= rows that hold at the
    # all-ones start point
    model = ratlp.LPModel()
    n = rng.randint(2, 6)
    for _ in range(n):
        model.add_var(lb=0, ub=1, obj=F(rng.randint(-1, 6), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 2)):
        terms = {j: F(rng.randint(1, 4)) for j in range(n)
                 if rng.random() < 0.7} or {0: F(1)}
        model.add_row(terms, ">=", rng.randint(1, int(sum(terms.values()))))
    return model


def lower_rowgen_model(rng):
    # a column with no upper bound forces the all-lower start point, and
    # every row holds there, so there is no artificial
    model = ratlp.LPModel()
    n = rng.randint(2, 5)
    for j in range(n):
        lb = rng.choice([F(0), F(0), F(1, 2)])
        ub = None if j == 0 or rng.random() < 0.3 else lb + rng.randint(1, 2)
        obj = F(rng.randint(0, 3)) if ub is None else F(rng.randint(-4, 2))
        model.add_var(lb=lb, ub=ub, obj=obj)
    for _ in range(rng.randint(1, 3)):
        terms = {j: F(rng.randint(-2, 3)) for j in range(n)
                 if rng.random() < 0.7} or {1: F(1)}
        at_lower = sum(w * model.lower[j] for j, w in terms.items())
        sense = rng.choice(["<=", "<=", ">=", "="])
        slack = 0 if sense == "=" else F(rng.randint(0, 6), 2)
        model.add_row(terms, sense,
                      at_lower - slack if sense == ">=" else at_lower + slack)
    return model


def start_point(model):
    # the point the solver starts from, as in reference_simplex_moves
    def holds(row, x):
        terms, sense, rhs = row
        lhs = sum(w * x[j] for j, w in terms.items())
        return {">=": lhs >= rhs, "<=": lhs <= rhs, "=": lhs == rhs}[sense]
    if None not in model.upper and all(holds(row, model.upper)
                                       for row in model.rows):
        return model.upper
    return model.lower


def generated_rows(rng, model, x, kinds):
    """1 to 3 new rows for the optimum x, of the given kinds in turn."""
    s = start_point(model)
    rows = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        if kind == "tie":
            # an old row again, maybe scaled: its ratio-test limits tie
            # those of the old row at every move
            terms, sense, rhs = rng.choice(model.rows)
            k = rng.choice([F(1), F(2), F(1, 3)])
            rows.append(({j: k * w for j, w in terms.items()}, sense, k * rhs))
            continue
        terms = {j: F(rng.randint(-3, 3), rng.choice([1, 2]))
                 for j in range(model.n_vars) if rng.random() < 0.8}
        at_x = sum(w * x[j] for j, w in terms.items())
        at_s = sum(w * s[j] for j, w in terms.items())
        if not terms or at_x == at_s:
            continue
        # ">=" holds at whichever of the two points is higher
        high, low = (">=", "<=") if at_s > at_x else ("<=", ">=")
        if kind == "cut":
            # holds at the start point, cuts x off
            rows.append((terms, high, (at_x + at_s) / 2))
        elif kind == "loose":
            # holds at both points, tight at one
            rows.append(rng.choice([(terms, high, at_x), (terms, low, at_s)]))
        else:
            # holds at x, fails at the start point: a cold solve follows
            rows.append((terms, low, at_x))
    return rows


def test_resumed_row_generation_matches_cold_solves(monkeypatch):
    # every round of row generation resumes the last solve; it must
    # make the moves of a cold solve of a copy of the model, end in the
    # same tableau and give the same answer, and both must make the
    # moves of the term-by-term Fraction simplex
    solve, resume = ratlp._solve, ratlp._Tableau.resume
    solved = []
    outcomes = {"cold": 0, "replayed": 0, "undone": 0, "flip": 0,
                "pivot": 0}

    def recorded_solve(model, tab, scaled=None):
        solved.append(tab)
        return solve(model, tab, scaled)

    def recorded_resume(tab, model):
        logged = len(tab.moves) if tab.moves is not None else 0
        resumed = resume(tab, model)
        if not resumed:
            outcomes["cold"] += 1
        else:
            outcomes["undone" if len(tab.moves) < logged else "replayed"] += 1
        return resumed

    def moves(tab):
        if tab.moves is None:
            return None
        return [(row, enter) for enter, _, _, _, _, row, _, _ in tab.moves]

    def state(tab):
        return (tab.T, tab.D, tab.basis, tab.at_upper, tab.d, tab.dden,
                tab.lo, tab.up, tab.slack_sign, tab.ncols)

    monkeypatch.setattr(ratlp, "_solve", recorded_solve)
    monkeypatch.setattr(ratlp._Tableau, "resume", recorded_resume)
    rng = random.Random(37)
    for k in range(150):
        model = (box_rowgen_model if k % 2 else lower_rowgen_model)(rng)
        kinds = ["cut", "cut", "loose", "tie"]
        if k % 5 == 0:
            kinds.append("cold")
        rounds = []

        def callback(solution):
            tab = solved[-1]
            twin = copy_model(model)
            twin_tab = ratlp._Tableau(twin)
            cold = solve(twin, twin_tab)
            assert cold == solution
            assert moves(tab) == moves(twin_tab)
            assert state(tab) == state(twin_tab)
            reference = oracles.reference_simplex_moves(twin)
            if reference is not None:
                assert reference == ("optimal", moves(twin_tab))
                for row, _ in reference[1]:
                    outcomes["flip" if row < 0 else "pivot"] += 1
            rounds.append(solution.objective)
            if len(rounds) > 6:
                return []
            return generated_rows(rng, model, solution.primal, kinds)

        final = ratlp.solve_lp(model, callback)
        twin = copy_model(model)
        assert ratlp.solve_lp(twin) == final
        if final.status != "optimal":
            reference = oracles.reference_simplex_moves(twin)
            assert reference is None or reference[0] == final.status
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("edit", ["replace", "in place", "bound"])
def test_row_generation_solves_the_model_as_passed(edit):
    # edits the callback makes to the model itself are not seen: the
    # answer is a cold solve of the model as passed plus the returned
    # rows, and model.rows ends as its own rows and then those rows.
    # Each edit would move the optimum, (2/3, 2/3), if it were seen
    def lp():
        model = ratlp.LPModel()
        x = model.add_var(lb=0, ub=1, obj=-1)
        y = model.add_var(lb=0, ub=1, obj=-1)
        model.add_row({x: F(1), y: F(1)}, "<=", F(2))
        return model

    returned = [({0: F(1), 1: F(2)}, "<=", F(2)),
                ({0: F(2), 1: F(1)}, "<=", F(2))]
    model = lp()
    own = model.rows[0]
    rounds = []

    def callback(solution):
        rounds.append(solution)
        if edit == "replace":
            model.rows[0] = ({0: F(1), 1: F(1)}, "<=", F(1))
        elif edit == "in place":
            own[0][0] = F(3)
        else:
            model.upper[0] = F(0)
        if len(rounds) > len(returned):
            return []
        return [returned[len(rounds) - 1]]

    final = ratlp.solve_lp(model, callback)
    cold = lp()
    for row in returned:
        cold.add_row(*row)
    assert final == ratlp.solve_lp(cold)
    assert final.primal == (F(2, 3), F(2, 3))
    assert len(rounds) == 3
    assert model.rows[1:] == returned
