"""Rounding, the cut pool, and the cutting-plane driver."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
import pitchcut
from pitchcut import core, cutloop, gaplab, ratlp, sep

F = Fraction


def worked_instance():
    return core.normalize(
        costs=(F(2), F(3), F(5), F(8)),
        profits=(F(3, 10), F(4, 10), F(5, 10), F(8, 10)),
        threshold=F(1),
    )


def test_round_kc_threshold_set_already_covers():
    inst = worked_instance()
    result = cutloop.round_kc(inst, (F(0), F(0), F(1), F(1)))
    assert result.chosen == (2, 3)
    assert result.cost == 13
    assert result.guaranteed


def test_round_kc_greedy_completion_with_guarantee():
    inst = core.normalize(
        (F(1),) * 4, (F(9, 10), F(3, 10), F(3, 10), F(3, 10)), F(1))
    # sorted order puts the heavy item last
    x = inst.from_input_order((F(1, 2), F(2, 5), F(2, 5), F(2, 5)))
    result = cutloop.round_kc(inst, x)
    assert result.guaranteed
    assert result.cost == 2
    chosen_profit = sum(inst.profits[i] for i in result.chosen)
    assert chosen_profit >= 1
    cx = sum(inst.costs[i] * x[i] for i in range(inst.n))
    assert result.cost <= 2 * cx


def test_round_kc_takes_everything_when_half_sums_stall():
    inst = core.normalize((F(1),) * 3, (F(1, 2), F(1, 4), F(1, 4)), F(1))
    x = inst.from_input_order((F(1, 2), F(0), F(0)))
    result = cutloop.round_kc(inst, x)
    assert result.chosen == (0, 1, 2)
    assert not result.guaranteed


def test_round_kc_unguaranteed_when_the_cover_cut_is_violated():
    inst = core.normalize((F(3, 5),) * 3, (F(3, 5),) * 3, F(1))
    result = cutloop.round_kc(inst, (F(1), F(1, 10), F(0)))
    assert not result.guaranteed
    assert sum(inst.profits[i] for i in result.chosen) >= 1


def test_round_kc_reports_impossible_residuals():
    # hand-built container that normalize() would never produce: total
    # profit below the threshold
    inst = core.Instance(profits=(F(1, 4),), costs=(F(1),), labels=("x1",),
                         order=(0,), q=4, r=(1,))
    with pytest.raises(core.KnapsackError, match="cannot cover"):
        cutloop.round_kc(inst, (F(0),))


def test_round_kc_two_approximation_whenever_guaranteed():
    rng = random.Random(51)
    seen = 0
    for seed in range(40):
        inst = gaplab.gen_random(rng.randint(2, 7), 1600 + seed).normalize()
        x = tuple(F(rng.randint(0, 8), 8) for _ in range(inst.n))
        result = cutloop.round_kc(inst, x)
        assert sum(inst.profits[i] for i in result.chosen) >= 1
        assert result.cost == sum(inst.costs[i] for i in result.chosen)
        if result.guaranteed:
            seen += 1
            cx = sum(inst.costs[i] * x[i] for i in range(inst.n))
            assert result.cost <= 2 * cx
    assert seen > 0


def test_cut_pool_dedup_and_counts():
    inst = worked_instance()
    pool = cutloop.CutPool(inst)
    cut = core.pitch2_canonical(inst, (0, 1, 3))
    assert pool.add(cut)
    assert not pool.add(cut)
    assert pool.add(core.kc_inequality(inst, {3}))
    assert len(pool) == 2
    assert pool.counts() == {"pitch2-canonical": 1, "kc": 1}
    assert list(pool)[0] is cut


def test_cut_pool_check_rejects_invalid_cuts():
    inst = core.normalize((F(1),) * 3, (F(1, 2),) * 3, F(1))
    pool = cutloop.CutPool(inst, check=True)
    bogus = core.make_inequality({0: F(1)}, F(1), "user")
    with pytest.raises(core.VerificationError):
        pool.add(bogus)
    assert pool.add(core.make_inequality({0: F(1), 1: F(1), 2: F(1)},
                                         F(2), "user"))


def test_loop_rejects_a_cut_that_is_already_a_row(monkeypatch):
    # a separator that returns its first hit again on every round
    separate_kc = sep.separate_kc
    hits = []

    def stuck(inst, xbar, mode):
        if not hits:
            hits.append(separate_kc(inst, xbar, mode=mode))
        return hits[0]

    monkeypatch.setattr(sep, "separate_kc", stuck)
    config = cutloop.LoopConfig(families=frozenset({"kc"}))
    with pytest.raises(core.VerificationError, match="already a row"):
        cutloop.run(worked_instance(), config)
    assert hits[0] is not None


def test_loop_config_validation():
    with pytest.raises(ValueError):
        cutloop.LoopConfig(families=frozenset({"p13"}))
    with pytest.raises(ValueError):
        cutloop.LoopConfig(mode="quick")
    with pytest.raises(ValueError):
        cutloop.LoopConfig(fs_trigger="never")
    with pytest.raises(ValueError):
        cutloop.LoopConfig(max_iter=-1)


def test_run_without_separators_reports_the_natural_value():
    inst = gaplab.gen_lemma4(4).normalize()
    report = cutloop.run(inst, cutloop.LoopConfig(families=frozenset()))
    assert report.reason == "no-cut-found"
    assert report.final_lp == F(17, 8)
    assert report.int_opt == F(17, 8)
    assert report.gap == 1
    assert report.iterations == 0
    assert report.cut_counts == {}
    assert report.modes == {}


def test_run_max_iter_zero_solves_once():
    inst = worked_instance()
    config = cutloop.LoopConfig(max_iter=0)
    report = cutloop.run(inst, config)
    assert report.reason == "max-iter"
    assert len(report.lp_values) == 1
    assert report.iterations == 0
    assert report.cut_counts == {}


def test_run_certifies_the_worked_instance():
    inst = worked_instance()
    config = cutloop.LoopConfig(families=frozenset({"kc", "p12"}),
                                check_cuts=True)
    report = cutloop.run(inst, config, instance_id="worked")
    assert report.instance_id == "worked"
    assert report.reason == "certified"
    assert report.int_opt == oracles.brute_min_cost(inst, inst.costs)[0]
    assert report.final_lp <= report.int_opt
    assert report.gap >= 1
    assert report.lp_values == tuple(sorted(report.lp_values))
    assert report.modes == {"kc": "threshold-heuristic", "p12": "exact"}


def test_run_without_pitch_oracle_cannot_certify():
    inst = worked_instance()
    report = cutloop.run(inst, cutloop.LoopConfig(
        families=frozenset({"kc"}), max_iter=50))
    assert report.reason in ("no-cut-found", "max-iter")


def test_run_reports_fixed_support_modes():
    inst = core.normalize((F(1),) * 3, (F(1, 2),) * 3, F(1))
    config = cutloop.LoopConfig(
        families=frozenset({"kc", "p12", "fixed-support"}),
        fs_trigger="full", fs_pitch_limit=2, max_iter=30)
    report = cutloop.run(inst, config)
    assert report.modes["fixed-support"] == "trigger=full,pitch<=2"
    assert report.final_lp <= report.int_opt


def test_run_values_climb_and_cuts_are_valid():
    rng = random.Random(52)
    for seed in range(10):
        inst = gaplab.gen_random(rng.randint(2, 6), 1700 + seed,
                                 p_equals_c=True).normalize()
        config = cutloop.LoopConfig(families=frozenset({"kc", "p12"}),
                                    check_cuts=True, max_iter=60)
        report = cutloop.run(inst, config)
        assert report.lp_values == tuple(sorted(report.lp_values))
        assert report.final_lp <= report.int_opt
        assert report.gap == report.int_opt / report.final_lp
        assert sum(report.cut_counts.values()) <= report.iterations


@pytest.mark.parametrize("name, inst, families", [
    ("lemma4-9", gaplab.gen_lemma4(9).normalize(), {"p12"}),
    ("ola-9", gaplab.gen_ola(9).normalize(), {"kc", "p12"}),
])
def test_resumed_loop_matches_cold_solves(monkeypatch, name, inst, families):
    # each round's resumed re-solve against a cold solve of a copy of the
    # model, and the whole run against one that solves every round cold
    config = cutloop.LoopConfig(families=frozenset(families), max_iter=40)
    solve_lp, pivot = ratlp.solve_lp, ratlp._Tableau._pivot
    pivots = {"resumed": 0, "cold": 0}
    side = ["resumed"]
    models = []

    def counted(tab, *args):
        pivots[side[0]] += 1
        return pivot(tab, *args)

    def checked(model, callback):
        def round_(solution):
            twin = ratlp.LPModel()
            twin.lower, twin.upper = list(model.lower), list(model.upper)
            twin.objective, twin.rows = list(model.objective), list(model.rows)
            side[0] = "cold"
            cold = solve_lp(twin)
            side[0] = "resumed"
            assert cold == solution
            return callback(solution)
        models.append(model)
        return solve_lp(model, round_)

    def all_cold(model, callback):
        models.append(model)
        while True:
            solution = solve_lp(model)
            rows = callback(solution)
            if not rows:
                return solution
            for row in rows:
                model.add_row(*row)

    monkeypatch.setattr(ratlp._Tableau, "_pivot", counted)
    monkeypatch.setattr(ratlp, "solve_lp", checked)
    resumed = cutloop.run(inst, config, instance_id=name)
    assert 0 < pivots["resumed"] < pivots["cold"]
    monkeypatch.setattr(ratlp, "solve_lp", all_cold)
    cold = cutloop.run(inst, config, instance_id=name)
    assert resumed == cold
    assert resumed.reason == "certified" and resumed.iterations > 5
    assert models[0].rows == models[1].rows



_SUMMARY = """\
from fractions import Fraction as F
from pitchcut import core, cutloop, gaplab, kernels, ratlp, sep
inst = gaplab.gen_lemma4(9).normalize()
config = cutloop.LoopConfig(families=frozenset({"kc", "p12"}))
report = cutloop.run(inst, config)
rejected = []
box = ratlp.LPModel()
x = box.add_var(lb=0, ub=1, obj=1)
box.add_row({x: F(1)}, ">=", F(1))
try:  # the optimum x = 1 with its dual 1 replaced by 0
    ratlp._verify_optimal(box, (F(1),), (F(0),), F(1))
except core.VerificationError:
    rejected.append("lp")
halves = core.normalize((F(1),) * 3, (F(1, 2),) * 3, F(1))
try:  # x1 >= 1 cuts off the cover {x2, x3}
    cutloop.CutPool(halves, check=True).add(
        core.make_inequality({0: F(1)}, F(1), "user"))
except core.VerificationError:
    rejected.append("cut")
best_subset = kernels.kc_best_subset
def inflated(*args):
    score, mask = best_subset(*args)
    return score + 1, mask
kernels.kc_best_subset = inflated
try:  # a KC kernel score one above its cut's violation
    sep.separate_kc(halves, (F(0),) * 3, mode="exhaustive")
except core.VerificationError:
    rejected.append("kc")
kernels.kc_best_subset = best_subset
line2_cut = sep._line2_cut
sep._line2_cut = lambda inst, chosen: sep._pitch1_cut(inst, chosen)
worked = core.normalize((F(2), F(3), F(5), F(8)),
                        (F(3, 10), F(4, 10), F(5, 10), F(8, 10)), F(1))
try:  # the valid pitch-1 cut on I = {0, 1, 3} for its pitch-2 cut
    sep.separate_pitch12(worked, (F(0), F(0), F(1), F(5, 8)))
except core.VerificationError:
    rejected.append("p12")
sep._line2_cut = line2_cut
solve_lp = ratlp.solve_lp
def falling(model, callback):
    for value in (F(2), F(1)):
        callback(ratlp.LPSolution("optimal", (F(0),) * model.n_vars, value,
                                  ()))
ratlp.solve_lp = falling
try:  # an LP value that falls after a cut
    cutloop.run(worked, config)
except core.VerificationError:
    rejected.append("value")
ratlp.solve_lp = solve_lp
print(__debug__, report.final_lp, report.reason, report.iterations,
      sorted(report.cut_counts.items()), rejected)
"""


def test_run_is_unchanged_under_python_O(capsys):
    # every LP solve must happen outside an assert, which -O strips, and
    # the exactness checks must raise rather than assert
    exec(_SUMMARY, {})
    here = capsys.readouterr().out.split(" ", 1)[1]
    src = os.path.dirname(os.path.dirname(pitchcut.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", _SUMMARY], env=env,
                          capture_output=True, text=True, check=True)
    debug, summary = proc.stdout.split(" ", 1)
    assert debug == "False"
    assert summary == here
    # the LP certificate, the cut pool check, the KC kernel check, the
    # pitch-1/2 winner's score check and the loop's monotone LP value
    # all still reject
    assert summary.endswith(" ['lp', 'cut', 'kc', 'p12', 'value']\n")
