"""Separation oracles: pitch-1/2, knapsack cover, fixed support."""

import random
from fractions import Fraction

import pytest

import oracles
from pitchcut import core, gaplab, kernels, knapdp, ratlp, sep

F = Fraction


def worked_instance():
    return core.normalize(
        costs=(F(2), F(3), F(5), F(8)),
        profits=(F(3, 10), F(4, 10), F(5, 10), F(8, 10)),
        threshold=F(1),
    )


def halves(n=3):
    return core.normalize((F(1),) * n, (F(1, 2),) * n, F(1))


def random_point(inst, rng, den=4):
    return tuple(F(rng.randint(0, den), den) for _ in range(inst.n))


def test_pitch12_prechecks_the_knapsack_row():
    inst = worked_instance()
    result = sep.separate_pitch12(inst, (F(0), F(0), F(1, 2), F(2, 5)))
    assert isinstance(result, sep.Violated)
    assert result.family == "knapsack-row"
    assert result.violation == F(43, 100)
    assert result.cut.terms == core.natural_row(inst).terms


def test_pitch12_at_the_origin():
    inst = worked_instance()
    result = sep.separate_pitch12(inst, (F(0),) * 4)
    assert result.family == "knapsack-row"
    assert result.violation == 1


def test_pitch12_finds_the_canonical_cut():
    inst = worked_instance()
    x = (F(0), F(0), F(1), F(5, 8))
    result = sep.separate_pitch12(inst, x)
    assert isinstance(result, sep.Violated)
    assert result.family == "pitch2-canonical"
    assert result.cut.terms == ((0, F(1)), (1, F(1)), (3, F(2)))
    assert result.cut.rhs == 2
    assert result.violation == F(3, 4)
    assert oracles.brute_valid(result.cut, inst)


def test_pitch12_certifies_integral_points():
    inst = worked_instance()
    x = core.char_vector((2, 3), inst.n)
    result = sep.separate_pitch12(inst, x)
    assert isinstance(result, sep.Certified)
    assert result.ybar == x


def test_pitch12_rejects_bad_modes():
    inst = worked_instance()
    with pytest.raises(ValueError):
        sep.separate_pitch12(inst, (F(0),) * 4, mode="guess")
    with pytest.raises(ValueError):
        sep.separate_pitch12(inst, (F(0),) * 4, mode="fptas")
    with pytest.raises(ValueError):
        sep.separate_pitch12(inst, (F(0),) * 4, mode="fptas", eps=F(0))


def test_pitch12_exact_soundness_and_completeness():
    rng = random.Random(41)
    for seed in range(20):
        inst = gaplab.gen_random(rng.randint(2, 7), 900 + seed).normalize()
        p1 = sep.enumerate_pitch1(inst)
        p2 = sep.enumerate_pitch2(inst)
        for _ in range(3):
            x = random_point(inst, rng)
            result = sep.separate_pitch12(inst, x)
            if isinstance(result, sep.Violated):
                assert result.violation == result.cut.violation(x) > 0
                assert oracles.brute_valid(result.cut, inst)
            else:
                # exact certification: the point itself satisfies every
                # pitch-1 and canonical pitch-2 inequality
                assert result.ybar == x
                for cut in p1 + p2:
                    assert cut.lhs(x) >= cut.rhs


def test_pitch12_fptas_certificate_blows_up_the_point():
    rng = random.Random(42)
    eps = F(1, 2)
    blow = 1 + eps
    for seed in range(15):
        inst = gaplab.gen_random(rng.randint(2, 6), 950 + seed).normalize()
        p1 = sep.enumerate_pitch1(inst)
        p2 = sep.enumerate_pitch2(inst)
        for _ in range(3):
            x = random_point(inst, rng)
            result = sep.separate_pitch12(inst, x, eps=eps, mode="fptas")
            if isinstance(result, sep.Violated):
                assert oracles.brute_valid(result.cut, inst)
                assert result.cut.violation(x) == result.violation > 0
            else:
                assert result.ybar == tuple(
                    min(F(1), blow * v) for v in x)
                for cut in p1 + p2:
                    assert cut.lhs(result.ybar) >= cut.rhs


def mixed_grid_point(inst, rng):
    # halves, thirds and 64ths mixed, so the common denominator X varies
    return tuple(F(rng.randint(0, den), den)
                 for den in (rng.choice((2, 3, 64)) for _ in range(inst.n)))


def answer(result):
    if isinstance(result, sep.Certified):
        return ("certified", result.ybar)
    cut = result.cut
    assert result.family == cut.family
    return ("violated", cut.terms, cut.rhs, cut.family, result.violation)


def test_pitch12_matches_the_fraction_reference_and_brute_force():
    rng = random.Random(48)
    runs = (("exact", None), ("fptas", F(1, 10)), ("fptas", F(1, 2)))
    kinds = set()
    for seed in range(40):
        inst = gaplab.gen_random(rng.randint(2, 10), 1600 + seed).normalize()
        p1 = sep.enumerate_pitch1(inst)
        p2 = sep.enumerate_pitch2(inst)
        p2_keys = {cut.key() for cut in p2}
        for _ in range(3):
            x = mixed_grid_point(inst, rng)
            for mode, eps in runs:
                got = answer(sep.separate_pitch12(inst, x, eps=eps, mode=mode))
                want = oracles.reference_pitch12(
                    inst, x, knapdp.solve_Palpha, mode=mode, eps=eps)
                assert got == want
                kinds.add(got[0] if got[0] == "certified" else got[3])
                if mode != "exact":
                    continue
                # brute force: the most violated enumerated cut, or the row
                top = max(cut.violation(x) for cut in p1 + p2)
                row_gap = core.natural_row(inst).violation(x)
                if got[0] == "certified":
                    assert row_gap <= 0 and top <= 0
                elif got[3] == "knapsack-row":
                    assert got[4] == row_gap > 0
                else:
                    assert row_gap <= 0 and 0 < got[4] <= top
                    if got[3] == "pitch2-canonical":
                        assert (got[1], got[2]) in p2_keys
                    else:
                        assert oracles.brute_valid(
                            core.make_inequality(dict(got[1]), got[2],
                                                 "pitch1"), inst)
    assert kinds == {"certified", "knapsack-row", "pitch1",
                     "pitch2-canonical"}


def test_separate_kc_heuristic_worked_example():
    inst = core.normalize((F(3, 5),) * 3, (F(3, 5),) * 3, F(1))
    hit = sep.separate_kc(inst, (F(1), F(1, 10), F(0)))
    assert hit is not None
    assert hit.family == "kc"
    assert hit.cut.terms == ((1, F(2, 5)), (2, F(2, 5)))
    assert hit.cut.rhs == F(2, 5)
    assert hit.violation == F(9, 25)


def test_separate_kc_heuristic_none_when_satisfied():
    inst = worked_instance()
    assert sep.separate_kc(inst, core.char_vector((3, 2), inst.n)) is None


def test_separate_kc_exhaustive_matches_brute_force():
    rng = random.Random(43)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(1, 7), 1100 + seed).normalize()
        x = random_point(inst, rng)
        hit = sep.separate_kc(inst, x, mode="exhaustive")
        gap, S = oracles.brute_kc_scan(inst, x)
        if gap <= 0:
            assert hit is None
        else:
            assert hit.violation == gap
            assert hit.cut.terms == core.kc_inequality(inst, S).terms
            assert oracles.brute_valid(hit.cut, inst)


def test_separate_kc_heuristic_never_beats_exhaustive():
    rng = random.Random(44)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(1, 6), 1200 + seed).normalize()
        x = random_point(inst, rng)
        heur = sep.separate_kc(inst, x)
        best = sep.separate_kc(inst, x, mode="exhaustive")
        if heur is not None:
            assert best is not None
            assert heur.violation <= best.violation


def test_separate_kc_rejects_bad_modes():
    inst = worked_instance()
    with pytest.raises(ValueError):
        sep.separate_kc(inst, (F(0),) * 4, mode="both")
    wide = core.normalize((F(1),) * 21, (F(1),) * 21, F(1))
    with pytest.raises(ValueError):
        sep.separate_kc(inst=wide, xbar=(F(0),) * 21, mode="exhaustive")


def test_fixed_support_massive_rows_only():
    inst = gaplab.gen_ola(4).normalize()
    point = inst.from_input_order(gaplab.ola_point(4, 2))
    result = sep.separate_fixed_support(inst, point, range(inst.n))
    assert result.value == F(5, 4)
    assert not result.violated
    assert result.query.betaI > 0
    bq = result.query.betaI * inst.q
    for J in result.query.rows:
        assert sum(inst.r[j] for j in J) >= bq


def test_fixed_support_pitch_limit_tightens_the_value():
    inst = gaplab.gen_ola(4).normalize()
    point = inst.from_input_order(gaplab.ola_point(4, 2))
    result = sep.separate_fixed_support(inst, point, range(inst.n),
                                        pitch_limit=2)
    assert result.value == F(7, 4)
    assert not result.violated
    cut = result.as_cut()
    assert core.compute_pitch(cut) <= 2
    assert oracles.brute_valid(cut, inst)


def test_fixed_support_finds_a_violated_cut():
    inst = worked_instance()
    x = (F(0), F(0), F(1), F(5, 8))
    result = sep.separate_fixed_support(inst, x, (0, 1, 3))
    assert result.violated
    assert result.value == F(5, 8)
    cut = result.as_cut()
    assert cut.family == "fixed-support"
    assert cut.rhs == 1
    assert cut.violation(x) > 0
    assert oracles.brute_valid(cut, inst)


def test_fixed_support_cut_is_valid_on_random_supports():
    rng = random.Random(45)
    for seed in range(15):
        inst = gaplab.gen_random(rng.randint(2, 6), 1300 + seed).normalize()
        x = random_point(inst, rng)
        size = rng.randint(1, inst.n)
        I = tuple(sorted(rng.sample(range(inst.n), size)))
        try:
            result = sep.separate_fixed_support(inst, x, I)
        except ValueError:
            # beta(I) <= 0: no valid inequality lives on I
            bq = inst.q - sum(inst.r[i] for i in range(inst.n)
                              if i not in set(I))
            assert bq <= 0
            continue
        cut = result.as_cut()
        assert set(cut.support) <= set(I)
        assert oracles.brute_valid(cut, inst)
        if result.violated:
            assert cut.violation(x) > 0


def test_fixed_support_validations():
    inst = worked_instance()
    with pytest.raises(ValueError):
        sep.separate_fixed_support(inst, (F(0),) * 4, (0, 9))
    with pytest.raises(ValueError):
        sep.separate_fixed_support(inst, (F(0),) * 4, (0, 1))
    with pytest.raises(ValueError):
        sep.separate_fixed_support(inst, (F(0),) * 4, (0, 1, 3),
                                   pitch_limit=0)


def _fake_level_kernels(monkeypatch, answer):
    """Both level-sweep kernels answer answer(r) at every level."""
    def fake(r, a, base, nums, *eps):
        return [answer(r)] * len(nums)

    monkeypatch.setattr(kernels, "min_cover_levels", fake)
    monkeypatch.setattr(kernels, "fptas_levels", fake)


PITCH12_MODES = [dict(mode="exact"), dict(mode="fptas", eps=F(1, 10))]


def test_pitch12_rejects_a_level_solution_with_no_positive_beta(
        monkeypatch):
    # the empty set leaves beta(I) = 1 - p(all) <= 0
    _fake_level_kernels(monkeypatch, lambda r: (0, ()))
    for kwargs in PITCH12_MODES:
        with pytest.raises(core.VerificationError, match="not positive"):
            sep.separate_pitch12(worked_instance(), (F(1),) * 4, **kwargs)


def test_pitch12_rejects_level_solutions_that_cut_nothing(monkeypatch):
    # every item at value 0: the all-ones point satisfies every cut
    _fake_level_kernels(monkeypatch, lambda r: (0, tuple(range(len(r)))))
    units = core.normalize((F(1),) * 3, (F(1),) * 3, F(1))
    for kwargs in PITCH12_MODES:
        with pytest.raises(core.VerificationError,
                           match="level-alpha solution of value < 2"):
            sep.separate_pitch12(worked_instance(), (F(1),) * 4, **kwargs)
        # unit profits leave the level grid empty, so only the pitch-1
        # level runs
        with pytest.raises(core.VerificationError,
                           match="no violated pitch-1 cut"):
            sep.separate_pitch12(units, (F(1),) * 3, **kwargs)


def test_fixed_support_rejects_a_non_optimal_lp(monkeypatch):
    infeasible = ratlp.LPSolution("infeasible", None, None, None)
    monkeypatch.setattr(ratlp, "solve_lp",
                        lambda model, callback=None: infeasible)
    with pytest.raises(core.VerificationError, match="ended infeasible"):
        sep.separate_fixed_support(worked_instance(), (F(0),) * 4,
                                   (0, 1, 2, 3))


def test_enumerate_pitch1_pins():
    both = core.normalize((F(1), F(1)), (F(1), F(1)), F(1))
    assert [c.support for c in sep.enumerate_pitch1(both)] == [(0, 1)]
    assert [c.support for c in sep.enumerate_pitch1(halves())] == \
        [(0, 1), (0, 2), (1, 2)]
    single = core.normalize((F(1),), (F(1),), F(1))
    assert [c.support for c in sep.enumerate_pitch1(single)] == [(0,)]
    padded = core.normalize((F(1), F(1)), (F(0), F(1)), F(1))
    assert [c.support for c in sep.enumerate_pitch1(padded)] == [(1,)]
    for cut in sep.enumerate_pitch1(halves()):
        assert cut.family == "pitch1"
        assert cut.rhs == 1
        assert all(w == 1 for _, w in cut.terms)


def test_enumerate_pitch1_matches_brute_force():
    rng = random.Random(46)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(1, 8), 1400 + seed).normalize()
        supports = [c.support for c in sep.enumerate_pitch1(inst)]
        assert supports == oracles.brute_pitch1_supports(inst)


def test_enumerate_pitch1_size_limit():
    wide = core.normalize((F(1),) * 21, (F(1),) * 21, F(1))
    with pytest.raises(ValueError):
        sep.enumerate_pitch1(wide)


def test_enumerate_pitch2_pins():
    assert [c.key() for c in sep.enumerate_pitch2(halves())] == \
        [(((0, F(1)), (1, F(1)), (2, F(1))), F(2))]
    both = core.normalize((F(1), F(1)), (F(1), F(1)), F(1))
    assert sep.enumerate_pitch2(both) == []
    inst = core.normalize((F(1),) * 3, (F(1, 8), F(1, 2), F(3, 4)), F(1))
    keys = {c.key() for c in sep.enumerate_pitch2(inst)}
    assert (((0, F(1)), (1, F(2))), F(2)) in keys
    assert len(keys) == 4


def test_enumerate_pitch2_matches_brute_force():
    rng = random.Random(47)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(1, 7), 1500 + seed).normalize()
        keys = {c.key() for c in sep.enumerate_pitch2(inst)}
        assert keys == oracles.brute_pitch2_keys(inst)


def test_enumerate_pitch2_size_limit():
    wide = core.normalize((F(1),) * 17, (F(1),) * 17, F(1))
    with pytest.raises(ValueError):
        sep.enumerate_pitch2(wide)


def one_cut(coeffs, rhs):
    return core.make_inequality(
        {i: F(w) for i, w in enumerate(coeffs) if w}, F(rhs), "user")


def test_implied_by_scaling_a_single_member():
    target = one_cut((1, 1, 1), 1)
    member = one_cut((1, 1, 0), 1)
    assert sep.implied_by(target, [member], 3)


def test_implied_by_respects_the_support():
    target = one_cut((0, 0, 1), 1)
    member = one_cut((1, 1, 0), 1)
    assert not sep.implied_by(target, [member], 3)


def test_implied_by_needs_a_combination():
    family = [one_cut((1, 1, 0), 1), one_cut((0, 1, 1), 1)]
    # lambda = (1, 1) hits the target exactly, no single member scales
    assert sep.implied_by(one_cut((1, 2, 1), 2), family, 3)
    assert not sep.implied_by(one_cut((1, 1, 1), F(3, 2)), family, 3)


def test_implied_by_empty_family():
    assert not sep.implied_by(one_cut((1,), 1), [], 1)
    free = core.Inequality(terms=((0, F(1)),), rhs=F(0), family="user")
    assert sep.implied_by(free, [], 1)


def test_pitch2_targets_follow_from_the_enumerated_families():
    # every valid grid inequality of pitch <= 2 with rhs 1 is a conic
    # combination of enumerated pitch-1 and canonical pitch-2 cuts
    inst = halves()
    family = sep.enumerate_pitch1(inst) + sep.enumerate_pitch2(inst)
    grid = [F(0), F(1, 2), F(1)]
    count = 0
    for a in grid:
        for b in grid:
            for c in grid:
                coeffs = {i: w for i, w in enumerate((a, b, c)) if w}
                if not coeffs:
                    continue
                ineq = core.make_inequality(coeffs, F(1), "user")
                if core.compute_pitch(ineq) > 2:
                    continue
                if not core.is_valid(ineq, inst):
                    continue
                count += 1
                assert sep.implied_by(ineq, family, inst.n)
    assert count > 0
