"""Instance normalisation, inequality containers, and the pitch tools."""

import random
from fractions import Fraction

import pytest

import oracles
from pitchcut import core, gaplab, knapdp, ratlp, sep

F = Fraction


def worked_instance():
    # four items, profits 3/10, 4/10, 5/10, 8/10 against threshold 1;
    # already in sorted order, q = 10
    return core.normalize(
        costs=(F(2), F(3), F(5), F(8)),
        profits=(F(3, 10), F(4, 10), F(5, 10), F(8, 10)),
        threshold=F(1),
    )


def halves(n=3):
    return core.normalize((F(1),) * n, (F(1, 2),) * n, F(1))


def test_normalize_scales_and_caps():
    inst = core.normalize((F(1), F(1)), (F(5), F(30)), F(10))
    assert inst.profits == (F(1, 2), F(1))
    assert inst.q == 2
    assert inst.r == (1, 2)


def test_normalize_sorts_with_input_ties():
    inst = core.normalize((F(1), F(2), F(3)), (F(5), F(3), F(3)), F(10))
    assert inst.profits == (F(3, 10), F(3, 10), F(1, 2))
    assert inst.order == (1, 2, 0)
    assert inst.costs == (F(2), F(3), F(1))
    assert [inst.label(k) for k in range(3)] == ["x2", "x3", "x1"]
    assert inst.input_position(2) == 0


def test_normalize_worked_data():
    inst = worked_instance()
    assert inst.q == 10
    assert inst.r == (3, 4, 5, 8)
    assert inst.order == (0, 1, 2, 3)
    assert inst.labels == ("x1", "x2", "x3", "x4")


def test_order_roundtrip():
    inst = core.normalize((F(1), F(2), F(3)), (F(5), F(3), F(3)), F(10))
    values = ("a", "b", "c")
    assert inst.to_input_order(inst.from_input_order(values)) == values
    assert inst.from_input_order(values) == ("b", "c", "a")
    with pytest.raises(ValueError):
        inst.from_input_order(("a", "b"))


def test_normalize_rejects_bad_data():
    with pytest.raises(ValueError):
        core.normalize((F(1),), (F(1),), F(0))
    with pytest.raises(ValueError):
        core.normalize((F(0),), (F(1),), F(1))
    with pytest.raises(ValueError):
        core.normalize((F(1),), (F(-1),), F(1))
    with pytest.raises(ValueError):
        core.normalize((F(1), F(1)), (F(1),), F(1))
    with pytest.raises(ValueError):
        core.normalize((F(1),), (F(1),), F(1), labels=("a", "b"))
    with pytest.raises(TypeError):
        core.normalize((0.5,), (F(1),), F(1))


def test_normalize_zero_profit_is_allowed():
    inst = core.normalize((F(1), F(1)), (F(0), F(1)), F(1))
    assert inst.profits == (F(0), F(1))


def _lp_with_one_var():
    model = ratlp.LPModel()
    model.add_var(lb=0, ub=1, obj=1)
    return model


@pytest.mark.parametrize("call", [
    lambda: knapdp.solve_fptas(worked_instance(), (F(1),) * 4, 0.1),
    lambda: sep.separate_pitch12(worked_instance(), (F(1),) * 4, eps=0.1,
                                 mode="fptas"),
    lambda: knapdp.solve_Palpha(worked_instance(), (F(1),) * 4, 0.5),
    lambda: gaplab.gen_lemma4(4, eps=0.125),
    lambda: ratlp.LPModel().add_var(lb=0.5),
    lambda: ratlp.LPModel().add_var(ub=0.5),
    lambda: ratlp.LPModel().add_var(obj=0.5),
    lambda: _lp_with_one_var().add_row({0: 0.5}, ">=", 1),
    lambda: _lp_with_one_var().add_row({0: 1}, ">=", 0.5),
    lambda: _lp_with_one_var().add_row({0.0: 1}, ">=", 1),
], ids=["fptas-eps", "pitch12-eps", "Palpha-alpha", "lemma4-eps",
        "lp-lower", "lp-upper", "lp-objective", "lp-coefficient",
        "lp-rhs", "lp-column"])
def test_floats_are_refused_at_the_boundary(call):
    with pytest.raises(TypeError, match="float"):
        call()


def test_lp_variables_need_a_finite_lower_bound():
    with pytest.raises(ValueError, match="needs a finite lower bound"):
        ratlp.LPModel().add_var(lb=None)
    model = _lp_with_one_var()
    model.lower[0] = None
    with pytest.raises(ValueError, match="needs a finite lower bound"):
        ratlp.solve_lp(model)


def test_normalize_infeasible_total():
    with pytest.raises(core.InfeasibleInstanceError):
        core.normalize((F(1), F(1)), (F(1), F(2)), F(4))


def test_reduce_maxknap_complement():
    values = (F(5), F(7), F(9))
    weights = (F(2), F(3), F(4))
    inst, complement = core.reduce_maxknap(values, weights, capacity=F(6))
    sol = knapdp.solve_exact(inst, inst.costs)
    assert sol.value == F(7)
    picked = complement(sol.chosen)
    assert sorted(picked) == [0, 2]
    assert sum(weights[i] for i in picked) <= 6
    assert sum(values) - sol.value == F(14)


def test_reduce_maxknap_matches_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 7)
        values = tuple(F(rng.randint(1, 20)) for _ in range(n))
        weights = tuple(F(rng.randint(1, 9)) for _ in range(n))
        capacity = F(rng.randint(1, sum(int(w) for w in weights) - 1))
        best = max(
            sum(values[i] for i in S)
            for S in oracles.subsets(n)
            if sum(weights[i] for i in S) <= capacity
        )
        inst, complement = core.reduce_maxknap(values, weights, capacity)
        sol = knapdp.solve_exact(inst, inst.costs)
        assert sum(values) - sol.value == best
        picked = complement(sol.chosen)
        assert sum(weights[i] for i in picked) <= capacity
        assert sum(values[i] for i in picked) == best


def test_reduce_maxknap_rejects_bad_data():
    with pytest.raises(ValueError):
        core.reduce_maxknap((F(1),), (F(0),))
    with pytest.raises(ValueError):
        core.reduce_maxknap((F(1),), (F(1),), capacity=F(1))


def test_make_inequality_drops_zeros_and_sorts():
    ineq = core.make_inequality({3: F(2), 0: F(1), 2: F(0)}, F(2), "user")
    assert ineq.terms == ((0, F(1)), (3, F(2)))
    assert ineq.support == (0, 3)
    assert ineq.coefficient(3) == 2
    assert ineq.coefficient(2) == 0


def test_make_inequality_rejects_bad_data():
    with pytest.raises(ValueError):
        core.make_inequality({0: F(1)}, F(0), "user")
    with pytest.raises(ValueError):
        core.make_inequality({0: F(-1)}, F(1), "user")
    with pytest.raises(ValueError):
        core.make_inequality({0: F(1)}, F(1), "frobnicate")


def test_inequality_violation_and_key():
    ineq = core.make_inequality({0: F(1), 1: F(1), 3: F(2)}, F(2),
                                "pitch2-canonical")
    x = (F(0), F(0), F(1), F(5, 8))
    assert ineq.lhs(x) == F(5, 4)
    assert ineq.violation(x) == F(3, 4)
    twin = core.make_inequality({0: F(1), 1: F(1), 3: F(2)}, F(2), "user")
    # dedup identity ignores the family tag
    assert ineq.key() == twin.key()


def test_natural_row():
    inst = worked_instance()
    row = core.natural_row(inst)
    assert row.family == "knapsack-row"
    assert row.rhs == 1
    assert row.terms == tuple((i, inst.profits[i]) for i in range(4))


def test_natural_row_drops_zero_profit():
    inst = core.normalize((F(1), F(1)), (F(0), F(1)), F(1))
    assert core.natural_row(inst).support == (1,)


def test_scaled_point():
    a, X = core.scaled_point((F(1, 2), F(1, 3), F(0), F(1), F(5, 6)))
    assert (a, X) == ([3, 2, 0, 6, 5], 6)
    assert core.scaled_point((F(2, 4), F(1, 2))) == ([1, 1], 2)
    assert core.scaled_point(()) == ([], 1)


def test_char_vector_and_as_point():
    assert core.char_vector((2, 0), 3) == (F(1), F(0), F(1))
    with pytest.raises(ValueError):
        core.char_vector((3,), 3)
    with pytest.raises(ValueError):
        core.as_point((F(1),), 2)
    with pytest.raises(ValueError):
        core.as_point((F(3, 2),), 1)
    with pytest.raises(TypeError):
        core.as_point((0.5,), 1)


def test_compute_pitch_examples():
    wild = core.make_inequality(
        {i: F(w) for i, w in enumerate((1, 0, 1, 1, 2, 1, 2)) if w},
        F(3), "user")
    assert core.compute_pitch(wild) == 3
    facet = core.make_inequality(
        {i: F(w) for i, w in enumerate((1, 1, 2, 3, 4, 3, 4))}, F(8), "user")
    assert core.compute_pitch(facet) == 5
    canonical = core.make_inequality({0: F(1), 1: F(1), 3: F(2)}, F(2),
                                     "pitch2-canonical")
    assert core.compute_pitch(canonical) == 2


def test_compute_pitch_unreachable_sentinel():
    short = core.make_inequality({0: F(1)}, F(2), "user")
    assert core.compute_pitch(short) == 2


def test_compute_pitch_matches_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 7)
        coeffs = {i: F(rng.randint(1, 8), rng.randint(1, 4))
                  for i in range(n)}
        rhs = F(rng.randint(1, 12), rng.randint(1, 3))
        ineq = core.make_inequality(coeffs, rhs, "user")
        assert core.compute_pitch(ineq) == oracles.brute_pitch(
            [w for _, w in ineq.terms], rhs)


def test_is_valid_matches_brute_force():
    rng = random.Random(11)
    for seed in range(25):
        inst = gaplab.gen_random(rng.randint(2, 7), seed).normalize()
        for _ in range(4):
            coeffs = {i: F(rng.randint(0, 3)) for i in range(inst.n)}
            if not any(coeffs.values()):
                coeffs[0] = F(1)
            ineq = core.make_inequality(coeffs, F(rng.randint(1, 3)), "user")
            assert core.is_valid(ineq, inst) == oracles.brute_valid(ineq, inst)


def test_kc_inequality_worked_example():
    inst = core.normalize((F(3, 5),) * 3, (F(3, 5),) * 3, F(1))
    cut = core.kc_inequality(inst, {0})
    assert cut.family == "kc"
    assert cut.rhs == F(2, 5)
    assert cut.terms == ((1, F(2, 5)), (2, F(2, 5)))


def test_kc_inequality_empty_set_is_the_knapsack_row():
    inst = worked_instance()
    cut = core.kc_inequality(inst, set())
    assert cut.family == "kc"
    assert cut.rhs == 1
    assert cut.terms == core.natural_row(inst).terms


def test_kc_inequality_rejects_covering_set():
    inst = worked_instance()
    with pytest.raises(ValueError):
        core.kc_inequality(inst, {2, 3})


def test_kc_inequality_always_valid():
    rng = random.Random(13)
    for seed in range(20):
        inst = gaplab.gen_random(rng.randint(2, 6), 100 + seed).normalize()
        for S in oracles.subsets(inst.n):
            if sum(inst.profits[i] for i in S) >= 1:
                continue
            cut = core.kc_inequality(inst, S)
            assert oracles.brute_valid(cut, inst)


def test_pitch2_split_worked_example():
    inst = worked_instance()
    split = core.pitch2_split(inst, (0, 1, 3))
    assert split.betaI == F(1, 2)
    assert split.I1 == (0, 1)
    assert split.I2 == (3,)
    cut = core.pitch2_canonical(inst, (0, 1, 3))
    assert cut.terms == ((0, F(1)), (1, F(1)), (3, F(2)))
    assert cut.rhs == 2
    assert cut.family == "pitch2-canonical"


def test_pitch2_split_rejects_each_precondition():
    inst = worked_instance()
    with pytest.raises(ValueError, match="needs"):
        core.pitch2_split(inst, (0,))
    for I in ((-1, 0), (0, 4)):
        with pytest.raises(ValueError, match="not contained"):
            core.pitch2_split(inst, I)
    with pytest.raises(ValueError, match="not positive"):
        core.pitch2_split(inst, (0, 1))
    with pytest.raises(ValueError, match="I1 is empty"):
        core.pitch2_split(inst, (2, 3))


def test_pitch2_canonical_matches_the_term_by_term_split():
    # every I of small random instances: the canonical cut where the
    # Fraction reference splits canonically, else the ValueError of the
    # precondition that fails
    rng = random.Random(23)
    errors = {"needs": 0, "not positive": 0, "I1 is empty": 0}
    cuts = 0
    for seed in range(20):
        inst = gaplab.gen_random(rng.randint(2, 7), 400 + seed).normalize()
        for I in oracles.subsets(inst.n):
            outside = sum(inst.profits[i] for i in range(inst.n)
                          if i not in I)
            if len(I) < 2:
                error = "needs"
            elif outside >= 1:
                error = "not positive"
            else:
                terms, rhs, family = oracles.reference_line2_cut(inst, I)
                error = None if family == "pitch2-canonical" else "I1 is empty"
            if error is not None:
                with pytest.raises(ValueError, match=error):
                    core.pitch2_canonical(inst, I)
                errors[error] += 1
                continue
            cut = core.pitch2_canonical(inst, I)
            assert (cut.terms, cut.rhs, cut.family) == (terms, rhs, family)
            cuts += 1
    assert cuts and all(errors.values()), errors


def test_pitch2_canonical_always_valid():
    rng = random.Random(17)
    for seed in range(15):
        inst = gaplab.gen_random(rng.randint(2, 6), 200 + seed).normalize()
        for I in oracles.subsets(inst.n):
            try:
                cut = core.pitch2_canonical(inst, I)
            except ValueError:
                continue
            assert oracles.brute_valid(cut, inst)


def test_pitch_reduce_drops_smallest_tie_to_first():
    ineq = core.make_inequality({0: F(1, 2), 1: F(1, 2), 3: F(1)}, F(1),
                                "user")
    out = core.pitch_reduce(ineq, 2)
    assert out.support == (1, 3)
    assert out.rhs == F(1, 2)
    assert out.family == "user"
    deeper = core.make_inequality({i: F(1) for i in range(4)}, F(1), "user")
    assert core.pitch_reduce(deeper, 4).rhs == F(2, 3)
    assert core.pitch_reduce(deeper, 3).rhs == F(1, 2)


def test_pitch_reduce_rejects_bad_input():
    ineq = core.make_inequality({0: F(1)}, F(1), "user")
    with pytest.raises(ValueError):
        core.pitch_reduce(ineq, 1)
    scaled = core.make_inequality({0: F(1)}, F(2), "user")
    with pytest.raises(ValueError):
        core.pitch_reduce(scaled, 2)


def test_format_cut_input_order_and_fractions():
    inst = worked_instance()
    cut = core.make_inequality({0: F(1), 1: F(1), 3: F(2)}, F(2),
                               "pitch2-canonical")
    assert core.format_cut(cut, inst) == "x1 + x2 + 2 x4 >= 2"
    kc = core.make_inequality({1: F(2, 5), 2: F(2, 5)}, F(2, 5), "kc")
    assert core.format_cut(kc, inst) == "2/5 x2 + 2/5 x3 >= 2/5"
    assert core.format_cut(cut) == "x1 + x2 + 2 x4 >= 2"


def test_format_cut_follows_the_sort_permutation():
    inst = core.normalize((F(1), F(2), F(3)), (F(5), F(3), F(3)), F(10))
    cut = core.make_inequality({0: F(1), 2: F(1)}, F(1), "pitch1")
    # sorted index 2 is input item 1, sorted index 0 is input item 2
    assert core.format_cut(cut, inst) == "x1 + x2 >= 1"


def test_format_cut_empty_lhs():
    ineq = core.Inequality(terms=(), rhs=F(1), family="user")
    assert core.format_cut(ineq) == "0 >= 1"
