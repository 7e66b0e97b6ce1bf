"""Instance files, generators, and the gap-table experiment."""

import io
from fractions import Fraction

import pytest

from pitchcut import core, gaplab

F = Fraction


def test_parse_worked_file():
    text = """\
# toy instance
minknap 1
threshold 10   # ten units
item a cost 2 profit 3
item b cost 3 profit 2/4
"""
    raw = gaplab.parse_instance(text)
    assert raw.threshold == 10
    assert raw.labels == ("a", "b")
    assert raw.costs == (F(2), F(3))
    # 2/4 is accepted on input and rewritten in lowest terms on output
    assert raw.profits == (F(3), F(1, 2))
    assert "profit 1/2" in gaplab.serialize_instance(raw)


def test_parse_error_positions():
    cases = (
        ("", 2, 1, "empty file"),
        ("minknap 2\n", 1, 1, "header"),
        ("minknap 1\n", 3, 1, "missing threshold"),
        ("minknap 1\nitem a cost 1 profit 1\n", 2, 1, "before threshold"),
        ("minknap 1\nthreshold 1\nthreshold 2\n", 3, 1, "duplicate"),
        ("minknap 1\nthreshold 1.5\n", 2, 11, "rational"),
        ("minknap 1\nthreshold 1/0\n", 2, 11, "zero denominator"),
        ("minknap 1\nthreshold 1\nbogus\n", 3, 1, "unknown directive"),
        ("minknap 1\nthreshold 1\nitem a cost 1\n", 3, 1, "expected 'item"),
        ("minknap 1\nthreshold 1\nitem a cost 1 profit 1\n"
         "item a cost 1 profit 1\n", 4, 6, "duplicate label"),
        ("minknap 1\nthreshold 1\n", 4, 1, "no items"),
    )
    for text, line, column, fragment in cases:
        with pytest.raises(gaplab.ParseError) as info:
            gaplab.parse_instance(text)
        assert info.value.line == line, text
        assert info.value.column == column, text
        assert fragment in str(info.value)


def test_parse_error_is_a_value_error():
    assert issubclass(gaplab.ParseError, ValueError)


def test_serialize_rejects_unwritable_labels():
    raw = gaplab.RawInstance(threshold=F(1), labels=("a b",),
                             costs=(F(1),), profits=(F(1),))
    with pytest.raises(ValueError):
        gaplab.serialize_instance(raw)


@pytest.mark.parametrize("raw", [
    gaplab.gen_lemma4(4),
    gaplab.gen_lemma4(9, eps=F(1, 3)),
    gaplab.gen_ola(4),
    gaplab.gen_pitch3_wild(),
    gaplab.gen_random(6, seed=3),
], ids=["lemma4-4", "lemma4-9", "ola-4", "wild", "random"])
def test_serialize_parse_roundtrip(raw):
    assert gaplab.parse_instance(gaplab.serialize_instance(raw)) == raw
    raw.normalize()


def test_gen_lemma4_structure():
    raw = gaplab.gen_lemma4(4)
    assert raw.labels == ("y", "z", "x1", "x2", "x3", "x4")
    assert raw.threshold == 4
    assert raw.costs == (F(1, 8), F(2), F(1), F(1), F(1), F(1))
    assert raw.profits == (F(2), F(2), F(1), F(1), F(1), F(1))
    inst = raw.normalize()
    assert inst.q == 4
    assert inst.r == (1, 1, 1, 1, 2, 2)
    assert inst.order == (2, 3, 4, 5, 0, 1)


def test_gen_lemma4_rejects_bad_parameters():
    with pytest.raises(ValueError, match="perfect square"):
        gaplab.gen_lemma4(5)
    with pytest.raises(ValueError, match="n >= 4"):
        gaplab.gen_lemma4(1)
    with pytest.raises(ValueError, match="positive"):
        gaplab.gen_lemma4(4, eps=F(0))


def test_lemma4_point():
    assert gaplab.lemma4_point(4) == (F(1), F(1)) + (F(1, 3),) * 4
    inst = gaplab.gen_lemma4(4).normalize()
    gaplab._check_lemma4_point(inst, 4)


def test_witness_checks_raise_rather_than_assert(monkeypatch):
    # all profit on one item at x = 1/3: the lemma-4 point misses the row
    skewed = core.normalize((F(1),) * 6, (F(0),) * 5 + (F(1),), F(1))
    with pytest.raises(core.VerificationError, match="knapsack row"):
        gaplab._check_lemma4_point(skewed, 4)
    # (y, z, x1..x4) with profits (1/2, 0, 1, 1, 0, 0): the point meets
    # the row at 7/6 but not the pitch-1 cut x1 + x2 >= 1, at 2/3
    profits = (F(1, 2), F(0), F(1), F(1), F(0), F(0))
    uncut = core.normalize((F(1),) * 6, profits, F(1))
    with pytest.raises(core.VerificationError, match="pitch-1 cut"):
        gaplab._check_lemma4_point(uncut, 4)
    # any two of seven halves cover, so the wild cuts are not valid here
    halves = core.normalize((F(1),) * 7, (F(1, 2),) * 7, F(1))
    with pytest.raises(core.VerificationError):
        gaplab._check_wild(halves)
    # the facet with its right-hand side one too high cuts off an
    # integer point, while the pitch-3 cut still passes
    weights, rhs = gaplab.WILD_CG_FACET
    monkeypatch.setattr(gaplab, "WILD_CG_FACET", (weights, rhs + 1))
    with pytest.raises(core.VerificationError, match="facet cut"):
        gaplab._check_wild(gaplab.gen_pitch3_wild().normalize())


def test_gen_ola_structure():
    raw = gaplab.gen_ola(4)
    assert raw.labels[:4] == ("x1", "x2", "x3", "x4")
    assert raw.labels[4:] == ("z1", "z2", "z3", "z4")
    assert raw.threshold == F(3, 2)
    inst = raw.normalize()
    assert inst.profits == (F(1, 6),) * 4 + (F(2, 3),) * 4
    assert gaplab.ola_point(4, 2) == (F(3, 8),) * 4 + (F(1, 2),) * 4
    with pytest.raises(ValueError):
        gaplab.ola_point(4, 5)


def test_gen_wild_structure():
    raw = gaplab.gen_pitch3_wild()
    assert raw.n == 7
    assert raw.threshold == 41
    inst = raw.normalize()
    assert inst.q == 41
    assert inst.r == (5, 6, 11, 16, 17, 18, 21)
    gaplab._check_wild(inst)


def test_wild_inequalities_have_the_advertised_pitches():
    inst = gaplab.gen_pitch3_wild().normalize()
    for (weights, rhs), pitch in ((gaplab.WILD_PITCH3, 3),
                                  (gaplab.WILD_CG_FACET, 5)):
        cut = core.make_inequality(
            {i: F(w) for i, w in enumerate(weights) if w}, F(rhs), "user")
        assert core.compute_pitch(cut) == pitch
        assert core.is_valid(cut, inst)


def test_gen_random_is_deterministic():
    a = gaplab.gen_random(6, seed=9)
    b = gaplab.gen_random(6, seed=9)
    assert a == b
    c = gaplab.gen_random(6, seed=10)
    assert a != c
    tied = gaplab.gen_random(5, seed=9, p_equals_c=True)
    assert tied.costs == tied.profits
    assert sum(a.profits) >= 1


def test_experiment_rejects_unknown_family():
    with pytest.raises(ValueError):
        gaplab.experiment_gap_table("lemma5", [4])


def test_experiment_error_rows_capture_the_exception():
    rows = gaplab.experiment_gap_table("lemma4", [5], max_iter=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 7
    assert row.params == "eps=1/8"
    assert row.reason == "error:ValueError"
    assert row.int_opt is None and row.gap is None
    assert row.gap_decimal == ""


def test_experiment_refuses_a_float_eps_at_the_call():
    with pytest.raises(TypeError):
        gaplab.experiment_gap_table("lemma4", [4], eps=0.125)


def test_experiment_lets_a_failed_exactness_check_through(monkeypatch):
    def failing(inst):
        raise core.VerificationError("the wild facet cut is not valid")

    monkeypatch.setattr(gaplab, "_check_wild", failing)
    with pytest.raises(core.VerificationError, match="facet cut"):
        gaplab.experiment_gap_table("pitch3-wild", [])


def test_experiment_lemma4_small_table():
    rows = gaplab.experiment_gap_table("lemma4", [4, 9])
    assert [row.n for row in rows] == [6, 11]
    assert rows[0].int_opt == F(17, 8)
    assert rows[0].lp_value == F(17, 8)
    assert rows[0].gap == 1
    assert rows[0].cuts_kc == 0
    assert rows[1].int_opt == F(25, 8)
    assert rows[1].lp_value == F(21, 8)
    assert rows[1].gap == F(25, 21)
    assert all(row.reason == "certified" for row in rows)
    assert all(row.family == "lemma4" for row in rows)


def test_experiment_wild_row():
    rows = gaplab.experiment_gap_table("pitch3-wild", [])
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 7
    assert row.params == "checks=2/2"
    assert row.int_opt == 3
    assert row.lp_value == F(207, 83)
    assert row.gap == F(83, 69)
    assert row.cuts_kc == 6
    assert row.cuts_p12 == 7
    assert row.cuts_fs == 0
    assert row.reason == "certified"


def test_experiment_ola_row():
    # the default budget of 10 caps the loop on the exact round that
    # would have certified; the values are already final either way
    rows = gaplab.experiment_gap_table("ola", [4], k=2)
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 8
    assert row.params == "k=2"
    assert row.int_opt == 2
    assert row.lp_value == F(7, 4)
    assert row.gap == F(8, 7)
    assert row.reason == "max-iter"
    roomy = gaplab.experiment_gap_table("ola", [4], k=2, max_iter=40)
    assert roomy[0].reason == "certified"
    assert roomy[0].lp_value == F(7, 4)


def test_experiment_random_rows():
    rows = gaplab.experiment_gap_table("random", [3, 4], seed=5)
    assert [row.params for row in rows] == ["seed=5,p=c", "seed=6,p=c"]
    for row in rows:
        assert row.reason in ("certified", "no-cut-found", "max-iter")
        assert row.gap >= 1
        assert row.ms >= 0
    again = gaplab.experiment_gap_table("random", [3, 4], seed=5)
    assert [(r.gap, r.reason) for r in rows] == \
        [(r.gap, r.reason) for r in again]


def test_twelve_digit_rendering():
    assert gaplab._twelve_digits(F(1, 3)) == "0.333333333333"
    assert gaplab._twelve_digits(F(2)) == "2"
    assert gaplab._twelve_digits(F(83, 69)) == "1.20289855072"


def test_write_gap_table_csv():
    rows = [
        gaplab.ExperimentRow(
            family="lemma4", n=6, params="eps=1/8", int_opt=F(17, 8),
            lp_value=F(17, 8), gap=F(1), gap_decimal="1", cuts_kc=0,
            cuts_p12=3, cuts_fs=0, reason="certified", ms=12),
        gaplab.ExperimentRow(
            family="lemma4", n=7, params="eps=1/8", int_opt=None,
            lp_value=None, gap=None, gap_decimal="", cuts_kc=0, cuts_p12=0,
            cuts_fs=0, reason="error:ValueError", ms=3),
    ]
    out = io.StringIO()
    gaplab.write_gap_table(rows, out)
    assert out.getvalue() == (
        "family,n,params,int_opt,lp_value,gap,gap_decimal,"
        "cuts_kc,cuts_p12,cuts_fs,reason,ms\n"
        "lemma4,6,eps=1/8,17/8,17/8,1,1,0,3,0,certified,12\n"
        "lemma4,7,eps=1/8,,,,,0,0,0,error:ValueError,3\n"
    )
