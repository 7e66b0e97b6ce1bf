"""Command line behaviour, one subcommand at a time."""

import shutil
import subprocess
from fractions import Fraction

import pytest

from pitchcut import cutloop, gaplab, ratlp
from pitchcut.cli import cli
from pitchcut.core import VerificationError

F = Fraction

WORKED = """\
minknap 1
threshold 10
item x1 cost 2 profit 3
item x2 cost 3 profit 4
item x3 cost 5 profit 5
item x4 cost 8 profit 8
"""


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.mk"
    path.write_text(WORKED, encoding="utf-8")
    return str(path)


@pytest.fixture
def wild_file(tmp_path):
    path = tmp_path / "wild.mk"
    path.write_text(gaplab.serialize_instance(gaplab.gen_pitch3_wild()),
                    encoding="utf-8")
    return str(path)


def test_gen_writes_a_parseable_file(tmp_path, capsys):
    out = tmp_path / "lemma4.mk"
    assert cli(["gen", "--family", "lemma4", "--n", "4",
                "--out", str(out)]) == 0
    raw = gaplab.parse_instance(out.read_text(encoding="utf-8"))
    assert raw == gaplab.gen_lemma4(4)
    assert cli(["gen", "--family", "pitch3-wild"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("minknap 1\n")
    assert gaplab.parse_instance(stdout) == gaplab.gen_pitch3_wild()


def test_gen_requires_n_for_sized_families(capsys):
    assert cli(["gen", "--family", "lemma4"]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "ola.mk"
    assert cli(["gen", "--family", "ola", "--n", "4", "-o", str(out)]) == 0
    assert cli(["solve", str(out)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_solve_fptas_stays_close(worked_file, capsys):
    assert cli(["solve", worked_file]) == 0
    assert capsys.readouterr().out == "10\n"
    assert cli(["solve", worked_file, "--mode", "fptas",
                "--eps", "1/2"]) == 0
    value = F(capsys.readouterr().out.strip())
    assert 10 <= value <= 15


def test_separate_reports_the_knapsack_row_first(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1/2,2/5"])
    assert code == 3
    assert capsys.readouterr().out == \
        "3/10 x1 + 2/5 x2 + 1/2 x3 + 4/5 x4 >= 1\n"


def test_separate_pitch2_cut(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1,5/8",
                "--families", "p12"])
    assert code == 3
    assert capsys.readouterr().out == "x1 + x2 + 2 x4 >= 2\n"


def test_separate_kc_runs_before_the_pitch_oracle(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1,5/8"])
    assert code == 3
    assert capsys.readouterr().out == "3/10 x1 + 2/5 x2 + 1/2 x4 >= 1/2\n"


def test_separate_certifies_integral_points(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1,1",
                "--families", "p12"])
    assert code == 0
    assert capsys.readouterr().out == "certified 0,0,1,1\n"
    code = cli(["separate", worked_file, "--point", "0,0,1,1",
                "--families", "p12", "--mode", "approx", "--eps", "1/2"])
    assert code == 0
    assert capsys.readouterr().out == "certified 0,0,1,1\n"


def test_separate_without_a_certificate_family(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1,1",
                "--families", "kc"])
    assert code == 0
    assert capsys.readouterr().out == "no-cut-found\n"


def test_separate_fixed_support_family(worked_file, capsys):
    code = cli(["separate", worked_file, "--point", "0,0,1/2,2/5",
                "--families", "fs"])
    assert code == 3
    assert capsys.readouterr().out == "x3 + x4 >= 1\n"


def test_separate_input_validation(worked_file, capsys):
    assert cli(["separate", worked_file, "--point", "0,0,1"]) == 2
    assert cli(["separate", worked_file, "--point", "0,0,1,3/2"]) == 2
    assert cli(["separate", worked_file, "--point", "0,0,1,x"]) == 2
    assert cli(["separate", worked_file, "--point", "0,0,1,1",
                "--families", "p13"]) == 2
    capsys.readouterr()


def test_verify_wild_inequalities(wild_file, capsys):
    assert cli(["verify", wild_file, "--ineq",
                "1,0,1,1,2,1,2 >= 3"]) == 0
    assert capsys.readouterr().out == "pitch=3 valid=true\n"
    assert cli(["verify", wild_file, "--ineq",
                "1,1,2,3,4,3,4 >= 8"]) == 0
    assert capsys.readouterr().out == "pitch=5 valid=true\n"
    assert cli(["verify", wild_file, "--ineq",
                "1,0,0,0,0,0,0 >= 1"]) == 0
    assert capsys.readouterr().out == "pitch=1 valid=false\n"


def test_verify_input_validation(wild_file, capsys):
    assert cli(["verify", wild_file, "--ineq", "1,1,1 to 3"]) == 2
    assert cli(["verify", wild_file, "--ineq", "1,1,1 >= 3"]) == 2
    assert cli(["verify", wild_file, "--ineq",
                "-1,0,0,0,0,0,0 >= 1"]) == 2
    assert cli(["verify", wild_file, "--ineq",
                "1,0,1,1,2,1,2 >= 0"]) == 2
    capsys.readouterr()


def test_cutplane_closes_the_worked_instance(worked_file, tmp_path, capsys):
    report = tmp_path / "row.csv"
    code = cli(["cutplane", worked_file, "--check-cuts",
                "--report", str(report)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "int-opt 10"
    assert lines[1].startswith("lp ")
    assert lines[2].startswith("gap ")
    assert lines[3] == "reason certified"
    assert lines[4].startswith("iterations ")
    assert lines[5].startswith("cuts kc=")
    text = report.read_text(encoding="utf-8").splitlines()
    assert text[0] == gaplab.CSV_HEADER
    assert len(text) == 2
    assert "families=kc+p12" in text[1]


def test_cutplane_rejects_unknown_families(worked_file, capsys):
    assert cli(["cutplane", worked_file, "--families", "kc,p7"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_gap_table_wild(tmp_path):
    out = tmp_path / "wild.csv"
    assert cli(["gap-table", "--family", "pitch3-wild",
                "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == gaplab.CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("pitch3-wild,7,checks=2/2,3,207/83,83/69,")


def test_gap_table_requires_n_list(capsys):
    assert cli(["gap-table", "--family", "lemma4"]) == 2
    assert "--n-list is required" in capsys.readouterr().err


def test_gap_table_truncated_run(capsys):
    assert cli(["gap-table", "--family", "lemma4", "--n-list", "4",
                "--max-iter", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("lemma4,6,eps=1/8,17/8,17/8,1,1,")
    assert "max-iter" in lines[1]


def test_gap_table_rejects_bad_n_list(capsys):
    assert cli(["gap-table", "--family", "lemma4", "--n-list", "4,x"]) == 2
    capsys.readouterr()


def test_dp_budget_exhaustion_is_exit_4(worked_file, capsys):
    assert cli(["--dp-budget", "10", "solve", worked_file]) == 4
    assert capsys.readouterr().err.startswith("error: DP table needs")


def test_failed_exactness_checks_are_exit_5(worked_file, monkeypatch,
                                           capsys):
    with monkeypatch.context() as patch:
        # a cut pool check that rejects every cut
        patch.setattr(cutloop, "is_valid", lambda *args, **kwargs: False)
        assert cli(["cutplane", worked_file, "--check-cuts"]) == 5
    assert "invalid cut" in capsys.readouterr().err
    with monkeypatch.context() as patch:
        # duals that no longer certify the optimum
        patch.setattr(ratlp._Tableau, "duals", lambda self: [F(0)] * self.m)
        assert cli(["cutplane", worked_file]) == 5
    assert "LP certificate failed" in capsys.readouterr().err
    with monkeypatch.context() as patch:
        # a witness check of the gap-table experiments
        def failing(inst):
            raise VerificationError("the wild facet cut is not valid")

        patch.setattr(gaplab, "_check_wild", failing)
        assert cli(["gap-table", "--family", "pitch3-wild"]) == 5
    captured = capsys.readouterr()
    assert "facet cut" in captured.err and captured.out == ""


def test_parse_errors_are_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mk"
    bad.write_text("minknap 1\nthreshold 0\nitem a cost 1 profit 1\n",
                   encoding="utf-8")
    # threshold 0 passes the parser and fails normalisation
    assert cli(["solve", str(bad)]) == 2
    worse = tmp_path / "worse.mk"
    worse.write_text("minknap 3\n", encoding="utf-8")
    assert cli(["solve", str(worse)]) == 2
    assert cli(["solve", str(tmp_path / "missing.mk")]) == 2
    capsys.readouterr()


def test_infeasible_instance_is_exit_2(tmp_path, capsys):
    thin = tmp_path / "thin.mk"
    thin.write_text("minknap 1\nthreshold 10\nitem a cost 1 profit 1\n",
                    encoding="utf-8")
    assert cli(["solve", str(thin)]) == 2
    assert "below the threshold" in capsys.readouterr().err


def test_argparse_exits_pass_through(capsys):
    assert cli(["frobnicate"]) == 2
    assert cli(["--help"]) == 0
    capsys.readouterr()


def test_a_rejected_call_leaves_the_next_call_unchanged(worked_file, capsys):
    # one parser serves every call; options that argparse took before it
    # rejected a call must not reach the next call
    valid = ["separate", worked_file, "--point", "0,0,0,1"]
    alone = cli(valid), capsys.readouterr()
    rejected = ["separate", worked_file, "--point", "1,1,1,1",
                "--families", "kc", "--mode", "approx", "--eps", "0"]
    assert cli(rejected) == 2
    assert "--eps" in capsys.readouterr().err
    assert (cli(valid), capsys.readouterr()) == alone


def test_installed_entry_point():
    exe = shutil.which("pitchcut")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "gen", "--family", "pitch3-wild"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("minknap 1\n")
