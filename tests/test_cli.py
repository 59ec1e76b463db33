import json
import subprocess
import sys

import pytest

from srdtree import Status, digest
from srdtree.cli import main
from srdtree.report import SolveReport

BROOM_TEXT = """\
tif v1
n 3
root s
edge 1 s v1 1 3 1
edge 2 v1 t1 1 2 2
edge 3 v1 t2 1 5 1
"""


def kv(out):
    return dict(line.split(" ", 1) for line in out.strip().splitlines())


@pytest.fixture
def broom_file(tmp_path):
    path = tmp_path / "broom.tif"
    path.write_text(BROOM_TEXT)
    return str(path)


class TestSolve:
    def test_demand_min_bottleneck(self, broom_file, capsys):
        rc = main(["solve", "--problem", "mcsdipt", "--norm", "bh",
                   "--instance", broom_file, "--d", "9"])
        out = kv(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "Feasible"
        assert out["cost"] == "1.0"
        assert out["modified_edges"] == "1,3"
        assert out["instance_digest"] == digest(BROOM_TEXT)

    def test_infeasible_exit_code(self, broom_file, capsys):
        rc = main(["solve", "--problem", "mcsdipt", "--norm", "linf",
                   "--instance", broom_file, "--d", "100"])
        out = kv(capsys.readouterr().out)
        assert rc == 2
        assert out["status"] == "Infeasible"
        assert out["cost"] == "inf"
        assert out["modified_edges"] == ""

    def test_missing_param(self, broom_file, capsys):
        rc = main(["solve", "--problem", "sdipt", "--norm", "linf",
                   "--instance", broom_file])
        err = capsys.readouterr().err
        assert rc == 1
        assert "needs parameter K" in err

    def test_file_param_and_flag_override(self, tmp_path, capsys):
        path = tmp_path / "b.tif"
        path.write_text(BROOM_TEXT + "param D 9\n")
        rc = main(["solve", "--problem", "mcsdipt", "--norm", "bh",
                   "--instance", str(path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["solve", "--problem", "mcsdipt", "--norm", "bh",
                   "--instance", str(path), "--d", "9999"])
        assert rc == 2

    def test_json_output(self, broom_file, capsys):
        rc = main(["solve", "--problem", "sdiptc", "--norm", "linf",
                   "--instance", broom_file, "--k", "2", "--n", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["status"] == "Feasible"
        assert payload["objective"] == 8.0
        assert payload["modified_edges"] == [1]

    def test_json_infeasible_uses_null(self, broom_file, capsys):
        main(["solve", "--problem", "mcsdipt", "--norm", "linf",
              "--instance", broom_file, "--d", "100", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] is None
        assert payload["cost"] is None

    @pytest.mark.parametrize("argv, expected", [
        (["--problem", "mcsdipt", "--norm", "bh", "--d", "9"], 2),
        (["--problem", "mcsdiptc", "--norm", "bh", "--d", "9", "--n", "1"], None),
        (["--problem", "mcsdipt", "--norm", "linf", "--d", "4"], None),
        (["--problem", "sdiptc", "--norm", "linf", "--k", "2", "--n", "1"], None),
    ], ids=["feasible", "infeasible", "already-satisfied", "budget"])
    def test_breakpoint_follows_iterations(self, broom_file, capsys, argv, expected):
        main(["solve", "--instance", broom_file, "--json"] + argv)
        assert json.loads(capsys.readouterr().out)["breakpoint"] == expected
        main(["solve", "--instance", broom_file] + argv)
        lines = capsys.readouterr().out.splitlines()
        at = lines.index(f"breakpoint {expected}")
        assert lines[at - 1].startswith("iterations ")

    def test_missing_file(self, capsys):
        rc = main(["solve", "--problem", "sdipt", "--norm", "linf",
                   "--instance", "no/such/file.tif", "--k", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_instance_text(self, tmp_path, capsys):
        path = tmp_path / "bad.tif"
        path.write_text("tif v1\nn 1\nroot s\nedge 1 s a 3 2 1\n")
        rc = main(["solve", "--problem", "sdipt", "--norm", "linf",
                   "--instance", str(path), "--k", "1"])
        assert rc == 1
        assert "line 4" in capsys.readouterr().err

    def test_runs_as_module(self, broom_file):
        proc = subprocess.run(
            [sys.executable, "-m", "srdtree", "solve", "--problem", "sdipt",
             "--norm", "bh", "--instance", broom_file, "--k", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "objective 12.0" in proc.stdout


class TestGen:
    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "inst.tif"
        rc = main(["gen", "--nodes", "6", "--seed", "5",
                   "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        text = out_path.read_text()
        assert text.startswith("tif v1\n")
        assert f"digest {digest(text)}" in out

    def test_stdout_with_digest_on_stderr(self, capsys):
        rc = main(["gen", "--nodes", "6", "--seed", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("tif v1\n")
        assert captured.err.strip() == f"digest {digest(captured.out)}"

    def test_deterministic(self, capsys):
        main(["gen", "--nodes", "12", "--seed", "77", "--shape", "caterpillar"])
        first = capsys.readouterr().out
        main(["gen", "--nodes", "12", "--seed", "77", "--shape", "caterpillar"])
        assert capsys.readouterr().out == first


class TestVerify:
    def test_small_campaign_passes(self, capsys):
        rc = main(["verify", "--trials", "20", "--max-n", "7", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "8/8 problems, 160/160 agree" in out
        assert out.count("pair ") == 8

    def test_single_pair(self, capsys):
        rc = main(["verify", "--trials", "10", "--max-n", "6", "--seed", "1",
                   "--problem", "mcsdiptc", "--norm", "bh"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/1 problems, 10/10 agree" in out

    def test_zero_trials(self, capsys):
        rc = main(["verify", "--trials", "0", "--max-n", "5", "--seed", "0"])
        assert rc == 0
        assert "0/0 agree" in capsys.readouterr().out

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_max_n_below_two_is_refused(self, max_n, capsys):
        rc = main(["verify", "--trials", "3", "--max-n", max_n, "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: --max-n {max_n} is below 2, the fewest edges a trial draws\n"

    def test_catches_a_broken_solver(self, tmp_path, monkeypatch, capsys):
        # broken budget solver: spends nothing, misses the grid value
        from srdtree import cli

        def lazy(tree, attrs, budget):
            total = sum(attrs.w[e] for e in tree.edge_ids)
            return SolveReport(Status.FEASIBLE, dict(attrs.w), total, 0,
                               frozenset())

        monkeypatch.setattr(cli.linf, "sdipt_inf", lazy)
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--trials", "5", "--max-n", "6", "--seed", "2",
                   "--problem", "sdipt", "--norm", "linf"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch sdipt linf" in out
        assert (tmp_path / "verify_mismatch_sdipt_linf.tif").exists()


class TestBench:
    def test_csv_shape(self, capsys):
        rc = main(["bench", "--sizes", "40,80", "--reps", "2", "--seed", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0].startswith("#")
        assert lines[1] == "problem,norm,n,reps,t_mean,t_max,t_min"
        rows = lines[2:]
        assert len(rows) == 16
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 7
            assert int(fields[2]) in (40, 80)
            assert float(fields[4]) >= 0.0
            assert float(fields[5]) >= float(fields[6])

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_is_refused(self, reps, capsys):
        rc = main(["bench", "--sizes", "40", "--reps", reps])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: --reps {reps} is below 1, so there is nothing to time\n"
