import json
import math
import subprocess
import sys

import numpy as np
import pytest

from vvps.cli import config_from_args, emit_threshold_table, main, run
from vvps.modgroup import GroupSpec, S, T, enumerate_cosets, right_coset_reps
from vvps.multiplier import MultiplierSystem
from vvps.rep import evaluate_rho, induce, spectral_split, st_rep, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import build_series


def invoke(argv):
    proc = subprocess.run([sys.executable, "-m", "vvps.cli", *argv],
                          capture_output=True, text=True)
    return proc


class TestEval:
    def test_matches_library_bit_for_bit(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run(config_from_args([
            "eval", "--group", "gamma0", "--level", "5", "--k", "12",
            "--seed", "classical", "--nu", "0", "--tau", "0.3,1.1",
            "--height", "60", "--out", str(out)]))
        assert code == 0
        data = json.loads(out.read_text())

        ms = MultiplierSystem("trivial_even", 12.0)
        rep = trivial_rep(1, GroupSpec.gamma0(5))
        split = spectral_split(rep, ms, 1)
        seed = ClassicalSeed(0, 1, split, 1)
        h = build_series(seed, GroupSpec.gamma_infinity(1), GroupSpec.gamma0(5),
                         rep, ms, 12.0, 60.0)
        value, tail = h.evaluate(complex(0.3, 1.1))
        assert data["value"] == [[value[0].real, value[0].imag]]
        assert data["tail"] == tail
        assert data["height"] == 60.0

    def test_determinism(self, tmp_path):
        args = ["eval", "--group", "gamma0", "--level", "2", "--k", "12",
                "--seed", "elliptic", "--nu", "1", "--xi", "0,1",
                "--tau", "0.25,1.3", "--height", "20"]
        one = invoke(args + ["--out", str(tmp_path / "a.json")])
        two = invoke(args + ["--out", str(tmp_path / "b.json")])
        assert one.returncode == 0 and two.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_refusal_exit_code(self):
        proc = invoke(["eval", "--k", "12", "--seed", "classical",
                       "--tau", "0.3,0.001", "--height", "20"])
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "refusal"

    def test_invalid_config_exit_code(self):
        proc = invoke(["eval", "--group", "gamma0", "--k", "12",
                       "--seed", "classical", "--tau", "0.3,1.1"])
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "invalid_config"

    def test_bad_weight_is_config_error(self):
        proc = invoke(["eval", "--k", "1.0", "--seed", "classical",
                       "--family", "eta", "--tau", "0.3,1.1", "--height", "10"])
        assert proc.returncode == 2

    def test_negative_first_part_with_equals_form(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run(config_from_args([
            "eval", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
            "--nu", "1", "--xi=-0.5,1", "--tau=-0.2,0.2", "--height", "20",
            "--out", str(out)]))
        assert code == 0
        data = json.loads(out.read_text())

        group = GroupSpec.gamma0(2)
        seed = EllipticSeed(1, complex(-0.5, 1.0), np.array([1.0 + 0j]), 12.0)
        h = build_series(seed, GroupSpec.plus_minus_identity(), group,
                         trivial_rep(1, group), MultiplierSystem("trivial_even", 12.0),
                         12.0, 20.0)
        value, tail = h.evaluate(complex(-0.2, 0.2))
        assert data["tau"] == [-0.2, 0.2]
        assert data["value"] == [[value[0].real, value[0].imag]]
        assert data["tail"] == tail

    @pytest.mark.parametrize("argv", [
        ["eval", "--tau=nan,1"],
        ["eval", "--tau=0.3,inf"],
        ["eval", "--tau", "0.3,1.1", "--height", "inf"],
        ["eval", "--seed", "elliptic", "--xi=0,nan", "--tau", "0.3,1.1"],
        ["eval", "--k", "nan", "--tau", "0.3,1.1"],
        ["pair", "--ymax", "inf"],
        ["fourier", "--y0", "nan"],
        ["criterion", "classical", "--k", "nan", "--N", "5"],
        ["criterion", "regionC", "--k", "12", "--N", "2", "--r", "-inf"],
        ["table", "--k-list", "12,nan", "--n-list", "5", "--nu-max", "1"],
    ])
    def test_non_finite_input_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--seed", "elliptic", "--j", "0", "--tau", "0.3,1.1", "--height", "10"],
         "index j=0 out of range 1..1"),
        (["eval", "--seed", "elliptic", "--j", "2", "--tau", "0.3,1.1", "--height", "10"],
         "index j=2 out of range 1..1"),
        (["eval", "--tau", "0.3,1.1", "--height=-5"], "height"),
        (["cosets", "--height=-3"], "height"),
        (["fourier", "--height", "10", "--nx-fourier", "0"], "nx"),
        (["fourier", "--height", "10", "--nx-fourier=-4"], "nx"),
        (["criterion", "classical", "--k", "12", "--N", "5", "--M", "0"], "M >= 1"),
        (["criterion", "classical", "--k", "12", "--N", "0"], "N >= 1"),
        (["criterion", "classical", "--k", "12", "--N=-5"], "N >= 1"),
        (["criterion", "classical", "--k", "12", "--N", "5", "--nu=-3"], "nu >= 0"),
        (["table", "--k-list", "12", "--n-list", "0", "--nu-max", "0"], "N >= 1"),
        (["criterion", "elliptic", "--k", "12", "--N", "5", "--nu=-1"], "nu >= 0"),
        (["criterion", "regionC", "--k", "12", "--N", "5", "--nu=-1"], "nu >= 0"),
        (["criterion", "regionC", "--k", "12", "--N", "5", "--nu=-1", "--r", "0.2"], "nu >= 0"),
        (["fourier", "--height", "10", "--n0", "5", "--n1", "2"], "--n0 <= --n1"),
        (["pair", "--group", "gamma0", "--level", "2", "--seed", "elliptic", "--xi", "0,20",
          "--height", "20", "--ymax", "14", "--nx", "32", "--ny", "16", "--xmax", "8"],
         "no disk about xi"),
    ])
    def test_out_of_range_input_is_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "invalid_config" and message in err["message"]

    @pytest.mark.parametrize("argv", [
        ["fourier", "--height", "10", "--y0", "200"],
        ["criterion", "regionA", "--k", "400", "--N", "5"],
    ])
    def test_overflow_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "refusal"

    def test_zero_dimension_is_config_error(self):
        # --p 0 used to be read as p = 1
        proc = invoke(["eval", "--p", "0", "--tau", "0.3,1.1", "--height", "10"])
        assert proc.returncode == 2


class TestCriterion:
    def test_classical(self):
        proc = invoke(["criterion", "classical", "--k", "12", "--N", "5",
                       "--nu", "2", "--m", "1"])
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["satisfied"] is True
        assert data["margin"] == pytest.approx(35.0 / (3 * math.pi) - 3.0)

    def test_region_c_auto_radius(self):
        proc = invoke(["criterion", "regionC", "--k", "12", "--N", "2", "--nu", "0"])
        data = json.loads(proc.stdout)
        assert data["satisfied"] is True

    def test_region_a(self):
        proc = invoke(["criterion", "regionA", "--k", "12", "--N", "5", "--nu", "2"])
        data = json.loads(proc.stdout)
        assert data["satisfied"] is True


class TestTable:
    def test_single_cell(self):
        proc = invoke(["table", "--k-list", "12", "--n-list", "5", "--nu-max", "2"])
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "k,N,nu,classical_margin,elliptic_margin,sharp_classical"
        row = lines[-1].split(",")
        assert float(row[3]) == pytest.approx(35.0 / (3 * math.pi) - 3.0)

    def test_margins_monotone_along_nu(self):
        csv = emit_threshold_table([12.0], [5], [0, 1, 2, 3])
        margins = [float(line.split(",")[3]) for line in csv.strip().splitlines()[1:]]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_empty_range_rejected(self):
        proc = invoke(["table", "--k-list", "", "--n-list", "5", "--nu-max", "2"])
        assert proc.returncode == 2


class TestOtherCommands:
    def test_selftest(self):
        proc = invoke(["selftest"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["selftest"] == "pass"

    @pytest.mark.parametrize("argv", [
        ["eval", "--format", "csv", "--tau", "0.3,1.1"],
        ["cosets", "--k", "7"],
        ["cosets", "--family", "eta", "--p", "3", "--rep", "trivial"],
        ["induce", "--k", "7"],
        ["table", "--rng-seed", "3"],
    ])
    def test_options_a_job_does_not_read_are_refused(self, argv):
        proc = invoke(argv)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    def test_cosets_round_trip(self, tmp_path):
        out = tmp_path / "cosets.json"
        proc = invoke(["cosets", "--group", "gamma0", "--level", "2",
                       "--height", "10", "--out", str(out)])
        assert proc.returncode == 0
        reps = json.loads(out.read_text())["reps"]
        direct = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.gamma0(2), 10.0)
        assert reps == [list(g.entries()) for g in direct.reps]

    def test_induce_artifact(self, tmp_path):
        out = tmp_path / "rho0.json"
        proc = invoke(["induce", "--group", "gamma0", "--level", "2",
                       "--out", str(out)])
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["p"] == 3
        s_mat = np.array([[complex(re, im) for re, im in row]
                          for row in data["matrices"]["S"]])
        assert np.linalg.norm(s_mat @ s_mat.conj().T - np.eye(3)) <= 1e-12

    def test_induce_then_eval_round_trip(self, tmp_path):
        rho_file = tmp_path / "rho0.json"
        proc = invoke(["induce", "--group", "gamma0", "--level", "2",
                       "--out", str(rho_file)])
        assert proc.returncode == 0
        out = tmp_path / "eval.json"
        proc = invoke(["eval", "--rep", str(rho_file), "--k", "12",
                       "--seed", "classical", "--j", "2", "--tau", "0.3,1.1",
                       "--height", "20", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())

        rho0 = induce(trivial_rep(1, GroupSpec.gamma0(2)),
                      right_coset_reps(GroupSpec.gamma0(2)))
        rep = st_rep(evaluate_rho(rho0, S), evaluate_rho(rho0, T))
        ms = MultiplierSystem("trivial_even", 12.0)
        split = spectral_split(rep, ms, 1)
        h = build_series(ClassicalSeed(0, 2, split, 1), GroupSpec.gamma_infinity(1),
                         GroupSpec.sl2z(), rep, ms, 12.0, 20.0)
        value, tail = h.evaluate(complex(0.3, 1.1))
        assert data["value"] == [[z.real, z.imag] for z in value]
        assert data["tail"] == tail

    @pytest.mark.parametrize("broken", [
        {"recipe": "st_generated", "p": 1},
        {"recipe": "st_generated", "p": 1, "group": {"kind": "SL2Z"},
         "matrices": {"S": [[1.0, 0.0]], "T": [[[1.0, 0.0]]]}},
    ])
    def test_malformed_rep_file_is_config_error(self, tmp_path, broken):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(json.dumps(broken))
        proc = invoke(["eval", "--rep", str(rho_file), "--k", "12",
                       "--seed", "classical", "--tau", "0.3,1.1", "--height", "10"])
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["type"] == "invalid_config"

    def test_fourier_csv(self, tmp_path):
        out = tmp_path / "fourier.csv"
        proc = invoke(["fourier", "--group", "gamma0", "--level", "2", "--k", "12",
                       "--seed", "classical", "--height", "30", "--n0", "0",
                       "--n1", "1", "--format", "csv", "--out", str(out)])
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,n,re,im" and len(lines) == 3

    def test_pair_smoke(self, tmp_path):
        out = tmp_path / "pair.json"
        proc = invoke(["pair", "--group", "gamma0", "--level", "2", "--k", "12",
                       "--seed", "classical", "--height", "40", "--ymin", "0.05",
                       "--ymax", "8", "--nx", "24", "--ny", "20", "--out", str(out)])
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["rel_err"] < 1e-2
