import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import classical_handle, elliptic_handle, induced_trivial, legendre_mod5
from vvps import cli, modgroup, series
from vvps.cli import emit_threshold_table, main, parse_args, run
from vvps.modgroup import GroupSpec, S, T, enumerate_cosets
from vvps.multiplier import MultiplierSystem
from vvps.nonvanish import beta_median, classical_criterion, elliptic_criterion, gamma_median
from vvps.rep import evaluate_rho, spectral_split, st_rep
from vvps.seeds import ClassicalSeed
from vvps.series import slash


def invoke(argv):
    proc = subprocess.run([sys.executable, "-m", "vvps.cli", *argv],
                          capture_output=True, text=True)
    return proc


def _not_json(constant):
    """json.loads' parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"{constant} is not JSON")


def legendre5(tmp_path):
    """A rep file of the Legendre character mod 5, a representation of Gamma0(5)."""
    rho_file = tmp_path / "legendre5.json"
    rho_file.write_text(json.dumps(legendre_mod5().to_json()))
    return rho_file


class TestEval:
    def test_matches_library_bit_for_bit(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run(parse_args([
            "eval", "--group", "gamma0", "--level", "5", "--k", "12",
            "--seed", "classical", "--nu", "0", "--tau", "0.3,1.1",
            "--height", "60", "--out", str(out)]))
        assert code == 0
        data = json.loads(out.read_text())

        h = classical_handle(GroupSpec.gamma0(5), height=60.0)
        value, tail = h.evaluate(complex(0.3, 1.1))
        assert data["value"] == [[value[0].real, value[0].imag]]
        assert data["tail"] == tail
        assert data["height"] == 60.0

    def test_tied_exponents_keep_component_order(self, tmp_path):
        # all m_j tie at 1 for the trivial rho: --j counts the components
        # of the seed in the order the spectral split keeps them
        out = tmp_path / "eval.json"
        for j in (1, 2, 3):
            code = run(parse_args([
                "eval", "--rep", "trivial", "--p", "3", "--j", str(j),
                "--tau", "0.3,1.1", "--height", "20", "--out", str(out)]))
            assert code == 0
            value = json.loads(out.read_text())["value"]
            assert [i + 1 for i, z in enumerate(value) if z != [0.0, 0.0]] == [j]

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
        code = run(parse_args([
            "eval", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
            "--nu", "1", "--xi=-0.5,1", "--tau=-0.2,0.2", "--height", "20",
            "--out", str(out)]))
        assert code == 0
        data = json.loads(out.read_text())

        h = elliptic_handle(GroupSpec.gamma0(2), complex(-0.5, 1.0), 1, height=20.0)
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
        # options that the chosen configuration never reads
        (["cosets", "--stabiliser", "pmi", "--width", "3"], "--width"),
        (["pair", "--height", "10", "--xmax", "0.1"], "--xmax"),
        (["eval", "--tau", "0.3,1.1", "--height", "10", "--xi", "0.5,3"], "--xi"),
        (["pair", "--height", "10", "--xi", "0.5,3"], "--xi"),
        (["fourier", "--height", "10", "--xi", "0,1"], "--xi"),
        (["eval", "--group", "sl2z", "--level", "7", "--tau", "0.3,1.1", "--height", "10"],
         "--level"),
        (["cosets", "--group", "sl2z", "--level", "7", "--height", "3"], "--level"),
        (["induce", "--level", "7"], "--level"),
        (["criterion", "elliptic", "--k", "12", "--N", "5", "--M", "3"], "--M"),
        (["criterion", "elliptic", "--k", "12", "--N", "5", "--m", "0.25"], "--m"),
        (["criterion", "regionA", "--k", "12", "--N", "5", "--M", "2"], "--M"),
        (["criterion", "regionC", "--k", "12", "--N", "2", "--m", "0.5"], "--m"),
        (["criterion", "classical", "--k", "12", "--N", "5", "--r", "0.3"], "--r"),
        (["criterion", "elliptic", "--k", "12", "--N", "5", "--r", "0.1"], "--r"),
        (["criterion", "regionA", "--k", "12", "--N", "5", "--r", "0.1"], "--r"),
        # one text per seed family, whichever criterion refuses
        (["criterion", "regionC", "--k", "2", "--N", "5", "--r", "0.3"],
         "criterion requires weight k > 2"),
        (["criterion", "regionC", "--k", "12", "--N", "1", "--r", "0.3"],
         "the elliptic criterion assumes level N >= 2"),
        (["criterion", "regionA", "--k", "2", "--N", "5"], "criterion requires weight k > 2"),
        (["criterion", "regionA", "--k", "12", "--N", "5", "--nu=-1"], "need nu >= 0, got -1"),
        (["criterion", "regionA", "--k", "12", "--N", "0"],
         "need M >= 1 and N >= 1, got M=1, N=0"),
        # the group's name is checked before its level
        (["eval", "--group", "foo", "--tau", "0.3,1.1"], "unknown group 'foo'"),
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
        # the region A scale M Gamma(s) / alpha^s itself beyond the float
        # range (k = 400 is finite in log space; see test_region_a_large_weight)
        ["criterion", "regionA", "--k", "1000", "--N", "5"],
        # cosh(4r) is inf, so the separation margin was -inf in the artifact
        ["criterion", "regionC", "--k", "12", "--N", "2", "--r", "1e308"],
    ])
    def test_overflow_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "refusal"

    @pytest.mark.parametrize("argv, message", [
        (["--k", "300", "--ymin", "1"], "overflows the float range at k=300.0"),
        (["--k", "400"], "the weight y^398 on [0.05, 8.0] overflows"),
        (["--k", "400", "--seed", "elliptic"], "the weight y^400 on [0.05, 8.0] overflows"),
        (["--k", "400", "--seed", "elliptic", "--xi", "0,3", "--ymin", "1"],
         "the weight y^400 on [1.0, 8.0] overflows"),
    ], ids=["closed-form", "strip-inf", "strip-nan", "weights-inf"])
    def test_pairing_overflow_is_refused(self, argv, message, capsys):
        # an overflow in the closed form, where the strip is finite, and
        # infinite weights; in process, under the suite's error::RuntimeWarning
        # filter, so a numpy warning about the non-finite terms fails the test
        with pytest.raises(SystemExit) as exc:
            main(["pair", *argv, "--height", "10", "--ymax", "8", "--nx", "16", "--ny", "16"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "refusal" and message in error["message"]

    def test_elliptic_coefficient_overflow_is_refused_without_warnings(self):
        # (tau - conj(xi))^600 passes the float range on the coefficient's
        # circle; numpy wrote two RuntimeWarnings before the refusal
        proc = invoke(["pair", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
                       "--k", "600", "--ymax", "2", "--height", "10", "--nx", "16", "--ny", "16"])
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "refusal"

    @pytest.mark.parametrize("nu", [166, 171])
    def test_elliptic_closed_form_past_nu_factorial(self, nu, capsys):
        # at nu = 166 the closed form read 0.0 and rel_err Infinity, which
        # is not JSON; at nu = 171 the job exited 3 with "int too large to
        # convert to float"
        argv = ["pair", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
                "--nu", str(nu), "--height", "10", "--ymax", "6", "--nx", "16", "--ny", "16"]
        assert run(parse_args(argv)) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=_not_json)
        assert abs(complex(*data["closed_form"])) > 0.0

    @pytest.mark.parametrize("closed", [0j, complex(math.inf, 0.0), complex(math.nan, 0.0)],
                             ids=["zero", "inf", "nan"])
    def test_pair_refuses_a_closed_form_without_relative_error(self, closed, monkeypatch,
                                                               capsys):
        # a closed form of 0 wrote rel_err Infinity, and one of inf or nan NaN
        monkeypatch.setattr(cli, "elliptic_pairing_closed_form", lambda *args: closed)
        argv = ["pair", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
                "--height", "10", "--nx", "16", "--ny", "16"]
        assert run(parse_args(argv)) == 3
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert captured.out == "" and error["type"] == "refusal"
        assert "the relative error against it is undefined" in error["message"]

    def test_closed_form_past_gamma_171(self, capsys):
        # gamma(179) overflows, the pairing b Gamma(179) / (4 pi)^179 does
        # not; this job exited 3 with "math range error"
        mpmath = pytest.importorskip("mpmath")
        assert run(parse_args(["pair", "--k", "180", "--height", "10", "--ymax", "8",
                               "--nx", "16", "--ny", "16"])) == 0
        data = json.loads(capsys.readouterr().out)
        with mpmath.workdps(40):
            ref = (mpmath.mpc(*data["coefficient"]) * mpmath.gamma(179)
                   / mpmath.mpf(4.0 * math.pi) ** 179)
            assert abs(mpmath.mpc(*data["closed_form"]) - ref) / abs(ref) <= 6.5e-13

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

    def test_median_beyond_the_measured_domain_refused(self, capsys):
        # printed gamma_median 99998.99999999504, the top of its bracket
        # (scipy: 99998.6666668642)
        assert run(parse_args(["criterion", "classical", "--k", "200000", "--N", "5"])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a = 99999.0" in json.loads(captured.err)["error"]["message"]

    def test_region_c_auto_radius(self):
        proc = invoke(["criterion", "regionC", "--k", "12", "--N", "2", "--nu", "0"])
        data = json.loads(proc.stdout)
        assert data["satisfied"] is True

    def test_region_a(self, capsys):
        # m_j is the kappa of the weight's multiplier, 1 where kappa = 0;
        # kappa = 7.31/12 is no r/n with n <= 360, which region A never needed
        for k, m_j, satisfied in (("12", 1.0, True), ("7.5", 0.625, False),
                                  ("13", 1.0 / 12.0, True), ("7.31", 7.31 / 12.0, False)):
            argv = ["criterion", "regionA", "--k", k, "--N", "5", "--nu", "2"]
            assert run(parse_args(argv)) == 0, k
            data = json.loads(capsys.readouterr().out)
            assert data["inputs"]["m_j"] == m_j, k
            assert data["satisfied"] is satisfied, k

    def test_region_a_large_weight(self):
        proc = invoke(["criterion", "regionA", "--k", "400", "--N", "5"])
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert math.isfinite(data["details"]["above_cut"])


    def test_region_c_without_radius_is_the_elliptic_margin(self, capsys):
        # find_radius(4, 0, 2) is None: the artifact reports the elliptic margin
        assert run(parse_args(
            ["criterion", "regionC", "--k", "4", "--N", "2", "--nu", "0"])) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"criterion": "regionC", "satisfied": False,
                        "margin": elliptic_criterion(4.0, 2, 0).margin,
                        "inputs": {"k": 4.0, "nu": 0, "N": 2, "r": None},
                        "details": {"note": "no feasible radius"}}


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

    def test_fields_are_the_criteria_report_fields(self):
        # k <= 8/3 has no sharp margin and N = 1 no elliptic margin
        ks, levels, nus = [2.05, 2.5, 4.0, 12.5, 1000.0], [1, 2, 13], list(range(9))
        seen = set()
        for M in (1, 2):
            for m_j in (0.5, 1.0):
                lines = emit_threshold_table(ks, levels, nus, m_j=m_j, M=M).splitlines()
                cells = [(k, n, nu) for k in ks for n in levels for nu in nus]
                assert len(lines) == 1 + len(cells)
                for line, (k, n, nu) in zip(lines[1:], cells):
                    cl = classical_criterion(k, M, n, nu, m_j)
                    el = elliptic_criterion(k, n, nu).margin if n >= 2 else math.nan
                    fields = line.split(",")
                    assert fields == [repr(k), str(n), str(nu), repr(cl.margin), repr(el),
                                      repr(cl.details.get("sharp_margin"))], line
                    seen.update(fields[4:])
        assert {"nan", "None"} <= seen

    def test_medians_are_asked_once_per_shape(self):
        # gamma_median(k/2 - 1) depends on k only, and M_B on (k, nu) only
        def calls(fn):
            info = fn.cache_info()
            return info.hits + info.misses
        before = calls(gamma_median), calls(beta_median)
        emit_threshold_table([3.0, 4.0, 6.5, 12.0, 20.5, 40.0], [2, 3, 5, 7, 11],
                             list(range(9)))
        assert calls(gamma_median) - before[0] == 6
        assert calls(beta_median) - before[1] == 54

    @pytest.mark.parametrize("argv, cls, message", [
        (["--k-list", "2"], "DomainError", "criterion requires weight k > 2"),
        (["--m", "0"], "ValueError", "m_j must lie in ]0, 1]"),
        (["--m", "1.5"], "ValueError", "m_j must lie in ]0, 1]"),
        (["--M", "0", "--n-list", "5"], "ValueError", "need M >= 1 and N >= 1, got M=0, N=5"),
        (["--k-list", "12,2", "--n-list", "0"], "ValueError",
         "need M >= 1 and N >= 1, got M=1, N=0"),
    ], ids=["weight", "m-zero", "m-above-one", "M-zero", "first-failing-row"])
    def test_refusals_keep_their_text(self, argv, cls, message, capsys):
        # the refusal is the one of the first row that fails, in row order
        assert run(parse_args(["table", *argv])) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "invalid_config", "class": cls, "message": message}


class TestOtherCommands:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_selftest(self, seed, capsys):
        # in-process: its checks sample matrices and points by --rng-seed
        assert run(parse_args(["selftest", "--rng-seed", str(seed)])) == 0
        assert json.loads(capsys.readouterr().out)["selftest"] == "pass"

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

    def test_index_beyond_the_bound_is_a_refusal(self, monkeypatch, capsys):
        # induce --group gammanpm --level 70, of index ~121k, meets the
        # real bound
        monkeypatch.setattr(modgroup, "_MAX_INDEX", 10)
        assert run(parse_args(["induce", "--group", "gamma0", "--level", "11"])) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "refusal" and "more than 10 right cosets" in err["message"]

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

        rho0 = induced_trivial(2)
        rep = st_rep(evaluate_rho(rho0, S), evaluate_rho(rho0, T))
        h = classical_handle(GroupSpec.sl2z(), height=20.0, rep=rep, j=2)
        value, tail = h.evaluate(complex(0.3, 1.1))
        assert data["value"] == [[z.real, z.imag] for z in value]
        assert data["tail"] == tail

    def test_induced_eval_matches_word_walk_oracle(self, tmp_path):
        rho_file = tmp_path / "rho.json"
        proc = invoke(["induce", "--group", "gamma0", "--level", "5", "--out", str(rho_file)])
        assert proc.returncode == 0, proc.stderr
        args = ["eval", "--rep", str(rho_file), "--k", "12", "--seed", "classical",
                "--j", "3", "--tau=-0.2,0.9", "--height", "30"]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            proc = invoke(args + ["--out", str(out)])
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()
        value = np.array([complex(re, im) for re, im in json.loads(outs[0].read_text())["value"]])

        # one slashed, twisted seed per coset, rho(g) along its S/T word
        rep = induced_trivial(5)
        ms = MultiplierSystem("trivial_even", 12.0)
        seed = ClassicalSeed(0, 3, spectral_split(rep, ms, 1), 1)
        tau = complex(-0.2, 0.9)
        terms = [evaluate_rho(rep, g).conj().T @ slash(seed, [g], [tau], ms)[0, 0] for g in
                 enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 30.0).reps]
        oracle = np.array([complex(math.fsum(t.real for t in col), math.fsum(t.imag for t in col))
                           for col in zip(*terms)])
        assert np.linalg.norm(value - oracle) <= 1e-14 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("command", [
        ["eval", "--k", "12", "--seed", "classical", "--tau", "0.3,1.1", "--height", "10"],
        ["induce"],
    ])
    def test_dimension_with_rep_file_is_refused(self, tmp_path, command):
        # a rep file carries its own dimension; --p sets that of --rep trivial
        rho_file = tmp_path / "rho.json"
        proc = invoke(["induce", "--group", "gamma0", "--level", "2", "--out", str(rho_file)])
        assert proc.returncode == 0, proc.stderr
        proc = invoke([*command, "--rep", str(rho_file), "--p", "7"])
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "invalid_config" and "--p" in err["message"]

    def test_induce_from_a_rep_file_on_another_group_is_refused(self, tmp_path, capsys):
        # a Legendre character mod 5 lives on Gamma0(5): inducing it through
        # the cosets of Gamma0(3) is refused before any coset is listed
        argv = ["induce", "--group", "gamma0", "--level", "3", "--rep", str(legendre5(tmp_path))]
        assert run(parse_args(argv)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid_config"
        assert "Gamma0(5)" in err["message"] and "Gamma0(3)" in err["message"]

    @pytest.mark.parametrize("group, name", [
        (["--group", "gamma0", "--level", "3"], "Gamma0(3)"),
        (["--group", "sl2z"], "SL2(Z)"),
    ], ids=["gamma0-3", "sl2z"])
    @pytest.mark.parametrize("command", [["eval", "--tau", "0.3,1.1"], ["fourier"], ["pair"]],
                             ids=["eval", "fourier", "pair"])
    def test_series_on_a_group_the_rep_file_misses_is_refused(self, command, group, name,
                                                              tmp_path, monkeypatch, capsys):
        # a character of Gamma0(5) is no representation of Gamma0(3) or SL2(Z)
        def enumerate_cosets(*args):
            raise AssertionError(f"{command[0]} enumerated cosets for a rep it then refused")
        monkeypatch.setattr(series, "enumerate_cosets", enumerate_cosets)
        argv = [*command, *group, "--rep", str(legendre5(tmp_path)), "--height", "30"]
        assert run(parse_args(argv)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid_config"
        assert "Gamma0(5)" in err["message"] and name in err["message"]

    def test_series_on_a_subgroup_of_the_rep_file_group(self, tmp_path, capsys):
        # Gamma0(10) lies in Gamma0(5), where the Legendre character lives
        argv = ["eval", "--group", "gamma0", "--level", "10", "--rep", str(legendre5(tmp_path)),
                "--tau", "0.3,1.1", "--height", "20"]
        assert run(parse_args(argv)) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert len(value) == 1 and all(math.isfinite(x) for x in value[0])

    def test_eta_fourier_matches_the_q_product(self, capsys):
        # for 2 < k < 12 the cusp forms of weight k for the eta multiplier
        # are spanned by eta^(2k) = q^(k/12) prod (1 - q^m)^(2k), so
        # b_n / b_0 are the coefficients of that product, taken here from
        # the binomial series of each factor; the error grows like
        # e^(2 pi (n + k/12) y0), and each gate is ~3x the one measured
        k, order = 7.3, 3
        product = [1.0] + [0.0] * order
        for m in range(1, order + 1):
            factor, binom = [0.0] * (order + 1), 1.0
            for j in range(order // m + 1):
                factor[m * j] = binom
                binom *= -(2 * k - j) / (j + 1)
            product = [sum(product[i] * factor[n - i] for i in range(n + 1))
                       for n in range(order + 1)]
        assert np.allclose(product, [1.0, -14.6, 84.68, -218.416], rtol=1e-14, atol=0)
        argv = ["fourier", "--group", "sl2z", "--k", str(k), "--family", "eta",
                "--seed", "classical", "--nu", "0", "--n0", "0", "--n1", str(order),
                "--height", "150", "--y0", "0.8"]
        assert run(parse_args(argv)) == 0
        b = [complex(*entry["value"]) for entry in json.loads(capsys.readouterr().out)["b"]]
        for n, gate in ((1, 4e-11), (2, 5e-10), (3, 2e-8)):
            assert abs(b[n] / b[0] - product[n]) <= gate * abs(product[n]), n

    @pytest.mark.parametrize("broken", [
        {"recipe": "st_generated", "p": 1},
        {"recipe": "st_generated", "p": 1, "group": {"kind": "SL2Z"},
         "matrices": {"S": [[1.0, 0.0]], "T": [[[1.0, 0.0]]]}},
        # the "induced" format of earlier versions, which no reader takes now
        {"recipe": "induced", "p": 6, "group": {"kind": "SL2Z", "n": 0},
         "inner": {"recipe": "dirichlet", "p": 1, "group": {"kind": "Gamma0", "n": 5},
                   "values": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]},
         "cosets": [[1, 0, 0, 1], [0, -1, 1, 0], [0, -1, 1, -1], [0, -1, 1, 1],
                    [0, -1, 1, -2], [0, -1, 1, 2]]},
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
        as_json = json.loads(invoke(["fourier", "--group", "gamma0", "--level", "2",
                                     "--k", "12", "--seed", "classical", "--height", "30",
                                     "--n0", "0", "--n1", "1"]).stdout)
        for line, entry in zip(lines[1:], as_json["b"]):
            fields = line.split(",")
            assert [float(v).hex() for v in fields[2:]] == [v.hex() for v in entry["value"]]

    def test_fourier_refuses_an_elliptic_seed_before_enumerating(self, monkeypatch, capsys):
        # at --height 300 the refused series took 0.69 s to build
        def enumerate_cosets(*args):
            raise AssertionError("fourier enumerated cosets for a seed it then refused")
        monkeypatch.setattr(series, "enumerate_cosets", enumerate_cosets)
        code = run(parse_args(["fourier", "--seed", "elliptic", "--height", "300"]))
        assert code == 2
        assert "classical seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--k", "2", "--height", "600"], "k > 2"),
        (["--group", "gamma0", "--level", "4", "--rep", "{odd}", "--seed", "elliptic",
          "--height", "300"], "not normal"),
    ], ids=["weight", "odd-character"])
    def test_eval_refuses_table_free_data_before_enumerating(self, argv, message, tmp_path,
                                                             monkeypatch, capsys):
        # the refused series built 269,759 and 44,853 cosets first
        odd = tmp_path / "odd4.json"  # the character mod 4 with chi(-1) = -1
        odd.write_text(json.dumps({"recipe": "dirichlet", "p": 1,
                                   "group": {"kind": "Gamma0", "n": 4},
                                   "values": [[0, 0], [1, 0], [0, 0], [-1, 0]]}))

        def enumerate_cosets(*args):
            raise AssertionError("eval enumerated cosets for data it then refused")
        monkeypatch.setattr(series, "enumerate_cosets", enumerate_cosets)
        argv = ["eval", "--tau", "0.1,1"] + [a.format(odd=odd) for a in argv]
        assert run(parse_args(argv)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["fourier", "--y0", "0.01"], 3, "extraction height y0 < 0.05"),
        (["fourier", "--nx-fourier", "0"], 2, "nx must be at least 1"),
        (["pair", "--ymin", "2", "--ymax", "1"], 2, "need 0 < y_min < y_max"),
        (["eval", "--tau", "0.1,0.01"], 3, "Im(tau) < 0.05"),
        (["eval", "--tau", "garbage"], 2, "--tau must be 'x,y'"),
        (["eval", "--tau", "0.1,-1"], 2, "tau must lie in the upper half-plane"),
        (["pair", "--seed", "elliptic", "--xi", "0,20", "--ymax", "14"], 2,
         "no disk about xi=20j fits the box"),
        (["fourier", "--n1", "400", "--y0", "3"], 3, "growth factor at n=37, y0=3.0 overflows"),
        (["pair", "--ymax", "1e308"], 3, "Gauss panels on [0.05, 1e+308] overflow"),
        (["pair", "--ymax", "1e300"], 3, "weight y^10 on [0.05, 1e+300] overflows"),
    ], ids=["fourier-y0", "fourier-nx", "pair-box", "eval-near-real-line", "eval-tau-garbage",
            "eval-tau-lower-half", "pair-no-disk", "fourier-growth", "pair-box-overflow",
            "pair-weight-overflow"])
    def test_refuses_bad_quadrature_before_enumerating(self, argv, code, message,
                                                       monkeypatch, capsys):
        # at --height 600 the last six used to enumerate their table first:
        # 269,759 cosets, and 1,078,330 for the elliptic pair
        def enumerate_cosets(*args):
            raise AssertionError(f"{argv[0]} enumerated cosets for a job it then refused")
        monkeypatch.setattr(series, "enumerate_cosets", enumerate_cosets)
        assert run(parse_args(argv + ["--height", "600"])) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, module", [
        (["cosets", "--height", "30000"], cli),
        (["eval", "--tau", "0.3,1.1", "--height", "30000"], series),
    ], ids=["cosets", "eval"])
    def test_memory_exhaustion_is_a_refusal(self, argv, module, monkeypatch, capsys):
        # vvps cosets --height 30000 asks numpy for 10.5 GiB
        def exhausted(*args):
            raise MemoryError("Unable to allocate 10.5 GiB")
        monkeypatch.setattr(module, "enumerate_cosets", exhausted)
        assert run(parse_args(argv)) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "refusal" and err["class"] == "MemoryError"

    def test_pair_smoke(self, tmp_path):
        out = tmp_path / "pair.json"
        proc = invoke(["pair", "--group", "gamma0", "--level", "2", "--k", "12",
                       "--seed", "classical", "--height", "40", "--ymin", "0.05",
                       "--ymax", "8", "--nx", "24", "--ny", "20", "--out", str(out)])
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["rel_err"] < 1e-2

    @pytest.mark.parametrize("argv, tol", [
        (["--seed", "elliptic", "--k", "12", "--nu", "4", "--xi", "0,1",
          "--nx", "160", "--ny", "64"], 1e-14),
        (["--seed", "elliptic", "--k", "4", "--nu", "2", "--xi", "0.3,0.5",
          "--nx", "160", "--ny", "64"], 1e-14),
        (["--k", "12", "--ymax", "0.4", "--nx", "64", "--ny", "64"], 1e-8),
    ], ids=["elliptic-at-i", "elliptic-off-i", "classical-short-strip"])
    def test_pair_reports_the_domain_share(self, argv, tol, tmp_path):
        # on fine grids the pairing loses exactly the seed mass outside the
        # truncated domain: rel_err 1.67e-3, 0.206 and 0.986 here.  Worst
        # |rel_err - (1 - share)| seen: 3.8e-16 and 1.5e-15 on the disk's
        # matched rule, 3.9e-10 on the strip's grid
        out = tmp_path / "pair.json"
        argv = ["pair", "--group", "gamma0", "--level", "2", "--height", "30", *argv]
        assert run(parse_args(argv + ["--out", str(out)])) == 0
        data = json.loads(out.read_text())
        assert abs(data["rel_err"] - (1.0 - data["domain_share"])) <= tol

    def test_elliptic_pair_independent_of_worker_count(self, tmp_path, monkeypatch):
        # 1,024 disk nodes against 393 cosets: 7 blocks of evaluate_many
        argv = ["pair", "--group", "gamma0", "--level", "2", "--seed", "elliptic",
                "--nu", "1", "--xi", "0,1", "--height", "20", "--ymax", "14",
                "--nx", "64", "--ny", "16", "--xmax", "8"]
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(series, "thread_cap", lambda: workers)
            outs.append(tmp_path / f"pair{workers}.json")
            assert run(parse_args(argv + ["--out", str(outs[-1])])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


COMMANDS = ["eval", "fourier", "pair", "criterion", "induce", "cosets", "selftest", "table"]
GOLDEN_ARGV = [
    [], ["-h"], ["--version"], ["bogus"],
    ["-h", "eval"], ["--help", "criterion", "elliptic"],
    ["criterion"], ["criterion", "elliptic", "--k", "3", "--N", "2", "--bogus", "1"],
    ["eval", "--tau", "1,1", "--zz"],
    *([command, "-h"] for command in COMMANDS),
    ["eval", "--tau", "0,1", "--bogus"], ["criterion", "classical", "--k", "12", "--N", "5", "--bogus"],
    *([command, "--bogus"] for command in COMMANDS if command not in ("eval", "criterion")),
]
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_text.json").read_text())


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != GOLDEN["python"],
                    reason="argparse lays out help differently in other Python versions")
@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_errors_match_the_recorded_text(argv, monkeypatch, capsys):
    # help, version and usage errors, byte for byte, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert {"code": exc.value.code, "out": captured.out, "err": captured.err} \
        == GOLDEN["text"][" ".join(argv)]


def test_one_parser_serves_every_command(monkeypatch):
    # the first job of a process builds the parser of all eight commands;
    # a second job, of the same command or of another, only parses
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    argv = ["criterion", "elliptic", "--k", "12", "--N", "3", "--nu", "1", "--out", os.devnull]
    first = parse_args(argv)
    assert run(first) == 0
    after_first = len(built)
    assert vars(parse_args(argv)) == vars(first)
    for argv in (["table", "--k-list", "12", "--n-list", "2", "--nu-max", "1"],
                 ["cosets", "--group", "gamma0", "--level", "3", "--height", "10"],
                 ["selftest"]):
        assert run(parse_args(argv + ["--out", os.devnull])) == 0
    assert after_first > 0 and len(built) == after_first


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first parse, not at import: a tree built at
    # import would cost ~2 ms to every process that only imports vvps.cli
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted_init\n"
            "import vvps.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


REUSED_JOBS = [
    ["criterion", "classical", "--k", "12", "--N", "5", "--nu", "2", "--M", "2", "--m", "0.5"],
    ["criterion", "elliptic", "--k", "12", "--N", "3", "--nu", "1"],
    ["criterion", "regionA", "--k", "12", "--N", "5", "--nu", "2"],
    ["criterion", "regionC", "--k", "12", "--N", "2"],
    ["table", "--k-list", "4,12.5", "--n-list", "2,5", "--nu-max", "3"],
    ["cosets", "--group", "gamma0", "--level", "3", "--height", "20"],
    ["fourier", "--group", "gamma0", "--level", "2", "--height", "20"],
]


def test_jobs_in_one_process_match_fresh_processes(capsys):
    # parsers, medians and tables outlive a job: running the jobs forward,
    # through a usage error, and in reverse must give the bytes of one fresh
    # interpreter per job
    def in_process(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out.encode()

    forward = [in_process(argv) for argv in REUSED_JOBS]
    code, out = in_process(["criterion", "elliptic", "--k", "12", "--N", "3", "--bogus", "1"])
    assert code == 2 and out == b""
    backward = [in_process(argv) for argv in reversed(REUSED_JOBS)][::-1]
    fresh = [subprocess.run([sys.executable, "-m", "vvps.cli", *argv], capture_output=True)
             for argv in REUSED_JOBS]
    for argv, one, two, proc in zip(REUSED_JOBS, forward, backward, fresh):
        assert proc.returncode == 0, proc.stderr
        assert one == two == (0, proc.stdout), argv
