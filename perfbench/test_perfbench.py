"""Tests of the benchmark itself (not of vvps):

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest

import oracles
import tracing
import workloads


def _describe(jobs):
    return [(j.index, j.kind, j.params, j.argv, j.coset_key, j.prep_key) for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    one = workloads.generate(workload, 7, 20)
    two = workloads.generate(workload, 7, 20)
    other = workloads.generate(workload, 8, 20)
    assert _describe(one) == _describe(two)
    assert _describe(one) != _describe(other)
    assert [j.index for j in one] == list(range(len(one)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_mix_is_the_same_for_every_seed(workload):
    def mix(seed):
        return sorted((j.kind, j.params.get("level"), j.params.get("criterion"))
                      for j in workloads.generate(workload, seed, 20))

    assert mix(1) == mix(2)


def test_stratified_heights_keep_the_coset_budget():
    lo, hi = 60.0, 120.0
    for seed in range(5):
        hs = workloads.stratified_heights(np.random.default_rng(seed), lo, hi, 6)
        x = [(h * h - lo * lo) / (hi * hi - lo * lo) for h in hs]
        # one height near the centre of each sixth of the coset count
        assert all(abs(xi - (i + 0.5) / 6) <= 0.05 + 1e-3 for i, xi in enumerate(x))
        assert sum(h * h for h in hs) == pytest.approx(3 * (lo * lo + hi * hi), abs=10.0)  # heights are rounded to 0.01


def test_petersson_kloosterman_gives_ramanujan_tau():
    # P_1 on SL2(Z) at k = 12 is a multiple of Delta, so b_n / b_1 = tau(n)
    b = oracles.petersson_kloosterman(1, [1, 2, 3], 12.0, 1)
    assert b[1] / b[0] == pytest.approx(-24.0, abs=1e-12)
    assert b[2] / b[0] == pytest.approx(252.0, abs=1e-11)


def test_eval_check_is_relative_to_the_fourier_terms():
    # At this tau the terms b_n q^n of P_2 on SL2(Z), k = 20, cancel to
    # 0.9% of their moduli, so rounding relative to |F(tau)| alone reads
    # 3e-13; relative to the terms it is at the level of rounding.
    p = {"level": 1, "k": 20.0, "nu": 1, "tau": (0.470905, 0.867021)}
    job = workloads.Job(0, "eval_classical", p, ["eval", "--group", "sl2z", "--k", "20.0",
                                                 "--seed", "classical", "--nu", "1",
                                                 "--height", "266.08", "--tau=0.470905,0.867021"])
    check = workloads.check(job, workloads.execute(job))
    assert check.ok
    assert check.errors["eval_classical"] < 1e-14


def test_closed_forms_and_medians():
    # nu = 1, k = 12: 4 pi / 4^12 * 1! / (11 * 12)
    assert oracles.elliptic_pairing(2.0, 12.0, 1, 1j) == pytest.approx(
        2.0 * 4.0 * math.pi / 4.0 ** 12 / (11.0 * 12.0), rel=1e-14)
    assert oracles.gamma_median(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert oracles.beta_median(3.0, 3.0) == pytest.approx(0.5, rel=1e-15)
    assert oracles.principal_power(-1.0 + 0j, 0.5) == pytest.approx(1j)


def _scripted_recorder(monkeypatch, events):
    """Replay ("open", name, t) / ("close", t) events with a fake clock."""
    rec = tracing.Recorder()
    rec.active = True
    clock = iter(t for *_, t in events)
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    stack = []
    for ev in events:
        if ev[0] == "open":
            stack.append(rec.open(ev[1]))
        else:
            rec.close(stack.pop())
    return rec


def test_self_time_on_a_synthetic_span_tree(monkeypatch):
    # job [0, 10] > evaluate_many [1, 9] > (evaluate_v [2, 3],
    # evaluate_v [3.5, 4], block_sum [5, 8]); a recursive evaluate_rho
    # pair [9.25, 9.875] > [9.5, 9.75] under the job.
    rec = _scripted_recorder(monkeypatch, [
        ("open", "job", 0.0),
        ("open", "series.evaluate_many", 1.0),
        ("open", "multiplier.evaluate_v", 2.0), ("close", 3.0),
        ("open", "multiplier.evaluate_v", 3.5), ("close", 4.0),
        ("open", "quad.block_sum", 5.0), ("close", 8.0),
        ("close", 9.0),
        ("open", "rep.evaluate_rho", 9.25),
        ("open", "rep.evaluate_rho", 9.5), ("close", 9.75),
        ("close", 9.875),
        ("close", 10.0),
    ])
    a = rec.arrays()
    selfs = tracing.self_times(a["start"], a["end"], a["parent"])
    assert list(selfs) == pytest.approx([10 - 8 - 0.625, 8 - 1 - 0.5 - 3, 1, 0.5, 3, 0.625 - 0.25, 0.25])

    t = tracing.SpanTable(rec)
    assert t.calls("multiplier.evaluate_v") == 2
    assert t.busy("multiplier.evaluate_v") == pytest.approx(1.5)
    assert t.calls("rep.evaluate_rho") == 1          # the nested call is not counted again
    assert t.busy("rep.evaluate_rho") == pytest.approx(0.625)
    assert t.self_time("rep.evaluate_rho") == pytest.approx(0.625)
    assert list(t.under("series")) == [False, False, True, True, True, False, False]
    shares = t.layer_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["multiplier"] == pytest.approx(0.15)
    assert shares["other"] == pytest.approx(0.1375)


def test_tracing_counts_the_work_of_one_job():
    import vvps.series
    rec = tracing.Recorder()
    patched = tracing.install(rec)
    assert "vvps.series.evaluate_v" in patched and "vvps.multiplier.evaluate_v" in patched
    job = workloads.Job(0, "eval_classical", {}, ["eval", "--k", "12", "--height", "20",
                                                  "--tau=0.1,1.2"])
    rec.active = True
    root = rec.open("job")
    out = workloads.execute(job)
    rec.close(root)
    rec.active = False
    assert out.code == 0
    m = tracing.layer_metrics(rec, threads=1)
    assert m["modgroup.enumerate_cosets.calls"][0] == 1
    cosets = m["modgroup.enumerate_cosets.cosets"][0]
    assert cosets == len(vvps.series.enumerate_cosets(
        vvps.GroupSpec.gamma_infinity(1), vvps.GroupSpec.sl2z(), 20.0))
    assert m["series.evaluate_many.points"][0] == 1
    assert m["series.evaluate_many.terms"][0] == cosets
    assert m["multiplier.evaluate_v.calls"][0] == 0   # trivial data skips preparation
    # untraced calls record nothing
    n = len(rec)
    workloads.execute(job)
    assert len(rec) == n
