"""Tests of the benchmark's own accounting and tracing."""

import json
from dataclasses import replace

import numpy as np
import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, Outcome, block_digest, import_program

mp = import_program()


def scalar_problem(constraints=None):
    kw = {} if constraints is None else {"constraints": constraints}
    model = mp.beliefs.LinearGaussianModel(
        A=[[1.0]], G=[[1.0]], C=[[1.0]], Q=[[1e-4]], R_obs=[[1e-4]],
        step_cost=mp.beliefs.StepCost(base=0.01), **kw)
    cfg = mp.tma.TmaConfig(n_nodes=2, k_neighbors=2, m_sims=30, epsilon=0.08,
                           max_steps=2000, bounds_lo=np.array([0.0]),
                           bounds_hi=np.array([1.0]))
    start = mp.beliefs.GaussianBelief(
        [0.0], mp.beliefs.stationary_covariance(model))
    return model, start, np.array([1.0]), cfg


def scalar_workload(constraints=None, block=2):
    return replace(WORKLOADS["tma-build"], block=block, setup_reps=2,
                   setup=lambda mp: scalar_problem(constraints))


def test_walled_off_goal_counts_as_failed_and_run_continues():
    # a wall across the only route: every edge simulation absorbs in the
    # failure node, so construct_tma raises GoalUnreachable on every seed;
    # the loop repeats and times those seeds like the others
    wall = mp.beliefs.PredicateConstraints(lambda x: 0.3 <= x[0] <= 0.8)
    setup_times, outcomes, clock = run.timed_loop(mp, scalar_workload(wall),
                                                  1, 1.0)
    assert len(outcomes) > 2
    assert all(o.error == "GoalUnreachable" for o in outcomes)
    assert len(setup_times) == 2
    # one reference timing before the first step and one after every step
    assert len(clock.refs) == 1 + len(setup_times) + len(outcomes)
    assert all(o.scaled > 0.0 for o in outcomes)
    assert all(not o.problems for o in outcomes)
    assert run.class_means(outcomes).keys() == {"raised"}
    assert run.call_seconds(outcomes) > 0.0


def test_json_counts_each_block_seed_once(tmp_path, monkeypatch, capsys):
    # repeats only add timing samples: attempted and failed count the
    # block's seeds once, so they do not depend on the host's speed
    wall = mp.beliefs.PredicateConstraints(lambda x: 0.3 <= x[0] <= 0.8)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tma-build",
                        scalar_workload(wall, block=3))
    assert run.main(["--workload", "tma-build", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert result["correct"]
    assert result["metrics"].keys() == run.metric_units("end_to_end").keys()


def test_other_exceptions_abort_the_run():
    def broken(mp, problem, seed):
        raise ZeroDivisionError("not a MacroplanError")

    wl = replace(scalar_workload(), op=broken)
    with pytest.raises(ZeroDivisionError):
        run.timed_loop(mp, wl, 0, 0.0)


def test_loop_repeats_every_block_seed():
    _, outcomes, _ = run.timed_loop(mp, scalar_workload(), 2, 0.0)
    assert [o.seed for o in outcomes] == [2, 3]
    _, outcomes, _ = run.timed_loop(mp, scalar_workload(), 2, 2.0)
    assert len(outcomes) > 4
    assert [o.seed for o in outcomes] == [2, 3] * (len(outcomes) // 2) \
        + [2] * (len(outcomes) % 2)
    first = {o.seed: o.digest for o in outcomes[:2]}
    assert all(o.digest == first[o.seed] for o in outcomes)


def test_call_seconds_weighs_returned_and_raised_calls_equally():
    def out(seed, scaled, error=None):
        return Outcome(seed, 0.0, error, {}, [], scaled)

    outcomes = [out(1, 3.0), out(2, 1.0), out(3, 9.0, "NonConvergent"),
                out(1, 2.0), out(3, 7.0, "NonConvergent"), out(2, 4.0),
                out(4, 7.0)]
    # seed means: 1 -> 2.5, 2 -> 2.5, 4 -> 7.0 returned; 3 -> 8.0 raised
    assert run.class_means(outcomes) == {"returned": 4.0, "raised": 8.0}
    assert run.call_seconds(outcomes) == 6.0
    assert run.call_seconds(outcomes[:2]) == 2.0


def test_host_clock_scales_by_the_reference_around_each_step(monkeypatch):
    refs = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run.HostClock, "_reference",
                        staticmethod(lambda at_least: next(refs)))
    clock = run.HostClock()
    nominal = run.REF_NOMINAL_S
    assert clock.scaled(1.0) == pytest.approx(nominal / 0.2)
    assert clock.scaled(2.0) == pytest.approx(2.0 * nominal / 0.25)


def test_traced_run_matches_untraced_and_accounts_for_wall_time():
    problem = scalar_problem()
    wl = scalar_workload()
    untraced = [run.run_op(mp, wl, problem, s) for s in (0, 1)]
    tracer = Tracer(mp.errors.MacroplanError)
    original = mp.tma.estimate_edge
    tracer.install(mp)
    try:
        assert mp.tma.estimate_edge is not original
        traced = []
        for k, s in enumerate((0, 1)):
            tracer.op_id = k
            traced.append(run.run_op(mp, wl, problem, s))
    finally:
        tracer.uninstall()
    assert mp.tma.estimate_edge is original
    assert block_digest(traced) == block_digest(untraced)

    summary = tracer.summary()
    assert summary["tma.construct_tma"]["calls"] == 2
    assert summary["beliefs.run_lma"]["calls"] == tracer.counts[
        "tma.edge_sims"]
    # self times of all spans add up to the top-level spans' durations
    total_self = sum(v["self_s"] for v in summary.values())
    total_top = sum(v["top_s"] for v in summary.values())
    assert total_self == pytest.approx(total_top, rel=1e-9)
    assert set(tracer.arrays()["op"]) == {0, 1}


def test_records_flag_a_changed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    first = run.Records("w", "src")
    assert first.check_seeds([Outcome(5, 1.0, None, {"v": "1"}, [])]) == []
    first.save()
    again = run.Records("w", "src")
    assert again.check_seeds([Outcome(5, 1.0, None, {"v": "1"}, [])]) == []
    assert again.check_seeds([Outcome(5, 1.0, None, {"v": "2"}, [])])
    assert run.Records("w", "other").check_seeds(
        [Outcome(5, 1.0, None, {"v": "2"}, [])]) == []
