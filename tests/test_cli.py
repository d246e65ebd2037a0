"""End-to-end tests of the command-line interface."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from macroplan import cli
from macroplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from macroplan.delivery import DeliveryConfig
from macroplan.errors import NonConvergent, SingularChain, Unstabilizable
from macroplan.search import SearchConfig

TMA_CONFIG = {
    "model": {
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1e-4, 0.0], [0.0, 1e-4]],
        "R_obs": [[1e-4, 0.0], [0.0, 1e-4]],
        "step_cost": {"base": 0.01, "u_weight": 0.0},
        "constraints": {"kind": "none"},
    },
    "start": {"mean": [0.1, 0.1], "cov": [[1e-4, 0.0], [0.0, 1e-4]]},
    "goal_mean": [0.8, 0.8],
    "tma": {"n_nodes": 3, "k_neighbors": 2, "m_sims": 5, "epsilon": 0.06,
            "max_steps": 200,
            "gain_spec": {"kind": "lqr", "state_weight": 1.0,
                          "control_weight": 8.0, "fixed_gain": None}},
}

# the example configs that the mutation tests below edit one field at a time
TMA_EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "tma_single.yaml")
DESK_EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "delivery_desk.yaml")

DELIVERY_CONFIG = {
    "preset": "desk",
    "search": {"n_nodes": 13, "budget": 12, "iter_max_mc": 6, "k_d": 3,
               "mask_threshold": 0.99},
}


def write_yaml(path, data):
    with open(path, "w") as f:
        yaml.safe_dump(data, f)
    return str(path)


@pytest.fixture(scope="module")
def tma_cfg_path(tmp_path_factory):
    return write_yaml(tmp_path_factory.mktemp("cfg") / "tma.yaml", TMA_CONFIG)


@pytest.fixture(scope="module")
def delivery_cfg_path(tmp_path_factory):
    return write_yaml(tmp_path_factory.mktemp("cfg") / "delivery.yaml",
                      DELIVERY_CONFIG)


@pytest.fixture(scope="module")
def solve_out(delivery_cfg_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("solve"))
    rc = main(["solve", "--config", delivery_cfg_path, "--seed", "3",
               "--out", out])
    assert rc == EXIT_OK
    return out


def test_build_tma_writes_artifacts(tma_cfg_path, tmp_path):
    out = str(tmp_path / "tma.json")
    rc = main(["build-tma", "--config", tma_cfg_path, "--seed", "1",
               "--out", out])
    assert rc == EXIT_OK
    with open(out) as f:
        data = json.load(f)
    assert "milestones" in data or data  # serialized graph payload
    with open(out + ".report.json") as f:
        report = json.load(f)
    assert report["seed"] == 1
    assert 0.0 <= report["success_from_start"] <= 1.0


def test_build_tma_deterministic(tma_cfg_path, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["build-tma", "--config", tma_cfg_path, "--seed", "9",
                     "--out", out]) == EXIT_OK
        with open(out, "rb") as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


def test_build_tma_rejects_threads_flag(tma_cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["build-tma", "--config", tma_cfg_path, "--threads", "2",
              "--out", str(tmp_path / "x.json")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == \
        "macroplan: error: unrecognized arguments: --threads 2"
    assert "Traceback" not in err


def test_build_tma_rejects_budget_flag(tma_cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["build-tma", "--config", tma_cfg_path, "--budget", "7",
              "--out", str(tmp_path / "x.json")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == \
        "macroplan: error: unrecognized arguments: --budget 7"
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("build-tma", "--seed", "-1"),
    ("success-curve", "--budget", "0"),
    ("success-curve", "--budget", "-3"),
    ("compare-search", "--seeds", "-2"),
])
def test_bad_count_flag_exits_2(command, flag, value, tma_cfg_path,
                                delivery_cfg_path, solve_out, tmp_path,
                                capsys):
    config = tma_cfg_path if command == "build-tma" else delivery_cfg_path
    argv = [command, "--config", config, flag, value,
            "--out", str(tmp_path / "out")]
    if command == "success-curve":
        argv += ["--policy", os.path.join(solve_out, "mmcs_policy.json")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}: " in err.splitlines()[-1]
    assert not os.path.exists(tmp_path / "out")


def test_build_tma_bad_config_exits_2(tmp_path, capsys):
    bad = write_yaml(tmp_path / "bad.yaml", {"model": {"A": [[1.0]]}})
    assert main(["build-tma", "--config", bad, "--seed", "0",
                 "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
    missing = str(tmp_path / "nope.yaml")
    assert main(["build-tma", "--config", missing, "--seed", "0",
                 "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
    # every TMA uses the default belief norm; a config cannot set one.  A
    # positive failure value or a negative step cost would leave the graph
    # DP nothing to converge on.
    gain = TMA_CONFIG["tma"]["gain_spec"]
    for section, key, value, word in [
            ("tma", "norm", {"w_mean": 1.0, "w_cov": 0.5}, "norm"),
            ("tma", "failure_value", 5, "failure_value"),
            ("model", "step_cost", {"base": -1, "u_weight": 0.0}, "base=-1"),
            ("tma", "epsilon", 0, "epsilon must be positive"),
            ("tma", "epsilon", -1, "epsilon must be positive"),
            ("tma", "epsilon", float("nan"), "epsilon must be finite"),
            ("tma", "max_steps", 0, "max_steps must be >= 1"),
            ("tma", "max_steps", 2.5, "max_steps must be an integer"),
            ("tma", "k_neighbors", 1.5, "k_neighbors must be an integer"),
            ("tma", "n_nodes", 3.5, "n_nodes must be an integer"),
            ("tma", "gain_spec", {**gain, "kind": "bogus"}, "'bogus'"),
            ("tma", "gain_spec", {**gain, "state_weight": -1},
             "state_weight=-1"),
            ("tma", "gain_spec", {**gain, "control_weight": -1},
             "control_weight=-1"),
            ("tma", "gain_spec", {**gain, "control_weight": 0},
             "control_weight"),
            ("tma", "gain_spec", {**gain, "kind": "fixed"}, "fixed_gain"),
            ("tma", "gain_spec", {**gain, "kind": "fixed",
                                  "fixed_gain": [[1.0]]}, "fixed_gain"),
            ("tma", "gain_spec", {**gain, "kind": "fixed",
                                  "fixed_gain": [["x", 0.0], [0.0, 1.0]]},
             "fixed_gain"),
            ("tma", "gain_spec", {**gain, "fixed_gain": [[1.0, 0.0],
                                                         [0.0, 1.0]]},
             "fixed_gain"),
            ("start", "cov", [[-1.0, 0.0], [0.0, -1.0]],
             "positive semi-definite"),
            # an obstacle that could never block, a key no kind reads
            ("model", "constraints",
             {"kind": "rects", "rects": [[[math.nan, 0.4], [0.6, 0.6]]]},
             "constraints"),
            ("model", "constraints",
             {"kind": "rects", "rects": [[[0.6, 0.6], [0.4, 0.4]]]},
             "constraints"),
            ("model", "constraints", {"kind": "none", "foo": 1},
             "constraints"),
            ("model", "constraints",
             {"kind": "rects", "rects": [],
              "bounds": [[0.0, 0.0], [1.0, 1.0]]}, "constraints")]:
        cfg = copy.deepcopy(TMA_CONFIG)
        cfg[section][key] = value
        path = write_yaml(tmp_path / f"{key}.yaml", cfg)
        capsys.readouterr()
        assert main(["build-tma", "--config", path,
                     "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad TMA config: ")
        assert word in err and len(err.splitlines()) == 1
    # six milestones cannot lie 2 * 0.4 apart in the unit square, and the
    # message says so rather than blame the (absent) constraints
    cfg = copy.deepcopy(TMA_CONFIG)
    cfg["tma"].update(n_nodes=6, epsilon=0.4)
    path = write_yaml(tmp_path / "crowded.yaml", cfg)
    assert main(["build-tma", "--config", path,
                 "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: could not sample milestones")
    assert "n_nodes=6, epsilon=0.4: no more fit 2*epsilon apart" in err
    assert " 0 violating a constraint" in err and len(err.splitlines()) == 1
    # a rectangle spans the first two state dimensions, so a scalar model
    # refuses rectangle constraints when it is built, before any milestone
    # is drawn, even with no rectangle listed
    for rects in ([[[0.3, 0.3], [0.5, 0.5]]], []):
        scalar = {"A": [[1.0]], "G": [[1.0]], "C": [[1.0]], "Q": [[1e-4]],
                  "R_obs": [[1e-4]],
                  "step_cost": {"base": 0.01, "u_weight": 0.0},
                  "constraints": {"kind": "rects", "rects": rects}}
        cfg = {"model": scalar, "start": {"mean": [0.1], "cov": [[1e-4]]},
               "goal_mean": [0.8], "tma": copy.deepcopy(TMA_CONFIG["tma"])}
        path = write_yaml(tmp_path / "scalar_rects.yaml", cfg)
        assert main(["build-tma", "--config", path,
                     "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad TMA config: ")
        assert "2 state dimensions" in err and len(err.splitlines()) == 1


def test_build_tma_inverted_sampling_box_exits_2(tmp_path, capsys):
    # equal bounds on an axis are a box too; lo above hi on any axis is not
    for lo, hi, rc in [([2.0, 2.0], [1.0, 1.0], EXIT_CONFIG),
                       ([0.0, 0.6], [1.0, 0.4], EXIT_CONFIG),
                       ([0.0, 0.5], [1.0, 0.5], EXIT_OK)]:
        cfg = copy.deepcopy(TMA_CONFIG)
        cfg["tma"].update(bounds_lo=lo, bounds_hi=hi)
        path = write_yaml(tmp_path / "box.yaml", cfg)
        capsys.readouterr()
        assert main(["build-tma", "--config", path,
                     "--out", str(tmp_path / "x.json")]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_CONFIG:
            assert err == (f"config error: sampling box is inverted: "
                           f"bounds_lo {lo} exceeds bounds_hi {hi} on axis "
                           f"{[a > b for a, b in zip(lo, hi)].index(True)}"
                           f"\n")


@pytest.mark.parametrize("mutate, message", [
    (lambda cfg: cfg.pop("start"), "missing key 'start'"),
    (lambda cfg: cfg.pop("goal_mean"), "missing key 'goal_mean'"),
    (lambda cfg: cfg["model"].pop("step_cost"),
     "missing key 'model.step_cost'"),
    (lambda cfg: cfg.update(model=[1, 2]), "model must be a mapping, not "
                                           "[1, 2]"),
    (lambda cfg: cfg.update(start="here"), "start must be a mapping, not "
                                           "'here'"),
    (lambda cfg: cfg.update(tma=None), "tma must be a mapping, not None"),
    (lambda cfg: cfg["model"].update(constraints=["none"]),
     "model.constraints must be a mapping, not ['none']"),
    (lambda cfg: cfg["tma"].update(gain_spec=[1.0]),
     "tma.gain_spec must be a mapping, not [1.0]"),
    (lambda cfg: cfg["model"].pop("A"), "missing key 'model.A'"),
    (lambda cfg: cfg["start"].pop("mean"), "missing key 'start.mean'"),
    (lambda cfg: cfg["model"]["step_cost"].pop("u_weight"),
     "missing key 'model.step_cost.u_weight'"),
    (lambda cfg: cfg["model"]["constraints"].pop("kind"),
     "missing key 'model.constraints.kind'"),
    (lambda cfg: cfg["tma"]["gain_spec"].pop("state_weight"),
     "missing key 'tma.gain_spec.state_weight'"),
    (lambda cfg: cfg["model"].update(A=[[1.0, "x"], [0.0, 1.0]]),
     "model.A must be a matrix of numbers, not [[1.0, 'x'], [0.0, 1.0]]"),
    (lambda cfg: cfg["model"].update(Q=None),
     "model.Q must be a matrix of numbers, not None"),
    (lambda cfg: cfg["model"].update(C=[[1.0, 0.0], [0.0]]),
     "model.C must be a matrix of numbers, not [[1.0, 0.0], [0.0]]")],
    ids=["no-start", "no-goal", "no-step-cost", "model-list", "start-str",
         "tma-null", "constraints-list", "gain-spec-list", "no-A", "no-mean",
         "no-u-weight", "no-constraints-kind", "no-state-weight",
         "A-string", "Q-null", "C-ragged"])
def test_build_tma_config_messages_name_the_key(mutate, message, tmp_path,
                                                capsys):
    cfg = copy.deepcopy(TMA_CONFIG)
    mutate(cfg)
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert main(["build-tma", "--config", path,
                 "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
    assert capsys.readouterr().err \
        == f"config error: bad TMA config: {message}\n"


@pytest.mark.parametrize("key", ["A", "G", "C", "Q", "R_obs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_tma_non_finite_model_matrix_exits_2(key, bad, tmp_path,
                                                   capsys):
    # refused by name before any check that a non-finite entry would fail
    # for another reason (symmetry), or that would not catch it (the LQR
    # and filter designs, which then report an infeasible problem)
    cfg = copy.deepcopy(TMA_CONFIG)
    matrix = copy.deepcopy(cfg["model"][key])
    matrix[1][1] = bad
    cfg["model"][key] = matrix
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert main(["build-tma", "--config", path,
                 "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
    assert capsys.readouterr().err \
        == (f"config error: bad TMA config: {key} must have finite entries, "
            f"not {matrix}\n")


def _leaf_paths(tree, path=()):
    """Key path of every value in nested mappings that is not a mapping."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


# the values every contract test below sets one field to
MUTATION_POOL = [None, "x", math.nan, -1, [], [[1.0]], [1.0, 1.0, 1.0]]


def _mutants(doc, paths):
    """``(path, value, copy of doc)`` for each key path and each value of
    ``MUTATION_POOL``, the copy holding that value at that path."""
    for path in paths:
        for value in MUTATION_POOL:
            mutant = copy.deepcopy(doc)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(value)
            yield path, value, mutant


def _unclean_exit(argv, capsys):
    """None if ``main(argv)`` exits 0, or exits 2 or 3 with one line on
    stderr; otherwise what went wrong.  Any escape is a failure."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except Exception as e:
        return repr(e)
    err = capsys.readouterr().err
    if rc not in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE) or (
            rc != EXIT_OK and len(err.splitlines()) != 1):
        return rc, err
    return None


def test_build_tma_config_mutations_exit_cleanly(tmp_path, capsys):
    """Each leaf of the example TMA config set to each value of a fixed
    pool: ``build-tma`` exits 0, 2 or 3, and on 2 or 3 prints one line,
    never a traceback."""
    with open(TMA_EXAMPLE) as f:
        example = yaml.safe_load(f)
    out = str(tmp_path / "x.json")
    failures = []
    for path, value, cfg in _mutants(example, _leaf_paths(example)):
        cfg_path = write_yaml(tmp_path / "mutant.yaml", cfg)
        failure = _unclean_exit(["build-tma", "--config", cfg_path,
                                 "--out", out], capsys)
        if failure is not None:
            failures.append((path, value, failure))
    assert not failures, failures


def test_delivery_config_mutations_exit_cleanly(solve_out, tmp_path, capsys,
                                                monkeypatch):
    """Each ``DeliveryConfig`` field and each ``search`` field, set on the
    desk example to each value of the pool: ``solve --budget 1`` and
    ``success-curve --budget 1`` with a saved desk policy exit 0, 2 or 3,
    and on 2 or 3 print one line.  A config equal to the desk preset reuses
    one domain built for it."""
    with open(DESK_EXAMPLE) as f:
        example = yaml.safe_load(f)
    desk = cli._delivery_config(example)
    desk_domain = cli.build_domain(desk, np.random.default_rng(0).spawn(1)[0])
    real_build = cli.build_domain
    monkeypatch.setattr(
        cli, "build_domain",
        lambda cfg, rng: desk_domain if cfg == desk else real_build(cfg, rng))
    paths = [(f.name,) for f in dataclasses.fields(DeliveryConfig)] + [
        ("search", f.name) for f in dataclasses.fields(SearchConfig)]
    out = str(tmp_path / "out")
    policy = os.path.join(solve_out, "mmcs_policy.json")
    failures = []
    for path, value, cfg in _mutants(example, paths):
        cfg_path = write_yaml(tmp_path / "mutant.yaml", cfg)
        for argv in (["solve", "--budget", "1", "--out", out],
                     ["success-curve", "--budget", "1", "--policy", policy,
                      "--out", str(tmp_path / "curve.csv")]):
            failure = _unclean_exit(argv + ["--config", cfg_path], capsys)
            if failure is not None:
                failures.append((argv[0], path, value, failure))
    assert not failures, failures


def test_policy_file_mutations_exit_cleanly(delivery_cfg_path, solve_out,
                                            tmp_path, capsys, monkeypatch):
    """Each field of a saved desk policy (``format``, ``controllers``, and
    each controller's ``nodes``, ``edges`` and ``initial_node``) set to each
    value of the pool: ``validate-policy`` exits 0, 2 or 3, and on 2 or 3
    prints one line.  The config never changes, so one domain serves."""
    with open(os.path.join(solve_out, "mmcs_policy.json")) as f:
        doc = json.load(f)
    with open(delivery_cfg_path) as f:
        cfg = cli._delivery_config(yaml.safe_load(f))
    domain = cli.build_domain(cfg, np.random.default_rng(0).spawn(1)[0])
    monkeypatch.setattr(cli, "build_domain", lambda cfg, rng: domain)
    paths = [("format",), ("controllers",)] + [
        ("controllers", agent, key) for agent in range(len(doc["controllers"]))
        for key in ("nodes", "edges", "initial_node")]
    policy = str(tmp_path / "mutant.json")
    failures = []
    for path, value, mutant in _mutants(doc, paths):
        with open(policy, "w") as f:
            json.dump(mutant, f)
        failure = _unclean_exit(["validate-policy", "--config",
                                 delivery_cfg_path, "--policy", policy],
                                capsys)
        if failure is not None:
            failures.append((path, value, failure))
    assert not failures, failures


def test_build_tma_unreachable_goal_exits_3(tmp_path):
    cfg = copy.deepcopy(TMA_CONFIG)
    # wall off the goal: it sits inside a forbidden rectangle
    cfg["model"]["constraints"] = {"kind": "rects",
                                   "rects": [[[0.6, 0.6], [1.0, 1.0]]]}
    cfg["tma"]["max_steps"] = 60
    path = write_yaml(tmp_path / "walled.yaml", cfg)
    rc = main(["build-tma", "--config", path, "--seed", "2",
               "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_INFEASIBLE


def test_build_tma_unstabilizable_gain_exits_3(tmp_path, capsys):
    cfg = copy.deepcopy(TMA_CONFIG)
    # a zero feedback gain leaves the integrator's closed loop at radius 1
    cfg["tma"]["gain_spec"] = {"kind": "fixed", "state_weight": 1.0,
                               "control_weight": 1.0,
                               "fixed_gain": [[0.0, 0.0], [0.0, 0.0]]}
    path = write_yaml(tmp_path / "unstable.yaml", cfg)
    rc = main(["build-tma", "--config", path, "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: closed-loop spectral radius")
    assert len(err.splitlines()) == 1


def test_build_tma_unobservable_filter_exits_3_fast(tmp_path, capsys):
    cfg = copy.deepcopy(TMA_CONFIG)
    # nothing observed: the integrator's filter covariance grows for ever
    cfg["model"]["C"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_yaml(tmp_path / "blind.yaml", cfg)
    t0 = time.perf_counter()
    rc = main(["build-tma", "--config", path, "--out", str(tmp_path / "x.json")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and "filter Riccati equation" in err
    assert len(err.splitlines()) == 1


def test_solve_huge_dt_exits_3_with_one_line(tmp_path):
    # the LQR design overflows and fails; numpy's warning about the
    # overflow would add lines to stderr, so a fresh interpreter runs the
    # command, with warnings shown as they are outside pytest
    path = write_yaml(tmp_path / "huge_dt.yaml",
                      {**DELIVERY_CONFIG, "dt": 1.0e200})
    run = subprocess.run(
        [sys.executable, "-m", "macroplan.cli", "solve", "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(cli.__file__))})
    assert run.returncode == EXIT_INFEASIBLE
    assert run.stderr == ("infeasible: LQR design failed: the doubling "
                          "diverged\n")


@pytest.mark.parametrize("error", [NonConvergent, Unstabilizable,
                                   SingularChain])
def test_build_tma_infeasible_errors_exit_3(error, tma_cfg_path, tmp_path,
                                            monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("no stationary solution")

    monkeypatch.setattr(cli, "construct_tma", fail)
    rc = main(["build-tma", "--config", tma_cfg_path,
               "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: no stationary solution\n"


def _no_work(*args, **kwargs):
    raise AssertionError("work began before --out was checked")


@pytest.mark.parametrize("command, out, kind", [
    ("build-tma", "missing/t.json", "a file in an existing folder"),
    ("build-tma", "", "a file in an existing folder"),
    ("success-curve", "missing/c.csv", "a file in an existing folder"),
    ("solve", "a_file", "a folder"),
    ("solve", "a_file/sub", "a folder"),
    ("mc-baseline", "a_file", "a folder"),
    ("compare-search", "a_file", "a folder")])
def test_unusable_out_exits_2_before_any_work(command, out, kind,
                                              tma_cfg_path, delivery_cfg_path,
                                              tmp_path, monkeypatch, capsys):
    """An ``--out`` whose folder is missing, a file output that is a
    folder, and a folder output that is a file, or lies below one, each
    exit 2 with one line before a TMA or a domain is built."""
    (tmp_path / "a_file").write_text("")
    monkeypatch.setattr(cli, "construct_tma", _no_work)
    monkeypatch.setattr(cli, "build_domain", _no_work)
    out = str(tmp_path / out) if out else str(tmp_path)
    config = tma_cfg_path if command == "build-tma" else delivery_cfg_path
    extra = ["--policy", "p.json"] if command == "success-curve" else []
    rc = main([command, "--config", config, "--out", out] + extra)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: --out {out} is not usable as {kind}\n")
    assert (tmp_path / "a_file").is_file()


def test_missing_policy_file_exits_2(delivery_cfg_path, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = main(["validate-policy", "--config", delivery_cfg_path,
               "--policy", missing])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read policy {missing}: ")
    assert len(err.splitlines()) == 1


def test_wrong_format_policy_file_exits_2(delivery_cfg_path, tmp_path, capsys):
    path = str(tmp_path / "tma.json")
    with open(path, "w") as f:
        json.dump({"format": "macroplan-tma-v1"}, f)
    rc = main(["success-curve", "--config", delivery_cfg_path,
               "--policy", path, "--out", str(tmp_path / "c.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: cannot read policy {path}: unrecognized "
                   f"policy format 'macroplan-tma-v1'\n")


@pytest.mark.parametrize("doc, kind", [([], "list"), ("x", "str"),
                                       (5, "int")])
def test_non_object_policy_file_exits_2(doc, kind, delivery_cfg_path,
                                        tmp_path, capsys):
    path = str(tmp_path / "policy.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    rc = main(["validate-policy", "--config", delivery_cfg_path,
               "--policy", path])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot read policy {path}: a policy is a JSON "
        f"object, not {kind}\n")


@pytest.mark.parametrize("key", ["n_nodes", "n_rollouts",
                                 "horizon_macro_steps"])
def test_solve_rejects_empty_search_sizes(key, tmp_path, capsys):
    cfg = copy.deepcopy(DELIVERY_CONFIG)
    cfg["search"][key] = 0
    path = write_yaml(tmp_path / "empty.yaml", cfg)
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad search config: ")
    assert key in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("override, message", [
    ({"discount": 2.0}, "discount must lie in (0, 1]"),
    ({"tma_max_steps": 0}, "tma_max_steps and tma_epsilon must be positive"),
    ({"tma_epsilon": -0.1}, "tma_max_steps and tma_epsilon must be positive"),
    ({"bases": [[0.15, 0.85]]}, "bases must be two (x, y) points"),
    ({"site_radius": "x"}, "site_radius must be a number, not 'x'"),
    ({"dt": 0}, "dt must be positive"),
    ({"site_radius": -1}, "site_radius must be positive"),
    ({"colocate_radius": -0.01}, "colocate_radius must be non-negative"),
    ({"pickup_steps": -3}, "pickup_steps must be at least 1"),
    ({"putdown_steps": 0}, "putdown_steps must be at least 1"),
    ({"place_steps": 0}, "place_steps must be at least 1"),
    ({"wait_steps": 0}, "wait_steps must be at least 1"),
    ({"pickup_steps": 1.5}, "pickup_steps must be an integer, not 1.5"),
    ({"tma_sims": 6.0}, "tma_sims must be an integer, not 6.0"),
    ({"delivery_bonus": float("nan")}, "delivery_bonus must be finite, not nan"),
    ({"obs_noise": float("inf")}, "obs_noise must be finite, not inf"),
    ({"failure_value": float("-inf")},
     "failure_value must be finite, not -inf"),
    ({"dests": 5}, "dests must map each of d1, d2, dr to an (x, y) point, "
                   "not 5"),
    ({"dests": {"d1": [0.1, 0.2]}},
     "dests must map each of d1, d2, dr to an (x, y) point, "
     "not {'d1': [0.1, 0.2]}"),
    ({"package_probs": [1, 2]}, "package_probs must be a mapping, not [1, 2]"),
    ({"package_probs": {"1,zz": 1.0}},
     "package_probs key (1, 'zz') is not (0, '-') or a size 1 or 2 with a "
     "destination in ('d1', 'd2', 'dr')"),
    ({"package_probs": {"x": 1.0}},
     "package_probs key 'x' is not (0, '-') or a size 1 or 2 with a "
     "destination in ('d1', 'd2', 'dr')"),
    ({"package_probs": {"3,d1": 1.0}},
     "package_probs key (3, 'd1') is not (0, '-') or a size 1 or 2 with a "
     "destination in ('d1', 'd2', 'dr')"),
    ({"failure_value": 5}, "failure_value must be non-positive"),
    ({"step_cost": -1}, "step_cost must be non-negative"),
    ({"control_cost": -1}, "control_cost must be non-negative"),
    ({"search": 5}, "search must be a mapping, not 5"),
    ({"search": [1]}, "search must be a mapping, not [1]"),
    ({"search": {**DELIVERY_CONFIG["search"], "n_nodes": 2.5}},
     "bad search config: n_nodes must be an integer, not 2.5"),
    ({"search": {**DELIVERY_CONFIG["search"], "budget": True}},
     "bad search config: budget must be an integer, not True"),
    ({"bases": [[0.1, "a"], [0.85, 0.85]]},
     "bases[0] must be 2 finite numbers, not (0.1, 'a')"),
    ({"dests": {"d1": [0.15, "x"], "d2": [0.85, 0.2], "dr": [0.5, 0.06]}},
     "dests['d1'] must be 2 finite numbers, not [0.15, 'x']"),
    ({"bases": [[0.15, 0.85], [float("nan"), 0.85]]},
     "bases[1] must be 2 finite numbers, not (nan, 0.85)"),
    ({"rendezvous": [float("inf"), 0.45]},
     "rendezvous must be 2 finite numbers, not (inf, 0.45)"),
    ({"regulated": [0.32, 0.0, 0.68, True]},
     "regulated must be 4 finite numbers, not (0.32, 0.0, 0.68, True)"),
    ({"control_weight": -1}, "control_weight must be non-negative"),
    ({"control_weight": 0}, "control_weight must be positive"),
    ({"tma_nodes": 1}, "tma_nodes must be at least 2"),
    ({"tma_neighbors": 0}, "tma_neighbors must be at least 1"),
    ({"tma_sims": 0}, "tma_sims must be at least 1"),
    ({"step_cost": 10 ** 400}, f"step_cost must be finite, not {10 ** 400}"),
    ({"rendezvous": [10 ** 400, 0.45]},
     f"rendezvous must be 2 finite numbers, not ({10 ** 400}, 0.45)"),
    ({"bases": -1}, "bases must be two (x, y) points"),
    ({"rendezvous": None}, "rendezvous must be 2 finite numbers, not None"),
    ({"regulated": float("nan")},
     "regulated must be 4 finite numbers, not nan"),
    ({"package_probs": {"1,d1,x": 1.0}},
     "package_probs key '1,d1,x' is not (0, '-') or a size 1 or 2 with a "
     "destination in ('d1', 'd2', 'dr')"),
    ({"package_probs": {"x,d1": 1.0}},
     "package_probs key 'x,d1' is not (0, '-') or a size 1 or 2 with a "
     "destination in ('d1', 'd2', 'dr')"),
    ({"package_probs": {"1,d1": "x"}},
     "package_probs[(1, 'd1')] must be a finite number, not 'x'"),
], ids=["discount", "max-steps", "epsilon", "one-base", "string-radius",
        "zero-dt", "negative-site-radius", "negative-colocate-radius",
        "negative-pickup-steps", "zero-putdown-steps", "zero-place-steps",
        "zero-wait-steps", "fractional-pickup-steps", "float-tma-sims",
        "nan-delivery-bonus", "infinite-obs-noise", "infinite-failure-value",
        "int-dests", "dests-without-dr", "list-package-probs",
        "unknown-package-destination", "package-key-without-size",
        "package-size-3", "positive-failure-value", "negative-step-cost",
        "negative-control-cost", "int-search", "list-search",
        "fractional-search-nodes", "bool-search-budget", "string-base",
        "string-dest", "nan-base", "infinite-rendezvous", "bool-regulated",
        "negative-control-weight", "zero-control-weight", "one-tma-node",
        "zero-tma-neighbors", "zero-tma-sims", "huge-int-step-cost",
        "huge-int-rendezvous", "int-bases", "null-rendezvous", "nan-regulated",
        "three-part-package-key", "package-key-bad-size",
        "string-package-prob"])
def test_solve_rejects_bad_delivery_override(override, message, tmp_path,
                                             capsys):
    path = write_yaml(tmp_path / "bad.yaml", {**DELIVERY_CONFIG, **override})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_solve_artifacts(solve_out):
    files = {"mmcs_policy.json", "mmcs_trace.csv", "mmcs_samples.csv",
             "mmcs_report.json"}
    assert files.issubset(set(os.listdir(solve_out)))
    with open(os.path.join(solve_out, "mmcs_trace.csv")) as f:
        rows = f.read().strip().splitlines()
    assert len(rows) == 1 + DELIVERY_CONFIG["search"]["budget"]
    with open(os.path.join(solve_out, "mmcs_report.json")) as f:
        report = json.load(f)
    assert report["evaluations"] == DELIVERY_CONFIG["search"]["budget"]


def test_mc_baseline_and_determinism(delivery_cfg_path, tmp_path):
    reads = []
    for sub in ("r1", "r2"):
        out = str(tmp_path / sub)
        assert main(["mc-baseline", "--config", delivery_cfg_path,
                     "--seed", "5", "--out", out]) == EXIT_OK
        with open(os.path.join(out, "mc_trace.csv"), "rb") as f:
            reads.append(f.read())
    assert reads[0] == reads[1]


def test_budget_flag_overrides_config(delivery_cfg_path, tmp_path):
    out = str(tmp_path / "b")
    assert main(["mc-baseline", "--config", delivery_cfg_path, "--seed", "1",
                 "--budget", "4", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "mc_report.json")) as f:
        assert json.load(f)["evaluations"] == 4


def test_success_curve(delivery_cfg_path, solve_out, tmp_path):
    policy = os.path.join(solve_out, "mmcs_policy.json")
    reads = []
    for name in ("c1.csv", "c2.csv"):
        out = str(tmp_path / name)
        assert main(["success-curve", "--config", delivery_cfg_path,
                     "--seed", "7", "--budget", "15", "--policy", policy,
                     "--out", out]) == EXIT_OK
        with open(out, "rb") as f:
            reads.append(f.read())
    assert reads[0] == reads[1]
    rows = reads[0].decode().strip().splitlines()
    assert rows[0] == "k,p_deliver_at_least_k"
    probs = [float(r.split(",")[1]) for r in rows[1:]]
    assert probs[0] == 1.0
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_validate_policy(delivery_cfg_path, solve_out, tmp_path):
    policy = os.path.join(solve_out, "mmcs_policy.json")
    assert main(["validate-policy", "--config", delivery_cfg_path,
                 "--policy", policy]) == EXIT_OK

    with open(policy) as f:
        doc = json.load(f)
    broken = copy.deepcopy(doc)
    # ground controllers (agent 2) may never follow "none" with "putdown":
    # force node 0's "none" edge onto a node relabeled "putdown"
    ctrl = broken["controllers"][2]
    ctrl["nodes"] = ["putdown"] * len(ctrl["nodes"])
    bad_path = str(tmp_path / "broken.json")
    with open(bad_path, "w") as f:
        json.dump(broken, f)
    assert main(["validate-policy", "--config", delivery_cfg_path,
                 "--policy", bad_path]) == EXIT_INFEASIBLE

    wrong = {"format": doc["format"], "controllers": doc["controllers"][:2]}
    wrong_path = str(tmp_path / "wrong.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    assert main(["validate-policy", "--config", delivery_cfg_path,
                 "--policy", wrong_path]) == EXIT_CONFIG


def _set_initial_node(doc, value):
    doc["controllers"][1]["initial_node"] = value


def _set_list_label(doc, value):
    doc["controllers"][1]["nodes"][4] = value


def _set_nodes(doc, value):
    doc["controllers"][1]["nodes"] = value


def _set_controllers(doc, value):
    doc["controllers"] = value


def _set_controller(doc, value):
    doc["controllers"][1] = value


def _set_edges(doc, value):
    doc["controllers"][1]["edges"] = value


def _set_edge(doc, value):
    doc["controllers"][1]["edges"][0] = value


def _add_edge(doc, value):
    doc["controllers"][1]["edges"].append(value)


def _drop_key(doc, key):
    del doc["controllers"][1][key]


@pytest.mark.parametrize("command", ["validate-policy", "success-curve"])
@pytest.mark.parametrize("mutate, value, message", [
    (_set_initial_node, 13, "agent 1: initial node 13 is not a node index "
                            "in [0, 13)"),
    (_set_initial_node, -1, "agent 1: initial node -1 is not a node index "
                            "in [0, 13)"),
    (_set_initial_node, "a", "agent 1: initial node 'a' is not a node index "
                             "in [0, 13)"),
    (_set_initial_node, True, "agent 1: initial node True is not a node "
                              "index in [0, 13)"),
    (_set_list_label, ["wait"], "agent 1 node 4: unknown macro-action "
                                "['wait']"),
    (_set_nodes, 5, "agent 1: nodes 5 is not a list of macro-actions"),
    (_set_controllers, None, "cannot read policy {path}: controllers must "
                             "be a list, not None"),
    (_set_controller, 5, "cannot read policy {path}: controllers[1] must "
                         "be an object, not 5"),
    (_set_edges, None, "cannot read policy {path}: controllers[1].edges "
                       "must be a list, not None"),
    (_set_edge, [0, "none"], "cannot read policy {path}: controllers[1]."
                             "edges entry [0, 'none'] is not [node, "
                             "observation, target]"),
    (_set_edge, ["x", "none", 0], "cannot read policy {path}: "
                                  "controllers[1].edges entry ['x', 'none', "
                                  "0] is not [node, observation, target]"),
    (_add_edge, [99, "none", 0], "agent 1: edge [99, 'none', 0] leaves node "
                                 "99, not a node index in [0, 13)"),
    (_add_edge, [0, "bogus-obs", 0], "agent 1: edge [0, 'bogus-obs', 0] is "
                                     "taken on 'bogus-obs', not an "
                                     "observation of the domain"),
    (_add_edge, [0, "none", 0], "cannot read policy {path}: controllers[1]."
                                "edges entry [0, 'none', 0] repeats the edge "
                                "of node 0 on 'none'"),
    (_drop_key, "nodes", "cannot read policy {path}: missing key "
                         "'controllers[1].nodes'"),
    (_drop_key, "edges", "cannot read policy {path}: missing key "
                         "'controllers[1].edges'"),
    (_drop_key, "initial_node", "cannot read policy {path}: missing key "
                                "'controllers[1].initial_node'"),
], ids=["past-end", "negative", "string", "bool", "list-label", "int-nodes",
        "null-controllers", "int-controller", "null-edges", "two-item-edge",
        "string-edge-node", "stray-edge-node", "stray-edge-observation",
        "duplicate-edge", "no-nodes", "no-edges", "no-initial-node"])
def test_malformed_policy_exits_2(command, mutate, value, message,
                                  delivery_cfg_path, solve_out, tmp_path,
                                  capsys):
    with open(os.path.join(solve_out, "mmcs_policy.json")) as f:
        doc = json.load(f)
    mutate(doc, value)
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    argv = [command, "--config", delivery_cfg_path, "--policy", path]
    if command == "success-curve":
        argv += ["--budget", "2", "--out", str(tmp_path / "c.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: {message.format(path=path)}\n"


def test_compare_search(delivery_cfg_path, tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare-search", "--config", delivery_cfg_path,
                 "--seed", "0", "--seeds", "2", "--budget", "6",
                 "--out", out]) == EXIT_OK
    assert {"summary.csv", "report.json"}.issubset(set(os.listdir(out)))
    with open(os.path.join(out, "summary.csv")) as f:
        rows = f.read().strip().splitlines()
    assert len(rows) == 3  # header + 2 seeds


@pytest.mark.parametrize("command, trace", [("solve", "mmcs"),
                                            ("mc-baseline", "mc")])
def test_search_matches_compare_search_row(command, trace, delivery_cfg_path,
                                           tmp_path):
    """One seed rule: a search on seed s writes the same trace as row 0 of
    ``compare-search`` from seed s."""
    flags = ["--config", delivery_cfg_path, "--seed", "1000", "--budget", "4"]
    assert main([command, *flags, "--out", str(tmp_path / "one")]) == EXIT_OK
    assert main(["compare-search", *flags, "--seeds", "1",
                 "--out", str(tmp_path / "cmp")]) == EXIT_OK
    with open(tmp_path / "one" / f"{trace}_trace.csv", "rb") as f:
        single = f.read()
    with open(tmp_path / "cmp" / f"{trace}_trace_0.csv", "rb") as f:
        assert f.read() == single


@pytest.mark.parametrize("override, message", [
    ({"search": {**DELIVERY_CONFIG["search"], "horizon_macro_steps": 0}},
     "bad search config: n_nodes, n_rollouts and horizon_macro_steps must "
     "be positive"),
    ({"horizon_macro_steps": 40},
     "unknown delivery config key 'horizon_macro_steps'"),
    ({"n_rollouts": 2}, "unknown delivery config key 'n_rollouts'"),
], ids=["zero-search-horizon", "top-level-horizon", "top-level-rollouts"])
def test_success_curve_reads_search_settings(override, message, solve_out,
                                             tmp_path, capsys):
    path = write_yaml(tmp_path / "cfg.yaml", {**DELIVERY_CONFIG, **override})
    rc = main(["success-curve", "--config", path, "--budget", "2",
               "--policy", os.path.join(solve_out, "mmcs_policy.json"),
               "--out", str(tmp_path / "c.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(tmp_path / "c.csv")
