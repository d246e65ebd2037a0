"""Command-line harness: build TMAs, run policy searches, and write the
experiment artifacts (policies, value traces, success curves) as CSV/JSON.

Exit codes: 0 success, 2 configuration error (including an unreadable or
malformed policy file), 3 infeasible problem (unreachable goal, empty
successor sets, a filter or graph DP that does not converge, an
unstabilizable model, or a singular absorbing chain).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Hashable, Optional

import numpy as np
import yaml

from .beliefs import GaussianBelief, GainSpec, LinearGaussianModel
from .delivery import (DeliveryConfig, build_domain, desk_config,
                       success_curve)
from .errors import (ConfigError, GoalUnreachable, NonConvergent,
                     NoValidSuccessor, SingularChain, Unstabilizable,
                     config_key)
from .search import (SearchConfig, load_policy, mmcs, monte_carlo_search,
                     save_policy)
from .tma import TmaConfig, construct_tma, save_tma

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _load_yaml(path: str) -> dict:
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return data


def _load_policy(path: str):
    try:
        return load_policy(path)
    except KeyError as e:
        raise ConfigError(f"cannot read policy {path}: missing key "
                          f"{e.args[0]!r}") from e
    except (OSError, ValueError, TypeError) as e:
        raise ConfigError(f"cannot read policy {path}: {e}") from e


def _config_hash(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check_out(path: str, folder: bool) -> None:
    """Refuse an ``--out`` that is a folder, or in none, when a file is
    written, and one that is, or lies below, a file when a folder is."""
    probe = path if folder else os.path.dirname(path)
    while folder and probe and not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe or ".") or (not folder and os.path.isdir(path)):
        kind = "a folder" if folder else "a file in an existing folder"
        raise ConfigError(f"--out {path} is not usable as {kind}")


def _write_report(path: str, **fields) -> None:
    with open(path, "w") as f:
        json.dump(fields, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: str, header, rows) -> None:
    """Write rows as CSV; floats are written by repr, so a file is
    byte-identical across runs with the same seed."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _finite_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` whose entries are finite."""
    try:
        a = np.array(value, dtype=float)
        ok = a.shape == shape and np.all(np.isfinite(a))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be finite numbers of shape {shape}, "
                          f"not {value!r}")
    return a


def _mapping(data: dict, key: str, where: str = "") -> dict:
    """``data[key]``, which must be a mapping; ``where`` is the path of
    ``data`` in the config, dotted, for the message."""
    if key not in data:
        raise ConfigError(f"missing key {where + key!r}")
    value = data[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{where + key} must be a mapping, not {value!r}")
    return value


def _tma_setup(data: dict):
    """The model, start belief, goal and settings of a TMA config; start,
    goal, bounds and a fixed gain must fit the model's dimensions.  A
    missing key is named by its dotted path in the config."""
    try:
        m = _mapping(data, "model")
        for key in ("step_cost", "constraints"):
            _mapping(m, key, "model.")
        model = LinearGaussianModel.from_dict(m, "model.")
        n = model.state_dim
        s = _mapping(data, "start")
        start = GaussianBelief(
            mean=_finite_array(config_key(s, "mean", "start."), (n,),
                               "start.mean"),
            cov=_finite_array(config_key(s, "cov", "start."), (n, n),
                              "start.cov"))
        goal = _finite_array(data["goal_mean"], (n,), "goal_mean")
        t = dict(_mapping(data, "tma")) if "tma" in data else {}
        if "gain_spec" in t:
            g = dict(_mapping(t, "gain_spec", "tma."))
            if g.get("kind") == "fixed" and g.get("fixed_gain") is not None:
                g["fixed_gain"] = _finite_array(
                    g["fixed_gain"], (model.control_dim, n), "fixed_gain")
            t["gain_spec"] = GainSpec.from_dict(g, "tma.gain_spec.")
        for key in ("bounds_lo", "bounds_hi"):
            if key in t:
                t[key] = _finite_array(t[key], (n,), key)
        cfg = TmaConfig(**t)
    except KeyError as e:
        raise ConfigError(f"bad TMA config: missing key {e.args[0]!r}") from e
    except (TypeError, ValueError, ConfigError) as e:
        raise ConfigError(f"bad TMA config: {e}") from e
    return model, start, goal, cfg


def _package_key(key):
    """A ``size,destination`` key as ``(size, destination)``; any other key
    is kept as it is, for ``DeliveryConfig`` to refuse by name."""
    if isinstance(key, str) and key.count(",") == 1:
        size, dest = key.split(",")
        try:
            return int(size), dest.strip()
        except ValueError:
            pass
    return key


def _delivery_config(data: dict) -> DeliveryConfig:
    preset = data.get("preset", "desk")
    if preset == "desk":
        base = desk_config()
    elif preset == "default":
        base = DeliveryConfig()
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    overrides = {k: v for k, v in data.items()
                 if k not in ("preset", "search")}
    names = {f.name for f in dataclasses.fields(base)}
    for key, val in overrides.items():
        if key not in names:
            raise ConfigError(f"unknown delivery config key {key!r}")
        current = getattr(base, key)
        if isinstance(current, tuple) and isinstance(val, list):
            overrides[key] = tuple(tuple(x) if isinstance(x, list) else x
                                   for x in val)
        elif isinstance(current, dict) and isinstance(val, dict):
            overrides[key] = {_package_key(k): p for k, p in val.items()}
    try:
        return dataclasses.replace(base, **overrides)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad delivery config: {e}") from e


def _search_config(data: dict, budget: Optional[int]) -> SearchConfig:
    s = data.get("search", {})
    if not isinstance(s, dict):
        raise ConfigError(f"search must be a mapping, not {s!r}")
    s = dict(s)
    if budget is not None:
        s["budget"] = budget
    try:
        return SearchConfig(**s)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad search config: {e}") from e


def _delivery_setup(args, budget: Optional[int] = None):
    """A delivery command's config data, search settings, domain and, given
    ``--policy``, its checked policy, read before the domain is built.  The
    domain comes from the first child of ``default_rng(args.seed)``; each
    search or curve runs on a fresh ``default_rng`` of its own seed."""
    data = _load_yaml(args.config)
    cfg = _delivery_config(data)
    scfg = _search_config(data, budget)
    policy = _load_policy(args.policy) if "policy" in args else None
    domain = build_domain(cfg, np.random.default_rng(args.seed).spawn(1)[0])
    if policy is not None:
        _check_policy(policy, domain)
    return data, scfg, domain, policy


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build_tma(args) -> int:
    data = _load_yaml(args.config)
    model, start, goal, tcfg = _tma_setup(data)
    rng = np.random.default_rng(args.seed)
    t0 = time.time()
    tma = construct_tma(start, goal, model, tcfg, rng)
    save_tma(tma, args.out)
    _write_report(args.out + ".report.json", seed=args.seed,
                  config_hash=_config_hash(data),
                  wall_time_s=round(time.time() - t0, 3),
                  success_from_start=tma.success[tma.start_id],
                  expected_time_from_start=tma.time_to_goal[tma.start_id])
    print(f"wrote {args.out}  success(start)={tma.success[tma.start_id]:.4f}")
    return EXIT_OK


def _run_search(args, algorithm, name: str) -> int:
    data, scfg, domain, _ = _delivery_setup(args, args.budget)
    t0 = time.time()
    result = algorithm(domain, scfg, np.random.default_rng(args.seed))
    os.makedirs(args.out, exist_ok=True)
    save_policy(result.best_policy, os.path.join(args.out, f"{name}_policy.json"))
    _write_csv(os.path.join(args.out, f"{name}_trace.csv"),
               ["evaluation", "best_value"], result.trace)
    _write_csv(os.path.join(args.out, f"{name}_samples.csv"),
               ["evaluation", "value"], result.samples)
    _write_report(os.path.join(args.out, f"{name}_report.json"),
                  seed=args.seed, config_hash=_config_hash(data),
                  wall_time_s=round(time.time() - t0, 3),
                  best_value=result.best_value,
                  evaluations=result.evaluations)
    print(f"{name}: best value {result.best_value:.3f} "
          f"over {result.evaluations} evaluations")
    return EXIT_OK


def cmd_solve(args) -> int:
    return _run_search(args, mmcs, "mmcs")


def cmd_mc_baseline(args) -> int:
    return _run_search(args, monte_carlo_search, "mc")


def cmd_compare_search(args) -> int:
    data, scfg, domain, _ = _delivery_setup(args, args.budget)
    n_seeds = args.seeds
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    summary = []
    for i in range(n_seeds):
        seed_i = args.seed + i
        a = mmcs(domain, scfg, np.random.default_rng(seed_i))
        b = monte_carlo_search(domain, scfg, np.random.default_rng(seed_i))
        for name, res in (("mmcs", a), ("mc", b)):
            _write_csv(os.path.join(args.out, f"{name}_trace_{i}.csv"),
                       ["evaluation", "best_value"], res.trace)
        _write_csv(os.path.join(args.out, f"scatter_{i}.csv"),
                   ["evaluation", "mmcs_value", "mc_value"],
                   [(e, va, vb) for (e, va), (_, vb)
                    in zip(a.samples, b.samples)])
        summary.append((i, a.best_value, b.best_value))
    _write_csv(os.path.join(args.out, "summary.csv"),
               ["seed_index", "mmcs_best", "mc_best"], summary)
    wins = sum(1 for _, a, b in summary if a >= b)
    _write_report(os.path.join(args.out, "report.json"),
                  seed=args.seed, seeds=n_seeds,
                  config_hash=_config_hash(data),
                  wall_time_s=round(time.time() - t0, 3),
                  mmcs_wins=wins)
    print(f"compare-search: MMCS won {wins}/{n_seeds} paired seeds")
    return EXIT_OK


def cmd_success_curve(args) -> int:
    _, scfg, domain, policy = _delivery_setup(args)
    n_runs = args.budget if args.budget is not None else 250
    curve = success_curve(policy, domain, n_runs, scfg.horizon_macro_steps,
                          np.random.default_rng(args.seed))
    _write_csv(args.out, ["k", "p_deliver_at_least_k"], curve)
    print(f"wrote {args.out} ({len(curve)} rows, n_runs={n_runs})")
    return EXIT_OK


def _check_policy(policy, domain) -> None:
    """Validate controller invariants against the domain; raises on failure."""
    tables = domain.sampling_tables
    alphabet = set(domain.obs_alphabet())
    if len(policy.controllers) != len(tables):
        raise ConfigError(f"policy has {len(policy.controllers)} controllers, "
                          f"domain has {len(tables)} agents")
    for agent, (c, (_, successors)) in enumerate(zip(policy.controllers,
                                                     tables)):
        if not isinstance(c.nodes, list):
            raise ConfigError(f"agent {agent}: nodes {c.nodes!r} is not a "
                              f"list of macro-actions")
        n = len(c.nodes)
        start = c.initial_node
        if isinstance(start, bool) or not isinstance(start, int) \
                or not 0 <= start < n:
            raise ConfigError(
                f"agent {agent}: initial node {start!r} is not a node index "
                f"in [0, {n})")
        for i, label in enumerate(c.nodes):
            if not isinstance(label, Hashable) or label not in successors:
                raise ConfigError(
                    f"agent {agent} node {i}: unknown macro-action {label!r}")
        for (i, obs), t in c.edges.items():
            if not 0 <= i < n:
                raise ConfigError(
                    f"agent {agent}: edge {[i, obs, t]!r} leaves node {i}, "
                    f"not a node index in [0, {n})")
            if obs not in alphabet:
                raise ConfigError(
                    f"agent {agent}: edge {[i, obs, t]!r} is taken on "
                    f"{obs!r}, not an observation of the domain")
        for i, label in enumerate(c.nodes):
            for obs, valid in successors[label]:
                if (i, obs) not in c.edges:
                    raise ConfigError(
                        f"agent {agent} node {i}: missing edge for {obs!r}")
                t = c.edges[(i, obs)]
                if not (0 <= t < n):
                    raise ConfigError(
                        f"agent {agent} node {i}: edge target {t} out of range")
                if c.nodes[t] not in valid:
                    raise NoValidSuccessor(
                        f"agent {agent}: {label!r} --{obs!r}--> "
                        f"{c.nodes[t]!r} violates initiation compatibility")


def cmd_validate_policy(args) -> int:
    _delivery_setup(args)
    print(f"{args.policy}: valid for this domain")
    return EXIT_OK


# the subcommands whose --out is a folder; every other one writes a file
FOLDER_OUTS = (cmd_solve, cmd_mc_baseline, cmd_compare_search)


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``, so a bad count
    exits 2 with a message that names its flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="macroplan",
        description="Belief-space macro-action planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_at_least(0), default=0)
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    out = {"--out": dict(required=True)}
    budget = {**out, "--budget": dict(type=_at_least(1), default=None)}
    policy = {"--policy": dict(required=True)}
    add("build-tma", cmd_build_tma, **out)
    add("solve", cmd_solve, **budget)
    add("mc-baseline", cmd_mc_baseline, **budget)
    add("compare-search", cmd_compare_search, **budget,
        **{"--seeds": dict(type=_at_least(1), default=20)})
    add("success-curve", cmd_success_curve, **budget, **policy)
    add("validate-policy", cmd_validate_policy, **policy)

    args = parser.parse_args(argv)
    try:
        if "out" in args:   # checked before any work
            _check_out(args.out, args.fn in FOLDER_OUTS)
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GoalUnreachable, NoValidSuccessor, NonConvergent, Unstabilizable,
            SingularChain) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
