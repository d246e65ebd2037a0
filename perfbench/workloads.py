"""The benchmark's workloads: inputs made from a seed, one operation per seed,
and the checks every output must pass.

Each workload is a closed loop in one process: one public-API call at a
time over consecutive seeds, with no threads or pools.

* ``tma-build``: one ``construct_tma`` per seed from the seed base, on the
  single-integrator problem in ``tma_build.yaml`` (``tma_single.yaml``
  resized to 8 milestones, 60 simulations per edge, 2 neighbours).  This is
  the offline phase: ``beliefs``, ``tma`` and ``chains`` do all the work.
  Some seeds raise ``NonConvergent`` from the graph DP; they stay in the
  block and count as failed operations.
* ``desk-solve``: one ``mmcs`` search per seed from ``1000 + seed base`` on
  the desk delivery domain.  This is the online phase: rollouts in
  ``decposmdp`` and ``delivery`` dominate, and ``search`` takes its masked
  path (``create_mask``, masked ``sample_valid_controller``).
* ``desk-baseline``: ``monte_carlo_search`` on the same domain and seeds.
  It uses the rollout layer with random controllers and ``search`` takes the
  unmasked sampling path, so a masking gain shows on ``desk-solve`` only
  while a rollout gain shows on both.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/macroplan`` to benchmark."""


def import_program():
    """Import ``macroplan`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "macroplan" / "__init__.py").is_file():
        raise ProgramMissing(f"no macroplan package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import macroplan
    if Path(macroplan.__file__).resolve().parent != SRC / "macroplan":
        raise ProgramMissing(f"macroplan imported from {macroplan.__file__}, "
                             f"not from {SRC}")
    return macroplan


# search settings of the tier-1 paired-search fixture
SEARCH = dict(n_nodes=13, budget=200, iter_max_mc=50, k_d=3,
              mask_threshold=0.99, explore_rate=0.35, n_rollouts=2,
              horizon_macro_steps=40)
DESK_SEED_OFFSET = 1000
TMA_PROBLEM = HERE / "tma_build.yaml"


@dataclass(frozen=True)
class Workload:
    name: str
    seed_offset: int      # seed base = seed_offset + --seed
    block: int            # seeds a timed run always runs; its digest,
                          # attempted and failed cover them
    trace_block: int      # seeds a traced run runs
    setup_reps: int       # set-ups per run; setup_s is their median
    op_span: Optional[str]  # benchmark-side span around the op, if the
                            # op's own function is not already traced
    setup: Callable[[Any], Any]
    op: Callable[[Any, Any, int], Any]
    record: Callable[[Any, Any, Any], Tuple[dict, List[str]]]


# ----- delivery search -------------------------------------------------------

def _desk_setup(mp):
    import numpy as np
    return mp.delivery.build_domain(mp.delivery.desk_config(),
                                    np.random.default_rng(0))


def _search_op(algorithm: str):
    def op(mp, domain, seed):
        import numpy as np
        cfg = mp.search.SearchConfig(**SEARCH)
        return getattr(mp.search, algorithm)(domain, cfg,
                                             np.random.default_rng(seed))
    return op


def policy_problems(domain, policy, n_nodes: int) -> List[str]:
    """Why ``policy`` is not a valid joint controller for ``domain``."""
    out = []
    if len(policy.controllers) != domain.n_agents:
        return [f"{len(policy.controllers)} controllers for "
                f"{domain.n_agents} agents"]
    alphabet = domain.obs_alphabet()
    for agent, c in enumerate(policy.controllers):
        roster = domain.roster(agent)
        if len(c.nodes) != n_nodes:
            out.append(f"agent {agent}: {len(c.nodes)} nodes, not {n_nodes}")
        for i, label in enumerate(c.nodes):
            if label not in roster:
                out.append(f"agent {agent} node {i}: {label!r} not in roster")
                continue
            for obs in alphabet:
                t = c.edges.get((i, obs))
                if t is None or not 0 <= t < len(c.nodes):
                    out.append(f"agent {agent} node {i} obs {obs!r}: "
                               f"edge target {t!r}")
                elif c.nodes[t] not in domain.valid_successors(agent, label,
                                                               obs):
                    out.append(f"agent {agent}: {label!r} --{obs!r}--> "
                               f"{c.nodes[t]!r} is not a valid successor")
    return out


def _search_record(mp, domain, result) -> Tuple[dict, List[str]]:
    problems = []
    if result.evaluations != SEARCH["budget"]:
        problems.append(f"{result.evaluations} evaluations, "
                        f"budget {SEARCH['budget']}")
    if not math.isfinite(result.best_value):
        problems.append(f"best_value {result.best_value!r} is not finite")
    problems += policy_problems(domain, result.best_policy, SEARCH["n_nodes"])
    record = {"best_value": repr(float(result.best_value)),
              "evaluations": result.evaluations,
              "trace": [[i, repr(float(v))] for i, v in result.trace]}
    return record, problems


# ----- TMA construction ------------------------------------------------------

def load_tma_problem(mp, path=TMA_PROBLEM):
    """Read a TMA problem file (the ``build-tma`` config layout) and build
    its model, start belief, goal and construction settings."""
    import numpy as np
    import yaml
    with open(path) as f:
        data = yaml.safe_load(f)
    model = mp.beliefs.LinearGaussianModel.from_dict(data["model"])
    start = mp.beliefs.GaussianBelief(
        mean=np.array(data["start"]["mean"], dtype=float),
        cov=np.array(data["start"]["cov"], dtype=float))
    goal = np.array(data["goal_mean"], dtype=float)
    t = dict(data["tma"])
    t["gain_spec"] = mp.beliefs.GainSpec.from_dict(t["gain_spec"])
    for key in ("bounds_lo", "bounds_hi"):
        t[key] = np.array(t[key], dtype=float)
    return model, start, goal, mp.tma.TmaConfig(**t)


def _tma_op(mp, problem, seed):
    import numpy as np
    model, start, goal, cfg = problem
    return mp.tma.construct_tma(start, goal, model, cfg,
                                np.random.default_rng(seed))


def _tma_record(mp, problem, tma) -> Tuple[dict, List[str]]:
    success = tma.success[tma.start_id]
    time = tma.time_to_goal[tma.start_id]
    problems = []
    if not 0.0 <= success <= 1.0:
        problems.append(f"start success {success!r} outside [0, 1]")
    if not (math.isfinite(time) and time > 0.0):
        problems.append(f"start expected time {time!r} is not finite and "
                        f"positive")
    return {"success": repr(float(success)), "time": repr(float(time))}, \
        problems


WORKLOADS = {
    "tma-build": Workload(
        name="tma-build", seed_offset=0, block=16, trace_block=8,
        setup_reps=25, op_span=None, setup=load_tma_problem, op=_tma_op,
        record=_tma_record),
    "desk-solve": Workload(
        name="desk-solve", seed_offset=DESK_SEED_OFFSET, block=8,
        trace_block=6, setup_reps=9, op_span="search.mmcs",
        setup=_desk_setup, op=_search_op("mmcs"), record=_search_record),
    "desk-baseline": Workload(
        name="desk-baseline", seed_offset=DESK_SEED_OFFSET, block=8,
        trace_block=6, setup_reps=9, op_span="search.monte_carlo_search",
        setup=_desk_setup, op=_search_op("monte_carlo_search"),
        record=_search_record),
}


# ----- per-seed outcomes -----------------------------------------------------

@dataclass
class Outcome:
    """One operation: its seed, wall time, the error class it raised (a
    ``MacroplanError`` subclass) or None, its checked record and problems.
    A timed run also sets ``scaled``, the wall time at the reference speed
    (``run.HostClock``)."""

    seed: int
    seconds: float
    error: Optional[str]
    record: dict
    problems: List[str]
    scaled: Optional[float] = None

    @property
    def digest(self) -> str:
        blob = json.dumps({"error": self.error, **self.record},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def run_op(mp, wl: Workload, ctx, seed: int, op=None) -> Outcome:
    """Run one operation and check its output.  Only ``MacroplanError``
    subclasses count as a failed operation; any other exception propagates
    and aborts the run."""
    from time import perf_counter
    op = op or wl.op
    t0 = perf_counter()
    try:
        result = op(mp, ctx, seed)
    except mp.errors.MacroplanError as e:
        return Outcome(seed, perf_counter() - t0, type(e).__name__, {}, [])
    seconds = perf_counter() - t0
    record, problems = wl.record(mp, ctx, result)
    return Outcome(seed, seconds, None, record, problems)


def block_digest(outcomes: List[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.seed}:{o.digest}\n".encode())
    return h.hexdigest()[:16]


def source_hash() -> str:
    """Hash of the program and benchmark sources: records of earlier runs are
    compared only against runs of identical code."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) \
        + sorted(HERE.glob("*.yaml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]
