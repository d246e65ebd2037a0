"""Release gate: one test per exit criterion, each printing a PASS/FAIL line.

These tests are intentionally self-contained: oracles are recomputed here
(iterative recursions, Monte Carlo rollouts, exhaustive enumeration) rather
than imported from the module under test.
"""

import itertools
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from macroplan.beliefs import (BallIndex, GaussianBelief,
                               LinearGaussianModel, SimState, design_lma,
                               run_lma, stationary_covariance,
                               TerminationRecord)
from macroplan.chains import (absorption_probabilities,
                              expected_absorption_times)
from macroplan.cli import EXIT_OK, main as cli_main
from macroplan.decposmdp import (Domain, JointConfig, RewardSpec,
                                 TimedExecution, TmaSpec, run_rollout,
                                 segment_starts, step_joint)
from macroplan.delivery import build_domain, desk_config, success_curve
from macroplan.search import (JointPolicy, PolicyController, SearchConfig,
                              mmcs, monte_carlo_search, sample_joint_policy)
from macroplan.tma import (FAILURE_ID, GraphEdge, Milestone, TmaGraph,
                           solve_graph_dp)


from conftest import ACCEPTANCE_RESULTS


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        ACCEPTANCE_RESULTS.append((name, False))
        print(f"[acceptance] {name}: FAIL", file=sys.__stderr__, flush=True)
        raise
    ACCEPTANCE_RESULTS.append((name, True))
    print(f"[acceptance] {name}: PASS", file=sys.__stderr__, flush=True)


def _dummy_sim():
    b = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    return SimState(truth=np.zeros(1), belief=b)


def _random_absorbing_chain(rng, n):
    q = rng.random((n, n))
    q /= q.sum(axis=1, keepdims=True)
    leak = 0.05 + 0.9 * rng.random(n)
    q *= (1.0 - leak)[:, None]
    to_goal = leak * rng.random(n)
    times = 0.5 + rng.random(n) * 5.0
    return q, to_goal, times


# ---------------------------------------------------------------------------
# 1. matrix-form expected times match the iterative recursion
# ---------------------------------------------------------------------------

def test_matrix_times_match_iterative_recursion():
    with criterion("expected-time matrix form vs iterative recursion"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(1, 21))
            q, to_goal, times = _random_absorbing_chain(rng, n)
            matrix_form = expected_absorption_times(q, times)
            probs = absorption_probabilities(q, to_goal)
            # iterative oracle: T_{k+1} = t + Q T_k
            t_iter = np.zeros(n)
            for _ in range(100_000):
                t_next = times + q @ t_iter
                if np.max(np.abs(t_next - t_iter)) <= 1e-13:
                    break
                t_iter = t_next
            assert np.max(np.abs(matrix_form - t_next)) <= 1e-9, trial
            assert np.all(probs >= -1e-12) and np.all(probs <= 1 + 1e-12)
        assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. analytic chain quantities vs 1e5-trial seeded rollouts
# ---------------------------------------------------------------------------

def _roll_chain(rng, q, to_goal, times, n_trials):
    """Vectorized chain rollouts: returns (goal hit flags, absorption times)."""
    n = q.shape[0]
    # states 0..n-1 transient, n = goal, n+1 = fail
    full = np.zeros((n + 2, n + 2))
    full[:n, :n] = q
    full[:n, n] = to_goal
    full[:n, n + 1] = 1.0 - q.sum(axis=1) - to_goal
    full[n, n] = full[n + 1, n + 1] = 1.0
    cum = np.cumsum(full, axis=1)
    state = np.zeros(n_trials, dtype=int)
    total_time = np.zeros(n_trials)
    for _ in range(10_000):
        active = state < n
        if not active.any():
            break
        total_time[active] += times[state[active]]
        u = rng.random(int(active.sum()))
        state[active] = np.argmax(cum[state[active]] > u[:, None], axis=1)
    return state == n, total_time


def test_analytic_chain_vs_simulation():
    with criterion("analytic success/time vs 1e5-trial simulation"):
        rng = np.random.default_rng(7)
        n_trials = 100_000
        t0 = time.perf_counter()
        for trial in range(20):
            n = int(rng.integers(2, 9))
            q, to_goal, times = _random_absorbing_chain(rng, n)
            h = absorption_probabilities(q, to_goal)
            t = expected_absorption_times(q, times)
            goal_hit, t_sim = _roll_chain(rng, q, to_goal, times, n_trials)
            p_hat = goal_hit.mean()
            se_p = max(np.sqrt(p_hat * (1 - p_hat) / n_trials), 1e-12)
            assert abs(p_hat - h[0]) <= 3 * se_p, trial
            se_t = t_sim.std(ddof=1) / np.sqrt(n_trials)
            assert abs(t_sim.mean() - t[0]) <= 3 * se_t, trial
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. graph DP vs exact policy enumeration
# ---------------------------------------------------------------------------

def _toy_edge(from_id, to_id, probs, reward, time_=1.0):
    return GraphEdge(from_id=from_id, to_id=to_id,
                     landing_probs=probs, reward=reward, time=time_,
                     sample_count=1)


def _random_enumerable_graph(rng):
    """3 transient nodes (2, 3, 4), goal 1, failure 0; 2 edges per node,
    every edge leaks >= 0.1 into the absorbing pair so all policies are
    proper."""
    ids = [2, 3, 4]
    milestones = {0: Milestone(id=0, center=None, epsilon=1.0)}
    for i in [1] + ids:
        milestones[i] = Milestone(id=i, center=GaussianBelief([float(i)], [[0.01]]),
                                  epsilon=0.1)
    edges = {}
    for i in ids:
        out = []
        for to in rng.choice(ids + [1], size=2, replace=False):
            w = rng.random(2)
            leak = 0.1 + 0.8 * rng.random()
            probs = {1: 0.0, 0: 0.0}
            probs[1] += leak * w[0] / w.sum()
            probs[0] += leak * w[1] / w.sum()
            probs[int(to)] = probs.get(int(to), 0.0) + 1.0 - leak
            out.append(_toy_edge(i, int(to), probs,
                                 reward=float(-rng.random() * 3)))
        edges[i] = out
    return TmaGraph(milestones=milestones, edges=edges, goal_id=1,
                    failure_value=-50.0)


def _exact_policy_value(graph, choice):
    ids = graph.transient_ids()
    idx = {i: k for k, i in enumerate(ids)}
    n = len(ids)
    A = np.eye(n)
    b = np.zeros(n)
    for i in ids:
        e = choice[i]
        b[idx[i]] += e.reward
        for j, p in e.landing_probs.items():
            if p == 0.0:
                continue
            if j == graph.goal_id:
                pass  # V(goal) = 0
            elif j == FAILURE_ID:
                b[idx[i]] += p * graph.failure_value
            else:
                A[idx[i], idx[j]] -= p
    return dict(zip(ids, np.linalg.solve(A, b)))


def test_graph_dp_matches_exhaustive_policies():
    with criterion("graph DP vs exact policy-evaluation linear solves"):
        rng = np.random.default_rng(41)
        for _ in range(25):
            graph = _random_enumerable_graph(rng)
            values, policy = solve_graph_dp(graph, tol=1e-12)
            ids = graph.transient_ids()
            best = {i: -np.inf for i in ids}
            for combo in itertools.product(*(graph.outgoing(i) for i in ids)):
                v = _exact_policy_value(graph, dict(zip(ids, combo)))
                for i in ids:
                    best[i] = max(best[i], v[i])
            for i in ids:
                assert abs(values[i] - best[i]) <= 1e-8, (i, values[i], best[i])
            # no single-edge deviation improves the Bellman right-hand side
            full = {graph.goal_id: 0.0, FAILURE_ID: graph.failure_value,
                    **values}
            for i in ids:
                chosen = policy[i]
                rhs_star = chosen.reward + sum(
                    p * full[j] for j, p in chosen.landing_probs.items())
                for e in graph.outgoing(i):
                    rhs = e.reward + sum(p * full[j]
                                         for j, p in e.landing_probs.items())
                    assert rhs <= rhs_star + 1e-8


# ---------------------------------------------------------------------------
# 4. Riccati fixed point and funnel convergence
# ---------------------------------------------------------------------------

def _riccati_residual(model, P):
    Pm = model.A @ P @ model.A.T + model.Q
    S = model.C @ Pm @ model.C.T + model.R_obs
    K = np.linalg.solve(S.T, (Pm @ model.C.T).T).T
    ikc = np.eye(model.state_dim) - K @ model.C
    P_next = ikc @ Pm @ ikc.T + K @ model.R_obs @ K.T
    return float(np.max(np.abs(P_next - P)))


def test_riccati_fixed_point_and_funnel():
    with criterion("Riccati fixed point 1e-9 and >=99% funnel convergence"):
        scalar = LinearGaussianModel(A=[[1.0]], G=[[1.0]], C=[[1.0]],
                                     Q=[[1e-4]], R_obs=[[1e-4]])
        planar = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                     Q=1e-4 * np.eye(2),
                                     R_obs=1e-4 * np.eye(2))
        rng = np.random.default_rng(99)
        for model in (scalar, planar):
            P = stationary_covariance(model)
            assert _riccati_residual(model, P) <= 1e-9
            target = np.zeros(model.state_dim) + 0.8
            lma = design_lma(model, target)
            stop = BallIndex([Milestone(id=1, center=lma.attractor,
                                        epsilon=0.05)])
            landed = 0
            for _ in range(1000):
                x0 = np.full(model.state_dim, 0.1)
                sim = SimState(truth=x0.copy(),
                               belief=GaussianBelief(mean=x0, cov=P.copy()))
                rec = run_lma(lma, sim, stop, model, max_steps=500, rng=rng)
                landed += rec.outcome == TerminationRecord.LANDED
            assert landed >= 990, landed


# ---------------------------------------------------------------------------
# shared desk-scale search fixtures (criteria 5, 7, 8)
# ---------------------------------------------------------------------------

N_PAIRED_SEEDS = 20
SEED_OFFSET = 1000


@pytest.fixture(scope="module")
def desk_domain():
    return build_domain(desk_config(), np.random.default_rng(0))


def _desk_search_config():
    return SearchConfig(n_nodes=13, budget=200, iter_max_mc=50, k_d=3,
                        mask_threshold=0.99, explore_rate=0.35, n_rollouts=2,
                        horizon_macro_steps=40)


@pytest.fixture(scope="module")
def paired_searches(desk_domain):
    scfg = _desk_search_config()
    t0 = time.perf_counter()
    pairs = []
    for s in range(N_PAIRED_SEEDS):
        a = mmcs(desk_domain, scfg, np.random.default_rng(SEED_OFFSET + s))
        b = monte_carlo_search(desk_domain, scfg,
                               np.random.default_rng(SEED_OFFSET + s))
        pairs.append((a, b))
    return pairs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 5. semi-Markov bookkeeping identity on every evaluation rollout
# ---------------------------------------------------------------------------

def test_semi_markov_identity(desk_domain):
    with criterion("semi-Markov macro/primitive value identity 1e-9"):
        rng = np.random.default_rng(8)
        for _ in range(30):
            pol = sample_joint_policy(desk_domain, 13, rng)
            trace = run_rollout(pol, desk_domain, 40, rng.spawn(1)[0])
            assert abs(trace.value - trace.primitive_value) <= 1e-9 * max(
                1.0, abs(trace.value))


# ---------------------------------------------------------------------------
# 6. asynchronous macro termination
# ---------------------------------------------------------------------------

class _TwoTimerDomain(Domain):
    n_agents = 2

    def __init__(self):
        self.rewards = RewardSpec(discount=1.0)
        self._roster = {
            "t3": TmaSpec(duration=3, step_reward=-1.0),
            "t9": TmaSpec(duration=9, step_reward=-1.0),
        }

    def roster(self, agent):
        return self._roster

    def obs_alphabet(self):
        return ["o"]

    def observe(self, agent, config):
        return "o"

    def initiation_ok(self, agent, tma_id, config):
        return True

    def begin_executions(self, starts, config):
        return [TimedExecution(spec, agents) for spec, agents in starts]

    def team_reward(self, events, config):
        return 0.0

    def e_dynamics(self, events, config, rng):
        pass

    def initial(self, rng):
        return JointConfig(sims=[_dummy_sim(), _dummy_sim()], world=None)


def test_asynchronous_termination():
    with criterion("asynchrony: tau_min = 3, observation only for terminator"):
        domain = _TwoTimerDomain()
        rng = np.random.default_rng(0)
        config = domain.initial(rng)
        seg = step_joint(
            config, segment_starts(config, {0: "t3", 1: "t9"}, domain),
            domain, rng)
        assert seg.tau_min == 3
        assert set(seg.observations) == {0}
        assert 1 in config.executions and 0 not in config.executions
        # the long macro-action keeps running through later segments
        seg = step_joint(config, segment_starts(config, {0: "t3"}, domain),
                         domain, rng)
        assert seg.tau_min == 3 and set(seg.observations) == {0}
        seg = step_joint(config, segment_starts(config, {0: "t9"}, domain),
                         domain, rng)
        assert seg.tau_min == 3 and set(seg.observations) == {1}
        assert config.clock == 9


# ---------------------------------------------------------------------------
# 7. masked search dominates the plain Monte Carlo baseline
# ---------------------------------------------------------------------------

def test_masked_search_beats_baseline(paired_searches):
    with criterion("masked search >= baseline on >=80% of 20 paired seeds, "
                   "median improvement >= 25%"):
        pairs, elapsed = paired_searches
        wins = sum(1 for a, b in pairs if a.best_value >= b.best_value)
        imps = [(a.best_value - b.best_value) / abs(b.best_value)
                for a, b in pairs]
        assert wins >= 0.8 * N_PAIRED_SEEDS, (wins, imps)
        assert np.median(imps) >= 0.25, (wins, np.median(imps))
        assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. qualitative delivery-count separation over 250 runs
# ---------------------------------------------------------------------------

def test_delivery_count_separation(desk_domain, paired_searches):
    with criterion("P(deliver >= 3): baseline < 0.05, masked search >= 0.2"):
        pairs, _ = paired_searches
        mmcs_best, mc_best = pairs[0]
        horizon = 45  # evaluation window for the delivery-count histogram
        curves = {}
        for name, res in (("mmcs", mmcs_best), ("mc", mc_best)):
            curve = success_curve(res.best_policy, desk_domain, 250, horizon,
                                  np.random.default_rng(4242))
            probs = dict(curve)
            # non-increasing in k by construction
            ps = [p for _, p in curve]
            assert all(x >= y for x, y in zip(ps, ps[1:]))
            curves[name] = probs.get(3, 0.0)
        assert curves["mc"] < 0.05, curves
        assert curves["mmcs"] >= 0.2, curves


# ---------------------------------------------------------------------------
# 9. small-space optimality
# ---------------------------------------------------------------------------

class _TinyDomain(Domain):
    """One agent, two 1-node-roster macro-actions, one observation: the
    joint policy space with 2 nodes has at most 2^2 * 2^2 = 16 members."""

    n_agents = 1

    def __init__(self):
        self.rewards = RewardSpec(discount=1.0)
        self._roster = {
            "good": TmaSpec(duration=1,
                            step_reward=5.0),
            "bad": TmaSpec(duration=1,
                           step_reward=-1.0),
        }

    def roster(self, agent):
        return self._roster

    def obs_alphabet(self):
        return ["o"]

    def observe(self, agent, config):
        return "o"

    def initiation_ok(self, agent, tma_id, config):
        return True

    def begin_executions(self, starts, config):
        return [TimedExecution(spec, agents) for spec, agents in starts]

    def team_reward(self, events, config):
        return 0.0

    def e_dynamics(self, events, config, rng):
        pass

    def initial(self, rng):
        return JointConfig(sims=[_dummy_sim()], world=None)


def _enumerate_tiny_policies():
    labels = ("good", "bad")
    for n0, n1 in itertools.product(labels, repeat=2):
        for e0, e1 in itertools.product((0, 1), repeat=2):
            yield JointPolicy(controllers=[PolicyController(
                nodes=[n0, n1], edges={(0, "o"): e0, (1, "o"): e1})])


def test_small_space_optimality():
    with criterion("masked search finds the exhaustive optimum"):
        domain = _TinyDomain()
        horizon = 8
        exact = []
        for pol in _enumerate_tiny_policies():
            trace = run_rollout(pol, domain, horizon, np.random.default_rng(0))
            exact.append((trace.value, pol))
        optimum = max(v for v, _ in exact)
        assert len(exact) <= 200
        cfg = SearchConfig(n_nodes=2, budget=60, iter_max_mc=15, k_d=3,
                           mask_threshold=0.99, n_rollouts=2,
                           horizon_macro_steps=horizon)
        for seed in range(3):
            res = mmcs(domain, cfg, np.random.default_rng(seed))
            assert res.best_value == pytest.approx(optimum, abs=1e-9), seed


# ---------------------------------------------------------------------------
# 10. byte-identical reruns
# ---------------------------------------------------------------------------

def test_cli_determinism(tmp_path):
    with criterion("byte-identical CSV outputs on rerun"):
        cfg_path = tmp_path / "delivery.yaml"
        with open(cfg_path, "w") as f:
            yaml.safe_dump({"preset": "desk",
                            "search": {"n_nodes": 13, "budget": 10,
                                       "iter_max_mc": 5, "k_d": 3,
                                       "mask_threshold": 0.99}}, f)
        csvs = {}
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert cli_main(["solve", "--config", str(cfg_path), "--seed",
                             "6", "--out", str(out / "solve")]) == EXIT_OK
            assert cli_main(["mc-baseline", "--config", str(cfg_path),
                             "--seed", "6",
                             "--out", str(out / "mc")]) == EXIT_OK
            assert cli_main(["success-curve", "--config", str(cfg_path),
                             "--seed", "6", "--budget", "20",
                             "--policy", str(out / "solve/mmcs_policy.json"),
                             "--out", str(out / "curve.csv")]) == EXIT_OK
            assert cli_main(["compare-search", "--config", str(cfg_path),
                             "--seed", "6", "--seeds", "2", "--budget", "6",
                             "--out", str(out / "cmp")]) == EXIT_OK
            blobs = {}
            for p in sorted(out.rglob("*.csv")):
                blobs[str(p.relative_to(out))] = p.read_bytes()
            csvs[run] = blobs
        assert csvs["r1"].keys() == csvs["r2"].keys()
        for key in csvs["r1"]:
            assert csvs["r1"][key] == csvs["r2"][key], key
