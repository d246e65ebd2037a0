import hashlib
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroplan.beliefs import (W_COV, W_MEAN, BallIndex, GainSpec,
                               GaussianBelief, LinearGaussianModel, Lma,
                               PredicateConstraints, SimState, StepCost,
                               design_lma, run_lma, stationary_covariance)
from macroplan.delivery import DeliveryConfig, build_domain, desk_config
from macroplan import beliefs as beliefs_module
from macroplan import tma as tma_module
from macroplan.errors import (ConfigError, GoalUnreachable, MacroplanError,
                              NonConvergent, NoOutgoingEdge, SingularChain)
from macroplan.tma import (GraphEdge, Milestone, Tma, TmaConfig, TmaGraph,
                           ball_index, construct_tma, estimate_edge,
                           expected_times,
                           solve_graph_dp, success_probabilities,
                           tma_to_dict)


def scalar_model(**kw):
    return LinearGaussianModel(A=[[1.0]], G=[[1.0]], C=[[1.0]],
                               Q=[[1e-4]], R_obs=[[1e-4]], **kw)


def edge(from_id, to_id, probs, reward=-1.0, time=1.0):
    return GraphEdge(from_id=from_id, to_id=to_id,
                     landing_probs=probs, reward=reward, time=time,
                     sample_count=1)


def milestone(mid, mean, eps=0.1, cov=None):
    if mid == 0:
        return Milestone(id=0, center=None, epsilon=1.0)
    cov = cov if cov is not None else [[0.01]]
    return Milestone(id=mid, center=GaussianBelief([mean], cov), epsilon=eps)


def small_graph(edges_by_node, n_nodes, goal_id=1, failure_value=-100.0):
    milestones = {i: milestone(i, float(i)) for i in range(n_nodes + 1)}
    return TmaGraph(milestones=milestones, edges=edges_by_node,
                    goal_id=goal_id, failure_value=failure_value)


class TestSolveGraphDp:
    def test_one_step_hand_solved(self):
        # single edge: P(goal)=0.9, P(fail)=0.1, R=-1 -> V = -11
        e = edge(2, 1, {0: 0.1, 1: 0.9, 2: 0.0})
        g = small_graph({2: [e]}, n_nodes=2)
        values, policy = solve_graph_dp(g)
        assert values[2] == pytest.approx(-11.0, abs=1e-9)
        assert policy[2] is e

    def test_zero_rewards_zero_values(self):
        e = edge(2, 1, {0: 0.0, 1: 1.0, 2: 0.0}, reward=0.0)
        g = small_graph({2: [e]}, n_nodes=2)
        values, _ = solve_graph_dp(g)
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_matches_policy_evaluation_linear_solve(self):
        # 5-node random graph: enumerate deterministic policies, evaluate each
        # by exact linear solve, compare the best against value iteration
        rng = np.random.default_rng(3)
        n = 5  # ids: 0 fail, 1 goal, 2..4 transient
        trans = [2, 3, 4]
        edges = {}
        for i in trans:
            outs = []
            for j in (t for t in [1, 2, 3, 4] if t != i):
                p = rng.dirichlet(np.ones(5)) * 0.6
                probs = {k: p[k] for k in range(5)}
                probs[j] += 0.4
                outs.append(edge(i, j, probs, reward=float(-rng.random() * 3)))
            edges[i] = outs
        g = small_graph(edges, n_nodes=4)
        values, policy = solve_graph_dp(g, tol=1e-12)

        best = {i: -np.inf for i in trans}
        for choice in itertools.product(*[edges[i] for i in trans]):
            pol = dict(zip(trans, choice))
            A = np.eye(3)
            b = np.zeros(3)
            for r, i in enumerate(trans):
                e = pol[i]
                b[r] = e.reward + e.landing_probs[1] * 0.0 + e.landing_probs[0] * g.failure_value
                for cidx, j in enumerate(trans):
                    A[r, cidx] -= e.landing_probs.get(j, 0.0)
            v = np.linalg.solve(A, b)
            for r, i in enumerate(trans):
                best[i] = max(best[i], v[r])
        for i in trans:
            assert values[i] == pytest.approx(best[i], abs=1e-8)

        # no single-edge deviation improves the Bellman RHS by more than tol
        for i in trans:
            rhs_star = policy[i].reward + sum(
                p * values[j] for j, p in policy[i].landing_probs.items())
            for e in edges[i]:
                rhs = e.reward + sum(p * values[j]
                                     for j, p in e.landing_probs.items())
                assert rhs <= rhs_star + 1e-8

    def test_no_outgoing_edge_raises(self):
        g = small_graph({2: [edge(2, 3, {0: 0, 1: 0, 2: 0, 3: 1.0})], 3: []},
                        n_nodes=3)
        with pytest.raises(NoOutgoingEdge):
            solve_graph_dp(g)

    def test_failure_value_monotonicity(self):
        rng = np.random.default_rng(9)
        edges = {}
        for i in [2, 3]:
            p = rng.dirichlet(np.ones(4))
            probs = {k: p[k] for k in range(4)}
            edges[i] = [edge(i, 1, probs, reward=-0.5)]
        vals = []
        for fv in [-200.0, -100.0, -10.0, 0.0]:
            g = small_graph(edges, n_nodes=3, failure_value=fv)
            v, _ = solve_graph_dp(g)
            vals.append(v)
        for lo, hi in zip(vals, vals[1:]):
            for i in [2, 3]:
                assert hi[i] >= lo[i] - 1e-12


def plain_sweeps(graph, tol, max_sweeps):
    """Reference Gauss-Seidel value iteration with no early check: the
    values once converged, or None if ``max_sweeps`` sweeps do not converge."""
    values = {graph.goal_id: 0.0, 0: graph.failure_value}
    transient = graph.transient_ids()
    for i in transient:
        values[i] = 0.0
    for _ in range(max_sweeps):
        delta = 0.0
        for i in transient:
            best = -np.inf
            for e in sorted(graph.outgoing(i), key=lambda e: e.to_id):
                rhs = e.reward + sum(p * values[j]
                                     for j, p in e.landing_probs.items() if p)
                if rhs > best:
                    best = rhs
            delta = max(delta, abs(best - values[i]))
            values[i] = best
        if delta <= tol:
            return values
    return None


def raises_early(graph):
    """Whether solve_graph_dp rejects ``graph`` before its first sweep."""
    with pytest.raises(NonConvergent) as info:
        solve_graph_dp(graph, max_sweeps=0)
    return "never reach" in str(info.value)


@st.composite
def quarter_graphs(draw):
    """Graphs of 3-5 nodes whose landing masses are multiples of 1/4 and
    whose edge rewards are all zero or all negative."""
    n = draw(st.integers(min_value=3, max_value=5))
    negative = draw(st.booleans())
    edges = {}
    for i in range(2, n):
        targets = draw(st.lists(st.sampled_from([t for t in range(1, n) if t != i]),
                                min_size=1, max_size=3, unique=True))
        outs = []
        for j in targets:
            lands = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4))
            probs = {k: lands.count(k) / 4 for k in range(n)}
            reward = (draw(st.sampled_from([-0.25, -1.0, -2.5]))
                      if negative else 0.0)
            outs.append(edge(i, j, probs, reward=reward))
        edges[i] = outs
    return small_graph(edges, n_nodes=n - 1)


class TestGraphDpEarlyFailure:
    def test_closed_negative_cycle_fails_fast(self):
        e23 = edge(2, 3, {0: 0, 1: 0, 2: 0, 3: 1.0}, reward=-1.0)
        e32 = edge(3, 2, {0: 0, 1: 0, 2: 1.0, 3: 0}, reward=-1.0)
        g = small_graph({2: [e23], 3: [e32]}, n_nodes=3)
        t0 = time.perf_counter()
        with pytest.raises(NonConvergent, match=r"nodes \[2, 3\]"):
            solve_graph_dp(g)
        assert time.perf_counter() - t0 < 0.1

    def test_zero_reward_cycle_keeps_sweeping(self):
        e23 = edge(2, 3, {0: 0, 1: 0, 2: 0, 3: 1.0}, reward=0.0)
        e32 = edge(3, 2, {0: 0, 1: 0, 2: 1.0, 3: 0}, reward=0.0)
        g = small_graph({2: [e23], 3: [e32]}, n_nodes=3)
        assert not raises_early(g)
        values, policy = solve_graph_dp(g)
        assert values[2] == values[3] == 0.0
        assert policy == {2: e23, 3: e32}

    @settings(max_examples=150, deadline=None)
    @given(quarter_graphs())
    def test_early_check_iff_sweeps_diverge(self, g):
        ref = plain_sweeps(g, tol=1e-9, max_sweeps=2000)
        assert raises_early(g) == (ref is None)
        if ref is not None:
            values, _ = solve_graph_dp(g, tol=1e-9, max_sweeps=2000)
            assert values == ref


class TestChainAnalytics:
    def test_success_at_goal_is_one(self):
        e = edge(2, 1, {0: 0.0, 1: 1.0, 2: 0.0}, reward=0.0)
        g = small_graph({2: [e]}, n_nodes=2)
        _, policy = solve_graph_dp(g)
        s = success_probabilities(g, policy)
        assert s[1] == 1.0 and s[0] == 0.0

    def test_self_loop_closed_forms(self):
        e = edge(2, 1, {0: 0.1, 1: 0.4, 2: 0.5}, time=2.0)
        g = small_graph({2: [e]}, n_nodes=2)
        _, policy = solve_graph_dp(g)
        s = success_probabilities(g, policy)
        t = expected_times(g, policy)
        assert s[2] == pytest.approx(0.8, abs=1e-12)
        assert t[2] == pytest.approx(4.0, abs=1e-12)
        assert t[1] == 0.0

    def test_ten_node_matches_rollout_oracle(self):
        rng = np.random.default_rng(21)
        trans = list(range(2, 10))
        edges = {}
        for i in trans:
            p = rng.dirichlet(np.ones(10))
            probs = {k: float(p[k]) for k in range(10)}
            edges[i] = [edge(i, 1, probs, time=float(1 + rng.random() * 3))]
        g = small_graph(edges, n_nodes=9)
        _, policy = solve_graph_dp(g)
        s = success_probabilities(g, policy)
        t = expected_times(g, policy)

        # Monte Carlo rollouts of the embedded chain
        trials = 10**6
        ids = [0, 1] + trans
        P = np.zeros((10, 10))
        dur = np.zeros(10)
        for i in trans:
            for j, p in policy[i].landing_probs.items():
                P[i, j] = p
            dur[i] = policy[i].time
        P[0, 0] = P[1, 1] = 1.0
        cdf = np.cumsum(P, axis=1)
        state = np.full(trials, 2)
        time_acc = np.zeros(trials)
        for _ in range(5000):
            live = state >= 2
            if not live.any():
                break
            time_acc[live] += dur[state[live]]
            u = rng.random(live.sum())
            state[live] = (u[:, None] > cdf[state[live]]).sum(axis=1)
        p_hat = np.mean(state == 1)
        se_p = np.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - s[2]) <= 3 * se_p + 1e-9
        t_hat = time_acc.mean()
        se_t = time_acc.std(ddof=1) / np.sqrt(trials)
        assert abs(t_hat - t[2]) <= 3 * se_t

    def test_closed_transient_class_raises(self):
        e23 = edge(2, 3, {0: 0, 1: 0, 2: 0, 3: 1.0})
        e32 = edge(3, 2, {0: 0, 1: 0, 2: 1.0, 3: 0})
        g = small_graph({2: [e23], 3: [e32]}, n_nodes=3)
        pol = {2: e23, 3: e32}
        with pytest.raises(SingularChain):
            success_probabilities(g, pol)


def build_scalar_tma(seed=0, n_nodes=4, constraints=None, goal=1.0, **cfg_kw):
    kw = {}
    if constraints is not None:
        kw["constraints"] = constraints
    model = scalar_model(step_cost=StepCost(base=0.01), **kw)
    cfg = TmaConfig(n_nodes=n_nodes, k_neighbors=2, m_sims=30, epsilon=0.08,
                    max_steps=2000, bounds_lo=np.array([0.0]),
                    bounds_hi=np.array([1.0]), **cfg_kw)
    start = GaussianBelief([0.0], stationary_covariance(model))
    return construct_tma(start, [goal], model, cfg,
                         np.random.default_rng(seed)), model


class TestEstimateEdge:
    def test_deterministic_funnel_unit_mass(self):
        model = LinearGaussianModel(A=[[1.0]], G=[[1.0]], C=[[1.0]],
                                    Q=[[1e-14]], R_obs=[[1e-14]])
        p = stationary_covariance(model)
        ms = {0: Milestone(id=0, center=None, epsilon=1.0),
              1: Milestone(id=1, center=GaussianBelief([1.0], p), epsilon=0.05),
              2: Milestone(id=2, center=GaussianBelief([0.0], p), epsilon=1e-6)}
        lma = design_lma(model, [1.0])
        e = estimate_edge(ms[2], lma, 1, ball_index(ms), model, m=20, max_steps=1000,
                          rng=np.random.default_rng(0))
        assert e.landing_probs[1] == 1.0
        assert e.time > 0

    def test_frequencies_match_high_m_oracle(self):
        model = scalar_model()
        p = stationary_covariance(model)
        wall = PredicateConstraints(lambda x: 0.45 <= x[0] <= 0.55)
        model_wall = scalar_model(constraints=wall)
        ms = {0: Milestone(id=0, center=None, epsilon=1.0),
              1: Milestone(id=1, center=GaussianBelief([1.0], p), epsilon=0.05),
              2: Milestone(id=2, center=GaussianBelief([0.0], p), epsilon=0.02)}
        lma = design_lma(model_wall, [1.0])
        e_small = estimate_edge(ms[2], lma, 1, ball_index(ms), model_wall, m=1000,
                                max_steps=1000, rng=np.random.default_rng(1))
        e_big = estimate_edge(ms[2], lma, 1, ball_index(ms), model_wall, m=10_000,
                              max_steps=1000, rng=np.random.default_rng(2))
        p_ref = e_big.landing_probs[1]
        tol = 3 * np.sqrt(max(p_ref * (1 - p_ref), 1e-6) / 1000)
        assert abs(e_small.landing_probs[1] - p_ref) <= tol + 0.01

    def test_constraint_wall_fails(self):
        # wall wide enough that the discrete closed-loop trajectory must
        # land inside it on the way to the goal
        wall = PredicateConstraints(lambda x: 0.3 <= x[0] <= 0.8)
        model = scalar_model(constraints=wall)
        p = stationary_covariance(model)
        ms = {0: Milestone(id=0, center=None, epsilon=1.0),
              1: Milestone(id=1, center=GaussianBelief([1.0], p), epsilon=0.05),
              2: Milestone(id=2, center=GaussianBelief([0.0], p), epsilon=0.02)}
        lma = design_lma(model, [1.0])
        e = estimate_edge(ms[2], lma, 1, ball_index(ms), model, m=200, max_steps=1000,
                          rng=np.random.default_rng(3))
        assert e.landing_probs[0] >= 0.95

    def test_probability_closure(self):
        tma, _ = build_scalar_tma(seed=4)
        for edges in tma.graph.edges.values():
            for e in edges:
                assert abs(sum(e.landing_probs.values()) - 1.0) <= 1e-9


class TestConstructTma:
    def test_two_node_direct_edge(self):
        tma, _ = build_scalar_tma(seed=0, n_nodes=2)
        start_id = tma.start_id
        assert tma.policy[start_id].to_id == 1
        assert tma.success[start_id] >= 0.99

    def test_goal_equals_start(self):
        model = scalar_model()
        p = stationary_covariance(model)
        start = GaussianBelief([0.5], p)
        cfg = TmaConfig(n_nodes=2, k_neighbors=1, m_sims=10, epsilon=0.1,
                        max_steps=500, bounds_lo=np.array([0.0]),
                        bounds_hi=np.array([1.0]))
        tma = construct_tma(start, [0.5], model, cfg, np.random.default_rng(0))
        # start lies inside the goal ball: a walk from it never enters
        # the graph
        assert tma.entry_node_at(start.mean.tolist(), start.cov) is None

    def test_blocked_workspace_unreachable(self):
        # wall across the only route: every edge simulation absorbs in B0
        blocked = PredicateConstraints(lambda x: 0.3 <= x[0] <= 0.8)
        with pytest.raises(GoalUnreachable):
            build_scalar_tma(seed=1, n_nodes=2, constraints=blocked)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_integrator_milestones_can_settle(self, seed):
        # velocities are drawn from [-0.2, 0.2]^2, but a funnel holds a
        # target still only where (A - I) x = 0, that is at zero velocity
        A = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
        model = LinearGaussianModel(
            A=A, G=np.vstack([0.5 * np.eye(2), np.eye(2)]),
            C=np.hstack([np.eye(2), np.zeros((2, 2))]), Q=2e-5 * np.eye(4),
            R_obs=2e-5 * np.eye(2), step_cost=StepCost(base=0.01))
        lo, hi = np.array([0, 0, -0.2, -0.2]), np.array([1, 1, 0.2, 0.2])
        cfg = TmaConfig(n_nodes=5, k_neighbors=4, m_sims=5, epsilon=0.06,
                        max_steps=400, bounds_lo=lo, bounds_hi=hi,
                        gain_spec=GainSpec(kind="lqr", control_weight=8.0))
        start = GaussianBelief([0.5, 0.7, 0.0, 0.0], 1e-4 * np.eye(4))
        tma = construct_tma(start, [0.15, 0.2, 0.0, 0.0], model, cfg,
                            np.random.default_rng(seed))
        sampled = [ms.center.mean for i, ms in tma.graph.milestones.items()
                   if i not in (0, 1, tma.start_id)]
        assert len(sampled) == 3
        for mean in sampled:
            assert np.allclose((A - np.eye(4)) @ mean, 0.0, atol=1e-12)
            assert np.all((lo[:2] <= mean[:2]) & (mean[:2] <= hi[:2]))
        assert tma.success[tma.start_id] > 0.0

    def test_no_settling_state_is_a_config_error(self):
        # A = 0.9 I holds only the origin still: one milestone fits there
        model = LinearGaussianModel(A=0.9 * np.eye(2), G=np.eye(2),
                                    C=np.eye(2), Q=1e-4 * np.eye(2),
                                    R_obs=1e-4 * np.eye(2))
        cfg = TmaConfig(n_nodes=4, k_neighbors=2, m_sims=5, epsilon=0.06,
                        max_steps=200, bounds_lo=np.zeros(2),
                        bounds_hi=np.ones(2))
        start = GaussianBelief([0.1, 0.1], 1e-4 * np.eye(2))
        with pytest.raises(ConfigError, match="milestones with A x = x"):
            construct_tma(start, [0.8, 0.8], model, cfg,
                          np.random.default_rng(0))

    @pytest.mark.parametrize("lo, hi, axis", [
        ([2.0, 2.0], [1.0, 1.0], 0),
        ([0.0, 0.5], [1.0, 0.5 - 1e-12], 1),
        # the defaults are the unit box: a lone upper bound below 0 inverts
        (None, [1.0, -0.1], 1)])
    def test_inverted_sampling_box_is_a_config_error(self, lo, hi, axis):
        model = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                    Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2))
        cfg = TmaConfig(n_nodes=3, k_neighbors=2, m_sims=5, epsilon=0.06,
                        max_steps=200,
                        bounds_lo=None if lo is None else np.array(lo),
                        bounds_hi=np.array(hi))
        start = GaussianBelief([0.1, 0.1], 1e-4 * np.eye(2))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError,
                           match=f"sampling box is inverted: .* axis {axis}"):
            construct_tma(start, [0.8, 0.8], model, cfg, rng)
        # refused before any draw
        assert rng.bit_generator.state \
            == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("lo, hi", [
        ([0.0, -np.inf], [1.0, np.inf]),
        ([np.nan, 0.0], [1.0, 1.0]),
        # the defaults are the unit box: a lone upper bound may be infinite
        (None, [np.inf, 1.0]),
        (None, [1.0, np.nan]),
        # finite bounds whose width overflows
        ([-1e308, 0.0], [1e308, 1.0])])
    def test_non_finite_sampling_box_is_a_config_error(self, lo, hi):
        model = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                    Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2))
        cfg = TmaConfig(n_nodes=3, k_neighbors=2, m_sims=5, epsilon=0.06,
                        max_steps=200,
                        bounds_lo=None if lo is None else np.array(lo),
                        bounds_hi=np.array(hi))
        start = GaussianBelief([0.1, 0.1], 1e-4 * np.eye(2))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="sampling box must have "
                           "finite bounds and a finite width"):
            construct_tma(start, [0.8, 0.8], model, cfg, rng)
        # refused before any draw
        assert rng.bit_generator.state \
            == np.random.default_rng(0).bit_generator.state

    def test_equal_bounds_pin_an_axis(self):
        model = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                    Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2))
        cfg = TmaConfig(n_nodes=3, k_neighbors=2, m_sims=5, epsilon=0.06,
                        max_steps=200, bounds_lo=np.array([0.0, 0.5]),
                        bounds_hi=np.array([1.0, 0.5]),
                        gain_spec=GainSpec(kind="lqr", control_weight=8.0))
        start = GaussianBelief([0.1, 0.5], 1e-4 * np.eye(2))
        tma = construct_tma(start, [0.8, 0.5], model, cfg,
                            np.random.default_rng(0))
        sampled = [ms.center.mean for i, ms in tma.graph.milestones.items()
                   if i not in (0, 1, tma.start_id)]
        assert sampled and all(mean[1] == 0.5 for mean in sampled)


class TestCheapBallTests:
    """The ball index decides most beliefs with a float mean distance
    against radii that lie ``BALL_SLACK`` inside and outside each ball, and
    runs the exact ``distances`` only near a boundary.  On a belief that
    sits on a ball's boundary to the bit, or up to two ulps inside or
    outside it, ``run_lma`` landings and ``Tma.entry_node`` and
    ``stop_node`` must give what the exact test gives."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           dims=st.sampled_from([1, 2, 4]),
           ball=st.sampled_from([1, 2, 3, 4]))
    def test_cheap_tests_agree_with_the_exact_test_at_a_boundary(
            self, seed, dims, ball):
        # ids 1 (the goal) to 5; nodes 2-4 have policy edges, node 5 has
        # none, so it is neither an entry nor a stop node.  The belief
        # sits near ``ball``, whose radius is set to the belief's exact
        # distance and then moved by -2..2 ulps.  The landing leaves out
        # the ball of ``source``, as edge estimation leaves out the ball an
        # edge starts in.
        rng = np.random.default_rng(seed)

        def psd(scale):
            a = rng.standard_normal((dims, dims))
            return scale * (a @ a.T)

        ids = [1, 2, 3, 4, 5]
        centers = {i: GaussianBelief(rng.random(dims), psd(1e-2)) for i in ids}
        eps = {i: 0.05 + 0.1 * rng.random() for i in ids}
        c = centers[ball]
        b = GaussianBelief(c.mean + 0.1 * rng.standard_normal(dims),
                           c.cov + psd(1e-3) if rng.random() < 0.7
                           else c.cov.copy())
        source = int(rng.integers(1, 6))
        goal = centers[1]
        lma = Lma(gain=np.eye(dims), attractor=goal)
        model = LinearGaussianModel(A=np.eye(dims), G=np.eye(dims),
                                    C=np.eye(dims), Q=1e-4 * np.eye(dims),
                                    R_obs=1e-4 * np.eye(dims))
        means = np.stack([centers[i].mean for i in ids])
        covs = np.stack([centers[i].cov.ravel() for i in ids])
        exact = (W_MEAN * np.linalg.norm(means - b.mean, axis=1)
                 + W_COV * np.linalg.norm(covs - b.cov.ravel(), axis=1))

        for ulps in range(-2, 3):
            eps[ball] = float(exact[ball - 1])
            for _ in range(abs(ulps)):
                eps[ball] = np.nextafter(eps[ball], np.inf if ulps > 0 else 0.0)
            inside = [i for k, i in enumerate(ids) if exact[k] <= eps[i]]
            assert (ball in inside) == (ulps >= 0)
            land = next((i for i in inside if i != source), None)
            stop = next((i for i in inside if i != 5), None)
            entry = None if 1 in inside else min(
                (exact[k], i) for k, i in enumerate(ids) if i in (2, 3, 4))[1]

            milestones = {0: Milestone(id=0, center=None, epsilon=1.0)}
            milestones.update({i: Milestone(id=i, center=centers[i],
                                            epsilon=eps[i]) for i in ids})
            policy = {i: GraphEdge(from_id=i, to_id=1,
                                   landing_probs={0: 0.0, 1: 1.0},
                                   reward=-1.0, time=1.0, sample_count=1)
                      for i in (2, 3, 4)}
            graph = TmaGraph(milestones=milestones,
                             edges={i: [e] for i, e in policy.items()},
                             goal_id=1, failure_value=-100.0)
            tma = Tma(graph=graph, policy=policy, values={},
                      success={0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
                      time_to_goal={}, funnels={1: lma})
            balls = ball_index(milestones)
            order = [k for k, i in enumerate(ids) if i != source]
            # a cache miss, then a hit on another array of the same bits
            for belief in (b, GaussianBelief(b.mean.copy(), b.cov.copy())):
                assert tma.distances(belief).tobytes() == exact.tobytes()
                sim = SimState(truth=belief.mean.copy(), belief=belief)
                rec = run_lma(lma, sim, balls, model, 1,
                              np.random.default_rng(0), order)
                landed = rec.region_id if rec.elapsed_steps == 0 else None
                assert landed == land
                at = belief.mean.tolist(), belief.cov
                assert (tma.entry_node_at(*at), tma.stop_node_at(*at)) == (
                    entry, stop)


    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           dims=st.sampled_from([1, 2, 4]),
           n_balls=st.integers(min_value=1, max_value=6))
    def test_nearest_matches_the_stacked_argmin(self, seed, dims, n_balls):
        # BallIndex.nearest_at, which Tma.entry_node_at takes, against the
        # argmin of the stacked distances: on drawn beliefs, then on
        # beliefs swept ulp by ulp across the bisector of two balls, where
        # the two distances tie or differ by an ulp or a few
        rng = np.random.default_rng(seed)

        def psd(scale):
            a = rng.standard_normal((dims, dims))
            return scale * (a @ a.T)

        centers = [GaussianBelief(rng.random(dims), psd(1e-2))
                   for _ in range(n_balls)]
        # an exact twin of a ball: equal distances, the first in order wins
        if rng.random() < 0.3:
            centers.append(centers[int(rng.integers(n_balls))])
        balls = BallIndex([Milestone(id=i, center=c, epsilon=0.1)
                           for i, c in enumerate(centers, start=1)])
        order = sorted(rng.choice(len(centers), int(rng.integers(
            1, len(centers) + 1)), replace=False).tolist())

        def stacked(mean, cov):
            return order[int(np.argmin(balls.distances_at(mean, cov)[order]))]

        for _ in range(20):
            cov = psd(1e-2)
            mean = (rng.random(dims) * 1.4 - 0.2).tolist()
            assert balls.nearest_at(mean, cov, order) == stacked(mean, cov)
        if len(order) < 2:
            return
        a, b = (balls._means[k] for k in order[:2])
        # a covariance equally far from both balls' centers, and the mean
        # on their bisector, then moved along the first axis by -20..20 ulps
        cov = 0.5 * (centers[order[0]].cov + centers[order[1]].cov)
        mid = 0.5 * (a + b)
        for ulps in range(-20, 21):
            mean = mid.copy()
            for _ in range(abs(ulps)):
                mean[0] = np.nextafter(mean[0], np.inf if ulps > 0 else -np.inf)
            at = mean.tolist()
            assert balls.nearest_at(at, cov, order) == stacked(at, cov)

    def test_distances_match_reference_on_cache_miss_and_hit(self):
        # the covariance term is cached per covariance; a cache miss, a hit
        # (same covariance, other mean, other array object) and the plain
        # computation give the same bits
        model = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                    Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2))
        cfg = TmaConfig(n_nodes=5, k_neighbors=2, m_sims=5, epsilon=0.05,
                        max_steps=300, bounds_lo=np.zeros(2),
                        bounds_hi=np.ones(2))
        start = GaussianBelief([0.1, 0.2], [[2e-3, 4e-4], [4e-4, 1e-3]])
        tma = construct_tma(start, [0.8, 0.7], model, cfg,
                            np.random.default_rng(3))
        ids = sorted(i for i in tma.graph.milestones if i != 0)
        means = np.stack([tma.graph.milestones[i].center.mean for i in ids])
        covs = np.stack([tma.graph.milestones[i].center.cov for i in ids])

        def reference(b):
            dm = np.linalg.norm(means - b.mean[None, :], axis=1)
            dc = np.linalg.norm((covs - b.cov[None, :, :]).reshape(len(ids), -1),
                                axis=1)
            return W_MEAN * dm + W_COV * dc

        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            cov = 1e-3 * (a @ a.T)
            for _ in range(3):
                b = GaussianBelief(rng.random(2), cov.copy())
                first, again = tma.distances(b), tma.distances(b)
                want = reference(b)
                assert first.tobytes() == want.tobytes()
                assert again.tobytes() == want.tobytes()


class TestSerialization:
    def test_gain_stored_once(self):
        tma, _ = build_scalar_tma(seed=5)
        d = tma_to_dict(tma)
        assert d["format"] == "macroplan-tma-v4"
        assert "model" not in d
        assert d["gain"] == tma.funnels[tma.graph.goal_id].gain.tolist()
        assert {k for e in d["edges"] for k in e} == {
            "from", "to", "landing_probs", "reward", "time", "sample_count"}


def tma_build_problem():
    """The single-integrator problem of the benchmark's tma-build workload:
    8 milestones, 60 simulations per edge, 2 neighbours."""
    model = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2),
                                step_cost=StepCost(base=0.01, u_weight=0.0))
    start = GaussianBelief([0.1, 0.1], 1e-4 * np.eye(2))
    cfg = TmaConfig(n_nodes=8, k_neighbors=2, m_sims=60, epsilon=0.06,
                    max_steps=300,
                    gain_spec=GainSpec(kind="lqr", state_weight=1.0,
                                       control_weight=8.0),
                    bounds_lo=np.zeros(2), bounds_hi=np.ones(2))
    return model, start, np.array([0.8, 0.8]), cfg


def _belief_record(b, cov=True):
    if b is None:
        return None
    return [b.mean.tolist(), b.cov.tolist()] if cov else [b.mean.tolist()]


def tma_digest(tma, outcomes_only=False):
    """sha256 of what a built TMA holds, independent of the file format:
    milestones, every edge's controller and landing statistics, the policy
    targets and the analytic maps.  ``outcomes_only`` leaves out the gains
    and every covariance, whose last bits a change of Riccati solver moves,
    and keeps the means, landing statistics, policy and maps."""
    g = tma.graph
    full = not outcomes_only
    record = {
        "milestones": [[i, ms.epsilon, _belief_record(ms.center, full)]
                       for i, ms in sorted(g.milestones.items())],
        "edges": [[e.from_id, e.to_id,
                   tma.funnels[e.to_id].gain.tolist() if full else None,
                   tma.funnels[e.to_id].attractor.mean.tolist(),
                   _belief_record(tma.funnels[e.to_id].attractor, full),
                   sorted(e.landing_probs.items()), e.reward, e.time,
                   e.sample_count]
                  for i in sorted(g.edges) for e in g.edges[i]],
        "policy": sorted((i, e.to_id) for i, e in tma.policy.items()),
        "values": sorted(tma.values.items()),
        "success": sorted(tma.success.items()),
        "time_to_goal": sorted(tma.time_to_goal.items()),
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


# tma_digest per seed of tma_build_problem(), recorded with the edges
# estimated in job order and the gain and stationary covariance from
# beliefs._dare; None marks a seed that raises
TMA_BUILD_DIGESTS = {
    0: None,
    1: "2bc0d8ef0fc0466756bb9e4fbec739c97e1f0b9e92d781121ab968140a038222",
    3: "bb8f1b9627003c9276499aafb0db1dae9fc275fb3b073906935cb98eefbae417",
    4: "bdd05b3ce1417f0e16302e16e049386edae7f40de881ddd364c1d30ed3ea1b9d",
    7: "a3435b664d6992e42dc4a6a1dd4e7b3db9cbe7ec67b907159f9cae11b2fd7a12",
    13: None,
}

DESK_TMA_DIGESTS = {
    "air:base-1": "a9dc32cc10ba9cbd26e69b750502eb025fde63f1719827c672952d9cd0c5a178",
    "air:base-2": "8afb58e661f0301ca95690df3cedc7eb77b04a8ed7381be1de10f4cc17cbb868",
    "air:dest-1": "ffae0b75b2021b197ce06da75ecc2309c3810b701f530eefa9ec10f10089de5b",
    "air:dest-2": "53735224d64c6647c3e3b2328cb90677d90de02f28bd383535aa953895776a59",
    "air:rv": "c8e71757c0ad62d4d13f26151a841d8034772aef3e9e60fe1a3dbcd93b65a5a6",
    "ground:dest-r": "393245ac1dea861518cef9a8274287c80f49d2b4e6ba248ed9e204ef628c0140",
    "ground:rv": "ced1e4816ff1e59757f12d10049f10eda0edd81f130f96026697f0c3b0d33774",
}

# tma_digest(..., outcomes_only=True) of the same TMAs, recorded with the
# gain and the stationary covariance from the value-iteration solvers; they
# hold across a re-record of the full digests above that only moves gains
# and covariances in their last bits
TMA_BUILD_OUTCOME_DIGESTS = {
    1: "1d0d320599d6095f5a99b2b791a8da8df73a3d90dfeb87af58450b2b68f55dd2",
    3: "72f31bc1dc9eb4abf831a902b9e3f2d7cb03c305fce0c8065d9769f88bc43964",
    4: "1b09f63390992c351b829c7970643e40776b176d7bfd8938d4ca5fbc958cfd71",
    7: "5c5dcba99b32b35c0a5d8a22464b9653b5581433b9dda6d25e5d873e5ebac5df",
}

DESK_TMA_OUTCOME_DIGESTS = {
    "air:base-1": "77c15f2128ff8207a4c21949a5776e0a26f6eabc67e8c477a8112057e08e1dd9",
    "air:base-2": "24ca7369b6defd64ceb7002df42ea16da1127924243341b76757c9e271ab2b24",
    "air:dest-1": "331832b8327eb1a4ad8d8e514519b463f242fb8303479e3ba4d5222a62f21d1c",
    "air:dest-2": "00fcefad38815baababfed71c3239187ee0451357a670cc1e8dfbb1965335dc0",
    "air:rv": "7d7173a3329f6d2800705028304d3818da16acc1deb3dd04b62a2b248d4f0e43",
    "ground:dest-r": "d06be0ce0de133ec520c110bb361aeefb051749d58b2d4a6f98a9aaf0aaec3db",
    "ground:rv": "2a705d6f964f23085f099947aefddc640976b0e28f982a87ebe1d9b7b1f7f717",
}


def test_construct_tma_outputs_are_bit_exact():
    model, start, goal, cfg = tma_build_problem()
    for seed, want in TMA_BUILD_DIGESTS.items():
        rng = np.random.default_rng(seed)
        if want is None:
            # a cut-off start raises GoalUnreachable before the DP, another
            # stuck set NonConvergent from it; only the raise is fixed here
            with pytest.raises(MacroplanError):
                construct_tma(start, goal, model, cfg, rng)
        else:
            built = construct_tma(start, goal, model, cfg, rng)
            assert tma_digest(built, outcomes_only=True) \
                == TMA_BUILD_OUTCOME_DIGESTS[seed], seed
            assert tma_digest(built) == want, seed
    domain = build_domain(desk_config(), np.random.default_rng(0))
    tmas = {**{f"air:{k}": t for k, t in domain._air_tmas.items()},
            **{f"ground:{k}": t for k, t in domain._ground_tmas.items()}}
    assert {k: tma_digest(t, outcomes_only=True) for k, t in tmas.items()} \
        == DESK_TMA_OUTCOME_DIGESTS
    assert {k: tma_digest(t) for k, t in tmas.items()} == DESK_TMA_DIGESTS


# tma_digest per seed of tma_build_problem() over the benchmark's
# tma-build blocks (seed bases 0 and 48), or the class and message of the
# error the seed raises; recorded with each edge's normals drawn one start
# and one step at a time
CUT_OFF = ("start node 8 never reaches the goal or failure node: the edges "
           "of nodes {} land only among themselves")
STUCK = ("graph DP cannot converge: nodes {} never reach the goal or failure "
         "node and every edge out of them has negative reward")
BENCH_BLOCK_DIGESTS = {
    0: ("GoalUnreachable", CUT_OFF.format([2, 3, 6, 7, 8])),
    1: "2bc0d8ef0fc0466756bb9e4fbec739c97e1f0b9e92d781121ab968140a038222",
    2: ("GoalUnreachable", CUT_OFF.format([2, 3, 5, 7, 8])),
    3: "bb8f1b9627003c9276499aafb0db1dae9fc275fb3b073906935cb98eefbae417",
    4: "bdd05b3ce1417f0e16302e16e049386edae7f40de881ddd364c1d30ed3ea1b9d",
    5: ("GoalUnreachable", CUT_OFF.format([2, 3, 4, 6, 8])),
    6: ("GoalUnreachable", CUT_OFF.format([2, 3, 5, 6, 8])),
    7: "a3435b664d6992e42dc4a6a1dd4e7b3db9cbe7ec67b907159f9cae11b2fd7a12",
    8: ("GoalUnreachable", CUT_OFF.format([5, 6, 7, 8])),
    9: "cf05a7b9cdf194c7abc40e0c6157fc00e67f5a439667f8fea2fbc71299d5171d",
    10: ("GoalUnreachable", CUT_OFF.format([2, 3, 4, 6, 8])),
    11: ("GoalUnreachable", CUT_OFF.format([2, 4, 5, 7, 8])),
    12: ("GoalUnreachable", CUT_OFF.format([3, 4, 7, 8])),
    13: ("NonConvergent", STUCK.format([3, 6, 7])),
    14: "3ed9c38bc2d8702cfc4d74703d6d1382b041b62c7dee1f38818ab9a106f3ac86",
    15: ("GoalUnreachable", CUT_OFF.format([2, 3, 4, 7, 8])),
    48: ("GoalUnreachable", CUT_OFF.format([2, 3, 5, 7, 8])),
    49: "2c857a7a26b648ba95d22da53626b51c8d5a304bb1f247b0c19f097818675e64",
    50: ("GoalUnreachable", CUT_OFF.format([3, 4, 5, 7, 8])),
    51: "e4bc1144395b54c12bc9f1eec6ae69524b59ef98422ee69a03ac8dcc1e4194dd",
    52: "424e42cbaa4c3cc882641657a0adf6f520252ac727d93e77a8d802635b72c9e9",
    53: ("NonConvergent", STUCK.format([2, 3, 7])),
    54: ("GoalUnreachable", CUT_OFF.format([2, 3, 4, 8])),
    55: "19c92b228a1388a4210b744ffec41bbf526fc376f2bd42142fd2c8e4800ce869",
    56: ("GoalUnreachable", CUT_OFF.format([2, 4, 5, 6, 7, 8])),
    57: "69684150f86cc6aa942f1bfdbb09c28882c7266b46fb9044f877515d561523e3",
    58: "496b150374adb2fc9780fb0855bfc63358eaf83627228b2aa699bf4bdb62876d",
    59: ("GoalUnreachable", CUT_OFF.format([3, 4, 7, 8])),
    60: ("GoalUnreachable", CUT_OFF.format([2, 6, 7, 8])),
    61: "ed667ea38a5f3abda6d6a2b81fbed66c2b104dabdcfae41b1ed7d8934f3e53a1",
    62: "3bbf2b90101b2a12d0674906e870e30c20b8353230dc295a81b7d605367c8bf1",
    63: ("GoalUnreachable", CUT_OFF.format([3, 4, 5, 7, 8])),
}


def test_bench_blocks_are_bit_exact():
    model, start, goal, cfg = tma_build_problem()
    for seed, want in BENCH_BLOCK_DIGESTS.items():
        try:
            got = tma_digest(construct_tma(start, goal, model, cfg,
                                           np.random.default_rng(seed)))
        except MacroplanError as e:
            got = (type(e).__name__, str(e))
        assert got == want, seed


def test_every_funnel_shares_the_one_gain_the_file_reports():
    model, start, goal, cfg = tma_build_problem()
    built = construct_tma(start, goal, model, cfg, np.random.default_rng(1))
    desk = build_domain(desk_config(), np.random.default_rng(0))
    for tma in (built, desk._air_tmas["rv"]):
        g = tma.graph
        assert set(tma.funnels) == set(g.milestones) - {0, tma.start_id}
        gain = tma.funnels[g.goal_id].gain
        for j, funnel in tma.funnels.items():
            assert funnel.attractor is g.milestones[j].center
            assert np.array_equal(funnel.gain, gain)
        assert tma_to_dict(tma)["gain"] == gain.tolist()


def count_calls(monkeypatch, name):
    """Wrap ``macroplan.tma.<name>`` and return the list its calls go to."""
    calls = []
    real = getattr(tma_module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tma_module, name, wrapped)
    return calls


def test_every_edge_run_goes_through_the_run_kernel(monkeypatch):
    """Every edge run of the tma-build problem runs in one call of the
    compiled per-axis run: a step by the model's per-axis step or by the
    matrix step raises, and the builds keep their digests."""
    def refuse(*args):
        raise AssertionError("a step outside the compiled per-axis run")

    monkeypatch.setattr(beliefs_module, "_matrix_step", refuse)
    monkeypatch.setattr(beliefs_module, "_axis_kernel", lambda n: refuse)
    kernel_calls = []
    real_kernel = beliefs_module._run_kernel

    def run_kernel(n):
        kernel = real_kernel(n)

        def counted(*args):
            kernel_calls.append(n)
            return kernel(*args)
        return counted

    monkeypatch.setattr(beliefs_module, "_run_kernel", run_kernel)
    runs = count_calls(monkeypatch, "run_lma")
    model, start, goal, cfg = tma_build_problem()
    assert model._axis_step is refuse
    for seed, want in TMA_BUILD_DIGESTS.items():
        try:
            got = tma_digest(construct_tma(start, goal, model, cfg,
                                           np.random.default_rng(seed)))
        except MacroplanError:
            got = None
        assert got == want, seed
    assert runs and kernel_calls == [2] * len(runs)


def test_edge_runs_scan_only_when_the_mean_could_land(monkeypatch):
    """On a tma-build edge between two sampled milestones, whose balls share
    the stationary covariance, the runs scan the balls fewer times than
    they step and start: a scan that finds no ball leaves a room, and the
    steps whose mean stays within it make none."""
    model, start, goal, cfg = tma_build_problem()
    built = construct_tma(start, goal, model, cfg, np.random.default_rng(1))
    e = built.policy[2]
    scans, steps = [], []
    real_scan, real_run = BallIndex.scan_at, tma_module.run_lma

    def scan(self, *args):
        scans.append(1)
        return real_scan(self, *args)

    def run(*args):
        rec = real_run(*args)
        steps.append(rec.elapsed_steps)
        return rec

    monkeypatch.setattr(BallIndex, "scan_at", scan)
    monkeypatch.setattr(tma_module, "run_lma", run)
    again = estimate_edge(built.graph.milestones[2], built.funnels[e.to_id],
                          e.to_id, ball_index(built.graph.milestones), model,
                          cfg.m_sims, cfg.max_steps,
                          np.random.default_rng(0))
    assert len(steps) == cfg.m_sims and again.landing_probs[e.to_id] == 1.0
    # 127 scans for 327 steps and 60 starts: one a step and start is 387
    assert len(scans) < sum(steps) + len(steps)


def test_start_node_runs_keep_their_room_while_the_covariance_settles(
        monkeypatch):
    """On the tma-build TMA of seed 1, the runs of the start node's edges
    scan the balls fewer times than they step.  The start covariance is
    not the filter's fixed point, so it changes on every step of a run; a
    room kept across those changes, less the covariance's drift, still
    skips most scans, and the scan each edge makes at its start center
    spares every run whose start lies within its room a scan of its own."""
    model, start, goal, cfg = tma_build_problem()
    edge, scans, steps = [None], {}, {}
    real_scan, real_run = BallIndex.scan_at, tma_module.run_lma
    real_edge = tma_module.estimate_edge

    def scan(self, *args):
        scans[edge[0]] = scans.get(edge[0], 0) + 1
        return real_scan(self, *args)

    def run(*args):
        rec = real_run(*args)
        steps[edge[0]] = steps.get(edge[0], 0) + rec.elapsed_steps
        return rec

    def estimate(start_milestone, lma, to_id, *args):
        edge[0] = (start_milestone.id, to_id)
        return real_edge(start_milestone, lma, to_id, *args)

    monkeypatch.setattr(BallIndex, "scan_at", scan)
    monkeypatch.setattr(tma_module, "run_lma", run)
    monkeypatch.setattr(tma_module, "estimate_edge", estimate)
    built = construct_tma(start, goal, model, cfg, np.random.default_rng(1))
    from_start = sorted(k for k in steps if k[0] == built.start_id)
    assert [j for _, j in from_start] == [4, 6]
    # 353 and 385 steps over 60 runs each: a scan at every start and
    # before every step would be 413 and 445 (66 and 128 are made, one of
    # them at each edge's start center)
    assert [steps[k] for k in from_start] == [353, 385]
    for k in from_start:
        assert scans[k] < steps[k]


class TestSharedChecksRunOnce:
    """A model's LQR gain is checked for stability, and its stationary
    covariance validated as a belief covariance, once; the attractors and
    sampled milestone centers built on that covariance are not checked."""

    @staticmethod
    def counts(monkeypatch):
        counts = {"beliefs": 0, "eigvals": 0}
        validate = GaussianBelief.__post_init__
        eigvals = np.linalg.eigvals

        def counted_validate(self):
            counts["beliefs"] += 1
            validate(self)

        def counted_eigvals(a):
            counts["eigvals"] += 1
            return eigvals(a)

        monkeypatch.setattr(GaussianBelief, "__post_init__", counted_validate)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        return counts

    def test_desk_build(self, monkeypatch):
        counts = self.counts(monkeypatch)
        build_domain(desk_config(), np.random.default_rng(0))
        # beliefs: the 3 robots' start states, one TMA start per robot kind
        # and one stationary covariance per kind's model, where a check per
        # milestone and attractor made 31; gains: one per model, not 7
        assert counts == {"beliefs": 7, "eigvals": 2}

    def test_second_build_on_one_model_checks_nothing(self, monkeypatch):
        model, start, goal, cfg = tma_build_problem()
        counts = self.counts(monkeypatch)
        first = construct_tma(start, goal, model, cfg,
                              np.random.default_rng(1))
        assert counts == {"beliefs": 1, "eigvals": 1}
        second = construct_tma(start, goal, model, cfg,
                               np.random.default_rng(1))
        assert counts == {"beliefs": 1, "eigvals": 1}
        assert tma_to_dict(second) == tma_to_dict(first)
        for tma in (first, second):
            assert all(ms.center.cov is model._stationary_cov
                       for i, ms in tma.graph.milestones.items()
                       if i not in (0, tma.start_id))


def test_goal_does_not_follow_writes_to_the_callers_array():
    model, start, goal, cfg = tma_build_problem()
    tma = construct_tma(start, goal, model, cfg, np.random.default_rng(1))
    goal[0] = 5.0
    assert tma.graph.milestones[1].center.mean.tolist() == [0.8, 0.8]
    assert tma.funnels[1].attractor.mean.tolist() == [0.8, 0.8]


class TestReachabilityFirst:
    def test_cut_off_start_raises_before_other_edges_and_dp(self, monkeypatch):
        # seed 11: the start (node 8) lies inside ball 5 and the nodes it
        # reaches never land on the goal or failure node; without the early
        # check the DP sweeps 100,000 times before it gives up
        edges = count_calls(monkeypatch, "estimate_edge")
        dp = count_calls(monkeypatch, "solve_graph_dp")
        model, start, goal, cfg = tma_build_problem()
        with pytest.raises(GoalUnreachable,
                           match=r"start node 8 never reaches.* nodes \[.*8\]"):
            construct_tma(start, goal, model, cfg, np.random.default_rng(11))
        assert dp == []
        assert 0 < len(edges) < 14   # 7 source nodes x 2 neighbours
        assert edges[0][0].id == 8   # the start's edges come first

    def test_reaching_start_estimates_every_edge(self, monkeypatch):
        edges = count_calls(monkeypatch, "estimate_edge")
        tma, _ = build_scalar_tma(seed=2)
        built = [(e.from_id, e.to_id)
                 for i in sorted(tma.graph.edges) for e in tma.graph.edges[i]]
        estimated = [(a[0].id, a[2]) for a in edges]
        # 3 source nodes (2, 3 and the start) x 2 neighbours, each once; the
        # start's come first, yet they are assembled in job order
        assert len(built) == 6 and sorted(estimated) == sorted(built)
        assert estimated[0][0] == tma.start_id == built[-1][0]
        assert tma.success[tma.start_id] > 0

    def test_zero_start_success_names_its_cause(self):
        # default preset, domain seed 15: the start (node 6) lands on node
        # 4, whose policy leads to node 2, whose edge to the goal lands on
        # the failure node every time
        with pytest.raises(GoalUnreachable) as err:
            build_domain(DeliveryConfig(), np.random.default_rng(15))
        assert str(err.value) == (
            "air TMA for dest-1: zero success probability from start node "
            "6: its policy edge to "
            "node 4 lands on the failure node with probability 0 (timeouts "
            "included), and the policy walks from there through nodes "
            "[2, 4], none of which reaches the goal")
