"""Tests for the Dec-POSMDP layer: asynchronous segments, the semi-Markov
reward identity, and graph and joint executions."""

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroplan import beliefs, decposmdp
from macroplan.beliefs import (GainSpec, GaussianBelief, LinearGaussianModel,
                               Lma, NoConstraints, PredicateConstraints,
                               RectConstraints, SimState, StepCost,
                               _matrix_step, _step_cost,
                               design_lma, stationary_covariance)
from macroplan.decposmdp import (Domain, GraphTmaExecution, JointConfig,
                                 JointGraphExecution, RewardSpec,
                                 TimedExecution, TmaSpec,
                                 evaluate_joint_policy, run_rollout,
                                 segment_starts, step_joint)
from macroplan.delivery import build_domain, desk_config
from macroplan.search import SearchConfig, mmcs, sample_joint_policy
from macroplan.tma import (GraphEdge, Milestone, Tma, TmaConfig, TmaGraph,
                           construct_tma)


# ---------------------------------------------------------------------------
# toy timed-task domain: deterministic durations, no continuous dynamics
# ---------------------------------------------------------------------------

def _dummy_sim():
    b = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    return SimState(truth=np.zeros(1), belief=b)


class TimedToyDomain(Domain):
    """Two agents, fixed-duration tasks; step reward -1 per busy agent."""

    def __init__(self, gamma=1.0):
        self.n_agents = 2
        self.rewards = RewardSpec(discount=gamma)
        self._roster = {
            "t3": TmaSpec(duration=3, step_reward=-1.0),
            "t9": TmaSpec(duration=9, step_reward=-1.0),
            "ding": TmaSpec(duration=2, step_reward=0.0, effect="ding"),
            "wait": TmaSpec(duration=1, step_reward=0.0),
            "never": TmaSpec(duration=1),
        }

    def roster(self, agent):
        return self._roster

    def initial(self, rng):
        return JointConfig(sims=[_dummy_sim() for _ in range(self.n_agents)],
                           world="idle")

    def initiation_ok(self, agent, tma_id, config):
        return tma_id != "never"

    def begin_executions(self, starts, config):
        return [TimedExecution(spec, agents) for spec, agents in starts]

    def observe(self, agent, config):
        return config.world

    def obs_alphabet(self):
        return ["idle", "dinged"]

    def team_reward(self, events, config):
        return 10.0 * sum(1 for e in events if e[0] == "ding")

    def e_dynamics(self, events, config, rng):
        if any(e[0] == "ding" for e in events):
            config.world = "dinged"

    def fallback_tma(self, agent):
        return "wait"


def test_asynchronous_termination_segments():
    """3-step and 9-step tasks started together: segments of 3, then 6."""
    dom = TimedToyDomain()
    rng = np.random.default_rng(0)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "t3", 1: "t9"}, dom), dom,
                     rng)
    assert seg.tau_min == 3
    assert set(seg.observations) == {0}
    assert 0 not in cfg.executions
    assert 1 in cfg.executions
    # agent 1 keeps running; agent 0 starts a fresh 3-step task
    seg2 = step_joint(cfg, segment_starts(cfg, {0: "t3"}, dom), dom, rng)
    assert seg2.tau_min == 3
    assert set(seg2.observations) == {0}
    seg3 = step_joint(cfg, segment_starts(cfg, {0: "t3"}, dom), dom, rng)
    assert seg3.tau_min == 3
    assert set(seg3.observations) == {0, 1}
    assert cfg.clock == 9


def test_segment_reward_discounted_by_hand():
    """Both agents busy for 3 steps at -1 each, gamma=0.9:
    R_tau = -2 (1 + 0.9 + 0.81)."""
    dom = TimedToyDomain(gamma=0.9)
    rng = np.random.default_rng(0)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "t3", 1: "t3"}, dom), dom,
                     rng)
    assert seg.reward_Rtau == pytest.approx(-2 * (1 + 0.9 + 0.81), abs=1e-12)
    assert seg.primitive_rewards == [-2.0, -2.0, -2.0]


def test_effect_event_pays_team_reward_and_moves_estate():
    dom = TimedToyDomain()
    rng = np.random.default_rng(0)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "ding"}, dom), dom, rng)
    assert seg.tau_min == 2
    assert seg.reward_Rtau == pytest.approx(10.0)
    assert cfg.world == "dinged"
    assert seg.observations == {0: "dinged"}


class GroupToyDomain(TimedToyDomain):
    """Three agents; ``lift`` is a timed task for two of them."""

    def __init__(self):
        super().__init__()
        self.n_agents = 3
        self._roster = {**self._roster,
                        "lift": TmaSpec(duration=2, agents_required=2)}


class NoFallbackDomain(GroupToyDomain):
    fallback_tma = Domain.fallback_tma


def _started(dom, starts):
    """Each start as (agents, label), in agent order."""
    label = {id(spec): lb for lb, spec in dom.roster(0).items()}
    return sorted((agents, label[id(spec)]) for spec, agents in starts)


def test_initiation_violation_falls_back():
    dom = TimedToyDomain()
    cfg = dom.initial(np.random.default_rng(0))
    starts = segment_starts(cfg, {0: "never", 1: "t3"}, dom)
    assert _started(dom, starts) == [((0,), "wait"), ((1,), "t3")]


def test_busy_agent_cannot_be_reassigned():
    dom = TimedToyDomain()
    rng = np.random.default_rng(0)
    cfg = dom.initial(rng)
    # agent 1 is still busy after this segment
    step_joint(cfg, segment_starts(cfg, {0: "t3", 1: "t9"}, dom), dom, rng)
    starts = segment_starts(cfg, {0: "t3", 1: "t3"}, dom)
    assert _started(dom, starts) == [((0,), "t3")]
    cfg.dead.add(0)
    assert segment_starts(cfg, {0: "t3", 1: "t3"}, dom) == []


def test_joint_group_starts_whole_and_the_rest_fall_back():
    dom = GroupToyDomain()
    rng = np.random.default_rng(0)
    cfg = dom.initial(rng)
    # a short group: its lone member falls back
    starts = segment_starts(cfg, {0: "lift", 1: "t3", 2: "t3"}, dom)
    assert _started(dom, starts) == [((0,), "wait"), ((1,), "t3"),
                                     ((2,), "t3")]
    # a surplus member beyond agents_required falls back
    starts = segment_starts(cfg, {0: "lift", 1: "lift", 2: "lift"}, dom)
    assert _started(dom, starts) == [((0, 1), "lift"), ((2,), "wait")]
    seg = step_joint(cfg, starts, dom, rng)
    assert seg.tau_min == 1 and set(seg.observations) == {2}
    assert cfg.executions[0] is cfg.executions[1]


def test_without_a_fallback_the_agent_stays_idle():
    dom = NoFallbackDomain()
    cfg = dom.initial(np.random.default_rng(0))
    starts = segment_starts(cfg, {0: "never", 1: "lift", 2: "t3"}, dom)
    assert _started(dom, starts) == [((2,), "t3")]


# ---------------------------------------------------------------------------
# joint reward structure
# ---------------------------------------------------------------------------

def test_invalid_discount_rejected():
    with pytest.raises(ValueError):
        RewardSpec(discount=0.0)
    with pytest.raises(ValueError):
        RewardSpec(discount=1.5)


# ---------------------------------------------------------------------------
# policy evaluation on the toy domain
# ---------------------------------------------------------------------------

class _Controller:
    def __init__(self, labels, edges, initial_node=0):
        self.nodes = labels
        self._edges = edges
        self.initial_node = initial_node

    def edge(self, node, label):
        return self._edges.get((node, label), node)


class _Policy:
    def __init__(self, controllers):
        self.controllers = controllers


def test_evaluate_policy_hand_value():
    """Agent 0 dings twice then waits; agent 1 always waits.  Undiscounted,
    two dings pay exactly 20."""
    dom = TimedToyDomain()
    c0 = _Controller(labels=["ding", "ding", "wait"],
                     edges={(0, "idle"): 1, (0, "dinged"): 1,
                            (1, "idle"): 2, (1, "dinged"): 2})
    c1 = _Controller(labels=["wait"], edges={})
    pv = evaluate_joint_policy(_Policy([c0, c1]), dom, n_rollouts=4,
                               horizon_macro_steps=6,
                               rng=np.random.default_rng(0))
    assert pv.mean == pytest.approx(20.0)
    assert pv.stderr == pytest.approx(0.0)


def test_evaluate_policy_substitutes_fallback_on_bad_initiation():
    dom = TimedToyDomain()
    c0 = _Controller(labels=["never"], edges={})
    c1 = _Controller(labels=["ding"], edges={})
    pv = evaluate_joint_policy(_Policy([c0, c1]), dom, n_rollouts=1,
                               horizon_macro_steps=4,
                               rng=np.random.default_rng(0))
    # agent 0 silently waits (1-step segments); agent 1 completes two dings
    assert pv.mean == pytest.approx(20.0)


def test_evaluate_policy_deterministic_per_seed():
    dom = TimedToyDomain(gamma=0.95)
    c = _Controller(labels=["ding", "t3"], edges={(0, "dinged"): 1,
                                                  (1, "idle"): 0,
                                                  (1, "dinged"): 0})
    pol = _Policy([c, _Controller(labels=["wait"], edges={})])
    a = evaluate_joint_policy(pol, dom, 8, 10, np.random.default_rng(42))
    b = evaluate_joint_policy(pol, dom, 8, 10, np.random.default_rng(42))
    assert a.mean == b.mean and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# graph-TMA executions on continuous dynamics
# ---------------------------------------------------------------------------

def _integrator_model(noise=1e-4, constraints=None):
    n = 2
    return LinearGaussianModel(
        A=np.eye(n), G=np.eye(n), C=np.eye(n),
        Q=noise * np.eye(n), R_obs=noise * np.eye(n),
        step_cost=StepCost(base=0.01, u_weight=0.0),
        constraints=constraints or NoConstraints())


@pytest.fixture(scope="module")
def small_tma():
    model = _integrator_model()
    cfg = TmaConfig(n_nodes=2, k_neighbors=1, m_sims=20, epsilon=0.05,
                    max_steps=400, bounds_lo=np.zeros(2), bounds_hi=np.ones(2),
                    gain_spec=GainSpec(kind="lqr", control_weight=0.1))
    start = GaussianBelief(mean=np.array([0.1, 0.1]),
                           cov=1e-4 * np.eye(2))
    return construct_tma(start, np.array([0.8, 0.8]), model, cfg,
                         np.random.default_rng(7)), model


class GraphToyDomain(Domain):
    """One or two agents sharing a movement TMA roster."""

    def __init__(self, tma, model, n_agents=1, joint=False):
        self.n_agents = n_agents
        self.rewards = RewardSpec(discount=1.0)
        spec_kw = dict(tma=tma, agents_required=2 if joint else 1,
                       effect="arrived" if joint else None)
        self._roster = {"go": TmaSpec(**spec_kw),
                        "wait": TmaSpec(duration=1)}
        self._model = model
        self._joint = joint

    def roster(self, agent):
        return self._roster

    def initial(self, rng):
        sims = []
        for _ in range(self.n_agents):
            mean = np.array([0.1, 0.1])
            sims.append(SimState(truth=mean.copy(),
                                 belief=GaussianBelief(mean=mean,
                                                       cov=1e-4 * np.eye(2))))
        return JointConfig(sims=sims, world=0)

    def initiation_ok(self, agent, tma_id, config):
        return True

    def begin_executions(self, starts, config):
        out = []
        for spec, agents in starts:
            if spec.duration is not None:
                out.append(TimedExecution(spec, agents))
            elif len(agents) == 1:
                out.append(GraphTmaExecution(spec, agents[0], config))
            else:
                out.append(JointGraphExecution(spec, agents, config))
        return out

    def observe(self, agent, config):
        return config.world


def test_graph_execution_reaches_goal(small_tma):
    tma, model = small_tma
    dom = GraphToyDomain(tma, model)
    rng = np.random.default_rng(3)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "go"}, dom), dom, rng)
    assert seg.observations == {0: 0}  # the e-state class, here the e-state
    goal = tma.graph.milestones[tma.graph.goal_id].center.mean
    assert np.linalg.norm(cfg.sims[0].belief.mean - goal) < 0.1
    # step cost 0.01/step, undiscounted
    assert seg.reward_Rtau == pytest.approx(-0.01 * seg.tau_min, abs=1e-9)


def test_graph_execution_at_goal_holds_one_step(small_tma):
    tma, model = small_tma
    dom = GraphToyDomain(tma, model)
    rng = np.random.default_rng(4)
    cfg = dom.initial(rng)
    step_joint(cfg, segment_starts(cfg, {0: "go"}, dom), dom, rng)
    # already at the goal
    seg = step_joint(cfg, segment_starts(cfg, {0: "go"}, dom), dom, rng)
    assert seg.tau_min == 1
    assert set(seg.observations) == {0}


def test_joint_graph_execution_terminates_together(small_tma):
    tma, model = small_tma
    dom = GraphToyDomain(tma, model, n_agents=2, joint=True)
    rng = np.random.default_rng(5)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "go", 1: "go"}, dom), dom,
                     rng)
    assert seg.observations == {0: 0, 1: 0}


def test_constraint_violation_kills_agent_not_mission(small_tma):
    tma, _ = small_tma
    # same dynamics, but the whole workspace is forbidden: first step dies
    lethal = _integrator_model(
        constraints=PredicateConstraints(lambda x: True))

    class LethalDomain(GraphToyDomain):
        def begin_executions(self, starts, config):
            out = super().begin_executions(starts, config)
            for exe in out:
                if isinstance(exe, GraphTmaExecution) and exe.agents == (0,):
                    exe.model = lethal
            return out

    dom = LethalDomain(tma, lethal, n_agents=2)
    rng = np.random.default_rng(6)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "go", 1: "wait"}, dom), dom,
                     rng)
    assert 0 in seg.dead_agents
    assert cfg.dead == {0}
    # agent 1's one-step wait still terminates the segment normally
    assert set(seg.observations) == {1}


def test_joint_walk_ends_when_a_member_dies(small_tma):
    """A member's death ends a joint walk that step, without its effect:
    the survivor terminates and observes, the dead agent does neither.
    Agent 1 walks where every state is lethal; if the walk kept its dead
    member, that agent would die again every step and the segment would
    never end, so the constraint raises after 10,000 checks."""
    tma, model = small_tma
    checks = [0]

    def lethal_everywhere(x):
        checks[0] += 1
        if checks[0] > 10_000:
            raise RuntimeError("the joint segment never ended")
        return True

    lethal = _integrator_model(
        constraints=PredicateConstraints(lethal_everywhere))

    effects = []

    class OneLethalDomain(GraphToyDomain):
        def begin_executions(self, starts, config):
            [exe] = super().begin_executions(starts, config)
            exe.subs[1].model = lethal
            return [exe]

        def e_dynamics(self, events, config, rng):
            effects.extend(events)

    dom = OneLethalDomain(tma, model, n_agents=2, joint=True)
    rng = np.random.default_rng(5)
    cfg = dom.initial(rng)
    seg = step_joint(cfg, segment_starts(cfg, {0: "go", 1: "go"}, dom), dom,
                     rng)
    assert seg.tau_min == 1
    assert seg.dead_agents == {1}
    assert seg.observations == {0: 0}
    assert effects == []
    assert cfg.dead == {1}
    assert cfg.executions == {}


def test_semi_markov_identity_on_graph_domain(small_tma):
    """Macro discounted sum equals the primitive discounted sum to 1e-9
    (also asserted inside run_rollout on every rollout)."""
    tma, model = small_tma
    dom = GraphToyDomain(tma, model)
    dom.rewards = RewardSpec(discount=0.97)
    c = _Controller(labels=["go", "wait"], edges={(0, 0): 1, (1, 0): 0})
    for sub in np.random.default_rng(8).spawn(5):
        tr = run_rollout(_Policy([c]), dom, 6, sub)
        assert tr.value == pytest.approx(tr.primitive_value, abs=1e-9)


def test_graph_entry_node_breaks_distance_ties_to_lower_id():
    # nodes 2 and 3 are exactly equidistant from the belief; node 4 is
    # nearer but has no policy edge, and the policy lists node 3 first
    model = _integrator_model()
    p = 1e-4 * np.eye(2)
    centers = {1: [0.9, 0.9], 2: [0.25, 0.5], 3: [0.75, 0.5], 4: [0.5, 0.6]}
    milestones = {0: Milestone(id=0, center=None, epsilon=1.0)}
    for i, xy in centers.items():
        milestones[i] = Milestone(id=i, center=GaussianBelief(xy, p),
                                  epsilon=0.05)
    lma = design_lma(model, centers[1])
    policy = {i: GraphEdge(from_id=i, to_id=1,
                           landing_probs={0: 0.0, 1: 1.0}, reward=-1.0,
                           time=1.0, sample_count=1) for i in (3, 2)}
    graph = TmaGraph(milestones=milestones,
                     edges={i: [e] for i, e in policy.items()},
                     goal_id=1, failure_value=-100.0)
    tma = Tma(graph=graph, policy=policy, values={},
              success={0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0},
              time_to_goal={}, funnels={1: lma}, model=model)
    spec = TmaSpec(tma=tma)
    belief = GaussianBelief([0.5, 0.5], p)
    config = JointConfig(
        sims=[SimState(truth=belief.mean.copy(), belief=belief)], world=0)
    d = tma.distances(belief)
    by_id = dict(zip(tma.balls.ids, d))
    assert by_id[2] == by_id[3] and by_id[4] < by_id[2]
    # the rule: the least (distance, id) pair among policy nodes
    nearest_then_lowest = min((d[k], i) for k, i in enumerate(tma.balls.ids)
                              if i in tma.policy)[1]
    exe = GraphTmaExecution(spec, 0, config)
    assert not exe.hold_done
    assert exe.node == nearest_then_lowest == 2


# ---------------------------------------------------------------------------
# graph walks on the float walk state against the array step loop
# ---------------------------------------------------------------------------

@dataclass
class ArrayState:
    """A walk state held as arrays: the reference for the float
    ``SimState``."""

    truth: np.ndarray
    belief: GaussianBelief
    accrued_reward: float = 0.0


def array_lma_step(lma, sim, model, rng):
    """``lma_step`` on an ``ArrayState``: the per-axis form reads the
    arrays as floats and builds arrays of its result; the matrix form
    reads and returns arrays."""
    belief = sim.belief
    K, cov, k_diag = model._filter_update(belief.cov)[:3]
    noise = rng.standard_normal(model._n_noise)
    if k_diag is not None and model._axes is not None \
            and lma._axes is not None:
        truth, mean, u = model._axis_step(model._axes, lma._axes, k_diag,
                                          sim.truth.tolist(),
                                          belief.mean.tolist(),
                                          noise.tolist())
        truth, mean = np.array(truth), np.array(mean)
    else:
        truth, mean, u = _matrix_step(lma, model, K, sim.truth, belief.mean,
                                      noise)
    sim.accrued_reward -= _step_cost(model.step_cost, u)
    sim.truth = truth
    sim.belief = GaussianBelief._trusted(mean, cov)


class ArrayWalk:
    """``GraphTmaExecution`` on an ``ArrayState``: the entry by
    ``Tma.distances``, then per step ``array_lma_step``, ``violates`` on
    the truth array and ``Tma.stop_node_at`` on the belief."""

    def __init__(self, tma, sim):
        self.tma, self.sim = tma, sim
        balls, b = tma.balls, sim.belief
        if balls.first_at(b.mean.tolist(), b.cov,
                          tma._goal_order) is not None:
            entry = None
        else:
            idx = tma._entry_idx
            entry = tma.balls.ids[idx[np.argmin(tma.distances(b)[idx])]]
        self.hold_done = entry is None
        self.node = tma.graph.goal_id if entry is None else entry
        self.steps_on_edge = 0

    def step(self, rng):
        """This step's reward, whether the walk ended and whether it died."""
        tma, sim = self.tma, self.sim
        before = sim.accrued_reward
        if self.hold_done:
            array_lma_step(tma.funnels[tma.graph.goal_id], sim, tma.model,
                           rng)
            return sim.accrued_reward - before, True, False
        array_lma_step(tma.funnels[tma.policy[self.node].to_id], sim,
                       tma.model, rng)
        reward = sim.accrued_reward - before
        if tma.model.constraints.violates(sim.truth):
            return reward, False, True
        self.steps_on_edge += 1
        b = sim.belief
        nid = tma.stop_node_at(b.mean.tolist(), b.cov)
        if nid is not None:
            if nid != self.node:
                self.node = nid
                self.steps_on_edge = 0
            if nid == tma.graph.goal_id:
                return reward, True, False
        return reward, False, self.steps_on_edge >= decposmdp.MAX_EDGE_STEPS


@st.composite
def walk_cases(draw):
    """(tma, start belief, start truth, nudge seed): a hand-built graph of
    two to four nodes and the goal over a diagonal model of dimension 1-3.
    Its steps take the per-axis form, or the matrix form through a dense
    funnel gain or a start covariance that is not diagonal; the model may
    forbid a rectangle.  At times the start is inside the goal ball."""
    n = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["per-axis", "dense-gain", "full-cov"]
                                if n > 1 else ["per-axis"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    axis = lambda values: draw(st.lists(st.sampled_from(values), min_size=n,
                                        max_size=n))
    a, c = axis([1.0, 1.0, 0.9]), axis([1.0, 0.5, 2.0])
    q, r = axis([0.0, 1e-4, 3e-4]), axis([1e-4, 5e-4])
    constraints = NoConstraints()
    if n > 1 and draw(st.booleans()):
        x0, y0 = draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 0.8))
        constraints = RectConstraints([((x0, y0), (x0 + 0.2, y0 + 0.2))])
    model = LinearGaussianModel(
        A=np.diag(a), G=dt * np.eye(n), C=np.diag(c), Q=np.diag(q),
        R_obs=np.diag(r), constraints=constraints,
        step_cost=StepCost(base=0.01,
                           u_weight=draw(st.sampled_from([0.0, 0.3]))))
    gain = np.diag((np.array(a) - rng.uniform(-0.5, 0.7, n)) / dt)
    if form == "dense-gain":
        gain = gain + 0.01 * rng.standard_normal((n, n))
    p = stationary_covariance(model)
    k = draw(st.integers(2, 4))
    centers = {i: rng.random(n) for i in range(1, k + 2)}
    eps = draw(st.floats(0.03, 0.15))
    milestones = {0: Milestone(id=0, center=None, epsilon=1.0)}
    milestones.update({i: Milestone(id=i, center=GaussianBelief(m, p),
                                    epsilon=eps)
                       for i, m in centers.items()})
    policy = {}
    for i in range(2, k + 2):
        to = draw(st.sampled_from([1] + [j for j in centers
                                         if j not in (1, i)]))
        policy[i] = GraphEdge(from_id=i, to_id=to,
                              landing_probs={0: 0.0, to: 1.0}, reward=-1.0,
                              time=1.0, sample_count=1)
    success = {0: 0.0, 1: 1.0, 2: 1.0}
    success.update({i: draw(st.sampled_from([0.0, 1.0]))
                    for i in range(3, k + 2)})
    funnels = {e.to_id: Lma(gain=gain,
                            attractor=milestones[e.to_id].center)
               for e in policy.values()}
    funnels[1] = Lma(gain=gain, attractor=milestones[1].center)
    graph = TmaGraph(milestones=milestones,
                     edges={i: [e] for i, e in policy.items()}, goal_id=1,
                     failure_value=-100.0)
    tma = Tma(graph=graph, policy=policy, values={}, success=success,
              time_to_goal={}, funnels=funnels, model=model)
    mean = centers[1].copy() if draw(st.booleans()) else rng.random(n)
    cov = np.diag(1e-3 * (1.0 + rng.random(n)))
    if form == "full-cov":
        B = rng.standard_normal((n, n))
        cov = 1e-4 * (B @ B.T + np.eye(n))
    truth = mean + 0.01 * rng.standard_normal(n)
    return tma, GaussianBelief(mean, cov), truth, rng.integers(2**32)


def assert_same_walk_state(sim, ref):
    assert np.array(sim.x).tobytes() == ref.truth.tobytes()
    assert np.array(sim.mean).tobytes() == ref.belief.mean.tobytes()
    assert sim.cov.tobytes() == ref.belief.cov.tobytes()
    assert sim.accrued_reward == ref.accrued_reward


@settings(max_examples=200, deadline=None)
@given(walk_cases(), st.integers(0, 2**32 - 1), st.integers(1, 80),
       st.integers(0, 80), st.sampled_from([1, 2, 3]))
def test_graph_walk_on_floats_matches_the_array_loop(case, seed, steps,
                                                     nudge_at, read_every):
    """A walk on the float ``SimState`` against the same walk on arrays:
    entry node, each step's reward, death, landing node, state bytes and
    generator end state.  The test reads ``truth`` and ``belief`` between
    some steps, and moves the belief mean by hand once, as a domain test
    places a robot, so the arrays built on read are exercised."""
    tma, start, truth, nudge_seed = case
    sim = SimState(truth=truth, belief=start)
    ref = ArrayState(truth=truth.copy(), belief=start)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    config = JointConfig(sims=[sim], world=0)
    exe = GraphTmaExecution(TmaSpec(tma=tma), 0, config)
    walk = ArrayWalk(tma, ref)
    assert (exe.hold_done, exe.node) == (walk.hold_done, walk.node)
    for t in range(steps):
        if t == nudge_at:
            b = ref.belief
            nudge = 0.05 * np.random.default_rng(nudge_seed).standard_normal(
                len(b.mean))
            ref.belief = sim.belief = GaussianBelief(b.mean + nudge, b.cov)
        rewards, dead = [0.0], []
        done = exe.step(config, rng, rewards, [], dead)
        reward, ref_done, ref_dead = walk.step(ref_rng)
        assert (rewards[0], done, bool(dead), exe.node) == (
            reward, ref_done, ref_dead, walk.node)
        assert_same_walk_state(sim, ref)
        if t % read_every == 0:
            assert sim.truth.tobytes() == ref.truth.tobytes()
            assert sim.belief.mean.tobytes() == ref.belief.mean.tobytes()
            assert sim.belief.cov.tobytes() == ref.belief.cov.tobytes()
        if done or dead:
            break
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _relay_tma():
    """A graph whose walks change funnel on the way: 2 -> 3 -> 4 -> goal 1,
    with the goal's ball on the straight line from 3 to 4, so a walk on
    the edge 3 -> 4 lands on the goal while it steps node 4's funnel.
    Every funnel moves the mean a tenth of the way to its attractor a
    step."""
    model = _integrator_model()
    p = stationary_covariance(model)
    centers = {1: [0.6, 0.6], 2: [0.1, 0.1], 3: [0.3, 0.3], 4: [0.9, 0.9]}
    milestones = {0: Milestone(id=0, center=None, epsilon=1.0)}
    milestones.update({i: Milestone(id=i, center=GaussianBelief(xy, p),
                                    epsilon=0.05)
                       for i, xy in centers.items()})
    policy = {i: GraphEdge(from_id=i, to_id=to,
                           landing_probs={0: 0.0, to: 1.0}, reward=-1.0,
                           time=1.0, sample_count=1)
              for i, to in ((2, 3), (3, 4), (4, 1))}
    funnels = {i: Lma(gain=0.1 * np.eye(2), attractor=milestones[i].center)
               for i in (1, 3, 4)}
    graph = TmaGraph(milestones=milestones,
                     edges={i: [e] for i, e in policy.items()}, goal_id=1,
                     failure_value=-100.0)
    tma = Tma(graph=graph, policy=policy, values={},
              success={0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
              time_to_goal={}, funnels=funnels, model=model)
    return tma, centers, p


def test_walk_switches_to_the_new_nodes_funnel():
    """A walk that lands on a new node steps that node's policy funnel
    from its next step on: node 2's walk lands on 3 and then on the goal,
    through the funnel of node 4, step for step as the array walk does."""
    tma, centers, p = _relay_tma()
    start = GaussianBelief(centers[2], p)
    sim = SimState(truth=start.mean.copy(), belief=start)
    ref = ArrayState(truth=start.mean.copy(), belief=start)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    config = JointConfig(sims=[sim], world=0)
    exe = GraphTmaExecution(TmaSpec(tma=tma), 0, config)
    walk = ArrayWalk(tma, ref)
    nodes = [exe.node]
    for _ in range(200):
        rewards, dead = [0.0], []
        done = exe.step(config, rng, rewards, [], dead)
        reward, ref_done, ref_dead = walk.step(ref_rng)
        assert (rewards[0], done, bool(dead), exe.node) == (
            reward, ref_done, ref_dead, walk.node)
        assert_same_walk_state(sim, ref)
        if nodes[-1] != exe.node:
            nodes.append(exe.node)
        if done:
            break
    assert done and nodes == [2, 3, 1]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_joint_walk_holds_on_the_goal_funnel_until_its_partner_lands():
    """In a joint walk, the member that arrives first station-keeps on the
    goal's funnel, not the funnel it arrived by, until its partner lands;
    each step matches two array walks stepped in agent order, the first
    holding from its arrival on."""
    tma, centers, p = _relay_tma()
    sims, refs = [], []
    for node in (3, 2):
        start = GaussianBelief(centers[node], p)
        sims.append(SimState(truth=start.mean.copy(), belief=start))
        refs.append(ArrayState(truth=start.mean.copy(), belief=start))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    config = JointConfig(sims=sims, world=0)
    spec = TmaSpec(tma=tma, agents_required=2, effect="met")
    exe = JointGraphExecution(spec, (0, 1), config)
    walks = [ArrayWalk(tma, ref) for ref in refs]
    held = 0
    for _ in range(300):
        rewards, events, dead = [0.0, 0.0], [], []
        done = exe.step(config, rng, rewards, events, dead)
        ref_rewards = []
        for walk in walks:
            reward, arrived, died = walk.step(ref_rng)
            ref_rewards.append(reward)
            assert not died
            if arrived:
                walk.hold_done = True
        ref_done = all(walk.hold_done for walk in walks)
        assert (rewards, done, dead) == (ref_rewards, ref_done, [])
        assert events == ([("met", (0, 1))] if done else [])
        for a, walk in enumerate(walks):
            sub = exe.subs[a]
            assert (sub.hold_done, sub.node) == (walk.hold_done, walk.node)
            assert_same_walk_state(sims[a], refs[a])
        held += walks[0].hold_done and not walks[1].hold_done
        if done:
            break
    assert done and held > 0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# bit-exact rollout values on the desk delivery domain; the values were
# recorded before the rollout path was optimised, so any change to a
# rollout's arithmetic or to its use of the random stream shows here
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_domain():
    return build_domain(desk_config(), np.random.default_rng(0))


def test_desk_policy_values_are_bit_exact(desk_domain):
    means = [repr(evaluate_joint_policy(
        sample_joint_policy(desk_domain, 13, np.random.default_rng(s)),
        desk_domain, 2, 40, np.random.default_rng(100 + s)).mean)
        for s in range(4)]
    assert means == ["-1.4817638218949998", "-1.5690369238492439",
                     "-1.568912696560198", "-2.9240930815846733"]


def test_desk_mmcs_value_trace_is_bit_exact(desk_domain):
    cfg = SearchConfig(n_nodes=13, budget=12, iter_max_mc=4, k_d=3,
                       mask_threshold=0.99, explore_rate=0.35, n_rollouts=2,
                       horizon_macro_steps=40)
    result = mmcs(desk_domain, cfg, np.random.default_rng(1000))
    assert [repr(v) for _, v in result.samples] == [
        "-1.1883737585176766", "-1.962533306652208", "-1.2177795716384179",
        "-1.8607388553055069", "-1.2471412907405468", "-1.4227401441560015",
        "3.7792235629555635", "-1.1883737585176766", "-1.7445771201223943",
        "-2.086190363764766", "8.746820884428804", "-1.467134264680083"]
    assert [repr(v) for _, v in result.trace] == (
        ["-1.1883737585176766"] * 6 + ["3.7792235629555635"] * 4
        + ["8.746820884428804"] * 2)


def _segment_digest(monkeypatch, run) -> str:
    """sha256 over every SegmentResult that ``step_joint`` returns while
    ``run()`` runs: duration, reward reprs, terminations, observations and
    deaths."""
    h = hashlib.sha256()
    inner = decposmdp.step_joint

    def recording(*args):
        seg = inner(*args)
        h.update(repr((seg.tau_min, repr(seg.reward_Rtau),
                       [repr(r) for r in seg.primitive_rewards],
                       sorted(seg.observations),
                       sorted(seg.observations.items()),
                       sorted(seg.dead_agents))).encode())
        return seg

    monkeypatch.setattr(decposmdp, "step_joint", recording)
    run()
    return h.hexdigest()


def test_desk_segments_are_bit_exact(desk_domain, monkeypatch):
    def run():
        for s in range(6):
            evaluate_joint_policy(
                sample_joint_policy(desk_domain, 13, np.random.default_rng(s)),
                desk_domain, 3, 40, np.random.default_rng(200 + s))

    assert _segment_digest(monkeypatch, run) == (
        "8d2f15b67fcabdfb4a88e5d6a45d8ef4542b1a7f88f812c181fdcf34355daf4e")


def test_desk_evaluation_builds_no_state_array(desk_domain, monkeypatch):
    """Desk rollouts run on the walk state's floats: one evaluation with the
    tier-1 search settings reads no ``SimState`` as arrays, so it builds
    none, while a single read builds the truth and mean arrays."""
    built, steps = [], []

    def counted(values, real=beliefs._state_array):
        built.append(len(values))
        return real(values)

    def step(*args, real=decposmdp.lma_step):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(beliefs, "_state_array", counted)
    monkeypatch.setattr(decposmdp, "lma_step", step)
    policy = sample_joint_policy(desk_domain, 13, np.random.default_rng(0))
    evaluate_joint_policy(policy, desk_domain, 2, 40,
                          np.random.default_rng(0))
    assert steps and built == []
    config = desk_domain.initial(np.random.default_rng(0))
    config.sims[0].truth
    config.sims[0].belief
    assert built == [2, 2]


def test_each_idle_agent_is_checked_once_per_segment(desk_domain,
                                                     monkeypatch):
    """Over one desk evaluation, ``initiation_ok`` runs once for each agent
    idle at a segment's start and once for each effect event
    ``e_dynamics`` applies: no segment checks an agent twice."""
    cls = type(desk_domain)
    policy = sample_joint_policy(desk_domain, 13, np.random.default_rng(0))
    calls = {"initiation_ok": 0, "idle": 0, "events": 0}
    check, dynamics, step = (cls.initiation_ok, cls.e_dynamics,
                             decposmdp.step_joint)

    def counted_check(self, *args):
        calls["initiation_ok"] += 1
        return check(self, *args)

    def counted_dynamics(self, events, *args):
        calls["events"] += len(events)
        return dynamics(self, events, *args)

    def counted_step(config, *args):
        calls["idle"] += sum(1 for a in range(len(config.sims))
                             if a not in config.dead
                             and a not in config.executions)
        return step(config, *args)

    monkeypatch.setattr(cls, "initiation_ok", counted_check)
    monkeypatch.setattr(cls, "e_dynamics", counted_dynamics)
    monkeypatch.setattr(decposmdp, "step_joint", counted_step)
    evaluate_joint_policy(policy, desk_domain, 3, 40,
                          np.random.default_rng(300))
    assert calls["idle"] > 0 and calls["events"] > 0
    assert calls["initiation_ok"] == calls["idle"] + calls["events"]


def test_joint_and_lethal_graph_segments_are_bit_exact(small_tma, monkeypatch):
    """Desk rollouts start no joint graph walk, so this guard runs joint
    walks on the toy graph domain, with deaths: every fifth constraint
    check kills the agent it checks."""
    tma, _ = small_tma
    checks = [0]

    def every_fifth(x):
        checks[0] += 1
        return checks[0] % 5 == 0

    lethal = _integrator_model(constraints=PredicateConstraints(every_fifth))
    lethal_tma = Tma(graph=tma.graph, policy=tma.policy, values=tma.values,
                     success=tma.success, time_to_goal=tma.time_to_goal,
                     funnels=tma.funnels, start_id=tma.start_id, model=lethal)
    dom = GraphToyDomain(lethal_tma, lethal, n_agents=2, joint=True)
    c0 = _Controller(labels=["go", "wait"], edges={(0, 0): 1, (1, 0): 0})
    c1 = _Controller(labels=["go", "wait", "wait"],
                     edges={(0, 0): 1, (1, 0): 2, (2, 0): 0})
    deaths = []

    def run():
        for sub in np.random.default_rng(9).spawn(6):
            final = run_rollout(_Policy([c0, c1]), dom, 8, sub).final
            deaths.append(len(final.dead))

    assert _segment_digest(monkeypatch, run) == (
        "2d7191fc97773bc32474fca60a3c41d6667f90b92da30fcc426d2667a6b0fa8f")
    assert sum(deaths) > 0
