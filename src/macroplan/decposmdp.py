"""Decentralized partially observable semi-Markov decision process machinery.

Agents run macro-actions asynchronously at the primitive level; a decision
segment ends the first time any agent's macro-action terminates.  The segment
reward is the per-step discounted joint reward accumulated up to that
termination, so the macro-level discounted sum telescopes exactly into the
primitive-level discounted sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Hashable, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from .beliefs import SimState, lma_step
from .tma import Tma

# primitive steps a graph walk may spend on one edge before its agent dies
MAX_EDGE_STEPS = 1000

# relative tolerance of the semi-Markov identity every rollout checks
IDENTITY_TOL = 1e-9


@dataclass
class RewardSpec:
    """The joint reward's discount factor; a segment's joint reward is the
    sum of the agents' rewards and the domain's team reward."""

    discount: float = 0.99

    def __post_init__(self):
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")


@dataclass
class TmaSpec:
    """A macro-action available to an agent: either a solved graph TMA
    (movement) or a fixed-duration task with a world effect."""

    tma: Optional[Tma] = None
    duration: Optional[int] = None
    agents_required: int = 1
    effect: Optional[Hashable] = None     # event tag applied at termination
    step_reward: float = 0.0              # per primitive step, timed tasks

    def __post_init__(self):
        if (self.tma is None) == (self.duration is None):
            raise ValueError("exactly one of tma/duration must be set")


@dataclass
class JointConfig:
    """The Dec-POSMDP state: per-agent simulations plus the environment
    state, ``world``, which only the domain reads.  An agent is busy while
    it has an entry in ``executions``, and dead once it is in ``dead``."""

    sims: List[SimState]
    world: Any = None
    clock: int = 0
    executions: Dict[int, "Execution"] = field(default_factory=dict)
    dead: Set[int] = field(default_factory=set)


class Execution:
    """One running macro-action instance covering one or more agents.

    ``step`` advances it one primitive step.  It adds each of its agents'
    step reward into ``rewards``, indexed by agent, appends its effect
    events to ``events`` and the agents that died to ``dead``, and returns
    whether the macro-action terminated.  A death ends a single-agent walk
    without terminating it; it ends a joint walk, which then terminates
    without its effect for the members still alive."""

    agents: Tuple[int, ...]
    spec: TmaSpec

    def step(self, config: JointConfig, rng: np.random.Generator,
             rewards: List[float], events: List,
             dead: List[int]) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class TimedExecution(Execution):
    """Fixed-duration task; its effect event fires at the terminal step."""

    def __init__(self, spec: TmaSpec, agents: Sequence[int]):
        self.spec = spec
        self.agents = tuple(agents)
        self.remaining = int(spec.duration)

    def step(self, config: JointConfig, rng: np.random.Generator,
             rewards: List[float], events: List, dead: List[int]) -> bool:
        self.remaining -= 1
        r = self.spec.step_reward
        for a in self.agents:
            rewards[a] += r
        if self.remaining > 0:
            return False
        if self.spec.effect is not None:
            events.append((self.spec.effect, self.agents))
        return True


class GraphTmaExecution(Execution):
    """Primitive-level walk of a solved TMA graph: at each milestone the
    policy's funnel runs until the belief lands in the next ball.  Its
    entry, constraint and landing tests read the walk state's floats, so a
    walk builds no state array."""

    def __init__(self, spec: TmaSpec, agent: int, config: JointConfig):
        self.spec = spec
        self.agents = (agent,)
        self.tma = tma = spec.tma
        self.model = tma.model
        sim = config.sims[agent]
        entry = tma.entry_node_at(sim.mean, sim.cov, sim.cov_key)
        # already in the goal ball, or arrived in a joint walk: hold, done
        self.hold_done = entry is None
        self.node = tma.graph.goal_id if entry is None else entry
        self.steps_on_edge = 0

    def step(self, config: JointConfig, rng: np.random.Generator,
             rewards: List[float], events: List, dead: List[int]) -> bool:
        agent = self.agents[0]
        sim = config.sims[agent]
        tma = self.tma
        before = sim.accrued_reward
        if self.hold_done:
            lma_step(tma.funnels[tma.graph.goal_id], sim, self.model, rng)
            rewards[agent] += sim.accrued_reward - before
            return True
        lma_step(tma.funnels[tma.policy[self.node].to_id], sim, self.model,
                 rng)
        rewards[agent] += sim.accrued_reward - before
        if self.model.constraints.violates(sim.x):
            dead.append(agent)
            return False
        self.steps_on_edge += 1
        nid = tma.stop_node_at(sim.mean, sim.cov, sim.cov_key)
        if nid is not None:
            if nid != self.node:
                self.node = nid
                self.steps_on_edge = 0
            if nid == tma.graph.goal_id:
                return True
        if self.steps_on_edge >= MAX_EDGE_STEPS:
            dead.append(agent)  # never-terminating funnel folds into failure
        return False


class JointGraphExecution(Execution):
    """Two linked graph walks; terminates when both reach their goals.
    An agent that arrives first station-keeps until its partner lands.
    A member's death ends the walk that step, without its effect."""

    def __init__(self, spec: TmaSpec, agents: Sequence[int], config: JointConfig):
        self.spec = spec
        self.agents = tuple(agents)
        self.subs = {a: GraphTmaExecution(spec, a, config) for a in self.agents}

    def step(self, config: JointConfig, rng: np.random.Generator,
             rewards: List[float], events: List, dead: List[int]) -> bool:
        n_dead = len(dead)
        for a in sorted(self.agents):
            sub = self.subs[a]
            if sub.step(config, rng, rewards, events, dead):
                sub.hold_done = True   # arrived: it station-keeps from now on
        if len(dead) > n_dead:
            return True
        if not all(sub.hold_done for sub in self.subs.values()):
            return False
        if self.spec.effect is not None:
            events.append((self.spec.effect, self.agents))
        return True


class Domain:
    """Base class for Dec-POSMDP domains.

    Subclasses own the world model: rosters, initiation predicates,
    environmental dynamics, observations, and team rewards.
    """

    n_agents: int
    rewards: RewardSpec

    def roster(self, agent: int) -> Dict[Hashable, TmaSpec]:
        raise NotImplementedError

    def initial(self, rng: np.random.Generator) -> JointConfig:
        raise NotImplementedError

    def initiation_ok(self, agent: int, tma_id: Hashable,
                      config: JointConfig) -> bool:
        raise NotImplementedError

    def begin_executions(self, starts: List[Tuple[TmaSpec, Tuple[int, ...]]],
                         config: JointConfig) -> List[Execution]:
        """One execution per start: a macro-action's spec and the agents,
        in agent order, that begin it together."""
        raise NotImplementedError

    def observe(self, agent: int, config: JointConfig) -> Hashable:
        """The e-state class a terminating agent observes; it labels the
        controller edge the agent takes next."""
        raise NotImplementedError

    def obs_alphabet(self) -> List[Hashable]:
        raise NotImplementedError

    def team_reward(self, events: List, config: JointConfig) -> float:
        """The team's reward for the effect events one primitive step
        fired; called only on a step that fired at least one."""
        return 0.0

    def e_dynamics(self, events: List, config: JointConfig,
                   rng: np.random.Generator) -> None:
        pass

    def fallback_tma(self, agent: int) -> Optional[Hashable]:
        """Macro-action an idle agent starts when its choice cannot start:
        a single-agent one that always initiates, so it is not checked."""
        return None

    def valid_successors(self, agent: int, tma_id: Hashable,
                         obs_label: Hashable) -> List[Hashable]:
        """Successor macro-actions whose initiation set intersects the
        termination set of ``tma_id`` under observation ``obs_label``.
        Defaults to the whole roster (unrestricted chaining)."""
        return sorted(self.roster(agent), key=str)

    @functools.cached_property
    def sampling_tables(self) -> List[Tuple[List[Hashable], Dict[
            Hashable, List[Tuple[Hashable, FrozenSet[Hashable]]]]]]:
        """Per agent, what the controller sampler reads: the roster in
        sampling order (by ``str``), and for each macro-action the
        observations in ``obs_alphabet`` order, each with its
        ``valid_successors`` as a set.  Rosters and successors never
        change, so they are read once per domain."""
        alphabet = self.obs_alphabet()
        tables = []
        for agent in range(self.n_agents):
            roster = sorted(self.roster(agent), key=str)
            tables.append((roster, {
                lb: [(obs, frozenset(self.valid_successors(agent, lb, obs)))
                     for obs in alphabet]
                for lb in roster}))
        return tables


@dataclass
class SegmentResult:
    """Outcome of one decision segment (up to the first termination)."""

    reward_Rtau: float
    tau_min: int
    observations: Dict[int, Hashable]     # terminated agent -> e-state class
    dead_agents: Set[int] = field(default_factory=set)
    primitive_rewards: List[float] = field(default_factory=list)


def _running_executions(config: JointConfig) -> List[Execution]:
    """Each running execution once, in the order of its lowest agent."""
    execs: List[Execution] = []
    for a in sorted(config.executions):
        exe = config.executions[a]
        if exe not in execs:   # executions compare by identity
            execs.append(exe)
    return execs


def segment_starts(config: JointConfig, chosen: Dict[int, Hashable],
                   domain: Domain) -> List[Tuple[TmaSpec, Tuple[int, ...]]]:
    """The ``(spec, agents)`` starts a segment makes, where ``chosen`` maps
    agents to the macro-actions their controllers picked.

    A busy or dead agent keeps what it has.  An idle agent's choice is
    checked once against its initiation set; one that cannot initiate is
    replaced by ``domain.fallback_tma``, or the agent stays idle when there
    is none.  A single-agent macro-action starts for its agent; a joint one
    only as a whole group, its first ``agents_required`` members in agent
    order.  Members of a short group, and members beyond the group size,
    fall back too."""
    starts = []
    groups: Dict[Hashable, Tuple[TmaSpec, List[int]]] = {}
    left: List[int] = []
    for agent, tma_id in sorted(chosen.items()):
        if agent in config.dead or agent in config.executions:
            continue
        if not domain.initiation_ok(agent, tma_id, config):
            left.append(agent)
            continue
        spec = domain.roster(agent)[tma_id]
        if spec.agents_required > 1:
            groups.setdefault(tma_id, (spec, []))[1].append(agent)
        else:
            starts.append((spec, (agent,)))
    for spec, members in groups.values():
        n = spec.agents_required
        if len(members) < n:
            left += members
        else:
            starts.append((spec, tuple(members[:n])))
            left += members[n:]
    for agent in left:
        fb = domain.fallback_tma(agent)
        if fb is not None:
            starts.append((domain.roster(agent)[fb], (agent,)))
    return starts


def step_joint(config: JointConfig,
               starts: List[Tuple[TmaSpec, Tuple[int, ...]]], domain: Domain,
               rng: np.random.Generator) -> SegmentResult:
    """Begin ``starts``, as ``segment_starts`` returns them, and advance all
    agents in lockstep until the first macro-action terminates.  Rewards
    are discounted from the segment start."""
    executions = config.executions
    if starts:
        for exe in domain.begin_executions(starts, config):
            for a in exe.agents:
                executions[a] = exe

    gamma = domain.rewards.discount
    n_agents = len(config.sims)
    reward_rtau = 0.0
    disc = 1.0
    prim: List[float] = []   # joint reward per step; len(prim) steps
    observations: Dict[int, Hashable] = {}
    dead: Set[int] = set()
    # the executions that terminate, all on the segment's last step
    done: List[Execution] = []
    # the running executions change within a segment only when an agent dies
    execs = _running_executions(config)
    while execs:
        rewards = [0.0] * n_agents
        events: List = []
        died: List[int] = []
        for exe in execs:
            if exe.step(config, rng, rewards, events, died):
                done.append(exe)
        if died:
            for a in died:
                config.dead.add(a)
                dead.add(a)
                executions.pop(a, None)
            execs = _running_executions(config)
        # agent rewards, then the team reward, summed in that order; a
        # step that fired no event pays no team reward
        rewards.append(domain.team_reward(events, config) if events else 0.0)
        rbar = sum(rewards)
        reward_rtau += disc * rbar
        prim.append(rbar)
        disc *= gamma
        if done:
            domain.e_dynamics(events, config, rng)
            for exe in done:
                for a in exe.agents:
                    if a in config.dead:
                        continue   # the dead neither terminate nor observe
                    executions.pop(a, None)
                    observations[a] = domain.observe(a, config)
            break
    config.clock += len(prim)
    return SegmentResult(reward_rtau, len(prim), observations, dead, prim)


@dataclass
class RolloutTrace:
    value: float
    primitive_value: float
    final: Optional[JointConfig] = None


@dataclass
class PolicyValue:
    mean: float
    stderr: float


def run_rollout(policy, domain: Domain, horizon_macro_steps: int,
                rng: np.random.Generator) -> RolloutTrace:
    """One seeded rollout of a joint policy.  Asserts the semi-Markov
    bookkeeping identity: the macro-level discounted sum equals the
    primitive-level one."""
    gamma = domain.rewards.discount
    config = domain.initial(rng)
    controllers = policy.controllers
    agents = range(domain.n_agents)
    nodes = [controllers[i].initial_node for i in agents]
    executions, dead = config.executions, config.dead
    macro_value = 0.0
    prim_ledger: List[float] = []
    for _ in range(horizon_macro_steps):
        chosen = {}   # only idle agents that are alive choose
        for a in agents:
            if a not in executions and a not in dead:
                chosen[a] = controllers[a].nodes[nodes[a]]
        starts = segment_starts(config, chosen, domain) if chosen else []
        if not starts and not executions:
            break
        seg = step_joint(config, starts, domain, rng)
        macro_value += gamma ** (config.clock - seg.tau_min) * seg.reward_Rtau
        prim_ledger.extend(seg.primitive_rewards)
        for a, obs in seg.observations.items():
            nodes[a] = controllers[a].edge(nodes[a], obs)
    primitive_value = float(sum(r * gamma ** t
                                for t, r in enumerate(prim_ledger)))
    if abs(primitive_value - macro_value) > IDENTITY_TOL * max(
            1.0, abs(primitive_value)):
        raise AssertionError(
            f"semi-Markov identity violated: {macro_value} vs {primitive_value}")
    return RolloutTrace(value=macro_value, primitive_value=primitive_value,
                        final=config)


def evaluate_joint_policy(policy, domain: Domain, n_rollouts: int,
                          horizon_macro_steps: int,
                          rng: np.random.Generator) -> PolicyValue:
    """Monte Carlo estimate of the joint value of a finite-state-controller
    policy over independent seeded rollouts."""
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be >= 1")
    arr = np.asarray([run_rollout(policy, domain, horizon_macro_steps,
                                  sub).value
                      for sub in rng.spawn(n_rollouts)])
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return PolicyValue(mean=float(arr.mean()), stderr=stderr)
