"""Task macro-actions (TMAs) built as graphs of belief-space funnels.

A TMA samples milestone beliefs over a task's workspace, connects nearest
neighbors with funnel controllers, estimates every edge's landing
distribution, reward and duration by offline simulation, and solves an
undiscounted dynamic program over the graph with absorbing goal and failure
nodes.  Success probabilities and expected completion times then come from
the absorbing-chain linear systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import chains
from .beliefs import (BallIndex, GainSpec, GaussianBelief,
                      LinearGaussianModel, Lma, NormalBlocks, SimState,
                      TerminationRecord, _diagonal, _psd_sqrt, design_lma,
                      run_lma)
from .errors import (ConfigError, GoalUnreachable, NonConvergent, NoOutgoingEdge,
                     check_field_types)

FAILURE_ID = 0

# radius of the singleton start node's ball
START_EPSILON = 1e-9

# value-iteration convergence tolerance
DP_TOL = 1e-9

TMA_FORMAT = "macroplan-tma-v4"


@dataclass(frozen=True)
class Milestone:
    """An epsilon-ball around an attractor belief; id 0 is the failure node."""

    id: int
    center: Optional[GaussianBelief]
    epsilon: float

    def __post_init__(self):
        if self.id != FAILURE_ID and self.center is None:
            raise ValueError("non-failure milestones need a center")
        if self.id != FAILURE_ID and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class GraphEdge:
    """The estimated landing statistics of running milestone ``to_id``'s
    funnel from milestone ``from_id``."""

    from_id: int
    to_id: int
    landing_probs: Dict[int, float]
    reward: float
    time: float
    sample_count: int

    def __post_init__(self):
        total = sum(self.landing_probs.values())
        if self.sample_count > 0 and abs(total - 1.0) > 1e-9:
            raise ValueError(f"landing_probs sum to {total}, expected 1")


@dataclass
class TmaGraph:
    milestones: Dict[int, Milestone]
    edges: Dict[int, List[GraphEdge]]   # from_id -> outgoing edges
    goal_id: int
    failure_value: float

    def __post_init__(self):
        if self.goal_id not in self.milestones:
            raise ValueError("goal milestone missing")
        if self.failure_value > 0:
            raise ValueError("failure_value must be non-positive")

    def transient_ids(self) -> List[int]:
        return sorted(i for i in self.milestones
                      if i not in (FAILURE_ID, self.goal_id))

    def outgoing(self, node_id: int) -> List[GraphEdge]:
        return self.edges.get(node_id, [])


def ball_index(milestones: Dict[int, Milestone]) -> BallIndex:
    """The balls of every milestone but the failure node, in id order."""
    return BallIndex([ms for i, ms in sorted(milestones.items())
                      if i != FAILURE_ID])


@dataclass
class Tma:
    """A solved TMA: graph, greedy policy, its closed-form analytics, and
    the funnel of every milestone an edge targets, goal included.  ``balls``
    is the ball index of its milestones, and ``stop_order`` the positions
    in it of the nodes where a walk may stop."""

    graph: TmaGraph
    policy: Dict[int, GraphEdge]
    values: Dict[int, float]
    success: Dict[int, float]
    time_to_goal: Dict[int, float]
    funnels: Dict[int, Lma]
    start_id: Optional[int] = None
    model: Optional[LinearGaussianModel] = None

    def __post_init__(self):
        self.balls = ball_index(self.graph.milestones)
        ids = self.balls.ids
        goal = self.graph.goal_id
        # positions in the ball index of the goal, of the nodes a walk may
        # enter (policy nodes whose success is above 0: from any other the
        # policy never reaches the goal), and of the nodes where it may stop
        # (policy nodes and the goal), each in id order
        self._goal_order = (ids.index(goal),)
        self._entry_idx = [k for k, i in enumerate(ids)
                           if i in self.policy and self.success[i] > 0]
        self.stop_order = [k for k, i in enumerate(ids)
                           if i in self.policy or i == goal]

    def distances(self, b: GaussianBelief) -> np.ndarray:
        return self.balls.distances(b)

    def entry_node_at(self, mean: List[float], cov: np.ndarray,
                      key: Optional[bytes] = None) -> Optional[int]:
        """Where a walk from the belief with float mean ``mean`` and
        covariance ``cov`` (whose bytes ``key`` is if known) enters the
        graph: None when the goal ball holds it, else the nearest policy
        node whose success is above 0, ties to the lower id."""
        balls = self.balls
        if balls.first_at(mean, cov, self._goal_order, key) is not None:
            return None
        # ids are sorted and nearest_at takes the first of equal distances
        return balls.ids[balls.nearest_at(mean, cov, self._entry_idx, key)]

    def stop_node_at(self, mean: List[float], cov: np.ndarray,
                     key: Optional[bytes] = None) -> Optional[int]:
        """The first stop node (the goal or a policy node), in id order,
        whose ball holds the belief with float mean ``mean`` and covariance
        ``cov`` (whose bytes ``key`` is if known); None if none does."""
        k = self.balls.first_at(mean, cov, self.stop_order, key)
        return None if k is None else self.balls.ids[k]


@dataclass(frozen=True)
class TmaConfig:
    """Sampling and estimation configuration for TMA construction."""

    n_nodes: int = 8                 # sampled milestones including the goal
    k_neighbors: int = 4
    m_sims: int = 50
    epsilon: float = 0.1
    max_steps: int = 10_000
    failure_value: float = -100.0
    gain_spec: GainSpec = field(default_factory=GainSpec)
    bounds_lo: Optional[np.ndarray] = None
    bounds_hi: Optional[np.ndarray] = None

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.n_nodes < 2:
            raise ConfigError("n_nodes must be >= 2")
        if self.k_neighbors < 1 or self.m_sims < 1:
            raise ConfigError("k_neighbors and m_sims must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.failure_value > 0:
            raise ConfigError("failure_value must be non-positive")


def estimate_edge(start_milestone: Milestone, lma: Lma, to_id: int,
                  balls: BallIndex, model: LinearGaussianModel, m: int,
                  max_steps: int, rng: np.random.Generator,
                  cov_sqrt: Optional[np.ndarray] = None) -> GraphEdge:
    """Monte Carlo estimate of one edge's landing distribution, reward and
    duration under ``lma``, milestone ``to_id``'s funnel.  Starts are the
    milestone center plus Gaussian mean jitter (sigma = epsilon/3); a run
    lands in the first ball of ``balls``, in index order, other than the
    start milestone's.  Timeouts fold into the failure node's mass.
    ``cov_sqrt`` is the square root of the center's covariance
    (``_psd_sqrt``), taken here when the caller passes None.

    The edge owns ``rng``: its standard normals (each run's start jitter,
    then every step's noise) come from it in blocks, through
    ``NormalBlocks``.  Each value keeps its place in the stream, so the
    edge is the one that drawing them a start and a step at a time gives;
    only the end state of ``rng`` differs.

    The balls are scanned once at the center, and every run takes that
    scan as its last (``run_lma``'s ``scanned``): a run whose start lies
    within its room makes no scan before its first step.

    When the square root of the center's covariance is diagonal, each run's
    start is formed in floats, ``c + sigma*d`` and ``mean + s*d`` per axis:
    a row of a diagonal matrix has one nonzero term, so these are the values
    of the array products, which any other root takes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    center = start_milestone.center
    sigma = start_milestone.epsilon / 3.0
    order = [k for k, i in enumerate(balls.ids) if i != start_milestone.id]
    cov, cov_key = center.cov, center.cov.tobytes()
    if cov_sqrt is None:
        cov_sqrt = _psd_sqrt(cov)
    roots = _diagonal(cov_sqrt)
    c = center.mean.tolist()
    n = len(c)
    scanned = (c, cov_key, balls.scan_at(c, cov, order, cov_key)[1])
    # each axis's center and root, for the float starts
    axes = None if roots is None else list(zip(c, roots))
    counts: Dict[int, int] = dict.fromkeys([FAILURE_ID, *balls.ids], 0)
    total_reward = 0.0
    total_time = 0.0
    normals = NormalBlocks(rng)
    for _ in range(m):
        # the mean jitter, then the truth offset
        draw = normals.take(2 * n)
        if axes is not None:
            mean, truth = [], []
            for (ci, s), d, e in zip(axes, draw, draw[n:]):
                mi = ci + sigma * d
                mean.append(mi)
                truth.append(mi + s * e)
        else:
            draw_a = np.array(draw)
            mean_a = center.mean + sigma * draw_a[:n]
            mean = mean_a.tolist()
            truth = (mean_a + cov_sqrt @ draw_a[n:]).tolist()
        sim = SimState.of_floats(truth, mean, cov, cov_key)
        rec = run_lma(lma, sim, balls, model, max_steps, normals, order,
                      scanned)
        if rec.outcome == TerminationRecord.LANDED:
            counts[rec.region_id] += 1
        else:
            counts[FAILURE_ID] += 1
        total_reward += rec.accrued_reward
        total_time += rec.elapsed_steps
    probs = {i: c / m for i, c in counts.items()}
    mean_time = max(total_time / m, 1e-9)  # edge times must stay positive
    return GraphEdge(from_id=start_milestone.id, to_id=to_id,
                     landing_probs=probs, reward=total_reward / m,
                     time=mean_time, sample_count=m)


def _backup(edges: Sequence[GraphEdge], values: Dict[int, float]
            ) -> Tuple[float, Optional[GraphEdge]]:
    """Bellman backup over one node's outgoing ``edges``, given sorted by
    target id; the strict ``>`` breaks ties toward the lowest target id."""
    best, best_edge = -np.inf, None
    for edge in edges:
        rhs = edge.reward + sum(p * values[j]
                                for j, p in edge.landing_probs.items() if p)
        if rhs > best:
            best, best_edge = rhs, edge
    return best, best_edge


def _stuck_nodes(graph: TmaGraph, transient: Sequence[int]) -> List[int]:
    """Transient nodes from which no chain of edges with positive landing
    mass reaches the goal or the failure node."""
    reach = {graph.goal_id, FAILURE_ID}
    grew = True
    while grew:
        grew = False
        for i in transient:
            if i not in reach and any(
                    p > 0 and j in reach
                    for e in graph.outgoing(i)
                    for j, p in e.landing_probs.items()):
                reach.add(i)
                grew = True
    return [i for i in transient if i not in reach]


def solve_graph_dp(graph: TmaGraph, tol: float = DP_TOL,
                   max_sweeps: int = 100_000
                   ) -> Tuple[Dict[int, float], Dict[int, GraphEdge]]:
    """Value iteration over the LMA graph with absorbing boundaries.

    V(goal) = 0 and V(failure) = failure_value are held fixed; ties in the
    greedy argmax break toward the lowest edge target id.

    Raises NonConvergent without sweeping when some transient nodes can
    never leave their set and every edge out of them costs more than
    ``tol``: each sweep then lowers the set's largest value by at least the
    smallest such cost, so the sweeps could never converge.
    """
    values: Dict[int, float] = {graph.goal_id: 0.0, FAILURE_ID: graph.failure_value}
    transient = graph.transient_ids()
    for i in transient:
        if not graph.outgoing(i):
            raise NoOutgoingEdge(f"node {i} has no outgoing edges")
        values[i] = 0.0

    stuck = _stuck_nodes(graph, transient)
    if stuck and all(e.reward < -tol for i in stuck for e in graph.outgoing(i)):
        raise NonConvergent(
            f"graph DP cannot converge: nodes {stuck} never reach the goal "
            f"or failure node and every edge out of them has negative reward")

    outgoing = {i: sorted(graph.outgoing(i), key=lambda e: e.to_id)
                for i in transient}
    for _ in range(max_sweeps):
        delta = 0.0
        for i in transient:
            best, _ = _backup(outgoing[i], values)
            delta = max(delta, abs(best - values[i]))
            values[i] = best
        if delta <= tol:
            break
    else:
        raise NonConvergent("graph DP did not converge; improper policy cycle?")

    policy = {i: _backup(outgoing[i], values)[1] for i in transient}
    return values, policy


def _policy_transition_blocks(graph: TmaGraph, policy: Dict[int, GraphEdge]):
    transient = graph.transient_ids()
    idx = {i: k for k, i in enumerate(transient)}
    n = len(transient)
    Q = np.zeros((n, n))
    to_goal = np.zeros(n)
    times = np.zeros(n)
    for i in transient:
        edge = policy[i]
        times[idx[i]] = edge.time
        for j, p in edge.landing_probs.items():
            if p == 0.0:
                continue
            if j == graph.goal_id:
                to_goal[idx[i]] += p
            elif j != FAILURE_ID:
                Q[idx[i], idx[j]] += p
    return transient, Q, to_goal, times


def success_probabilities(graph: TmaGraph,
                          policy: Dict[int, GraphEdge]) -> Dict[int, float]:
    """Goal-absorption probability for every node under the fixed policy."""
    transient, Q, to_goal, _ = _policy_transition_blocks(graph, policy)
    h = chains.absorption_probabilities(Q, to_goal)
    out = {graph.goal_id: 1.0, FAILURE_ID: 0.0}
    for i, v in zip(transient, h):
        out[i] = float(min(max(v, 0.0), 1.0))
    return out


def expected_times(graph: TmaGraph,
                   policy: Dict[int, GraphEdge]) -> Dict[int, float]:
    """Expected steps to absorption for every node under the fixed policy."""
    transient, Q, _, times = _policy_transition_blocks(graph, policy)
    t = chains.expected_absorption_times(Q, times)
    out = {graph.goal_id: 0.0, FAILURE_ID: 0.0}
    for i, v in zip(transient, t):
        out[i] = float(v)
    return out


def _closed_start_set(start_id: int, jobs: Sequence[tuple],
                      estimate: Callable[[int], GraphEdge]
                      ) -> Optional[List[int]]:
    """Estimate edges breadth-first from the start, following every node an
    edge lands on with positive mass; ``estimate(k)`` estimates job ``k``.

    Returns None as soon as an edge puts mass on the goal (id 1) or the
    failure node.  Otherwise the nodes reached form a closed set that never
    leaves itself, and they are returned sorted.
    """
    by_node: Dict[int, List[int]] = {}
    for k, (i, _) in enumerate(jobs):
        by_node.setdefault(i, []).append(k)
    reached = [start_id]
    for i in reached:   # grows while it is read: breadth-first order
        for k in by_node[i]:
            landed = [j for j, p in estimate(k).landing_probs.items() if p > 0]
            if FAILURE_ID in landed or 1 in landed:
                return None
            reached += [j for j in landed if j not in reached]
    return sorted(reached)


def _settle_projector(A: np.ndarray) -> Optional[np.ndarray]:
    """Orthogonal projector onto null(A - I).  A funnel u = -L (x - target)
    holds its target still only if A target = target, so only those states
    can be milestones; None when A = I and every state is one."""
    eye = np.eye(A.shape[0])
    if np.array_equal(A, eye):
        return None
    # the right singular vectors past the numerical rank: the singular
    # values above max(M, N) * eps * s_max
    _, s, vh = np.linalg.svd(A - eye)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s.max()))
    basis = vh[rank:].T
    return basis @ basis.T


def construct_tma(start: GaussianBelief, goal_mean: np.ndarray,
                  task_model: LinearGaussianModel, cfg: TmaConfig,
                  rng: np.random.Generator) -> Tma:
    """Build and solve a TMA graph (offline phase).

    Milestone ids: 0 failure, 1 goal, 2..n-1 sampled, n the singleton start.
    Sampled means are projected onto null(A - I), the states a funnel can
    settle on.

    Edges are estimated breadth-first from the start node.  If the nodes its
    edges reach never land on the goal or failure node, the start's success
    is 0 under every policy: GoalUnreachable is raised, naming the start and
    that closed set, before the other edges are estimated and before the
    graph DP.  Otherwise every edge is estimated, with the same result as in
    job order.  A sampling box with ``bounds_lo`` above ``bounds_hi`` on any
    axis, the unit box's bounds filling in those not given, is a
    ConfigError, raised before any work.
    """
    goal_mean = np.asarray(goal_mean, dtype=float).ravel()
    # the sampling box, the unit box by default; equal bounds pin an axis
    dim = task_model.state_dim
    lo = np.asarray(cfg.bounds_lo if cfg.bounds_lo is not None
                    else np.zeros(dim), dtype=float)
    hi = np.asarray(cfg.bounds_hi if cfg.bounds_hi is not None
                    else np.ones(dim), dtype=float)
    if np.any(lo > hi):
        axis = int(np.argmax(lo > hi))
        raise ConfigError(
            f"sampling box is inverted: bounds_lo {lo.tolist()} exceeds "
            f"bounds_hi {hi.tolist()} on axis {axis}")

    # one gain/filter design serves every funnel (stationary model)
    base_lma = design_lma(task_model, goal_mean, cfg.gain_spec)
    p_stat = base_lma.attractor.cov

    milestones: Dict[int, Milestone] = {
        FAILURE_ID: Milestone(id=FAILURE_ID, center=None, epsilon=1.0),
        1: Milestone(id=1, center=base_lma.attractor, epsilon=cfg.epsilon),
    }
    n_sampled = cfg.n_nodes - 1  # goal is one of the n_nodes sampled milestones
    min_sep = 2.0 * cfg.epsilon  # overlapping balls would create free cycles
    settle = _settle_projector(task_model.A)
    tries = blocked = crowded = 0
    next_id = 2
    while next_id < n_sampled + 1:
        mean = lo + (hi - lo) * rng.random(task_model.state_dim)
        if settle is not None:
            mean = settle @ mean
        tries += 1
        if tries > 1000 * max(n_sampled, 1):
            where = "" if settle is None else " with A x = x"
            cause = ("no more fit 2*epsilon apart" if crowded >= blocked
                     else "the constraints cover most draws")
            raise ConfigError(
                f"could not sample milestones{where} for "
                f"n_nodes={cfg.n_nodes}, epsilon={cfg.epsilon}: {cause} "
                f"({crowded} draws too close to a milestone, {blocked} "
                f"violating a constraint)")
        if task_model.constraints.violates(mean):
            blocked += 1
            continue
        if any(np.linalg.norm(mean - ms.center.mean) < min_sep
               for i, ms in milestones.items() if i != FAILURE_ID):
            crowded += 1
            continue
        milestones[next_id] = Milestone(
            id=next_id, center=GaussianBelief(mean=mean, cov=p_stat),
            epsilon=cfg.epsilon)
        next_id += 1
    start_id = n_sampled + 1
    milestones[start_id] = Milestone(id=start_id, center=start,
                                     epsilon=START_EPSILON)

    # k-nearest-neighbor connectivity by Euclidean distance between means;
    # the singleton start node is never a connection target
    target_ids = [i for i in milestones if i not in (FAILURE_ID, start_id)]
    # each target's funnel, run by every edge into it
    funnels = {j: Lma(gain=base_lma.gain, attractor=milestones[j].center)
               for j in target_ids}
    target_means = np.stack([milestones[i].center.mean for i in target_ids])
    jobs = []
    for i in sorted(milestones):
        if i in (FAILURE_ID, 1):
            continue  # goal and failure are absorbing
        src = milestones[i]
        d = np.linalg.norm(target_means - src.center.mean[None, :], axis=1)
        order = [target_ids[k] for k in np.argsort(d, kind="stable")
                 if target_ids[k] != i]
        jobs += [(i, j) for j in order[:cfg.k_neighbors]]

    # every job owns its child generator, so the order in which edges are
    # estimated changes no edge
    subs = rng.spawn(len(jobs))
    balls = ball_index(milestones)
    results: List[Optional[GraphEdge]] = [None] * len(jobs)

    # covariance bytes -> its square root: every sampled milestone and the
    # goal share p_stat
    roots: Dict[bytes, np.ndarray] = {}

    def estimate(k: int) -> GraphEdge:
        i, j = jobs[k]
        cov = milestones[i].center.cov
        key = cov.tobytes()
        if key not in roots:
            roots[key] = _psd_sqrt(cov)
        results[k] = estimate_edge(milestones[i], funnels[j], j, balls,
                                   task_model, cfg.m_sims, cfg.max_steps,
                                   subs[k], roots[key])
        return results[k]

    cut_off = _closed_start_set(start_id, jobs, estimate)
    if cut_off is not None:
        raise GoalUnreachable(
            f"start node {start_id} never reaches the goal or failure node: "
            f"the edges of nodes {cut_off} land only among themselves")
    edges: Dict[int, List[GraphEdge]] = {}
    for k in range(len(jobs)):
        e = results[k] or estimate(k)
        edges.setdefault(e.from_id, []).append(e)

    graph = TmaGraph(milestones=milestones, edges=edges, goal_id=1,
                     failure_value=cfg.failure_value)
    values, policy = solve_graph_dp(graph)
    success = success_probabilities(graph, policy)
    times = expected_times(graph, policy)
    if success[start_id] == 0.0:
        # the nodes the policy walks through from the start, none of which
        # reaches the goal
        walked = [start_id]
        for i in walked:   # grows while it is read
            walked += [j for j, p in policy[i].landing_probs.items()
                       if p > 0 and j not in (FAILURE_ID, 1, *walked)]
        first = policy[start_id]
        raise GoalUnreachable(
            f"zero success probability from start node {start_id}: its policy "
            f"edge to node {first.to_id} lands on the failure node with "
            f"probability {first.landing_probs[FAILURE_ID]:.4g} (timeouts "
            f"included), and the policy walks from there through nodes "
            f"{sorted(walked[1:])}, none of which reaches the goal")
    return Tma(graph=graph, policy=policy, values=values, success=success,
               time_to_goal=times, funnels=funnels, start_id=start_id,
               model=task_model)


# ---------------------------------------------------------------------------
# the TMA file: a report of one build, which nothing reads back

def _belief_to_dict(b: GaussianBelief) -> dict:
    return {"mean": b.mean.tolist(), "cov": b.cov.tolist()}


def tma_to_dict(tma: Tma) -> dict:
    g = tma.graph
    edges = [e for i in sorted(g.edges) for e in g.edges[i]]
    return {
        "format": TMA_FORMAT,
        "goal_id": g.goal_id,
        "start_id": tma.start_id,
        "failure_value": g.failure_value,
        # construct_tma gives every funnel the gain it designs
        "gain": tma.funnels[g.goal_id].gain.tolist(),
        "milestones": [
            {"id": ms.id, "epsilon": ms.epsilon,
             "center": None if ms.center is None else _belief_to_dict(ms.center)}
            for _, ms in sorted(g.milestones.items())],
        "edges": [
            {"from": e.from_id, "to": e.to_id,
             "landing_probs": {str(k): v for k, v in sorted(e.landing_probs.items())},
             "reward": e.reward, "time": e.time, "sample_count": e.sample_count}
            for e in edges],
        "policy": {str(i): e.to_id for i, e in sorted(tma.policy.items())},
        "values": {str(i): v for i, v in sorted(tma.values.items())},
        "success": {str(i): v for i, v in sorted(tma.success.items())},
        "time_to_goal": {str(i): v for i, v in sorted(tma.time_to_goal.items())},
    }


def save_tma(tma: Tma, path: str) -> None:
    with open(path, "w") as f:
        json.dump(tma_to_dict(tma), f, indent=1, sort_keys=True)

