"""Finite-state-controller policy search over macro-actions.

Policies are node-labeled controllers: each node carries a macro-action, and
edges are keyed by the observation class seen when that macro-action
terminates.  Search samples controllers uniformly at random; the masked
variant repeatedly freezes high-consensus (macro-action, observation) ->
successor decisions found among the elite policies, concentrating subsequent
sampling on the remaining free choices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .decposmdp import Domain, evaluate_joint_policy
from .errors import NoValidSuccessor, check_field_types, config_key


@dataclass
class PolicyController:
    """One agent's controller: node labels plus (node, obs) -> node edges."""

    nodes: List[Hashable]
    edges: Dict[Tuple[int, Hashable], int]
    initial_node: int = 0

    def edge(self, node: int, obs_label: Hashable) -> int:
        return self.edges.get((node, obs_label), node)

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes),
                "edges": sorted([[n, str(o), t] for (n, o), t
                                 in self.edges.items()]),
                "initial_node": self.initial_node}


@dataclass
class JointPolicy:
    controllers: List[PolicyController]

    def to_dict(self) -> dict:
        return {"format": "macroplan-policy-v1",
                "controllers": [c.to_dict() for c in self.controllers]}


def save_policy(policy: JointPolicy, path: str) -> None:
    with open(path, "w") as f:
        json.dump(policy.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_policy(path: str) -> JointPolicy:
    """Read a policy written by save_policy; observation labels come back
    as the strings they were saved as."""
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"a policy is a JSON object, not {type(d).__name__}")
    if d.get("format") != "macroplan-policy-v1":
        raise ValueError(f"unrecognized policy format {d.get('format')!r}")
    saved = d.get("controllers")
    if not isinstance(saved, list):
        raise ValueError(f"controllers must be a list, not {saved!r}")
    controllers = []
    for agent, c in enumerate(saved):
        where = f"controllers[{agent}]."
        if not isinstance(c, dict):
            raise ValueError(f"controllers[{agent}] must be an object, "
                             f"not {c!r}")
        saved_edges = config_key(c, "edges", where)
        if not isinstance(saved_edges, list):
            raise ValueError(f"{where}edges must be a list, "
                             f"not {saved_edges!r}")
        edges = {}
        for e in saved_edges:
            if not (isinstance(e, list) and len(e) == 3
                    and isinstance(e[1], str)
                    and all(type(v) is int for v in (e[0], e[2]))):
                raise ValueError(f"{where}edges entry {e!r} "
                                 f"is not [node, observation, target]")
            if (e[0], e[1]) in edges:
                raise ValueError(f"{where}edges entry {e!r} repeats the "
                                 f"edge of node {e[0]} on {e[1]!r}")
            edges[(e[0], e[1])] = e[2]
        controllers.append(PolicyController(
            nodes=config_key(c, "nodes", where), edges=edges,
            initial_node=config_key(c, "initial_node", where)))
    return JointPolicy(controllers=controllers)


# per-agent mask: (macro-action label, observation class) -> successor label
Mask = Dict[Tuple[Hashable, Hashable], Hashable]


@dataclass
class SearchConfig:
    n_nodes: int = 13
    budget: int = 200                # total policy evaluations
    iter_max_mc: int = 50            # evaluations per outer iteration
    k_d: int = 5                     # elite set size
    mask_threshold: float = 0.6      # consensus frequency to freeze a pair
    explore_rate: float = 0.35       # chance to resample an unmasked decision
    n_rollouts: int = 2
    horizon_macro_steps: int = 40

    def __post_init__(self):
        check_field_types(self, ValueError)
        if not (0.0 < self.mask_threshold <= 1.0):
            raise ValueError("mask_threshold must lie in (0, 1]")
        if self.budget < 1 or self.iter_max_mc < 1 or self.k_d < 1:
            raise ValueError("budget, iter_max_mc and k_d must be positive")
        if (self.n_nodes < 1 or self.n_rollouts < 1
                or self.horizon_macro_steps < 1):
            raise ValueError(
                "n_nodes, n_rollouts and horizon_macro_steps must be positive")
        if not (0.0 < self.explore_rate <= 1.0):
            raise ValueError("explore_rate must lie in (0, 1]")


def _pick(rng: np.random.Generator, items: Sequence):
    """A uniform draw from ``items``, ``items[rng.integers(len(items))]``.
    ``integers(1)`` returns 0 without advancing the generator, so a single
    item is returned without the call."""
    return items[0] if len(items) == 1 else items[rng.integers(len(items))]


def _edge_targets(labels: List[Hashable], successors, mask: Optional[Mask]
                  ) -> Tuple[Dict[Tuple[int, Hashable], int],
                             List[Tuple[Tuple[int, Hashable], List[int]]],
                             bool]:
    """One pass over a labeling's edges, in node and observation order.
    Returns the masked edges whose successor some node carries, each set to
    the lowest such node; every other edge with the nodes it may point at,
    up to the first edge that has none; and whether no edge has none."""
    carrier: Dict[Hashable, int] = {}
    for i, lb in enumerate(labels):
        carrier.setdefault(lb, i)
    fixed: Dict[Tuple[int, Hashable], int] = {}
    free = []
    # successor set -> nodes whose label is in it, for this labeling
    node_targets: Dict[FrozenSet[Hashable], List[int]] = {}
    for i, lb in enumerate(labels):
        for obs, valid in successors[lb]:
            if mask and (lb, obs) in mask and mask[(lb, obs)] in carrier:
                fixed[(i, obs)] = carrier[mask[(lb, obs)]]
                continue
            targets = node_targets.get(valid)
            if targets is None:
                targets = node_targets[valid] = [
                    k for k, other in enumerate(labels) if other in valid]
            if not targets:
                return fixed, free, False
            free.append(((i, obs), targets))
    return fixed, free, True


class SamplingPlan:
    """What a masked draw for one agent reads of its ``mask`` and ``base``,
    built once for the pair: ``base``'s labels and the positions of those
    the mask does not pin (as source or forced successor), and for
    ``base``'s labels the masked edges, the free edges, each with its target
    nodes and ``base``'s target when it is among them (else None), and
    whether no edge lacks a target.  ``mmcs`` builds one per agent for each
    outer iteration; a draw whose labels equal ``base``'s, as every draw
    does when the mask pins all of them, reads them instead of a pass over
    its edges."""

    def __init__(self, domain: Domain, agent: int, mask: Mask,
                 base: PolicyController):
        self.mask, self.base = mask, base
        self.successors = domain.sampling_tables[agent][1]
        pinned = {lb for lb, _ in mask} | set(mask.values())
        self.open = [i for i, lb in enumerate(base.nodes) if lb not in pinned]
        self.fixed, self.free, self.ok = self._edges(base.nodes)

    def _edges(self, labels: List[Hashable]):
        fixed, free, ok = _edge_targets(labels, self.successors, self.mask)
        base_edges = self.base.edges
        return fixed, [(key, targets, base_edges.get(key)
                        if base_edges.get(key) in targets else None)
                       for key, targets in free], ok

    def edges(self, labels: List[Hashable]):
        """The masked edges (a new dict), the free edges with ``base``'s
        kept targets, and whether no edge lacks a target, for ``labels``."""
        if labels == self.base.nodes:
            return dict(self.fixed), self.free, self.ok
        return self._edges(labels)


def sample_valid_controller(domain: Domain, agent: int, n_nodes: int,
                            rng: np.random.Generator,
                            mask: Optional[Mask] = None,
                            base: Optional[PolicyController] = None,
                            explore_rate: float = 0.35,
                            max_attempts: int = 1000,
                            plan: Optional[SamplingPlan] = None
                            ) -> PolicyController:
    """Sample a controller uniformly among valid ones.

    Without a mask, node labels and edges are drawn fresh.  With a mask,
    the sample is a perturbation of ``base`` honoring the mask: nodes whose
    label participates in a masked pair (as source or forced successor) keep
    their labels, masked (label, obs) edges point at the lowest node carrying
    the forced successor, and every other label/edge decision is resampled
    with probability ``explore_rate`` (otherwise copied from ``base`` when
    still valid).  ``plan``, the ``SamplingPlan`` of this agent's ``mask``
    and ``base``, is built here when not given.
    """
    roster, successors = domain.sampling_tables[agent]
    if plan is None and mask and base is not None:
        plan = SamplingPlan(domain, agent, mask, base)
    random = rng.random
    for _ in range(max_attempts):
        if plan is not None:
            labels = list(plan.base.nodes)
            for i in plan.open:
                if random() < explore_rate:
                    labels[i] = _pick(rng, roster)
            edges, free, ok = plan.edges(labels)
            for key, targets, kept in free:
                if random() >= explore_rate and kept is not None:
                    edges[key] = kept
                else:
                    edges[key] = _pick(rng, targets)
        else:
            labels = [roster[k] for k in rng.integers(len(roster),
                                                      size=n_nodes)]
            edges, free, ok = _edge_targets(labels, successors, mask)
            if free:
                # one draw for every free edge: the values, and the
                # generator state, of one ``_pick`` per edge, since
                # integers(1) returns 0 and draws nothing
                picks = rng.integers([len(targets) for _, targets in free])
                for (key, targets), k in zip(free, picks.tolist()):
                    edges[key] = targets[k]
        if ok:
            return PolicyController(nodes=labels, edges=edges)
    raise NoValidSuccessor(
        f"no valid controller found for agent {agent} in {max_attempts} attempts")


def sample_joint_policy(domain: Domain, n_nodes: int, rng: np.random.Generator,
                        masks: Optional[List[Mask]] = None,
                        base: Optional[JointPolicy] = None,
                        explore_rate: float = 0.35,
                        plans: Optional[List[Optional[SamplingPlan]]] = None
                        ) -> JointPolicy:
    controllers = []
    for agent in range(domain.n_agents):
        m = masks[agent] if masks else None
        b = base.controllers[agent] if base is not None else None
        controllers.append(sample_valid_controller(
            domain, agent, n_nodes, rng, mask=m, base=b,
            explore_rate=explore_rate,
            plan=plans[agent] if plans else None))
    return JointPolicy(controllers=controllers)


def create_mask(elites: Sequence[Tuple[float, JointPolicy]], domain: Domain,
                threshold: float, best: JointPolicy
                ) -> Tuple[List[Mask], JointPolicy]:
    """Freeze high-consensus successor decisions among elite policies.

    For each agent and each (macro-action label, observation) pair, count the
    successor labels chosen across all elite controller edges; if the modal
    successor's frequency reaches ``threshold`` the pair is masked.  Pairs
    whose successor no node of the best policy carries are dropped from the
    mask.  Returns the masks and ``best`` itself, the policy the masked
    sampler perturbs; the sampler points every masked edge at the lowest
    node carrying its successor.
    """
    masks: List[Mask] = []
    for agent in range(domain.n_agents):
        counts: Dict[Tuple[Hashable, Hashable], Dict[Hashable, int]] = {}
        for _, pol in elites:
            c = pol.controllers[agent]
            for (node, obs), tgt in c.edges.items():
                key = (c.nodes[node], obs)
                bucket = counts.setdefault(key, {})
                succ = c.nodes[tgt]
                bucket[succ] = bucket.get(succ, 0) + 1
        carried = set(best.controllers[agent].nodes)
        mask: Mask = {}
        for key, bucket in counts.items():
            total = sum(bucket.values())
            modal, n_modal = max(bucket.items(), key=lambda kv: (kv[1], str(kv[0])))
            if n_modal / total >= threshold and modal in carried:
                mask[key] = modal
        masks.append(mask)
    return masks, best


@dataclass
class SearchResult:
    best_policy: JointPolicy
    best_value: float
    evaluations: int
    trace: List[Tuple[int, float]] = field(default_factory=list)
    samples: List[Tuple[int, float]] = field(default_factory=list)
    elites: List[Tuple[float, JointPolicy]] = field(default_factory=list)


def _push_elite(elites: List[Tuple[float, JointPolicy]], value: float,
                policy: JointPolicy, k_d: int) -> None:
    elites.append((value, policy))
    elites.sort(key=lambda vp: -vp[0])
    del elites[k_d:]


def mmcs(domain: Domain, cfg: SearchConfig, rng: np.random.Generator,
         use_mask: bool = True) -> SearchResult:
    """Masked Monte Carlo search over finite-state controllers.

    Inner iterations sample and evaluate policies subject to the current
    mask; the elite set persists across outer iterations and the mask is
    rebuilt from it after every outer iteration (masks are not permanent).
    With ``use_mask=False`` this is the plain Monte Carlo baseline.
    """
    elites: List[Tuple[float, JointPolicy]] = []
    masks: Optional[List[Mask]] = None
    base: Optional[JointPolicy] = None
    best_policy = None
    best_value = -math.inf
    trace: List[Tuple[int, float]] = []
    samples: List[Tuple[int, float]] = []
    evals = 0
    while evals < cfg.budget:
        inner = min(cfg.iter_max_mc, cfg.budget - evals)
        # what the masked draws of this iteration read, per agent
        plans = masks and [SamplingPlan(domain, agent, m, c) if m else None
                           for agent, (m, c) in enumerate(
                               zip(masks, base.controllers))]
        for _ in range(inner):
            pol = sample_joint_policy(domain, cfg.n_nodes, rng,
                                      masks=masks, base=base,
                                      explore_rate=cfg.explore_rate,
                                      plans=plans)
            pv = evaluate_joint_policy(pol, domain, cfg.n_rollouts,
                                       cfg.horizon_macro_steps, rng)
            evals += 1
            _push_elite(elites, pv.mean, pol, cfg.k_d)
            if pv.mean > best_value:
                best_value, best_policy = pv.mean, pol
            trace.append((evals, best_value))
            samples.append((evals, pv.mean))
        if use_mask:
            masks, base = create_mask(elites, domain, cfg.mask_threshold,
                                      best_policy)
            if not any(masks):
                masks, base = None, None
    return SearchResult(best_policy=best_policy, best_value=best_value,
                        evaluations=evals, trace=trace, samples=samples,
                        elites=elites)


def monte_carlo_search(domain: Domain, cfg: SearchConfig,
                       rng: np.random.Generator) -> SearchResult:
    """Unmasked baseline: every policy is drawn fresh from the full space."""
    return mmcs(domain, cfg, rng, use_mask=False)
