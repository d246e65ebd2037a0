"""Multi-robot package-delivery benchmark domain.

Two air robots and one ground robot deliver stochastically generated packages
from two bases to three destinations.  Small packages need one air robot;
large ones need a coordinated pair.  One destination sits inside regulated
airspace where air vehicles cannot fly, so those packages are handed to the
ground robot at a rendezvous point and trucked in.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .beliefs import (BALL_SLACK, GainSpec, GaussianBelief,
                      LinearGaussianModel, RectConstraints, NoConstraints,
                      SimState, StepCost)
from .decposmdp import (Domain, Execution, GraphTmaExecution, JointConfig,
                        JointGraphExecution, RewardSpec, TimedExecution,
                        TmaSpec, run_rollout)
from .errors import (ConfigError, GoalUnreachable, check_field_types,
                     is_finite_number)
from .tma import Tma, TmaConfig, construct_tma

AIR, GROUND = "air", "ground"
DESTS = ("d1", "d2", "dr")
NO_PACKAGE = "-"

# observation classes (controller edge alphabet)
OBS_ALPHABET = ["none", "empty", "s-d1", "s-d2", "s-dr",
                "L-a", "L-m", "rv-a", "rv-m"]
# the class of a package carried, or of a small one seen at a base
_SMALL_OBS = {d: "s-" + d for d in DESTS}


@dataclass(frozen=True)
class PackageDescriptor:
    """size 0 = no package, 1 = small (one air robot), 2 = large (pair)."""

    size: int
    destination: str

    def __post_init__(self):
        if self.size not in (0, 1, 2):
            raise ValueError("size must be 0, 1 or 2")
        if self.size == 0:
            object.__setattr__(self, "destination", NO_PACKAGE)
        elif self.destination not in DESTS:
            raise ValueError(f"unknown destination {self.destination!r}")

    @property
    def present(self) -> bool:
        return self.size > 0


EMPTY = PackageDescriptor(size=0, destination=NO_PACKAGE)


@dataclass
class WorldState:
    """Mutable per-rollout world: base inventories, carried packages,
    truck load, delivery tallies, and a package-conservation ledger."""

    base_packages: List[PackageDescriptor]
    carrying: List[Optional[PackageDescriptor]]
    joint_carry: Optional[PackageDescriptor] = None  # shared by both air robots
    delivered: Dict[str, int] = field(default_factory=lambda: {d: 0 for d in DESTS})
    pending_refill: List[int] = field(default_factory=list)
    created: int = 0
    dropped_lost: int = 0

    def audit_ok(self) -> bool:
        """Whether every package created is delivered, lost or in flight."""
        n = sum(self.delivered.values()) + self.dropped_lost
        n += 0 if self.joint_carry is None else 1
        for p in self.base_packages:
            if p.size:
                n += 1
        for p in self.carrying:
            if p is not None:
                n += 1
        return self.created == n


@dataclass
class DeliveryConfig:
    """Geometry, stochastic package model, rewards and build knobs."""

    bases: Tuple[Tuple[float, float], ...] = ((0.15, 0.85), (0.85, 0.85))
    dests: Dict[str, Tuple[float, float]] = field(default_factory=lambda: {
        "d1": (0.15, 0.2), "d2": (0.85, 0.2), "dr": (0.5, 0.06)})
    rendezvous: Tuple[float, float] = (0.5, 0.45)
    regulated: Tuple[float, float, float, float] = (0.32, 0.0, 0.68, 0.18)
    colocate_radius: float = 0.05
    site_radius: float = 0.09

    # (size, destination) -> probability; must sum to 1
    package_probs: Dict[Tuple[int, str], float] = field(default_factory=lambda: {
        (1, "d1"): 0.35, (1, "d2"): 0.35, (1, "dr"): 0.10,
        (2, "d1"): 0.07, (2, "d2"): 0.07, (0, NO_PACKAGE): 0.06})

    delivery_bonus: float = 10.0
    step_cost: float = 0.01          # per primitive step per robot
    control_cost: float = 0.0
    failure_value: float = -100.0

    pickup_steps: int = 2
    putdown_steps: int = 2
    place_steps: int = 2
    wait_steps: int = 3

    air_dynamics: str = "double"     # "double" (default) or "single"
    process_noise: float = 2e-5
    obs_noise: float = 2e-5
    dt: float = 1.0

    tma_nodes: int = 6
    tma_neighbors: int = 3
    tma_sims: int = 10
    tma_epsilon: float = 0.06
    tma_max_steps: int = 400
    control_weight: float = 8.0

    discount: float = 0.9995

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.air_dynamics not in ("single", "double"):
            raise ConfigError(f"unknown air dynamics {self.air_dynamics!r}")
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError("discount must lie in (0, 1]")
        for name in ("dt", "site_radius"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("step_cost", "control_cost", "control_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.control_weight == 0:
            raise ConfigError("control_weight must be positive")
        if self.failure_value > 0:
            raise ConfigError("failure_value must be non-positive")
        if self.colocate_radius < 0:
            raise ConfigError("colocate_radius must be non-negative")
        for name in ("pickup_steps", "putdown_steps", "place_steps",
                     "wait_steps", "tma_neighbors", "tma_sims"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.tma_nodes < 2:
            raise ConfigError("tma_nodes must be at least 2")
        if self.tma_max_steps < 1 or self.tma_epsilon <= 0:
            raise ConfigError("tma_max_steps and tma_epsilon must be positive")
        if self.obs_noise <= 0 or self.process_noise < 0:
            raise ConfigError("obs_noise must be positive and process_noise "
                              "non-negative")
        if not (isinstance(self.bases, (tuple, list)) and len(self.bases) == 2):
            raise ConfigError("bases must be two (x, y) points")
        if not (isinstance(self.dests, dict) and set(self.dests) == set(DESTS)):
            raise ConfigError(f"dests must map each of {', '.join(DESTS)} to "
                              f"an (x, y) point, not {self.dests!r}")
        points = {"bases[0]": self.bases[0], "bases[1]": self.bases[1],
                  **{f"dests[{d!r}]": self.dests[d] for d in DESTS},
                  "rendezvous": self.rendezvous, "regulated": self.regulated}
        for name, point in points.items():
            size = 4 if name == "regulated" else 2
            if not (isinstance(point, (tuple, list)) and len(point) == size
                    and all(is_finite_number(v) for v in point)):
                raise ConfigError(f"{name} must be {size} finite numbers, "
                                  f"not {point!r}")
        if not isinstance(self.package_probs, dict):
            raise ConfigError(f"package_probs must be a mapping, not "
                              f"{self.package_probs!r}")
        for key in self.package_probs:
            if key != (0, NO_PACKAGE) and not (
                    isinstance(key, tuple) and len(key) == 2
                    and key[0] in (1, 2) and key[1] in DESTS):
                raise ConfigError(
                    f"package_probs key {key!r} is not (0, {NO_PACKAGE!r}) "
                    f"or a size 1 or 2 with a destination in {DESTS}")
            if not is_finite_number(self.package_probs[key]):
                raise ConfigError(f"package_probs[{key!r}] must be a finite "
                                  f"number, not {self.package_probs[key]!r}")
        total = sum(self.package_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"package probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.package_probs.values()):
            raise ConfigError("package probabilities must be non-negative")
        x0, y0, x1, y1 = self.regulated
        if not (x0 < x1 and y0 < y1):
            raise ConfigError("regulated airspace rectangle is degenerate")
        dx, dy = self.dests["dr"]
        if not (x0 <= dx <= x1 and y0 <= dy <= y1):
            raise ConfigError("destination dr must lie inside regulated airspace")
        for name, (px, py) in list(self.dests.items()):
            if name != "dr" and x0 <= px <= x1 and y0 <= py <= y1:
                raise ConfigError(f"destination {name} inside regulated airspace")
        rx, ry = self.rendezvous
        if x0 <= rx <= x1 and y0 <= ry <= y1:
            raise ConfigError("rendezvous point inside regulated airspace")


def desk_config() -> DeliveryConfig:
    """Small, fast configuration for search experiments on a laptop."""
    return DeliveryConfig(air_dynamics="single", tma_nodes=4, tma_neighbors=2,
                          tma_sims=6, tma_max_steps=250, control_weight=8.0)


class _PackageTable:
    """The categorical (size, destination) package model, built once: its
    descriptors in sorted key order and the cumulative distribution of
    their normalized probabilities."""

    def __init__(self, package_probs: Dict[Tuple[int, str], float]):
        items = sorted(package_probs.items())
        probs = np.array([p for _, p in items])
        self.packages = [PackageDescriptor(size=size, destination=dest)
                         for (size, dest), _ in items]
        # the CDF exactly as Generator.choice(k, p=p) builds it on each call
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> PackageDescriptor:
        """``packages[rng.choice(len(packages), p=p)]``: one uniform draw,
        searched in the CDF from the right, as ``choice`` does it."""
        return self.packages[bisect.bisect_right(self._cdf, rng.random())]


def _model(cfg: DeliveryConfig, dynamics: str,
           constraints) -> LinearGaussianModel:
    """A robot's planar model: a "single" or "double" integrator."""
    cost = StepCost(base=cfg.step_cost, u_weight=cfg.control_cost)
    if dynamics == "single":
        n = 2
        return LinearGaussianModel(
            A=np.eye(n), G=cfg.dt * np.eye(n), C=np.eye(n),
            Q=cfg.process_noise * np.eye(n), R_obs=cfg.obs_noise * np.eye(n),
            step_cost=cost, constraints=constraints)
    dt = cfg.dt
    A = np.block([[np.eye(2), dt * np.eye(2)],
                  [np.zeros((2, 2)), np.eye(2)]])
    G = np.vstack([0.5 * dt ** 2 * np.eye(2), dt * np.eye(2)])
    C = np.hstack([np.eye(2), np.zeros((2, 2))])
    Q = np.diag([cfg.process_noise] * 4)
    return LinearGaussianModel(A=A, G=G, C=C, Q=Q,
                               R_obs=cfg.obs_noise * np.eye(2),
                               step_cost=cost, constraints=constraints)


def _dist(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two points; the same bits as
    ``np.linalg.norm(p - q)``, which also takes the root of ``d.dot(d)``."""
    d = p - q
    return math.sqrt(d.dot(d))


def _xy(point) -> Tuple[float, float]:
    x, y = point
    return float(x), float(y)


def _goal_mean(model: LinearGaussianModel, xy) -> np.ndarray:
    g = np.zeros(model.state_dim)
    g[:2] = xy
    return g


def _build_movement_tmas(kind: str, model: LinearGaussianModel,
                         sites: Dict[str, Tuple[float, float]],
                         cfg: DeliveryConfig, rng: np.random.Generator
                         ) -> Dict[str, Tma]:
    """One robot kind's movement TMAs, one per site, in name order, each on
    its own child of ``rng``.  All of them start from one fixed belief at
    (0.5, 0.7), built once.  A GoalUnreachable names the kind and the site
    of the TMA it comes from."""
    n = model.state_dim
    lo = np.zeros(n)
    hi = np.ones(n)
    if n == 4:
        lo[2:], hi[2:] = -0.2, 0.2
    tma_cfg = TmaConfig(
        n_nodes=cfg.tma_nodes, k_neighbors=cfg.tma_neighbors,
        m_sims=cfg.tma_sims, epsilon=cfg.tma_epsilon,
        max_steps=cfg.tma_max_steps, failure_value=cfg.failure_value,
        gain_spec=GainSpec(kind="lqr", control_weight=cfg.control_weight),
        bounds_lo=lo, bounds_hi=hi)
    start = GaussianBelief(mean=_goal_mean(model, (0.5, 0.7)),
                           cov=1e-4 * np.eye(n))
    tmas = {}
    for (name, xy), r in zip(sorted(sites.items()), rng.spawn(len(sites))):
        try:
            tmas[name] = construct_tma(start, _goal_mean(model, xy), model,
                                       tma_cfg, r)
        except GoalUnreachable as e:
            raise GoalUnreachable(f"{kind} TMA for {name}: {e}") from e
    return tmas


def _roster(cfg: DeliveryConfig, tmas: Dict[str, Tma],
            moves: Dict[str, str], tasks: Dict[str, int]) -> Dict[str, TmaSpec]:
    """One robot kind's macro-actions.  ``moves`` maps an id to the site of
    its TMA in ``tmas``; ``tasks`` maps an id to its step count, paid at the
    step cost.  Every task but ``wait`` fires its own id as its effect, and
    an id starting with ``joint-`` needs two agents."""
    roster = {tid: TmaSpec(tma=tmas[site]) for tid, site in moves.items()}
    roster.update({tid: TmaSpec(duration=steps, step_reward=-cfg.step_cost,
                                effect=None if tid == "wait" else tid)
                   for tid, steps in tasks.items()})
    for tid, spec in roster.items():
        if tid.startswith("joint-"):
            spec.agents_required = 2
    return roster


_MOVE_AIR = ["goto-base-1", "goto-base-2", "wait"]

# Which macro-actions may follow one that terminates under an observation
# class, per robot kind: the successors by observation class, then the
# (macro-action, observation) pairs whose successors differ from those.
# The ground robot never sees a base, and an observation a kind never makes
# allows only "wait", so that controller sampling stays well-defined.
_SUCCESSORS = {
    AIR: ({"none": _MOVE_AIR,
           "empty": _MOVE_AIR,
           "s-d1": ["pickup", "goto-dest-1", "wait"],
           "s-d2": ["pickup", "goto-dest-2", "wait"],
           "s-dr": ["pickup", "goto-rv", "wait"],
           "L-a": ["joint-pickup", "wait"],
           "L-m": ["wait", "goto-base-1", "goto-base-2"],
           "rv-a": ["place-on-truck", "wait"],
           "rv-m": ["wait", "goto-base-1", "goto-base-2"]},
          {("pickup", "s-d1"): ["goto-dest-1", "wait"],
           ("pickup", "s-d2"): ["goto-dest-2", "wait"],
           ("pickup", "s-dr"): ["goto-rv", "wait"],
           ("joint-pickup", "s-d1"): ["joint-goto-dest-1", "wait"],
           ("joint-pickup", "s-d2"): ["joint-goto-dest-2", "wait"],
           ("goto-dest-1", "s-d1"): ["putdown", "wait"],
           ("goto-dest-2", "s-d2"): ["putdown", "wait"],
           ("joint-goto-dest-1", "s-d1"): ["joint-putdown", "wait"],
           ("joint-goto-dest-2", "s-d2"): ["joint-putdown", "wait"],
           ("goto-rv", "s-dr"): ["place-on-truck", "wait"]}),
    GROUND: ({"none": ["goto-rv", "wait"],
              "rv-a": ["wait", "goto-rv"],
              "rv-m": ["wait", "goto-rv"],
              "s-dr": ["goto-dest-r", "wait"]},
             {("goto-dest-r", "s-dr"): ["putdown", "wait"]}),
}


class DeliveryDomain(Domain):
    """Dec-POSMDP wrapper over the delivery world."""

    def __init__(self, cfg: DeliveryConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n_agents = 3
        self.kinds = (AIR, AIR, GROUND)
        self.rewards = RewardSpec(discount=cfg.discount)
        x0, y0, x1, y1 = cfg.regulated
        self.air_model = _model(cfg, cfg.air_dynamics,
                                RectConstraints(rects=[((x0, y0), (x1, y1))]))
        self.ground_model = _model(cfg, "single", NoConstraints())
        # site coordinates as float pairs for the distance tests, and the
        # site disk's radius less and plus the slack of the cheap test
        self._bases_xy = [_xy(xy) for xy in cfg.bases]
        self._dests_xy = {d: _xy(xy) for d, xy in cfg.dests.items()}
        self._rendezvous_xy = _xy(cfg.rendezvous)
        self._site_inner = (1 - BALL_SLACK) * cfg.site_radius
        self._site_outer = (1 + BALL_SLACK) * cfg.site_radius
        self._packages = _PackageTable(cfg.package_probs)
        # start means, covariances and their bytes, validated once; a
        # rollout's states copy the means and share the covariances, which
        # no step writes in place
        self._starts = [(b.mean.tolist(), b.cov, b.cov.tobytes()) for b in (
            GaussianBelief(mean=_goal_mean(model, xy),
                           cov=1e-4 * np.eye(model.state_dim))
            for xy, model in ((cfg.bases[0], self.air_model),
                              (cfg.bases[1], self.air_model),
                              (cfg.rendezvous, self.ground_model)))]
        # per robot, the other air robots, which a large package needs, and
        # the robots of the other kind, which it meets at the rendezvous
        kinds = self.kinds
        self._pair_partners = [[i for i, k in enumerate(kinds)
                                if i != a and k == AIR] for a in range(3)]
        self._rv_partners = [[i for i, k in enumerate(kinds) if k != kind]
                             for kind in kinds]

        sites_air = {"base-1": cfg.bases[0], "base-2": cfg.bases[1],
                     "dest-1": cfg.dests["d1"], "dest-2": cfg.dests["d2"],
                     "rv": cfg.rendezvous}
        self._air_tmas = _build_movement_tmas(AIR, self.air_model,
                                              sites_air, cfg, rng)
        sites_ground = {"rv": cfg.rendezvous, "dest-r": cfg.dests["dr"]}
        self._ground_tmas = _build_movement_tmas(GROUND, self.ground_model,
                                                 sites_ground, cfg, rng)

        air = _roster(cfg, self._air_tmas,
                      moves={"goto-base-1": "base-1", "goto-base-2": "base-2",
                             "goto-dest-1": "dest-1", "goto-dest-2": "dest-2",
                             "joint-goto-dest-1": "dest-1",
                             "joint-goto-dest-2": "dest-2", "goto-rv": "rv"},
                      tasks={"pickup": cfg.pickup_steps,
                             "joint-pickup": cfg.pickup_steps,
                             "putdown": cfg.putdown_steps,
                             "joint-putdown": cfg.putdown_steps,
                             "place-on-truck": cfg.place_steps,
                             "wait": cfg.wait_steps})
        ground = _roster(cfg, self._ground_tmas,
                         moves={"goto-rv": "rv", "goto-dest-r": "dest-r"},
                         tasks={"putdown": cfg.putdown_steps,
                                "wait": cfg.wait_steps})
        # both air robots share one roster
        self._rosters = [air, air, ground]

    # ----- Domain interface ----------------------------------------------
    def roster(self, agent: int) -> Dict[str, TmaSpec]:
        return self._rosters[agent]

    def fallback_tma(self, agent: int) -> str:
        return "wait"

    def obs_alphabet(self) -> List[str]:
        return list(OBS_ALPHABET)

    def valid_successors(self, agent, tma_id, obs_label):
        by_obs, by_pair = _SUCCESSORS[self.kinds[agent]]
        succ = by_pair.get((tma_id, obs_label))
        return list(succ or by_obs.get(obs_label, ["wait"]))

    def initial(self, rng: np.random.Generator) -> JointConfig:
        cfg = self.cfg
        sims = [SimState.of_floats(mean[:], mean[:], cov, key)
                for mean, cov, key in self._starts]
        world = WorldState(
            base_packages=[self._packages.draw(rng) for _ in cfg.bases],
            carrying=[None] * 3,
            pending_refill=[0] * len(cfg.bases))
        world.created = sum(1 for p in world.base_packages if p.size)
        return JointConfig(sims=sims, world=world)

    # ----- geometry helpers -----------------------------------------------
    def _at(self, pos: List[float], xy: Tuple[float, float]) -> bool:
        """Whether the site disk at ``xy`` holds the plane position
        ``pos[:2]`` of a belief mean: ``_dist(mean[:2], xy) <=
        site_radius``.  A float distance decides unless it lies within
        ``BALL_SLACK`` of the radius, where the exact test runs."""
        d = math.hypot(pos[0] - xy[0], pos[1] - xy[1])
        if d > self._site_outer:
            return False
        if d <= self._site_inner:
            return True
        return _dist(np.array(pos[:2]), xy) <= self.cfg.site_radius

    def _base_at(self, pos: List[float]) -> Optional[int]:
        for j, xy in enumerate(self._bases_xy):
            if self._at(pos, xy):
                return j
        return None

    def _colocated(self, a: int, b: int, config: JointConfig) -> bool:
        pa, pb = config.sims[a].mean[:2], config.sims[b].mean[:2]
        return (_dist(np.array(pa), pb)
                <= self.cfg.colocate_radius + self.cfg.site_radius)

    def _at_destination(self, pkg: PackageDescriptor, agents,
                        config: JointConfig) -> bool:
        dest_xy = self._dests_xy[pkg.destination]
        return all(self._at(config.sims[a].mean, dest_xy) for a in agents)

    # ----- observations -----------------------------------------------------
    def observe(self, agent: int, config: JointConfig) -> str:
        """Locally observable environmental observation class for one robot,
        placed at its belief mean."""
        world: WorldState = config.world
        carried = world.carrying[agent]
        if carried is None and self.kinds[agent] == AIR:
            carried = world.joint_carry
        if carried is not None:
            return _SMALL_OBS[carried.destination]
        sims = config.sims
        pos = sims[agent].mean
        j = self._base_at(pos)
        if j is not None:
            pkg = world.base_packages[j]
            if not pkg.size:
                return "empty"
            if pkg.size == 1:
                return _SMALL_OBS[pkg.destination]
            xy = self._bases_xy[j]
            for i in self._pair_partners[agent]:
                if self._at(sims[i].mean, xy):
                    return "L-a"
            return "L-m"
        rv = self._rendezvous_xy
        if self._at(pos, rv):
            for i in self._rv_partners[agent]:
                if self._at(sims[i].mean, rv):
                    return "rv-a"
            return "rv-m"
        return "none"

    # ----- initiation predicates -------------------------------------------
    def initiation_ok(self, agent: int, tma_id: str,
                      config: JointConfig) -> bool:
        world: WorldState = config.world
        if tma_id not in self._rosters[agent]:
            return False
        carrying_joint = (world.joint_carry is not None
                          and self.kinds[agent] == AIR)
        if tma_id == "wait":
            return True
        if tma_id.startswith("goto-"):
            # solo movement is unavailable while sharing a large package
            return not carrying_joint
        if tma_id.startswith("joint-goto-dest-"):
            dest = "d" + tma_id[-1]
            return (world.joint_carry is not None
                    and world.joint_carry.destination == dest)
        if tma_id == "pickup":
            j = self._base_at(config.sims[agent].mean)
            return (j is not None and world.carrying[agent] is None
                    and not carrying_joint
                    and world.base_packages[j].size == 1)
        # joint macro-actions and place-on-truck are in the air roster only:
        # the agent is air robot 0 or 1, and 1 - agent is its partner
        if tma_id == "joint-pickup":
            j = self._base_at(config.sims[agent].mean)
            if j is None or world.base_packages[j].size != 2:
                return False
            if world.carrying[agent] is not None or carrying_joint:
                return False
            return self._colocated(agent, 1 - agent, config)
        if tma_id == "putdown":
            return world.carrying[agent] is not None
        if tma_id == "joint-putdown":
            return (world.joint_carry is not None
                    and self._colocated(agent, 1 - agent, config))
        if tma_id == "place-on-truck":
            pkg = world.carrying[agent]
            return (pkg is not None and pkg.destination == "dr"
                    and self._at(config.sims[agent].mean, self._rendezvous_xy)
                    and self._colocated(agent, 2, config)
                    and world.carrying[2] is None)
        return True

    # ----- execution construction -------------------------------------------
    def begin_executions(self, starts: List[Tuple[TmaSpec, Tuple[int, ...]]],
                         config: JointConfig) -> List[Execution]:
        out: List[Execution] = []
        for spec, agents in starts:
            if spec.tma is None:
                out.append(TimedExecution(spec, agents))
            elif len(agents) == 1:
                out.append(GraphTmaExecution(spec, agents[0], config))
            else:
                out.append(JointGraphExecution(spec, agents, config))
        return out

    # ----- rewards and environmental dynamics --------------------------------
    def team_reward(self, events: List, config: JointConfig) -> float:
        total = 0.0
        for name, agents in events:
            if name in ("putdown", "joint-putdown"):
                total += self._drop_bonus(name, agents, config)
        return total

    def _drop_bonus(self, name: str, agents, config: JointConfig) -> float:
        world: WorldState = config.world
        pkg = (world.joint_carry if name == "joint-putdown"
               else world.carrying[agents[0]])
        if pkg is not None and self._at_destination(pkg, agents, config):
            return self.cfg.delivery_bonus
        return 0.0

    def e_dynamics(self, events: List, config: JointConfig,
                   rng: np.random.Generator) -> None:
        world: WorldState = config.world
        pending, bases = world.pending_refill, world.base_packages
        # refills drawn one macro decision epoch after the pickup
        for j, wait in enumerate(pending):
            if wait == 1 and not bases[j].size:
                bases[j] = pkg = self._packages.draw(rng)
                if pkg.size:
                    world.created += 1
                pending[j] = 0
            elif wait > 1:
                pending[j] = wait - 1

        # an effect lands only while its task's precondition still holds;
        # events apply in order, so an earlier one can void a later one
        for name, agents in events:
            a = agents[0]
            if not self.initiation_ok(a, name, config):
                continue
            if name in ("pickup", "joint-pickup"):
                j = self._base_at(config.sims[a].mean)
                pkg, world.base_packages[j] = world.base_packages[j], EMPTY
                world.pending_refill[j] = 2
                if name == "pickup":
                    world.carrying[a] = pkg
                else:
                    world.joint_carry = pkg
            elif name == "putdown":
                self._settle_drop(world.carrying[a], agents, config)
                world.carrying[a] = None
            elif name == "joint-putdown":
                self._settle_drop(world.joint_carry, agents, config)
                world.joint_carry = None
            elif name == "place-on-truck":
                world.carrying[2] = world.carrying[a]
                world.carrying[a] = None
        assert world.audit_ok(), "package conservation violated"

    def _settle_drop(self, pkg: PackageDescriptor, agents,
                     config: JointConfig) -> None:
        world: WorldState = config.world
        if self._at_destination(pkg, agents, config):
            world.delivered[pkg.destination] += 1
        else:
            world.dropped_lost += 1


def total_delivered(config: JointConfig) -> int:
    return sum(config.world.delivered.values())


def success_curve(policy, domain: DeliveryDomain, n_runs: int, horizon: int,
                  rng: np.random.Generator) -> List[Tuple[int, float]]:
    """P(deliver >= k packages) over seeded runs, for k = 0..max observed.
    Non-increasing in k by construction."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    counts = [total_delivered(run_rollout(policy, domain, horizon, sub).final)
              for sub in rng.spawn(n_runs)]
    k_max = max(counts)
    return [(k, sum(1 for c in counts if c >= k) / n_runs)
            for k in range(k_max + 1)]


def build_domain(cfg: DeliveryConfig,
                 rng: np.random.Generator) -> DeliveryDomain:
    """Construct the delivery domain, building all movement TMA graphs."""
    return DeliveryDomain(cfg, rng)
