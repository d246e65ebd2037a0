"""Tests for the package-delivery benchmark domain."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroplan import delivery
from macroplan.beliefs import GaussianBelief, SimState
from macroplan.decposmdp import (evaluate_joint_policy, segment_starts,
                                 step_joint)
from macroplan.delivery import (AIR, EMPTY, OBS_ALPHABET, DeliveryConfig,
                                PackageDescriptor, _PackageTable, _dist,
                                _goal_mean, build_domain, desk_config,
                                success_curve, total_delivered)
from macroplan.errors import ConfigError, MacroplanError
from macroplan.search import (PolicyController, JointPolicy,
                              sample_joint_policy)


@pytest.fixture(scope="module")
def domain():
    return build_domain(desk_config(), np.random.default_rng(7))


def fresh_config(domain, seed=0):
    return domain.initial(np.random.default_rng(seed))


def set_base(domain, config, j, pkg):
    """Overwrite base j's package, keeping the conservation ledger honest."""
    w = config.world
    if w.base_packages[j].present:
        w.created -= 1
    w.base_packages[j] = pkg
    if pkg.present:
        w.created += 1
    w.pending_refill[j] = 0
    assert w.audit_ok()


def place(config, agent, xy):
    """Move an agent's belief mean, the position it is observed at, to xy."""
    b = config.sims[agent].belief
    mean = b.mean.copy()
    mean[:2] = xy
    config.sims[agent].belief = GaussianBelief(mean=mean, cov=b.cov)


def named_starts(domain, starts):
    """Each start as (agents, label), in agent order; a spec is named by
    its first agent's roster."""
    return sorted((agents, next(lb for lb, spec in
                                domain.roster(agents[0]).items()
                                if spec is s))
                  for s, agents in starts)


def run_macro(domain, config, rng, assigned, max_segments=200):
    """Assign macro-actions to idle agents; keep stepping (other idle agents
    wait) until every assigned agent has completed its macro-action."""
    pending = dict(assigned)
    started = set()
    last = None
    for _ in range(max_segments):
        # joint macro-actions must begin together, so only assign the
        # scripted macros once every pending agent is simultaneously idle
        ready = not started and all(a not in config.executions
                                    and a not in config.dead
                                    for a in pending)
        now = dict(pending) if ready else {}
        for i in range(domain.n_agents):
            if i not in config.dead and i not in config.executions and i not in now and (
                    started or i not in pending):
                now[i] = domain.fallback_tma(i)
        starts = segment_starts(config, now, domain)
        # every scripted macro-action starts as given, none falls back
        assert {a: lb for agents, lb in named_starts(domain, starts)
                for a in agents} == now
        last = step_joint(config, starts, domain, rng)
        started |= set(now) & set(pending)
        if all(a in started and a not in config.executions
               for a in pending):
            return last
    raise AssertionError("scripted macro-action did not complete")


# ---------------------------------------------------------------------------
# descriptors and config validation
# ---------------------------------------------------------------------------

def test_package_descriptor_validation():
    p = PackageDescriptor(size=1, destination="d2")
    assert p.present and p.destination == "d2"
    none = PackageDescriptor(size=0, destination="d1")
    assert not none.present and none.destination == "-"
    with pytest.raises(ValueError):
        PackageDescriptor(size=3, destination="d1")
    with pytest.raises(ValueError):
        PackageDescriptor(size=1, destination="d9")


@pytest.mark.parametrize("preset", ["desk", "default"])
def test_walks_enter_only_nodes_that_reach_the_goal(preset, monkeypatch):
    # domain seeds 0-19, fixed whether or not the whole domain builds: from
    # every milestone center of every TMA that builds, a walk enters the
    # graph at no node whose analytic success is 0
    built = []
    real = delivery.construct_tma

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(delivery, "construct_tma", record)
    cfg = desk_config() if preset == "desk" else DeliveryConfig()
    for seed in range(20):
        try:
            build_domain(cfg, np.random.default_rng(seed))
        except MacroplanError:
            pass
    assert built
    for tma in built:
        for ms in tma.graph.milestones.values():
            if ms.center is not None:
                entry = tma.entry_node_at(ms.center.mean.tolist(),
                                          ms.center.cov)
                assert entry is None or tma.success[entry] > 0


def test_config_validation():
    with pytest.raises(ConfigError):
        DeliveryConfig(package_probs={(1, "d1"): 0.5})
    with pytest.raises(ConfigError):
        DeliveryConfig(regulated=(0.9, 0.9, 0.1, 0.1))
    # dr must sit inside the regulated rectangle
    with pytest.raises(ConfigError):
        DeliveryConfig(dests={"d1": (0.15, 0.2), "d2": (0.85, 0.2),
                              "dr": (0.9, 0.9)})
    with pytest.raises(ConfigError):
        DeliveryConfig(rendezvous=(0.5, 0.1))


def test_rosters_pin_every_macro_action(domain):
    """Each agent's macro-actions, written out: a movement's goal milestone
    sits at its site; a task's duration, effect, group size and per-step
    reward come from the config."""
    cfg = domain.cfg
    b1, b2 = cfg.bases
    d = cfg.dests
    # id -> site of a movement, or (duration, effect, agents_required)
    air = {"goto-base-1": b1, "goto-base-2": b2, "goto-dest-1": d["d1"],
           "goto-dest-2": d["d2"], "joint-goto-dest-1": d["d1"],
           "joint-goto-dest-2": d["d2"], "goto-rv": cfg.rendezvous,
           "pickup": (cfg.pickup_steps, "pickup", 1),
           "joint-pickup": (cfg.pickup_steps, "joint-pickup", 2),
           "putdown": (cfg.putdown_steps, "putdown", 1),
           "joint-putdown": (cfg.putdown_steps, "joint-putdown", 2),
           "place-on-truck": (cfg.place_steps, "place-on-truck", 1),
           "wait": (cfg.wait_steps, None, 1)}
    ground = {"goto-rv": cfg.rendezvous, "goto-dest-r": d["dr"],
              "putdown": (cfg.putdown_steps, "putdown", 1),
              "wait": (cfg.wait_steps, None, 1)}
    for agent, want in enumerate([air, air, ground]):
        roster = domain.roster(agent)
        assert set(roster) == set(want)
        for tid, spec in roster.items():
            if len(want[tid]) == 2:
                goal = spec.tma.graph.milestones[spec.tma.graph.goal_id]
                assert tuple(goal.center.mean[:2]) == want[tid], tid
                assert (spec.duration, spec.effect, spec.agents_required,
                        spec.step_reward) == (None, None,
                                              2 if tid.startswith("joint-")
                                              else 1, 0.0), tid
            else:
                duration, effect, group = want[tid]
                assert spec.tma is None, tid
                assert (spec.duration, spec.effect, spec.agents_required,
                        spec.step_reward) == (duration, effect, group,
                                              -cfg.step_cost), tid
            for obs in OBS_ALPHABET:
                assert set(domain.valid_successors(agent, tid, obs)) \
                    <= set(roster), (tid, obs)
    for j in (1, 2):
        r = domain.roster(0)
        assert r[f"goto-dest-{j}"].tma is r[f"joint-goto-dest-{j}"].tma


def test_successor_tables_pinned(domain):
    """What the controller sampler reads, hashed: each agent's roster in
    sampling order and, per macro-action, every observation with its
    successor set, in alphabet order."""
    doc = [[roster, [[lb, [[obs, sorted(valid)] for obs, valid in succ[lb]]]
                     for lb in roster]]
           for roster, succ in domain.sampling_tables]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == \
        "7a43bb868a880b86b2eccac345aa71eeb23bb34d0e2ca925cf498a22b92022d0"


def test_generate_packages_matches_categorical():
    cfg = desk_config()
    table = _PackageTable(cfg.package_probs)
    rng = np.random.default_rng(42)
    n = 5000
    counts = {}
    for _ in range(n):
        p = table.draw(rng)
        counts[(p.size, p.destination)] = counts.get((p.size, p.destination), 0) + 1
    for key, prob in cfg.package_probs.items():
        sigma = np.sqrt(n * prob * (1 - prob))
        assert abs(counts.get(key, 0) - n * prob) <= 3 * sigma, key


def test_domain_package_draws_match_per_draw_table(domain):
    """The domain's table searches numpy's own CDF with one uniform draw,
    which is what ``Generator.choice(k, p=p)`` does once its checks pass:
    the same packages, and the generator left in the same state."""
    def per_draw(rng, cfg):
        # the table rebuilt on every draw
        items = sorted(cfg.package_probs.items())
        probs = np.array([p for _, p in items])
        k = rng.choice(len(items), p=probs / probs.sum())
        size, dest = items[int(k)][0]
        return PackageDescriptor(size=size, destination=dest)

    want_rng, rng = (np.random.default_rng(3) for _ in range(2))
    want = [per_draw(want_rng, domain.cfg) for _ in range(10_000)]
    assert [domain._packages.draw(rng) for _ in range(10_000)] == want
    assert rng.random() == want_rng.random()
    assert len(set(want)) == len(domain.cfg.package_probs)


def test_regulated_airspace_blocks_air_not_ground(domain):
    dr = np.array(domain.cfg.dests["dr"])
    probe = np.zeros(domain.air_model.state_dim)
    probe[:2] = dr
    assert domain.air_model.constraints.violates(probe)
    assert not domain.ground_model.constraints.violates(dr)
    # destinations 1 and 2 are flyable
    for name in ("d1", "d2"):
        probe[:2] = domain.cfg.dests[name]
        assert not domain.air_model.constraints.violates(probe)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def test_observe_estate_cases(domain):
    cfg = domain.cfg
    config = fresh_config(domain)
    w = config.world
    for agent, xy in enumerate((cfg.bases[0], cfg.bases[1], cfg.rendezvous)):
        place(config, agent, xy)

    set_base(domain, config, 0, PackageDescriptor(size=1, destination="dr"))
    assert domain.observe(0, config) == "s-dr"
    set_base(domain, config, 0, EMPTY)
    assert domain.observe(0, config) == "empty"
    set_base(domain, config, 0, PackageDescriptor(size=2, destination="d1"))
    assert domain.observe(0, config) == "L-m"  # partner at the other base
    place(config, 1, cfg.bases[0])
    assert domain.observe(0, config) == "L-a"

    # carrying dominates location
    w.carrying[0] = PackageDescriptor(size=1, destination="d2")
    assert domain.observe(0, config) == "s-d2"
    w.carrying[0] = None
    w.joint_carry = PackageDescriptor(size=2, destination="d1")
    assert domain.observe(0, config) == "s-d1"
    w.joint_carry = None

    # rendezvous: the ground robot sees an air robot only if one is there
    assert domain.observe(2, config) == "rv-m"
    place(config, 1, cfg.rendezvous)
    assert domain.observe(2, config) == "rv-a"
    assert domain.observe(1, config) == "rv-a"  # symmetric for the air side

    # nowhere special
    place(config, 0, [0.5, 0.99])
    assert domain.observe(0, config) == "none"
    for label in ("s-dr", "empty", "L-m", "L-a", "s-d2", "s-d1",
                  "rv-m", "rv-a", "none"):
        assert label in OBS_ALPHABET


def reference_at(domain, pos, xy):
    """``DeliveryDomain._at`` on a plane position ``pos`` of two floats, as
    ``reference_observe`` calls it."""
    x, y = pos
    d = math.hypot(x - xy[0], y - xy[1])
    if d > domain._site_outer:
        return False
    if d <= domain._site_inner:
        return True
    return _dist(np.array(pos), xy) <= domain.cfg.site_radius


def reference_observe(domain, agent, config):
    """``DeliveryDomain.observe`` built from the world state and the site
    tests on every call: an f-string per label and an ``any`` scan over
    every agent for a partner."""
    world = config.world
    xy_of = lambda i: config.sims[i].mean[:2]
    carried = world.carrying[agent]
    if carried is None and domain.kinds[agent] == AIR:
        carried = world.joint_carry
    if carried is not None:
        return f"s-{carried.destination}"
    pos = xy_of(agent)
    j = next((j for j, xy in enumerate(domain._bases_xy)
              if reference_at(domain, pos, xy)), None)
    if j is not None:
        pkg = world.base_packages[j]
        if not pkg.present:
            return "empty"
        if pkg.size == 1:
            return f"s-{pkg.destination}"
        xy = domain._bases_xy[j]
        nearby = any(i != agent and domain.kinds[i] == AIR
                     and reference_at(domain, xy_of(i), xy)
                     for i in range(domain.n_agents))
        return "L-a" if nearby else "L-m"
    rv = domain._rendezvous_xy
    if reference_at(domain, pos, rv):
        near = any(domain.kinds[i] != domain.kinds[agent]
                   and reference_at(domain, xy_of(i), rv)
                   for i in range(domain.n_agents))
        return "rv-a" if near else "rv-m"
    return "none"


def test_observe_matches_the_reference_over_desk_rollouts(domain,
                                                          monkeypatch):
    """Every observation of a terminated agent over desk rollouts of
    sampled policies equals ``reference_observe`` on the same state; so
    does every agent's on worlds drawn with the robots near the sites."""
    cfg = domain.cfg
    sites = [*cfg.bases, cfg.rendezvous, *cfg.dests.values()]
    packages = [EMPTY, *domain._packages.packages]
    loads = [p for p in packages if p.size]   # what a robot can carry
    rng = np.random.default_rng(5)
    config = fresh_config(domain)
    w = config.world
    for _ in range(400):
        for agent in range(3):
            xy = np.array(sites[rng.integers(len(sites))])
            place(config, agent, xy + rng.uniform(-0.1, 0.1, 2))
        w.base_packages = [packages[k]
                           for k in rng.integers(len(packages), size=2)]
        w.carrying = [loads[k] if rng.random() < 0.3 else None
                      for k in rng.integers(len(loads), size=3)]
        w.joint_carry = (loads[rng.integers(len(loads))]
                         if rng.random() < 0.2 else None)
        for agent in range(3):
            assert domain.observe(agent, config) == reference_observe(
                domain, agent, config)

    seen = []
    real = type(domain).observe

    def checked(self, agent, config):
        label = real(self, agent, config)
        assert label == reference_observe(self, agent, config)
        seen.append(label)
        return label

    monkeypatch.setattr(type(domain), "observe", checked)
    for s in range(8):
        policy = sample_joint_policy(domain, 13, np.random.default_rng(s))
        evaluate_joint_policy(policy, domain, 3, 40,
                              np.random.default_rng(600 + s))
    assert len(seen) > 1000
    assert {"none", "empty", "s-d1", "s-d2", "s-dr", "L-m", "rv-m",
            "rv-a"} <= set(seen)


def test_initial_states_match_array_built_ones(domain):
    """``initial`` builds its states from floats computed once; they equal,
    to the bit, states built from each start belief's arrays, and no two
    states share a list."""
    cfg = domain.cfg
    models = (domain.air_model, domain.air_model, domain.ground_model)
    sites = (cfg.bases[0], cfg.bases[1], cfg.rendezvous)
    configs = [fresh_config(domain, seed) for seed in range(3)]
    lists = []
    for config in configs:
        for sim, model, xy in zip(config.sims, models, sites):
            b = GaussianBelief(mean=_goal_mean(model, xy),
                               cov=1e-4 * np.eye(model.state_dim))
            ref = SimState(truth=b.mean, belief=b)
            assert np.array(sim.x).tobytes() == np.array(ref.x).tobytes()
            assert np.array(sim.mean).tobytes() == np.array(
                ref.mean).tobytes()
            assert sim.cov.tobytes() == ref.cov.tobytes() == sim.cov_key
            assert sim.accrued_reward == ref.accrued_reward == 0.0
            lists += [sim.x, sim.mean]
    assert len({id(values) for values in lists}) == len(lists)


# ---------------------------------------------------------------------------
# scripted scenarios
# ---------------------------------------------------------------------------

def test_solo_pickup_and_delivery(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(11)
    set_base(domain, config, 0, PackageDescriptor(size=1, destination="d2"))

    seg = run_macro(domain, config, rng, {0: "pickup"})
    assert config.world.carrying[0] == PackageDescriptor(size=1, destination="d2")
    assert not config.world.base_packages[0].present
    assert seg.observations[0] == "s-d2"  # carried package dominates

    run_macro(domain, config, rng, {0: "goto-dest-2"})
    seg = run_macro(domain, config, rng, {0: "putdown"})
    w = config.world
    assert w.delivered["d2"] == 1 and w.dropped_lost == 0
    assert w.carrying[0] is None and w.audit_ok()
    assert total_delivered(config) == 1
    # the +10 bonus lands in the discounted segment reward
    assert seg.reward_Rtau > 5.0


def test_refill_one_epoch_after_pickup(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(3)
    set_base(domain, config, 0, PackageDescriptor(size=1, destination="d1"))

    run_macro(domain, config, rng, {0: "pickup"})
    assert not config.world.base_packages[0].present
    assert config.world.pending_refill[0] == 2
    # refill happens after one further macro decision epoch
    run_macro(domain, config, rng, {0: "wait"})
    assert config.world.pending_refill[0] == 0
    assert config.world.audit_ok()


def test_putdown_away_from_destination_loses_package(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(5)
    set_base(domain, config, 0, PackageDescriptor(size=1, destination="d1"))

    run_macro(domain, config, rng, {0: "pickup"})
    seg = run_macro(domain, config, rng, {0: "putdown"})  # still at the base
    w = config.world
    assert w.dropped_lost == 1 and w.delivered["d1"] == 0
    assert w.audit_ok()
    assert seg.reward_Rtau < 1.0  # no bonus


def test_truck_handoff_delivers_to_regulated_destination(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(13)
    set_base(domain, config, 0, PackageDescriptor(size=1, destination="dr"))

    run_macro(domain, config, rng, {0: "pickup"})
    run_macro(domain, config, rng, {0: "goto-rv"})
    seg = run_macro(domain, config, rng, {0: "place-on-truck"})
    w = config.world
    assert w.carrying[0] is None
    assert w.carrying[2] == PackageDescriptor(size=1, destination="dr")
    assert seg.observations[0] in ("rv-a", "rv-m")

    run_macro(domain, config, rng, {2: "goto-dest-r"})
    run_macro(domain, config, rng, {2: "putdown"})
    assert w.delivered["dr"] == 1 and w.audit_ok()


def test_second_pickup_of_one_package_finds_the_base_empty(domain):
    """Both air robots pick up the one small package at a base in the same
    step: the lower agent's effect applies first and takes it, and the
    other's precondition has lapsed, so it gets nothing."""
    config = fresh_config(domain)
    rng = np.random.default_rng(37)
    pkg = PackageDescriptor(size=1, destination="d1")
    set_base(domain, config, 0, pkg)
    place(config, 1, domain.cfg.bases[0])
    seg = step_joint(
        config, segment_starts(config, {0: "pickup", 1: "pickup"}, domain),
        domain, rng)
    w = config.world
    assert w.carrying[:2] == [pkg, None]
    assert not w.base_packages[0].present and w.audit_ok()
    assert seg.observations == {0: "s-d1", 1: "empty"}


def test_place_on_truck_after_the_truck_left_keeps_the_package(domain):
    """``place-on-truck`` ends after the truck has driven out of
    colocation: the handoff's precondition has lapsed, so the package
    stays with the air robot."""
    config = fresh_config(domain)
    rng = np.random.default_rng(41)
    pkg = PackageDescriptor(size=1, destination="dr")
    w = config.world
    w.carrying[0] = pkg
    w.created += 1
    place(config, 0, domain.cfg.rendezvous)
    assert domain.initiation_ok(0, "place-on-truck", config)
    seg = step_joint(config, segment_starts(
        config, {0: "place-on-truck", 2: "goto-dest-r"}, domain), domain, rng)
    assert 0 in seg.observations and 2 in config.executions
    assert not domain._colocated(0, 2, config)
    assert w.carrying[0] == pkg and w.carrying[2] is None
    assert w.audit_ok()


def test_conservation_audit_fires_on_a_segment_with_no_effect(domain):
    """The package audit runs on every segment, also on one that applies
    no effect event: a ledger corrupted before a segment whose only
    termination is a ``wait`` stops ``step_joint``."""
    config = fresh_config(domain)
    starts = segment_starts(config, {0: "wait"}, domain)
    assert named_starts(domain, starts) == [((0,), "wait")]
    config.world.created += 1
    with pytest.raises(AssertionError, match="package conservation"):
        step_joint(config, starts, domain, np.random.default_rng(43))


def test_joint_pickup_and_delivery(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(17)
    set_base(domain, config, 0, PackageDescriptor(size=2, destination="d1"))

    run_macro(domain, config, rng, {1: "goto-base-1"})
    seg = run_macro(domain, config, rng, {0: "joint-pickup", 1: "joint-pickup"})
    w = config.world
    assert w.joint_carry == PackageDescriptor(size=2, destination="d1")
    assert seg.observations[0] == "s-d1"  # joint carry dominates

    run_macro(domain, config, rng,
              {0: "joint-goto-dest-1", 1: "joint-goto-dest-1"})
    seg = run_macro(domain, config, rng,
                    {0: "joint-putdown", 1: "joint-putdown"})
    assert w.joint_carry is None
    assert w.delivered["d1"] == 1 and w.audit_ok()
    assert seg.reward_Rtau > 5.0


def test_lone_joint_pickup_rejected(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(19)
    set_base(domain, config, 0, PackageDescriptor(size=2, destination="d1"))
    run_macro(domain, config, rng, {1: "goto-base-1"})
    run_macro(domain, config, rng, {0: "wait"})  # sync: agent 0 idle
    # agent 0 may start joint-pickup, but its partner did not choose it
    assert domain.initiation_ok(0, "joint-pickup", config)
    starts = segment_starts(config, {0: "joint-pickup"}, domain)
    assert named_starts(domain, starts) == [((0,), "wait")]


def test_initiation_violations(domain):
    config = fresh_config(domain)
    # pickup with no package at the base
    set_base(domain, config, 0, EMPTY)
    starts = segment_starts(config, {0: "pickup"}, domain)
    assert named_starts(domain, starts) == [((0,), "wait")]
    # place-on-truck while empty-handed
    starts = segment_starts(config, {0: "place-on-truck"}, domain)
    assert named_starts(domain, starts) == [((0,), "wait")]
    # ground robot has no pickup macro-action at all
    starts = segment_starts(config, {2: "pickup"}, domain)
    assert named_starts(domain, starts) == [((2,), "wait")]


def test_solo_moves_blocked_while_joint_carrying(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(29)
    set_base(domain, config, 0, PackageDescriptor(size=2, destination="d2"))
    run_macro(domain, config, rng, {1: "goto-base-1"})
    run_macro(domain, config, rng, {0: "joint-pickup", 1: "joint-pickup"})
    assert not domain.initiation_ok(0, "goto-dest-2", config)
    assert domain.initiation_ok(0, "joint-goto-dest-2", config)
    assert not domain.initiation_ok(0, "joint-goto-dest-1", config)


def test_delivery_reward_helper(domain):
    config = fresh_config(domain)
    rng = np.random.default_rng(31)
    set_base(domain, config, 0, PackageDescriptor(size=1, destination="d1"))
    run_macro(domain, config, rng, {0: "pickup"})
    run_macro(domain, config, rng, {0: "goto-dest-1"})
    assert domain.team_reward([("putdown", [0])], config) == \
        domain.cfg.delivery_bonus
    assert domain.team_reward([("wait", [0])], config) == 0.0


# ---------------------------------------------------------------------------
# success curve
# ---------------------------------------------------------------------------

def _wait_policy(domain):
    controllers = []
    for agent in range(domain.n_agents):
        edges = {(0, o): 0 for o in domain.obs_alphabet()}
        controllers.append(PolicyController(nodes=["wait"], edges=edges))
    return JointPolicy(controllers=controllers)


def test_success_curve_shape_and_monotonicity(domain):
    policy = _wait_policy(domain)
    curve = success_curve(policy, domain, 20, 5, np.random.default_rng(0))
    ks = [k for k, _ in curve]
    ps = [p for _, p in curve]
    assert ks == list(range(len(ks)))
    assert ps[0] == 1.0
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    # an all-wait team never delivers
    assert len(curve) == 1


@settings(max_examples=300, deadline=None)
@given(site=st.integers(min_value=0, max_value=5),
       across=st.floats(min_value=-0.95, max_value=0.95),
       side=st.sampled_from([-1.0, 1.0]))
def test_site_disk_test_agrees_with_the_exact_distance(domain, site, across,
                                                       side):
    """``_at`` decides with a float distance against radii ``BALL_SLACK``
    inside and outside the site disk, and runs the exact ``_dist`` test
    only near its edge.  On belief means on the edge to the bit, or up to
    two ulps inside or outside it, it gives the exact answer."""
    sites = [*domain._bases_xy, *domain._dests_xy.values(),
             domain._rendezvous_xy]
    sx, sy = sites[site]
    radius = domain.cfg.site_radius
    y = sy + across * radius

    def exact(x):
        return _dist(np.array([x, y]), np.array([sx, sy])) <= radius

    # bisect to the last x inside the disk on this side of the site
    inside, outside = sx, sx + side * 2 * radius
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            break
        if exact(mid):
            inside = mid
        else:
            outside = mid
    config = fresh_config(domain)
    for ulps in range(-2, 3):
        x = inside
        for _ in range(abs(ulps)):
            x = np.nextafter(x, outside if ulps > 0 else sx)
        place(config, 0, (x, y))
        assert exact(x) == (ulps <= 0)
        assert domain._at(config.sims[0].mean, (sx, sy)) == exact(x)
