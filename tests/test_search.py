"""Tests for finite-state-controller policy search: sampling validity,
mask construction and search behavior."""

import hashlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroplan.beliefs import GaussianBelief, SimState
from macroplan.cli import _write_csv
from macroplan.decposmdp import (Domain, JointConfig, RewardSpec,
                                 TimedExecution, TmaSpec)
from macroplan.delivery import build_domain, desk_config
from macroplan.errors import NoValidSuccessor
from macroplan.search import (JointPolicy, PolicyController, SearchConfig,
                              create_mask, load_policy, mmcs,
                              monte_carlo_search, sample_joint_policy,
                              sample_valid_controller, save_policy)


def _dummy_sim():
    b = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    return SimState(truth=np.zeros(1), belief=b)


class DingDomain(Domain):
    """One agent, deterministic timed tasks, constant observation.

    'ding' takes 2 steps and pays 10 at termination; 'wait' takes 1 step and
    pays nothing.  Every policy evaluates to an exact, noise-free value."""

    def __init__(self, successors=None):
        self.n_agents = 1
        self.rewards = RewardSpec(discount=1.0)
        self._roster = {
            "ding": TmaSpec(duration=2, effect="ding"),
            "wait": TmaSpec(duration=1),
        }
        self._succ = successors

    def roster(self, agent):
        return self._roster

    def initial(self, rng):
        return JointConfig(sims=[_dummy_sim()], world="o")

    def initiation_ok(self, agent, tma_id, config):
        return True

    def begin_executions(self, starts, config):
        return [TimedExecution(spec, agents) for spec, agents in starts]

    def observe(self, agent, config):
        return "o"

    def obs_alphabet(self):
        return ["o"]

    def team_reward(self, events, config):
        return 10.0 * sum(1 for e in events if e[0] == "ding")

    def valid_successors(self, agent, tma_id, obs_label):
        if self._succ is None:
            return sorted(self._roster)
        return self._succ[tma_id]


# ---------------------------------------------------------------------------
# controller sampling
# ---------------------------------------------------------------------------

def test_sampled_controller_respects_valid_successors():
    succ = {"ding": ["wait"], "wait": ["ding", "wait"]}
    dom = DingDomain(successors=succ)
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = sample_valid_controller(dom, 0, n_nodes=4, rng=rng)
        for (node, obs), tgt in c.edges.items():
            assert c.nodes[tgt] in succ[c.nodes[node]]


def test_sampling_rejects_infeasible_labelings():
    """ding's only successor is wait, so an all-ding labeling is invalid;
    valid samples must always include at least one wait node."""
    succ = {"ding": ["wait"], "wait": ["ding", "wait"]}
    dom = DingDomain(successors=succ)
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = sample_valid_controller(dom, 0, n_nodes=3, rng=rng)
        assert "wait" in c.nodes


def test_sampling_raises_when_no_valid_controller_exists():
    succ = {"ding": [], "wait": []}
    dom = DingDomain(successors=succ)
    with pytest.raises(NoValidSuccessor):
        sample_valid_controller(dom, 0, n_nodes=2,
                                rng=np.random.default_rng(2), max_attempts=50)


def test_sampling_covers_all_valid_edges():
    """Uniform edge choice: over many samples every valid target appears."""
    dom = DingDomain()
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(200):
        c = sample_valid_controller(dom, 0, n_nodes=2, rng=rng)
        for key, tgt in c.edges.items():
            seen.add((key, tgt, tuple(c.nodes)))
    labelings = {s[2] for s in seen}
    assert len(labelings) == 4  # all 2^2 labelings show up


def test_masked_sampling_copies_labels_and_masked_edges():
    dom = DingDomain()
    base = PolicyController(nodes=["ding", "wait"],
                            edges={(0, "o"): 1, (1, "o"): 0})
    mask = {("ding", "o"): "wait"}
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = sample_valid_controller(dom, 0, n_nodes=2, rng=rng,
                                    mask=mask, base=base)
        assert c.nodes == base.nodes
        assert c.edges[(0, "o")] == 1  # masked edge copied verbatim


def test_masked_sampling_points_masked_edges_at_lowest_carrier():
    dom = DingDomain()
    base = PolicyController(nodes=["ding", "wait", "wait"],
                            edges={(0, "o"): 2, (1, "o"): 0, (2, "o"): 0})
    mask = {("ding", "o"): "wait"}
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = sample_valid_controller(dom, 0, n_nodes=3, rng=rng,
                                    mask=mask, base=base)
        assert c.edges[(0, "o")] == 1  # lowest wait node, not base's 2


def test_integers_of_one_leaves_the_generator_unchanged():
    # the sampler skips a draw from one item on this numpy behaviour
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(5):
        assert rng.integers(1) == 0
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


def test_desk_sampled_controllers_are_bit_exact():
    """sha256 over the labels and edges of 210 desk controllers: 105 drawn
    unmasked, then 105 drawn under the masks and base that ``create_mask``
    makes after a short search.  The digest was recorded before the sampler
    was optimised, so any change to its use of the random stream shows
    here."""
    domain = build_domain(desk_config(), np.random.default_rng(0))
    cfg = SearchConfig(n_nodes=13, budget=10, iter_max_mc=10, k_d=3,
                       mask_threshold=0.99, explore_rate=0.35, n_rollouts=2,
                       horizon_macro_steps=40)
    res = mmcs(domain, cfg, np.random.default_rng(3))
    masks, base = create_mask(res.elites, domain, cfg.mask_threshold,
                              res.best_policy)
    assert [len(m) for m in masks] == [47, 48, 22]
    h = hashlib.sha256()
    rng = np.random.default_rng(21)
    for masked in ({}, dict(masks=masks, base=base)):
        for _ in range(35):
            pol = sample_joint_policy(domain, 13, rng, explore_rate=0.35,
                                      **masked)
            for c in pol.controllers:
                h.update(repr((c.nodes, sorted(c.edges.items()))).encode())
    assert h.hexdigest() == (
        "f3a9df04792aa53b7c4f72eb0258492ad2a7fbb3dacb2d73e23be30dd16cda46")


class TableDomain(Domain):
    """One agent whose domain is only its sampling tables: a roster, an
    observation alphabet and a successor list per (label, observation)."""

    def __init__(self, labels, alphabet, successors):
        self.n_agents = 1
        self._roster = dict.fromkeys(labels)
        self._alphabet = alphabet
        self._succ = successors

    def roster(self, agent):
        return self._roster

    def obs_alphabet(self):
        return list(self._alphabet)

    def valid_successors(self, agent, tma_id, obs_label):
        return list(self._succ[(tma_id, obs_label)])


def reference_sample(domain, agent, n_nodes, rng, mask=None, base=None,
                     explore_rate=0.35, max_attempts=1000):
    """``sample_valid_controller`` as one ``_pick`` per edge decision,
    interleaved with the explore draws, in node and observation order."""
    def pick(items):
        return items[0] if len(items) == 1 else items[rng.integers(len(items))]

    roster, successors = domain.sampling_tables[agent]
    perturb = bool(mask) and base is not None
    if mask:
        pinned = {lb for lb, _ in mask} | set(mask.values())
    for _ in range(max_attempts):
        if perturb:
            labels = [lb if (lb in pinned or rng.random() >= explore_rate)
                      else pick(roster) for lb in base.nodes]
        else:
            labels = [roster[k] for k in rng.integers(len(roster),
                                                      size=n_nodes)]
        carrier = {}
        for i, lb in enumerate(labels):
            carrier.setdefault(lb, i)
        ok = True
        edges = {}
        for i, lb in enumerate(labels):
            for obs, valid in successors[lb]:
                if mask and (lb, obs) in mask and mask[(lb, obs)] in carrier:
                    edges[(i, obs)] = carrier[mask[(lb, obs)]]
                    continue
                targets = [k for k, other in enumerate(labels)
                           if other in valid]
                if not targets:
                    ok = False
                    break
                if (perturb and rng.random() >= explore_rate
                        and base.edges.get((i, obs)) in targets):
                    edges[(i, obs)] = base.edges[(i, obs)]
                else:
                    edges[(i, obs)] = pick(targets)
            if not ok:
                break
        if ok:
            return PolicyController(nodes=labels, edges=edges)
    raise NoValidSuccessor("no valid controller")


@st.composite
def sampler_cases(draw):
    """(domain, n_nodes, max_attempts, mask, base): one to four labels, one
    to three observations, and successor lists that may be empty or hold
    one label; a mask over some (label, observation) pairs, at times, and
    a base to perturb when the reference sampler finds one."""
    labels = [f"m{k}" for k in range(draw(st.integers(1, 4)))]
    alphabet = [f"o{k}" for k in range(draw(st.integers(1, 3)))]
    successors = {(lb, obs): draw(st.lists(st.sampled_from(labels),
                                           max_size=len(labels), unique=True))
                  for lb in labels for obs in alphabet}
    domain = TableDomain(labels, alphabet, successors)
    n_nodes = draw(st.integers(1, 6))
    max_attempts = draw(st.integers(1, 6))
    mask = base = None
    if draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(sorted(successors)),
                              unique=True))
        mask = {pair: draw(st.sampled_from(labels)) for pair in pairs}
        if draw(st.booleans()):
            try:
                base = reference_sample(
                    domain, 0, n_nodes,
                    np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
            except NoValidSuccessor:
                pass
    return domain, n_nodes, max_attempts, mask, base


@settings(max_examples=400, deadline=None)
@given(sampler_cases(), st.integers(0, 2**32 - 1))
def test_sampler_matches_one_pick_per_edge(case, seed):
    """The sampler draws every free edge of an unmasked labeling at once;
    it gives the controller, or the failure, and the generator state of
    one draw per edge, on labelings that fail, edges with one target and
    exhausted attempts alike."""
    domain, n_nodes, max_attempts, mask, base = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    args = dict(mask=mask, base=base, explore_rate=0.35,
                max_attempts=max_attempts)
    try:
        want = reference_sample(domain, 0, n_nodes, ref_rng, **args)
    except NoValidSuccessor:
        with pytest.raises(NoValidSuccessor):
            sample_valid_controller(domain, 0, n_nodes, rng, **args)
    else:
        got = sample_valid_controller(domain, 0, n_nodes, rng, **args)
        assert got.nodes == want.nodes
        assert sorted(got.edges.items()) == sorted(want.edges.items())
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# mask construction
# ---------------------------------------------------------------------------

def _policy(nodes, edges):
    return JointPolicy([PolicyController(nodes=nodes, edges=edges)])


def test_create_mask_freezes_consensus_pairs():
    dom = DingDomain()
    # four elites route ding->wait; one routes ding->ding (80% consensus)
    consensus = _policy(["ding", "wait"], {(0, "o"): 1, (1, "o"): 0})
    dissent = _policy(["ding", "ding"], {(0, "o"): 0, (1, "o"): 1})
    elites = [(1.0, consensus)] * 4 + [(0.5, dissent)]
    masks, base = create_mask(elites, dom, threshold=0.6, best=consensus)
    assert masks[0].get(("ding", "o")) == "wait"
    assert base is consensus


def test_create_mask_below_threshold_leaves_pair_free():
    dom = DingDomain()
    a = _policy(["ding", "wait"], {(0, "o"): 1, (1, "o"): 0})
    b = _policy(["ding", "ding"], {(0, "o"): 0, (1, "o"): 1})
    elites = [(1.0, a), (0.9, b)]  # 50/50 over ding's successor label? no:
    # a: ding->wait once; b: ding->ding twice -> modal freq 2/3 < 0.8
    masks, _ = create_mask(elites, dom, threshold=0.8, best=a)
    assert ("ding", "o") not in masks[0]


def test_create_mask_drops_pair_without_carrier_in_best():
    dom = DingDomain()
    elite = _policy(["ding", "ding"], {(0, "o"): 1, (1, "o"): 0})
    best = _policy(["wait", "wait"], {(0, "o"): 0, (1, "o"): 1})
    masks, base = create_mask([(1.0, elite)] * 3, dom, threshold=0.6,
                              best=best)
    # consensus says ding->ding, but best has no ding node to point at
    assert ("ding", "o") not in masks[0]
    assert base is best


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _exact_value(policy, dom, horizon=4):
    from macroplan.decposmdp import evaluate_joint_policy
    pv = evaluate_joint_policy(policy, dom, n_rollouts=1,
                               horizon_macro_steps=horizon,
                               rng=np.random.default_rng(0))
    return pv.mean


def _enumerate_policies(dom, n_nodes):
    roster = sorted(dom.roster(0))
    for labels in itertools.product(roster, repeat=n_nodes):
        for targets in itertools.product(range(n_nodes), repeat=n_nodes):
            edges = {(i, "o"): t for i, t in enumerate(targets)}
            yield JointPolicy([PolicyController(nodes=list(labels),
                                                edges=edges)])


def test_search_finds_small_space_optimum():
    """The whole space has 16 controllers; both searches must find the best
    one (always ding: 4 segments x 10) well inside 200 evaluations."""
    dom = DingDomain()
    best = max(_exact_value(p, dom) for p in _enumerate_policies(dom, 2))
    assert best == pytest.approx(40.0)
    cfg = SearchConfig(n_nodes=2, budget=60, iter_max_mc=15, k_d=5,
                       n_rollouts=1, horizon_macro_steps=4)
    for algo in (mmcs, monte_carlo_search):
        res = algo(dom, cfg, np.random.default_rng(0))
        assert res.best_value == pytest.approx(best)
        assert res.evaluations == 60


def test_search_trace_is_monotone_and_budget_respected():
    dom = DingDomain()
    cfg = SearchConfig(n_nodes=3, budget=37, iter_max_mc=10, k_d=4,
                       n_rollouts=1, horizon_macro_steps=4)
    res = mmcs(dom, cfg, np.random.default_rng(5))
    assert len(res.trace) == 37
    vals = [v for _, v in res.trace]
    assert vals == sorted(vals)
    assert res.trace[-1][0] == 37
    assert len(res.elites) <= 4
    assert all(a >= b for (a, _), (b, _) in zip(res.elites, res.elites[1:]))


def test_search_deterministic_per_seed():
    dom = DingDomain()
    cfg = SearchConfig(n_nodes=2, budget=25, iter_max_mc=8, k_d=3,
                       n_rollouts=2, horizon_macro_steps=4)
    a = mmcs(dom, cfg, np.random.default_rng(9))
    b = mmcs(dom, cfg, np.random.default_rng(9))
    assert a.trace == b.trace
    assert a.best_policy.to_dict() == b.best_policy.to_dict()


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mask_threshold=0.0)
    with pytest.raises(ValueError):
        SearchConfig(budget=0)


@pytest.mark.parametrize("key", ["n_nodes", "n_rollouts",
                                 "horizon_macro_steps"])
def test_search_config_rejects_empty_sizes(key):
    with pytest.raises(ValueError, match=key):
        SearchConfig(**{key: 0})


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_policy_round_trip(tmp_path):
    pol = JointPolicy([PolicyController(nodes=["ding", "wait"],
                                        edges={(0, "o"): 1, (1, "o"): 0})])
    path = str(tmp_path / "policy.json")
    save_policy(pol, path)
    back = load_policy(path)
    assert back.to_dict() == pol.to_dict()


def test_value_trace_bytes_identical(tmp_path):
    dom = DingDomain()
    cfg = SearchConfig(n_nodes=2, budget=20, iter_max_mc=10, k_d=3,
                       n_rollouts=1, horizon_macro_steps=4)
    paths = []
    for i in range(2):
        res = mmcs(dom, cfg, np.random.default_rng(11))
        p = str(tmp_path / f"trace{i}.csv")
        _write_csv(p, ["evaluation", "best_value"], res.trace)
        paths.append(p)
    with open(paths[0], "rb") as f0, open(paths[1], "rb") as f1:
        assert f0.read() == f1.read()
    assert os.path.getsize(paths[0]) > 0

