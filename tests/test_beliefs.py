import math
import os
import time
from collections import Counter

import numpy as np
import pytest
# scipy is a test dependency only: the oracle for the LQR design and the
# settle projector, which the package computes with numpy alone
import scipy.linalg
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macroplan import beliefs, cli, delivery
from macroplan import tma as tma_module
from macroplan.beliefs import (W_COV, W_MEAN, BallIndex, GainSpec,
                               GaussianBelief, LinearGaussianModel,
                               NoConstraints, SimState, StepCost,
                               TerminationRecord, PredicateConstraints,
                               Lma, design_lma, lma_step, run_lma,
                               stationary_covariance)
from macroplan.errors import MacroplanError, NonConvergent, Unstabilizable
from macroplan.tma import (GraphEdge, Milestone, _settle_projector,
                           construct_tma, estimate_edge)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TMA_EXAMPLE = os.path.join(ROOT, "configs", "tma_single.yaml")


def scalar_model(a=1.0, g=1.0, c=1.0, q=0.04, r=0.01, **kw):
    return LinearGaussianModel(A=[[a]], G=[[g]], C=[[c]], Q=[[q]], R_obs=[[r]], **kw)


def riccati_oracle(a, c, q, r, iters=10**6, tol=1e-12):
    # independent fixed-point iteration on the scalar posterior recurrence
    p = 1.0
    for _ in range(iters):
        pm = a * p * a + q
        p_next = pm - pm * c * (c * pm * c + r) ** -1 * c * pm
        if abs(p_next - p) < tol:
            return p_next
        p = p_next
    return p


class TestStationaryCovariance:
    def test_scalar_closed_form(self):
        # a=0: p = q*r/(q+r) = 0.5 for q=r=1, solved by hand
        m = scalar_model(a=0.0, q=1.0, r=1.0)
        p = stationary_covariance(m)
        assert abs(p[0, 0] - 0.5) <= 1e-9

    def test_perfect_observation_collapses(self):
        m = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                Q=1e-13 * np.eye(2), R_obs=1e-12 * np.eye(2))
        p = stationary_covariance(m)
        assert np.linalg.norm(p) <= 1e-6

    def test_scalar_against_iteration_oracle(self):
        m = scalar_model(a=1.0, c=1.0, q=0.04, r=0.01)
        expected = riccati_oracle(1.0, 1.0, 0.04, 0.01)
        assert abs(stationary_covariance(m)[0, 0] - expected) <= 1e-9

    def test_fixed_point_residual(self):
        m = scalar_model()
        p = stationary_covariance(m)
        pm = m.A @ p @ m.A.T + m.Q
        k = pm @ m.C.T @ np.linalg.inv(m.C @ pm @ m.C.T + m.R_obs)
        p_next = (np.eye(1) - k @ m.C) @ pm
        assert np.max(np.abs(p_next - p)) <= 1e-9

    def test_unobservable_raises(self):
        # unstable and unobserved state never converges
        m = LinearGaussianModel(A=[[2.0]], G=[[1.0]], C=[[0.0]],
                                Q=[[1.0]], R_obs=[[1.0]])
        with pytest.raises(NonConvergent):
            stationary_covariance(m)


class TestDesignLma:
    def test_scalar_lqr_stabilizes(self):
        m = scalar_model(a=1.0, g=1.0)
        lma = design_lma(m, [0.0], GainSpec(kind="lqr"))
        a_cl = 1.0 - lma.gain[0, 0]
        assert abs(a_cl) < 1.0
        # oracle: iterate the scalar control DARE by hand, weights (1,1)
        x = 1.0
        for _ in range(10**5):
            x_next = 1.0 + x - x * x / (1.0 + x)
            if abs(x_next - x) < 1e-13:
                break
            x = x_next
        l_expected = x / (1.0 + x)
        assert abs(lma.gain[0, 0] - l_expected) <= 1e-9

    def test_deadbeat_fixed_gain(self):
        m = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                Q=0.01 * np.eye(2), R_obs=0.01 * np.eye(2))
        lma = design_lma(m, [0.3, 0.7], GainSpec(kind="fixed", fixed_gain=np.eye(2)))
        closed = m.A - m.G @ lma.gain
        assert np.max(np.abs(np.linalg.eigvals(closed))) == pytest.approx(0.0, abs=1e-12)

    def test_control_zero_at_target(self):
        m = scalar_model()
        lma = design_lma(m, [0.4])
        u = -lma.gain @ (np.array([0.4]) - lma.attractor.mean)
        assert u == pytest.approx(0.0)

    def test_attractor_matches_stationary_covariance(self):
        m = scalar_model()
        lma = design_lma(m, [0.0])
        assert np.allclose(lma.attractor.cov, stationary_covariance(m), atol=1e-9)

    def test_unstabilizable_fixed_gain(self):
        m = scalar_model(a=2.0, g=1.0)
        with pytest.raises(Unstabilizable):
            design_lma(m, [0.0], GainSpec(kind="fixed", fixed_gain=[[0.0]]))


def scipy_gain(A, G, Qw, Rw):
    """The LQR gain from scipy's Riccati solution, by the formula
    ``design_lma`` applies to its own."""
    X = scipy.linalg.solve_discrete_are(A, G, Qw, Rw)
    return np.linalg.solve(Rw + G.T @ X @ G, G.T @ X @ A)


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def lqr_gain(A, G, state_weight, control_weight):
    """``design_lma``'s gain for the pair (A, G); the filter is a fixed
    well-posed one, so only the control design can fail."""
    n = A.shape[0]
    model = LinearGaussianModel(A=A, G=G, C=np.eye(n), Q=1e-4 * np.eye(n),
                                R_obs=1e-4 * np.eye(n))
    spec = GainSpec(state_weight=state_weight, control_weight=control_weight)
    return design_lma(model, np.zeros(n), spec).gain


def shipped_models():
    """(model, gain spec) of each model a config or preset builds, as
    parameters named after it."""
    with open(TMA_EXAMPLE) as f:
        data = yaml.safe_load(f)
    yield pytest.param(LinearGaussianModel.from_dict(data["model"]),
                       GainSpec.from_dict(data["tma"]["gain_spec"]),
                       id="tma_single")
    for name, cfg in (("desk", delivery.desk_config()),
                      ("default", delivery.DeliveryConfig())):
        spec = GainSpec(control_weight=cfg.control_weight)
        for robot, dynamics in (("air", cfg.air_dynamics),
                                ("ground", "single")):
            yield pytest.param(delivery._model(cfg, dynamics,
                                               NoConstraints()),
                               spec, id=f"{name}-{robot}")


@pytest.mark.parametrize("model, spec", list(shipped_models()))
def test_shipped_attractor_is_a_filter_fixed_point(model, spec):
    """One filter step leaves the stationary covariance unchanged to the
    bit, and a model that runs per axis keeps it, and its gain, exactly
    diagonal."""
    p = stationary_covariance(model)
    assert model._filter_update(p)[1].tobytes() == p.tobytes()
    if model._axes is not None:
        gain = design_lma(model, np.zeros(model.state_dim), spec).gain
        assert beliefs._diagonal(p) is not None
        assert beliefs._diagonal(gain) is not None


DOUBLE_A = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
DOUBLE_G = np.vstack([0.5 * np.eye(2), np.eye(2)])
PAIRS = {"scalar": (np.eye(1), np.eye(1)),
         "single": (np.eye(2), np.eye(2)),
         "double": (DOUBLE_A, DOUBLE_G)}


class TestLqrDesign:
    """The numpy Riccati iteration against scipy's solver."""

    @pytest.mark.parametrize("model, spec", list(shipped_models()))
    def test_shipped_models_match_scipy(self, model, spec):
        n, m = model.state_dim, model.control_dim
        want = scipy_gain(model.A, model.G, spec.state_weight * np.eye(n),
                          spec.control_weight * np.eye(m))
        got = design_lma(model, np.zeros(n), spec).gain
        assert rel_gap(got, want) <= 1e-13

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("state_weight", [0.0, 1.0])
    @pytest.mark.parametrize("control_weight", [0.0, 0.1, 1.0, 8.0])
    def test_weight_grid_matches_scipy_outcome(self, pair, state_weight,
                                               control_weight):
        """The same gain where scipy's stabilizes, and Unstabilizable,
        within 0.1 s, where scipy fails or its gain does not stabilize; a
        zero control weight is refused, since the design needs R > 0."""
        A, G = PAIRS[pair]
        if control_weight == 0.0:
            with pytest.raises(ValueError, match="control_weight"):
                lqr_gain(A, G, state_weight, control_weight)
            return
        try:
            want = scipy_gain(A, G, state_weight * np.eye(A.shape[0]),
                              control_weight * np.eye(G.shape[1]))
            rho = np.max(np.abs(np.linalg.eigvals(A - G @ want)))
        except (np.linalg.LinAlgError, ValueError):
            want, rho = None, np.inf
        if rho < 1.0:
            got = lqr_gain(A, G, state_weight, control_weight)
            assert rel_gap(got, want) <= 1e-13
        else:
            t0 = time.perf_counter()
            with pytest.raises(Unstabilizable):
                lqr_gain(A, G, state_weight, control_weight)
            assert time.perf_counter() - t0 <= 0.1

    def test_gain_is_designed_once_per_model_and_weights(self):
        m = scalar_model()
        a, b = design_lma(m, [0.0]), design_lma(m, [0.5])
        assert a.gain is b.gain and not a.gain.flags.writeable
        assert design_lma(m, [0.0], GainSpec(control_weight=2.0)).gain \
            is not a.gain
        assert design_lma(scalar_model(), [0.0]).gain is not a.gain

    def test_random_stabilizable_systems_match_scipy(self):
        """The first 50 systems of dimension 1-4 from a seeded stream that
        scipy stabilizes, with unit weights."""
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, n))
            G = rng.standard_normal((n, m))
            try:
                want = scipy_gain(A, G, np.eye(n), np.eye(m))
            except (np.linalg.LinAlgError, ValueError):
                continue
            if np.max(np.abs(np.linalg.eigvals(A - G @ want))) >= 1.0:
                continue
            assert rel_gap(lqr_gain(A, G, 1.0, 1.0), want) <= 1e-10, checked
            # the relative Riccati residual of the solution itself
            X = beliefs._dare(A, G, np.eye(n), np.eye(m))
            XG = X @ G
            ric = (np.eye(n) + A.T @ X @ A - A.T @ XG
                   @ np.linalg.solve(np.eye(m) + G.T @ XG, XG.T @ A))
            assert rel_gap(ric, X) <= 1e-13, checked
            checked += 1

    @pytest.mark.parametrize("A, G, state_weight, control_weight", [
        (np.eye(2), np.zeros((2, 2)), 1.0, 1.0),
        (2.0 * np.eye(2), np.zeros((2, 2)), 1.0, 1.0),
        (DOUBLE_A, np.zeros((4, 2)), 1.0, 1.0),
        (np.eye(2), np.eye(2), 0.0, 0.0),
    ], ids=["uncontrolled-integrator", "uncontrolled-unstable",
            "uncontrolled-double", "no-weights"])
    def test_unstabilizable_pairs_fail_fast(self, A, G, state_weight,
                                            control_weight):
        t0 = time.perf_counter()
        if control_weight == 0.0:
            # the design needs R > 0, so zero weights are refused up front
            with pytest.raises(ValueError, match="control_weight"):
                lqr_gain(A, G, state_weight, control_weight)
        else:
            with pytest.raises(Unstabilizable, match="LQR design failed"):
                lqr_gain(A, G, state_weight, control_weight)
        assert time.perf_counter() - t0 <= 0.1

    def test_closed_loop_slower_than_the_old_cap_settles(self):
        # the gain leaves the scalar integrator at radius 0.999.  The oracle
        # is the closed form of the scalar Riccati equation x^2 - x - r = 0:
        # scipy's own gain is 1.5e-10 off it at this weight
        r = 1e6
        x = (1.0 + math.sqrt(1.0 + 4.0 * r)) / 2.0
        want = x / (r + x)
        assert 0.998 < 1.0 - want < 1.0
        got = lqr_gain(np.eye(1), np.eye(1), 1.0, r)[0, 0]
        assert abs(got - want) <= 1e-11 * want
        assert rel_gap(got, scipy_gain(np.eye(1), np.eye(1), np.eye(1),
                                       r * np.eye(1))) <= 1e-9

    @pytest.mark.parametrize("r", [1e4, 1e6, 1e8, 1e9])
    def test_slow_closed_loops_match_the_closed_form(self, r):
        """The scalar integrator at control weight r against the closed
        form x/(r + x) of its gain, x the positive root of x^2 - x - r = 0;
        at r = 1e9 the closed loop's spectral radius is 1 - 3e-5.  scipy is
        not the oracle here: it is 3.0e-9 off at r = 1e8."""
        x = (1.0 + math.sqrt(1.0 + 4.0 * r)) / 2.0
        want = x / (r + x)
        t0 = time.perf_counter()
        got = lqr_gain(np.eye(1), np.eye(1), 1.0, r)[0, 0]
        assert time.perf_counter() - t0 <= 0.1
        assert abs(got - want) <= 1e-11 * want

    def test_settle_projector_matches_null_space(self):
        basis = scipy.linalg.null_space(DOUBLE_A - np.eye(4))
        want = basis @ basis.T
        got = _settle_projector(DOUBLE_A)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestInputChecks:
    def test_non_psd_covariance_is_refused(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            GaussianBelief([0.0, 0.0], -np.eye(2))
        GaussianBelief([0.0, 0.0], np.zeros((2, 2)))   # PSD, singular

    def test_lqr_gain_spec_takes_no_fixed_gain(self):
        with pytest.raises(ValueError, match="fixed_gain"):
            GainSpec(kind="lqr", fixed_gain=np.eye(2))
        assert GainSpec(kind="lqr", fixed_gain=None).fixed_gain is None


class TestLmaStep:
    def test_fixed_point_zero_noise(self):
        m = scalar_model(q=0.0, r=1e-18)
        lma = design_lma(m, [0.5])
        sim = SimState(truth=np.array([0.5]),
                       belief=GaussianBelief([0.5], [[0.0]]))
        lma_step(lma, sim, m, np.random.default_rng(0))
        assert sim.truth[0] == pytest.approx(0.5, abs=1e-8)
        assert sim.belief.mean[0] == pytest.approx(0.5, abs=1e-8)

    def test_single_step_kalman_algebra(self):
        # hand-computed posterior: prior 1.0 -> predict a^2*1+q -> update
        a, c, q, r = 1.0, 1.0, 0.04, 0.01
        m = scalar_model(a=a, c=c, q=q, r=r)
        lma = design_lma(m, [0.0])
        sim = SimState(truth=np.array([0.2]),
                       belief=GaussianBelief([0.2], [[1.0]]))
        lma_step(lma, sim, m, np.random.default_rng(1))
        pm = a * 1.0 * a + q
        expected = pm - pm * c / (c * pm * c + r) * c * pm
        assert sim.belief.cov[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_long_run_converges_to_attractor(self):
        m = scalar_model()
        lma = design_lma(m, [0.0])
        sim = SimState(truth=np.array([1.0]),
                       belief=GaussianBelief([1.0], [[1.0]]))
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            lma_step(lma, sim, m, rng)
        assert abs(sim.belief.cov[0, 0] - lma.attractor.cov[0, 0]) <= 1e-6

    def test_step_cost_accrual(self):
        m = scalar_model(step_cost=StepCost(base=0.25))
        lma = design_lma(m, [0.0])
        sim = SimState(truth=np.array([0.1]),
                       belief=GaussianBelief([0.1], [[0.01]]))
        rng = np.random.default_rng(3)
        for _ in range(4):
            lma_step(lma, sim, m, rng)
        # u_weight == 0: each step pays exactly -base
        assert sim.accrued_reward == -1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40))
    def test_covariance_stays_psd(self, seed, steps):
        m = LinearGaussianModel(A=[[1.0, 0.1], [0.0, 0.9]], G=[[0.0], [1.0]],
                                C=[[1.0, 0.0]], Q=0.01 * np.eye(2), R_obs=[[0.05]])
        lma = design_lma(m, [0.0, 0.0])
        rng = np.random.default_rng(seed)
        sim = SimState(truth=rng.standard_normal(2),
                       belief=GaussianBelief(rng.standard_normal(2), np.eye(2)))
        for _ in range(steps):
            lma_step(lma, sim, m, rng)
        assert np.min(np.linalg.eigvalsh(sim.belief.cov)) >= -1e-10

    def test_cached_filter_matches_uncached_recursion(self):
        # the reference re-solves the gain and covariance every step; two
        # runs from one start read the model's filter path cold, then warm
        m = LinearGaussianModel(A=[[1.0, 0.1], [0.0, 0.9]], G=[[0.0], [1.0]],
                                C=[[1.0, 0.0]], Q=0.01 * np.eye(2),
                                R_obs=[[0.05]], step_cost=StepCost(u_weight=0.1))
        lma = design_lma(m, [0.3, 0.0])
        start_cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        for seed in (5, 5, 6):
            sim = SimState(truth=np.array([1.0, -0.5]),
                           belief=GaussianBelief([0.8, -0.4], start_cov))
            truth, mean, cov = sim.truth, sim.belief.mean, sim.belief.cov
            reward = 0.0
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(300):
                lma_step(lma, sim, m, rng)
                u = -lma.gain @ (mean - lma.attractor.mean)
                reward += -(m.step_cost.base
                            + m.step_cost.u_weight * float(u @ u))
                truth = (m.A @ truth + m.G @ u
                         + m._sq @ ref_rng.standard_normal(2))
                z = m.C @ truth + m._sr @ ref_rng.standard_normal(1)
                mp = m.A @ mean + m.G @ u
                Pm = m.A @ cov @ m.A.T + m.Q
                S = m.C @ Pm @ m.C.T + m.R_obs
                K = np.linalg.solve(S.T, (Pm @ m.C.T).T).T
                mean = mp + K @ (z - m.C @ mp)
                ikc = np.eye(2) - K @ m.C
                cov = ikc @ Pm @ ikc.T + K @ m.R_obs @ K.T
                cov = 0.5 * (cov + cov.T)
                assert sim.truth.tobytes() == truth.tobytes()
                assert sim.belief.mean.tobytes() == mean.tobytes()
                assert sim.belief.cov.tobytes() == cov.tobytes()
                assert sim.accrued_reward == reward

    def test_one_noise_draw_matches_two_draws(self):
        # lma_step draws process and observation noise in one call; the
        # reference draws them in two, as separate w and v vectors, on a
        # double integrator with more states (4) than observations (2)
        dt = 1.0
        A = np.block([[np.eye(2), dt * np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
        G = np.vstack([0.5 * dt ** 2 * np.eye(2), dt * np.eye(2)])
        C = np.hstack([np.eye(2), np.zeros((2, 2))])
        m = LinearGaussianModel(A=A, G=G, C=C, Q=2e-5 * np.eye(4),
                                R_obs=3e-5 * np.eye(2),
                                step_cost=StepCost(base=0.01, u_weight=0.2))
        lma = design_lma(m, [0.4, 0.6, 0.0, 0.0],
                         GainSpec(kind="lqr", control_weight=8.0))
        for seed in range(3):
            one, two = np.random.default_rng(seed), np.random.default_rng(seed)
            assert one.standard_normal(6).tobytes() == np.concatenate(
                [two.standard_normal(4), two.standard_normal(2)]).tobytes()
            sim = SimState(truth=np.array([0.1, 0.2, 0.0, 0.0]),
                           belief=GaussianBelief([0.1, 0.2, 0.0, 0.0],
                                                 1e-4 * np.eye(4)))
            truth, mean, cov = sim.truth, sim.belief.mean, sim.belief.cov
            reward = 0.0
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                lma_step(lma, sim, m, rng)
                u = -lma.gain @ (mean - lma.attractor.mean)
                reward += -(m.step_cost.base
                            + m.step_cost.u_weight * float(u @ u))
                w = m._sq @ ref_rng.standard_normal(4)
                truth = m.A @ truth + m.G @ u + w
                v = m._sr @ ref_rng.standard_normal(2)
                z = m.C @ truth + v
                K, cov = m._filter_update(cov)[:2]
                mp = m.A @ mean + m.G @ u
                mean = mp + K @ (z - m.C @ mp)
                assert sim.truth.tobytes() == truth.tobytes()
                assert sim.belief.mean.tobytes() == mean.tobytes()
                assert sim.belief.cov.tobytes() == cov.tobytes()
                assert sim.accrued_reward == reward
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("dims", [1, 2, 4, "anisotropic"], ids=[
        "scalar", "single-integrator", "double-integrator",
        "anisotropic-dt0.5"])
    def test_matches_matmul_reference_to_the_bit(self, dims):
        # the reference is the step written with ``@`` for every product and
        # the gain negated on every call; the step cost has a nonzero
        # u_weight so that a change in u·u shows.  The anisotropic single
        # integrator at dt=0.5 has diagonal G, noise roots, gain and Kalman
        # gains that are not the identity
        Q, R_obs = 1e-4, 2e-4
        if dims == 4:
            A = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
            G = np.vstack([0.5 * np.eye(2), np.eye(2)])
            C = np.hstack([np.eye(2), np.zeros((2, 2))])
            target, start = [0.8, 0.7, 0.0, 0.0], [0.1, 0.2, 0.05, -0.03]
        elif dims == "anisotropic":
            A, G, C = np.eye(2), 0.5 * np.eye(2), np.eye(2)
            Q, R_obs = np.array([1e-4, 3e-4]), np.array([2e-4, 5e-4])
            target, start = [0.8, 0.7], [0.1, 0.2]
        else:
            A = G = C = np.eye(dims)
            target, start = [0.8, 0.7][:dims], [0.1, 0.2][:dims]
        m = LinearGaussianModel(A=A, G=G, C=C, Q=Q * np.eye(len(A)),
                                R_obs=R_obs * np.eye(len(C)),
                                step_cost=StepCost(base=0.01, u_weight=0.3))
        lma = design_lma(m, target, GainSpec(kind="lqr", control_weight=8.0))
        # the double integrator takes the matrix form, the rest per axis
        assert per_axis(m, lma, 1e-3 * np.eye(len(A))) == (dims != 4)

        def reference(truth, mean, cov, reward, rng):
            u = -lma.gain @ (mean - lma.attractor.mean)
            reward += -(m.step_cost.base + m.step_cost.u_weight * float(u @ u))
            n = m._sq.shape[0]
            noise = rng.standard_normal(n + m._sr.shape[0])
            gu = m.G @ u
            truth = m.A @ truth + gu + m._sq @ noise[:n]
            z = m.C @ truth + m._sr @ noise[n:]
            K, cov = m._filter_update(cov)[:2]
            mp = m.A @ mean + gu
            return truth, mp + K @ (z - m.C @ mp), cov, reward

        for seed in range(4):
            sim = SimState(truth=np.array(start) + 0.01,
                           belief=GaussianBelief(start, 1e-3 * np.eye(len(A))))
            ref = (sim.truth, sim.belief.mean, sim.belief.cov, 0.0)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(320):
                lma_step(lma, sim, m, rng)
                ref = reference(*ref, ref_rng)
                assert sim.truth.tobytes() == ref[0].tobytes()
                assert sim.belief.mean.tobytes() == ref[1].tobytes()
                assert sim.belief.cov.tobytes() == ref[2].tobytes()
                assert sim.accrued_reward == ref[3]
            assert sim.accrued_reward < -320 * 0.01   # u·u counted
            assert rng.random() == ref_rng.random()


def per_axis(model, lma, cov):
    """Whether ``lma_step`` takes its per-axis form for this model and
    funnel at posterior covariance ``cov``."""
    return (model._axes is not None and lma._axes is not None
            and model._filter_update(cov)[2] is not None)


def count_step_forms(monkeypatch):
    """Wrap the two step forms, which ``lma_step`` and ``run_lma`` call, and
    return the counter of the steps each takes."""
    forms = Counter()
    for name, form in (("_axis_step", "per-axis"), ("_matrix_step", "matrix")):
        def wrapped(*args, real=getattr(beliefs, name), form=form):
            forms[form] += 1
            return real(*args)

        monkeypatch.setattr(beliefs, name, wrapped)
    return forms


def matmul_step(lma, model, truth, mean, cov, reward, rng):
    """``lma_step`` written with ``@`` for every product and the gain
    negated on every call; returns the next truth, mean, covariance and
    accrued reward."""
    u = -lma.gain @ (mean - lma.attractor.mean)
    cost = model.step_cost
    reward += -(cost.base + cost.u_weight * float(u @ u))
    n = model.state_dim
    noise = rng.standard_normal(n + model.R_obs.shape[0])
    gu = model.G @ u
    truth = model.A @ truth + gu + model._sq @ noise[:n]
    z = model.C @ truth + model._sr @ noise[n:]
    K, cov = model._filter_update(cov)[:2]
    mp = model.A @ mean + gu
    return truth, mp + K @ (z - model.C @ mp), cov, reward


@st.composite
def separable_cases(draw):
    """(model, funnel, start belief, truth, fallback): a diagonal model of
    dimension 1-4 at a time step other than 1, with some process-noise
    entries 0, and a diagonal funnel gain with a random closed loop.
    ``fallback`` names what sends the step to the matrix form: None, a
    dense gain, or a start covariance that is not diagonal."""
    n = draw(st.integers(min_value=1, max_value=4))
    fallback = draw(st.sampled_from(
        [None, "dense-gain", "full-cov"] if n > 1 else [None]))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 2.0]))
    axis = lambda values: draw(st.lists(st.sampled_from(values), min_size=n,
                                        max_size=n))
    a, c = axis([1.0, 0.9, 0.5]), axis([1.0, 0.5, 2.0])
    q, r = axis([0.0, 1e-4, 3e-4]), axis([1e-4, 2e-4, 5e-4])
    u_weight = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    model = LinearGaussianModel(A=np.diag(a), G=dt * np.eye(n),
                                C=np.diag(c), Q=np.diag(q), R_obs=np.diag(r),
                                step_cost=StepCost(base=0.01,
                                                   u_weight=u_weight))
    # u = -L (m - target) gives the closed loop a - dt l = rho per axis
    rho = rng.uniform(-0.6, 0.8, n)
    gain = np.diag((np.array(a) - rho) / dt)
    if fallback == "dense-gain":
        gain = gain + 0.01 * rng.standard_normal((n, n))
    lma = Lma(gain=gain, attractor=GaussianBelief(rng.random(n), np.eye(n)))
    cov = np.diag(1e-3 * (1.0 + rng.random(n)))
    if fallback == "full-cov":
        B = rng.standard_normal((n, n))
        cov = 1e-4 * (B @ B.T + np.eye(n))
    mean = rng.random(n)
    truth = mean + 0.01 * rng.standard_normal(n)
    return model, lma, GaussianBelief(mean, cov), truth, fallback


class TestStepForms:
    @settings(max_examples=200, deadline=None)
    @given(separable_cases(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_both_forms_match_matmul_reference_to_the_bit(self, case, seed):
        model, lma, start, truth, fallback = case
        sim = SimState(truth=truth, belief=start)
        ref = (truth, start.mean, start.cov, 0.0)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        forms = []
        for _ in range(60):
            forms.append(per_axis(model, lma, sim.belief.cov))
            lma_step(lma, sim, model, rng)
            ref = matmul_step(lma, model, *ref, ref_rng)
            assert sim.truth.tobytes() == ref[0].tobytes()
            assert sim.belief.mean.tobytes() == ref[1].tobytes()
            assert sim.belief.cov.tobytes() == ref[2].tobytes()
            assert sim.accrued_reward == ref[3]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if fallback is None:
            assert all(forms)
        else:
            assert not forms[0]

    def test_desk_models_funnels_and_filter_gains_take_the_per_axis_form(
            self, monkeypatch):
        # every matrix of the desk preset is diagonal: its models' dynamics,
        # noise roots and observation matrices, every funnel's gain and
        # every Kalman gain its filter paths hold after the build
        forms = count_step_forms(monkeypatch)
        domain = delivery.build_domain(delivery.desk_config(),
                                       np.random.default_rng(0))
        assert forms["per-axis"] > 0 and forms["matrix"] == 0
        tmas = [*domain._air_tmas.values(), *domain._ground_tmas.values()]
        models = {id(t.model): t.model for t in tmas}
        assert len(models) == 2
        assert all(m._axes is not None for m in models.values())
        assert all(lma._axes is not None
                   for t in tmas for lma in t.funnels.values())
        for m in models.values():
            assert m._filter_path
            assert all(step[2] is not None for step in m._filter_path.values())

    @pytest.mark.parametrize("path, seeds", [
        (TMA_EXAMPLE, [0]),
        (os.path.join(ROOT, "perfbench", "tma_build.yaml"), [0, 1, 2, 3])],
        ids=["tma_single", "perfbench-tma_build"])
    def test_tma_configs_take_the_per_axis_form(self, path, seeds,
                                                monkeypatch):
        # every step of every edge simulation, from every start covariance
        # the builds meet, including those of seeds that raise
        with open(path) as f:
            model, start, goal, cfg = cli._tma_setup(yaml.safe_load(f))
        forms = count_step_forms(monkeypatch)
        for seed in seeds:
            try:
                construct_tma(start, goal, model, cfg,
                              np.random.default_rng(seed))
            except MacroplanError:
                pass
        assert forms["per-axis"] > 0 and forms["matrix"] == 0

    def test_double_integrator_takes_the_matrix_form(self, monkeypatch):
        cfg = delivery.DeliveryConfig()
        m = delivery._model(cfg, "double", NoConstraints())
        lma = design_lma(m, [0.8, 0.7, 0.0, 0.0],
                         GainSpec(control_weight=cfg.control_weight))
        assert m._axes is None and lma._axes is None
        forms = count_step_forms(monkeypatch)
        start = GaussianBelief([0.1, 0.2, 0.0, 0.0], 1e-4 * np.eye(4))
        sim = SimState(truth=start.mean.copy(), belief=start)
        run_lma(lma, sim, BallIndex([make_milestone(1, lma.attractor.mean,
                                                    lma.attractor.cov, 0.05)]),
                m, 20, np.random.default_rng(0))
        assert forms["matrix"] > 0 and forms["per-axis"] == 0


def make_milestone(mid, mean, cov, eps):
    return Milestone(id=mid, center=GaussianBelief(mean, cov), epsilon=eps)


def exact_distances(b, centers):
    """The belief metric from ``b`` to each center, by the stacked
    ``np.linalg.norm`` reductions."""
    means = np.stack([c.mean for c in centers])
    covs = np.stack([c.cov.ravel() for c in centers])
    return (W_MEAN * np.linalg.norm(means - b.mean, axis=1)
            + W_COV * np.linalg.norm(covs - b.cov.ravel(), axis=1))


class TestRunLma:
    def setup_method(self):
        self.m = scalar_model(q=1e-4, r=1e-4)
        self.p = stationary_covariance(self.m)
        self.lma = design_lma(self.m, [1.0])
        self.goal = make_milestone(1, np.array([1.0]), self.p, 0.1)
        self.stops = BallIndex([self.goal])

    def test_start_inside_lands_immediately(self):
        sim = SimState(truth=np.array([1.0]),
                       belief=GaussianBelief([1.0], self.p))
        rec = run_lma(self.lma, sim, self.stops, self.m, 100,
                      np.random.default_rng(0))
        assert rec.outcome == TerminationRecord.LANDED
        assert rec.region_id == 1
        assert rec.elapsed_steps == 0

    def test_funnel_reaches_goal(self):
        hits = 0
        for seed in range(1000):
            sim = SimState(truth=np.array([0.0]),
                           belief=GaussianBelief([0.0], self.p))
            rec = run_lma(self.lma, sim, self.stops, self.m, 10_000,
                          np.random.default_rng(seed))
            hits += rec.outcome == TerminationRecord.LANDED
        # Wilson interval at 99% target: >= 990/1000 clears the bar
        assert hits >= 990

    def test_everywhere_constraint_fails_at_step_one(self):
        m = scalar_model(q=1e-4, r=1e-4,
                         constraints=PredicateConstraints(lambda x: True))
        sim = SimState(truth=np.array([0.0]),
                       belief=GaussianBelief([0.0], self.p))
        rec = run_lma(self.lma, sim, self.stops, m, 100, np.random.default_rng(0))
        assert rec.outcome == TerminationRecord.FAILED
        assert rec.region_id == 0
        assert rec.elapsed_steps == 1

    def test_timeout_distinct_outcome(self):
        far = make_milestone(1, np.array([100.0]), self.p, 1e-6)
        sim = SimState(truth=np.array([0.0]),
                       belief=GaussianBelief([0.0], self.p))
        rec = run_lma(self.lma, sim, BallIndex([far]), self.m, 5,
                      np.random.default_rng(0))
        assert rec.outcome == TerminationRecord.TIMEOUT
        assert rec.elapsed_steps == 5

    def test_overlapping_balls_land_in_lower_index(self):
        # the belief is nearer region 3's center but inside both balls
        low = make_milestone(2, np.array([0.0]), self.p, 0.5)
        high = make_milestone(3, np.array([0.3]), self.p, 0.5)
        sim = SimState(truth=np.array([0.25]),
                       belief=GaussianBelief([0.25], self.p))
        rec = run_lma(self.lma, sim, BallIndex([low, high]), self.m, 10,
                      np.random.default_rng(0))
        assert (rec.outcome, rec.region_id, rec.elapsed_steps) == (
            TerminationRecord.LANDED, 2, 0)

    def test_landing_follows_exact_distance_to_the_bit(self):
        # a ball whose radius is exactly the belief's distance holds it, and
        # one a single ulp smaller does not
        rng = np.random.default_rng(11)
        m = LinearGaussianModel(A=np.eye(2), G=np.eye(2), C=np.eye(2),
                                Q=1e-4 * np.eye(2), R_obs=1e-4 * np.eye(2))
        lma = design_lma(m, [0.0, 0.0])
        for _ in range(300):
            a = rng.standard_normal((2, 2))
            b = GaussianBelief(rng.standard_normal(2), a @ a.T)
            c = rng.standard_normal((2, 2))
            center = GaussianBelief(rng.standard_normal(2), c @ c.T)
            d = exact_distances(b, [center])[0]
            for eps, lands in ((d, True), (np.nextafter(d, 0.0), False)):
                region = Milestone(id=2, center=center, epsilon=eps)
                sim = SimState(truth=b.mean.copy(), belief=b)
                rec = run_lma(lma, sim, BallIndex([region]), m, 1,
                              np.random.default_rng(0))
                assert (rec.elapsed_steps == 0) == lands

    def test_cached_ball_index_matches_uncached_on_miss_and_hit(self):
        # the covariance terms are cached per covariance; a miss, a hit
        # (same covariance, other mean, other array object) and the plain
        # stacked test give the same distances and the same first ball, in
        # index order and in reverse
        rng = np.random.default_rng(5)
        regions = []
        for mid in range(2, 9):
            a = rng.standard_normal((2, 2))
            regions.append(make_milestone(mid, rng.random(2), 1e-2 * (a @ a.T),
                                          0.2 + 0.3 * rng.random()))
        balls = BallIndex(regions)
        eps = np.array([r.epsilon for r in regions])
        seen = 0
        for _ in range(30):
            a = rng.standard_normal((2, 2))
            cov = 1e-2 * (a @ a.T)
            for _ in range(3):
                b = GaussianBelief(rng.random(2), cov.copy())
                d = exact_distances(b, [r.center for r in regions])
                inside = np.flatnonzero(d <= eps).tolist()
                for order, want in ((range(7), inside[:1]),
                                    (range(6, -1, -1), inside[-1:])):
                    for _ in range(2):
                        assert balls.distances(b).tobytes() == d.tobytes()
                        assert balls.first_at(b.mean.tolist(), b.cov,
                                              order) == (want[0] if want
                                                         else None)
                seen += 1 < len(inside) < len(regions)
        assert seen > 10   # beliefs in several balls, but not in all

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           dims=st.sampled_from([1, 2, 4]),
           ulps=st.integers(min_value=-2, max_value=2))
    def test_shortlist_holds_every_ball_the_scalar_test_accepts(
            self, seed, dims, ulps):
        # the belief sits on one region's boundary to the bit, or a few ulps
        # inside or outside it; the other balls are random.  The index holds
        # a belief in exactly the balls the exact test accepts, and run_lma
        # lands in the first of them
        rng = np.random.default_rng(seed)

        def psd(scale):
            a = rng.standard_normal((dims, dims))
            return scale * (a @ a.T)

        centers = [GaussianBelief(rng.random(dims), psd(1e-2)) for _ in range(6)]
        j = int(rng.integers(len(centers)))
        b = GaussianBelief(centers[j].mean + 0.1 * rng.standard_normal(dims),
                           centers[j].cov + psd(1e-3) if rng.random() < 0.7
                           else centers[j].cov.copy())
        d = exact_distances(b, centers)
        eps = [0.05 + 0.4 * rng.random() for _ in centers]
        eps[j] = float(d[j])
        for _ in range(abs(ulps)):
            eps[j] = np.nextafter(eps[j], np.inf if ulps > 0 else 0.0)
        regions = [make_milestone(mid, c.mean, c.cov, e)
                   for mid, (c, e) in enumerate(zip(centers, eps), start=2)]
        balls = BallIndex(regions)
        holds = [k for k in range(len(regions)) if d[k] <= eps[k]]
        assert (j in holds) == (ulps >= 0)
        for _ in range(2):   # a cache miss, then a hit
            assert balls.distances(b).tobytes() == d.tobytes()
            at = b.mean.tolist(), b.cov
            assert [k for k in range(len(regions))
                    if balls.first_at(*at, [k]) is not None] == holds
            assert balls.first_at(*at, range(len(regions))) == (
                holds[0] if holds else None)
        m = LinearGaussianModel(A=np.eye(dims), G=np.eye(dims), C=np.eye(dims),
                                Q=1e-4 * np.eye(dims), R_obs=1e-4 * np.eye(dims))
        sim = SimState(truth=b.mean.copy(), belief=b)
        rec = run_lma(design_lma(m, np.zeros(dims)), sim, balls, m, 1,
                      np.random.default_rng(0))
        if holds:
            assert (rec.outcome, rec.region_id, rec.elapsed_steps) == (
                TerminationRecord.LANDED, regions[holds[0]].id, 0)
        else:
            assert rec.elapsed_steps == 1

    def test_seed_determinism(self):
        recs = []
        for _ in range(2):
            sim = SimState(truth=np.array([0.0]),
                           belief=GaussianBelief([0.0], self.p))
            recs.append(run_lma(self.lma, sim, self.stops, self.m, 10_000,
                                np.random.default_rng(42)))
        assert recs[0] == recs[1]


def reference_run_lma(lma, sim, stops, model, max_steps, rng, order=None):
    """``run_lma`` as one ``lma_step``, then ``BallIndex.first_at``, then
    ``violates`` per step, each on the arrays of ``sim``; mutates ``sim``."""
    if order is None:
        order = range(len(stops.ids))
    steps = 0
    start_reward = sim.accrued_reward
    while True:
        b = sim.belief
        k = stops.first_at(b.mean.tolist(), b.cov, order)
        if k is not None:
            return TerminationRecord(
                TerminationRecord.LANDED, stops.ids[k], steps,
                sim.accrued_reward - start_reward)
        if steps >= max_steps:
            return TerminationRecord(
                TerminationRecord.TIMEOUT, None, steps,
                sim.accrued_reward - start_reward)
        lma_step(lma, sim, model, rng)
        steps += 1
        if model.constraints.violates(sim.truth):
            return TerminationRecord(
                TerminationRecord.FAILED, 0, steps,
                sim.accrued_reward - start_reward)


def reference_estimate_edge(start_milestone, lma, to_id, balls, model, m,
                            max_steps, rng):
    """``estimate_edge`` with every start and every step drawn from ``rng``
    on its own, and each run by ``reference_run_lma``."""
    center = start_milestone.center
    sigma = start_milestone.epsilon / 3.0
    order = [k for k, i in enumerate(balls.ids) if i != start_milestone.id]
    cov_sqrt = tma_module._psd_sqrt(center.cov)
    n = len(center.mean)
    counts = dict.fromkeys([0, *balls.ids], 0)
    total_reward = total_time = 0.0
    for _ in range(m):
        draw = rng.standard_normal(2 * n)
        mean = center.mean + sigma * draw[:n]
        truth = mean + cov_sqrt @ draw[n:]
        sim = SimState(truth=truth, belief=GaussianBelief(mean, center.cov))
        rec = reference_run_lma(lma, sim, balls, model, max_steps, rng, order)
        counts[rec.region_id if rec.outcome == TerminationRecord.LANDED
               else 0] += 1
        total_reward += rec.accrued_reward
        total_time += rec.elapsed_steps
    return GraphEdge(from_id=start_milestone.id, to_id=to_id,
                     landing_probs={i: c / m for i, c in counts.items()},
                     reward=total_reward / m,
                     time=max(total_time / m, 1e-9), sample_count=m)


def ndarray_predicate(bound):
    """Constraints whose predicate fails unless it is handed an ndarray."""
    def hits(x):
        assert isinstance(x, np.ndarray)
        return float(x.sum()) > bound
    return PredicateConstraints(hits)


@st.composite
def run_cases(draw):
    """(model, funnel, start belief, truth, stop balls, order): a
    ``separable_cases`` model and funnel, so per-axis, matrix (dense gain)
    and mixed (non-diagonal start covariance) steps; no constraints, a
    rectangle or a predicate; one to three balls at the model's stationary
    covariance, one of them at the funnel's target and one, at times, at
    the start."""
    model, lma, start, truth, _ = draw(separable_cases())
    n = model.state_dim
    kind = draw(st.sampled_from(["none", "rects", "predicate"] if n > 1
                                else ["none", "predicate"]))
    if kind == "rects":
        x0, y0 = draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 0.8))
        model.constraints = beliefs.RectConstraints(
            [((x0, y0), (x0 + 0.2, y0 + 0.2))])
    elif kind == "predicate":
        model.constraints = ndarray_predicate(draw(st.floats(0.3, 2.0)))
    p = stationary_covariance(model)
    centers = [lma.attractor.mean, draw(st.sampled_from(
        [np.full(n, 0.5), np.full(n, 0.9), np.full(n, 0.1), start.mean]))]
    epsilon = st.floats(0.01, 0.12)
    regions = [make_milestone(mid, c, p, draw(epsilon))
               for mid, c in enumerate(centers, start=2)]
    if draw(st.booleans()):
        regions.append(make_milestone(4, np.zeros(n), p, draw(epsilon)))
    order = draw(st.one_of(st.none(), st.permutations(range(len(regions)))))
    return model, lma, start, truth, BallIndex(regions), order


def assert_same_state(sim, ref):
    assert sim.truth.tobytes() == ref.truth.tobytes()
    assert sim.belief.mean.tobytes() == ref.belief.mean.tobytes()
    assert sim.belief.cov.tobytes() == ref.belief.cov.tobytes()
    assert sim.accrued_reward == ref.accrued_reward


class TestRunLmaMatchesStepLoop:
    """``run_lma`` and ``estimate_edge`` against a loop of ``lma_step``,
    ``BallIndex.first_at`` and ``violates``, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(run_cases(), st.integers(min_value=1, max_value=300),
           st.floats(-1.5, 0.0), st.integers(min_value=0,
                                             max_value=2**32 - 1))
    def test_run_lma_matches_the_step_loop(self, case, max_steps, reward,
                                           seed):
        model, lma, start, truth, balls, order = case
        sim, ref = (SimState(truth=truth.copy(), belief=start,
                             accrued_reward=reward) for _ in range(2))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rec = run_lma(lma, sim, balls, model, max_steps, rng, order)
        assert rec == reference_run_lma(lma, ref, balls, model, max_steps,
                                        ref_rng, order)
        assert_same_state(sim, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_run_that_changes_form_matches_the_step_loop(self):
        # a diagonal model from a non-diagonal covariance: the Kalman gain
        # turns diagonal after 184 steps, so the run takes the matrix form
        # and then the per-axis form
        model = LinearGaussianModel(
            A=np.diag([0.5, 0.9]), G=0.5 * np.eye(2), C=np.diag([2.0, 1.0]),
            Q=np.diag([3e-4, 1e-4]), R_obs=np.diag([1e-4, 2e-4]),
            step_cost=StepCost(base=0.01, u_weight=0.3))
        lma = Lma(gain=np.diag([0.6, 1.0]),
                  attractor=GaussianBelief([0.4, 0.6], np.eye(2)))
        start = GaussianBelief([0.1, 0.2], [[1e-3, 4e-4], [4e-4, 1e-3]])
        far = BallIndex([make_milestone(2, [5.0, 5.0], np.eye(2), 0.1)])
        forms = []
        cov = start.cov
        for _ in range(250):
            forms.append(per_axis(model, lma, cov))
            cov = model._filter_update(cov)[1]
        assert not forms[0] and forms[-1]
        for seed in range(3):
            # a Generator, then blocks of the same stream, which hand the
            # matrix form arrays and the per-axis form floats
            for blocks in (False, True):
                sim, ref = (SimState(truth=start.mean + 0.01, belief=start)
                            for _ in range(2))
                rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                rec = run_lma(lma, sim, far, model, 250,
                              beliefs.NormalBlocks(rng) if blocks else rng)
                assert rec.outcome == TerminationRecord.TIMEOUT
                assert rec == reference_run_lma(lma, ref, far, model, 250,
                                                ref_rng)
                assert_same_state(sim, ref)
                if not blocks:
                    assert rng.bit_generator.state \
                        == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(run_cases(), st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=120),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_estimate_edge_matches_per_step_draws(self, case, m, max_steps,
                                                  seed):
        model, lma, start, _, balls, _ = case
        # the edge starts at the first ball's milestone (its start jitter
        # uses the center's covariance) and is named after it
        src = Milestone(id=balls.ids[0], center=GaussianBelief(
            start.mean, stationary_covariance(model)), epsilon=0.05)
        args = (src, lma, 9, balls, model, m, max_steps)
        assert estimate_edge(*args, np.random.default_rng(seed)) \
            == reference_estimate_edge(*args, np.random.default_rng(seed))


def scan_every_step(lma, start, stops, model, max_steps, normals, order=None,
                    trail=None):
    """``run_lma`` with a landing scan (``BallIndex.first_at``) before every
    step, each step's filter entry through ``_filter_update`` and its cost
    through ``_step_cost``; appends the mean, covariance and bytes of every
    scan to ``trail``, when given.  Mutates ``start`` as ``run_lma``
    does."""
    if order is None:
        order = range(len(stops.ids))
    axes = model._axes if lma._axes is not None else None
    truth, mean, cov, key = start.x, start.mean, start.cov, start.cov_key
    arrays = None
    start_reward = reward = start.accrued_reward
    steps = 0
    while True:
        if trail is not None:
            trail.append((mean, cov, key))
        k = stops.first_at(mean, cov, order, key)
        if k is not None:
            outcome, region = TerminationRecord.LANDED, stops.ids[k]
            break
        if steps >= max_steps:
            outcome, region = TerminationRecord.TIMEOUT, None
            break
        K, cov, k_diag, key = model._filter_update(cov, key)[:4]
        if axes is not None and k_diag is not None:
            truth, mean, u = beliefs._axis_step(axes, lma._axes, k_diag, truth,
                                                mean,
                                                normals.take(model._n_noise))
            arrays = None
        else:
            if arrays is None:
                arrays = np.array(truth), np.array(mean)
            truth_a, mean_a, u = beliefs._matrix_step(
                lma, model, K, *arrays, normals.take_array(model._n_noise))
            arrays = truth_a, mean_a
            truth, mean = truth_a.tolist(), mean_a.tolist()
        reward -= beliefs._step_cost(model.step_cost, u)
        steps += 1
        if model.constraints.violates(truth):
            outcome, region = TerminationRecord.FAILED, 0
            break
    if steps:
        start.x, start.mean, start.cov, start.cov_key = truth, mean, cov, key
        start.accrued_reward = reward
    return TerminationRecord(outcome=outcome, region_id=region,
                             elapsed_steps=steps,
                             accrued_reward=reward - start_reward)


def array_start_estimate_edge(start_milestone, lma, to_id, balls, model, m,
                              max_steps, rng):
    """``estimate_edge`` with each run's start formed by array products into
    a ``SimState`` of a ``GaussianBelief``, and each run by
    ``scan_every_step``."""
    center = start_milestone.center
    sigma = start_milestone.epsilon / 3.0
    order = [k for k, i in enumerate(balls.ids) if i != start_milestone.id]
    cov_sqrt = tma_module._psd_sqrt(center.cov)
    n = len(center.mean)
    counts = dict.fromkeys([0, *balls.ids], 0)
    total_reward = total_time = 0.0
    normals = beliefs.NormalBlocks(rng)
    for _ in range(m):
        draw = np.array(normals.take(2 * n))
        mean = center.mean + sigma * draw[:n]
        truth = mean + cov_sqrt @ draw[n:]
        sim = SimState(truth=truth,
                       belief=GaussianBelief._trusted(mean, center.cov))
        rec = scan_every_step(lma, sim, balls, model, max_steps, normals,
                              order)
        counts[rec.region_id if rec.outcome == TerminationRecord.LANDED
               else 0] += 1
        total_reward += rec.accrued_reward
        total_time += rec.elapsed_steps
    return GraphEdge(from_id=start_milestone.id, to_id=to_id,
                     landing_probs={i: c / m for i, c in counts.items()},
                     reward=total_reward / m,
                     time=max(total_time / m, 1e-9), sample_count=m)


def milestones_of(balls, n):
    """The milestones a ``BallIndex`` of ``n``-dimensional beliefs stacks."""
    return [make_milestone(i, balls._means[k], balls._covs[k].reshape(n, n),
                           float(balls._eps[k]))
            for k, i in enumerate(balls.ids)]


class TestSkippedScans:
    """``run_lma`` scans the balls only when the mean could have reached
    one; against a run that scans before every step, to the bit."""

    @settings(max_examples=400, deadline=None)
    @given(run_cases(), st.sampled_from(["drawn", "stationary", "wide"]),
           st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def test_run_lma_matches_a_scan_every_step(self, case, start_cov,
                                               max_steps, seed, data):
        model, lma, start, truth, balls, order = case
        n = model.state_dim
        p = stationary_covariance(model)
        if start_cov == "stationary":
            # the covariance, and so the room, then holds from step to step
            start = GaussianBelief(start.mean, p)
        elif start_cov == "wide":
            # the covariance terms of the distances shrink fast over the
            # first steps, so a room kept across them without the drift
            # would be wrong
            start = GaussianBelief(start.mean, start.cov + 0.02 * np.eye(n))
        ulps = data.draw(st.sampled_from([None, -1, 0, 1]))
        if ulps is not None:
            # one more ball, whose radius is the exact distance of the
            # belief at one scan of the run (often the first, or the
            # second, after the covariance shrank most), or an ulp more or
            # less.  Its center lies ahead of that scan's mean on the line
            # of the step into it, where the triangle inequality that
            # bounds the room is tight; at the first scan, it is the
            # funnel's target.  Its covariance is the stationary one or,
            # off the fixed point, ahead of the scan's on the line of the
            # step into it, where the drift bounds the change of the
            # ball's covariance term tightly
            trail = []
            scan_every_step(lma, SimState(truth=truth.copy(), belief=start),
                            balls, model, max_steps,
                            beliefs.NormalBlocks(np.random.default_rng(seed)),
                            order, trail)
            last = len(trail) - 1
            j = data.draw(st.one_of(st.sampled_from([0, min(1, last)]),
                                    st.integers(min_value=0, max_value=last)))
            mean, cov, key = trail[j]
            center = (np.array(mean) + 0.5 * (np.array(mean)
                                              - np.array(trail[j - 1][0]))
                      if j else lma.attractor.mean)
            ball_cov = p
            if j and data.draw(st.booleans()):
                ahead = cov + 0.5 * (cov - trail[j - 1][1])
                ahead = 0.5 * (ahead + ahead.T)
                if np.linalg.eigvalsh(ahead)[0] >= 0.0:
                    ball_cov = ahead
            probe = BallIndex([make_milestone(9, center, ball_cov, 1.0)])
            eps = float(probe.distances_at(mean, cov, key)[0])
            for _ in range(abs(ulps)):
                eps = float(np.nextafter(eps, np.inf if ulps > 0 else 0.0))
            assume(eps > 0)   # a mean that has stopped moving is its center
            regions = [*milestones_of(balls, n),
                       make_milestone(9, center, ball_cov, eps)]
            balls = BallIndex(regions)
            order = data.draw(st.one_of(
                st.none(), st.permutations(range(len(regions)))))
        # a scan the caller already made of the same balls: at the start
        # mean; behind it on the line from the funnel's target, where the
        # room's triangle inequality is tight for a ball at that target;
        # near it; or at another covariance, whose room the run must not
        # take
        where = data.draw(st.sampled_from(
            [None, "start", "behind", "near", "other covariance"]))
        scanned = None
        if where is not None:
            anchor, scan_cov = start.mean, start.cov
            if where == "behind":
                anchor = start.mean + 0.1 * (start.mean - lma.attractor.mean)
            elif where == "near":
                anchor = start.mean + np.array(data.draw(st.lists(
                    st.floats(-0.05, 0.05), min_size=n, max_size=n)))
            elif where == "other covariance":
                scan_cov = start.cov + 0.05 * np.eye(n)
            at = order if order is not None else range(len(balls.ids))
            scanned = (anchor.tolist(), scan_cov.tobytes(),
                       balls.scan_at(anchor.tolist(), scan_cov, at)[1])
        sim, ref = (SimState(truth=truth.copy(), belief=start)
                    for _ in range(2))
        blocks, ref_blocks = (beliefs.NormalBlocks(np.random.default_rng(seed))
                              for _ in range(2))
        rec = run_lma(lma, sim, balls, model, max_steps, blocks, order,
                      scanned)
        assert rec == scan_every_step(lma, ref, balls, model, max_steps,
                                      ref_blocks, order)
        assert_same_state(sim, ref)
        assert sim.cov_key == ref.cov_key
        assert blocks._pos == ref_blocks._pos
        assert blocks._rng.bit_generator.state \
            == ref_blocks._rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(run_cases(), st.booleans(), st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=120),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_estimate_edge_matches_array_starts(self, case, full, m,
                                                max_steps, seed):
        model, lma, start, _, balls, _ = case
        n = model.state_dim
        cov = stationary_covariance(model)
        if full and n > 1:
            # terms off the diagonal: the root is not diagonal, and the
            # runs start through the array products
            cov = cov + 2e-5 * np.ones((n, n))
        roots = beliefs._diagonal(tma_module._psd_sqrt(cov))
        assert (roots is None) == (full and n > 1)
        src = Milestone(id=balls.ids[0], center=GaussianBelief(start.mean, cov),
                        epsilon=0.05)
        args = (src, lma, 9, balls, model, m, max_steps)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert estimate_edge(*args, rng) \
            == array_start_estimate_edge(*args, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
